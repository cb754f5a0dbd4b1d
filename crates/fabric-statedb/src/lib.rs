//! Versioned key-value state database (the LevelDB role in Fabric).
//!
//! Each peer "maintains its own copy of the ledger and current global
//! state of the data in a state database" (paper §2.1.1). Values are
//! versioned by *height* — the `(block, tx)` coordinate of the committing
//! transaction — and the MVCC check of the validation phase compares the
//! version observed at endorsement time against the current version
//! (paper §2.1.2 step 3).
//!
//! Three stores are provided:
//!
//! * [`StateDb`] — the unbounded, thread-safe store used by software
//!   peers: a *facade* over the sharded store (the production path)
//!   or, when built explicitly, the legacy reference (see below);
//! * [`LegacyStateDb`] — the original single-map-single-lock store,
//!   kept fully compiled as the **differential oracle**: the
//!   equivalence harness, the cluster's serial-replay oracle and the
//!   benchmarks build it explicitly to hold the sharded store to
//!   bit-identical results;
//! * [`ShardedStateDb`] — the hash-sharded MVCC store: per-shard
//!   version-chained maps so reads can pin a height snapshot without
//!   blocking the committer, a k-way merged ordered index preserving
//!   range/prefix scans, and per-shard write batches so a block's
//!   commit goes wide over disjoint shards;
//! * [`BoundedStateDb`] — a capacity-limited store with an explicit
//!   read/write-lock discipline, modeling the in-hardware BRAM/URAM
//!   key-value store of the Blockchain Machine (paper §3.3: 8192
//!   entries, "internal locking mechanism to disallow reading of a key
//!   if it is currently being written").
//!
//! # One production path
//!
//! [`StateDb::new`] always builds the sharded store; there is no
//! runtime or build-time switch. The legacy store is reached only
//! through [`StateDb::with_backend`] (and the other explicit
//! constructors), which is how the references are built.
//!
//! Both backends answer the *same* API with the same semantics for
//! every sequential interleaving of `apply`/`get`/`range`/`snapshot` —
//! asserted by the proptest differential harness in
//! `tests/tests/statedb_equivalence.rs` (bit-identical state hashes,
//! MVCC flags, and range-scan results on randomized batches). They
//! differ under concurrency: the sharded store's [`StateDb::pin`]
//! snapshot reads proceed while the committer applies batches, where
//! the legacy store materializes the snapshot up front.

#![warn(missing_docs)]

use std::fmt;
use std::sync::Arc;

mod bounded;
mod legacy;
mod sharded;

pub use bounded::{BoundedDbError, BoundedStateDb, HW_DB_DEFAULT_CAPACITY};
pub use legacy::{LegacySnapshotChunks, LegacyStateDb, SNAPSHOT_CHUNK};
pub use sharded::{ShardedSnapshot, ShardedSnapshotChunks, ShardedStateDb, DEFAULT_SHARDS};

/// A `(block, tx)` height: the version tag Fabric stores with each value
/// ("its version created from block number and transaction sequence
/// number", paper §3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Height {
    /// Committing block number.
    pub block_num: u64,
    /// Transaction index within the block.
    pub tx_num: u64,
}

impl Height {
    /// Creates a height.
    pub fn new(block_num: u64, tx_num: u64) -> Self {
        Height { block_num, tx_num }
    }
}

impl fmt::Display for Height {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.block_num, self.tx_num)
    }
}

/// A stored value with its version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionedValue {
    /// The application value.
    pub value: Vec<u8>,
    /// Height of the transaction that wrote it.
    pub version: Height,
}

/// A batch of writes applied atomically at commit.
#[derive(Debug, Clone, Default)]
pub struct WriteBatch {
    entries: Vec<(String, Option<Vec<u8>>)>,
}

impl WriteBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        WriteBatch::default()
    }

    /// Queues a put.
    pub fn put(&mut self, key: impl Into<String>, value: Vec<u8>) -> &mut Self {
        self.entries.push((key.into(), Some(value)));
        self
    }

    /// Queues a delete.
    pub fn delete(&mut self, key: impl Into<String>) -> &mut Self {
        self.entries.push((key.into(), None));
        self
    }

    /// Number of queued operations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(key, value-or-delete)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Option<&[u8]>)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v.as_deref()))
    }
}

impl FromIterator<(String, Option<Vec<u8>>)> for WriteBatch {
    fn from_iter<I: IntoIterator<Item = (String, Option<Vec<u8>>)>>(iter: I) -> Self {
        WriteBatch {
            entries: iter.into_iter().collect(),
        }
    }
}

impl Extend<(String, Option<Vec<u8>>)> for WriteBatch {
    fn extend<I: IntoIterator<Item = (String, Option<Vec<u8>>)>>(&mut self, iter: I) {
        self.entries.extend(iter);
    }
}

/// A write-ahead journal attached to a [`StateDb`].
///
/// When a sink is attached (see [`StateDb::attach_journal`]), every
/// [`StateDb::apply`] forwards the batch and height to the sink *before*
/// mutating the in-memory map — the write-ahead ordering a durable
/// backend (`fabric-store`'s state journal) needs so that any state a
/// reader can observe is also recoverable from the journal. Empty
/// batches are journaled too: recovery counts one record per valid
/// transaction, including transactions with empty write sets.
///
/// **Record order is apply order** on both backends. The legacy store
/// records under the same write lock that orders the in-memory apply;
/// the sharded store records under its commit-order mutex, which is
/// held across the whole (possibly shard-parallel) apply — so even when
/// a block's batches fan out over shards concurrently, the journal sees
/// them in exact commit order and a replay reproduces the state
/// byte-for-byte (`journal_order_is_apply_order_under_parallel_commit`
/// in the equivalence harness).
///
/// Sinks must be infallible from the caller's perspective; a durable
/// implementation that cannot write its journal should panic rather
/// than let commits proceed unlogged.
pub trait JournalSink: Send + Sync + std::fmt::Debug {
    /// Records one batch at its commit height, before it becomes
    /// visible in memory.
    fn record(&self, batch: &WriteBatch, height: Height);
    /// Forces buffered journal bytes down to the backing medium (the
    /// group-commit boundary).
    fn flush(&self);
}

/// Statistics counters for a state database.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StateDbStats {
    /// Total point reads served.
    pub reads: u64,
    /// Total writes applied.
    pub writes: u64,
    /// Reads that found no value.
    pub misses: u64,
}

/// Which state-database implementation a [`StateDb`] runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateBackend {
    /// Hash-sharded MVCC store (per-shard version chains, pinned
    /// snapshot reads, wide block commit).
    Sharded,
    /// The original single-map store, kept as the differential oracle.
    Legacy,
}

impl StateBackend {
    /// Stable lowercase name, as used in benchmark output.
    pub fn name(&self) -> &'static str {
        match self {
            StateBackend::Sharded => "sharded",
            StateBackend::Legacy => "legacy",
        }
    }
}

impl fmt::Display for StateBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The backend [`StateDb::new`] builds: always
/// [`StateBackend::Sharded`].
pub fn default_state_backend() -> StateBackend {
    StateBackend::Sharded
}

/// The unbounded, thread-safe versioned store used by software peers —
/// a facade dispatching to the configured [`StateBackend`].
///
/// Cloning is cheap: clones share the same underlying maps, matching
/// how a peer's components all see one state database.
///
/// ```
/// use fabric_statedb::{Height, StateDb, WriteBatch};
/// let db = StateDb::new();
/// let mut batch = WriteBatch::new();
/// batch.put("k", b"v".to_vec());
/// db.apply(&batch, Height::new(1, 0));
/// assert_eq!(db.get("k").unwrap().value, b"v");
/// ```
#[derive(Debug, Clone)]
pub struct StateDb {
    inner: Backend,
}

#[derive(Debug, Clone)]
enum Backend {
    Legacy(LegacyStateDb),
    Sharded(ShardedStateDb),
}

impl Default for StateDb {
    fn default() -> Self {
        StateDb::new()
    }
}

impl StateDb {
    /// Creates an empty database on the sharded backend (see
    /// [`default_state_backend`]).
    pub fn new() -> Self {
        StateDb::with_backend(default_state_backend())
    }

    /// Creates an empty database on an explicit backend — how the
    /// differential harness constructs its oracle/subject pair.
    pub fn with_backend(backend: StateBackend) -> Self {
        let inner = match backend {
            StateBackend::Legacy => Backend::Legacy(LegacyStateDb::new()),
            StateBackend::Sharded => Backend::Sharded(ShardedStateDb::new()),
        };
        StateDb { inner }
    }

    /// Creates an empty *sharded* database with an explicit shard count
    /// (shard-count independence is itself a tested property; the
    /// default is [`DEFAULT_SHARDS`]).
    pub fn sharded_with_shards(shards: usize) -> Self {
        StateDb {
            inner: Backend::Sharded(ShardedStateDb::with_shards(shards)),
        }
    }

    /// Wraps an existing legacy store in the facade.
    pub fn from_legacy(db: LegacyStateDb) -> Self {
        StateDb {
            inner: Backend::Legacy(db),
        }
    }

    /// Wraps an existing sharded store in the facade.
    pub fn from_sharded(db: ShardedStateDb) -> Self {
        StateDb {
            inner: Backend::Sharded(db),
        }
    }

    /// Rebuilds a database from a checkpoint snapshot on the sharded
    /// backend: the entries of a previous
    /// [`StateDb::snapshot`] plus the tip height recorded with it. The
    /// journal replay that follows a snapshot restore continues from
    /// this tip. Snapshot entries are an ordered, backend-independent
    /// dump, so a checkpoint written by one backend restores into the
    /// other (the recovery cross-check relies on this).
    pub fn from_snapshot(entries: Vec<(String, VersionedValue)>, tip: Option<Height>) -> Self {
        Self::from_snapshot_with_backend(default_state_backend(), entries, tip)
    }

    /// [`StateDb::from_snapshot`] on an explicit backend.
    pub fn from_snapshot_with_backend(
        backend: StateBackend,
        entries: Vec<(String, VersionedValue)>,
        tip: Option<Height>,
    ) -> Self {
        let inner = match backend {
            StateBackend::Legacy => Backend::Legacy(LegacyStateDb::from_snapshot(entries, tip)),
            StateBackend::Sharded => Backend::Sharded(ShardedStateDb::from_snapshot(entries, tip)),
        };
        StateDb { inner }
    }

    /// The backend this database dispatches to.
    pub fn backend(&self) -> StateBackend {
        match &self.inner {
            Backend::Legacy(_) => StateBackend::Legacy,
            Backend::Sharded(_) => StateBackend::Sharded,
        }
    }

    /// Attaches a write-ahead journal sink. Every subsequent
    /// [`StateDb::apply`] records to the sink before touching the map.
    /// Attach *after* recovery replay so replayed batches are not
    /// re-journaled.
    pub fn attach_journal(&self, sink: Arc<dyn JournalSink>) {
        match &self.inner {
            Backend::Legacy(db) => db.attach_journal(sink),
            Backend::Sharded(db) => db.attach_journal(sink),
        }
    }

    /// Flushes the attached journal (a no-op without one): the durable
    /// group-commit boundary.
    pub fn flush_journal(&self) {
        match &self.inner {
            Backend::Legacy(db) => db.flush_journal(),
            Backend::Sharded(db) => db.flush_journal(),
        }
    }

    /// Point read of the current value and version.
    pub fn get(&self, key: &str) -> Option<VersionedValue> {
        match &self.inner {
            Backend::Legacy(db) => db.get(key),
            Backend::Sharded(db) => db.get(key),
        }
    }

    /// Reads just the version (the MVCC hot path).
    pub fn get_version(&self, key: &str) -> Option<Height> {
        self.get(key).map(|v| v.version)
    }

    /// Applies a write batch, stamping every entry at `height`. With a
    /// journal attached the batch is recorded first (write-ahead),
    /// under the lock that orders commits — so the journal's record
    /// order is exactly the apply order. Sinks must not call back into
    /// this database.
    pub fn apply(&self, batch: &WriteBatch, height: Height) {
        match &self.inner {
            Backend::Legacy(db) => db.apply(batch, height),
            Backend::Sharded(db) => db.apply(batch, height),
        }
    }

    /// Applies one block's worth of per-transaction batches in commit
    /// order — the streaming validator's commit stage calls this once
    /// per block. Journal records are emitted for *every* batch
    /// (including empty ones: recovery counts one record per valid
    /// transaction) in exact batch order; on the sharded backend the
    /// in-memory apply then fans out over disjoint shards concurrently,
    /// which is the "commit stage goes wide" half of the MVCC rework.
    /// Equivalent to `for (b, h) in batches { self.apply(b, h) }` on
    /// any backend.
    pub fn apply_block(&self, batches: &[(WriteBatch, Height)]) {
        match &self.inner {
            Backend::Legacy(db) => {
                for (batch, height) in batches {
                    db.apply(batch, *height);
                }
            }
            Backend::Sharded(db) => db.apply_block(batches),
        }
    }

    /// Re-applies a journaled batch during recovery: identical to
    /// [`StateDb::apply`] except the batch is *never* forwarded to an
    /// attached journal (replaying must not re-journal).
    pub fn replay(&self, batch: &WriteBatch, height: Height) {
        match &self.inner {
            Backend::Legacy(db) => db.replay(batch, height),
            Backend::Sharded(db) => db.replay(batch, height),
        }
    }

    /// Range scan over `[start, end)`, in key order. On the sharded
    /// backend this is a k-way merge across the per-shard ordered maps.
    pub fn range(&self, start: &str, end: &str) -> Vec<(String, VersionedValue)> {
        match &self.inner {
            Backend::Legacy(db) => db.range(start, end),
            Backend::Sharded(db) => db.range(start, end),
        }
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        match &self.inner {
            Backend::Legacy(db) => db.len(),
            Backend::Sharded(db) => db.len(),
        }
    }

    /// Whether the store has no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the statistics counters.
    pub fn stats(&self) -> StateDbStats {
        match &self.inner {
            Backend::Legacy(db) => db.stats(),
            Backend::Sharded(db) => db.stats(),
        }
    }

    /// Highest height ever passed to [`StateDb::apply`], or `None` for a
    /// database that has never committed. Commit heights in Fabric are
    /// monotone, so this is "the visibility horizon": a reader at this
    /// height sees every committed write.
    pub fn tip_height(&self) -> Option<Height> {
        match &self.inner {
            Backend::Legacy(db) => db.tip_height(),
            Backend::Sharded(db) => db.tip_height(),
        }
    }

    /// Full ordered dump of the live keys with values and versions — the
    /// serial-equivalence harness compares final database contents with
    /// this (a `range` over the whole keyspace would need a sentinel
    /// upper bound). Assembled from bounded chunks (see
    /// [`StateDb::snapshot_chunks`]), so a checkpoint of a large store
    /// does not stall concurrent writers for the whole copy.
    pub fn snapshot(&self) -> Vec<(String, VersionedValue)> {
        self.snapshot_chunks(SNAPSHOT_CHUNK).flatten().collect()
    }

    /// Chunked snapshot iterator: each `next()` takes the relevant
    /// locks, clones up to `chunk` entries starting after the previous
    /// chunk's last key, and releases them — writers interleave freely
    /// between chunks. Keys are yielded in ascending order; a key
    /// inserted *behind* the cursor mid-scan is not revisited. On the
    /// sharded backend each chunk k-way merges the per-shard tails.
    ///
    /// # Panics
    ///
    /// Panics if `chunk == 0`.
    pub fn snapshot_chunks(&self, chunk: usize) -> SnapshotChunks {
        match &self.inner {
            Backend::Legacy(db) => SnapshotChunks::Legacy(db.snapshot_chunks(chunk)),
            Backend::Sharded(db) => SnapshotChunks::Sharded(db.snapshot_chunks(chunk)),
        }
    }

    /// Deterministic 64-bit digest (FNV-1a) of the full ordered dump —
    /// keys, values, and versions. Backend-independent by construction,
    /// which is what the differential harness and the recovery
    /// cross-check assert: equal state hashes ⇔ bit-identical stores.
    pub fn state_hash(&self) -> u64 {
        let mut hash = FNV_OFFSET;
        for chunk in self.snapshot_chunks(SNAPSHOT_CHUNK) {
            for (key, v) in &chunk {
                hash = fnv1a(hash, &(key.len() as u64).to_le_bytes());
                hash = fnv1a(hash, key.as_bytes());
                hash = fnv1a(hash, &(v.value.len() as u64).to_le_bytes());
                hash = fnv1a(hash, &v.value);
                hash = fnv1a(hash, &v.version.block_num.to_le_bytes());
                hash = fnv1a(hash, &v.version.tx_num.to_le_bytes());
            }
        }
        hash
    }

    /// Pins a read snapshot at the current *committed* height: every
    /// read through the returned handle observes exactly the state as
    /// of that height, whatever the committer applies afterwards.
    ///
    /// On the sharded backend this is the MVCC fast path — the pin
    /// registers in O(1), readers resolve against per-key version
    /// chains, and version pruning is fenced below the oldest live pin.
    /// On the legacy backend the snapshot is materialized up front
    /// (O(n)) — which makes it the *ground truth* the differential
    /// harness holds sharded pinned reads to.
    pub fn pin(&self) -> StateSnapshot {
        match &self.inner {
            Backend::Legacy(db) => {
                let (height, map) = db.pin_materialized();
                StateSnapshot {
                    inner: SnapInner::Legacy { height, map },
                }
            }
            Backend::Sharded(db) => StateSnapshot {
                inner: SnapInner::Sharded(db.pin()),
            },
        }
    }

    /// MVCC validation of a read set: every `(key, expected)` pair must
    /// match the current version exactly ("the read set of each
    /// transaction is computed again by accessing the state database, and
    /// is compared to the read set from the endorsement phase",
    /// paper §2.1.2).
    pub fn mvcc_validate(&self, reads: &[(String, Option<Height>)]) -> bool {
        reads
            .iter()
            .all(|(key, expected)| self.get_version(key) == *expected)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Iterator over bounded snapshot chunks of a [`StateDb`]; see
/// [`StateDb::snapshot_chunks`].
#[derive(Debug)]
pub enum SnapshotChunks {
    /// Chunks off the legacy single map.
    Legacy(LegacySnapshotChunks),
    /// Chunks k-way merged across shards.
    Sharded(ShardedSnapshotChunks),
}

impl Iterator for SnapshotChunks {
    type Item = Vec<(String, VersionedValue)>;

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            SnapshotChunks::Legacy(it) => it.next(),
            SnapshotChunks::Sharded(it) => it.next(),
        }
    }
}

/// A height-pinned read view of a [`StateDb`]; see [`StateDb::pin`].
///
/// Reads never observe a torn batch: the pinned height is the commit
/// high-water mark at pin time, and every write at or below it was
/// fully applied before that mark advanced. Reads through this handle
/// do not touch the statistics counters.
#[derive(Debug)]
pub struct StateSnapshot {
    inner: SnapInner,
}

#[derive(Debug)]
enum SnapInner {
    Legacy {
        height: Option<Height>,
        /// Ordered materialized dump (the oracle side).
        map: Vec<(String, VersionedValue)>,
    },
    Sharded(ShardedSnapshot),
}

impl StateSnapshot {
    /// The height this snapshot is pinned at (`None` = pre-genesis:
    /// every read sees an empty store).
    pub fn height(&self) -> Option<Height> {
        match &self.inner {
            SnapInner::Legacy { height, .. } => *height,
            SnapInner::Sharded(s) => s.height(),
        }
    }

    /// Point read as of the pinned height.
    pub fn get(&self, key: &str) -> Option<VersionedValue> {
        match &self.inner {
            SnapInner::Legacy { map, .. } => map
                .binary_search_by(|(k, _)| k.as_str().cmp(key))
                .ok()
                .map(|i| map[i].1.clone()),
            SnapInner::Sharded(s) => s.get(key),
        }
    }

    /// Version-only read as of the pinned height.
    pub fn get_version(&self, key: &str) -> Option<Height> {
        self.get(key).map(|v| v.version)
    }

    /// Range scan over `[start, end)` as of the pinned height.
    pub fn range(&self, start: &str, end: &str) -> Vec<(String, VersionedValue)> {
        match &self.inner {
            SnapInner::Legacy { map, .. } => map
                .iter()
                .filter(|(k, _)| k.as_str() >= start && k.as_str() < end)
                .cloned()
                .collect(),
            SnapInner::Sharded(s) => s.range(start, end),
        }
    }

    /// Full ordered dump as of the pinned height.
    pub fn snapshot(&self) -> Vec<(String, VersionedValue)> {
        match &self.inner {
            SnapInner::Legacy { map, .. } => map.clone(),
            SnapInner::Sharded(s) => s.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn both() -> [StateDb; 2] {
        [
            StateDb::with_backend(StateBackend::Legacy),
            StateDb::with_backend(StateBackend::Sharded),
        ]
    }

    #[test]
    fn put_get_roundtrip_on_both_backends() {
        for db in both() {
            let mut b = WriteBatch::new();
            b.put("a", b"1".to_vec());
            db.apply(&b, Height::new(1, 0));
            assert_eq!(db.get("a").unwrap().value, b"1", "{}", db.backend());
            assert_eq!(db.get_version("a"), Some(Height::new(1, 0)));
            assert_eq!(db.get("missing"), None);
        }
    }

    #[test]
    fn delete_removes_key_on_both_backends() {
        for db in both() {
            let mut b = WriteBatch::new();
            b.put("a", b"1".to_vec());
            db.apply(&b, Height::new(1, 0));
            let mut d = WriteBatch::new();
            d.delete("a");
            db.apply(&d, Height::new(2, 0));
            assert_eq!(db.get("a"), None, "{}", db.backend());
            assert_eq!(db.len(), 0);
        }
    }

    #[test]
    fn mvcc_validation_semantics_on_both_backends() {
        for db in both() {
            let mut b = WriteBatch::new();
            b.put("a", b"1".to_vec());
            db.apply(&b, Height::new(1, 0));
            assert!(db.mvcc_validate(&[("a".into(), Some(Height::new(1, 0)))]));
            assert!(!db.mvcc_validate(&[("a".into(), Some(Height::new(0, 0)))]));
            assert!(db.mvcc_validate(&[("nope".into(), None)]));
            assert!(!db.mvcc_validate(&[("a".into(), None)]));
        }
    }

    #[test]
    fn state_hash_is_backend_independent() {
        let [legacy, sharded] = both();
        for db in [&legacy, &sharded] {
            let mut b = WriteBatch::new();
            for i in 0..64 {
                b.put(format!("key{i:03}"), vec![i as u8; 3]);
            }
            db.apply(&b, Height::new(1, 0));
            let mut d = WriteBatch::new();
            d.delete("key007");
            d.put("key100", vec![9]);
            db.apply(&d, Height::new(2, 1));
        }
        assert_eq!(legacy.snapshot(), sharded.snapshot());
        assert_eq!(legacy.state_hash(), sharded.state_hash());
        assert_ne!(legacy.state_hash(), StateDb::new().state_hash());
    }

    #[test]
    fn apply_block_equals_sequential_applies() {
        for backend in [StateBackend::Legacy, StateBackend::Sharded] {
            let serial = StateDb::with_backend(backend);
            let blockwise = StateDb::with_backend(backend);
            let mut batches = Vec::new();
            for tx in 0..8u64 {
                let mut b = WriteBatch::new();
                b.put(format!("k{}", tx % 3), vec![tx as u8]);
                if tx % 2 == 0 {
                    b.delete("k0");
                }
                batches.push((b, Height::new(5, tx)));
            }
            // One empty batch (a valid tx with an empty write set).
            batches.push((WriteBatch::new(), Height::new(5, 8)));
            for (b, h) in &batches {
                serial.apply(b, *h);
            }
            blockwise.apply_block(&batches);
            assert_eq!(serial.snapshot(), blockwise.snapshot(), "{backend}");
            assert_eq!(serial.tip_height(), blockwise.tip_height());
        }
    }

    #[test]
    fn pinned_snapshot_is_stable_across_later_commits() {
        for db in both() {
            let mut b = WriteBatch::new();
            b.put("a", vec![1]);
            b.put("b", vec![2]);
            db.apply(&b, Height::new(1, 0));
            let pin = db.pin();
            assert_eq!(pin.height(), Some(Height::new(1, 0)));
            let mut later = WriteBatch::new();
            later.put("a", vec![9]);
            later.delete("b");
            later.put("c", vec![3]);
            db.apply(&later, Height::new(2, 0));
            // The live view moved...
            assert_eq!(db.get("a").unwrap().value, vec![9]);
            assert_eq!(db.get("b"), None);
            // ...the pinned view did not.
            assert_eq!(pin.get("a").unwrap().value, vec![1], "{}", db.backend());
            assert_eq!(pin.get("b").unwrap().value, vec![2]);
            assert_eq!(pin.get("c"), None);
            let keys: Vec<String> = pin.range("", "zzz").into_iter().map(|(k, _)| k).collect();
            assert_eq!(keys, vec!["a", "b"]);
        }
    }

    #[test]
    fn pin_of_empty_store_sees_nothing_ever() {
        for db in both() {
            let pin = db.pin();
            assert_eq!(pin.height(), None);
            let mut b = WriteBatch::new();
            b.put("a", vec![1]);
            db.apply(&b, Height::new(0, 0));
            assert_eq!(pin.get("a"), None, "{}", db.backend());
            assert!(pin.snapshot().is_empty());
        }
    }

    #[test]
    fn from_snapshot_round_trips_across_backends() {
        let src = StateDb::with_backend(StateBackend::Sharded);
        let mut b = WriteBatch::new();
        for i in 0..300 {
            b.put(format!("k{i:04}"), vec![(i % 251) as u8]);
        }
        src.apply(&b, Height::new(4, 1));
        let entries = src.snapshot();
        let tip = src.tip_height();
        for backend in [StateBackend::Legacy, StateBackend::Sharded] {
            let restored = StateDb::from_snapshot_with_backend(backend, entries.clone(), tip);
            assert_eq!(restored.snapshot(), entries, "{backend}");
            assert_eq!(restored.tip_height(), tip);
            assert_eq!(restored.state_hash(), src.state_hash());
            assert_eq!(restored.len(), 300);
        }
    }

    #[test]
    fn backend_names_are_stable() {
        assert_eq!(StateBackend::Sharded.name(), "sharded");
        assert_eq!(StateBackend::Legacy.name(), "legacy");
        assert_eq!(StateBackend::Sharded.to_string(), "sharded");
    }

    #[test]
    fn write_batch_from_iterator() {
        let batch: WriteBatch = vec![("a".to_string(), Some(vec![1])), ("b".to_string(), None)]
            .into_iter()
            .collect();
        assert_eq!(batch.len(), 2);
    }
}
