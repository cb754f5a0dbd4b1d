//! The original single-map state store, kept compiled as the
//! **differential oracle** for the sharded MVCC backend.
//!
//! One `BTreeMap` behind one `RwLock`: trivially correct for every
//! sequential interleaving, which is exactly what an oracle should be.
//! The equivalence harness (`tests/tests/statedb_equivalence.rs`) holds
//! [`crate::ShardedStateDb`] to bit-identical results against this
//! store. It is never a process default: callers that want the oracle
//! build it explicitly with
//! `StateDb::with_backend(StateBackend::Legacy)`.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::{Height, JournalSink, StateDbStats, VersionedValue, WriteBatch};

/// Entries cloned per lock acquisition by snapshotting: large enough to
/// amortize the lock round-trip, small enough that a writer blocked
/// behind a chunk waits microseconds, not the whole copy.
pub const SNAPSHOT_CHUNK: usize = 1024;

/// The original unbounded, thread-safe versioned store: a single ordered
/// map behind one reader-writer lock. See the module docs for why it is
/// kept.
///
/// Cloning is cheap: clones share the same underlying map.
#[derive(Debug, Clone)]
pub struct LegacyStateDb {
    inner: Arc<RwLock<Inner>>,
}

impl Default for LegacyStateDb {
    fn default() -> Self {
        LegacyStateDb {
            inner: Arc::new(RwLock::named("statedb.legacy", Inner::default())),
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    map: BTreeMap<String, VersionedValue>,
    stats: StateDbStats,
    /// High-water mark of heights passed to [`LegacyStateDb::apply`]. The
    /// validator's commit stage debug-asserts against it that block
    /// writes land in strictly increasing block order (the invariant the
    /// streaming commit sequencer exists to preserve).
    tip: Option<Height>,
    /// Optional write-ahead journal; [`LegacyStateDb::apply`] forwards
    /// every batch here before mutating the map.
    journal: Option<Arc<dyn JournalSink>>,
}

impl LegacyStateDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        LegacyStateDb::default()
    }

    /// Rebuilds a database from a checkpoint snapshot: the entries of a
    /// previous [`LegacyStateDb::snapshot`] plus the tip height recorded
    /// with it. The journal replay that follows a snapshot restore
    /// continues from this tip.
    pub fn from_snapshot(entries: Vec<(String, VersionedValue)>, tip: Option<Height>) -> Self {
        LegacyStateDb {
            inner: Arc::new(RwLock::named(
                "statedb.legacy",
                Inner {
                    map: entries.into_iter().collect(),
                    stats: StateDbStats::default(),
                    tip,
                    journal: None,
                },
            )),
        }
    }

    /// Attaches a write-ahead journal sink. Every subsequent
    /// [`LegacyStateDb::apply`] records to the sink before touching the
    /// map. Attach *after* recovery replay so replayed batches are not
    /// re-journaled.
    pub fn attach_journal(&self, sink: Arc<dyn JournalSink>) {
        self.inner.write().journal = Some(sink);
    }

    /// Flushes the attached journal (a no-op without one): the durable
    /// group-commit boundary.
    pub fn flush_journal(&self) {
        let sink = self.inner.read().journal.clone();
        if let Some(sink) = sink {
            sink.flush();
        }
    }

    /// Point read of the current value and version.
    pub fn get(&self, key: &str) -> Option<VersionedValue> {
        let mut g = self.inner.write();
        g.stats.reads += 1;
        let hit = g.map.get(key).cloned();
        if hit.is_none() {
            g.stats.misses += 1;
        }
        hit
    }

    /// Reads just the version (the MVCC hot path).
    pub fn get_version(&self, key: &str) -> Option<Height> {
        self.get(key).map(|v| v.version)
    }

    /// Applies a write batch, stamping every entry at `height`. With a
    /// journal attached the batch is recorded first (write-ahead), under
    /// the same write lock that orders the in-memory apply — so the
    /// journal's record order is exactly the apply order. The sink write
    /// deliberately happens *inside* the lock: releasing between record
    /// and apply would let a concurrent `apply` journal ahead of an
    /// earlier in-memory mutation and break replay determinism (the
    /// sharded backend preserves the same invariant with a dedicated
    /// commit-order mutex; see [`crate::JournalSink`]). Sinks must not
    /// call back into this database.
    pub fn apply(&self, batch: &WriteBatch, height: Height) {
        let mut g = self.inner.write();
        if let Some(journal) = &g.journal {
            // check-sync: same journal-order invariant as the sharded
            // backend — record must happen under the lock that orders
            // the in-memory apply.
            #[cfg(feature = "check-sync")]
            if fabric_check::enabled() {
                assert!(
                    fabric_check::holding("statedb.legacy"),
                    "legacy journal-order invariant violated: record outside `statedb.legacy`"
                );
            }
            journal.record(batch, height);
        }
        Self::apply_locked(&mut g, batch, height);
    }

    /// Re-applies a journaled batch during recovery: identical to
    /// [`LegacyStateDb::apply`] except the batch is *never* forwarded to
    /// an attached journal (replaying must not re-journal).
    pub fn replay(&self, batch: &WriteBatch, height: Height) {
        let mut g = self.inner.write();
        Self::apply_locked(&mut g, batch, height);
    }

    fn apply_locked(g: &mut Inner, batch: &WriteBatch, height: Height) {
        g.tip = Some(match g.tip {
            Some(tip) => tip.max(height),
            None => height,
        });
        for (key, value) in batch.iter() {
            g.stats.writes += 1;
            match value {
                Some(v) => {
                    g.map.insert(
                        key.to_string(),
                        VersionedValue {
                            value: v.to_vec(),
                            version: height,
                        },
                    );
                }
                None => {
                    g.map.remove(key);
                }
            }
        }
    }

    /// Range scan over `[start, end)`, in key order.
    pub fn range(&self, start: &str, end: &str) -> Vec<(String, VersionedValue)> {
        let g = self.inner.read();
        g.map
            .range(start.to_string()..end.to_string())
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.inner.read().map.len()
    }

    /// Whether the store has no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the statistics counters.
    pub fn stats(&self) -> StateDbStats {
        self.inner.read().stats
    }

    /// Highest height ever passed to [`LegacyStateDb::apply`], or `None`
    /// for a database that has never committed.
    pub fn tip_height(&self) -> Option<Height> {
        self.inner.read().tip
    }

    /// Full ordered dump of the live keys with values and versions,
    /// assembled from bounded chunks ([`SNAPSHOT_CHUNK`] entries per
    /// lock acquisition, see [`LegacyStateDb::snapshot_chunks`]), so a
    /// checkpoint of a large store does not stall concurrent
    /// [`LegacyStateDb::apply`] writers for the whole copy. Quiesced (no
    /// concurrent writers) the result is an exact point-in-time image;
    /// under concurrency it is a *fuzzy* snapshot — consistent per
    /// chunk, and callers needing exactness (crash recovery) must replay
    /// a journal tail over it, which is precisely what `fabric-store`
    /// checkpointing does.
    pub fn snapshot(&self) -> Vec<(String, VersionedValue)> {
        self.snapshot_chunks(SNAPSHOT_CHUNK).flatten().collect()
    }

    /// Chunked snapshot iterator: each `next()` acquires the read lock,
    /// clones up to `chunk` entries starting after the previous chunk's
    /// last key, and releases the lock — writers interleave freely
    /// between chunks. Keys are yielded in ascending order; a key
    /// inserted *behind* the cursor mid-scan is not revisited.
    ///
    /// # Panics
    ///
    /// Panics if `chunk == 0`.
    pub fn snapshot_chunks(&self, chunk: usize) -> LegacySnapshotChunks {
        assert!(chunk > 0, "snapshot chunk size must be non-zero");
        LegacySnapshotChunks {
            db: self.clone(),
            cursor: None,
            chunk,
            done: false,
        }
    }

    /// Atomically materializes `(tip, full ordered dump)` under ONE
    /// read-lock acquisition — the snapshot-pinning path. Unlike
    /// [`LegacyStateDb::snapshot`] (chunked, fuzzy under concurrency),
    /// this view is exact: a concurrent `apply` lands entirely before
    /// or entirely after it, never across it. O(n) and lock-holding for
    /// the whole copy — which is precisely the cost the sharded
    /// backend's O(1) pins exist to avoid, and why this method is the
    /// oracle for them.
    pub fn pin_materialized(&self) -> (Option<Height>, Vec<(String, VersionedValue)>) {
        let g = self.inner.read();
        (
            g.tip,
            g.map.iter().map(|(k, v)| (k.clone(), v.clone())).collect(),
        )
    }

    /// MVCC validation of a read set: every `(key, expected)` pair must
    /// match the current version exactly.
    pub fn mvcc_validate(&self, reads: &[(String, Option<Height>)]) -> bool {
        reads
            .iter()
            .all(|(key, expected)| self.get_version(key) == *expected)
    }
}

/// Iterator over bounded snapshot chunks of a [`LegacyStateDb`]; see
/// [`LegacyStateDb::snapshot_chunks`].
#[derive(Debug)]
pub struct LegacySnapshotChunks {
    db: LegacyStateDb,
    /// Last key yielded by the previous chunk; the next chunk resumes
    /// strictly after it.
    cursor: Option<String>,
    chunk: usize,
    done: bool,
}

impl Iterator for LegacySnapshotChunks {
    type Item = Vec<(String, VersionedValue)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let batch: Vec<(String, VersionedValue)> = {
            let g = self.db.inner.read();
            let range = match &self.cursor {
                Some(last) => g.map.range::<str, _>((
                    std::ops::Bound::Excluded(last.as_str()),
                    std::ops::Bound::Unbounded,
                )),
                None => g.map.range::<str, _>((
                    std::ops::Bound::<&str>::Unbounded,
                    std::ops::Bound::Unbounded,
                )),
            };
            range
                .take(self.chunk)
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect()
        };
        if batch.len() < self.chunk {
            self.done = true;
        }
        let last = batch.last()?;
        self.cursor = Some(last.0.clone());
        Some(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let db = LegacyStateDb::new();
        let mut b = WriteBatch::new();
        b.put("a", b"1".to_vec());
        db.apply(&b, Height::new(1, 0));
        assert_eq!(db.get("a").unwrap().value, b"1");
        assert_eq!(db.get_version("a"), Some(Height::new(1, 0)));
        assert_eq!(db.get("missing"), None);
    }

    #[test]
    fn later_write_bumps_version() {
        let db = LegacyStateDb::new();
        let mut b = WriteBatch::new();
        b.put("a", b"1".to_vec());
        db.apply(&b, Height::new(1, 0));
        db.apply(&b, Height::new(2, 3));
        assert_eq!(db.get_version("a"), Some(Height::new(2, 3)));
    }

    #[test]
    fn delete_removes_key() {
        let db = LegacyStateDb::new();
        let mut b = WriteBatch::new();
        b.put("a", b"1".to_vec());
        db.apply(&b, Height::new(1, 0));
        let mut d = WriteBatch::new();
        d.delete("a");
        db.apply(&d, Height::new(2, 0));
        assert_eq!(db.get("a"), None);
    }

    #[test]
    fn mvcc_validation_semantics() {
        let db = LegacyStateDb::new();
        let mut b = WriteBatch::new();
        b.put("a", b"1".to_vec());
        db.apply(&b, Height::new(1, 0));
        // matching version -> valid
        assert!(db.mvcc_validate(&[("a".into(), Some(Height::new(1, 0)))]));
        // stale version -> conflict
        assert!(!db.mvcc_validate(&[("a".into(), Some(Height::new(0, 0)))]));
        // read of a missing key expected missing -> valid
        assert!(db.mvcc_validate(&[("nope".into(), None)]));
        // key appeared since endorsement -> conflict
        assert!(!db.mvcc_validate(&[("a".into(), None)]));
    }

    #[test]
    fn range_scan_is_ordered() {
        let db = LegacyStateDb::new();
        let mut b = WriteBatch::new();
        for k in ["b", "a", "c", "d"] {
            b.put(k, k.as_bytes().to_vec());
        }
        db.apply(&b, Height::new(1, 0));
        let keys: Vec<String> = db.range("a", "d").into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["a", "b", "c"]);
    }

    #[test]
    fn stats_track_reads_and_misses() {
        let db = LegacyStateDb::new();
        db.get("x");
        let mut b = WriteBatch::new();
        b.put("x", vec![1]);
        db.apply(&b, Height::new(1, 0));
        db.get("x");
        let s = db.stats();
        assert_eq!(s.reads, 2);
        assert_eq!(s.misses, 1);
        assert_eq!(s.writes, 1);
    }

    #[test]
    fn clones_share_state() {
        let db = LegacyStateDb::new();
        let db2 = db.clone();
        let mut b = WriteBatch::new();
        b.put("k", vec![7]);
        db.apply(&b, Height::new(1, 0));
        assert_eq!(db2.get("k").unwrap().value, vec![7]);
    }

    type RecordedBatch = (Vec<(String, Option<Vec<u8>>)>, Height);

    #[derive(Debug, Default)]
    struct RecordingSink {
        records: parking_lot::Mutex<Vec<RecordedBatch>>,
        flushes: std::sync::atomic::AtomicUsize,
    }

    impl JournalSink for RecordingSink {
        fn record(&self, batch: &WriteBatch, height: Height) {
            self.records.lock().push((
                batch
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.map(|b| b.to_vec())))
                    .collect(),
                height,
            ));
        }

        fn flush(&self) {
            self.flushes
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    #[test]
    fn journal_sink_sees_every_apply_including_empty_batches() {
        let db = LegacyStateDb::new();
        let sink = Arc::new(RecordingSink::default());
        db.attach_journal(sink.clone());
        let mut b = WriteBatch::new();
        b.put("a", vec![1]);
        db.apply(&b, Height::new(1, 0));
        // Empty batches must be journaled too: recovery counts one
        // record per valid transaction.
        db.apply(&WriteBatch::new(), Height::new(1, 1));
        let records = sink.records.lock();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].1, Height::new(1, 0));
        assert_eq!(records[1].0.len(), 0);
        drop(records);
        db.flush_journal();
        assert_eq!(sink.flushes.load(std::sync::atomic::Ordering::Relaxed), 1);
    }

    #[test]
    fn replay_does_not_rejournal() {
        let db = LegacyStateDb::new();
        let sink = Arc::new(RecordingSink::default());
        db.attach_journal(sink.clone());
        let mut b = WriteBatch::new();
        b.put("a", vec![1]);
        db.replay(&b, Height::new(3, 0));
        assert!(sink.records.lock().is_empty(), "replay must not journal");
        assert_eq!(db.get("a").unwrap().version, Height::new(3, 0));
        assert_eq!(db.tip_height(), Some(Height::new(3, 0)));
    }

    #[test]
    fn snapshot_restore_roundtrips_values_and_tip() {
        let db = LegacyStateDb::new();
        let mut b = WriteBatch::new();
        b.put("a", vec![1]);
        b.put("b", vec![2]);
        db.apply(&b, Height::new(4, 1));
        let restored = LegacyStateDb::from_snapshot(db.snapshot(), db.tip_height());
        assert_eq!(restored.snapshot(), db.snapshot());
        assert_eq!(restored.tip_height(), Some(Height::new(4, 1)));
    }

    #[test]
    fn snapshot_chunks_release_the_lock_so_applies_interleave() {
        let db = LegacyStateDb::new();
        let mut b = WriteBatch::new();
        for i in 0..10 {
            b.put(format!("k{i:02}"), vec![i]);
        }
        db.apply(&b, Height::new(1, 0));

        // Pull one chunk, then apply ON THE SAME THREAD before pulling
        // the rest: with the old whole-map-under-one-read-lock snapshot
        // this interleaving was impossible (the lock spanned the copy);
        // with chunking the write-lock acquisition inside apply()
        // succeeds between chunks.
        let mut chunks = db.snapshot_chunks(3);
        let first = chunks.next().unwrap();
        assert_eq!(first.len(), 3);

        let mut w = WriteBatch::new();
        w.put("k00", vec![99]); // behind the cursor: not revisited
        w.put("k99", vec![42]); // ahead of the cursor: picked up
        db.apply(&w, Height::new(2, 0));

        let rest: Vec<_> = chunks.flatten().collect();
        let mut all = first;
        all.extend(rest);
        // Ascending, duplicate-free key order across chunk boundaries.
        let keys: Vec<&str> = all.iter().map(|(k, _)| k.as_str()).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(keys, sorted);
        // The fuzzy-snapshot contract: the ahead-of-cursor write is
        // visible, the behind-the-cursor one keeps its chunk-time value.
        assert_eq!(all.iter().find(|(k, _)| k == "k99").unwrap().1.value, [42]);
        assert_eq!(all.iter().find(|(k, _)| k == "k00").unwrap().1.value, [0]);
    }

    #[test]
    fn quiescent_chunked_snapshot_is_exact() {
        let db = LegacyStateDb::new();
        let mut b = WriteBatch::new();
        for i in 0..257 {
            b.put(format!("key{i:04}"), vec![(i % 251) as u8]);
        }
        db.apply(&b, Height::new(1, 0));
        // With no concurrent writers, chunked assembly must equal the
        // ordered dump regardless of chunk size (including sizes that
        // do not divide the key count).
        for chunk in [1, 3, 64, 256, 1000] {
            let assembled: Vec<_> = db.snapshot_chunks(chunk).flatten().collect();
            assert_eq!(assembled, db.snapshot(), "chunk={chunk}");
        }
        assert_eq!(db.snapshot().len(), 257);
    }
}
