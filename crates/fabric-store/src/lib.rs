//! Durable block store + state journal for the validator peer.
//!
//! Vanilla Fabric commits validated blocks to a file-based block store
//! and a LevelDB state database (Androulaki et al., §4); until this
//! crate, the reproduction validated fast but forgot everything at
//! process exit. `fabric-store` adds the persistence layer and — more
//! importantly — the *crash-recovery protocol* that makes a peer
//! restart expressible:
//!
//! * [`blockstore`] — a segmented append-only block store (length+CRC
//!   framed records, per-segment index sidecars, fsync-free group
//!   commit) that plugs into [`fabric_ledger::Ledger`] through the
//!   [`fabric_ledger::BlockStore`] trait, with the in-memory store kept
//!   as the default and the differential oracle (the field/scalar
//!   backend convention);
//! * [`journal`] — a write-ahead journal of every
//!   [`fabric_statedb::StateDb::apply`], attached through
//!   [`fabric_statedb::JournalSink`], making state commits replayable;
//! * [`checkpoint`] — an atomic (tmp + rename) snapshot + tip-height
//!   checkpoint bounding recovery cost by the journal tail instead of
//!   chain length.
//!
//! # The recovery protocol (the min-rule)
//!
//! [`FabricStore::open`] must hand back a `(ledger, state)` pair that
//! is **exactly** the serial prefix a replay would have committed —
//! crash-at-any-byte-offset equivalence, gated by the fault-injection
//! harness in `tests/tests/store_recovery.rs`. Since commit is
//! fsync-free, a crash can strand the block store and the journal at
//! *different* prefixes; recovery reconciles them:
//!
//! 1. scan block segments, truncating a torn tail → blocks `0..b`;
//! 2. load the checkpoint if it is valid and within `0..b` → replay-from
//!    height `c` (corrupt or ahead-of-store checkpoints are discarded;
//!    the journal is never truncated below its content, so full replay
//!    from genesis always remains possible). A checkpoint captured while
//!    commits were in flight is *fuzzy*: its entries fully cover `..= c`
//!    plus an arbitrary subset of the writes in `(c, cover_to]`, and it
//!    is usable only when recovery reaches `cover_to` (step 4) so the
//!    idempotent replay of that window squares the image up — otherwise
//!    it is discarded like a corrupt one;
//! 3. scan the journal, truncating a torn tail; a block `n`'s state
//!    coverage is *complete* iff the journal holds exactly one record
//!    per `Valid` transaction of stored block `n` (the per-tx apply
//!    contract of the peer's commit stage);
//! 4. recovered height `k` = the longest prefix such that every block
//!    in `(c, k]` has complete journal coverage **and** is present in
//!    the block store — then truncate *both* files to `k` so the next
//!    session appends from a consistent boundary;
//! 5. restore the snapshot (or empty state), replay journal records in
//!    `(c, k]`, and reopen the ledger over the store —
//!    [`fabric_ledger::Ledger::with_store`] re-verifies the whole hash
//!    chain (header links, data hashes, commit hashes), pinning any
//!    surviving corruption to its block number.

#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use fabric_ledger::{Ledger, LedgerError};
use fabric_statedb::{Height, StateBackend, StateDb};

pub mod blockstore;
pub mod checkpoint;
pub mod crc;
pub mod frame;
pub mod journal;

pub use blockstore::DurableBlockStore;
pub use journal::StateJournal;

/// Tuning knobs of the durable store.
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Blocks (and journal records) buffered per `write` syscall — the
    /// fsync-free group-commit window. `1` hands every commit straight
    /// to the OS; larger groups amortize syscalls at the cost of a
    /// longer tail a crash can lose. Measured at 1/8/64 by the
    /// `durability` section of `BENCH_validation.json`.
    pub group_commit: usize,
    /// Active-segment size threshold: crossing it seals the segment
    /// (flush + index sidecar) and opens the next one.
    pub segment_max_bytes: u64,
    /// State-database backend the store builds at open (checkpoint
    /// restore and journal replay both target it). Defaults to the
    /// sharded store ([`fabric_statedb::default_state_backend`]); the
    /// recovery cross-check sets it explicitly to prove replay lands the
    /// same state on either backend.
    pub state_backend: StateBackend,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            group_commit: 8,
            segment_max_bytes: 4 * 1024 * 1024,
            state_backend: fabric_statedb::default_state_backend(),
        }
    }
}

/// Errors opening (recovering) a durable store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreOpenError {
    /// Filesystem failure.
    Io(String),
    /// A block record inside the valid region is corrupted (bad CRC or
    /// unparsable with bytes following — a crash cannot produce that).
    CorruptBlock {
        /// Number of the offending block.
        block: u64,
    },
    /// A journal record inside the valid region is corrupted.
    CorruptJournal {
        /// Byte offset of the offending record.
        offset: u64,
    },
    /// The recovered chain failed ledger verification (hash links, data
    /// hashes, commit hashes).
    Chain {
        /// Number of the offending block.
        block: u64,
    },
}

impl fmt::Display for StoreOpenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreOpenError::Io(msg) => write!(f, "store I/O error: {msg}"),
            StoreOpenError::CorruptBlock { block } => {
                write!(f, "corrupted block record for block {block}")
            }
            StoreOpenError::CorruptJournal { offset } => {
                write!(f, "corrupted journal record at byte {offset}")
            }
            StoreOpenError::Chain { block } => {
                write!(f, "stored chain failed verification at block {block}")
            }
        }
    }
}

impl std::error::Error for StoreOpenError {}

/// What [`FabricStore::open`] found and decided — surfaced so restart
/// flows (and the fault harness) can assert on the recovery outcome.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Blocks readable from the store before the min-rule.
    pub store_blocks_found: u64,
    /// Blocks recovered (the reopened chain height).
    pub recovered_blocks: u64,
    /// Blocks dropped by tail truncation or the min-rule.
    pub truncated_blocks: u64,
    /// Height of the checkpoint that was actually used.
    pub checkpoint_height: Option<Height>,
    /// A checkpoint file existed but was corrupt or ahead of the store,
    /// and recovery fell back to fuller journal replay.
    pub checkpoint_discarded: bool,
    /// Valid journal records found on disk.
    pub journal_records_found: usize,
    /// Journal records replayed into the recovered state.
    pub journal_records_replayed: usize,
    /// Journal bytes truncated (torn tail + records above the recovered
    /// height).
    pub journal_truncated_bytes: u64,
}

/// A durable peer storage root: the segmented block store, the state
/// journal, and the checkpoint, recovered together at open.
///
/// ```no_run
/// use fabric_store::{FabricStore, StoreConfig};
/// let store = FabricStore::open("/var/peer0", StoreConfig::default()).unwrap();
/// let (state_db, ledger) = (store.state_db(), store.ledger());
/// // hand both to ValidatorPipeline::with_storage(...), commit blocks,
/// // then persist the durability boundary:
/// store.flush().unwrap();
/// store.checkpoint().unwrap();
/// ```
#[derive(Debug)]
pub struct FabricStore {
    root: PathBuf,
    state_db: StateDb,
    ledger: Ledger,
    journal: Arc<StateJournal>,
    report: RecoveryReport,
}

/// Name of the block-segment directory inside the store root.
pub const BLOCKS_DIR: &str = "blocks";
/// Name of the journal file inside the store root.
pub const JOURNAL_FILE: &str = "journal.log";

impl FabricStore {
    /// Opens (creating if absent) and recovers the store under `root`.
    /// See the module docs for the recovery protocol.
    ///
    /// # Errors
    ///
    /// [`StoreOpenError`]: I/O failures, interior corruption pinned to a
    /// block number or journal offset, or chain-verification failure.
    pub fn open(root: impl Into<PathBuf>, config: StoreConfig) -> Result<Self, StoreOpenError> {
        let root = root.into();
        std::fs::create_dir_all(&root)
            .map_err(|e| StoreOpenError::Io(format!("create store root: {e}")))?;

        // 1. Block store prefix (torn tail already truncated).
        let (mut blocks, valid_counts) = DurableBlockStore::open(
            root.join(BLOCKS_DIR),
            config.group_commit,
            config.segment_max_bytes,
        )?;
        let b = valid_counts.len() as u64;

        // 2. Checkpoint eligibility: must exist, parse, and describe a
        // fuzz window (`tip ..= cover_to`) the store still covers.
        let ckpt_present = checkpoint::exists(&root);
        let mut ckpt =
            checkpoint::load(&root).filter(|c| c.cover_to.is_none_or(|t| t.block_num < b));
        let mut c: Option<u64> = ckpt.as_ref().and_then(|c| c.tip).map(|t| t.block_num);

        // 3. Journal prefix and per-block coverage.
        let journal_path = root.join(JOURNAL_FILE);
        let jscan = journal::scan_journal(&journal_path)?;
        let mut coverage: HashMap<u64, u32> = HashMap::new();
        for (_, height, _) in &jscan.records {
            *coverage.entry(height.block_num).or_insert(0) += 1;
        }

        // 4. The min-rule walk: extend k while every block past the
        // checkpoint's replay-from tip has exactly its valid-tx count
        // journaled.
        let walk = |c: Option<u64>| -> Option<u64> {
            let mut k: Option<u64> = c;
            let start = c.map(|c| c + 1).unwrap_or(0);
            for n in start..b {
                let expected = valid_counts[n as usize];
                if coverage.get(&n).copied().unwrap_or(0) == expected {
                    k = Some(n);
                } else {
                    break;
                }
            }
            k
        };
        let mut k = walk(c);

        // 4b. Fuzzy-snapshot validity: the chunked snapshot may hold a
        // partial subset of the writes in `(tip, cover_to]`, which only
        // a *complete* journal replay of that window can square up. If
        // recovery cannot reach `cover_to`, the checkpoint is unusable —
        // fall back to full journal replay from genesis (quiescent
        // checkpoints have `cover_to == tip` and always pass).
        if let Some(cover) = ckpt.as_ref().and_then(|c| c.cover_to).map(|t| t.block_num) {
            if k.is_none_or(|k| k < cover) {
                ckpt = None;
                c = None;
                k = walk(None);
            }
        }
        let checkpoint_discarded = ckpt_present && ckpt.is_none();
        let recovered_len = k.map(|k| k + 1).unwrap_or(0);
        blocks
            .truncate_to(recovered_len)
            .map_err(|e| StoreOpenError::Io(e.to_string()))?;

        // Journal cut: keep everything through the last record of a
        // recovered block (records are in non-decreasing block order, so
        // the drop set is exactly the tail).
        let keep_bytes = jscan
            .records
            .iter()
            .rev()
            .find(|(_, h, _)| k.is_some_and(|k| h.block_num <= k))
            .map(|(end, _, _)| *end)
            .unwrap_or(0);
        let journal_truncated_bytes = jscan.file_len - keep_bytes;

        // 5. State restore + bounded replay, then the verified ledger.
        let state_db = match &ckpt {
            Some(ckpt) => StateDb::from_snapshot_with_backend(
                config.state_backend,
                ckpt.entries.clone(),
                ckpt.tip,
            ),
            None => StateDb::with_backend(config.state_backend),
        };
        let journal_records_found = jscan.records.len();
        let journal_records_replayed = journal::replay(&state_db, &jscan.records, c, k);
        let journal = Arc::new(StateJournal::open_at(
            journal_path,
            keep_bytes,
            config.group_commit,
        )?);
        let ledger = Ledger::with_store(Box::new(blocks)).map_err(|e| match e {
            LedgerError::Corrupt { block } => StoreOpenError::Chain { block },
            other => StoreOpenError::Io(other.to_string()),
        })?;
        state_db.attach_journal(journal.clone());

        Ok(FabricStore {
            root,
            state_db,
            ledger,
            journal,
            report: RecoveryReport {
                store_blocks_found: b,
                recovered_blocks: recovered_len,
                truncated_blocks: b - recovered_len,
                checkpoint_height: ckpt.and_then(|c| c.tip),
                checkpoint_discarded,
                journal_records_found,
                journal_records_replayed,
                journal_truncated_bytes,
            },
        })
    }

    /// The recovered (journal-attached) state database handle.
    pub fn state_db(&self) -> StateDb {
        self.state_db.clone()
    }

    /// The recovered ledger handle (durable block store underneath).
    pub fn ledger(&self) -> Ledger {
        self.ledger.clone()
    }

    /// What recovery found at open.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.report
    }

    /// The store root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Forces every buffered commit down to the files — the durability
    /// boundary. Journal first, then the block store, preserving the
    /// write-ahead ordering across the two files.
    ///
    /// # Errors
    ///
    /// [`StoreOpenError::Io`] on write failure.
    pub fn flush(&self) -> Result<(), StoreOpenError> {
        use fabric_statedb::JournalSink;
        self.journal.flush();
        self.ledger
            .flush()
            .map_err(|e| StoreOpenError::Io(e.to_string()))
    }

    /// Takes an atomic checkpoint of the current state, bounding the
    /// next recovery's replay to the journal records above its
    /// replay-from tip. Safe to call *while commits are in flight*: the
    /// chunked state snapshot lets writers interleave, and the captured
    /// fuzz window (`tip ..= cover_to`) tells recovery which journal
    /// suffix squares the image up. Flushes before capture so the
    /// checkpoint never describes state the journal has not persisted,
    /// and again after a fuzzy capture so every record up to `cover_to`
    /// is durable before the rename makes the checkpoint visible.
    ///
    /// # Errors
    ///
    /// [`StoreOpenError::Io`] on write failure.
    pub fn checkpoint(&self) -> Result<Option<Height>, StoreOpenError> {
        self.flush()?;
        let ckpt = checkpoint::capture(&self.state_db);
        if ckpt.cover_to != ckpt.tip {
            self.flush()?;
        }
        checkpoint::publish(&self.root, &ckpt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_statedb::WriteBatch;

    fn tempdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fabric-store-lib-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fresh_store_opens_empty() {
        let dir = tempdir("fresh");
        let store = FabricStore::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(store.ledger().height(), 0);
        assert!(store.state_db().is_empty());
        assert_eq!(store.recovery().recovered_blocks, 0);
        assert!(!store.recovery().checkpoint_discarded);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_only_state_survives_reopen() {
        // No blocks committed: the journal walk recovers nothing (state
        // without blocks is not a serial prefix), so direct applies
        // without ledger commits roll back to empty at reopen.
        let dir = tempdir("journal-only");
        {
            let store = FabricStore::open(
                &dir,
                StoreConfig {
                    group_commit: 1,
                    ..Default::default()
                },
            )
            .unwrap();
            let mut b = WriteBatch::new();
            b.put("k", vec![1]);
            store.state_db().apply(&b, Height::new(0, 0));
            store.flush().unwrap();
        }
        let store = FabricStore::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(store.recovery().journal_records_found, 1);
        assert_eq!(store.recovery().recovered_blocks, 0);
        assert!(
            store.state_db().is_empty(),
            "state without its block is not a serial prefix"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
