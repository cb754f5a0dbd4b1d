//! The functional validation pipeline of a software-only validator peer.
//!
//! Implements the five steps of Figure 2a with real cryptography:
//!
//! 1. retrieve block data and verify the orderer's signature;
//! 2. verify each transaction (client signature) and run vscc
//!    (endorsement signatures + endorsement policy) — parallelized over a
//!    worker pool like Fabric's validator goroutines, and verifying *all*
//!    endorsements regardless of the policy, as Fabric does (§4.3);
//! 3. MVCC: sequentially re-read each valid transaction's read set from
//!    the state database and compare versions;
//! 4. commit: apply valid write sets to the state database and append the
//!    block to the ledger with the validation flags and commit hash;
//! 5. miscellaneous: history database updates.
//!
//! Wall-clock time spent in each stage is recorded so tests and examples
//! can reproduce the bottleneck analysis of Figure 3 on real hardware.
//!
//! # Verification architecture
//!
//! Step 2 runs as a four-phase signature pipeline that mirrors how the
//! Blockchain Machine feeds its `ecdsa_engine` bank (§3.2), rather than
//! naïvely verifying transaction-by-transaction:
//!
//! * **collect** — walk the decoded block once and gather every
//!   signature check (client + all endorsements) as a task, deduplicated
//!   by `(pubkey, digest, signature)` so a triple repeated within the
//!   block is verified at most once;
//! * **batch invert** — compute the `s⁻¹ mod n` of *all* unique tasks
//!   with a single modular inversion
//!   ([`fabric_crypto::ecdsa::batch_s_inverses`]);
//! * **verify in parallel** — a `std::thread::scope` pool of
//!   [`ValidatorPipeline::workers`] OS threads (the paper's "vscc
//!   threads = vCPUs") work-steals tasks from a shared atomic index,
//!   consulting the sharded LRU [`SignatureCache`] before running the
//!   precomputed fixed-base + wNAF ECDSA engine;
//! * **assemble** — fold task verdicts back into per-transaction
//!   validation codes, evaluating each endorsement policy sequentially
//!   (Fabric v1.4 semantics).
//!
//! Per-signature parallelism load-balances much better than per-tx
//! parallelism when endorsement counts vary, and the cache converts the
//! cross-transaction signature redundancy Fabric blocks carry (repeated
//! endorser signatures, replayed envelopes) into lookups.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use fabric_crypto::ecdsa::batch_s_inverses;
use fabric_crypto::identity::NodeId;
use fabric_crypto::{sha256, Msp, Signature, VerifyingKey, U256};
use fabric_ledger::{Ledger, LedgerError, TxValidationCode};
use fabric_policy::Policy;
use fabric_protos::messages::Block;
use fabric_protos::txflow::{decode_block_struct, DecodedBlock};
use fabric_statedb::{Height, StateBackend, StateDb, WriteBatch};

use crate::sigcache::{Claim, SigCacheKey, SigCacheStats, SignatureCache};

/// Per-stage wall-clock timings of one block validation (µs).
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimings {
    /// Unmarshaling / data retrieval.
    pub unmarshal_us: u64,
    /// Orderer signature check.
    pub block_verify_us: u64,
    /// Parallel verify + vscc.
    pub verify_vscc_us: u64,
    /// Sequential MVCC.
    pub mvcc_us: u64,
    /// State DB commit.
    pub statedb_commit_us: u64,
    /// Ledger commit.
    pub ledger_us: u64,
}

impl StageTimings {
    /// Total validation time excluding ledger commit (the paper's metric
    /// basis, §4.2).
    pub fn total_excl_ledger_us(&self) -> u64 {
        self.unmarshal_us
            + self.block_verify_us
            + self.verify_vscc_us
            + self.mvcc_us
            + self.statedb_commit_us
    }
}

/// Result of validating and committing one block.
#[derive(Debug)]
pub struct BlockValidationResult {
    /// Block number.
    pub block_num: u64,
    /// Whether the block-level (orderer) signature verified.
    pub block_valid: bool,
    /// Per-transaction validation codes, in order.
    pub codes: Vec<TxValidationCode>,
    /// Transaction ids, in order.
    pub tx_ids: Vec<String>,
    /// Commit hash after this block.
    pub commit_hash: [u8; 32],
    /// Wall-clock stage timings.
    pub timings: StageTimings,
}

impl BlockValidationResult {
    /// Number of valid transactions.
    pub fn valid_count(&self) -> usize {
        self.codes.iter().filter(|c| c.is_valid()).count()
    }
}

/// Errors from block validation.
#[derive(Debug)]
pub enum ValidateError {
    /// The block could not be decoded at all.
    Decode(fabric_protos::wire::WireError),
    /// Ledger append failed (ordering/duplicate/chain problems).
    Ledger(LedgerError),
}

impl std::fmt::Display for ValidateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidateError::Decode(e) => write!(f, "block decode failed: {e}"),
            ValidateError::Ledger(e) => write!(f, "ledger commit failed: {e}"),
        }
    }
}

impl std::error::Error for ValidateError {}

/// The software validator peer.
///
/// Owns a state database and ledger; configured with the chaincode
/// endorsement policies and the MSP trust anchors, plus the number of
/// parallel vscc workers (the paper's "vscc threads" = vCPUs, §4.1).
#[derive(Debug)]
pub struct ValidatorPipeline {
    msp: Msp,
    policies: HashMap<String, Policy>,
    state_db: StateDb,
    ledger: Ledger,
    workers: usize,
    /// Count of *underlying* ECDSA verifications performed — cache hits
    /// do not increment this (for Figure 12a's "Fabric verifies all
    /// endorsements" evidence and the cache-dedup tests).
    verifications: AtomicUsize,
    /// Sharded LRU of verification verdicts keyed by
    /// `(pubkey, digest, signature)`. Behind an `Arc` so an admission
    /// front-end (the mempool's verify pool) can share verdicts with the
    /// committer: a signature checked at admission is a cache hit here.
    sig_cache: Arc<SignatureCache>,
    /// Memo of certificate-chain checks by certificate fingerprint: a
    /// block repeats the same few certificates hundreds of times, and
    /// each MSP validation is itself a full ECDSA verification (the CA
    /// signature over the TBS bytes).
    cert_cache: parking_lot::Mutex<HashMap<[u8; 32], bool>>,
}

/// Upper bound on memoized certificate verdicts before the memo resets
/// (a certificate is ~100 bytes of key material; this bounds the memo at
/// roughly a megabyte under pathological cert churn).
const CERT_CACHE_CAPACITY: usize = 16 * 1024;

/// Default number of cached signature verdicts (~1 MiB of keys): a few
/// hundred blocks of smallbank-shaped traffic.
const DEFAULT_SIG_CACHE_CAPACITY: usize = 8192;

impl ValidatorPipeline {
    /// Creates a validator with `workers` parallel vscc workers and the
    /// default signature-cache capacity.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn new(msp: Msp, policies: HashMap<String, Policy>, workers: usize) -> Self {
        Self::with_cache_capacity(msp, policies, workers, DEFAULT_SIG_CACHE_CAPACITY)
    }

    /// Creates a validator like [`ValidatorPipeline::new`] but with its
    /// state database on an explicit backend instead of the process
    /// default — the differential-audit constructor: the cluster
    /// harness's serial oracle pins its replay to the legacy store
    /// while peers run the sharded default, so an audit pass is also a
    /// cross-backend equivalence check.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn with_state_backend(
        msp: Msp,
        policies: HashMap<String, Policy>,
        workers: usize,
        backend: StateBackend,
    ) -> Self {
        Self::with_storage(
            msp,
            policies,
            workers,
            DEFAULT_SIG_CACHE_CAPACITY,
            StateDb::with_backend(backend),
            Ledger::new(),
        )
    }

    /// Creates a validator with an explicit signature-cache capacity
    /// (`0` effectively disables reuse beyond the in-flight block, since
    /// each shard still holds one entry).
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn with_cache_capacity(
        msp: Msp,
        policies: HashMap<String, Policy>,
        workers: usize,
        cache_capacity: usize,
    ) -> Self {
        Self::with_storage(
            msp,
            policies,
            workers,
            cache_capacity,
            StateDb::new(),
            Ledger::new(),
        )
    }

    /// Creates a validator over *existing* storage handles — the durable
    /// mode: pass the state database and ledger recovered by
    /// `fabric_store::FabricStore::open` and the peer resumes the chain
    /// where it left off (the streaming validator picks its first block
    /// number up from `ledger.next_block_number()`). With a journal
    /// attached to the state database and a durable block store under
    /// the ledger, a block is acknowledged only after its store write:
    /// the commit stage writes state batches (journaled write-ahead) and
    /// appends to the block store before reporting the block committed.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn with_storage(
        msp: Msp,
        policies: HashMap<String, Policy>,
        workers: usize,
        cache_capacity: usize,
        state_db: StateDb,
        ledger: Ledger,
    ) -> Self {
        Self::with_shared_cache(
            msp,
            policies,
            workers,
            Arc::new(SignatureCache::new(cache_capacity)),
            state_db,
            ledger,
        )
    }

    /// Creates a validator over existing storage *and* an externally
    /// owned signature cache. This is the cache-sharing constructor: the
    /// admission-side verify pool (`fabric-mempool`) and the committer
    /// pass the same `Arc`, so a verdict produced on either side is a
    /// lookup on the other.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn with_shared_cache(
        msp: Msp,
        policies: HashMap<String, Policy>,
        workers: usize,
        sig_cache: Arc<SignatureCache>,
        state_db: StateDb,
        ledger: Ledger,
    ) -> Self {
        assert!(workers > 0, "at least one vscc worker required");
        ValidatorPipeline {
            msp,
            policies,
            state_db,
            ledger,
            workers,
            verifications: AtomicUsize::new(0),
            sig_cache,
            cert_cache: parking_lot::Mutex::named("peer.cert_memo", HashMap::new()),
        }
    }

    /// Shared handle to the signature-verdict cache.
    pub fn sig_cache(&self) -> Arc<SignatureCache> {
        Arc::clone(&self.sig_cache)
    }

    /// Flushes the storage layer (state journal, then block store) — the
    /// durable group-commit boundary. A no-op on in-memory storage.
    ///
    /// # Errors
    ///
    /// [`ValidateError::Ledger`] when the block store flush fails.
    pub fn flush_storage(&self) -> Result<(), ValidateError> {
        // Journal first: the write-ahead ordering must hold across the
        // two files, so state records are never the missing half.
        self.state_db.flush_journal();
        self.ledger.flush().map_err(ValidateError::Ledger)
    }

    /// Memoized [`Msp::validate`]: the chain check (an ECDSA
    /// verification of the CA signature) runs once per distinct
    /// certificate, then becomes a fingerprint lookup.
    fn msp_validate_cached(&self, cert: &fabric_crypto::Certificate) -> bool {
        let fp = cert.fingerprint();
        {
            let cache = self.cert_cache.lock();
            if let Some(&ok) = cache.get(&fp) {
                return ok;
            }
        }
        let ok = self.msp.validate(cert).is_ok();
        let mut cache = self.cert_cache.lock();
        if cache.len() >= CERT_CACHE_CAPACITY {
            cache.clear();
        }
        cache.insert(fp, ok);
        ok
    }

    /// Signature-cache statistics (hits, misses, residency).
    pub fn sig_cache_stats(&self) -> SigCacheStats {
        self.sig_cache.stats()
    }

    /// The peer's state database handle.
    pub fn state_db(&self) -> StateDb {
        self.state_db.clone()
    }

    /// The peer's ledger handle.
    pub fn ledger(&self) -> Ledger {
        self.ledger.clone()
    }

    /// Total ECDSA verifications performed so far.
    pub fn verifications(&self) -> usize {
        // relaxed: monotonic stats counter; never gates data visibility
        self.verifications.load(Ordering::Relaxed)
    }

    /// Number of vscc workers.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Validates and commits one block (steps 1–5 of Figure 2a).
    ///
    /// # Errors
    ///
    /// [`ValidateError::Decode`] when the block structure itself is
    /// unparsable (individual bad transactions are *flagged*, not
    /// errors), or [`ValidateError::Ledger`] when the append fails.
    pub fn validate_and_commit(
        &self,
        block: &Block,
    ) -> Result<BlockValidationResult, ValidateError> {
        let verified = self.verify_stage(block)?;
        self.commit_stage(block, verified)
    }

    /// Steps 1–2: unmarshal, orderer check, parallel verify/vscc. This
    /// half touches no shared validator state beyond the caches, so the
    /// streaming validator runs it for several blocks concurrently.
    pub(crate) fn verify_stage(&self, block: &Block) -> Result<VerifiedBlock, ValidateError> {
        let mut timings = StageTimings::default();

        // Step 1a: retrieve block and transaction data (unmarshal).
        let t0 = Instant::now();
        let block_len = block.marshal().len();
        let decoded = decode_block_struct(block, block_len).map_err(ValidateError::Decode)?;
        timings.unmarshal_us = t0.elapsed().as_micros() as u64;

        // Step 1b: verify the orderer signature.
        let t0 = Instant::now();
        let block_valid = self.verify_orderer(&decoded);
        timings.block_verify_us = t0.elapsed().as_micros() as u64;

        // Step 2: parallel verification + vscc.
        let t0 = Instant::now();
        let codes = self.verify_vscc_parallel(&decoded, block_valid);
        timings.verify_vscc_us = t0.elapsed().as_micros() as u64;

        Ok(VerifiedBlock {
            decoded,
            block_valid,
            codes,
            timings,
        })
    }

    /// Steps 3–5: sequential MVCC against the *current* state database,
    /// state commit, ledger append. Must run strictly in block order —
    /// the streaming validator funnels every block through its commit
    /// sequencer before calling this.
    pub(crate) fn commit_stage(
        &self,
        block: &Block,
        verified: VerifiedBlock,
    ) -> Result<BlockValidationResult, ValidateError> {
        let VerifiedBlock {
            decoded,
            block_valid,
            mut codes,
            mut timings,
        } = verified;

        // Step 3: sequential MVCC, "applied successively to all the valid
        // transactions of the block, starting from the first one"
        // (§2.1.2): an in-block updates overlay makes earlier valid
        // transactions' writes visible to later version checks.
        let t0 = Instant::now();
        let mut overlay: HashMap<&str, Height> = HashMap::new();
        for (i, tx) in decoded.txs.iter().enumerate() {
            if codes[i] != TxValidationCode::Valid {
                continue;
            }
            let conflict = tx.reads.iter().any(|(key, expected)| {
                let expected = expected.map(|v| Height::new(v.block_num, v.tx_num));
                let current = overlay
                    .get(key.as_str())
                    .copied()
                    .or_else(|| self.state_db.get_version(key));
                current != expected
            });
            if conflict {
                codes[i] = TxValidationCode::MvccReadConflict;
                continue;
            }
            for (key, _) in &tx.writes {
                overlay.insert(key, Height::new(decoded.number, i as u64));
            }
        }
        timings.mvcc_us = t0.elapsed().as_micros() as u64;

        // Step 4a: state DB commit of valid write sets. The tip guard is
        // the commit-ordering invariant the streaming sequencer relies
        // on: writes land in strictly increasing block order, so MVCC of
        // block N+1 (above) observed every committed write of block N.
        let t0 = Instant::now();
        debug_assert!(
            self.state_db
                .tip_height()
                .is_none_or(|h| h.block_num < decoded.number),
            "state writes for block {} would land at or below the committed tip {:?}",
            decoded.number,
            self.state_db.tip_height(),
        );
        // One batch per valid transaction — including empty write sets,
        // because a durable journal counts one record per valid tx —
        // handed to the state DB as a single block so the sharded
        // backend can fan the apply out over disjoint shards.
        let mut batches: Vec<(WriteBatch, Height)> = Vec::new();
        for (i, tx) in decoded.txs.iter().enumerate() {
            if codes[i] != TxValidationCode::Valid {
                continue;
            }
            let mut batch = WriteBatch::new();
            for (k, v) in &tx.writes {
                batch.put(k.clone(), v.clone());
            }
            batches.push((batch, Height::new(decoded.number, i as u64)));
        }
        self.state_db.apply_block(&batches);
        timings.statedb_commit_us = t0.elapsed().as_micros() as u64;

        // Step 4b/5: ledger commit + history.
        let t0 = Instant::now();
        let tx_ids: Vec<String> = decoded.txs.iter().map(|t| t.tx_id.clone()).collect();
        let modified: Vec<Vec<String>> = decoded
            .txs
            .iter()
            .map(|t| t.writes.iter().map(|(k, _)| k.clone()).collect())
            .collect();
        let committed = self
            .ledger
            .commit_block(block.clone(), &tx_ids, codes.clone(), &modified)
            .map_err(ValidateError::Ledger)?;
        timings.ledger_us = t0.elapsed().as_micros() as u64;

        Ok(BlockValidationResult {
            block_num: decoded.number,
            block_valid,
            codes,
            tx_ids,
            commit_hash: committed.commit_hash,
            timings,
        })
    }

    /// Runs only the *signature* stages of validation — decode, orderer
    /// check, and the parallel verify/vscc phase — without touching
    /// MVCC, the state database, or the ledger. Useful for
    /// re-validation flows and for benchmarking the verification
    /// pipeline in isolation; repeated calls exercise the signature
    /// cache exactly like re-delivered blocks do.
    ///
    /// # Errors
    ///
    /// [`ValidateError::Decode`] when the block structure is unparsable.
    pub fn verify_block_signatures(
        &self,
        block: &Block,
    ) -> Result<Vec<TxValidationCode>, ValidateError> {
        let block_len = block.marshal().len();
        let decoded = decode_block_struct(block, block_len).map_err(ValidateError::Decode)?;
        let block_valid = self.verify_orderer(&decoded);
        Ok(self.verify_vscc_parallel(&decoded, block_valid))
    }

    fn verify_orderer(&self, decoded: &DecodedBlock) -> bool {
        if !self.msp_validate_cached(&decoded.orderer_cert) {
            return false;
        }
        let digest = sha256(&decoded.orderer_signed_message);
        let key = &decoded.orderer_cert.public_key;
        let sig = &decoded.orderer_signature;
        let sinv = s_inverse(sig);
        self.verify_cached(key, &digest, sig, &sinv)
    }

    /// Step 2: the four-phase signature pipeline described in the module
    /// docs — collect tasks, batch-invert `s`, verify in parallel with
    /// the cache, assemble per-transaction codes.
    fn verify_vscc_parallel(
        &self,
        decoded: &DecodedBlock,
        block_valid: bool,
    ) -> Vec<TxValidationCode> {
        // An invalid block invalidates every transaction without burning
        // a single verification, as Fabric does.
        if !block_valid {
            return vec![TxValidationCode::BadSignature; decoded.txs.len()];
        }

        // Phase 1: collect unique verification tasks. Certificate (MSP)
        // validation is cheap and stays sequential here.
        let (tasks, txs) = self.collect_tasks(decoded);

        // Phase 2: one modular inversion for the whole block.
        let sigs: Vec<Signature> = tasks.iter().map(|t| t.sig).collect();
        let sinvs = batch_s_inverses(&sigs);

        // Phase 3: work-stealing parallel verification over *signatures*
        // (better load balance than per-transaction when endorsement
        // counts vary), each worker consulting the shared cache first.
        let verdicts = self.verify_tasks_parallel(&tasks, &sinvs);

        // Phase 4: fold verdicts into per-transaction validation codes.
        txs.iter()
            .map(|tx| match tx {
                TxPlan::BadCreator => TxValidationCode::BadSignature,
                TxPlan::Tasks {
                    chaincode,
                    client,
                    endorsements,
                } => {
                    if !verdicts[*client] {
                        return TxValidationCode::BadSignature;
                    }
                    let valid_endorsers: Vec<NodeId> = endorsements
                        .iter()
                        .filter(|(_, task)| verdicts[*task])
                        .map(|(node, _)| *node)
                        .collect();
                    let policy = match self.policies.get(chaincode.as_str()) {
                        Some(p) => p,
                        None => return TxValidationCode::EndorsementPolicyFailure,
                    };
                    let (satisfied, _visits) = policy.evaluate_sequential(&valid_endorsers);
                    if satisfied {
                        TxValidationCode::Valid
                    } else {
                        TxValidationCode::EndorsementPolicyFailure
                    }
                }
            })
            .collect()
    }

    /// Phase 1: walks the block, MSP-validates certificates, and emits
    /// one [`VerifyTask`] per *unique* `(pubkey, digest, signature)`
    /// triple; transactions reference tasks by index, so a signature
    /// repeated across (or within) transactions is verified once.
    fn collect_tasks<'a>(&self, decoded: &'a DecodedBlock) -> (Vec<VerifyTask<'a>>, Vec<TxPlan>) {
        let mut tasks: Vec<VerifyTask<'a>> = Vec::new();
        let mut index: HashMap<SigCacheKey, usize> = HashMap::new();
        let mut txs = Vec::with_capacity(decoded.txs.len());
        for tx in &decoded.txs {
            // The creator identity must chain to its org CA before its
            // signature is worth checking.
            if !self.msp_validate_cached(&tx.creator_cert) {
                txs.push(TxPlan::BadCreator);
                continue;
            }
            let client = intern_task(
                &mut index,
                &mut tasks,
                &tx.creator_cert.public_key,
                &tx.signed_payload,
                &tx.client_signature,
            );
            // vscc verifies ALL endorsements (Fabric semantics);
            // endorsers with invalid certificates are skipped, exactly
            // like the seed's per-tx loop.
            let mut endorsements = Vec::with_capacity(tx.endorsements.len());
            for e in &tx.endorsements {
                if !self.msp_validate_cached(&e.endorser_cert) {
                    continue;
                }
                let task = intern_task(
                    &mut index,
                    &mut tasks,
                    &e.endorser_cert.public_key,
                    &e.signed_message,
                    &e.signature,
                );
                endorsements.push((e.endorser_cert.node_id, task));
            }
            txs.push(TxPlan::Tasks {
                chaincode: tx.chaincode.clone(),
                client,
                endorsements,
            });
        }
        (tasks, txs)
    }

    /// Phase 3: `workers` scoped OS threads work-steal task indices from
    /// a shared atomic counter. Each unique task is verified exactly
    /// once (or answered by the cache) and its verdict recorded.
    fn verify_tasks_parallel(&self, tasks: &[VerifyTask<'_>], sinvs: &[U256]) -> Vec<bool> {
        let n = tasks.len();
        let workers = self.workers.min(n.max(1));
        if workers <= 1 || n <= 1 {
            return tasks
                .iter()
                .zip(sinvs)
                .map(|(t, sinv)| self.verify_task(t, sinv))
                .collect();
        }
        let next = AtomicUsize::new(0);
        let verdicts: Vec<OnceLock<bool>> = (0..n).map(|_| OnceLock::new()).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    // relaxed: work claim needs only RMW uniqueness; verdicts are
                    // published through the scope join below
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let verdict = self.verify_task(&tasks[i], &sinvs[i]);
                    verdicts[i].set(verdict).expect("task index claimed twice");
                });
            }
        });
        verdicts
            .into_iter()
            .map(|slot| slot.into_inner().expect("verify worker missed a task"))
            .collect()
    }

    fn verify_task(&self, task: &VerifyTask<'_>, sinv: &U256) -> bool {
        // claim() is the thundering-herd-safe path: under concurrent
        // misses on one triple (two streaming verify stages, or the
        // admission pool racing the committer) exactly one claimant runs
        // the ECDSA engine and the rest wait for its verdict.
        match self.sig_cache.claim(&task.cache_key) {
            Claim::Verdict(verdict) => verdict,
            Claim::Verify(guard) => {
                self.bump_verifications(1);
                let valid = task
                    .key
                    .verify_prehashed_with_sinv(&task.digest, &task.sig, sinv)
                    .is_ok();
                guard.fulfill(valid);
                valid
            }
        }
    }

    fn verify_cached(
        &self,
        key: &VerifyingKey,
        digest: &[u8; 32],
        sig: &Signature,
        sinv: &U256,
    ) -> bool {
        let cache_key = SigCacheKey::compute(key, digest, sig);
        match self.sig_cache.claim(&cache_key) {
            Claim::Verdict(verdict) => verdict,
            Claim::Verify(guard) => {
                self.bump_verifications(1);
                let valid = key.verify_prehashed_with_sinv(digest, sig, sinv).is_ok();
                guard.fulfill(valid);
                valid
            }
        }
    }

    fn bump_verifications(&self, n: usize) {
        // relaxed: monotonic stats counter; never gates data visibility
        self.verifications.fetch_add(n, Ordering::Relaxed);
    }
}

/// Output of the signature half of validation (steps 1–2), ready for the
/// order-sensitive MVCC/commit half. Fully owned, so the streaming
/// validator can hand it between threads.
#[derive(Debug)]
pub(crate) struct VerifiedBlock {
    pub(crate) decoded: DecodedBlock,
    pub(crate) block_valid: bool,
    pub(crate) codes: Vec<TxValidationCode>,
    pub(crate) timings: StageTimings,
}

/// One unique signature check: the precomputed cache key, the message
/// digest, and the signature; the public key is borrowed from the
/// decoded block.
struct VerifyTask<'a> {
    cache_key: SigCacheKey,
    digest: [u8; 32],
    sig: Signature,
    key: &'a VerifyingKey,
}

/// Per-transaction plan produced by task collection.
enum TxPlan {
    /// Creator certificate failed MSP validation; no tasks emitted.
    BadCreator,
    /// Verifiable transaction: task indices for the client signature and
    /// each MSP-valid endorsement.
    Tasks {
        chaincode: String,
        client: usize,
        endorsements: Vec<(NodeId, usize)>,
    },
}

/// `s⁻¹ mod n` for a single signature (the non-batched path used by the
/// orderer check).
fn s_inverse(sig: &Signature) -> U256 {
    batch_s_inverses(std::slice::from_ref(sig))[0]
}

/// Appends a `(pubkey, digest, signature)` verification task unless an
/// identical triple is already queued, and returns its task index.
fn intern_task<'a>(
    index: &mut HashMap<SigCacheKey, usize>,
    tasks: &mut Vec<VerifyTask<'a>>,
    key: &'a VerifyingKey,
    message: &[u8],
    sig: &Signature,
) -> usize {
    let digest = sha256(message);
    let cache_key = SigCacheKey::compute(key, &digest, sig);
    *index.entry(cache_key).or_insert_with(|| {
        tasks.push(VerifyTask {
            cache_key,
            digest,
            sig: *sig,
            key,
        });
        tasks.len() - 1
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_crypto::identity::Role;
    use fabric_node::chaincode::KvChaincode;
    use fabric_node::network::FabricNetworkBuilder;
    use fabric_policy::parse;

    fn network_and_validator(
        block_size: usize,
        workers: usize,
    ) -> (fabric_node::FabricNetwork, ValidatorPipeline) {
        let mut net = FabricNetworkBuilder::new()
            .orgs(2)
            .block_size(block_size)
            .chaincode("kv", parse("2-outof-2 orgs").unwrap())
            .build();
        net.install_chaincode(|| Box::new(KvChaincode::new("kv")));
        // The validator trusts the same org CAs; rebuild an identical MSP
        // (deterministic issuance) and register the network identities.
        let mut msp = Msp::new(2);
        msp.issue(0, Role::Peer, 0).unwrap();
        msp.issue(1, Role::Peer, 0).unwrap();
        msp.issue(0, Role::Orderer, 0).unwrap();
        msp.issue(0, Role::Client, 0).unwrap();
        let mut policies = HashMap::new();
        policies.insert("kv".to_string(), parse("2-outof-2 orgs").unwrap());
        (net, ValidatorPipeline::new(msp, policies, workers))
    }

    #[test]
    fn valid_block_commits_all_transactions() {
        let (mut net, validator) = network_and_validator(2, 4);
        net.submit_invocation(0, "kv", "put", &["a".into(), "1".into()])
            .unwrap();
        let blocks = net
            .submit_invocation(0, "kv", "put", &["b".into(), "2".into()])
            .unwrap();
        let result = validator.validate_and_commit(&blocks[0]).unwrap();
        assert!(result.block_valid);
        assert_eq!(result.valid_count(), 2);
        assert_eq!(validator.state_db().get("a").unwrap().value, b"1");
        assert_eq!(validator.ledger().height(), 1);
    }

    #[test]
    fn mvcc_conflict_is_flagged() {
        let (mut net, validator) = network_and_validator(2, 2);
        // Two writes to the same key in one block, both endorsed against
        // the same (missing) version: the second must fail MVCC.
        net.submit_invocation(0, "kv", "put", &["k".into(), "1".into()])
            .unwrap();
        let blocks = net
            .submit_invocation(0, "kv", "put", &["k".into(), "2".into()])
            .unwrap();
        let result = validator.validate_and_commit(&blocks[0]).unwrap();
        assert_eq!(result.codes[0], TxValidationCode::Valid);
        assert_eq!(result.codes[1], TxValidationCode::MvccReadConflict);
        // First write won.
        assert_eq!(validator.state_db().get("k").unwrap().value, b"1");
    }

    #[test]
    fn all_endorsements_are_verified_even_when_policy_needs_fewer() {
        // 1of2 policy with 2 endorsements: Fabric still verifies both.
        let mut net = FabricNetworkBuilder::new()
            .orgs(2)
            .block_size(1)
            .chaincode("kv", parse("1-outof-2 orgs").unwrap())
            .build();
        net.install_chaincode(|| Box::new(KvChaincode::new("kv")));
        let mut msp = Msp::new(2);
        msp.issue(0, Role::Peer, 0).unwrap();
        msp.issue(1, Role::Peer, 0).unwrap();
        msp.issue(0, Role::Orderer, 0).unwrap();
        msp.issue(0, Role::Client, 0).unwrap();
        let mut policies = HashMap::new();
        policies.insert("kv".to_string(), parse("1-outof-2 orgs").unwrap());
        let validator = ValidatorPipeline::new(msp, policies, 2);
        let blocks = net
            .submit_invocation(0, "kv", "put", &["a".into(), "1".into()])
            .unwrap();
        let before = validator.verifications();
        let result = validator.validate_and_commit(&blocks[0]).unwrap();
        assert_eq!(result.valid_count(), 1);
        // orderer(1) + client(1) + BOTH endorsements(2) = 4
        assert_eq!(validator.verifications() - before, 4);
    }

    #[test]
    fn unknown_chaincode_policy_invalidates() {
        let (mut net, _) = network_and_validator(1, 2);
        let blocks = net
            .submit_invocation(0, "kv", "put", &["a".into(), "1".into()])
            .unwrap();
        // Validator with no policy for "kv".
        let mut msp = Msp::new(2);
        msp.issue(0, Role::Peer, 0).unwrap();
        msp.issue(1, Role::Peer, 0).unwrap();
        msp.issue(0, Role::Orderer, 0).unwrap();
        msp.issue(0, Role::Client, 0).unwrap();
        let validator = ValidatorPipeline::new(msp, HashMap::new(), 2);
        let result = validator.validate_and_commit(&blocks[0]).unwrap();
        assert_eq!(result.codes[0], TxValidationCode::EndorsementPolicyFailure);
    }

    #[test]
    fn forged_orderer_invalidates_block() {
        let (mut net, validator) = network_and_validator(1, 2);
        let mut blocks = net
            .submit_invocation(0, "kv", "put", &["a".into(), "1".into()])
            .unwrap();
        blocks[0].header.number = 0; // keep number but tamper data hash
        blocks[0].header.data_hash = vec![0xAA; 32];
        let result = validator.validate_and_commit(&blocks[0]).unwrap();
        assert!(!result.block_valid);
        assert!(result.codes.iter().all(|c| !c.is_valid()));
    }

    #[test]
    fn timings_are_recorded() {
        let (mut net, validator) = network_and_validator(1, 2);
        let blocks = net
            .submit_invocation(0, "kv", "put", &["a".into(), "1".into()])
            .unwrap();
        let result = validator.validate_and_commit(&blocks[0]).unwrap();
        // vscc does 3 real ECDSA verifications; it cannot be instant.
        assert!(result.timings.verify_vscc_us > 0);
        assert!(result.timings.total_excl_ledger_us() > 0);
    }

    #[test]
    fn repeated_endorsements_verify_once() {
        // A block whose transaction carries N copies of the same
        // endorsement must cost exactly ONE underlying ECDSA
        // verification for all of them (plus one client + one orderer).
        let (mut net, validator) = network_and_validator(1, 4);
        let blocks = net
            .submit_invocation(0, "kv", "put", &["a".into(), "1".into()])
            .unwrap();
        let block_len = blocks[0].marshal().len();
        let mut decoded =
            fabric_protos::txflow::decode_block_struct(&blocks[0], block_len).unwrap();
        let endorsement = decoded.txs[0].endorsements[0].clone();
        for _ in 0..7 {
            decoded.txs[0].endorsements.push(endorsement.clone());
        }
        assert_eq!(decoded.txs[0].endorsements.len(), 9);
        let before = validator.verifications();
        let codes = validator.verify_vscc_parallel(&decoded, true);
        assert_eq!(codes[0], TxValidationCode::Valid);
        // 1 client + 2 unique endorsements; the 7 duplicates were
        // deduplicated before reaching the ECDSA engine.
        assert_eq!(validator.verifications() - before, 3);
    }

    #[test]
    fn identical_blocks_hit_the_cache() {
        let (mut net, validator) = network_and_validator(1, 2);
        let blocks = net
            .submit_invocation(0, "kv", "put", &["a".into(), "1".into()])
            .unwrap();
        let block_len = blocks[0].marshal().len();
        let decoded = fabric_protos::txflow::decode_block_struct(&blocks[0], block_len).unwrap();
        let first = validator.verifications();
        validator.verify_vscc_parallel(&decoded, true);
        let after_first = validator.verifications();
        assert_eq!(after_first - first, 3, "client + 2 endorsements");
        // Re-validating the same signatures costs zero verifications.
        validator.verify_vscc_parallel(&decoded, true);
        assert_eq!(validator.verifications(), after_first);
        let stats = validator.sig_cache_stats();
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.misses, 3);
        assert!(stats.hit_rate() > 0.49);
    }

    #[test]
    fn cache_does_not_leak_verdicts_across_triples() {
        // A *tampered* copy of a cached-valid signature must still fail:
        // the cache key covers (pubkey, digest, signature), so any
        // change misses the cache and verifies for real.
        let (mut net, validator) = network_and_validator(1, 2);
        let blocks = net
            .submit_invocation(0, "kv", "put", &["a".into(), "1".into()])
            .unwrap();
        let block_len = blocks[0].marshal().len();
        let mut decoded =
            fabric_protos::txflow::decode_block_struct(&blocks[0], block_len).unwrap();
        let codes = validator.verify_vscc_parallel(&decoded, true);
        assert_eq!(codes[0], TxValidationCode::Valid);
        // Corrupt the client's signed payload: digest changes, cache
        // misses, verification fails.
        decoded.txs[0].signed_payload.push(0xFF);
        let codes = validator.verify_vscc_parallel(&decoded, true);
        assert_eq!(codes[0], TxValidationCode::BadSignature);
    }

    #[test]
    fn stage_timings_total_is_the_sum_of_its_components() {
        // Distinct powers of two: any component dropped from (or double
        // counted in) total_excl_ledger_us would change the sum.
        let t = StageTimings {
            unmarshal_us: 1,
            block_verify_us: 2,
            verify_vscc_us: 4,
            mvcc_us: 8,
            statedb_commit_us: 16,
            ledger_us: 32,
        };
        assert_eq!(t.total_excl_ledger_us(), 1 + 2 + 4 + 8 + 16);
        // The paper's metric excludes exactly one stage: ledger commit.
        assert_eq!(t.total_excl_ledger_us() + t.ledger_us, 63);
        // Guard against silent stage additions: adding a field to
        // StageTimings changes its size — whoever does that must decide
        // whether the new stage belongs in total_excl_ledger_us and
        // update this test alongside it.
        assert_eq!(
            std::mem::size_of::<StageTimings>(),
            6 * std::mem::size_of::<u64>(),
            "StageTimings gained a field: include it in total_excl_ledger_us \
             (or document why not) and update this test"
        );
    }

    #[test]
    fn stage_timings_are_monotone_over_a_real_block() {
        // For a real validation every stage is non-negative, the
        // exclusive total dominates each component, and adding ledger
        // time never decreases the total (monotonicity of the metric).
        let (mut net, validator) = network_and_validator(2, 2);
        net.submit_invocation(0, "kv", "put", &["m1".into(), "1".into()])
            .unwrap();
        let blocks = net
            .submit_invocation(0, "kv", "put", &["m2".into(), "2".into()])
            .unwrap();
        let t = validator.validate_and_commit(&blocks[0]).unwrap().timings;
        let total = t.total_excl_ledger_us();
        for (name, component) in [
            ("unmarshal", t.unmarshal_us),
            ("block_verify", t.block_verify_us),
            ("verify_vscc", t.verify_vscc_us),
            ("mvcc", t.mvcc_us),
            ("statedb_commit", t.statedb_commit_us),
        ] {
            assert!(
                component <= total,
                "{name} ({component}) exceeds total {total}"
            );
        }
        assert_eq!(
            total,
            t.unmarshal_us + t.block_verify_us + t.verify_vscc_us + t.mvcc_us + t.statedb_commit_us
        );
        assert!(total + t.ledger_us >= total);
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let (mut net, v1) = network_and_validator(4, 1);
        let (_, v8) = network_and_validator(4, 8);
        for i in 0..3 {
            net.submit_invocation(0, "kv", "put", &[format!("k{i}"), "1".into()])
                .unwrap();
        }
        let blocks = net
            .submit_invocation(0, "kv", "put", &["k3".into(), "1".into()])
            .unwrap();
        let r1 = v1.validate_and_commit(&blocks[0]).unwrap();
        let r8 = v8.validate_and_commit(&blocks[0]).unwrap();
        assert_eq!(r1.codes, r8.codes);
        assert_eq!(r1.commit_hash, r8.commit_hash);
    }
}
