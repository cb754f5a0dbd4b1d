//! The peer under test — a durable `FabricStore`, a `ValidatorPipeline`
//! and a `StreamValidator` fed through a `BmacReceiver` — with the
//! benchmark's bookkeeping of when each block's packets arrived and
//! when its commit was observed.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bmac_protocol::receiver::ReceiverStats;
use bmac_protocol::BmacReceiver;
use fabric_crypto::Msp;
use fabric_ledger::Ledger;
use fabric_peer::{SignatureCache, StreamConfig, StreamReport, StreamValidator, ValidatorPipeline};
use fabric_policy::Policy;
use fabric_store::{FabricStore, StoreConfig};

use crate::measure::{self, MemMark, Tracer};

/// vscc workers, verify lanes and mempool verify workers: the host's
/// two cores.
pub const THREADS: usize = 2;
/// Signature-verdict cache capacity of the peer (the pipeline default).
pub const SIG_CACHE: usize = 8192;
/// Longest a wait for commits may go without one.
const STALL_LIMIT: Duration = Duration::from_secs(30);

/// Signature checks the committer makes for a block: the orderer's,
/// then each transaction's client and endorsement signatures.
fn sig_checks(r: &bmac_protocol::ReceivedBlock) -> usize {
    1 + r
        .txs
        .iter()
        .map(|t| 1 + t.endorsements.len())
        .sum::<usize>()
}

/// A peer session. Opening it starts the timed region: the memory mark,
/// the CPU clock and the wall clock are read first.
pub struct Peer<'t> {
    tracer: &'t Tracer,
    mem: MemMark,
    cpu_start_us: f64,
    opened: Instant,
    store: FabricStore,
    pipeline: Arc<ValidatorPipeline>,
    stream: StreamValidator,
    receiver: BmacReceiver,
    ledger: Ledger,
    base: u64,
    first_packet: HashMap<u64, Instant>,
    last_packet: HashMap<u64, Instant>,
    committed: Vec<Instant>,
    pushed: u64,
    wire_bytes: u64,
    sig_checks: usize,
}

/// What one peer session measured, after `finish`.
pub struct PeerRun {
    pub report: StreamReport,
    /// Start of `Peer::open` and return of `StreamValidator::finish`: the
    /// bounds of every timed region.
    pub opened: Instant,
    pub finished_at: Instant,
    /// Process CPU time and peak RSS growth between those two points.
    pub cpu_us: f64,
    pub rss_growth_mb: f64,
    /// Underlying ECDSA verifications the committer ran.
    pub verifications: usize,
    /// Signature checks the committed blocks called for.
    pub sig_checks: usize,
    pub receiver: ReceiverStats,
    pub wire_bytes: u64,
    /// Per committed block, in block order: first packet ingested, last
    /// packet ingested, commit observed.
    pub first_packet: Vec<Instant>,
    pub last_packet: Vec<Instant>,
    pub committed: Vec<Instant>,
    pub store_bytes: u64,
    pub journal_bytes: u64,
    pub block_bytes: u64,
    pub keys: usize,
    pub state_hash: u64,
    pub tip_commit_hash: [u8; 32],
}

impl PeerRun {
    /// Last packet ingested to commit observed, per block, ms.
    pub fn block_latency_ms(&self) -> Vec<f64> {
        self.last_packet
            .iter()
            .zip(&self.committed)
            .map(|(l, c)| measure::ms(c.saturating_duration_since(*l)))
            .collect()
    }

    /// First packet ingested to commit observed, once per transaction.
    pub fn tx_latency_from_first_packet_ms(&self) -> Vec<f64> {
        self.report
            .results
            .iter()
            .zip(self.first_packet.iter().zip(&self.committed))
            .flat_map(|(r, (f, c))| {
                std::iter::repeat_n(measure::ms(c.saturating_duration_since(*f)), r.codes.len())
            })
            .collect()
    }

    pub fn txs(&self) -> usize {
        self.report.stats.txs
    }

    /// Start of `Peer::open` to the first commit observed, ms.
    pub fn unavailable_ms(&self) -> f64 {
        measure::ms(self.committed[0].duration_since(self.opened))
    }
}

impl<'t> Peer<'t> {
    /// Opens (recovering) the store under `dir` and starts a stream
    /// session that resumes at the recovered height.
    pub fn open(
        tracer: &'t Tracer,
        dir: &Path,
        msp: Msp,
        policies: HashMap<String, Policy>,
        cache: Arc<SignatureCache>,
    ) -> Result<Self, String> {
        let mem = MemMark::start().map_err(|e| format!("memory mark: {e}"))?;
        let cpu_start_us = measure::process_cpu_us();
        let opened = Instant::now();
        let store = tracer
            .span("FabricStore::open", 0, || {
                FabricStore::open(dir, StoreConfig::default())
            })
            .map_err(|e| format!("store open: {e}"))?;
        let pipeline = Arc::new(ValidatorPipeline::with_shared_cache(
            msp,
            policies,
            THREADS,
            cache,
            store.state_db(),
            store.ledger(),
        ));
        let ledger = pipeline.ledger();
        let base = ledger.height();
        let stream = StreamValidator::new(
            Arc::clone(&pipeline),
            StreamConfig {
                verify_lanes: THREADS,
                max_in_flight: 2 * THREADS,
            },
        );
        Ok(Peer {
            tracer,
            mem,
            cpu_start_us,
            opened,
            store,
            pipeline,
            stream,
            receiver: BmacReceiver::resuming_from(base),
            ledger,
            base,
            first_packet: HashMap::new(),
            last_packet: HashMap::new(),
            committed: Vec::new(),
            pushed: 0,
            wire_bytes: 0,
            sig_checks: 0,
        })
    }

    pub fn height(&self) -> u64 {
        self.ledger.height()
    }

    pub fn tip_commit_hash(&self) -> [u8; 32] {
        self.ledger.tip_commit_hash()
    }

    /// Ingests one wire packet of block `block`, pushes every block it
    /// completes into the stream, and polls for commits.
    pub fn ingest(&mut self, block: u64, wire: &[u8]) -> Result<(), String> {
        let now = Instant::now();
        self.first_packet.entry(block).or_insert(now);
        self.wire_bytes += wire.len() as u64;
        let received = self
            .tracer
            .span("BmacReceiver::ingest", block, || self.receiver.ingest(wire))
            .map_err(|e| format!("receiver: {e}"))?;
        for r in received {
            let number = r.block.header.number;
            self.last_packet.insert(number, Instant::now());
            self.sig_checks += sig_checks(&r);
            self.tracer
                .span("StreamValidator::push", number, || {
                    self.stream.push(r.block)
                })
                .map_err(|e| format!("stream push: {e}"))?;
            self.pushed += 1;
        }
        self.poll();
        Ok(())
    }

    /// Stamps every block committed since the last poll; returns the
    /// number of blocks committed in this session.
    pub fn poll(&mut self) -> u64 {
        let done = self.ledger.height() - self.base;
        let now = Instant::now();
        while (self.committed.len() as u64) < done {
            self.committed.push(now);
        }
        done
    }

    /// Polls until at most `limit` pushed blocks are not yet seen
    /// committed. A stream that failed stops committing, so a wait
    /// without progress for [`STALL_LIMIT`] is an error, not a hang.
    pub fn wait_in_flight(&mut self, limit: u64) -> Result<(), String> {
        let mut progress = (self.poll(), Instant::now());
        while self.pushed - progress.0 > limit {
            measure::nap();
            let done = self.poll();
            if done != progress.0 {
                progress = (done, Instant::now());
            } else if progress.1.elapsed() > STALL_LIMIT {
                return Err(format!(
                    "no block committed for {STALL_LIMIT:?} after block {done}"
                ));
            }
        }
        Ok(())
    }

    /// Waits for every pushed block, flushes the store and closes the
    /// stream.
    pub fn finish(mut self) -> Result<PeerRun, String> {
        self.wait_in_flight(0)?;
        let store = self.store;
        self.tracer
            .span("FabricStore::flush", 0, || store.flush())
            .map_err(|e| format!("store flush: {e}"))?;
        let report = self
            .tracer
            .span("StreamValidator::finish", 0, || self.stream.finish())
            .map_err(|e| format!("stream: {e}"))?;
        let finished_at = Instant::now();
        let cpu_us = measure::process_cpu_us() - self.cpu_start_us;
        let peak_rss_kib = measure::peak_rss_kib().map_err(|e| format!("peak rss: {e}"))?;
        let order = |m: &HashMap<u64, Instant>| -> Result<Vec<Instant>, String> {
            report
                .results
                .iter()
                .map(|r| {
                    m.get(&r.block_num).copied().ok_or(format!(
                        "block {} committed but never received",
                        r.block_num
                    ))
                })
                .collect()
        };
        let first_packet = order(&self.first_packet)?;
        let last_packet = order(&self.last_packet)?;
        let root = store.root().to_path_buf();
        let io = |e: std::io::Error| format!("store size: {e}");
        let state = self.pipeline.state_db();
        Ok(PeerRun {
            opened: self.opened,
            finished_at,
            cpu_us,
            rss_growth_mb: self.mem.growth_mib(peak_rss_kib),
            verifications: self.pipeline.verifications(),
            sig_checks: self.sig_checks,
            receiver: self.receiver.stats(),
            wire_bytes: self.wire_bytes,
            first_packet,
            last_packet,
            committed: self.committed,
            store_bytes: measure::dir_bytes(&root).map_err(io)?,
            journal_bytes: std::fs::metadata(root.join(fabric_store::JOURNAL_FILE))
                .map_err(io)?
                .len(),
            block_bytes: measure::dir_bytes(&root.join(fabric_store::BLOCKS_DIR)).map_err(io)?,
            keys: state.len(),
            state_hash: state.state_hash(),
            tip_commit_hash: self.ledger.tip_commit_hash(),
            report,
        })
    }
}
