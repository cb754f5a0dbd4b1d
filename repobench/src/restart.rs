//! `restart_drm`: time without service after a crash. Set-up commits a
//! DRM chain durably and closes the store without a checkpoint (no
//! production path takes one), so recovery replays the whole journal.
//! The timed region reopens the store, resumes the stream and ends when
//! the post-restart blocks have committed; `unavailable_ms` ends at the
//! first of them.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use fabric_ledger::Ledger;
use fabric_peer::{SignatureCache, StreamConfig, StreamValidator, ValidatorPipeline};
use fabric_protos::messages::Block;
use fabric_statedb::StateDb;
use fabric_store::{journal, DurableBlockStore, FabricStore, StoreConfig};
use workload::{StreamScenario, Workload};

use crate::gate::{self, Reference};
use crate::measure::{copy_dir, Dist, Tracer};
use crate::peer::{Peer, SIG_CACHE, THREADS};
use crate::report::{summarize, Latency, Sample};
use crate::stream::{packetise, REFERENCE_CACHE};
use crate::{iterate, timed, Ctx, Outcome};

/// DRM contents registered before the purchases: every purchase then
/// mints a license key, so the keyspace grows with the chain.
const CONTENTS: usize = 200;
const BLOCK_TXS: usize = 100;
const CHAIN_BLOCKS: usize = 30;
/// Blocks delivered after the restart. The first ends the outage; the
/// others give the block-latency percentiles their samples.
const POST_BLOCKS: usize = 3;

struct Input {
    /// The closed, flushed store every iteration restarts from.
    pristine: std::path::PathBuf,
    chain: Vec<Block>,
    post_wire: Vec<Vec<Vec<u8>>>,
    chain_txs: usize,
}

/// Commits `chain` durably into a fresh store at `dir` and closes it.
fn build_store(scenario: &StreamScenario, dir: &Path, chain: &[Block]) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    let store =
        FabricStore::open(dir, StoreConfig::default()).map_err(|e| format!("store: {e}"))?;
    let pipeline = Arc::new(ValidatorPipeline::with_storage(
        scenario.validator_msp(),
        scenario.policies(),
        THREADS,
        SIG_CACHE,
        store.state_db(),
        store.ledger(),
    ));
    let config = StreamConfig {
        verify_lanes: THREADS,
        max_in_flight: 2 * THREADS,
    };
    StreamValidator::run(pipeline, config, chain.iter().cloned())
        .map_err(|e| format!("build chain: {e}"))?;
    store.flush().map_err(|e| format!("store flush: {e}"))
}

/// The four recovery steps of `FabricStore::open`, each timed on its
/// own, on a copy of the store. Checks that they recover the pre-restart
/// chain and state.
fn recovery_steps(
    tracer: &Tracer,
    dir: &Path,
    pre: &Reference,
    height: u64,
) -> Result<usize, String> {
    let cfg = StoreConfig::default();
    let (blocks, valid_counts) = tracer
        .span("DurableBlockStore::open", 0, || {
            DurableBlockStore::open(
                dir.join(fabric_store::BLOCKS_DIR),
                cfg.group_commit,
                cfg.segment_max_bytes,
            )
        })
        .map_err(|e| format!("segment scan: {e}"))?;
    let scan = tracer
        .span("journal::scan_journal", 0, || {
            journal::scan_journal(&dir.join(fabric_store::JOURNAL_FILE))
        })
        .map_err(|e| format!("journal scan: {e}"))?;
    let db = StateDb::new();
    let last = (valid_counts.len() as u64).checked_sub(1);
    let replayed = tracer.span("StateDb::replay", 0, || {
        journal::replay(&db, &scan.records, None, last)
    });
    let ledger = tracer
        .span("Ledger::with_store", 0, || {
            Ledger::with_store(Box::new(blocks))
        })
        .map_err(|e| format!("ledger reopen: {e}"))?;
    if ledger.height() != height
        || ledger.tip_commit_hash() != pre.tip_commit_hash
        || db.state_hash() != pre.state_hash
    {
        return Err("separately timed recovery steps disagree with the pre-restart store".into());
    }
    Ok(replayed)
}

struct IterData {
    sample: Sample,
    /// Journal records the separately timed replay applied (traced only).
    replayed: usize,
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let scenario = StreamScenario {
        workload: Workload::Drm,
        accounts: CONTENTS,
        block_size: BLOCK_TXS,
        num_blocks: CHAIN_BLOCKS + POST_BLOCKS,
        stale_commit_pct: 0,
        corrupt_sigs: 0,
        duplicate_txs: 0,
        seed: ctx.seed,
    };
    let setup = |pristine: std::path::PathBuf| {
        let mut blocks = scenario.generate().blocks;
        let post = blocks.split_off(blocks.len() - POST_BLOCKS);
        build_store(&scenario, &pristine, &blocks)?;
        Ok(Input {
            pristine,
            chain_txs: blocks.iter().map(|b| b.data.data.len()).sum(),
            post_wire: packetise(&post)?,
            chain: blocks.into_iter().chain(post).collect(),
        })
    };
    let (input, first_setup_s) = timed(|| setup(ctx.work.join("pristine")))?;
    let height = (input.chain.len() - POST_BLOCKS) as u64;
    let cache = Arc::new(SignatureCache::new(REFERENCE_CACHE));
    let pre = gate::serial_replay(&scenario, &input.chain[..height as usize], &cache)?;
    let reference = gate::serial_replay(&scenario, &input.chain, &cache)?;
    {
        // The pre-restart store holds exactly the reference chain.
        let copy = ctx.work.join("check");
        copy_dir(&input.pristine, &copy).map_err(|e| format!("copy store: {e}"))?;
        let store =
            FabricStore::open(&copy, StoreConfig::default()).map_err(|e| format!("reopen: {e}"))?;
        if store.ledger().height() != height
            || store.ledger().tip_commit_hash() != pre.tip_commit_hash
            || store.state_db().state_hash() != pre.state_hash
        {
            return Err("pre-restart store differs from the serial reference".into());
        }
        drop(store);
        std::fs::remove_dir_all(&copy).map_err(|e| format!("remove copy: {e}"))?;
    }

    let tracer = &ctx.tracer;
    // Repeated set-ups build their stores beside the one the iterations use.
    let mut repeats = 0;
    let resetup = || {
        repeats += 1;
        setup(ctx.work.join(format!("pristine-{repeats}")))
    };
    let (iters, timing) = iterate(ctx, first_setup_s, resetup, |i| {
        let dir = ctx.work.join(format!("iter-{i}"));
        copy_dir(&input.pristine, &dir).map_err(|e| format!("copy store: {e}"))?;
        let (msp, policies) = (scenario.validator_msp(), scenario.policies());
        let cache = Arc::new(SignatureCache::new(SIG_CACHE));
        let mut peer = Peer::open(tracer, &dir, msp, policies, cache)?;
        if peer.height() != height || peer.tip_commit_hash() != pre.tip_commit_hash {
            return Err(format!(
                "recovered height {} differs from the pre-restart store",
                peer.height()
            ));
        }
        let start = Instant::now();
        for (b, packets) in input.post_wire.iter().enumerate() {
            for p in packets {
                peer.ingest(height + b as u64, p)?;
            }
        }
        let run = peer.finish()?;
        gate::check_run(&run, &reference, height as usize)?;
        std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
        let replayed = if tracer.is_on() {
            let steps = ctx.work.join(format!("steps-{i}"));
            copy_dir(&input.pristine, &steps).map_err(|e| format!("copy store: {e}"))?;
            let n = recovery_steps(tracer, &steps, &pre, height)?;
            std::fs::remove_dir_all(&steps).map_err(|e| format!("remove copy: {e}"))?;
            n
        } else {
            0
        };
        Ok(IterData {
            sample: Sample {
                commit_window_s: run.finished_at.duration_since(start).as_secs_f64(),
                block_latency_ms: run.block_latency_ms(),
                per_tx: input.chain_txs + run.txs(),
                tx_latency_ms: run.tx_latency_from_first_packet_ms(),
                run,
            },
            replayed,
        })
    })?;

    let post_txs = iters[0].data.sample.run.txs();
    let mut out = Outcome {
        attempted: (post_txs * iters.len()) as u64,
        ..Outcome::default()
    };
    out.lines = vec![
        format!(
            "restart: chain of {height} blocks / {} txs recovered from the journal, then \
             {POST_BLOCKS} blocks / {post_txs} txs; cpu and store bytes are per tx of the served chain",
            input.chain_txs
        ),
        format!(
            "failed_ratio: 0 / {} (every recovery and post-restart block matched the reference)",
            out.attempted
        ),
    ];
    summarize(
        ctx,
        &timing,
        &iters,
        |d| &d.sample,
        // Each iteration is one restart with only POST_BLOCKS blocks.
        Latency {
            block_from: "last packet",
            tx_from: "first packet of its post-restart block",
            pooled: false,
        },
        &[],
        &mut out,
    );

    if ctx.trace {
        let traced: Vec<_> = iters.iter().filter(|it| it.traced).collect();
        let n = traced.len() as f64;
        let step_ms = |name: &str| tracer.total_us(name) / n / 1e3;
        let records: f64 = traced.iter().map(|it| it.data.replayed as f64).sum();
        let open = Dist::new(
            tracer
                .durations_us("FabricStore::open")
                .iter()
                .map(|us| us / 1e3)
                .collect(),
        );
        let steps = step_ms("DurableBlockStore::open")
            + step_ms("journal::scan_journal")
            + step_ms("StateDb::replay")
            + step_ms("Ledger::with_store");
        let l = &mut out.per_layer;
        l.insert("store.segment_scan_ms", step_ms("DurableBlockStore::open"));
        l.insert("store.journal_scan_ms", step_ms("journal::scan_journal"));
        l.insert(
            "statedb.replay_us_per_record",
            tracer.total_us("StateDb::replay") / records,
        );
        l.insert("statedb.records_replayed", records / n);
        l.insert("ledger.reopen_ms", step_ms("Ledger::with_store"));
        l.insert("store.recovery_steps_ms", steps);
        // The steps are separate calls on a copy, so their sum matches
        // `FabricStore::open` only to within the opens' own spread.
        let (lo, hi) = (open.pct(10.0), open.pct(90.0));
        let verdict = if (lo..=hi).contains(&steps) {
            "within"
        } else {
            "OUTSIDE"
        };
        out.lines.push(format!(
            "recovery steps (segment scan + journal scan + replay + ledger reopen) sum to {steps:.2} ms: \
             {verdict} FabricStore::open's p10-p90 {lo:.2}-{hi:.2} ms (p50 {:.2} ms, {} traced opens)",
            open.pct(50.0),
            open.len()
        ));
    }
    Ok(out)
}
