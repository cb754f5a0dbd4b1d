//! `admission_openloop`: the client's view below saturation. Envelopes
//! of a generated smallbank stream arrive as Poisson arrivals at a fixed
//! offered rate, plus Zipf-chosen resubmissions, and go through
//! `Mempool::admit`, `verify_pending` and `OrderingService` block
//! cutting, then over the BMac wire into a durable `StreamValidator`.
//! Admission warms every signature verdict into the cache the committer
//! shares, so vscc becomes lookups; block fill, the mempool and commit
//! carry the latency.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bmac_protocol::BmacSender;
use fabric_mempool::{AdmitOutcome, Mempool, MempoolConfig, VerifyReport};
use fabric_node::orderer::{OrdererConfig, OrderingService};
use fabric_peer::SignatureCache;
use fabric_protos::messages::Block;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use workload::{open_loop_schedule, OpenLoopConfig, StreamScenario, Workload, ZipfSampler};

use crate::gate;
use crate::measure::{self, median, Dist, Tracer};
use crate::peer::{Peer, SIG_CACHE, THREADS};
use crate::report::{summarize, Latency, Sample};
use crate::stream::REFERENCE_CACHE;
use crate::{iterate, timed, Ctx, Outcome};

const ACCOUNTS: usize = 1000;
const BLOCK_TXS: usize = 100;
const WORKLOAD_BLOCKS: usize = 20;
const STALE_PCT: u8 = 5;
const CORRUPT_SIGS: usize = 4;
const DUPLICATE_TXS: usize = 4;
/// Share of submissions that are resubmissions of an earlier envelope.
const RESUBMIT_PCT: u32 = 10;
/// Resubmissions pick among this many most recent envelopes, by Zipf
/// rank (the most recent is the likeliest).
const RESUBMIT_DEPTH: u64 = 256;
/// The orderer's batch timeout: a non-empty partial block is cut once
/// its oldest transaction has waited this long.
const BATCH_TIMEOUT: Duration = Duration::from_millis(100);
/// The verify pool runs once this many admissions are waiting, or once
/// the oldest has waited `VERIFY_WAIT`: a batch keeps both workers busy,
/// where one call per arrival would leave one idle and stall the
/// generator thread.
const VERIFY_BATCH: usize = 8;
const VERIFY_WAIT: Duration = Duration::from_millis(2);

/// Every envelope submission of one run, in arrival order.
struct Input {
    envelopes: Vec<Vec<u8>>,
    tx_ids: Vec<String>,
    /// `(due offset, envelope index)` per arrival.
    arrivals: Vec<(Duration, usize)>,
}

fn setup(scenario: &StreamScenario, offered_tps: f64) -> Result<Input, String> {
    let generated = scenario.generate();
    let envelopes: Vec<Vec<u8>> = generated
        .blocks
        .into_iter()
        .flat_map(|b| b.data.data)
        .collect();
    let tx_ids = envelopes
        .iter()
        .map(|e| fabric_mempool::decode_admission(e).map(|tx| tx.tx_id))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("generated envelope does not decode: {e}"))?;
    let mut rng = StdRng::seed_from_u64(scenario.seed ^ 0x0a11_0c47);
    let zipf = ZipfSampler::new(RESUBMIT_DEPTH, 1.0);
    let mut order = Vec::with_capacity(envelopes.len() * 11 / 10);
    for i in 0..envelopes.len() {
        order.push(i);
        if rng.gen_range(0..100u32) < RESUBMIT_PCT {
            order.push(i.saturating_sub(zipf.sample(&mut rng) as usize - 1));
        }
    }
    let schedule = open_loop_schedule(&OpenLoopConfig {
        rate_per_sec: offered_tps,
        senders: 1,
        zipf_exponent: 1.0,
        arrivals: order.len(),
        seed: scenario.seed,
    });
    let arrivals = schedule
        .iter()
        .zip(order)
        .map(|(a, i)| (Duration::from_micros(a.at_us), i))
        .collect();
    Ok(Input {
        envelopes,
        tx_ids,
        arrivals,
    })
}

struct IterData {
    /// Transaction latency runs from each arrival's due time.
    sample: Sample,
    cut: Vec<Block>,
    lag_ms: Vec<f64>,
    admitted: HashSet<usize>,
    verify: VerifyReport,
    mempool: fabric_mempool::MempoolStats,
    drain_wait_ms: Vec<f64>,
    fill_wait_ms: Vec<f64>,
    timeout_cuts: usize,
}

/// Sends a cut block over the BMac wire into the peer.
fn deliver(
    tracer: &Tracer,
    sender: &mut BmacSender,
    peer: &mut Peer<'_>,
    block: &Block,
) -> Result<(), String> {
    let number = block.header.number;
    let packets = tracer
        .span("BmacSender::send_block", number, || {
            sender.send_block(block)
        })
        .map_err(|e| format!("send block {number}: {e}"))?;
    for p in packets {
        let wire = p.encode().map_err(|e| format!("encode packet: {e}"))?;
        peer.ingest(number, &wire)?;
    }
    Ok(())
}

fn iteration(
    ctx: &Ctx,
    scenario: &StreamScenario,
    input: &Input,
    dir: &std::path::Path,
) -> Result<IterData, String> {
    let tracer = &ctx.tracer;
    let (msp, policies) = (scenario.validator_msp(), scenario.policies());
    let admission_msp = scenario.validator_msp();
    let cache = Arc::new(SignatureCache::new(SIG_CACHE));
    let mut peer = Peer::open(tracer, dir, msp, policies, Arc::clone(&cache))?;
    let mempool = Mempool::with_msp(
        MempoolConfig {
            verify_workers: THREADS,
            ..MempoolConfig::default()
        },
        cache,
        Some(admission_msp),
    );
    let mut orderer = OrderingService::new(
        scenario.orderer(),
        OrdererConfig {
            block_size: BLOCK_TXS,
            cluster_size: 1,
            seed: scenario.seed,
        },
    );
    let mut sender = BmacSender::new();
    let mut cut = Vec::new();
    let mut cut_at: HashMap<u64, Instant> = HashMap::new();
    let mut lag_ms = Vec::with_capacity(input.arrivals.len());
    let mut admitted = HashSet::new();
    let mut due_of: HashMap<&str, Instant> = HashMap::new();
    let mut verify = VerifyReport::default();
    let mut drain_wait_ms = Vec::new();
    let mut fill_wait_ms = Vec::new();
    let mut timeout_cuts = 0;
    // Transactions drained into the orderer but not yet cut, and when
    // the oldest of them entered it.
    let mut ordering = 0usize;
    let mut oldest: Option<Instant> = None;
    // Admission instants of transactions admitted but not yet verified.
    let mut unverified: Vec<Instant> = Vec::new();

    let start = Instant::now();
    let mut next = 0;
    loop {
        let now = Instant::now();
        while next < input.arrivals.len() && start + input.arrivals[next].0 <= now {
            let (offset, env) = input.arrivals[next];
            let due = start + offset;
            due_of.entry(input.tx_ids[env].as_str()).or_insert(due);
            lag_ms.push(measure::ms(Instant::now().duration_since(due)));
            let outcome = tracer.span("Mempool::admit", next as u64, || {
                mempool.admit(&input.envelopes[env])
            });
            if outcome == AdmitOutcome::Admitted {
                admitted.insert(env);
                unverified.push(Instant::now());
            }
            next += 1;
        }
        let verify_due = unverified.len() >= VERIFY_BATCH
            || unverified
                .first()
                .is_some_and(|t| t.elapsed() >= VERIFY_WAIT)
            || (next == input.arrivals.len() && !unverified.is_empty());
        if verify_due {
            let report = tracer.span("Mempool::verify_pending", 0, || mempool.verify_pending());
            verify.accumulate(&report);
            // Every round drains the whole ready set, so what this round
            // drains is exactly what it verified valid.
            let blocks = tracer
                .span("OrderingService::ingest_mempool", 0, || {
                    orderer.ingest_mempool(&mempool)
                })
                .map_err(|e| format!("ordering: {e}"))?;
            let drained_at = Instant::now();
            drain_wait_ms.extend(unverified.drain(..).map(|t| measure::ms(drained_at - t)));
            ordering += report.valid;
            for block in blocks {
                cut_at.insert(block.header.number, drained_at);
                ordering -= block.data.data.len();
                fill_wait_ms.push(measure::ms(drained_at - oldest.unwrap_or(drained_at)));
                oldest = None;
                deliver(tracer, &mut sender, &mut peer, &block)?;
                cut.push(block);
            }
            if ordering > 0 && oldest.is_none() {
                oldest = Some(drained_at);
            }
        }
        if let Some(since) = oldest.filter(|t| t.elapsed() >= BATCH_TIMEOUT) {
            let block = tracer
                .span("OrderingService::cut_partial_block", 0, || {
                    orderer.cut_partial_block()
                })
                .ok_or("orderer had nothing pending at the batch timeout")?;
            cut_at.insert(block.header.number, Instant::now());
            ordering -= block.data.data.len();
            fill_wait_ms.push(measure::ms(since.elapsed()));
            timeout_cuts += 1;
            oldest = (ordering > 0).then(Instant::now);
            deliver(tracer, &mut sender, &mut peer, &block)?;
            cut.push(block);
        }
        peer.poll();
        if next == input.arrivals.len() && ordering == 0 {
            break;
        }
        let mut wake = oldest.map_or(now + Duration::from_millis(1), |t| t + BATCH_TIMEOUT);
        if let Some((offset, _)) = input.arrivals.get(next) {
            wake = wake.min(start + *offset);
        }
        if let Some(t) = unverified.first() {
            wake = wake.min(*t + VERIFY_WAIT);
        }
        let gap = wake.saturating_duration_since(Instant::now());
        if !gap.is_zero() {
            std::thread::sleep(gap.min(Duration::from_millis(1)));
        }
    }
    let run = peer.finish()?;
    let tx_latency_ms = run
        .report
        .results
        .iter()
        .zip(&run.committed)
        .flat_map(|(r, c)| {
            r.tx_ids
                .iter()
                .map(|id| measure::ms(*c - due_of[id.as_str()]))
        })
        .collect();
    let block_latency_ms = run
        .report
        .results
        .iter()
        .zip(&run.committed)
        .map(|(r, c)| measure::ms(*c - cut_at[&r.block_num]))
        .collect();
    let window = run.finished_at.duration_since(start).as_secs_f64();
    Ok(IterData {
        sample: Sample {
            commit_window_s: window,
            block_latency_ms,
            per_tx: run.txs(),
            tx_latency_ms,
            run,
        },
        lag_ms,
        admitted,
        verify,
        mempool: mempool.stats(),
        drain_wait_ms,
        fill_wait_ms,
        timeout_cuts,
        cut,
    })
}

/// Every distinct transaction admitted at least once is committed
/// exactly once; a corrupted one never is. Returns the number of
/// distinct, correctly signed transactions that were never admitted
/// (shed on every submission) — failures, not gate violations.
fn check_exactly_once(
    input: &Input,
    corrupted: &HashSet<&str>,
    data: &IterData,
) -> Result<u64, String> {
    let mut commits: HashMap<&str, usize> = HashMap::new();
    for r in &data.sample.run.report.results {
        for id in &r.tx_ids {
            *commits.entry(id.as_str()).or_default() += 1;
        }
    }
    let admitted: HashSet<&str> = data
        .admitted
        .iter()
        .map(|&i| input.tx_ids[i].as_str())
        .collect();
    let distinct: HashSet<&str> = input.tx_ids.iter().map(String::as_str).collect();
    let mut never_admitted = 0;
    for id in distinct {
        let n = commits.get(id).copied().unwrap_or(0);
        let want = if corrupted.contains(id) || !admitted.contains(id) {
            0
        } else {
            1
        };
        if n != want {
            return Err(format!("tx {id} committed {n} times, expected {want}"));
        }
        if !admitted.contains(id) && !corrupted.contains(id) {
            never_admitted += 1;
        }
    }
    Ok(never_admitted)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    if ctx.offered_tps.is_nan() || ctx.offered_tps <= 0.0 {
        return Err("admission_openloop needs --offered-tps".into());
    }
    let scenario = StreamScenario {
        workload: Workload::Smallbank,
        accounts: ACCOUNTS,
        block_size: BLOCK_TXS,
        num_blocks: WORKLOAD_BLOCKS,
        stale_commit_pct: STALE_PCT,
        corrupt_sigs: CORRUPT_SIGS,
        duplicate_txs: DUPLICATE_TXS,
        seed: ctx.seed,
    };
    let (input, first_setup_s) = timed(|| setup(&scenario, ctx.offered_tps))?;
    let faults = gate::find_faults([input.envelopes.as_slice()])?;
    let corrupted: HashSet<&str> = faults
        .bad_signatures
        .iter()
        .map(|&(_, t)| input.tx_ids[t].as_str())
        .collect();
    if corrupted.len() != CORRUPT_SIGS {
        return Err(format!(
            "found {} corrupted signatures, injected {CORRUPT_SIGS}",
            corrupted.len()
        ));
    }
    let reference_cache = Arc::new(SignatureCache::new(REFERENCE_CACHE));
    let mut never_admitted = 0;
    let resetup = || setup(&scenario, ctx.offered_tps);
    let (iters, timing) = iterate(ctx, first_setup_s, resetup, |i| {
        let dir = ctx.work.join(format!("iter-{i}"));
        let mut data = iteration(ctx, &scenario, &input, &dir)?;
        std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
        let reference = gate::serial_replay(&scenario, &data.cut, &reference_cache)?;
        gate::check_run(&data.sample.run, &reference, 0)?;
        let failed = check_exactly_once(&input, &corrupted, &data)?;
        // A transaction that never committed counts as above any limit.
        data.sample
            .tx_latency_ms
            .extend(std::iter::repeat_n(f64::INFINITY, failed as usize));
        never_admitted += failed;
        Ok(data)
    })?;

    let distinct = input.tx_ids.iter().collect::<HashSet<_>>().len() - corrupted.len();
    let mut out = Outcome {
        attempted: (distinct * iters.len()) as u64,
        failed: never_admitted,
        ..Outcome::default()
    };
    let lags = |traced: bool| {
        Dist::new(
            iters
                .iter()
                .filter(|it| it.traced == traced)
                .flat_map(|it| it.data.lag_ms.iter().copied())
                .collect(),
        )
    };
    let lag = lags(false);
    out.lines = vec![
        format!(
            "open loop: {} tx/s offered, {} arrivals ({} envelopes, {distinct} distinct correctly \
             signed) per iteration, verify every {VERIFY_BATCH} admissions or {} ms, batch timeout {} ms",
            ctx.offered_tps,
            input.arrivals.len(),
            input.envelopes.len(),
            VERIFY_WAIT.as_millis(),
            BATCH_TIMEOUT.as_millis(),
        ),
        format!(
            "failed_ratio: {} / {} (distinct correctly signed txs shed on every submission / submitted)",
            out.failed, out.attempted
        ),
        lag.describe("generator lag behind schedule", 50.0, "ms"),
        lag.describe("generator lag behind schedule", 99.0, "ms"),
    ];
    summarize(
        ctx,
        &timing,
        &iters,
        |d| &d.sample,
        Latency {
            block_from: "orderer cut",
            tx_from: "due time",
            pooled: true,
        },
        // The offered rate sets the throughput, and the batch timeout most
        // of a transaction's latency and of the wait for the first commit.
        &[
            "commit_tps",
            "tx_latency_p50_ms",
            "tx_latency_p99_ms",
            "unavailable_ms",
        ],
        &mut out,
    );

    if ctx.trace {
        let traced: Vec<_> = iters
            .iter()
            .filter(|it| it.traced)
            .map(|it| &it.data)
            .collect();
        let tracer = &ctx.tracer;
        let med =
            |f: &dyn Fn(&IterData) -> f64| median(&traced.iter().map(|d| f(d)).collect::<Vec<_>>());
        let pooled = |f: &dyn Fn(&IterData) -> &Vec<f64>| {
            Dist::new(traced.iter().flat_map(|d| f(d).iter().copied()).collect())
        };
        let per = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
        let cut_blocks: f64 = traced.iter().map(|d| d.cut.len() as f64).sum();
        let cut_txs: f64 = traced
            .iter()
            .flat_map(|d| &d.cut)
            .map(|b| b.data.data.len() as f64)
            .sum();
        let verified: f64 = traced.iter().map(|d| d.verify.batch as f64).sum();
        let admit = Dist::new(tracer.durations_us("Mempool::admit"));
        let fill = pooled(&|d| &d.fill_wait_ms);
        let l = &mut out.per_layer;
        l.insert(
            "bmac.send_us_per_block",
            per(tracer.total_us("BmacSender::send_block"), cut_blocks),
        );
        l.insert("mempool.admit_us_p50", admit.pct(50.0));
        l.insert("mempool.admit_us_p99", admit.pct(99.0));
        l.insert(
            "mempool.verify_us_per_tx",
            per(tracer.total_us("Mempool::verify_pending"), verified),
        );
        l.insert("mempool.verify_occupancy", med(&|d| d.verify.occupancy()));
        l.insert(
            "mempool.dedup_hit_rate",
            med(&|d| d.mempool.dedup_hit_rate()),
        );
        l.insert("mempool.shed", med(&|d| d.mempool.shed as f64));
        l.insert("mempool.invalid", med(&|d| d.mempool.invalid as f64));
        l.insert(
            "mempool.wait_ms_p50",
            pooled(&|d| &d.drain_wait_ms).pct(50.0),
        );
        l.insert("orderer.txs_per_block", per(cut_txs, cut_blocks));
        l.insert("orderer.timeout_cuts", med(&|d| d.timeout_cuts as f64));
        l.insert("orderer.fill_wait_ms_p50", fill.pct(50.0));
        l.insert(
            "orderer.cut_us_per_block",
            per(
                tracer.total_us("OrderingService::ingest_mempool")
                    + tracer.total_us("OrderingService::cut_partial_block"),
                cut_blocks,
            ),
        );
        l.insert("gen.lag_ms_p99", lags(true).pct(99.0));
        out.lines
            .push(admit.describe("Mempool::admit call", 99.0, "us"));
        out.lines
            .push(fill.describe("orderer block fill wait", 50.0, "ms"));
    }
    Ok(out)
}
