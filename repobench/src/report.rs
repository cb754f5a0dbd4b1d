//! The end-to-end metrics every workload reports, from its untraced
//! iterations, and the peer-path layer metrics of its traced ones.

use crate::layers;
use crate::measure::{median, Dist};
use crate::peer::PeerRun;
use crate::{Ctx, Iter, Outcome, Timing};

/// Wall and process CPU time, ms, of `measure::calibrate` on the
/// reference host that CPU-bound times and rates are scaled to: about
/// those of the 2-vCPU host the benchmark was built on.
const REFERENCE_CALIBRATION_MS: f64 = 50.0;
const REFERENCE_CALIBRATION_CPU_MS: f64 = 100.0;

/// What every timed iteration measured, whatever the workload.
pub struct Sample {
    pub run: PeerRun,
    /// Seconds over which `commit_tps` counts the session's transactions.
    pub commit_window_s: f64,
    /// One latency per committed block, ms.
    pub block_latency_ms: Vec<f64>,
    /// Transactions `cpu_us_per_tx` and `store_bytes_per_tx` divide by.
    pub per_tx: usize,
    /// One latency per transaction, ms; a failed one reads infinite.
    pub tx_latency_ms: Vec<f64>,
}

/// How a workload's latencies are taken.
pub struct Latency<'a> {
    /// Where a block's and a transaction's latency start.
    pub block_from: &'a str,
    pub tx_from: &'a str,
    /// Percentiles over the samples of every iteration pooled, or the
    /// median over iterations of each iteration's own percentile. The
    /// second suits a workload whose iteration holds only a few blocks:
    /// every transaction of a block shares its latency, so a pooled tail
    /// percentile would be the run's slowest one or two blocks.
    pub pooled: bool,
}

fn cpu_us_per_tx(s: &Sample) -> f64 {
    s.run.cpu_us / s.per_tx as f64
}

/// Fills `out` with the end-to-end metrics and their sample counts and,
/// on a traced run, the peer-path layer metrics and the trace overhead.
///
/// The host's speed drifts by a fifth or more within minutes, and a time
/// spent on CPU work moves with it, so every time and rate that CPU work
/// sets is scaled to the reference host by the run's calibration: wall
/// times and rates by the calibration's wall time, `cpu_us_per_tx` by its
/// CPU time. `schedule_set` names the metrics that the workload's
/// wall-clock schedule (an offered rate, a batch timeout) sets instead;
/// they are not scaled. The unscaled values are printed.
pub fn summarize<T>(
    ctx: &Ctx,
    timing: &Timing,
    iters: &[Iter<T>],
    sample: impl Fn(&T) -> &Sample,
    latency: Latency,
    schedule_set: &[&str],
    out: &mut Outcome,
) {
    let part = |traced: bool| -> Vec<&Sample> {
        iters
            .iter()
            .filter(|it| it.traced == traced)
            .map(|it| sample(&it.data))
            .collect()
    };
    let plain = part(false);
    let of = |f: &dyn Fn(&Sample) -> f64| median(&plain.iter().map(|s| f(s)).collect::<Vec<_>>());
    let block_ms = |s: &Sample| s.block_latency_ms.clone();
    let tx_ms = |s: &Sample| s.tx_latency_ms.clone();
    let pool =
        |f: &dyn Fn(&Sample) -> Vec<f64>| Dist::new(plain.iter().flat_map(|s| f(s)).collect());
    let (blocks, txs) = (pool(&block_ms), pool(&tx_ms));
    let pct = |pooled: &Dist, f: &dyn Fn(&Sample) -> Vec<f64>, p: f64| {
        if latency.pooled {
            pooled.pct(p)
        } else {
            of(&|s| Dist::new(f(s)).pct(p))
        }
    };
    let e = &mut out.end_to_end;
    e.insert("setup_s", timing.setup_s);
    e.insert(
        "commit_tps",
        of(&|s| s.run.txs() as f64 / s.commit_window_s),
    );
    e.insert("block_latency_p50_ms", pct(&blocks, &block_ms, 50.0));
    e.insert("block_latency_p90_ms", pct(&blocks, &block_ms, 90.0));
    e.insert("tx_latency_p50_ms", pct(&txs, &tx_ms, 50.0));
    e.insert("tx_latency_p99_ms", pct(&txs, &tx_ms, 99.0));
    e.insert("unavailable_ms", of(&|s| s.run.unavailable_ms()));
    e.insert("cpu_us_per_tx", of(&cpu_us_per_tx));
    e.insert(
        "store_bytes_per_tx",
        of(&|s| s.run.store_bytes as f64 / s.per_tx as f64),
    );
    // The smallest growth, not the median: which allocator arena a new
    // stream thread draws, and what that arena still holds, moves an
    // iteration's peak by several MiB, and the level differs between
    // processes, so a run's median carries its process's luck.
    e.insert(
        "rss_growth_mb",
        plain
            .iter()
            .map(|s| s.run.rss_growth_mb)
            .fold(f64::INFINITY, f64::min),
    );
    let unscaled: Vec<String> = e.iter().map(|(k, v)| format!("{k} {v:.4}")).collect();
    let slow = timing.calibration_ms / REFERENCE_CALIBRATION_MS;
    let slow_cpu = timing.calibration_cpu_ms / REFERENCE_CALIBRATION_CPU_MS;
    for (name, v) in e.iter_mut().filter(|(k, _)| !schedule_set.contains(k)) {
        match *name {
            "commit_tps" => *v *= slow,
            "cpu_us_per_tx" => *v /= slow_cpu,
            "setup_s"
            | "block_latency_p50_ms"
            | "block_latency_p90_ms"
            | "tx_latency_p50_ms"
            | "tx_latency_p99_ms"
            | "unavailable_ms" => *v /= slow,
            _ => {}
        }
    }
    let block_what = format!("block latency ({} -> commit)", latency.block_from);
    let tx_what = format!("tx latency ({} -> commit)", latency.tx_from);
    out.lines.extend([
        format!(
            "host calibration (fixed kernel, median before each iteration): {:.2} ms wall, \
             {:.2} ms CPU; reference {REFERENCE_CALIBRATION_MS} / {REFERENCE_CALIBRATION_CPU_MS} ms",
            timing.calibration_ms, timing.calibration_cpu_ms
        ),
        format!(
            "end-to-end metrics before scaling to the reference host (not scaled: {schedule_set:?}; \
             nor are the percentile lines below): {}",
            unscaled.join(", ")
        ),
        format!(
            "{} timed iterations after one warm-up ({} untraced)",
            iters.len(),
            plain.len()
        ),
        format!(
            "latency percentiles reported: {}",
            if latency.pooled {
                "over the pooled samples below"
            } else {
                "median over iterations of each iteration's own percentile (pooled ones below)"
            }
        ),
        blocks.describe(&block_what, 50.0, "ms"),
        blocks.describe(&block_what, 90.0, "ms"),
        txs.describe(&tx_what, 50.0, "ms"),
        txs.describe(&tx_what, 99.0, "ms"),
        format!(
            "commit_tps per iteration: {:?}",
            plain
                .iter()
                .map(|s| (s.run.txs() as f64 / s.commit_window_s).round())
                .collect::<Vec<_>>()
        ),
        format!(
            "rss_growth_mb per iteration: {:?}",
            plain
                .iter()
                .map(|s| (s.run.rss_growth_mb * 10.0).round() / 10.0)
                .collect::<Vec<_>>()
        ),
    ]);

    if ctx.trace {
        let traced = part(true);
        let runs: Vec<&PeerRun> = traced.iter().map(|s| &s.run).collect();
        let l = &mut out.per_layer;
        out.lines.extend(layers::peer_layers(&runs, &ctx.tracer, l));
        // Process CPU time, not wall time: an open-loop iteration lasts as
        // long as its arrival schedule, whatever the spans cost.
        let cpu = |v: &[&Sample]| median(&v.iter().map(|s| cpu_us_per_tx(s)).collect::<Vec<_>>());
        l.insert(
            "trace.overhead_pct",
            100.0 * (cpu(&traced) / cpu(&plain) - 1.0),
        );
        l.insert("host.calibration_ms", timing.calibration_ms);
        l.insert("host.calibration_cpu_ms", timing.calibration_cpu_ms);
        l.insert(
            "trace.spans_per_iteration",
            ctx.tracer.total_spans() as f64 / traced.len() as f64,
        );
    }
}
