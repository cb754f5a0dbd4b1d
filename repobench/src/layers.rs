//! Per-layer metrics of the peer path, read from the spans the benchmark
//! recorded around its calls and from the statistics the crates' public
//! API already returns (`StageTimings`, `StreamStats`, `ReceiverStats`).

use std::collections::BTreeMap;

use fabric_peer::{BlockProfile, SwValidatorModel};

use crate::measure::{median, Tracer};
use crate::peer::{PeerRun, THREADS};

/// The paper's Fig. 3b software profile: ECDSA, unmarshal, statedb.
const PAPER_SHARES: &str = "ECDSA ~40%, unmarshal ~17%, statedb 10-20%";

fn sum<T>(runs: &[&PeerRun], f: impl Fn(&PeerRun) -> T) -> f64
where
    T: Into<f64>,
{
    runs.iter().map(|r| f(r).into()).sum()
}

fn med(runs: &[&PeerRun], f: impl Fn(&PeerRun) -> f64) -> f64 {
    median(&runs.iter().map(|r| f(r)).collect::<Vec<_>>())
}

fn per(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Fills the bmac, protos, peer, statedb, ledger and store metrics from
/// the traced peer sessions, and returns the layer self-time shares.
pub fn peer_layers(
    runs: &[&PeerRun],
    tracer: &Tracer,
    out: &mut BTreeMap<&'static str, f64>,
) -> Vec<String> {
    let blocks = sum(runs, |r| r.report.results.len() as f64);
    let txs = sum(runs, |r| r.txs() as f64);
    let stage = |f: fn(&fabric_peer::StageTimings) -> u64| -> f64 {
        runs.iter()
            .flat_map(|r| &r.report.results)
            .map(|b| f(&b.timings) as f64)
            .sum()
    };
    let unmarshal = stage(|t| t.unmarshal_us);
    let block_verify = stage(|t| t.block_verify_us);
    let vscc = stage(|t| t.verify_vscc_us);
    let mvcc = stage(|t| t.mvcc_us);
    let statedb = stage(|t| t.statedb_commit_us);
    let ledger = stage(|t| t.ledger_us);
    let ingest = tracer.self_us("BmacReceiver::ingest");
    let verifications = sum(runs, |r| r.verifications as f64);

    out.insert("bmac.ingest_us_per_block", per(ingest, blocks));
    out.insert(
        "bmac.ingest_mb_per_s",
        per(sum(runs, |r| r.wire_bytes as f64), ingest),
    );
    out.insert("bmac.packets", med(runs, |r| r.receiver.packets as f64));
    out.insert(
        "bmac.late_duplicates",
        med(runs, |r| r.receiver.late_duplicates as f64),
    );
    out.insert("protos.unmarshal_us_per_block", per(unmarshal, blocks));
    out.insert("peer.verifications_per_tx", per(verifications, txs));
    out.insert("peer.block_verify_us_per_block", per(block_verify, blocks));
    out.insert("peer.vscc_us_per_block", per(vscc, blocks));
    out.insert("peer.vscc_us_per_verification", per(vscc, verifications));
    out.insert(
        "peer.sigcache_hit_rate",
        1.0 - per(verifications, sum(runs, |r| r.sig_checks as f64)),
    );
    out.insert(
        "peer.verify_occupancy",
        med(runs, |r| r.report.stats.verify_occupancy),
    );
    out.insert(
        "peer.commit_occupancy",
        med(runs, |r| r.report.stats.commit_occupancy),
    );
    out.insert(
        "peer.overlap_factor",
        med(runs, |r| r.report.stats.overlap_factor),
    );
    out.insert(
        "peer.max_in_flight",
        med(runs, |r| r.report.stats.max_in_flight_observed as f64),
    );
    out.insert(
        "peer.reordered_blocks",
        med(runs, |r| r.report.stats.reordered_blocks as f64),
    );
    // Block latency minus the block's own stage time: what it spent
    // queued for a lane, the sequencer or the generator's next poll.
    let wait_ms: f64 = runs
        .iter()
        .flat_map(|r| {
            r.block_latency_ms()
                .into_iter()
                .zip(&r.report.results)
                .map(|(lat, b)| {
                    lat - (b.timings.total_excl_ledger_us() + b.timings.ledger_us) as f64 / 1e3
                })
                .collect::<Vec<_>>()
        })
        .sum();
    out.insert("peer.wait_ms_per_block", per(wait_ms, blocks));
    out.insert("statedb.apply_block_us_per_block", per(statedb, blocks));
    out.insert("statedb.keys", med(runs, |r| r.keys as f64));
    out.insert("ledger.commit_us_per_block", per(ledger, blocks));
    let sessions = runs.len() as f64;
    out.insert(
        "store.flush_ms",
        tracer.total_us("FabricStore::flush") / sessions / 1e3,
    );
    out.insert(
        "store.open_ms",
        tracer.total_us("FabricStore::open") / sessions / 1e3,
    );
    out.insert("store.journal_bytes", med(runs, |r| r.journal_bytes as f64));
    out.insert("store.block_bytes", med(runs, |r| r.block_bytes as f64));

    // Self-time shares of the layers on the block path. The stage times
    // are the stream threads' own; the receiver runs on the generator.
    let total = unmarshal + block_verify + vscc + mvcc + statedb + ledger + ingest;
    let share = |x: f64| per(100.0 * x, total);
    out.insert("share.ecdsa_pct", share(block_verify + vscc));
    out.insert("share.unmarshal_pct", share(unmarshal));
    out.insert("share.statedb_pct", share(mvcc + statedb));
    out.insert("share.ledger_pct", share(ledger));
    out.insert("share.bmac_pct", share(ingest));
    let layer =
        |name: &str, us: f64| format!("{name} {:.0} us/block ({:.1}%)", per(us, blocks), share(us));
    vec![format!(
        "measured self time per block: {}, {}, {}, {}, {} (paper Fig. 3b: {PAPER_SHARES})",
        layer("ECDSA+vscc", block_verify + vscc),
        layer("unmarshal", unmarshal),
        layer("statedb (mvcc+apply)", mvcc + statedb),
        layer("ledger", ledger),
        layer("bmac ingest", ingest)
    )]
}

/// `SwValidatorModel::cpu_profile` of the measured block shape, as shares.
pub fn model_profile_line(profile: &BlockProfile) -> String {
    let cpu = SwValidatorModel::new(THREADS).cpu_profile(profile);
    format!(
        "SwValidatorModel::cpu_profile for the measured BlockProfile \
         ({} txs, {} endorsements, {} B/tx): ECDSA {:.1}%, sha256 {:.1}%, unmarshal {:.1}%, \
         statedb {:.1}%, ledger {:.1}%, other {:.1}%",
        profile.num_txs,
        profile.endorsements_per_tx,
        profile.tx_bytes,
        cpu.share(cpu.ecdsa),
        cpu.share(cpu.sha256),
        cpu.share(cpu.unmarshal),
        cpu.share(cpu.statedb),
        cpu.share(cpu.ledger),
        cpu.share(cpu.other)
    )
}
