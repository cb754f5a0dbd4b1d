//! `stream_smallbank`: the paper's headline path at saturation. A
//! pre-packetised smallbank stream is fed, closed-loop, through
//! `BmacReceiver::ingest` into a durable `StreamValidator`; ECDSA in the
//! vscc stage dominates, and the store is only written.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bmac_protocol::BmacSender;
use fabric_peer::SignatureCache;
use fabric_protos::messages::Block;
use workload::{StreamScenario, Workload};

use crate::gate::{self, Faults, Reference};
use crate::layers;
use crate::measure::{self, median};
use crate::peer::{Peer, SIG_CACHE};
use crate::report::{summarize, Latency, Sample};
use crate::{iterate, timed, Ctx, Outcome};

const ACCOUNTS: usize = 1000;
const BLOCK_TXS: usize = 100;
const WORKLOAD_BLOCKS: usize = 30;
const STALE_PCT: u8 = 5;
const CORRUPT_SIGS: usize = 8;
const DUPLICATE_TXS: usize = 8;
/// Blocks the generator may have pushed but not yet seen committed: the
/// closed loop's window.
const WINDOW: u64 = 8;
/// Reference-side signature cache: large enough for every verdict of
/// the stream, so a second replay is lookup-only.
pub const REFERENCE_CACHE: usize = 1 << 16;

fn scenario(seed: u64) -> StreamScenario {
    StreamScenario {
        workload: Workload::Smallbank,
        accounts: ACCOUNTS,
        block_size: BLOCK_TXS,
        num_blocks: WORKLOAD_BLOCKS,
        stale_commit_pct: STALE_PCT,
        corrupt_sigs: CORRUPT_SIGS,
        duplicate_txs: DUPLICATE_TXS,
        seed,
    }
}

/// Encodes every block into wire packets with one sender, as an orderer
/// would send the stream.
pub fn packetise(blocks: &[Block]) -> Result<Vec<Vec<Vec<u8>>>, String> {
    let mut sender = BmacSender::new();
    blocks
        .iter()
        .map(|b| {
            sender
                .send_block(b)
                .map_err(|e| format!("send block {}: {e}", b.header.number))?
                .iter()
                .map(|p| p.encode().map_err(|e| format!("encode packet: {e}")))
                .collect()
        })
        .collect()
}

struct Input {
    blocks: Vec<Block>,
    setup_blocks: usize,
    wire: Vec<Vec<Vec<u8>>>,
}

struct IterData {
    sample: Sample,
    stall_ms: f64,
}

/// Checks the reference against the independently found faults.
fn check_injected(reference: &Reference, faults: &Faults) -> Result<(), String> {
    let corrupted = faults
        .bad_signatures
        .iter()
        .filter(|p| !faults.duplicates.contains(p))
        .count();
    if corrupted != CORRUPT_SIGS || faults.duplicates.len() != DUPLICATE_TXS {
        return Err(format!(
            "found {corrupted} corrupted signatures and {} duplicates, injected {CORRUPT_SIGS} and {DUPLICATE_TXS}",
            faults.duplicates.len()
        ));
    }
    gate::check_faults(&reference.codes, faults)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let scenario = scenario(ctx.seed);
    let setup = || {
        let generated = scenario.generate();
        let wire = packetise(&generated.blocks)?;
        Ok(Input {
            blocks: generated.blocks,
            setup_blocks: generated.setup_blocks,
            wire,
        })
    };
    let (input, first_setup_s) = timed(setup)?;
    let reference = gate::serial_replay(
        &scenario,
        &input.blocks,
        &Arc::new(SignatureCache::new(REFERENCE_CACHE)),
    )?;
    check_injected(
        &reference,
        &gate::find_faults(input.blocks.iter().map(|b| b.data.data.as_slice()))?,
    )?;

    let (iters, timing) = iterate(ctx, first_setup_s, setup, |i| {
        let dir = ctx.work.join(format!("iter-{i}"));
        let (msp, policies) = (scenario.validator_msp(), scenario.policies());
        let cache = Arc::new(SignatureCache::new(SIG_CACHE));
        let mut peer = Peer::open(&ctx.tracer, &dir, msp, policies, cache)?;
        let start = Instant::now();
        let mut stall = Duration::ZERO;
        for (b, packets) in input.wire.iter().enumerate() {
            for p in packets {
                peer.ingest(b as u64, p)?;
            }
            let waited = Instant::now();
            peer.wait_in_flight(WINDOW - 1)?;
            stall += waited.elapsed();
        }
        let run = peer.finish()?;
        gate::check_run(&run, &reference, 0)?;
        std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
        let window = run.finished_at.duration_since(start).as_secs_f64();
        Ok(IterData {
            sample: Sample {
                commit_window_s: window,
                block_latency_ms: run.block_latency_ms(),
                per_tx: run.txs(),
                tx_latency_ms: run.tx_latency_from_first_packet_ms(),
                run,
            },
            stall_ms: measure::ms(stall),
        })
    })?;

    let mut out = Outcome {
        attempted: iters.iter().map(|it| it.data.sample.run.txs() as u64).sum(),
        ..Outcome::default()
    };
    out.lines = vec![
        format!(
            "closed loop: window {WINDOW} blocks, {} blocks / {} txs per iteration",
            input.blocks.len(),
            iters[0].data.sample.run.txs()
        ),
        format!(
            "failed_ratio: 0 / {} (every iteration matched the serial reference)",
            out.attempted
        ),
    ];
    summarize(
        ctx,
        &timing,
        &iters,
        |d| &d.sample,
        Latency {
            block_from: "last packet",
            tx_from: "first packet of its block",
            pooled: true,
        },
        &[],
        &mut out,
    );
    let stall = |traced: bool| {
        median(
            &iters
                .iter()
                .filter(|it| it.traced == traced)
                .map(|it| it.data.stall_ms)
                .collect::<Vec<_>>(),
        )
    };
    out.lines.push(format!(
        "generator window stall: {:.1} ms per iteration (median)",
        stall(false)
    ));
    if ctx.trace {
        out.per_layer.insert("gen.window_stall_ms", stall(true));
        out.lines
            .push(layers::model_profile_line(&workload::measure_profile(
                &input.blocks[input.setup_blocks..],
            )));
    }
    Ok(out)
}
