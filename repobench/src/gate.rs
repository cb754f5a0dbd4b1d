//! Correctness gates. The reference is a serial `validate_and_commit`
//! replay on the legacy state backend, computed outside every timed
//! region; a run whose results differ from it reports no numbers.

use std::collections::HashSet;
use std::sync::Arc;

use fabric_ledger::{Ledger, TxValidationCode};
use fabric_peer::{SignatureCache, ValidatorPipeline};
use fabric_protos::messages::Block;
use fabric_statedb::{StateBackend, StateDb};
use workload::StreamScenario;

use crate::peer::{PeerRun, THREADS};

/// Outcome of a serial replay.
pub struct Reference {
    /// Per-transaction codes of every replayed block, in block order.
    pub codes: Vec<Vec<TxValidationCode>>,
    pub tip_commit_hash: [u8; 32],
    pub state_hash: u64,
}

/// Replays `blocks` serially on the legacy backend. `cache` may be shared
/// between replays of the same scenario: its verdicts are the
/// reference's own, so sharing only saves repeated ECDSA work.
pub fn serial_replay(
    scenario: &StreamScenario,
    blocks: &[Block],
    cache: &Arc<SignatureCache>,
) -> Result<Reference, String> {
    let pipeline = ValidatorPipeline::with_shared_cache(
        scenario.validator_msp(),
        scenario.policies(),
        THREADS,
        Arc::clone(cache),
        StateDb::with_backend(StateBackend::Legacy),
        Ledger::new(),
    );
    let mut codes = Vec::with_capacity(blocks.len());
    for block in blocks {
        let r = pipeline
            .validate_and_commit(block)
            .map_err(|e| format!("reference replay of block {}: {e}", block.header.number))?;
        codes.push(r.codes);
    }
    Ok(Reference {
        codes,
        tip_commit_hash: pipeline.ledger().tip_commit_hash(),
        state_hash: pipeline.state_db().state_hash(),
    })
}

/// Checks a peer session against the reference: the session committed
/// the reference's blocks from `first` on, with equal codes, tip commit
/// hash and state hash.
pub fn check_run(run: &PeerRun, reference: &Reference, first: usize) -> Result<(), String> {
    let expected = &reference.codes[first..];
    if run.report.results.len() != expected.len() {
        return Err(format!(
            "committed {} blocks, reference has {}",
            run.report.results.len(),
            expected.len()
        ));
    }
    for (r, want) in run.report.results.iter().zip(expected) {
        if let Some(tx) =
            (0..want.len().max(r.codes.len())).find(|&i| r.codes.get(i) != want.get(i))
        {
            return Err(format!(
                "block {} tx {tx}: committed {:?}, reference {:?}",
                r.block_num,
                r.codes.get(tx),
                want.get(tx)
            ));
        }
    }
    if run.tip_commit_hash != reference.tip_commit_hash {
        return Err("tip commit hash differs from the reference".into());
    }
    if run.state_hash != reference.state_hash {
        return Err("state hash differs from the reference".into());
    }
    Ok(())
}

/// Faults the generator injected, found without the validator: client
/// signatures that fail an independent ECDSA check, and every repeat of
/// an already-seen tx id. Positions are `(block index, tx index)`.
pub struct Faults {
    pub bad_signatures: Vec<(usize, usize)>,
    pub duplicates: Vec<(usize, usize)>,
}

pub fn find_faults<'a>(blocks: impl IntoIterator<Item = &'a [Vec<u8>]>) -> Result<Faults, String> {
    let mut faults = Faults {
        bad_signatures: Vec::new(),
        duplicates: Vec::new(),
    };
    let mut seen = HashSet::new();
    for (b, envelopes) in blocks.into_iter().enumerate() {
        for (t, envelope) in envelopes.iter().enumerate() {
            let tx = fabric_mempool::decode_admission(envelope)
                .map_err(|e| format!("block {b} tx {t} does not decode: {e}"))?;
            let signed = tx
                .creator_cert
                .public_key
                .verify_prehashed(&tx.payload_digest, &tx.client_signature)
                .is_ok();
            if !signed {
                faults.bad_signatures.push((b, t));
            }
            if !seen.insert(tx.tx_id) {
                faults.duplicates.push((b, t));
            }
        }
    }
    Ok(faults)
}

/// Every corrupted client signature is flagged `BadSignature`, and every
/// repeated tx id is flagged (its reads are stale after the first copy
/// commits, or its signature is the corrupted original's).
pub fn check_faults(codes: &[Vec<TxValidationCode>], faults: &Faults) -> Result<(), String> {
    for &(b, t) in &faults.bad_signatures {
        if codes[b][t] != TxValidationCode::BadSignature {
            return Err(format!(
                "corrupted signature at block {b} tx {t} flagged {:?}",
                codes[b][t]
            ));
        }
    }
    for &(b, t) in &faults.duplicates {
        if codes[b][t].is_valid() {
            return Err(format!(
                "duplicate tx id at block {b} tx {t} committed valid"
            ));
        }
    }
    Ok(())
}
