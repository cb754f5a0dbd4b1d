//! Software reference receiver for the BMac protocol.
//!
//! Functionally identical to the hardware `protocol_processor` (§3.2,
//! Figure 5b): classifies packets, maintains the identity cache
//! (DataInserter), reconstructs byte-exact sections, and extracts the
//! verification requests and database requests the block processor
//! consumes (DataExtractor / DataProcessor / HashCalculator). The
//! hardware simulator in `bmac-hw` reuses this for functional behaviour
//! and adds the timing model on top.

use std::collections::{BTreeMap, HashMap, HashSet};

use fabric_crypto::der;
use fabric_crypto::sha256::sha256;
use fabric_crypto::Signature;
use fabric_protos::messages::{
    metadata_index, Block, BlockData, BlockHeader, BlockMetadata, MetadataSignature,
    SignatureHeader,
};
use fabric_protos::txflow::{decode_transaction, DecodedTransaction};
use fabric_protos::wire::WireError;
use fabric_protos::Version;

use crate::cache::IdentityCache;
use crate::packet::{Annotation, BmacPacket, PacketError, SectionType};

/// One verification request as consumed by an `ecdsa_engine`: signature,
/// key owner (by id), and the 32-byte message digest (§3.3).
#[derive(Debug, Clone)]
pub struct VerificationRequest {
    /// Parsed ECDSA signature.
    pub signature: Signature,
    /// 16-bit encoded id of the signer (key selector).
    pub signer_id: u16,
    /// SHA-256 digest of the signed message.
    pub digest: [u8; 32],
}

/// Extracted per-transaction data, i.e. the contents of `tx_fifo` +
/// `ends_fifo` + `rdset_fifo` + `wrset_fifo` for one transaction
/// (Figure 7).
#[derive(Debug, Clone)]
pub struct ExtractedTx {
    /// Transaction id.
    pub tx_id: String,
    /// Chaincode (selects the policy circuit via `cc_id`).
    pub chaincode: String,
    /// Client signature verification request.
    pub client: VerificationRequest,
    /// One verification request per endorsement.
    pub endorsements: Vec<VerificationRequest>,
    /// Database read requests: key + expected version.
    pub reads: Vec<(String, Option<Version>)>,
    /// Database write requests: key + value.
    pub writes: Vec<(String, Vec<u8>)>,
    /// Reconstructed envelope size in bytes.
    pub envelope_len: usize,
}

/// A block fully reassembled from BMac packets.
#[derive(Debug, Clone)]
pub struct ReceivedBlock {
    /// The byte-exact reconstructed block.
    pub block: Block,
    /// Block-level verification request (orderer signature).
    pub block_verification: VerificationRequest,
    /// Per-transaction extracted data.
    pub txs: Vec<ExtractedTx>,
    /// Total wire bytes consumed for this block (excluding syncs).
    pub wire_bytes: usize,
}

/// Errors from packet ingestion.
#[derive(Debug)]
pub enum ReceiveError {
    /// Packet-level decode failure.
    Packet(PacketError),
    /// A locator referenced an id missing from the cache (a lost
    /// IdentitySync packet).
    UnknownIdentity(u16),
    /// Reconstructed bytes failed to decode.
    Decode(WireError),
    /// The reconstructed section failed a structural expectation.
    Malformed(&'static str),
}

impl std::fmt::Display for ReceiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReceiveError::Packet(e) => write!(f, "bad packet: {e}"),
            ReceiveError::UnknownIdentity(id) => {
                write!(f, "identity {id:#06x} not in cache (lost sync packet?)")
            }
            ReceiveError::Decode(e) => write!(f, "reconstructed section undecodable: {e}"),
            ReceiveError::Malformed(what) => write!(f, "malformed section: {what}"),
        }
    }
}

impl std::error::Error for ReceiveError {}

#[derive(Debug, Default)]
struct PartialBlock {
    header: Option<Vec<u8>>,
    metadata: Option<(Vec<u8>, Vec<Annotation>)>,
    txs: HashMap<u16, (Vec<u8>, Vec<Annotation>)>,
    total_txs: Option<u16>,
    wire_bytes: usize,
}

impl PartialBlock {
    fn is_complete(&self) -> bool {
        match self.total_txs {
            Some(n) => {
                self.header.is_some() && self.metadata.is_some() && self.txs.len() == n as usize
            }
            None => false,
        }
    }
}

/// How far past the delivered watermark a block number may be and still
/// open a partial block. Sections further ahead are dropped (and
/// counted in [`ReceiverStats::out_of_window`]), so a flood of
/// far-future block numbers cannot grow reassembly state without bound:
/// at most this many blocks are ever in reassembly. Generously above
/// any reorder depth a sender's in-flight window produces.
pub const REASSEMBLY_WINDOW: u64 = 1024;

/// Receiver statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReceiverStats {
    /// BMac packets accepted.
    pub packets: u64,
    /// Non-BMac packets forwarded to the host.
    pub forwarded: u64,
    /// Blocks completed.
    pub blocks: u64,
    /// Identity-cache entries installed.
    pub identities: u64,
    /// Section packets discarded because their block had already
    /// completed (late duplicates on the wire).
    pub late_duplicates: u64,
    /// Section packets discarded because their block number was more
    /// than [`REASSEMBLY_WINDOW`] ahead of the delivered watermark.
    pub out_of_window: u64,
    /// Section packets discarded because their `total_txs` disagreed
    /// with the count their block's first section recorded, or their
    /// transaction index lay outside that count.
    pub conflicting_sections: u64,
}

/// The software BMac receiver.
#[derive(Debug, Default)]
pub struct BmacReceiver {
    cache: IdentityCache,
    /// Blocks in reassembly, ordered so that one ingest releasing
    /// several blocks yields them in ascending block order.
    partial: BTreeMap<u64, PartialBlock>,
    /// Numbers of blocks already delivered: a duplicate section arriving
    /// after its block completed must be dropped, not allowed to seed a
    /// ghost partial block (which would both report a phantom loss and,
    /// under full duplication, deliver the block twice). Only the
    /// out-of-order frontier is stored; everything at or below
    /// `completed_watermark` is pruned, so memory stays O(reorder depth)
    /// when numbering is dense from the watermark (block 0 for
    /// [`BmacReceiver::new`]; use [`BmacReceiver::resuming_from`] when
    /// attaching mid-chain, otherwise the set grows by one entry per
    /// delivered block).
    completed: HashSet<u64>,
    /// All blocks `0..=watermark` are considered delivered.
    completed_watermark: Option<u64>,
    stats: ReceiverStats,
}

impl BmacReceiver {
    /// Creates a receiver with an empty identity cache.
    pub fn new() -> Self {
        BmacReceiver::default()
    }

    /// Creates a receiver attached to a chain whose next expected block
    /// is `next_block` (the resuming peer's `Ledger::next_block_number`):
    /// sections for blocks below it are discarded as late duplicates,
    /// and the completed-block memory stays bounded by the reorder depth
    /// instead of growing per delivered block.
    pub fn resuming_from(next_block: u64) -> Self {
        BmacReceiver {
            completed_watermark: next_block.checked_sub(1),
            ..BmacReceiver::default()
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> ReceiverStats {
        self.stats
    }

    /// Block numbers currently incomplete (for loss detection; the
    /// protocol has no retransmission, §5).
    pub fn incomplete_blocks(&self) -> Vec<u64> {
        self.partial.keys().copied().collect()
    }

    /// Ingests one wire packet. Returns any blocks completed by this
    /// packet (usually zero or one; an identity-sync packet can release
    /// several blocks that were waiting on it, in ascending block
    /// order). Non-BMac packets are counted as forwarded.
    ///
    /// # Errors
    ///
    /// [`ReceiveError`] on malformed BMac packets or reconstruction
    /// failures.
    pub fn ingest(&mut self, wire: &[u8]) -> Result<Vec<ReceivedBlock>, ReceiveError> {
        let packet = match BmacPacket::decode(wire) {
            Ok(p) => p,
            Err(PacketError::NotBmac) => {
                self.stats.forwarded += 1;
                return Ok(Vec::new());
            }
            Err(e) => return Err(ReceiveError::Packet(e)),
        };
        self.stats.packets += 1;
        self.ingest_packet(packet, wire.len())
    }

    /// Ingests an already-parsed packet (the hardware simulator path).
    ///
    /// Blocks whose sections are all present but which reference an
    /// identity not yet synchronized are held back until the sync
    /// arrives — UDP gives no ordering guarantee between a sync packet
    /// and a later block's sections.
    ///
    /// Sections are dropped and counted, never buffered, when their
    /// block is already delivered, lies more than [`REASSEMBLY_WINDOW`]
    /// past the delivered watermark, or carries a `total_txs` that
    /// contradicts the count its block first recorded (or indexes a
    /// transaction outside it).
    ///
    /// # Errors
    ///
    /// [`ReceiveError`] on reconstruction failures.
    pub fn ingest_packet(
        &mut self,
        packet: BmacPacket,
        wire_len: usize,
    ) -> Result<Vec<ReceivedBlock>, ReceiveError> {
        if packet.section == SectionType::IdentitySync {
            self.cache.insert_raw(packet.index, packet.payload.to_vec());
            self.stats.identities += 1;
            // The new identity may unblock complete-but-waiting blocks.
            return self.drain_ready();
        }
        if self.is_completed(packet.block_num) {
            self.stats.late_duplicates += 1;
            return Ok(Vec::new());
        }
        let next = self.completed_watermark.map_or(0, |w| w + 1);
        if packet.block_num - next >= REASSEMBLY_WINDOW {
            self.stats.out_of_window += 1;
            return Ok(Vec::new());
        }
        if packet.section == SectionType::Transaction && packet.index >= packet.total_txs {
            self.stats.conflicting_sections += 1;
            return Ok(Vec::new());
        }
        let partial = self.partial.entry(packet.block_num).or_default();
        match partial.total_txs {
            Some(total) if total != packet.total_txs => {
                self.stats.conflicting_sections += 1;
                return Ok(Vec::new());
            }
            _ => partial.total_txs = Some(packet.total_txs),
        }
        partial.wire_bytes += wire_len;
        match packet.section {
            SectionType::Header => partial.header = Some(packet.payload.to_vec()),
            SectionType::Metadata => {
                partial.metadata = Some((packet.payload.to_vec(), packet.annotations))
            }
            SectionType::Transaction => {
                partial
                    .txs
                    .insert(packet.index, (packet.payload.to_vec(), packet.annotations));
            }
            SectionType::IdentitySync => unreachable!("handled above"),
        }
        if !self.partial[&packet.block_num].is_complete() {
            return Ok(Vec::new());
        }
        self.complete_one(packet.block_num)
    }

    fn is_completed(&self, block_num: u64) -> bool {
        match self.completed_watermark {
            Some(w) if block_num <= w => true,
            _ => self.completed.contains(&block_num),
        }
    }

    fn mark_completed(&mut self, block_num: u64) {
        self.completed.insert(block_num);
        // Advance the dense prefix and prune everything under it.
        loop {
            let next = self.completed_watermark.map_or(0, |w| w + 1);
            if self.completed.remove(&next) {
                self.completed_watermark = Some(next);
            } else {
                break;
            }
        }
    }

    /// Attempts to finish every structurally complete block.
    fn drain_ready(&mut self) -> Result<Vec<ReceivedBlock>, ReceiveError> {
        let ready: Vec<u64> = self
            .partial
            .iter()
            .filter(|(_, p)| p.is_complete())
            .map(|(&n, _)| n)
            .collect();
        let mut out = Vec::new();
        for n in ready {
            out.extend(self.complete_one(n)?);
        }
        Ok(out)
    }

    /// Finishes one complete block, or leaves it parked when an identity
    /// is still missing (reassembly is side-effect free).
    fn complete_one(&mut self, block_num: u64) -> Result<Vec<ReceivedBlock>, ReceiveError> {
        let result = {
            let partial = self.partial.get(&block_num).expect("present");
            self.reassemble(partial)
        };
        match result {
            Ok(block) => {
                self.partial.remove(&block_num);
                self.mark_completed(block_num);
                self.stats.blocks += 1;
                Ok(vec![block])
            }
            Err(ReceiveError::UnknownIdentity(_))
            | Err(ReceiveError::Malformed("orderer identity not cached")) => Ok(Vec::new()),
            Err(e) => Err(e),
        }
    }

    /// The DataInserter: reinsert cached identity bytes at each locator
    /// offset, restoring the original section byte-exactly.
    fn reconstruct(
        &self,
        stripped: &[u8],
        annotations: &[Annotation],
    ) -> Result<Vec<u8>, ReceiveError> {
        let mut locators: Vec<(u32, u16)> = annotations
            .iter()
            .filter_map(|a| match a {
                Annotation::Locator { offset, id } => Some((*offset, *id)),
                _ => None,
            })
            .collect();
        locators.sort_by_key(|&(off, _)| off);
        let mut out = Vec::with_capacity(stripped.len() + locators.len() * 900);
        let mut pos = 0usize;
        for (offset, id) in locators {
            let offset = offset as usize;
            if offset > stripped.len() {
                return Err(ReceiveError::Malformed("locator offset out of range"));
            }
            out.extend_from_slice(&stripped[pos..offset]);
            let ident = self
                .cache
                .bytes_of(id)
                .ok_or(ReceiveError::UnknownIdentity(id))?;
            out.extend_from_slice(ident);
            pos = offset;
        }
        out.extend_from_slice(&stripped[pos..]);
        Ok(out)
    }

    fn reassemble(&self, partial: &PartialBlock) -> Result<ReceivedBlock, ReceiveError> {
        let header_bytes = partial.header.as_ref().expect("checked complete");
        let (md_stripped, md_annotations) = partial.metadata.as_ref().expect("checked complete");
        let header = BlockHeader::unmarshal(header_bytes).map_err(ReceiveError::Decode)?;
        let md_bytes = self.reconstruct(md_stripped, md_annotations)?;
        let metadata = BlockMetadata::unmarshal(&md_bytes).map_err(ReceiveError::Decode)?;

        // Block verification request from the metadata signature slot.
        let sig_slot = &metadata.metadata[metadata_index::SIGNATURES];
        let md_sig = MetadataSignature::unmarshal(sig_slot).map_err(ReceiveError::Decode)?;
        let sh =
            SignatureHeader::unmarshal(&md_sig.signature_header).map_err(ReceiveError::Decode)?;
        let orderer_id = self
            .cache
            .id_of(&sh.creator)
            .ok_or(ReceiveError::Malformed("orderer identity not cached"))?;
        let signature = der::decode_signature(&md_sig.signature)
            .map_err(|_| ReceiveError::Malformed("bad orderer DER signature"))?;
        let mut signed = md_sig.signature_header.clone();
        signed.extend_from_slice(&header.marshal());
        let block_verification = VerificationRequest {
            signature,
            signer_id: orderer_id,
            digest: sha256(&signed),
        };

        // Transactions, in order.
        let total = partial.total_txs.expect("checked complete");
        let mut envelopes = Vec::with_capacity(total as usize);
        let mut txs = Vec::with_capacity(total as usize);
        for i in 0..total {
            let (stripped, annotations) = partial.txs.get(&i).expect("checked complete");
            let env_bytes = self.reconstruct(stripped, annotations)?;
            let decoded = decode_transaction(&env_bytes).map_err(ReceiveError::Decode)?;
            txs.push(self.extract_tx(&decoded, env_bytes.len())?);
            envelopes.push(env_bytes);
        }

        let block = Block {
            header,
            data: BlockData { data: envelopes },
            metadata,
        };
        Ok(ReceivedBlock {
            block,
            block_verification,
            txs,
            wire_bytes: partial.wire_bytes,
        })
    }

    /// DataExtractor + DataProcessor + HashCalculator for one
    /// transaction: produce the fixed-width verification requests and the
    /// database request streams.
    fn extract_tx(
        &self,
        decoded: &DecodedTransaction,
        envelope_len: usize,
    ) -> Result<ExtractedTx, ReceiveError> {
        let creator_ident = fabric_protos::messages::SerializedIdentity {
            mspid: decoded.creator_cert.org_name.clone(),
            id_bytes: decoded.creator_cert.to_bytes(),
        }
        .marshal();
        let creator_id = self
            .cache
            .id_of(&creator_ident)
            .unwrap_or_else(|| decoded.creator_cert.node_id.encode());
        let client = VerificationRequest {
            signature: decoded.client_signature,
            signer_id: creator_id,
            digest: sha256(&decoded.signed_payload),
        };
        let endorsements = decoded
            .endorsements
            .iter()
            .map(|e| VerificationRequest {
                signature: e.signature,
                signer_id: e.endorser_cert.node_id.encode(),
                digest: sha256(&e.signed_message),
            })
            .collect();
        Ok(ExtractedTx {
            tx_id: decoded.tx_id.clone(),
            chaincode: decoded.chaincode.clone(),
            client,
            endorsements,
            reads: decoded.reads.clone(),
            writes: decoded.writes.clone(),
            envelope_len,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sender::BmacSender;
    use fabric_node::chaincode::KvChaincode;
    use fabric_node::network::FabricNetworkBuilder;
    use fabric_policy::parse;

    fn one_block(ntx: usize) -> Block {
        let mut net = FabricNetworkBuilder::new()
            .orgs(2)
            .block_size(ntx)
            .chaincode("kv", parse("2-outof-2 orgs").unwrap())
            .build();
        net.install_chaincode(|| Box::new(KvChaincode::new("kv")));
        let mut blocks = Vec::new();
        let mut i = 0;
        while blocks.is_empty() {
            blocks = net
                .submit_invocation(0, "kv", "put", &[format!("k{i}"), "1".into()])
                .unwrap();
            i += 1;
        }
        blocks.remove(0)
    }

    fn roundtrip(block: &Block) -> ReceivedBlock {
        let mut sender = BmacSender::new();
        let mut receiver = BmacReceiver::new();
        let packets = sender.send_block(block).unwrap();
        let mut done = None;
        for p in packets {
            let wire = p.encode().unwrap();
            for b in receiver.ingest(&wire).unwrap() {
                done = Some(b);
            }
        }
        done.expect("block completed")
    }

    #[test]
    fn reconstruction_is_byte_exact() {
        let block = one_block(3);
        let received = roundtrip(&block);
        assert_eq!(received.block.marshal(), block.marshal());
    }

    #[test]
    fn block_verification_request_verifies() {
        let block = one_block(2);
        let received = roundtrip(&block);
        // Decode the orderer cert from the reconstructed block and check
        // the extracted digest + signature verify against it.
        let decoded = fabric_protos::txflow::decode_block(&block.marshal()).unwrap();
        assert!(decoded
            .orderer_cert
            .public_key
            .verify_prehashed(
                &received.block_verification.digest,
                &received.block_verification.signature
            )
            .is_ok());
        assert_eq!(
            received.block_verification.signer_id,
            decoded.orderer_cert.node_id.encode()
        );
    }

    #[test]
    fn extracted_requests_verify_with_real_keys() {
        let block = one_block(2);
        let received = roundtrip(&block);
        let decoded = fabric_protos::txflow::decode_block(&block.marshal()).unwrap();
        for (ext, dec) in received.txs.iter().zip(&decoded.txs) {
            assert!(dec
                .creator_cert
                .public_key
                .verify_prehashed(&ext.client.digest, &ext.client.signature)
                .is_ok());
            assert_eq!(ext.endorsements.len(), dec.endorsements.len());
            for (er, ed) in ext.endorsements.iter().zip(&dec.endorsements) {
                assert!(ed
                    .endorser_cert
                    .public_key
                    .verify_prehashed(&er.digest, &er.signature)
                    .is_ok());
            }
            assert_eq!(ext.reads, dec.reads);
            assert_eq!(ext.writes, dec.writes);
        }
    }

    #[test]
    fn out_of_order_packets_still_complete() {
        let block = one_block(4);
        let mut sender = BmacSender::new();
        let mut receiver = BmacReceiver::new();
        let mut packets = sender.send_block(&block).unwrap();
        // Keep syncs first (sender guarantees delivery ordering of syncs
        // before first use in our in-order link; reverse only the rest).
        let syncs: Vec<_> = packets
            .iter()
            .filter(|p| p.section == SectionType::IdentitySync)
            .cloned()
            .collect();
        packets.retain(|p| p.section != SectionType::IdentitySync);
        packets.reverse();
        let mut done = None;
        for p in syncs.into_iter().chain(packets) {
            for b in receiver.ingest(&p.encode().unwrap()).unwrap() {
                done = Some(b);
            }
        }
        assert!(done.is_some());
        assert_eq!(done.unwrap().block.marshal(), block.marshal());
    }

    #[test]
    fn lost_packet_leaves_block_incomplete() {
        let block = one_block(3);
        let mut sender = BmacSender::new();
        let mut receiver = BmacReceiver::new();
        let packets = sender.send_block(&block).unwrap();
        let mut completed = false;
        let mut dropped = false;
        for p in packets.iter() {
            // Drop the first transaction section.
            if p.section == SectionType::Transaction && !dropped {
                dropped = true;
                continue;
            }
            if !receiver.ingest(&p.encode().unwrap()).unwrap().is_empty() {
                completed = true;
            }
        }
        assert!(dropped);
        assert!(!completed);
        assert_eq!(receiver.incomplete_blocks(), vec![block.header.number]);
    }

    #[test]
    fn lost_sync_packet_is_detected() {
        let block = one_block(1);
        let mut sender = BmacSender::new();
        let mut receiver = BmacReceiver::new();
        let packets = sender.send_block(&block).unwrap();
        let mut completed = 0;
        for p in packets {
            if p.section == SectionType::IdentitySync {
                continue; // lose all syncs
            }
            completed += receiver.ingest(&p.encode().unwrap()).unwrap().len();
        }
        // The block never completes — it stays parked waiting for the
        // identity sync, and loss is observable via incomplete_blocks().
        assert_eq!(completed, 0);
        assert_eq!(receiver.incomplete_blocks(), vec![block.header.number]);
    }

    #[test]
    fn late_duplicates_after_completion_are_dropped() {
        let block = one_block(2);
        let mut sender = BmacSender::new();
        let mut receiver = BmacReceiver::new();
        let packets = sender.send_block(&block).unwrap();
        let mut completed = 0;
        for p in &packets {
            completed += receiver.ingest(&p.encode().unwrap()).unwrap().len();
        }
        assert_eq!(completed, 1);
        // Replaying the whole block (a full wire-level duplicate) must
        // not deliver it twice NOR seed a ghost partial that would read
        // as a phantom loss.
        for p in &packets {
            completed += receiver.ingest(&p.encode().unwrap()).unwrap().len();
        }
        assert_eq!(completed, 1);
        assert!(receiver.incomplete_blocks().is_empty());
        assert!(receiver.stats().late_duplicates > 0);
    }

    #[test]
    fn resuming_receiver_drops_blocks_below_the_chain_tip() {
        let mut current = one_block(1);
        current.header.number = 5;
        let mut sender = BmacSender::new();
        let mut receiver = BmacReceiver::resuming_from(5);
        let mut done = 0;
        for p in sender.send_block(&current).unwrap() {
            done += receiver.ingest(&p.encode().unwrap()).unwrap().len();
        }
        assert_eq!(done, 1, "the expected block still completes");
        // A replayed block from below the resume point is discarded as a
        // late duplicate — no ghost partial, no phantom loss report.
        let mut old = one_block(1);
        old.header.number = 3;
        for p in sender.send_block(&old).unwrap() {
            assert!(receiver.ingest(&p.encode().unwrap()).unwrap().is_empty());
        }
        assert!(receiver.stats().late_duplicates > 0);
        assert!(receiver.incomplete_blocks().is_empty());
    }

    #[test]
    fn non_bmac_traffic_is_forwarded() {
        let mut receiver = BmacReceiver::new();
        let result = receiver.ingest(&[0u8; 100]).unwrap();
        assert!(result.is_empty());
        assert_eq!(receiver.stats().forwarded, 1);
    }

    #[test]
    fn multiple_blocks_interleaved() {
        let b1 = one_block(2);
        let mut b2 = one_block(2);
        // Give the second block a different number so both are tracked.
        b2.header.number = 1;
        let mut sender = BmacSender::new();
        let mut receiver = BmacReceiver::new();
        let mut p1 = sender.send_block(&b1).unwrap();
        let mut p2 = sender.send_block(&b2).unwrap();
        // Interleave sections of the two blocks (alternating, preserving
        // per-block order so identity syncs precede their first use).
        let mut interleaved = Vec::with_capacity(p1.len() + p2.len());
        while !p1.is_empty() || !p2.is_empty() {
            if !p1.is_empty() {
                interleaved.push(p1.remove(0));
            }
            if !p2.is_empty() {
                interleaved.push(p2.remove(0));
            }
        }
        let mut completed = 0;
        for p in interleaved {
            completed += receiver.ingest(&p.encode().unwrap()).unwrap().len();
        }
        assert_eq!(completed, 2);
    }

    #[test]
    fn far_ahead_headers_leave_bounded_partials() {
        let block = one_block(1);
        let mut sender = BmacSender::new();
        let header = sender
            .send_block(&block)
            .unwrap()
            .into_iter()
            .find(|p| p.section == SectionType::Header)
            .unwrap();
        let mut receiver = BmacReceiver::new();
        for i in 0..100_000u64 {
            let mut p = header.clone();
            p.block_num = 10 + i;
            assert!(receiver.ingest_packet(p, 64).unwrap().is_empty());
        }
        let parked = receiver.incomplete_blocks().len() as u64;
        assert!(parked <= REASSEMBLY_WINDOW, "{parked} partial blocks");
        assert_eq!(parked + receiver.stats().out_of_window, 100_000);
    }

    #[test]
    fn identity_sync_releases_blocks_in_ascending_order() {
        let base = one_block(1);
        let mut sender = BmacSender::new();
        let mut receiver = BmacReceiver::new();
        let mut syncs = Vec::new();
        for n in 0..8u64 {
            let mut block = base.clone();
            block.header.number = n;
            for p in sender.send_block(&block).unwrap() {
                if p.section == SectionType::IdentitySync {
                    syncs.push(p);
                } else {
                    // Every block parks: no identity is cached yet.
                    assert!(receiver.ingest(&p.encode().unwrap()).unwrap().is_empty());
                }
            }
        }
        assert_eq!(receiver.incomplete_blocks().len(), 8);
        let mut released = Vec::new();
        for p in syncs {
            for b in receiver.ingest(&p.encode().unwrap()).unwrap() {
                released.push(b.block.header.number);
            }
        }
        assert_eq!(released, (0..8).collect::<Vec<u64>>());
    }

    #[test]
    fn conflicting_total_txs_cannot_alias_a_block() {
        let block = one_block(3);
        // Same number, one transaction: a stray section claiming the
        // block is complete after its first transaction.
        let mut short = block.clone();
        short.data.data.truncate(1);
        let mut sender = BmacSender::new();
        let packets = sender.send_block(&block).unwrap();
        let stray = sender
            .send_block(&short)
            .unwrap()
            .into_iter()
            .find(|p| p.section == SectionType::Transaction)
            .unwrap();
        assert_eq!(stray.total_txs, 1);
        // A section indexing past the block's own count: counted as
        // present, it would leave a gap that reassembly cannot fill.
        let mut forged = packets
            .iter()
            .find(|p| p.section == SectionType::Transaction)
            .unwrap()
            .clone();
        forged.index = 5;
        let mut receiver = BmacReceiver::new();
        let mut delivered = Vec::new();
        let (first, rest): (Vec<_>, Vec<_>) = packets
            .into_iter()
            .partition(|p| p.section != SectionType::Transaction || p.index == 0);
        for p in first.into_iter().chain([stray, forged]).chain(rest) {
            delivered.extend(receiver.ingest(&p.encode().unwrap()).unwrap());
        }
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].block.marshal(), block.marshal());
        assert_eq!(receiver.stats().conflicting_sections, 2);
    }
}
