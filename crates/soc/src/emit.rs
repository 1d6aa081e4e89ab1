//! The tiles' one packet-emission path: in-order injection from an
//! outgoing queue, and the one owner of the DMA-plane packet formats.
//!
//! Each DMA message class has one constructor here, and next to it the
//! flit count of its packets, derived from the same header layout and
//! [`Packet::flits_for`]. The deployment analyzer prices NoC link load
//! with those counts, so a format change moves the analyzer with it.

use esp4ml_noc::{expected_planes, Coord, Mesh, MsgKind, Packet};
use std::collections::VecDeque;

/// Maximum data words per DMA data or store packet on the NoC. Long
/// bursts are split into multiple packets; wormhole routing keeps each
/// packet intact.
pub const MAX_DMA_PACKET_WORDS: usize = 128;

// Header words ahead of the data in each class's payload.
const LOAD_REQ: usize = 3; // [tile-local address, length, destination offset]
const P2P_REQ: usize = 2; // [length, destination offset]
const DATA: usize = 1; // [destination offset], then the data words
const STORE: usize = 2; // [tile-local address, length], then the data words
const ACK: usize = 1; // [length]

/// Flits of the one `DmaLoadReq` a contiguous burst sends.
pub const DMA_LOAD_REQ_FLITS: u64 = Packet::flits_for(LOAD_REQ) as u64;
/// Flits of the one `P2pLoadReq` a p2p consumer sends per frame.
pub const P2P_LOAD_REQ_FLITS: u64 = Packet::flits_for(P2P_REQ) as u64;

/// Flits of the `DmaData` packets delivering a `words`-word burst.
pub fn dma_data_flits(words: u64) -> u64 {
    words + packets(words) * Packet::flits_for(DATA) as u64
}

/// Flits of the `DmaStoreReq` packets writing a `words`-word burst.
pub fn dma_store_req_flits(words: u64) -> u64 {
    words + packets(words) * Packet::flits_for(STORE) as u64
}

/// Flits of the `DmaStoreAck`s a `words`-word burst earns, one per
/// store packet.
pub fn dma_store_ack_flits(words: u64) -> u64 {
    packets(words) * Packet::flits_for(ACK) as u64
}

/// Packets a `words`-word burst is cut into.
fn packets(words: u64) -> u64 {
    words.div_ceil(MAX_DMA_PACKET_WORDS as u64)
}

/// Injects packets from the front of `queue` into the mesh at `at` while
/// the local port has room, so packets leave in queue order.
pub(crate) fn inject_queued(mesh: &mut Mesh, at: Coord, queue: &mut VecDeque<Packet>) {
    while let Some(pkt) = queue.front() {
        if !mesh.can_inject(at, pkt.plane(), pkt.flit_len()) {
            break;
        }
        let pkt = queue.pop_front().expect("front packet");
        mesh.inject(pkt).expect("capacity checked");
    }
}

/// The endpoints of a DMA-plane message and the frame it serves. Each
/// method builds the packets of one message class.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Dma {
    src: Coord,
    dst: Coord,
    frame: Option<u64>,
}

impl Dma {
    pub(crate) fn new(src: Coord, dst: Coord, frame: Option<u64>) -> Dma {
        Dma { src, dst, frame }
    }

    /// The `DmaLoadReq` asking memory tile `dst` for `[tile-local
    /// address, length, destination offset in the requester's buffer]`.
    pub(crate) fn load_req(self, req: [u64; LOAD_REQ]) -> Packet {
        self.packet(MsgKind::DmaLoadReq, req, &[])
    }

    /// The `P2pLoadReq` asking producer `dst` for `[length, destination
    /// offset in the consumer's buffer]`.
    pub(crate) fn p2p_load_req(self, req: [u64; P2P_REQ]) -> Packet {
        self.packet(MsgKind::P2pLoadReq, req, &[])
    }

    /// `data` as `DmaData` packets of at most [`MAX_DMA_PACKET_WORDS`]
    /// words, each headed by its destination offset counted from `base`.
    pub(crate) fn data(self, base: u64, data: &[u64]) -> impl Iterator<Item = Packet> + '_ {
        data.chunks(MAX_DMA_PACKET_WORDS)
            .enumerate()
            .map(move |(k, chunk)| {
                let offset = base + (k * MAX_DMA_PACKET_WORDS) as u64;
                self.packet::<DATA>(MsgKind::DmaData, [offset], chunk)
            })
    }

    /// `data` as `DmaStoreReq` packets of at most
    /// [`MAX_DMA_PACKET_WORDS`] words, written from tile-local `addr` on.
    pub(crate) fn store(self, addr: u64, data: &[u64]) -> impl Iterator<Item = Packet> + '_ {
        data.chunks(MAX_DMA_PACKET_WORDS)
            .enumerate()
            .map(move |(k, chunk)| {
                let header = [addr + (k * MAX_DMA_PACKET_WORDS) as u64, chunk.len() as u64];
                self.packet::<STORE>(MsgKind::DmaStoreReq, header, chunk)
            })
    }

    /// The `DmaStoreAck` for a written `len`-word store packet.
    pub(crate) fn store_ack(self, len: u64) -> Packet {
        self.packet::<ACK>(MsgKind::DmaStoreAck, [len], &[])
    }

    /// `N` header words then `data`, as one `kind` packet on its plane.
    fn packet<const N: usize>(self, kind: MsgKind, header: [u64; N], data: &[u64]) -> Packet {
        let mut payload = Vec::with_capacity(N + data.len());
        payload.extend_from_slice(&header);
        payload.extend_from_slice(data);
        let plane = expected_planes(kind)[0];
        Packet::new(self.src, self.dst, plane, kind, payload).with_frame(self.frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flits<'a>(packets: impl IntoIterator<Item = &'a Packet>) -> u64 {
        packets.into_iter().map(|p| p.flit_len() as u64).sum()
    }

    /// The exported counts are what the constructors actually emit.
    #[test]
    fn exported_counts_match_the_constructors() {
        let (a, m) = (Coord::new(0, 0), Coord::new(1, 0));
        let (req, rsp) = (Dma::new(a, m, None), Dma::new(m, a, None));
        for words in [1u64, 127, 128, 129, 256, 1024] {
            let data = vec![7; words as usize];
            assert_eq!(flits([&req.load_req([0, words, 0])]), DMA_LOAD_REQ_FLITS);
            assert_eq!(flits([&req.p2p_load_req([words, 0])]), P2P_LOAD_REQ_FLITS);
            let replies: Vec<Packet> = rsp.data(0, &data).collect();
            assert_eq!(flits(&replies), dma_data_flits(words), "{words}");
            let stores: Vec<Packet> = req.store(0, &data).collect();
            assert_eq!(flits(&stores), dma_store_req_flits(words), "{words}");
            let acks: Vec<Packet> = stores
                .iter()
                .map(|s| rsp.store_ack(s.payload()[1]))
                .collect();
            assert_eq!(flits(&acks), dma_store_ack_flits(words), "{words}");
            let stored: u64 = stores.iter().map(|s| s.payload()[1]).sum();
            assert_eq!(stored, words);
        }
    }

    #[test]
    fn store_packets_advance_the_address_per_chunk() {
        let data: Vec<u64> = (0..300).collect();
        let dma = Dma::new(Coord::new(0, 0), Coord::new(1, 0), Some(3));
        let stores: Vec<Packet> = dma.store(40, &data).collect();
        let heads: Vec<(u64, u64)> = stores
            .iter()
            .map(|s| (s.payload()[0], s.payload()[1]))
            .collect();
        assert_eq!(heads, vec![(40, 128), (168, 128), (296, 44)]);
        assert_eq!(stores[2].payload()[2], 256);
        assert!(stores.iter().all(|s| s.frame() == Some(3)));
    }
}
