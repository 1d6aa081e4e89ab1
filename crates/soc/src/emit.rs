//! The tiles' one packet-emission path: in-order injection from an
//! outgoing queue, and offset-tagged chunking of DMA data replies.

use esp4ml_noc::{Coord, Mesh, MsgKind, Packet, Plane};
use std::collections::VecDeque;

/// Maximum payload words per DMA data packet on the NoC. Long bursts are
/// split into multiple packets; wormhole routing keeps each packet intact.
pub(crate) const MAX_DMA_PACKET_WORDS: usize = 128;

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

/// Splits `data` into `DmaData` packets from `src` to `dst` carrying at
/// most [`MAX_DMA_PACKET_WORDS`] words each. Every payload starts with
/// its chunk's destination offset, counted from `base`.
pub(crate) fn dma_data_packets(
    src: Coord,
    dst: Coord,
    base: u64,
    data: &[u64],
    frame: Option<u64>,
) -> impl Iterator<Item = Packet> + '_ {
    data.chunks(MAX_DMA_PACKET_WORDS)
        .enumerate()
        .map(move |(k, chunk)| {
            let mut payload = Vec::with_capacity(chunk.len() + 1);
            payload.push(base + (k * MAX_DMA_PACKET_WORDS) as u64);
            payload.extend_from_slice(chunk);
            Packet::new(src, dst, Plane::DmaRsp, MsgKind::DmaData, payload).with_frame(frame)
        })
}
