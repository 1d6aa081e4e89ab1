//! Protocol-level packets carried by the NoC.

use crate::{Coord, NocError, Plane};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The protocol message class a packet belongs to.
///
/// The NoC itself is payload-agnostic; the kind tag lets tile logic (DMA
/// engines, memory controllers, the p2p service) dispatch without decoding
/// the payload. These classes mirror the message types exchanged over the
/// ESP accelerator and memory sockets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum MsgKind {
    /// DMA load request: `payload = [tile-local address, length in words,
    /// destination offset within the requester's frame buffer]`.
    DmaLoadReq,
    /// DMA store request header: `payload[0..2] = [tile-local address,
    /// length]`, followed by the data words.
    DmaStoreReq,
    /// DMA response data: `payload[0]` is the destination offset within
    /// the requester's frame buffer, followed by the data words. The
    /// offset header lets bursts served by different memory tiles (or p2p
    /// producers) arrive in any order.
    DmaData,
    /// Acknowledgement that a DMA store has been drained by the receiver.
    DmaStoreAck,
    /// P2p load request: routed to a *producer accelerator tile* instead of a
    /// memory tile. `payload = [offset, length in words, consumer tag]`.
    P2pLoadReq,
    /// Memory-mapped register write: `payload = [register offset, value]`.
    RegWrite,
    /// Memory-mapped register read request: `payload = [register offset]`.
    RegReadReq,
    /// Memory-mapped register read response: `payload = [value]`.
    RegReadRsp,
    /// Interrupt request raised by an accelerator towards a processor tile.
    Irq,
    /// Cache-coherence protocol message (opaque at this level).
    Coherence,
}

impl fmt::Display for MsgKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MsgKind::DmaLoadReq => "dma-load-req",
            MsgKind::DmaStoreReq => "dma-store-req",
            MsgKind::DmaData => "dma-data",
            MsgKind::DmaStoreAck => "dma-store-ack",
            MsgKind::P2pLoadReq => "p2p-load-req",
            MsgKind::RegWrite => "reg-write",
            MsgKind::RegReadReq => "reg-read-req",
            MsgKind::RegReadRsp => "reg-read-rsp",
            MsgKind::Irq => "irq",
            MsgKind::Coherence => "coherence",
        };
        f.write_str(s)
    }
}

/// A protocol packet: the unit of injection and ejection at tile sockets.
///
/// On the wire a packet becomes a *head* flit (carrying source, destination
/// and kind) followed by one body flit per payload word, the last marked as
/// the *tail*. The packet length in flits is therefore
/// `1 + payload.len()`.
///
/// # Example
///
/// ```
/// use esp4ml_noc::{Packet, Plane, Coord, MsgKind};
/// let pkt = Packet::new(
///     Coord::new(0, 0),
///     Coord::new(1, 2),
///     Plane::DmaReq,
///     MsgKind::DmaLoadReq,
///     vec![0x1000, 64, 7],
/// );
/// assert_eq!(pkt.flit_len(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Packet {
    src: Coord,
    dest: Coord,
    plane: Plane,
    kind: MsgKind,
    payload: Vec<u64>,
    /// Cycle at which the packet was injected (filled by the mesh).
    pub(crate) inject_cycle: u64,
    /// Global frame id this packet services, when known (metadata only:
    /// carried alongside the header, never occupies payload words).
    #[serde(default)]
    frame: Option<u64>,
}

impl Packet {
    /// Creates a new packet.
    ///
    /// An empty payload is permitted for signalling messages such as
    /// [`MsgKind::Irq`]; such packets still occupy one (head/tail) flit.
    pub fn new(src: Coord, dest: Coord, plane: Plane, kind: MsgKind, payload: Vec<u64>) -> Self {
        Packet {
            src,
            dest,
            plane,
            kind,
            payload,
            inject_cycle: 0,
            frame: None,
        }
    }

    /// Tags the packet with the global frame id it services.
    pub fn with_frame(mut self, frame: Option<u64>) -> Self {
        self.frame = frame;
        self
    }

    /// Source tile coordinate.
    pub fn src(&self) -> Coord {
        self.src
    }

    /// Destination tile coordinate.
    pub fn dest(&self) -> Coord {
        self.dest
    }

    /// The plane this packet travels on.
    pub fn plane(&self) -> Plane {
        self.plane
    }

    /// The protocol message class.
    pub fn kind(&self) -> MsgKind {
        self.kind
    }

    /// Payload words.
    pub fn payload(&self) -> &[u64] {
        &self.payload
    }

    /// Consumes the packet and returns its payload words.
    pub fn into_payload(self) -> Vec<u64> {
        self.payload
    }

    /// Mutable payload access — only the fault-injection layer rewrites
    /// payloads (flit corruption); regular tile logic never does.
    pub(crate) fn payload_mut(&mut self) -> &mut [u64] {
        &mut self.payload
    }

    /// Length of the packet in flits (head + one flit per payload word;
    /// an empty payload still needs its single head/tail flit).
    pub fn flit_len(&self) -> usize {
        Packet::flits_for(self.payload.len())
    }

    /// Length in flits of any packet carrying `payload_words` words.
    pub const fn flits_for(payload_words: usize) -> usize {
        1 + payload_words
    }

    /// Cycle at which the packet entered the network (0 before injection).
    pub fn inject_cycle(&self) -> u64 {
        self.inject_cycle
    }

    /// Global frame id this packet services, if tagged.
    pub fn frame(&self) -> Option<u64> {
        self.frame
    }

    /// Validates the packet against a mesh of the given dimensions.
    pub(crate) fn validate(&self, cols: usize, rows: usize) -> Result<(), NocError> {
        for coord in [self.src, self.dest] {
            if coord.x as usize >= cols || coord.y as usize >= rows {
                return Err(NocError::OutOfBounds { coord, cols, rows });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Packet {
        Packet::new(
            Coord::new(0, 1),
            Coord::new(2, 0),
            Plane::DmaReq,
            MsgKind::DmaLoadReq,
            vec![10, 20],
        )
    }

    #[test]
    fn accessors() {
        let p = sample();
        assert_eq!(p.src(), Coord::new(0, 1));
        assert_eq!(p.dest(), Coord::new(2, 0));
        assert_eq!(p.plane(), Plane::DmaReq);
        assert_eq!(p.kind(), MsgKind::DmaLoadReq);
        assert_eq!(p.payload(), &[10, 20]);
        assert_eq!(p.flit_len(), 3);
    }

    #[test]
    fn empty_payload_is_one_flit() {
        let p = Packet::new(
            Coord::new(0, 0),
            Coord::new(1, 1),
            Plane::IoIrq,
            MsgKind::Irq,
            vec![],
        );
        assert_eq!(p.flit_len(), 1);
    }

    #[test]
    fn validate_bounds() {
        let p = sample();
        assert!(p.validate(3, 2).is_ok());
        assert!(matches!(
            p.validate(2, 2),
            Err(NocError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn into_payload_returns_words() {
        assert_eq!(sample().into_payload(), vec![10, 20]);
    }
}
