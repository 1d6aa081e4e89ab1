//! Flits: the flow-control units moved by routers each cycle.

use crate::{Coord, MsgKind, Packet, Plane};
use serde::{Deserialize, Serialize};

/// Position of a flit within its packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FlitKind {
    /// First flit; carries the routing header.
    Head,
    /// Interior payload flit.
    Body,
    /// Last flit; releases the wormhole path.
    Tail,
    /// Single-flit packet (head and tail at once).
    HeadTail,
}

impl FlitKind {
    /// Whether this flit opens a wormhole (head of a packet).
    pub fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::HeadTail)
    }

    /// Whether this flit closes a wormhole (tail of a packet).
    pub fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::HeadTail)
    }
}

/// A single flit in flight.
///
/// Every flit carries its full header in this model (destination, source,
/// message kind). Real hardware stores the header only in the head flit and
/// lets body flits follow the wormhole; carrying it everywhere simplifies
/// reassembly without changing timing, because body flits still follow the
/// path locked by their head.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Flit {
    /// Position within the packet.
    pub kind: FlitKind,
    /// Source tile.
    pub src: Coord,
    /// Destination tile.
    pub dest: Coord,
    /// Plane the flit travels on.
    pub plane: Plane,
    /// Protocol class of the carrying packet.
    pub msg: MsgKind,
    /// Payload word (0 for the head flit of a multi-flit packet).
    pub payload: u64,
    /// Cycle the carrying packet was injected (for latency accounting).
    pub inject_cycle: u64,
    /// Global frame id of the carrying packet, if tagged.
    pub frame: Option<u64>,
}

impl Flit {
    /// Serializes a packet into its wire flits.
    pub fn from_packet(pkt: &Packet) -> Vec<Flit> {
        let n = pkt.payload().len();
        let mut flits = Vec::with_capacity(n + 1);
        let mk = |kind: FlitKind, payload: u64| Flit {
            kind,
            src: pkt.src(),
            dest: pkt.dest(),
            plane: pkt.plane(),
            msg: pkt.kind(),
            payload,
            inject_cycle: pkt.inject_cycle(),
            frame: pkt.frame(),
        };
        if n == 0 {
            flits.push(mk(FlitKind::HeadTail, 0));
            return flits;
        }
        flits.push(mk(FlitKind::Head, 0));
        for (i, &w) in pkt.payload().iter().enumerate() {
            let kind = if i + 1 == n {
                FlitKind::Tail
            } else {
                FlitKind::Body
            };
            flits.push(mk(kind, w));
        }
        flits
    }
}

/// Wormhole-invariant violations observable at an ejection port.
///
/// Routers hold a per-output lock from head to tail, so flits of two
/// packets can never interleave on one (plane, path). If one of these
/// fires, arbitration (or a fault) broke the wormhole discipline. The
/// mesh turns them into `debug_assert!`s on plain runs and into `E0403`
/// diagnostics when the sanitizer is enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReasmViolation {
    /// A head flit arrived while another packet was still reassembling.
    HeadInterleaved,
    /// A body or tail flit arrived with no packet under reassembly.
    StrayFlit,
}

/// Incremental packet reassembler used at ejection ports.
///
/// Flits of a given packet arrive in order on a given plane (wormhole
/// routing guarantees no interleaving between packets on the same plane and
/// path), so reassembly is a simple accumulation until the tail flit.
#[derive(Debug, Default, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Reassembler {
    /// The packet under reassembly: head flit plus the payload words
    /// accumulated so far.
    current: Option<(Flit, Vec<u64>)>,
}

impl Reassembler {
    /// Feeds one flit; returns a completed packet when the tail arrives,
    /// plus any wormhole violation the flit exposed. On violation the
    /// reassembler keeps the pre-existing recovery behaviour (an
    /// interleaving head restarts reassembly; a stray flit is dropped).
    pub(crate) fn push(&mut self, flit: Flit) -> (Option<Packet>, Option<ReasmViolation>) {
        let mut violation = None;
        if flit.kind.is_head() {
            if self.current.is_some() {
                violation = Some(ReasmViolation::HeadInterleaved);
            }
            self.current = Some((flit.clone(), Vec::new()));
        } else if self.current.is_none() {
            violation = Some(ReasmViolation::StrayFlit);
        }
        let finish = flit.kind.is_tail();
        if let Some((_, words)) = self.current.as_mut() {
            if !flit.kind.is_head() {
                words.push(flit.payload);
            }
            if finish {
                let (head, words) = self.current.take().expect("current packet");
                let mut pkt = Packet::new(head.src, head.dest, head.plane, head.msg, words)
                    .with_frame(head.frame);
                pkt.inject_cycle = head.inject_cycle;
                return (Some(pkt), violation);
            }
        }
        (None, violation)
    }

    /// Flits absorbed into the partial packet under reassembly (0 when
    /// between packets) — the reassembler's share of in-flight flits for
    /// the conservation audit.
    pub(crate) fn pending_flits(&self) -> usize {
        self.current
            .as_ref()
            .map(|(_, words)| 1 + words.len())
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(words: Vec<u64>) -> Packet {
        Packet::new(
            Coord::new(0, 0),
            Coord::new(1, 1),
            Plane::DmaRsp,
            MsgKind::DmaData,
            words,
        )
    }

    #[test]
    fn serialize_multi_flit() {
        let flits = Flit::from_packet(&pkt(vec![7, 8, 9]));
        assert_eq!(flits.len(), 4);
        assert_eq!(flits[0].kind, FlitKind::Head);
        assert_eq!(flits[1].kind, FlitKind::Body);
        assert_eq!(flits[2].kind, FlitKind::Body);
        assert_eq!(flits[3].kind, FlitKind::Tail);
        assert_eq!(flits[3].payload, 9);
    }

    #[test]
    fn serialize_empty_packet() {
        let flits = Flit::from_packet(&pkt(vec![]));
        assert_eq!(flits.len(), 1);
        assert_eq!(flits[0].kind, FlitKind::HeadTail);
        assert!(flits[0].kind.is_head() && flits[0].kind.is_tail());
    }

    #[test]
    fn reassemble_roundtrip() {
        let original = pkt(vec![1, 2, 3, 4]);
        let mut r = Reassembler::default();
        let mut out = None;
        for f in Flit::from_packet(&original) {
            let (p, v) = r.push(f);
            assert_eq!(v, None);
            if let Some(p) = p {
                out = Some(p);
            }
        }
        assert_eq!(out.expect("complete"), original);
        assert_eq!(r.pending_flits(), 0);
    }

    #[test]
    fn frame_tag_survives_flit_round_trip() {
        let original = pkt(vec![1, 2]).with_frame(Some(9));
        let mut r = Reassembler::default();
        let mut out = None;
        for f in Flit::from_packet(&original) {
            assert_eq!(f.frame, Some(9));
            if let (Some(p), _) = r.push(f) {
                out = Some(p);
            }
        }
        assert_eq!(out.expect("complete").frame(), Some(9));
    }

    #[test]
    fn reassemble_single_flit() {
        let original = pkt(vec![]);
        let mut r = Reassembler::default();
        let flits = Flit::from_packet(&original);
        let (out, v) = r.push(flits[0].clone());
        assert_eq!(v, None);
        assert_eq!(out.expect("complete"), original);
    }

    #[test]
    fn reassemble_back_to_back_packets() {
        let a = pkt(vec![1]);
        let b = pkt(vec![2, 3]);
        let mut r = Reassembler::default();
        let mut done = Vec::new();
        for f in Flit::from_packet(&a)
            .into_iter()
            .chain(Flit::from_packet(&b))
        {
            let (p, v) = r.push(f);
            assert_eq!(v, None);
            if let Some(p) = p {
                done.push(p);
            }
        }
        assert_eq!(done, vec![a, b]);
    }

    #[test]
    fn interleaved_head_is_flagged_and_restarts() {
        let a = pkt(vec![1, 2]);
        let b = pkt(vec![3]);
        let mut r = Reassembler::default();
        let a_flits = Flit::from_packet(&a);
        assert_eq!(r.push(a_flits[0].clone()), (None, None));
        assert_eq!(r.pending_flits(), 1);
        // A second head before a's tail: interleaving violation, and the
        // reassembler restarts on the new packet.
        let b_flits = Flit::from_packet(&b);
        let (p, v) = r.push(b_flits[0].clone());
        assert_eq!(p, None);
        assert_eq!(v, Some(ReasmViolation::HeadInterleaved));
        let (p, v) = r.push(b_flits[1].clone());
        assert_eq!(v, None);
        assert_eq!(p.expect("b completes"), b);
    }

    #[test]
    fn stray_flit_is_flagged_and_dropped() {
        let a = pkt(vec![1, 2]);
        let mut r = Reassembler::default();
        let tail = Flit::from_packet(&a).pop().expect("tail");
        assert_eq!(r.push(tail), (None, Some(ReasmViolation::StrayFlit)));
        assert_eq!(r.pending_flits(), 0);
    }
}
