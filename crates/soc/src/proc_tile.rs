//! The processor tile: the hardware seat of the software runtime.

use crate::emit::inject_queued;
use esp4ml_noc::{Coord, Mesh, MsgKind, Packet, Plane, NEVER};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// The processor tile (an Ariane RISC-V core in the paper's SoCs).
///
/// The simulator does not model instruction execution; the tile's
/// observable behaviour — issuing memory-mapped register writes over the
/// I/O plane and fielding accelerator interrupts — is what the runtime
/// crate drives, and what this type implements.
///
/// The whole tile is machine state: a snapshot clones it, and restore
/// checks that the coordinate matches before replacing the queues.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcTile {
    coord: Coord,
    /// Register writes waiting to inject into the NoC.
    outgoing: VecDeque<Packet>,
    /// Interrupts delivered but not yet taken by the runtime, in arrival
    /// order.
    irqs: VecDeque<Coord>,
}

impl ProcTile {
    /// Creates a processor tile at `coord`.
    pub fn new(coord: Coord) -> Self {
        ProcTile {
            coord,
            outgoing: VecDeque::new(),
            irqs: VecDeque::new(),
        }
    }

    /// The tile coordinate.
    pub fn coord(&self) -> Coord {
        self.coord
    }

    /// Queues a register write to `tile` (one `ioctl`-path store).
    pub fn queue_reg_write(&mut self, tile: Coord, offset: u64, value: u64) {
        self.outgoing.push_back(Packet::new(
            self.coord,
            tile,
            Plane::IoIrq,
            MsgKind::RegWrite,
            vec![offset, value],
        ));
    }

    /// Takes all interrupts received so far (the coordinates of the raising
    /// accelerator tiles), in arrival order.
    pub fn take_irqs(&mut self) -> Vec<Coord> {
        self.irqs.drain(..).collect()
    }

    /// Whether register writes are still in flight from this tile.
    pub fn is_idle(&self) -> bool {
        self.outgoing.is_empty()
    }

    /// Drains interrupt packets delivered to this tile's socket.
    pub fn drain_irqs(&mut self, mesh: &mut Mesh) {
        while let Some(pkt) = mesh.eject(self.coord, Plane::IoIrq) {
            if pkt.kind() == MsgKind::Irq {
                self.irqs.push_back(Coord::from_reg(pkt.payload()[0]));
            }
        }
    }

    /// Advances the tile by one cycle.
    pub fn tick(&mut self, mesh: &mut Mesh) {
        self.drain_irqs(mesh);
        inject_queued(mesh, self.coord, &mut self.outgoing);
    }

    /// Event-driven wake cycle: `now` while register writes wait to
    /// inject or delivered interrupts wait to be taken by the runtime,
    /// otherwise [`NEVER`]. A pending IRQ is software-visible state — the
    /// runtime polls it between steps and reacts by issuing new work, so
    /// the scheduler must not fast-forward past it (the all-idle deadlock
    /// skip would eat the whole cycle budget before the runtime ever saw
    /// the interrupt).
    pub fn wake(&self, now: u64) -> u64 {
        if self.outgoing.is_empty() && self.irqs.is_empty() {
            NEVER
        } else {
            now
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp4ml_noc::MeshConfig;

    #[test]
    fn reg_writes_travel_the_io_plane() {
        let mut mesh = Mesh::new(MeshConfig::new(2, 1)).unwrap();
        let mut proc = ProcTile::new(Coord::new(0, 0));
        proc.queue_reg_write(Coord::new(1, 0), 2, 99);
        for _ in 0..20 {
            proc.tick(&mut mesh);
            mesh.tick();
        }
        let pkt = mesh.eject(Coord::new(1, 0), Plane::IoIrq).expect("write");
        assert_eq!(pkt.kind(), MsgKind::RegWrite);
        assert_eq!(pkt.payload(), &[2, 99]);
        assert!(proc.is_idle());
    }

    #[test]
    fn collects_irqs() {
        let mut mesh = Mesh::new(MeshConfig::new(2, 1)).unwrap();
        let mut proc = ProcTile::new(Coord::new(0, 0));
        let accel = Coord::new(1, 0);
        mesh.inject(Packet::new(
            accel,
            Coord::new(0, 0),
            Plane::IoIrq,
            MsgKind::Irq,
            vec![accel.to_reg()],
        ))
        .unwrap();
        for _ in 0..20 {
            proc.tick(&mut mesh);
            mesh.tick();
        }
        assert_eq!(proc.take_irqs(), vec![accel]);
        assert!(proc.take_irqs().is_empty());
    }
}
