//! Multi-plane 2D-mesh network-on-chip (NoC) simulator.
//!
//! This crate reproduces the interconnect substrate of the ESP platform as
//! used by the ESP4ML design flow (Giri et al., DATE 2020). ESP connects all
//! tiles of an SoC through a packet-switched 2D-mesh NoC with **six
//! decoupled physical planes**. Two full planes are allotted to accelerator
//! DMA traffic (one for requests, one for responses) so that long DMA bursts
//! never deadlock against each other — and, crucially for ESP4ML, so that
//! otherwise-unused queues can be *reused* to implement point-to-point (p2p)
//! transfers between accelerators without adding any links, routers or
//! queues.
//!
//! The simulator is cycle-level: routers implement dimension-order (XY)
//! wormhole routing with on/off (credit-equivalent) flow control, and every
//! flit movement takes one cycle per hop. The model is small enough to
//! simulate millions of cycles per second yet detailed enough to expose the
//! contention and traffic-shaping effects the paper measures (Fig. 7/8).
//!
//! # Example
//!
//! ```
//! use esp4ml_noc::{Mesh, MeshConfig, Packet, Plane, Coord, MsgKind};
//!
//! # fn main() -> Result<(), esp4ml_noc::NocError> {
//! let mut mesh = Mesh::new(MeshConfig::new(3, 3))?;
//! let src = Coord::new(0, 0);
//! let dst = Coord::new(2, 2);
//! let pkt = Packet::new(src, dst, Plane::DmaRsp, MsgKind::DmaData, vec![1, 2, 3]);
//! mesh.inject(pkt)?;
//! while mesh.peek(dst, Plane::DmaRsp).is_none() {
//!     mesh.tick();
//! }
//! let got = mesh.eject(dst, Plane::DmaRsp).expect("delivered");
//! assert_eq!(got.payload(), &[1, 2, 3]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coord;
mod error;
mod flit;
mod heatmap;
mod mesh;
mod packet;
mod plane;
mod router;
mod sanitizer;
mod schedule;
mod stats;

pub use coord::Coord;
pub use error::NocError;
pub use flit::{Flit, FlitKind};
pub use heatmap::{LinkLoad, NocHeatmap, PlaneHeatmap};
pub use mesh::{Mesh, MeshConfig, MeshState, LINK_CAPACITY_FLITS_PER_CYCLE};
pub use packet::{MsgKind, Packet};
pub use plane::Plane;
pub use router::{Port, Router, RouterConfig, RouterState};
pub use sanitizer::{expected_planes, plane_carries};
pub use schedule::NEVER;
pub use stats::{NocStats, PlaneStats};
