//! The NoC-level invariant sanitizer.
//!
//! When installed on a [`crate::Mesh`], the sanitizer shadows the flow
//! control state of the network and audits conservation invariants after
//! every tick and at every fast-forward boundary — in release builds
//! too, unlike the `debug_assert!`s it subsumes:
//!
//! * **Credit conservation** (`E0401`) — a shadow occupancy counter per
//!   `(router, plane, input port)`, maintained from the same push/pop
//!   events the routers see, must always equal the real queue length.
//! * **Flit conservation** (`E0402`) — per plane, flits injected must
//!   equal flits delivered plus flits in flight (injection queues,
//!   router queues, partial reassemblies).
//! * **Wormhole non-interleaving** (`E0403`) — packets must never
//!   interleave at an ejection port.
//! * **Plane assignment** (`E0303`) — every message kind has a canonical
//!   plane set; riding another plane breaks the protocol-deadlock
//!   avoidance argument of the six-plane NoC.
//!
//! Verdicts are *deduplicated and order-normalized*: a violation that
//! persists for a thousand cycles is one diagnostic, so the naive engine
//! (which audits every cycle) and the event-driven engine (which audits
//! at tick and fast-forward boundaries) produce byte-identical reports.
//!
//! The `fault_*` hooks on [`crate::Mesh`] deliberately corrupt the
//! shadow state so tests can prove the audits actually fire.

use crate::router::Port;
use crate::{MsgKind, Plane};
use esp4ml_check::{Diagnostic, Report};
use std::collections::BTreeSet;

/// The canonical planes for a message kind, per the ESP plane layout:
/// DMA descriptors and p2p load requests ride the request plane, data
/// and store acknowledgements ride the response plane, register access
/// and interrupts ride the I/O plane, and coherence traffic may use any
/// of the three coherence planes.
pub fn expected_planes(kind: MsgKind) -> &'static [Plane] {
    match kind {
        MsgKind::DmaLoadReq | MsgKind::DmaStoreReq | MsgKind::P2pLoadReq => &[Plane::DmaReq],
        MsgKind::DmaData | MsgKind::DmaStoreAck => &[Plane::DmaRsp],
        MsgKind::RegWrite | MsgKind::RegReadReq | MsgKind::RegReadRsp | MsgKind::Irq => {
            &[Plane::IoIrq]
        }
        MsgKind::Coherence => &[Plane::CohReq, Plane::CohFwd, Plane::CohRsp],
    }
}

/// Whether `plane` legitimately carries messages of `kind`.
pub fn plane_carries(plane: Plane, kind: MsgKind) -> bool {
    expected_planes(kind).contains(&plane)
}

/// Shadow state and accumulated verdicts of the mesh sanitizer. Part of
/// [`MeshState`](crate::MeshState): a snapshot clones the whole ledger,
/// so post-restore audits see the same history.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub(crate) struct MeshSanitizer {
    violations: BTreeSet<Diagnostic>,
    /// Flits injected per plane (source side of the conservation law).
    pub(crate) injected: [u64; Plane::COUNT],
    /// Flits of completed packets delivered per plane.
    pub(crate) delivered: [u64; Plane::COUNT],
    /// Shadow input-queue occupancy: `[router][plane][port]`.
    shadow: Vec<[[u64; Port::COUNT]; Plane::COUNT]>,
}

impl MeshSanitizer {
    pub(crate) fn new(routers: usize) -> Self {
        MeshSanitizer {
            violations: BTreeSet::new(),
            injected: [0; Plane::COUNT],
            delivered: [0; Plane::COUNT],
            shadow: vec![[[0; Port::COUNT]; Plane::COUNT]; routers],
        }
    }

    pub(crate) fn record(&mut self, diag: Diagnostic) {
        self.violations.insert(diag);
    }

    /// The verdict so far, sorted and deduplicated.
    pub(crate) fn report(&self) -> Report {
        let mut report = Report::new();
        for d in &self.violations {
            report.push(d.clone());
        }
        report
    }

    pub(crate) fn observe_push(&mut self, router: usize, plane: Plane, port: Port) {
        self.shadow[router][plane.index()][port.index()] += 1;
    }

    pub(crate) fn observe_pop(&mut self, router: usize, plane: Plane, port: Port) {
        let slot = &mut self.shadow[router][plane.index()][port.index()];
        *slot = slot.saturating_sub(1);
    }

    pub(crate) fn shadow_occupancy(&self, router: usize, plane: Plane, port: Port) -> u64 {
        self.shadow[router][plane.index()][port.index()]
    }

    /// Fault hook: pretend a credit was lost on one link (the shadow
    /// believes a slot is occupied that the router has freed).
    pub(crate) fn fault_leak_credit(&mut self, router: usize, plane: Plane, port: Port) {
        self.shadow[router][plane.index()][port.index()] += 1;
    }

    /// Fault hook: count a flit that was never really injected.
    pub(crate) fn fault_phantom_flit(&mut self, plane: Plane) {
        self.injected[plane.index()] += 1;
    }
}
