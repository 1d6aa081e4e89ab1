//! The 2D-mesh NoC: routers, links, injection/ejection interfaces.

use crate::flit::{Flit, ReasmViolation, Reassembler};
use crate::heatmap::{LinkLoad, NocHeatmap, PlaneHeatmap};
use crate::router::{xy_port, Port, Router, RouterConfig, RouterState, Transfer};
use crate::sanitizer::{expected_planes, plane_carries, MeshSanitizer};
use crate::schedule::NEVER;
use crate::{Coord, MsgKind, NocError, NocStats, Packet, Plane};
use esp4ml_check::{codes, Diagnostic, Report};
use esp4ml_fault::{FaultKind, FaultSpec};
use esp4ml_trace::{TileCoord, TraceEvent, Tracer};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Converts a NoC coordinate into its trace-event counterpart.
fn trace_coord(c: Coord) -> TileCoord {
    TileCoord::new(c.x, c.y)
}

/// Capacity of one directed physical link on one plane: every link
/// moves at most one flit per cycle, so a plane's per-link bandwidth in
/// flits/s is exactly the clock frequency. Static feasibility analyses
/// (espcheck `--deployment`) compare summed demand against
/// `clock_hz * LINK_CAPACITY_FLITS_PER_CYCLE`.
pub const LINK_CAPACITY_FLITS_PER_CYCLE: u64 = 1;

/// Configuration of a mesh NoC instance.
///
/// The defaults match the ESP NoC as instantiated by the ESP4ML flow:
/// six planes, shallow 4-flit router queues, and modest per-tile
/// injection/ejection buffering provided by the tile sockets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MeshConfig {
    /// Number of columns.
    pub cols: usize,
    /// Number of rows.
    pub rows: usize,
    /// Per-router configuration.
    pub router: RouterConfig,
    /// Capacity, in flits, of each per-tile per-plane injection queue.
    pub inject_queue_depth: usize,
    /// Capacity, in completed packets, of each per-tile per-plane ejection
    /// queue. When full, the NoC back-pressures into the mesh — this is how
    /// the simulator exposes "consumption assumption" violations.
    pub eject_queue_depth: usize,
}

impl MeshConfig {
    /// Creates a configuration for a `cols x rows` mesh with default queue
    /// depths.
    pub fn new(cols: usize, rows: usize) -> Self {
        MeshConfig {
            cols,
            rows,
            router: RouterConfig::default(),
            // The tile socket stages whole DMA packets (up to ~128 payload
            // words plus headers) before injection, so the per-plane
            // injection buffer must hold at least one maximal packet.
            inject_queue_depth: 512,
            eject_queue_depth: 16,
        }
    }
}

/// Per-tile, per-plane socket-side state: the injection FIFO,
/// ejected-but-unread packets and any partial reassembly.
#[derive(Debug, Default, Clone, PartialEq, Serialize, Deserialize)]
struct TileEndpoint {
    inject: VecDeque<Flit>,
    eject: VecDeque<Packet>,
    reasm: Reassembler,
}

/// A packet held back by a [`FaultKind::NocDelay`] before entering the
/// network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct DelayedPacket {
    tile: usize,
    plane: Plane,
    flits: Vec<Flit>,
    release: u64,
}

/// The mesh-side state of an installed fault plan: armed specs *plus*
/// their trigger counters and any packets currently held back. A
/// snapshot clones it whole, so a restored run fires the same faults at
/// the same architectural events as an uninterrupted run. Allocated
/// only when NoC faults are armed — fault-free runs never touch it.
#[derive(Debug, Default, Clone, PartialEq, Serialize, Deserialize)]
struct MeshFaults {
    /// The plan's NoC specs, in installation order.
    specs: Vec<FaultSpec>,
    /// Packets injected per plane since installation (delay trigger).
    inject_seen: [u64; Plane::COUNT],
    /// Data-bearing packets delivered per plane (corruption trigger).
    data_ejected: [u64; Plane::COUNT],
    /// Packets held back by link degradation, in injection order.
    delayed: VecDeque<DelayedPacket>,
    /// Total fault firings so far.
    fired: u64,
}

/// Complete serializable dynamic state of a [`Mesh`]: every in-flight
/// flit, router queue, endpoint buffer, statistic (the clock included:
/// it is `stats.cycles`), sanitizer ledger and fault trigger counter,
/// each a clone of the live component. Captured by [`Mesh::state`];
/// restoring it via [`Mesh::restore_state`] resumes the network
/// byte-identically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeshState {
    /// Aggregate per-plane statistics; `stats.cycles` is the mesh clock.
    pub stats: NocStats,
    /// Per-router machine state, in dense tile order.
    pub routers: Vec<RouterState>,
    /// Per-tile, per-plane endpoint state.
    endpoints: Vec<Vec<TileEndpoint>>,
    /// Sanitizer ledger, when a sanitizer is installed.
    sanitizer: Option<Box<MeshSanitizer>>,
    /// Fault-plan state, when NoC faults are armed.
    faults: Option<Box<MeshFaults>>,
}

/// Whether a delivered packet carries corruptible data words in its
/// payload tail. Header/control words are never corrupted — NoC headers
/// are ECC-protected in real fabrics, and corrupting an address or
/// length would crash the simulator instead of modelling silent data
/// corruption.
fn corruptible(pkt: &Packet) -> bool {
    match pkt.kind() {
        MsgKind::DmaData => pkt.payload().len() >= 2,
        MsgKind::DmaStoreReq => pkt.payload().len() >= 3,
        _ => false,
    }
}

/// A cycle-level 2D-mesh NoC.
///
/// Tiles interact with the mesh through [`Mesh::inject`] / [`Mesh::eject`]
/// at their coordinate; [`Mesh::tick`] advances all routers by one cycle.
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug)]
pub struct Mesh {
    config: MeshConfig,
    routers: Vec<Router>,
    endpoints: Vec<Vec<TileEndpoint>>, // [tile][plane]
    /// Per-plane statistics; `stats.cycles` is the mesh clock.
    stats: NocStats,
    tracer: Tracer,
    sanitizer: Option<Box<MeshSanitizer>>,
    faults: Option<Box<MeshFaults>>,
    /// Occupancy counts — derived state, kept at every queue push and pop,
    /// recomputed by [`Mesh::restore_state`] and never serialized.
    occupancy: Occupancy,
    /// Per-tick scratch buffers, owned so a tick allocates nothing.
    scratch: TickScratch,
    /// Lone-stream jump buffers, owned so a jump allocates nothing.
    stream: StreamScratch,
}

/// Cached flit and packet counts that let [`Mesh::tick`] and the idle
/// checks skip empty tiles instead of scanning every queue.
#[derive(Debug, PartialEq)]
struct Occupancy {
    /// Flits waiting in each tile's injection queues (all planes).
    inject: Vec<usize>,
    /// Sum of `inject`.
    inject_total: usize,
    /// Flits queued in router input queues, mesh-wide.
    routed: usize,
    /// Delivered packets not yet taken by their tiles, mesh-wide.
    undelivered: usize,
}

impl Occupancy {
    fn new(tiles: usize) -> Self {
        Occupancy {
            inject: vec![0; tiles],
            inject_total: 0,
            routed: 0,
            undelivered: 0,
        }
    }

    /// Counts every queue from scratch.
    fn recount(routers: &[Router], endpoints: &[Vec<TileEndpoint>]) -> Self {
        let inject: Vec<usize> = endpoints
            .iter()
            .map(|planes| planes.iter().map(|ep| ep.inject.len()).sum())
            .collect();
        Occupancy {
            inject_total: inject.iter().sum(),
            inject,
            routed: routers.iter().map(Router::queued).sum(),
            undelivered: endpoints
                .iter()
                .map(|planes| planes.iter().map(|ep| ep.eject.len()).sum::<usize>())
                .sum(),
        }
    }

    fn add_inject(&mut self, tile: usize, flits: usize) {
        self.inject[tile] += flits;
        self.inject_total += flits;
    }
}

/// Buffers one tick fills and drains; kept across ticks for their
/// capacity only.
#[derive(Debug, Default)]
struct TickScratch {
    /// Routers holding flits after injection, in tile order, each with
    /// the end of its run in `transfers`.
    active: Vec<(usize, usize)>,
    /// Downstream free slots per active router: `[tile][plane][out port]`.
    /// Only the entries of planes that hold flits are written in a tick,
    /// and only those are read.
    free: Vec<[[usize; Port::COUNT]; Plane::COUNT]>,
    /// The transfers selected this tick, grouped by router.
    transfers: Vec<Transfer>,
}

/// One router on a lone stream's XY path: its tile, the input port the
/// stream enters by and the output it leaves by.
#[derive(Debug, Clone, Copy)]
struct Hop {
    tile: usize,
    inp: Port,
    out: Port,
}

/// Buffers a lone-stream jump fills and drains; kept across jumps for
/// their capacity only.
#[derive(Debug, Default)]
struct StreamScratch {
    /// The stream's path, source router first, destination router last;
    /// a flit at path position `k` waits in `path[k]`'s input `inp`.
    path: Vec<Hop>,
    /// The flits a jump moves with their path positions, furthest along
    /// (earliest in the stream) first. The `i`-th flit of the injection
    /// queue sits at position `-i`.
    lane: Vec<(i64, Flit)>,
}

impl Mesh {
    /// Builds a mesh from a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::InvalidDimensions`] when either dimension is zero
    /// or exceeds 256 (the 8-bit coordinate space).
    pub fn new(config: MeshConfig) -> Result<Self, NocError> {
        let (cols, rows) = (config.cols, config.rows);
        if cols == 0 || rows == 0 || cols > 256 || rows > 256 {
            return Err(NocError::InvalidDimensions { cols, rows });
        }
        let mut routers = Vec::with_capacity(cols * rows);
        let mut endpoints = Vec::with_capacity(cols * rows);
        for y in 0..rows {
            for x in 0..cols {
                routers.push(Router::new(Coord::new(x as u8, y as u8), config.router));
                endpoints.push((0..Plane::COUNT).map(|_| TileEndpoint::default()).collect());
            }
        }
        Ok(Mesh {
            config,
            routers,
            endpoints,
            stats: NocStats::new(),
            tracer: Tracer::disabled(),
            sanitizer: None,
            faults: None,
            occupancy: Occupancy::new(cols * rows),
            scratch: TickScratch {
                free: vec![[[0; Port::COUNT]; Plane::COUNT]; cols * rows],
                ..TickScratch::default()
            },
            stream: StreamScratch::default(),
        })
    }

    /// Installs one NoC fault from a fault plan. Returns `false` (and
    /// installs nothing) for non-NoC fault kinds, so callers can route a
    /// mixed plan through every component.
    ///
    /// # Panics
    ///
    /// Panics if the spec names a plane index outside the mesh's planes.
    pub fn install_fault(&mut self, spec: &FaultSpec) -> bool {
        match spec.kind {
            FaultKind::NocDelay { plane, .. } | FaultKind::NocCorrupt { plane, .. } => {
                assert!(plane < Plane::COUNT, "plane index {plane} out of range");
                let f = self.faults.get_or_insert_with(Default::default);
                f.specs.push(spec.clone());
                true
            }
            _ => false,
        }
    }

    /// How many NoC faults have fired so far (0 when no plan installed).
    pub fn faults_fired(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.fired)
    }

    /// Installs the invariant sanitizer. From now on, every tick and
    /// every fast-forward boundary audits credit conservation
    /// (`E0401`), flit conservation (`E0402`), wormhole
    /// non-interleaving (`E0403`) and plane assignment (`E0303`);
    /// violations accumulate deduplicated in
    /// [`Mesh::sanitizer_report`]. The audits also fire in release
    /// builds — this is the opt-in replacement for the `debug_assert!`s
    /// guarding the same invariants on plain runs.
    pub fn enable_sanitizer(&mut self) {
        self.sanitizer = Some(Box::new(MeshSanitizer::new(self.routers.len())));
    }

    /// Whether a sanitizer is installed.
    pub fn sanitizer_enabled(&self) -> bool {
        self.sanitizer.is_some()
    }

    /// Captures the complete dynamic state of the mesh — every router
    /// queue, wormhole lock, endpoint buffer, in-flight or held-back
    /// flit, statistic, sanitizer ledger and fault trigger counter. The
    /// tracer is *not* captured: it is a live host-side handle, and
    /// trace events already emitted belong to the past of the run being
    /// captured.
    pub fn state(&self) -> MeshState {
        MeshState {
            stats: self.stats.clone(),
            routers: self.routers.iter().map(|r| r.state().clone()).collect(),
            endpoints: self.endpoints.clone(),
            sanitizer: self.sanitizer.clone(),
            faults: self.faults.clone(),
        }
    }

    /// Restores dynamic state captured by [`Mesh::state`].
    ///
    /// The structural configuration (dimensions, queue depths) is kept;
    /// sanitizer and fault-plan state are *replaced* wholesale —
    /// restoring a fault-free snapshot onto a mesh with an installed plan
    /// uninstalls that plan.
    ///
    /// # Panics
    ///
    /// Panics when the state's router/endpoint shape does not match
    /// this mesh (the caller validates structural compatibility first).
    pub fn restore_state(&mut self, state: &MeshState) {
        assert_eq!(state.routers.len(), self.routers.len(), "router count");
        assert!(
            state.endpoints.len() == self.endpoints.len()
                && state
                    .endpoints
                    .iter()
                    .all(|planes| planes.len() == Plane::COUNT),
            "endpoint shape"
        );
        self.stats.clone_from(&state.stats);
        for (r, rs) in self.routers.iter_mut().zip(&state.routers) {
            r.restore_state(rs);
        }
        self.endpoints.clone_from(&state.endpoints);
        self.occupancy = Occupancy::recount(&self.routers, &self.endpoints);
        self.sanitizer.clone_from(&state.sanitizer);
        self.faults.clone_from(&state.faults);
    }

    /// The sanitizer verdict so far: `None` when no sanitizer is
    /// installed, otherwise the sorted, deduplicated violation report
    /// (empty report = all invariants held).
    pub fn sanitizer_report(&self) -> Option<Report> {
        self.sanitizer.as_ref().map(|s| s.report())
    }

    /// Fault injection for sanitizer tests: leak one credit on the
    /// input link `(coord, plane, port)`, as a flow-control bug would.
    /// The next audit must flag `E0401` on that link.
    ///
    /// # Panics
    ///
    /// Panics if no sanitizer is installed or `coord` is out of bounds.
    pub fn fault_leak_credit(&mut self, coord: Coord, plane: Plane, port: Port) {
        let i = self.checked_index(coord);
        self.sanitizer
            .as_deref_mut()
            .expect("sanitizer installed")
            .fault_leak_credit(i, plane, port);
    }

    /// Fault injection for sanitizer tests: account a flit that was
    /// never injected. The next audit must flag `E0402` on `plane`.
    ///
    /// # Panics
    ///
    /// Panics if no sanitizer is installed.
    pub fn fault_phantom_flit(&mut self, plane: Plane) {
        self.sanitizer
            .as_deref_mut()
            .expect("sanitizer installed")
            .fault_phantom_flit(plane);
    }

    /// The mesh configuration.
    pub fn config(&self) -> &MeshConfig {
        &self.config
    }

    /// Installs a tracer; packet inject/eject events are emitted through
    /// it from now on. The default tracer is disabled (zero overhead
    /// beyond one branch per event site).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The tracer currently installed.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Current simulation cycle (`stats().cycles`).
    pub fn cycle(&self) -> u64 {
        self.stats.cycles
    }

    /// Traffic statistics accumulated so far.
    pub fn stats(&self) -> &NocStats {
        &self.stats
    }

    fn tile_index(&self, c: Coord) -> usize {
        c.y as usize * self.config.cols + c.x as usize
    }

    /// [`Mesh::tile_index`] for a coordinate from outside the mesh, which
    /// must be checked: out of bounds, the index would alias another
    /// tile (on a 5x3 mesh, `(6,0)` is tile `(1,1)`).
    fn checked_index(&self, c: Coord) -> usize {
        self.check_bounds(c).expect("coordinate in bounds");
        self.tile_index(c)
    }

    fn check_bounds(&self, c: Coord) -> Result<(), NocError> {
        if (c.x as usize) < self.config.cols && (c.y as usize) < self.config.rows {
            Ok(())
        } else {
            Err(NocError::OutOfBounds {
                coord: c,
                cols: self.config.cols,
                rows: self.config.rows,
            })
        }
    }

    /// Snapshots per-router, per-link occupancy and credit-stall
    /// counters for every plane.
    pub fn link_heatmap(&self) -> NocHeatmap {
        let planes = Plane::ALL
            .iter()
            .map(|&plane| {
                let mut links = vec![vec![LinkLoad::default(); self.config.cols]; self.config.rows];
                let mut credit_stalls = vec![vec![0u64; self.config.cols]; self.config.rows];
                for y in 0..self.config.rows {
                    for x in 0..self.config.cols {
                        let router = &self.routers[y * self.config.cols + x];
                        for port in Port::ALL {
                            links[y][x].set_port(port, router.link_flits(plane, port));
                        }
                        credit_stalls[y][x] = router.credit_stalls(plane);
                    }
                }
                PlaneHeatmap {
                    plane: plane.to_string(),
                    links,
                    credit_stalls,
                }
            })
            .collect();
        NocHeatmap {
            cols: self.config.cols,
            rows: self.config.rows,
            cycles: self.cycle(),
            planes,
        }
    }

    /// Read-only access to the router at `coord` (e.g. to read its
    /// per-link flit counters without a heatmap snapshot).
    ///
    /// # Panics
    ///
    /// Panics if `coord` is outside the mesh.
    pub fn router(&self, coord: Coord) -> &Router {
        &self.routers[self.checked_index(coord)]
    }

    /// Free flit slots in the injection queue of `(coord, plane)`.
    ///
    /// # Panics
    ///
    /// Panics if `coord` is outside the mesh.
    pub fn inject_capacity(&self, coord: Coord, plane: Plane) -> usize {
        let i = self.checked_index(coord);
        self.config
            .inject_queue_depth
            .saturating_sub(self.endpoints[i][plane.index()].inject.len())
    }

    /// Whether a packet of the given flit length can be injected now.
    ///
    /// # Panics
    ///
    /// Panics if `coord` is outside the mesh.
    pub fn can_inject(&self, coord: Coord, plane: Plane, flit_len: usize) -> bool {
        self.inject_capacity(coord, plane) >= flit_len
    }

    /// Injects a packet at its source tile.
    ///
    /// The whole packet must fit in the injection queue: packets are never
    /// partially accepted, mirroring the tile socket's store-and-forward
    /// behaviour towards the NoC.
    ///
    /// # Errors
    ///
    /// [`NocError::OutOfBounds`] if source or destination are outside the
    /// mesh; [`NocError::InjectQueueFull`] if the queue lacks space (the
    /// caller should retry after ticking — this is back-pressure, not
    /// failure).
    pub fn inject(&mut self, mut packet: Packet) -> Result<(), NocError> {
        packet.validate(self.config.cols, self.config.rows)?;
        let src = packet.src();
        let plane = packet.plane();
        if !self.can_inject(src, plane, packet.flit_len()) {
            return Err(NocError::InjectQueueFull { coord: src });
        }
        packet.inject_cycle = self.cycle();
        let flits = Flit::from_packet(&packet);
        let i = self.tile_index(src);
        if let Some(san) = self.sanitizer.as_deref_mut() {
            san.injected[plane.index()] += flits.len() as u64;
            if !plane_carries(plane, packet.kind()) {
                let expected: Vec<String> = expected_planes(packet.kind())
                    .iter()
                    .map(|p| p.to_string())
                    .collect();
                san.record(
                    Diagnostic::error(
                        codes::PLANE_MISASSIGNMENT,
                        format!("tile({},{}) plane {plane}", src.x, src.y),
                        format!(
                            "{} message injected on plane {plane}; this kind rides {}",
                            packet.kind(),
                            expected.join(" or ")
                        ),
                    )
                    .with_hint(
                        "plane misassignment voids the NoC's message-dependent \
                         deadlock avoidance; inject on the canonical plane",
                    ),
                );
            }
        }
        if let Some(flits) = self.fault_intercept(i, src, plane, flits) {
            self.occupancy.add_inject(i, flits.len());
            self.endpoints[i][plane.index()].inject.extend(flits);
        }
        self.stats.plane_mut(plane).packets_injected += 1;
        let frame = packet.frame();
        self.tracer.emit(self.cycle(), trace_coord(src), || {
            TraceEvent::NocPacketInject {
                plane: plane.index(),
                frame,
            }
        });
        Ok(())
    }

    /// Applies any armed link-degradation fault to a packet about to enter
    /// its injection queue. Returns the flits back when the packet proceeds
    /// normally; `None` when a [`FaultKind::NocDelay`] (or FIFO ordering
    /// behind an earlier held packet on the same `(tile, plane)` link)
    /// holds it in [`MeshFaults::delayed`] until its release cycle.
    fn fault_intercept(
        &mut self,
        tile: usize,
        src: Coord,
        plane: Plane,
        flits: Vec<Flit>,
    ) -> Option<Vec<Flit>> {
        let cycle = self.cycle();
        let Some(f) = self.faults.as_deref_mut() else {
            return Some(flits);
        };
        let pi = plane.index();
        let seq = f.inject_seen[pi];
        f.inject_seen[pi] += 1;
        let hit = f.specs.iter().find_map(|s| match s.kind {
            FaultKind::NocDelay {
                plane,
                extra_cycles,
                ..
            } if plane == pi && s.fires(seq, cycle) => Some((s.kind.label(), extra_cycles)),
            _ => None,
        });
        // A packet behind a held one on the same (tile, plane) must wait
        // too: the degraded link preserves order, it only adds latency.
        let behind = f
            .delayed
            .iter()
            .filter(|d| d.tile == tile && d.plane == plane)
            .map(|d| d.release)
            .max();
        if hit.is_none() && behind.is_none() {
            return Some(flits);
        }
        // `extra` comes unchecked from a fault plan: saturate so a huge
        // delay holds the packet for the rest of the run.
        let extra = hit.map_or(0, |(_, extra)| extra);
        let release = cycle.saturating_add(extra).max(behind.unwrap_or(0));
        f.delayed.push_back(DelayedPacket {
            tile,
            plane,
            flits,
            release,
        });
        if let Some((fault, _)) = hit {
            f.fired += 1;
            let detail = format!(
                "{fault}: plane {plane} packet {seq} at ({},{}) held until cycle {release}",
                src.x, src.y
            );
            self.tracer
                .emit(cycle, trace_coord(src), || TraceEvent::FaultInjected {
                    fault,
                    detail,
                });
        }
        None
    }

    /// Moves delayed packets whose release cycle has arrived into their
    /// injection queues, preserving per-link order. Runs at the top of
    /// every tick; a no-op unless a delay fault has fired.
    fn release_delayed(&mut self) {
        let Some(mut f) = self.faults.take() else {
            return;
        };
        if !f.delayed.is_empty() {
            let cycle = self.cycle();
            // A (tile, plane) link whose oldest held packet is not yet due
            // (or cannot fit) blocks every later packet on the same link.
            let mut blocked: Vec<(usize, Plane)> = Vec::new();
            let mut idx = 0;
            while idx < f.delayed.len() {
                let d = &f.delayed[idx];
                let key = (d.tile, d.plane);
                if blocked.contains(&key) {
                    idx += 1;
                    continue;
                }
                let queue = &mut self.endpoints[d.tile][d.plane.index()].inject;
                let free = self.config.inject_queue_depth.saturating_sub(queue.len());
                if d.release > cycle || free < d.flits.len() {
                    blocked.push(key);
                    idx += 1;
                    continue;
                }
                let d = f.delayed.remove(idx).expect("index in bounds");
                self.occupancy.add_inject(d.tile, d.flits.len());
                self.endpoints[d.tile][d.plane.index()]
                    .inject
                    .extend(d.flits);
            }
        }
        self.faults = Some(f);
    }

    /// Applies any armed flit-corruption fault to a completed packet about
    /// to be handed to its destination tile. Only trailing *data* words of
    /// DMA payloads are corruptible (see [`corruptible`]); the flip is a
    /// single XOR so the packet's length and routing are untouched.
    fn fault_corrupt(&mut self, dest: Coord, pkt: &mut Packet) {
        let cycle = self.cycle();
        let Some(f) = self.faults.as_deref_mut() else {
            return;
        };
        if !corruptible(pkt) {
            return;
        }
        let plane = pkt.plane();
        let pi = plane.index();
        let seq = f.data_ejected[pi];
        f.data_ejected[pi] += 1;
        let Some((fault, mask)) = f.specs.iter().find_map(|s| match s.kind {
            FaultKind::NocCorrupt {
                plane, xor_mask, ..
            } if plane == pi && s.fires(seq, cycle) => Some((s.kind.label(), xor_mask)),
            _ => None,
        }) else {
            return;
        };
        f.fired += 1;
        let last = pkt
            .payload_mut()
            .last_mut()
            .expect("corruptible packets have data words");
        *last ^= mask;
        let kind = pkt.kind();
        let detail = format!(
            "{fault}: plane {plane} {kind} packet {seq} at ({},{}): \
             last data word xor {mask:#x}",
            dest.x, dest.y
        );
        self.tracer
            .emit(cycle, trace_coord(dest), || TraceEvent::FaultInjected {
                fault,
                detail,
            });
    }

    /// Returns a reference to the oldest delivered packet at `(coord,
    /// plane)` without removing it.
    ///
    /// # Panics
    ///
    /// Panics if `coord` is outside the mesh.
    pub fn peek(&self, coord: Coord, plane: Plane) -> Option<&Packet> {
        let i = self.checked_index(coord);
        self.endpoints[i][plane.index()].eject.front()
    }

    /// Removes and returns the oldest delivered packet at `(coord, plane)`.
    ///
    /// # Panics
    ///
    /// Panics if `coord` is outside the mesh.
    pub fn eject(&mut self, coord: Coord, plane: Plane) -> Option<Packet> {
        let i = self.checked_index(coord);
        let pkt = self.endpoints[i][plane.index()].eject.pop_front();
        if pkt.is_some() {
            self.occupancy.undelivered -= 1;
        }
        pkt
    }

    /// Number of delivered packets waiting at `(coord, plane)`.
    ///
    /// # Panics
    ///
    /// Panics if `coord` is outside the mesh.
    pub fn delivered_len(&self, coord: Coord, plane: Plane) -> usize {
        let i = self.checked_index(coord);
        self.endpoints[i][plane.index()].eject.len()
    }

    /// Total packets delivered to ejection queues but not yet ejected by
    /// their tiles, across all coordinates and planes.
    pub fn undelivered_total(&self) -> usize {
        self.occupancy.undelivered
    }

    /// Whether any traffic (queued flits or partial packets) remains in the
    /// network, including packets held back by an armed delay fault.
    /// Delivered-but-unejected packets do not count as in-flight; see
    /// [`Mesh::undelivered_total`] for those.
    pub fn is_idle(&self) -> bool {
        self.traffic_idle() && self.faults.as_deref().is_none_or(|f| f.delayed.is_empty())
    }

    /// Whether the queues and routers themselves are empty — the
    /// fast-forward precondition (fault-delayed packets carry an absolute
    /// release cycle, so bulk-advancing over them is safe).
    fn traffic_idle(&self) -> bool {
        self.occupancy.inject_total == 0 && self.occupancy.routed == 0
    }

    /// Advances the NoC by one cycle: local injection, router arbitration,
    /// link traversal, local ejection.
    ///
    /// The work is proportional to the traffic, not to the mesh: tiles
    /// with empty injection queues and routers (or planes) with empty
    /// input queues are skipped, and a cycle that leaves every router
    /// empty after injection only advances the clock. Skipping is exact —
    /// an empty router or plane selects nothing, records no credit stall
    /// and leaves its wormhole locks and round-robin pointers alone.
    pub fn tick(&mut self) {
        // Phase 0: hand any fault-delayed packets whose release cycle has
        // arrived to their injection queues (no-op without armed faults).
        if self.faults.is_some() {
            self.release_delayed();
        }

        // Phase 1: move up to one flit per (tile, plane) from the injection
        // queue into the router's local input port.
        if self.occupancy.inject_total > 0 {
            for ti in 0..self.routers.len() {
                if self.occupancy.inject[ti] == 0 {
                    continue;
                }
                for plane in Plane::ALL {
                    if self.routers[ti].free_slots(plane, Port::Local) == 0 {
                        continue;
                    }
                    if let Some(flit) = self.endpoints[ti][plane.index()].inject.pop_front() {
                        self.occupancy.inject[ti] -= 1;
                        self.occupancy.inject_total -= 1;
                        self.occupancy.routed += 1;
                        self.routers[ti].push_input(plane, Port::Local, flit);
                        if let Some(san) = self.sanitizer.as_deref_mut() {
                            san.observe_push(ti, plane, Port::Local);
                        }
                    }
                }
            }
        }

        if self.occupancy.routed > 0 {
            let mut scratch = std::mem::take(&mut self.scratch);
            self.arbitrate(&mut scratch);
            self.commit(&mut scratch);
            self.scratch = scratch;
        }

        self.stats.cycles += 1;
        if self.sanitizer.is_some() {
            self.sanitize_audit();
        }
    }

    /// Phases 2 and 3 of a tick: snapshot downstream free space for every
    /// router holding flits, then arbitrate each of them in tile order,
    /// collecting the selected transfers in `scratch`.
    fn arbitrate(&mut self, scratch: &mut TickScratch) {
        let (cols, rows) = (self.config.cols, self.config.rows);
        let TickScratch {
            active,
            free,
            transfers,
        } = scratch;
        active.clear();
        transfers.clear();
        // Phase 2: downstream free space, read before any router pops.
        // free[ti][plane][out] is the space in the queue `out` feeds: the
        // neighbour's input queue facing this router, or (Local) the
        // ejection queue, counted in packets. Every input queue has exactly
        // one upstream feeder per tick (the neighbour across its link, or
        // injection for Local), and a feeder moves at most one flit per
        // (plane, output), so no reservation between routers is needed.
        for (ti, r) in self.routers.iter().enumerate() {
            if r.queued() == 0 {
                continue;
            }
            active.push((ti, 0));
            let coord = r.coord();
            for plane in Plane::ALL {
                if r.plane_queued(plane) == 0 {
                    continue;
                }
                let pi = plane.index();
                for out in Port::ALL {
                    free[ti][pi][out.index()] = if out == Port::Local {
                        // Counted in packets: while the ejection queue is
                        // full, every flit bound for it stalls.
                        self.config
                            .eject_queue_depth
                            .saturating_sub(self.endpoints[ti][pi].eject.len())
                    } else {
                        match out.step(coord) {
                            Some(nc) if (nc.x as usize) < cols && (nc.y as usize) < rows => {
                                let ni = nc.y as usize * cols + nc.x as usize;
                                self.routers[ni].free_slots(plane, out.opposite())
                            }
                            _ => 0, // edge of the mesh: nothing downstream
                        }
                    };
                }
            }
        }
        // Phase 3: arbitration per active router.
        for (ti, end) in active.iter_mut() {
            let start = transfers.len();
            let router_free = &free[*ti];
            self.routers[*ti].select(
                |plane, out| router_free[plane.index()][out.index()],
                transfers,
            );
            *end = transfers.len();
            self.occupancy.routed -= *end - start;
            if let Some(san) = self.sanitizer.as_deref_mut() {
                for t in &transfers[start..] {
                    san.observe_pop(*ti, t.plane, t.in_port);
                }
            }
        }
    }

    /// Phase 4 of a tick: commit the transfers `arbitrate` selected — link
    /// traversal and local ejection — in tile order.
    fn commit(&mut self, scratch: &mut TickScratch) {
        let mut transfers = scratch.transfers.drain(..);
        let mut done = 0;
        for &(ti, end) in &scratch.active {
            for t in transfers.by_ref().take(end - done) {
                self.commit_one(ti, t);
            }
            done = end;
        }
    }

    /// Commits one transfer selected by router `ti`.
    fn commit_one(&mut self, ti: usize, t: Transfer) {
        if t.out_port == Port::Local {
            let plane = t.plane;
            let is_tail = t.flit.kind.is_tail();
            let inject_cycle = t.flit.inject_cycle;
            let ep = &mut self.endpoints[ti][plane.index()];
            let (completed, violation) = ep.reasm.push(t.flit);
            if let Some(v) = violation {
                let coord = self.routers[ti].coord();
                match self.sanitizer.as_deref_mut() {
                    Some(san) => san.record(Diagnostic::error(
                        codes::WORMHOLE_INTERLEAVING,
                        format!("tile({},{}) plane {plane}", coord.x, coord.y),
                        match v {
                            ReasmViolation::HeadInterleaved => {
                                "wormhole interleaving: a head flit arrived while \
                                 another packet was still reassembling"
                            }
                            ReasmViolation::StrayFlit => {
                                "wormhole interleaving: a body or tail flit arrived \
                                 with no packet under reassembly"
                            }
                        },
                    )),
                    None => debug_assert!(
                        false,
                        "wormhole violation {v:?} at ({},{}) plane {plane}",
                        coord.x, coord.y
                    ),
                }
            }
            if let Some(mut pkt) = completed {
                debug_assert!(is_tail);
                if let Some(san) = self.sanitizer.as_deref_mut() {
                    san.delivered[plane.index()] += pkt.flit_len() as u64;
                }
                let latency = (self.cycle() + 1).saturating_sub(inject_cycle);
                self.stats.plane_mut(plane).record_delivery(latency);
                let dest = self.routers[ti].coord();
                let frame = pkt.frame();
                self.tracer.emit(self.cycle() + 1, trace_coord(dest), || {
                    TraceEvent::NocPacketEject {
                        plane: plane.index(),
                        latency,
                        frame,
                    }
                });
                if self.faults.is_some() {
                    self.fault_corrupt(dest, &mut pkt);
                }
                self.endpoints[ti][plane.index()].eject.push_back(pkt);
                self.occupancy.undelivered += 1;
            }
        } else {
            let coord = self.routers[ti].coord();
            let nc = t.out_port.step(coord).expect("transfer stays in mesh");
            let ni = self.tile_index(nc);
            self.stats.plane_mut(t.plane).flit_hops += 1;
            self.routers[ni].push_input(t.plane, t.out_port.opposite(), t.flit);
            self.occupancy.routed += 1;
            if let Some(san) = self.sanitizer.as_deref_mut() {
                san.observe_push(ni, t.plane, t.out_port.opposite());
            }
        }
    }

    /// Audits the conservation invariants against the live state; any
    /// divergence becomes a deduplicated diagnostic. Runs after every
    /// tick and at fast-forward boundaries when the sanitizer is on.
    fn sanitize_audit(&mut self) {
        let Some(mut san) = self.sanitizer.take() else {
            return;
        };
        for (ti, r) in self.routers.iter().enumerate() {
            let coord = r.coord();
            for plane in Plane::ALL {
                for port in Port::ALL {
                    let shadow = san.shadow_occupancy(ti, plane, port);
                    let actual = r.occupancy(plane, port) as u64;
                    if shadow != actual {
                        san.record(
                            Diagnostic::error(
                                codes::CREDIT_CONSERVATION,
                                format!(
                                    "router({},{}) plane {plane} port {port}",
                                    coord.x, coord.y
                                ),
                                "credit conservation violated: shadow link occupancy \
                                 diverges from the router queue",
                            )
                            .with_hint(
                                "a credit was lost or duplicated on this link; every \
                                 queue push/pop must move exactly one credit",
                            ),
                        );
                    }
                }
            }
        }
        for plane in Plane::ALL {
            let pi = plane.index();
            let mut in_flight = 0u64;
            for (ti, r) in self.routers.iter().enumerate() {
                in_flight += self.endpoints[ti][pi].inject.len() as u64;
                in_flight += self.endpoints[ti][pi].reasm.pending_flits() as u64;
                for port in Port::ALL {
                    in_flight += r.occupancy(plane, port) as u64;
                }
            }
            // Packets held by a delay fault were counted at injection
            // but sit outside the queues; they are still in flight.
            if let Some(f) = self.faults.as_deref() {
                in_flight += f
                    .delayed
                    .iter()
                    .filter(|d| d.plane.index() == pi)
                    .map(|d| d.flits.len() as u64)
                    .sum::<u64>();
            }
            if san.injected[pi] != san.delivered[pi] + in_flight {
                san.record(
                    Diagnostic::error(
                        codes::FLIT_CONSERVATION,
                        format!("plane {plane}"),
                        "flit conservation violated: injected != delivered + in-flight",
                    )
                    .with_hint(
                        "a flit was dropped or fabricated between injection and \
                         ejection; check queue commits and reassembly",
                    ),
                );
            }
        }
        self.sanitizer = Some(san);
    }

    /// Runs the mesh on its own for at most `max` cycles and returns
    /// `(elapsed, ticked, streamed)`: the cycles that passed, how many of
    /// them were ticked, and how many were jumped while one lone worm
    /// stream carried every flit. The rest were jumped over idle or
    /// fault-held stretches. The loop stops at `max` or once a packet
    /// sits in an ejection queue (a tile must take it next cycle). Each
    /// turn acts on the mesh's own wake cycle:
    ///
    /// - a wake after the current cycle (a delayed packet's release, or
    ///   [`NEVER`] on an idle mesh) jumps there, or over the cycles left;
    /// - otherwise, when one lone stream (below) holds every flit, the
    ///   mesh jumps in closed form to the tick before the stream's next
    ///   tail ejects, or to the first queued flit bound elsewhere, and
    ///   then ticks that tick unless the jump used up the cycles left;
    /// - otherwise the mesh ticks once.
    ///
    /// A *lone stream* is one `(source, destination, plane)` with
    /// `source != destination` that holds every queued flit, at most one
    /// per router and each in the input port its XY path position
    /// implies, the source router holding none, with no packet
    /// undelivered and no fault plan or sanitizer installed. Every flit
    /// of such a stream then moves one hop per cycle and nothing else in
    /// the mesh moves, so the jump credits the same link counters,
    /// wormhole locks, round-robin pointers and flit hops as ticking
    /// would, and leaves every flit where ticking would. The tick that
    /// delivers a packet is always a real tick. So the result is exactly
    /// that of ticking the same cycles one by one.
    ///
    /// The SoC calls this while every tile is boring, since such a tile's
    /// tick does not touch the mesh. It then catches the tiles up with
    /// their `advance`.
    pub fn run_alone(&mut self, max: u64) -> (u64, u64, u64) {
        let (mut elapsed, mut ticked, mut streamed) = (0, 0, 0);
        while elapsed < max && self.occupancy.undelivered == 0 {
            let left = max - elapsed;
            let wake = self.wake();
            elapsed += if wake > self.cycle() {
                let delta = (wake - self.cycle()).min(left);
                self.advance(delta);
                delta
            } else {
                let jumped = match self.stream_horizon(left) {
                    Some((plane, delta)) => {
                        self.jump_stream(plane, delta);
                        streamed += delta;
                        delta
                    }
                    None => 0,
                };
                // A jump stops short of `left` only where the next tick
                // ejects a tail or injects a flit bound elsewhere, and no
                // lone stream can move then, so that tick follows in the
                // same turn.
                if jumped < left {
                    self.tick();
                    ticked += 1;
                    jumped + 1
                } else {
                    jumped
                }
            };
        }
        (elapsed, ticked, streamed)
    }

    /// When one lone stream (see [`Mesh::run_alone`]) holds every flit,
    /// returns its plane and how many cycles, at most `left`, it can be
    /// jumped: up to the tick before its first tail ejects, and short of
    /// injecting the first queued flit bound elsewhere. The stream's path
    /// is left in `self.stream.path`. `None` when there is no lone stream
    /// or it cannot move a cycle without delivering.
    fn stream_horizon(&mut self, left: u64) -> Option<(Plane, u64)> {
        // A stream flit's downstream router queue holds at most the flit
        // ahead of it, so it always has room when queues are two deep.
        if self.faults.is_some()
            || self.sanitizer.is_some()
            || self.occupancy.undelivered > 0
            || self.config.router.input_queue_depth < 2
            || self.config.eject_queue_depth == 0
        {
            return None;
        }
        let (src_tile, plane, dest) = if self.occupancy.inject_total > 0 {
            let ti = self.occupancy.inject.iter().position(|&n| n > 0)?;
            let pi = self.endpoints[ti]
                .iter()
                .position(|ep| !ep.inject.is_empty())?;
            let front = self.endpoints[ti][pi].inject.front()?;
            (ti, Plane::ALL[pi], front.dest)
        } else {
            let (plane, _, flit) = self.routers.iter().find(|r| r.queued() > 0)?.lone_flit()?;
            (self.tile_index(flit.src), plane, flit.dest)
        };
        let queue = &self.endpoints[src_tile][plane.index()].inject;
        let src = self.routers[src_tile].coord();
        if queue.len() != self.occupancy.inject_total
            || src == dest
            || self.routers[src_tile].queued() > 0
        {
            return None;
        }
        let cols = self.config.cols;
        let path = &mut self.stream.path;
        path.clear();
        let (mut here, mut inp) = (src, Port::Local);
        loop {
            let out = xy_port(here, dest);
            path.push(Hop {
                tile: here.y as usize * cols + here.x as usize,
                inp,
                out,
            });
            if out == Port::Local {
                break;
            }
            here = out.step(here).expect("XY stays in the mesh");
            inp = out.opposite();
        }
        // A flit at position `k` ejects on the `(len - k + 1)`-th tick.
        let len = path.len() as u64 - 1;
        let (mut bound, mut held) = (left, 0);
        for (k, hop) in path.iter().enumerate().skip(1).rev() {
            let router = &self.routers[hop.tile];
            if router.queued() == 0 {
                continue;
            }
            let (p, port, flit) = router.lone_flit()?;
            if p != plane || port != hop.inp || flit.src != src || flit.dest != dest {
                return None;
            }
            held += 1;
            if flit.kind.is_tail() {
                bound = bound.min(len - k as u64);
            }
        }
        if held != self.occupancy.routed {
            return None;
        }
        // Queued flit `i` is injected on the `(i + 1)`-th tick.
        for (i, flit) in (0..).zip(queue) {
            if i >= bound {
                break;
            }
            if flit.dest != dest {
                bound = i;
            } else if flit.kind.is_tail() {
                bound = bound.min(len + i);
            }
        }
        (bound > 0).then_some((plane, bound))
    }

    /// Jumps the lone stream on `plane` whose path
    /// [`Mesh::stream_horizon`] left in `self.stream.path` by `delta`
    /// cycles, which that horizon allows: every flit moves `delta` path
    /// positions, the ones passing the destination enter its reassembler,
    /// and every output crossed is credited as its crossings would.
    fn jump_stream(&mut self, plane: Plane, delta: u64) {
        let pi = plane.index();
        let StreamScratch { path, lane } = &mut self.stream;
        let len = path.len() as i64 - 1;
        lane.clear();
        for (k, hop) in path.iter().enumerate().skip(1).rev() {
            if let Some(flit) = self.routers[hop.tile].pop_input(plane, hop.inp) {
                lane.push((k as i64, flit));
            }
        }
        let held = lane.len();
        let queue = &mut self.endpoints[path[0].tile][pi].inject;
        let injected = queue.len().min(delta as usize);
        lane.extend((0..).zip(queue.drain(..injected)).map(|(i, f)| (-i, f)));
        // The output of path[k] carries, in stream order, the lane's flits
        // at positions (k - delta, k]: a window sliding along the lane.
        let delta = delta as i64;
        let (mut lo, mut hi, mut last_tail, mut hops) = (0, 0, None, 0);
        for (k, hop) in path.iter().enumerate().rev() {
            let k = k as i64;
            while lo < lane.len() && lane[lo].0 > k {
                lo += 1;
            }
            while hi < lane.len() && lane[hi].0 > k - delta {
                if lane[hi].1.kind.is_tail() {
                    last_tail = Some(hi);
                }
                hi += 1;
            }
            if hi > lo {
                let crossed = (hi - lo) as u64;
                self.routers[hop.tile].credit_stream(
                    plane,
                    (hop.inp, hop.out),
                    crossed,
                    last_tail.is_some_and(|t| t >= lo),
                    lane[hi - 1].1.kind.is_tail(),
                );
                if hop.out != Port::Local {
                    hops += crossed;
                }
            }
        }
        let dest = path[len as usize].tile;
        let mut placed = 0;
        for (k, flit) in lane.drain(..) {
            match path.get((k + delta) as usize) {
                Some(hop) => {
                    self.routers[hop.tile].push_input(plane, hop.inp, flit);
                    placed += 1;
                }
                None => {
                    let (done, violation) = self.endpoints[dest][pi].reasm.push(flit);
                    debug_assert!(done.is_none() && violation.is_none(), "{violation:?}");
                }
            }
        }
        let src = path[0].tile;
        self.occupancy.inject[src] -= injected;
        self.occupancy.inject_total -= injected;
        self.occupancy.routed = self.occupancy.routed + placed - held;
        self.stats.plane_mut(plane).flit_hops += hops;
        self.stats.cycles += delta as u64;
    }

    /// Event-driven wake cycle: the current cycle while any flit is
    /// queued or in flight, or while delivered packets sit unejected
    /// (their tiles will drain them on the next tick). A router moves
    /// flits every cycle it has any, so the mesh never waits on an
    /// internal latency — except for packets held by a delay fault, whose
    /// earliest absolute release cycle is the wake (it may have passed)
    /// so fast-forward stays exact. [`NEVER`] otherwise.
    fn wake(&self) -> u64 {
        if !self.traffic_idle() || self.undelivered_total() > 0 {
            return self.cycle();
        }
        self.faults
            .as_deref()
            .and_then(|f| f.delayed.iter().map(|d| d.release).min())
            .unwrap_or(NEVER)
    }

    /// Bulk-advances the clock over `delta` traffic-free cycles.
    fn advance(&mut self, delta: u64) {
        debug_assert!(
            self.traffic_idle(),
            "mesh fast-forward with traffic in flight would skip flit hops"
        );
        debug_assert!(
            self.faults
                .as_deref()
                .and_then(|f| f.delayed.iter().map(|d| d.release).min())
                .is_none_or(|release| self.cycle() + delta <= release),
            "mesh fast-forward past a delayed packet's release cycle"
        );
        self.stats.cycles += delta;
        // Fast-forward boundary: the span was traffic-free, so no new
        // violation can arise inside it, but auditing here keeps the
        // event-driven verdict aligned with the naive engine's
        // every-cycle audits.
        if self.sanitizer.is_some() {
            self.sanitize_audit();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MsgKind;

    impl Mesh {
        /// Ticks until the network drains or `max_cycles` elapse; returns
        /// the number of cycles executed.
        pub(super) fn run_until_idle(&mut self, max_cycles: u64) -> u64 {
            let start = self.cycle();
            while !self.is_idle() && self.cycle() - start < max_cycles {
                self.tick();
            }
            self.cycle() - start
        }
    }

    fn mesh3x3() -> Mesh {
        Mesh::new(MeshConfig::new(3, 3)).expect("valid mesh")
    }

    fn pkt(src: (u8, u8), dst: (u8, u8), words: Vec<u64>) -> Packet {
        Packet::new(
            Coord::new(src.0, src.1),
            Coord::new(dst.0, dst.1),
            Plane::DmaRsp,
            MsgKind::DmaData,
            words,
        )
    }

    #[test]
    fn rejects_bad_dimensions() {
        assert!(Mesh::new(MeshConfig::new(0, 3)).is_err());
        assert!(Mesh::new(MeshConfig::new(3, 0)).is_err());
        assert!(Mesh::new(MeshConfig::new(300, 1)).is_err());
    }

    #[test]
    fn delivers_single_packet() {
        let mut m = mesh3x3();
        m.inject(pkt((0, 0), (2, 2), vec![42])).unwrap();
        m.run_until_idle(1000);
        let got = m.eject(Coord::new(2, 2), Plane::DmaRsp).expect("delivered");
        assert_eq!(got.payload(), &[42]);
        assert_eq!(m.stats().plane(Plane::DmaRsp).packets_delivered, 1);
    }

    #[test]
    fn self_delivery_works() {
        let mut m = mesh3x3();
        m.inject(pkt((1, 1), (1, 1), vec![7])).unwrap();
        m.run_until_idle(100);
        let got = m.eject(Coord::new(1, 1), Plane::DmaRsp).expect("delivered");
        assert_eq!(got.payload(), &[7]);
    }

    #[test]
    fn latency_matches_hops_plus_serialization() {
        let mut m = mesh3x3();
        // 1-flit packet over 4 hops: inject->local (1) + 4 link hops + eject.
        m.inject(pkt((0, 0), (2, 2), vec![])).unwrap();
        m.run_until_idle(100);
        let lat = m.stats().plane(Plane::DmaRsp).max_latency;
        // Lower bound: manhattan distance + 2 (inject + eject stage).
        assert!(lat >= 4, "latency {lat} too small");
        assert!(lat <= 12, "latency {lat} too large for an idle mesh");
    }

    #[test]
    fn preserves_payload_order_for_long_packets() {
        let mut m = mesh3x3();
        let words: Vec<u64> = (0..100).collect();
        m.inject(pkt((0, 1), (2, 1), words.clone())).unwrap();
        m.run_until_idle(10_000);
        let got = m.eject(Coord::new(2, 1), Plane::DmaRsp).expect("delivered");
        assert_eq!(got.payload(), words.as_slice());
    }

    #[test]
    fn planes_are_independent() {
        let mut m = mesh3x3();
        let mut a = pkt((0, 0), (2, 0), vec![1]);
        a = Packet::new(
            a.src(),
            a.dest(),
            Plane::DmaReq,
            MsgKind::DmaLoadReq,
            vec![1],
        );
        let b = pkt((0, 0), (2, 0), vec![2]);
        m.inject(a).unwrap();
        m.inject(b).unwrap();
        m.run_until_idle(1000);
        assert_eq!(m.delivered_len(Coord::new(2, 0), Plane::DmaReq), 1);
        assert_eq!(m.delivered_len(Coord::new(2, 0), Plane::DmaRsp), 1);
    }

    #[test]
    fn many_to_one_all_delivered() {
        let mut m = mesh3x3();
        let dst = (1u8, 1u8);
        let mut expected = 0;
        for x in 0..3u8 {
            for y in 0..3u8 {
                if (x, y) == dst {
                    continue;
                }
                m.inject(pkt((x, y), dst, vec![x as u64, y as u64]))
                    .unwrap();
                expected += 1;
            }
        }
        m.run_until_idle(10_000);
        let mut got = 0;
        while m.eject(Coord::new(1, 1), Plane::DmaRsp).is_some() {
            got += 1;
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn injection_backpressure() {
        let mut cfg = MeshConfig::new(2, 2);
        cfg.inject_queue_depth = 4;
        let mut m = Mesh::new(cfg).unwrap();
        // 5-flit packet cannot fit a 4-flit queue.
        let err = m.inject(pkt((0, 0), (1, 1), vec![0; 4])).unwrap_err();
        assert!(matches!(err, NocError::InjectQueueFull { .. }));
        // A 3-flit packet fits.
        m.inject(pkt((0, 0), (1, 1), vec![0; 2])).unwrap();
    }

    #[test]
    fn ejection_backpressure_stalls_but_never_drops() {
        let mut cfg = MeshConfig::new(2, 1);
        cfg.eject_queue_depth = 1;
        let mut m = Mesh::new(cfg).unwrap();
        for i in 0..4 {
            m.inject(pkt((0, 0), (1, 0), vec![i])).unwrap();
        }
        // Tick a while without draining: only 1 packet may sit ejected.
        for _ in 0..200 {
            m.tick();
        }
        assert_eq!(m.delivered_len(Coord::new(1, 0), Plane::DmaRsp), 1);
        // Drain one at a time; all four packets arrive in order.
        let mut seen = Vec::new();
        let mut guard = 0;
        while seen.len() < 4 {
            if let Some(p) = m.eject(Coord::new(1, 0), Plane::DmaRsp) {
                seen.push(p.payload()[0]);
            }
            m.tick();
            guard += 1;
            assert!(guard < 1000, "packets lost under ejection back-pressure");
        }
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn wormhole_no_payload_interleaving_under_contention() {
        let mut m = mesh3x3();
        // Two long packets from different sources to the same destination
        // must arrive with intact payloads.
        let a: Vec<u64> = (0..50).map(|i| 1000 + i).collect();
        let b: Vec<u64> = (0..50).map(|i| 2000 + i).collect();
        m.inject(pkt((0, 0), (2, 2), a.clone())).unwrap();
        m.inject(pkt((0, 2), (2, 2), b.clone())).unwrap();
        m.run_until_idle(10_000);
        let mut payloads = Vec::new();
        while let Some(p) = m.eject(Coord::new(2, 2), Plane::DmaRsp) {
            payloads.push(p.into_payload());
        }
        payloads.sort();
        assert_eq!(payloads, vec![a, b]);
    }

    #[test]
    fn stats_count_hops() {
        let mut m = mesh3x3();
        m.inject(pkt((0, 0), (2, 0), vec![])).unwrap(); // 2 hops, 1 flit
        m.run_until_idle(100);
        assert_eq!(m.stats().plane(Plane::DmaRsp).flit_hops, 2);
    }

    #[test]
    fn tracer_sees_inject_and_eject() {
        use esp4ml_trace::{TraceEvent, Tracer};
        let mut m = mesh3x3();
        let tracer = Tracer::ring_buffer_with_capacity(64);
        m.set_tracer(tracer.clone());
        m.inject(pkt((0, 0), (2, 1), vec![1, 2])).unwrap();
        m.run_until_idle(1000);
        let events = tracer.drain();
        let injects: Vec<_> = events
            .iter()
            .filter(|e| matches!(e.event, TraceEvent::NocPacketInject { .. }))
            .collect();
        let ejects: Vec<_> = events
            .iter()
            .filter(|e| matches!(e.event, TraceEvent::NocPacketEject { .. }))
            .collect();
        assert_eq!(injects.len(), 1);
        assert_eq!(ejects.len(), 1);
        assert_eq!(injects[0].source, esp4ml_trace::TileCoord::new(0, 0));
        assert_eq!(ejects[0].source, esp4ml_trace::TileCoord::new(2, 1));
        // The eject event's latency matches the stats the mesh recorded.
        if let TraceEvent::NocPacketEject { plane, latency, .. } = ejects[0].event {
            assert_eq!(plane, Plane::DmaRsp.index());
            assert_eq!(latency, m.stats().plane(Plane::DmaRsp).max_latency);
            assert!(ejects[0].cycle >= injects[0].cycle + latency.min(ejects[0].cycle));
        }
    }

    #[test]
    fn min_latency_tracked_on_delivery() {
        let mut m = mesh3x3();
        m.inject(pkt((0, 0), (2, 2), vec![])).unwrap(); // 4 hops
        m.inject(pkt((1, 1), (1, 2), vec![])).unwrap(); // 1 hop
        m.run_until_idle(1000);
        let ps = m.stats().plane(Plane::DmaRsp);
        assert_eq!(ps.packets_delivered, 2);
        assert!(ps.min_latency > 0);
        assert!(ps.min_latency < ps.max_latency);
    }

    /// Seeded all-plane traffic on a 5x3 mesh with a shallow ejection
    /// queue, so the snapshot below catches flits in every kind of queue.
    fn loaded_mesh(seed: u64) -> Mesh {
        loaded_traffic(seed, |_| {})
    }

    /// [`loaded_mesh`]'s traffic, after `arm` prepares the empty mesh.
    fn loaded_traffic(seed: u64, arm: fn(&mut Mesh)) -> Mesh {
        let mut cfg = MeshConfig::new(5, 3);
        cfg.eject_queue_depth = 1;
        let mut m = Mesh::new(cfg).expect("valid mesh");
        arm(&mut m);
        let mut x = seed;
        for _ in 0..60 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let src = Coord::new((x % 5) as u8, ((x >> 8) % 3) as u8);
            let dst = Coord::new(((x >> 16) % 5) as u8, ((x >> 24) % 3) as u8);
            let plane = Plane::ALL[((x >> 32) % 6) as usize];
            let words = vec![x; ((x >> 40) % 6) as usize];
            m.inject(Packet::new(src, dst, plane, MsgKind::DmaData, words))
                .unwrap();
        }
        m
    }

    #[test]
    fn occupancy_counts_survive_restore_mid_flight() {
        let mut src = loaded_mesh(0x9e37_79b9);
        for _ in 0..9 {
            src.tick();
        }
        assert_eq!(
            src.occupancy,
            Occupancy::recount(&src.routers, &src.endpoints)
        );
        assert!(src.occupancy.routed > 0 && src.occupancy.inject_total > 0);
        assert!(src.occupancy.undelivered > 0);
        let state = src.state();
        // Restore onto a mesh carrying different traffic: the counts must
        // be replaced, not accumulated.
        let mut dst = loaded_mesh(0x1234_5678);
        dst.tick();
        dst.restore_state(&state);
        assert_eq!(
            dst.occupancy,
            Occupancy::recount(&dst.routers, &dst.endpoints)
        );
        assert_eq!(dst.occupancy, src.occupancy);
        for _ in 0..400 {
            assert_eq!(dst.wake(), src.wake());
            assert_eq!(dst.is_idle(), src.is_idle());
            assert_eq!(dst.undelivered_total(), src.undelivered_total());
            for m in [&mut src, &mut dst] {
                // A slow consumer: one tile drains per cycle, in turn.
                let t = m.cycle() % 15;
                let c = Coord::new((t % 5) as u8, (t / 5) as u8);
                for plane in Plane::ALL {
                    let _ = m.eject(c, plane);
                }
                m.tick();
            }
            assert_eq!(
                src.occupancy,
                Occupancy::recount(&src.routers, &src.endpoints)
            );
        }
        assert!(src.is_idle(), "traffic drained within the window");
        assert_eq!(dst.state(), src.state());
    }

    /// The loop [`Mesh::run_alone`] must equal, written with single
    /// public ticks: tick one cycle at a time, stopping once any ejection
    /// queue holds a packet or after `max` ticks. Returns the ticks and
    /// how many of them began with the mesh's wake [due, at a later
    /// release, never].
    fn tick_one_by_one(m: &mut Mesh, max: u64) -> (u64, [u64; 3]) {
        let tiles: Vec<Coord> = m.routers.iter().map(Router::coord).collect();
        let (mut ticks, mut began) = (0, [0; 3]);
        while ticks < max {
            began[match m.wake() {
                wake if wake <= m.cycle() => 0,
                NEVER => 2,
                _ => 1,
            }] += 1;
            m.tick();
            ticks += 1;
            let delivered = tiles
                .iter()
                .any(|&c| Plane::ALL.iter().any(|&p| m.peek(c, p).is_some()));
            if delivered {
                break;
            }
        }
        (ticks, began)
    }

    /// A few long seeded packets on a 5x3 mesh, after `arm` prepares the
    /// empty mesh: worms stream for many cycles between deliveries.
    fn streaming_traffic(seed: u64, arm: fn(&mut Mesh)) -> Mesh {
        let mut m = Mesh::new(MeshConfig::new(5, 3)).expect("valid mesh");
        arm(&mut m);
        let mut x = seed;
        for _ in 0..4 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let src = Coord::new((x % 5) as u8, ((x >> 8) % 3) as u8);
            let dst = Coord::new(((x >> 16) % 5) as u8, ((x >> 24) % 3) as u8);
            let plane = [Plane::DmaReq, Plane::DmaRsp][((x >> 32) % 2) as usize];
            let words = vec![x; 8 + ((x >> 40) % 24) as usize];
            m.inject(Packet::new(src, dst, plane, MsgKind::DmaData, words))
                .unwrap();
        }
        m
    }

    fn streaming_mesh(seed: u64) -> Mesh {
        streaming_traffic(seed, |_| {})
    }

    /// Streaming traffic whose second and later packets on each DMA plane
    /// are held for 200 cycles, long after the other worms drain, so the
    /// mesh blocks on a release cycle. Four packets on two planes put at
    /// least two on one plane.
    fn delayed_mesh(seed: u64) -> Mesh {
        streaming_traffic(seed, |m| {
            for plane in [Plane::DmaReq, Plane::DmaRsp] {
                assert!(m.install_fault(&FaultSpec::new(FaultKind::NocDelay {
                    plane: plane.index(),
                    from_packet: 1,
                    count: 3,
                    extra_cycles: 200,
                })));
            }
        })
    }

    /// [`loaded_mesh`]'s traffic with the sanitizer armed, so audits run at
    /// every jump boundary as well as every tick.
    fn sanitized_mesh(seed: u64) -> Mesh {
        loaded_traffic(seed, Mesh::enable_sanitizer)
    }

    #[test]
    fn run_alone_stops_where_single_ticks_stop() {
        let (mut delivered, mut released, mut jumped, mut maxed, mut streamed) = (0, 0, 0, 0, 0);
        for seed in [0x9e37_79b9, 0x1234_5678, 0x0bad_cafe] {
            let meshes: [fn(u64) -> Mesh; 4] =
                [loaded_mesh, streaming_mesh, delayed_mesh, sanitized_mesh];
            for make in meshes {
                let mut alone = make(seed);
                let mut single = make(seed);
                for call in 0u64.. {
                    // Like the SoC's tiles, take every delivered packet
                    // before the next span.
                    for m in [&mut alone, &mut single] {
                        for t in 0..15u8 {
                            let c = Coord::new(t % 5, t / 5);
                            for plane in Plane::ALL {
                                while m.eject(c, plane).is_some() {}
                            }
                        }
                    }
                    // One last call on the drained mesh jumps it.
                    let drained = alone.is_idle();
                    let max = [1_000, 5, 1][(call % 3) as usize];
                    let (elapsed, ticked, stream) = alone.run_alone(max);
                    let (ticks, began) = tick_one_by_one(&mut single, max);
                    let context = format!("seed {seed:#x}, call {call}");
                    // Stream jumps replace ticks of an active mesh.
                    assert_eq!((elapsed, ticked + stream), (ticks, began[0]), "{context}");
                    streamed += stream;
                    // The state holds the sanitizer's ledger too.
                    assert_eq!(alone.state(), single.state(), "{context}");
                    delivered += usize::from(alone.undelivered_total() > 0);
                    released += usize::from(began[1] > 0);
                    jumped += usize::from(began[2] > 0);
                    maxed += usize::from(
                        !drained && elapsed == max && max > 1 && alone.undelivered_total() == 0,
                    );
                    if drained {
                        break;
                    }
                }
            }
        }
        assert!(
            delivered > 0 && released > 0 && jumped > 0 && maxed > 0 && streamed > 0,
            "{delivered} deliveries, {released} release jumps, {jumped} quiescent jumps, \
             {maxed} max stops, {streamed} stream cycles"
        );
    }

    /// Lone worm streams on every mesh shape from 1x2 to 8x8: back-to-back
    /// packets of 1-131 flits from one source to one destination on one
    /// plane, then a packet to another destination queued behind them.
    /// Mid-stream a second-plane packet arrives, which the jump must
    /// refuse, and the state is restored onto a mesh carrying other
    /// traffic. Every `run_alone` call must equal single ticks.
    #[test]
    fn lone_stream_jumps_equal_single_ticks_on_every_mesh_shape() {
        let mut x = 0x5eed_0029_u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let (mut streamed, mut refused, mut calls) = (0, 0, 0);
        for (shape, (cols, rows)) in (1..=8u8)
            .flat_map(|c| (1..=8u8).map(move |r| (c, r)))
            .filter(|&(c, r)| c * r > 1)
            .enumerate()
        {
            let mut cfg = MeshConfig::new(cols.into(), rows.into());
            cfg.inject_queue_depth = 1_024;
            let tiles = u64::from(cols) * u64::from(rows);
            let mut pick = |not: Option<Coord>| loop {
                let i = (next() % tiles) as u8;
                let c = Coord::new(i % cols, i / cols);
                if Some(c) != not {
                    return c;
                }
            };
            let (src, dest) = (pick(None), pick(None));
            let dest = if dest == src { pick(Some(src)) } else { dest };
            let other = pick(Some(dest));
            let (second_src, second_dest) = (pick(None), pick(None));
            let plane = Plane::ALL[(next() % 6) as usize];
            let second = Plane::ALL[(plane.index() + 1 + (next() % 5) as usize) % 6];
            let lens = [
                [1, 131][shape % 2],
                1 + next() % 131,
                1 + next() % 131,
                1 + next() % 131,
            ];
            let worm = |src, dest, plane, flits: u64| {
                Packet::new(src, dest, plane, MsgKind::DmaData, (1..flits).collect())
            };
            let build = || {
                let mut m = Mesh::new(cfg).expect("valid mesh");
                for &n in &lens[..3] {
                    m.inject(worm(src, dest, plane, n)).unwrap();
                }
                m.inject(worm(src, other, plane, lens[3])).unwrap();
                m
            };
            let (mut alone, mut single) = (build(), build());
            for call in 0usize.. {
                for m in [&mut alone, &mut single] {
                    for i in 0..tiles as u8 {
                        for p in Plane::ALL {
                            while m.eject(Coord::new(i % cols, i / cols), p).is_some() {}
                        }
                    }
                }
                if alone.is_idle() {
                    break;
                }
                let context = format!("{cols}x{rows} {src}->{dest} on {plane}, call {call}");
                if call == 2 {
                    for m in [&mut alone, &mut single] {
                        m.inject(worm(second_src, second_dest, second, 5)).unwrap();
                    }
                    assert!(alone.stream_horizon(u64::MAX).is_none(), "{context}");
                    refused += 1;
                }
                if call == 4 {
                    let mut dirty = build();
                    dirty.inject(worm(dest, src, second, 9)).unwrap();
                    dirty.run_alone(5);
                    dirty.restore_state(&alone.state());
                    alone = dirty;
                }
                let max = [1_000, 1, 7, 40][call % 4];
                let (elapsed, ticked, stream) = alone.run_alone(max);
                let (ticks, began) = tick_one_by_one(&mut single, max);
                assert_eq!((elapsed, ticked + stream), (ticks, began[0]), "{context}");
                assert_eq!(alone.state(), single.state(), "{context}");
                streamed += stream;
                calls += 1;
            }
        }
        assert!(
            streamed > 10_000 && refused == 63,
            "{streamed} stream cycles, {refused} refusals over {calls} calls"
        );
    }

    /// A 5x3 mesh holding a delivered packet at tile (1,1), whose dense
    /// index `(6,0)` would alias without a bounds check.
    fn aliased_mesh() -> Mesh {
        let mut m = Mesh::new(MeshConfig::new(5, 3)).unwrap();
        m.inject(pkt((0, 0), (1, 1), vec![1])).unwrap();
        m.run_until_idle(100);
        assert_eq!(m.delivered_len(Coord::new(1, 1), Plane::DmaRsp), 1);
        m
    }

    #[test]
    #[should_panic(expected = "coordinate in bounds")]
    fn inject_capacity_rejects_out_of_bounds_coordinates() {
        let _ = aliased_mesh().can_inject(Coord::new(6, 0), Plane::DmaRsp, 1);
    }

    #[test]
    #[should_panic(expected = "coordinate in bounds")]
    fn peek_rejects_out_of_bounds_coordinates() {
        let _ = aliased_mesh()
            .peek(Coord::new(6, 0), Plane::DmaRsp)
            .is_some();
    }

    #[test]
    #[should_panic(expected = "coordinate in bounds")]
    fn eject_rejects_out_of_bounds_coordinates() {
        let _ = aliased_mesh().eject(Coord::new(6, 0), Plane::DmaRsp);
    }

    #[test]
    #[should_panic(expected = "coordinate in bounds")]
    fn delivered_len_rejects_out_of_bounds_coordinates() {
        let _ = aliased_mesh().delivered_len(Coord::new(6, 0), Plane::DmaRsp);
    }

    #[test]
    fn is_idle_reflects_traffic() {
        let mut m = mesh3x3();
        assert!(m.is_idle());
        m.inject(pkt((0, 0), (2, 2), vec![1, 2, 3])).unwrap();
        assert!(!m.is_idle());
        m.run_until_idle(1000);
        assert!(m.is_idle());
    }
}

#[cfg(test)]
mod traffic_tests {
    use super::*;
    use crate::MsgKind;

    #[test]
    fn traffic_matrix_tracks_route() {
        let mut m = Mesh::new(MeshConfig::new(3, 3)).unwrap();
        // XY route (0,0) -> (2,0): routers (0,0) and (1,0) forward.
        m.inject(Packet::new(
            Coord::new(0, 0),
            Coord::new(2, 0),
            Plane::DmaRsp,
            MsgKind::DmaData,
            vec![1, 2],
        ))
        .unwrap();
        m.run_until_idle(100);
        let heatmap = m.link_heatmap();
        let t = &heatmap.plane(Plane::DmaRsp).links;
        assert_eq!(t.len(), 3);
        assert_eq!(t[0][0].link_total(), 3); // 3 flits forwarded east
        assert_eq!(t[0][1].link_total(), 3);
        assert_eq!(t[0][2].link_total(), 0); // destination only ejects locally
        assert_eq!(t[1][0].link_total(), 0); // off-route routers untouched
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::MsgKind;
    use esp4ml_fault::{CycleWindow, FaultKind, FaultSpec};

    fn dma_pkt(src: (u8, u8), dst: (u8, u8), words: Vec<u64>) -> Packet {
        Packet::new(
            Coord::new(src.0, src.1),
            Coord::new(dst.0, dst.1),
            Plane::DmaRsp,
            MsgKind::DmaData,
            words,
        )
    }

    fn delay_spec(from_packet: u64, count: u64, extra_cycles: u64) -> FaultSpec {
        FaultSpec::new(FaultKind::NocDelay {
            plane: Plane::DmaRsp.index(),
            from_packet,
            count,
            extra_cycles,
        })
    }

    #[test]
    fn non_noc_faults_are_not_installed() {
        let mut m = Mesh::new(MeshConfig::new(3, 3)).unwrap();
        let spec = FaultSpec::permanent_hang("nv0");
        assert!(!m.install_fault(&spec));
        assert_eq!(m.faults_fired(), 0);
    }

    #[test]
    fn delay_fault_adds_exactly_extra_cycles() {
        let latency_with_extra = |extra: Option<u64>| {
            let mut m = Mesh::new(MeshConfig::new(3, 3)).unwrap();
            if let Some(extra) = extra {
                assert!(m.install_fault(&delay_spec(0, 1, extra)));
            }
            m.inject(dma_pkt((0, 0), (2, 2), vec![1, 2, 3])).unwrap();
            m.run_until_idle(10_000);
            assert_eq!(m.stats().plane(Plane::DmaRsp).packets_delivered, 1);
            m.stats().plane(Plane::DmaRsp).max_latency
        };
        let base = latency_with_extra(None);
        let delayed = latency_with_extra(Some(75));
        assert_eq!(delayed, base + 75, "delay must add exactly extra_cycles");
    }

    #[test]
    fn delay_fault_counts_as_fired_and_traced() {
        use esp4ml_trace::Tracer;
        let mut m = Mesh::new(MeshConfig::new(3, 3)).unwrap();
        let tracer = Tracer::ring_buffer_with_capacity(64);
        m.set_tracer(tracer.clone());
        assert!(m.install_fault(&delay_spec(0, 1, 20)));
        m.inject(dma_pkt((0, 0), (1, 1), vec![9])).unwrap();
        m.run_until_idle(10_000);
        assert_eq!(m.faults_fired(), 1);
        let events = tracer.drain();
        assert!(events.iter().any(|e| matches!(
            &e.event,
            TraceEvent::FaultInjected {
                fault: "noc_delay",
                ..
            }
        )));
    }

    #[test]
    fn delayed_link_preserves_packet_order() {
        let mut m = Mesh::new(MeshConfig::new(3, 3)).unwrap();
        // Delay only the first packet; the second must still arrive after it.
        assert!(m.install_fault(&delay_spec(0, 1, 200)));
        m.inject(dma_pkt((0, 0), (2, 0), vec![0, 111])).unwrap();
        m.inject(dma_pkt((0, 0), (2, 0), vec![0, 222])).unwrap();
        m.run_until_idle(10_000);
        let first = m.eject(Coord::new(2, 0), Plane::DmaRsp).expect("first");
        let second = m.eject(Coord::new(2, 0), Plane::DmaRsp).expect("second");
        assert_eq!(first.payload(), &[0, 111]);
        assert_eq!(second.payload(), &[0, 222]);
    }

    #[test]
    fn delayed_packet_reports_blocked_progress() {
        let mut m = Mesh::new(MeshConfig::new(3, 3)).unwrap();
        assert!(m.install_fault(&delay_spec(0, 1, 100)));
        m.inject(dma_pkt((0, 0), (2, 2), vec![5])).unwrap();
        // The packet is held outside the queues: traffic is idle but the
        // mesh is not, and its wake is the release cycle.
        assert!(!m.is_idle());
        assert_eq!(m.wake(), 100);
        // Fast-forwarding to the release cycle then ticking delivers it.
        m.advance(100);
        m.run_until_idle(10_000);
        assert!(m.is_idle());
        assert_eq!(m.stats().plane(Plane::DmaRsp).packets_delivered, 1);
    }

    /// A wake at or before the current cycle means act: on a mesh whose
    /// held packet's release has come (or passed), `run_alone` ticks it
    /// into its queue instead of jumping.
    #[test]
    fn passed_release_makes_run_alone_tick() {
        for passed in [0, 30] {
            let build = || {
                let mut m = Mesh::new(MeshConfig::new(3, 3)).unwrap();
                assert!(m.install_fault(&delay_spec(0, 1, 100)));
                m.inject(dma_pkt((0, 0), (2, 2), vec![5])).unwrap();
                m.advance(100);
                let f = m.faults.as_deref_mut().expect("fault installed");
                f.delayed[0].release -= passed;
                m
            };
            let (mut alone, mut single) = (build(), build());
            assert_eq!(alone.wake(), 100 - passed);
            assert_eq!(alone.run_alone(1), (1, 1, 0), "{passed} cycles past");
            single.tick();
            assert_eq!(alone.state(), single.state());
            assert!(!alone.traffic_idle(), "the held packet was released");
        }
    }

    #[test]
    fn sanitizer_stays_clean_across_delay_fault() {
        let mut m = Mesh::new(MeshConfig::new(3, 3)).unwrap();
        m.enable_sanitizer();
        assert!(m.install_fault(&delay_spec(0, 1, 40)));
        m.inject(dma_pkt((0, 0), (2, 2), vec![1, 2, 3, 4])).unwrap();
        // Audit while the packet is still held: its flits are in flight.
        m.tick();
        m.run_until_idle(10_000);
        let report = m.sanitizer_report().expect("sanitizer installed");
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn corrupt_fault_flips_exactly_one_data_word() {
        let mask = 0x0f0f;
        let mut m = Mesh::new(MeshConfig::new(3, 3)).unwrap();
        assert!(m.install_fault(&FaultSpec::new(FaultKind::NocCorrupt {
            plane: Plane::DmaRsp.index(),
            from_packet: 0,
            count: 1,
            xor_mask: mask,
        })));
        m.inject(dma_pkt((0, 0), (2, 1), vec![7, 10, 20])).unwrap();
        m.run_until_idle(10_000);
        m.inject(dma_pkt((0, 0), (2, 1), vec![7, 30, 40])).unwrap();
        m.run_until_idle(10_000);
        let hit = m.eject(Coord::new(2, 1), Plane::DmaRsp).expect("first");
        let clean = m.eject(Coord::new(2, 1), Plane::DmaRsp).expect("second");
        // Only the last data word of the first matching packet is flipped;
        // the offset header and every other packet are untouched.
        assert_eq!(hit.payload(), &[7, 10, 20 ^ mask]);
        assert_eq!(clean.payload(), &[7, 30, 40]);
        assert_eq!(m.faults_fired(), 1);
    }

    #[test]
    fn corrupt_fault_skips_headers_and_control_packets() {
        let mut m = Mesh::new(MeshConfig::new(3, 3)).unwrap();
        assert!(m.install_fault(&FaultSpec::new(FaultKind::NocCorrupt {
            plane: Plane::IoIrq.index(),
            from_packet: 0,
            count: u64::MAX,
            xor_mask: 0xffff,
        })));
        // IRQs carry no corruptible data words: the fault never fires.
        m.inject(Packet::new(
            Coord::new(0, 0),
            Coord::new(2, 0),
            Plane::IoIrq,
            MsgKind::Irq,
            vec![],
        ))
        .unwrap();
        m.run_until_idle(10_000);
        assert_eq!(m.faults_fired(), 0);
        assert!(m.eject(Coord::new(2, 0), Plane::IoIrq).is_some());
    }

    #[test]
    fn fault_free_runs_are_untouched_by_armed_other_plane() {
        // A fault armed on a different plane never fires and never delays.
        let run = |armed: bool| {
            let mut m = Mesh::new(MeshConfig::new(3, 3)).unwrap();
            if armed {
                assert!(m.install_fault(&FaultSpec::new(FaultKind::NocDelay {
                    plane: Plane::DmaReq.index(),
                    from_packet: 0,
                    count: u64::MAX,
                    extra_cycles: 500,
                })));
            }
            m.inject(dma_pkt((0, 0), (2, 2), vec![1, 2, 3])).unwrap();
            m.run_until_idle(10_000);
            (
                m.cycle(),
                m.stats().plane(Plane::DmaRsp).max_latency,
                m.faults_fired(),
            )
        };
        let (c0, l0, f0) = run(false);
        let (c1, l1, f1) = run(true);
        assert_eq!((c0, l0), (c1, l1));
        assert_eq!((f0, f1), (0, 0));
    }

    /// Injects six DMA packets, packet `k` at cycle `100 * k`, and runs
    /// the mesh idle. Returns the delivered packets and the cycles and
    /// details of the `FaultInjected` events the run traced.
    fn windowed_run(spec: FaultSpec) -> (Mesh, Vec<Packet>, Vec<(u64, String)>) {
        use esp4ml_trace::Tracer;
        let mut m = Mesh::new(MeshConfig::new(3, 3)).unwrap();
        let tracer = Tracer::ring_buffer_with_capacity(64);
        m.set_tracer(tracer.clone());
        assert!(m.install_fault(&spec));
        for k in 0..6u64 {
            while m.cycle() < 100 * k {
                m.tick();
            }
            m.inject(dma_pkt((0, 0), (2, 2), vec![k, 10 + k])).unwrap();
        }
        m.run_until_idle(10_000);
        let delivered = std::iter::from_fn(|| m.eject(Coord::new(2, 2), Plane::DmaRsp)).collect();
        let fired = tracer
            .drain()
            .into_iter()
            .filter_map(|e| match e.event {
                TraceEvent::FaultInjected { detail, .. } => Some((e.cycle, detail)),
                _ => None,
            })
            .collect();
        (m, delivered, fired)
    }

    #[test]
    fn windowed_delay_fires_only_in_range_and_in_window() {
        // Packets 1..=3 are in range; the window excludes packet 1
        // (injected at cycle 100) and admits packet 4, which is past
        // the range. Exactly packets 2 and 3 are held.
        let spec = delay_spec(1, 3, 50).in_window(CycleWindow::between(150, 450));
        let (m, delivered, fired) = windowed_run(spec);
        assert_eq!(m.faults_fired(), 2);
        let cycles: Vec<u64> = fired.iter().map(|(c, _)| *c).collect();
        assert_eq!(cycles, vec![200, 300]);
        assert!(fired[0].1.contains("packet 2 "), "{}", fired[0].1);
        assert!(fired[1].1.contains("packet 3 "), "{}", fired[1].1);
        assert_eq!(delivered.len(), 6);
        let latency = m.stats().plane(Plane::DmaRsp).max_latency;
        assert!(latency >= 50, "held packets must arrive late: {latency}");
    }

    #[test]
    fn windowed_corrupt_fires_only_in_range_and_in_window() {
        // Packet `k` is delivered at cycle `100 * k + 6`: the window
        // excludes packet 1 and admits packet 4.
        let mask = 0x100;
        let spec = FaultSpec::new(FaultKind::NocCorrupt {
            plane: Plane::DmaRsp.index(),
            from_packet: 1,
            count: 3,
            xor_mask: mask,
        })
        .in_window(CycleWindow::between(150, 450));
        let (m, delivered, fired) = windowed_run(spec);
        assert_eq!(m.faults_fired(), 2);
        let cycles: Vec<u64> = fired.iter().map(|(c, _)| *c).collect();
        assert_eq!(cycles, vec![206, 306]);
        assert!(fired[0].1.contains("packet 2 "), "{}", fired[0].1);
        assert!(fired[1].1.contains("packet 3 "), "{}", fired[1].1);
        let words: Vec<u64> = delivered.iter().map(|p| p.payload()[1]).collect();
        assert_eq!(words, vec![10, 11, 12 ^ mask, 13 ^ mask, 14, 15]);
    }
}

#[cfg(test)]
mod sanitizer_tests {
    use super::*;
    use crate::MsgKind;
    use esp4ml_check::codes;

    fn sanitized_mesh() -> Mesh {
        let mut m = Mesh::new(MeshConfig::new(3, 3)).expect("valid mesh");
        m.enable_sanitizer();
        m
    }

    fn dma_pkt(src: (u8, u8), dst: (u8, u8), words: Vec<u64>) -> Packet {
        Packet::new(
            Coord::new(src.0, src.1),
            Coord::new(dst.0, dst.1),
            Plane::DmaRsp,
            MsgKind::DmaData,
            words,
        )
    }

    #[test]
    fn clean_traffic_yields_clean_verdict() {
        let mut m = sanitized_mesh();
        for y in 0..3u8 {
            m.inject(dma_pkt((0, y), (2, 2 - y), vec![1, 2, 3, 4]))
                .unwrap();
        }
        m.run_until_idle(1_000);
        let report = m.sanitizer_report().expect("sanitizer installed");
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn leaked_credit_is_caught() {
        let mut m = sanitized_mesh();
        m.inject(dma_pkt((0, 0), (2, 2), vec![7])).unwrap();
        m.fault_leak_credit(Coord::new(1, 0), Plane::DmaRsp, Port::West);
        m.run_until_idle(1_000);
        let report = m.sanitizer_report().expect("sanitizer installed");
        assert!(report.has_errors());
        let diag = &report.diagnostics[0];
        assert_eq!(diag.code, codes::CREDIT_CONSERVATION);
        assert!(diag.location.contains("router(1,0)"), "{diag}");
        // The verdict is deduplicated: one finding per leaked link, no
        // matter how many cycles the audit re-observes it.
        assert_eq!(
            report
                .diagnostics
                .iter()
                .filter(|d| d.code == codes::CREDIT_CONSERVATION)
                .count(),
            1
        );
    }

    #[test]
    fn phantom_flit_breaks_conservation() {
        let mut m = sanitized_mesh();
        m.inject(dma_pkt((0, 0), (1, 1), vec![1])).unwrap();
        m.fault_phantom_flit(Plane::DmaRsp);
        m.run_until_idle(1_000);
        let report = m.sanitizer_report().expect("sanitizer installed");
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == codes::FLIT_CONSERVATION && d.location.contains("dma-rsp")));
    }

    #[test]
    fn plane_misassignment_is_flagged_at_inject() {
        let mut m = sanitized_mesh();
        // An IRQ does not belong on the DMA response plane.
        m.inject(Packet::new(
            Coord::new(0, 0),
            Coord::new(2, 0),
            Plane::DmaRsp,
            MsgKind::Irq,
            vec![],
        ))
        .unwrap();
        m.run_until_idle(1_000);
        let report = m.sanitizer_report().expect("sanitizer installed");
        let diag = report
            .diagnostics
            .iter()
            .find(|d| d.code == codes::PLANE_MISASSIGNMENT)
            .expect("plane misassignment flagged");
        assert!(diag.message.contains("io-irq"), "{diag}");
        // The mis-planed packet itself is otherwise conserved.
        assert!(!report
            .diagnostics
            .iter()
            .any(|d| d.code == codes::FLIT_CONSERVATION));
    }

    #[test]
    fn verdict_is_identical_across_tick_and_advance_audits() {
        // Same faulty scenario, audited densely (extra ticks) vs
        // sparsely (advance over the idle tail): byte-identical reports.
        let run = |idle_ticks: bool| {
            let mut m = sanitized_mesh();
            m.inject(dma_pkt((0, 0), (2, 2), vec![7])).unwrap();
            m.fault_leak_credit(Coord::new(1, 0), Plane::DmaRsp, Port::West);
            m.run_until_idle(1_000);
            if idle_ticks {
                for _ in 0..50 {
                    m.tick();
                }
            } else {
                m.advance(50);
            }
            serde_json::to_string(&m.sanitizer_report().expect("report")).unwrap()
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn without_sanitizer_no_report() {
        let m = Mesh::new(MeshConfig::new(2, 2)).unwrap();
        assert!(!m.sanitizer_enabled());
        assert!(m.sanitizer_report().is_none());
    }
}

#[cfg(test)]
mod exactness_tests {
    //! Exactness golden for the mesh's cycle-level behaviour.
    //!
    //! Seeded traffic on a 5×3 mesh (the Fig. 7 floorplan size) exercises all
    //! six planes with hot-spot contention, injection back-pressure and a
    //! shallow ejection queue that the consumer drains slowly, so credit
    //! stalls and back-pressure into the routers both occur. The test folds
    //! every delivered packet (destination, plane, delivery cycle, payload),
    //! the final [`NocStats`], the link heatmap and every router's per-plane
    //! credit stalls into one FNV-1a digest and pins it. Any change to
    //! arbitration order, credit reservation or timing moves the digest; a
    //! pure host-side optimisation of the mesh must leave it untouched.

    use super::*;
    use crate::MsgKind;
    use std::collections::VecDeque;
    use std::fmt::Write;

    const COLS: usize = 5;
    const ROWS: usize = 3;

    /// xorshift64*: a tiny deterministic generator, so the golden does not
    /// depend on any external RNG's stream.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    fn fnv1a64(bytes: &[u8]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// A canonical message kind for each plane.
    fn kind_for(plane: Plane) -> MsgKind {
        match plane {
            Plane::CohReq | Plane::CohFwd | Plane::CohRsp => MsgKind::Coherence,
            Plane::DmaReq => MsgKind::DmaLoadReq,
            Plane::DmaRsp => MsgKind::DmaData,
            Plane::IoIrq => MsgKind::RegWrite,
        }
    }

    fn coord(i: usize) -> Coord {
        Coord::new((i % COLS) as u8, (i / COLS) as u8)
    }

    struct Outcome {
        digest: u64,
        delivered: usize,
        injected: usize,
        credit_stalls: u64,
        max_ejected_backlog: usize,
        /// Packets delivered per plane.
        per_plane: [usize; Plane::COUNT],
    }

    /// Drives seeded traffic for `traffic_cycles`, then drains the mesh, and
    /// returns the digest of everything observable. With `alone`, the
    /// stretches on which the loop injects nothing and no packet waits in
    /// an ejection queue go through [`Mesh::run_alone`], each capped at
    /// the next cycle on which the loop injects, logs progress or would
    /// stop; that must change nothing the digest sees.
    fn run(seed: u64, traffic_cycles: u64, faulted: bool, alone: bool) -> Outcome {
        let mut cfg = MeshConfig::new(COLS, ROWS);
        cfg.eject_queue_depth = 2;
        cfg.inject_queue_depth = 48;
        let mut mesh = Mesh::new(cfg).expect("valid mesh");
        if faulted {
            mesh.enable_sanitizer();
            assert!(mesh.install_fault(&FaultSpec::new(FaultKind::NocDelay {
                plane: Plane::DmaRsp.index(),
                from_packet: 5,
                count: 3,
                extra_cycles: 37,
            })));
        }
        let mut rng = Rng(seed);
        let n = COLS * ROWS;
        // Shadow of each (tile, plane) ejection queue: the cycle each packet
        // became visible, so the digest records the true delivery cycle.
        let mut arrivals: Vec<VecDeque<u64>> = vec![VecDeque::new(); n * Plane::COUNT];
        let mut seen: Vec<usize> = vec![0; n * Plane::COUNT];
        let mut log = String::new();
        let (mut injected, mut delivered, mut max_backlog) = (0usize, 0usize, 0usize);
        let mut per_plane = [0usize; Plane::COUNT];
        let hot = Coord::new(4, 1);
        let mut cycle = 0u64;
        loop {
            let traffic = cycle < traffic_cycles;
            // Bursts with quiet gaps, so the mesh also drains (and ticks
            // empty) between bursts, not only at the end.
            let injects = traffic && cycle % 400 < 300;
            if injects {
                for t in 0..n {
                    if rng.below(4) != 0 {
                        continue;
                    }
                    let plane = Plane::ALL[rng.below(Plane::COUNT as u64) as usize];
                    // Half the traffic converges on one hot spot (contention);
                    // the rest is uniform, self-delivery included.
                    let dest = if rng.below(2) == 0 {
                        hot
                    } else {
                        coord(rng.below(n as u64) as usize)
                    };
                    let words = rng.below(9) as usize;
                    let payload: Vec<u64> = (0..words).map(|_| rng.next()).collect();
                    let pkt = Packet::new(coord(t), dest, plane, kind_for(plane), payload);
                    if mesh.inject(pkt).is_ok() {
                        injected += 1;
                    }
                }
            }
            if alone && !injects && mesh.undelivered_total() == 0 {
                // The loop stops after the tick that leaves an idle mesh
                // once traffic is over; otherwise the span ends before
                // the next progress log, injection burst or traffic end.
                let mut max = (cycle / 97 + 1) * 97 - cycle;
                if traffic {
                    max = max
                        .min((cycle / 400 + 1) * 400 - cycle)
                        .min(traffic_cycles - cycle);
                } else if mesh.is_idle() {
                    max = 1;
                }
                cycle += mesh.run_alone(max).0;
            } else {
                mesh.tick();
                cycle += 1;
            }
            for t in 0..n {
                for plane in Plane::ALL {
                    let slot = t * Plane::COUNT + plane.index();
                    let len = mesh.delivered_len(coord(t), plane);
                    max_backlog = max_backlog.max(len);
                    for _ in seen[slot]..len {
                        arrivals[slot].push_back(mesh.cycle());
                    }
                    seen[slot] = len;
                    // A slow consumer: drain with probability 1/3 while traffic
                    // runs, every cycle once it stops.
                    if len > 0 && (!traffic || rng.below(3) == 0) {
                        let pkt = mesh.eject(coord(t), plane).expect("non-empty");
                        seen[slot] -= 1;
                        let at = arrivals[slot].pop_front().expect("arrival recorded");
                        let d = pkt.dest();
                        write!(
                            log,
                            "{},{} {} {} {} {:?}|",
                            d.x,
                            d.y,
                            plane.index(),
                            at,
                            pkt.inject_cycle(),
                            pkt.payload()
                        )
                        .expect("write to string");
                        delivered += 1;
                        per_plane[plane.index()] += 1;
                    }
                }
            }
            // The scheduler-facing views are part of the observable behaviour.
            if cycle.is_multiple_of(97) {
                let p = match mesh.wake() {
                    wake if wake <= mesh.cycle() => "A".to_string(),
                    NEVER => "Q".to_string(),
                    until => format!("B{until}"),
                };
                write!(
                    log,
                    "@{cycle} {p} {} {}|",
                    mesh.is_idle(),
                    mesh.undelivered_total()
                )
                .expect("write to string");
            }
            if !traffic && mesh.is_idle() && mesh.undelivered_total() == 0 {
                break;
            }
            assert!(cycle < traffic_cycles + 100_000, "mesh failed to drain");
        }
        let heatmap = mesh.link_heatmap();
        let mut credit_stalls = 0u64;
        for t in 0..n {
            for plane in Plane::ALL {
                let s = mesh.router(coord(t)).credit_stalls(plane);
                credit_stalls += s;
                write!(log, "cs{t}.{}={s}|", plane.index()).expect("write to string");
            }
        }
        log.push_str(&serde_json::to_string(mesh.stats()).expect("stats serialize"));
        log.push_str(&serde_json::to_string(&heatmap).expect("heatmap serialize"));
        if faulted {
            let report = mesh.sanitizer_report().expect("sanitizer installed");
            assert!(report.is_clean(), "{report}");
            assert_eq!(mesh.faults_fired(), 3);
        }
        Outcome {
            digest: fnv1a64(log.as_bytes()),
            delivered,
            injected,
            credit_stalls,
            max_ejected_backlog: max_backlog,
            per_plane,
        }
    }

    fn check_coverage(o: &Outcome) {
        assert_eq!(
            o.delivered, o.injected,
            "every injected packet is delivered"
        );
        assert!(o.injected > 1_000, "traffic too light: {}", o.injected);
        assert!(
            o.credit_stalls > 0,
            "no credit stalls: contention not exercised"
        );
        assert_eq!(o.max_ejected_backlog, 2, "ejection queue never filled");
        assert!(
            o.per_plane.iter().all(|&p| p > 0),
            "idle plane: {:?}",
            o.per_plane
        );
    }

    #[test]
    fn seeded_contended_traffic_matches_golden_digest() {
        let o = run(0x5eed_0001, 2_000, false, false);
        check_coverage(&o);
        assert_eq!(o.digest, 0x3d56_da80_7510_1b5b, "digest {:#018x}", o.digest);
    }

    #[test]
    fn faulted_sanitized_traffic_matches_golden_digest() {
        let o = run(0x5eed_0002, 1_500, true, false);
        check_coverage(&o);
        assert_eq!(o.digest, 0xc671_697b_1a45_954d, "digest {:#018x}", o.digest);
    }

    /// This traffic keeps several worms in flight until its last packet,
    /// so the lone-stream arm never fires here; the differential tests in
    /// `tests` cover it.
    #[test]
    fn run_alone_reproduces_the_golden_digest() {
        let o = run(0x5eed_0001, 2_000, false, true);
        check_coverage(&o);
        assert_eq!(o.digest, 0x3d56_da80_7510_1b5b, "digest {:#018x}", o.digest);
    }

    #[test]
    fn run_alone_reproduces_the_faulted_sanitized_golden_digest() {
        let o = run(0x5eed_0002, 1_500, true, true);
        check_coverage(&o);
        assert_eq!(o.digest, 0xc671_697b_1a45_954d, "digest {:#018x}", o.digest);
    }
}
