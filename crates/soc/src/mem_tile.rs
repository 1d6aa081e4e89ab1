//! The memory tile: DMA service over off-chip DRAM.

use crate::emit::{inject_queued, Dma};
use crate::sanitize::{tile_location, InvariantLedger};
use esp4ml_check::{codes, Diagnostic};
use esp4ml_fault::{FaultKind, FaultSpec};
use esp4ml_mem::{CacheConfig, CacheStats, CachedDram, CachedDramState, DramConfig, DramStats};
use esp4ml_noc::{Coord, Mesh, MsgKind, Packet, Plane, NEVER};
use esp4ml_trace::{DmaKind, TileCoord, TraceEvent, Tracer};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A pending memory operation being serviced: the storage access already
/// happened (and produced `responses`); they are released when the
/// modelled latency elapses.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct Pending {
    /// Remaining busy cycles before the responses are released.
    busy: u64,
    responses: Vec<Packet>,
}

/// Tile-side state of installed memory faults, including the burst
/// trigger counter so a restored run truncates exactly the same bursts
/// as the original. Allocated only when a fault plan targets the memory
/// tiles — fault-free runs never touch it.
#[derive(Debug, Default, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct MemFaults {
    /// The plan's DMA drop specs, in installation order.
    specs: Vec<FaultSpec>,
    /// Load bursts serviced since installation (the fault trigger index).
    load_bursts: u64,
    /// Total fault firings so far.
    fired: u64,
}

/// The machine state of a [`MemTile`] apart from its storage stack: the
/// request queue, the in-flight operation, undrained responses, armed
/// faults with trigger counts, and the sanitizer ledger. A snapshot
/// clones it; the DRAM (and LLC) image travels next to it as a sparse
/// [`CachedDramState`].
#[derive(Debug, Default, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemTileState {
    /// Queued DMA requests, in arrival order.
    queue: VecDeque<Packet>,
    /// The request being serviced, when one is in flight.
    current: Option<Pending>,
    /// Responses waiting to inject into the NoC.
    outgoing: VecDeque<Packet>,
    /// Records an unserviceable request.
    ledger: InvariantLedger,
    faults: Option<Box<MemFaults>>,
}

/// The memory tile of an ESP SoC.
///
/// Incoming [`MsgKind::DmaLoadReq`] and [`MsgKind::DmaStoreReq`] packets
/// (on the DMA-request plane) are serviced one at a time with the DRAM
/// burst-latency model; data and acknowledgements return on the decoupled
/// DMA-response plane. Physical addresses arrive already translated by the
/// requesting socket's TLB.
///
/// The coordinate is structural and the tracer is a live host-side
/// handle; neither is part of a snapshot.
#[derive(Debug)]
pub struct MemTile {
    coord: Coord,
    dram: CachedDram,
    tracer: Tracer,
    st: MemTileState,
}

impl MemTile {
    /// Creates a memory tile at `coord` fronting a DRAM of `config`
    /// (non-coherent DMA: every burst goes off-chip).
    pub fn new(coord: Coord, config: DramConfig) -> Self {
        MemTile {
            coord,
            dram: CachedDram::new(config),
            tracer: Tracer::disabled(),
            st: MemTileState::default(),
        }
    }

    /// Creates a memory tile whose DRAM sits behind an LLC partition
    /// (LLC-coherent DMA).
    pub fn with_llc(coord: Coord, config: DramConfig, cache: CacheConfig) -> Self {
        MemTile {
            coord,
            dram: CachedDram::with_llc(config, cache),
            tracer: Tracer::disabled(),
            st: MemTileState::default(),
        }
    }

    /// Installs one memory fault from a fault plan. Returns `false` (and
    /// installs nothing) for non-memory fault kinds, so callers can route
    /// a mixed plan through every component.
    pub fn install_fault(&mut self, spec: &FaultSpec) -> bool {
        match spec.kind {
            FaultKind::DmaDropWords { .. } => {
                let f = self.st.faults.get_or_insert_with(Default::default);
                f.specs.push(spec.clone());
                true
            }
            _ => false,
        }
    }

    /// How many memory faults have fired on this tile so far.
    pub fn faults_fired(&self) -> u64 {
        self.st.faults.as_ref().map_or(0, |f| f.fired)
    }

    /// Applies any armed word-drop fault to a serviced load burst,
    /// truncating the response data in place. Trigger indices count
    /// serviced load bursts on this tile.
    fn fault_drop(&mut self, data: &mut Vec<u64>, requester: Coord, cycle: u64) {
        let Some(f) = self.st.faults.as_deref_mut() else {
            return;
        };
        let seq = f.load_bursts;
        f.load_bursts += 1;
        let Some((fault, drop_words)) = f.specs.iter().find_map(|s| match s.kind {
            FaultKind::DmaDropWords { drop_words, .. } if s.fires(seq, cycle) => {
                Some((s.kind.label(), drop_words))
            }
            _ => None,
        }) else {
            return;
        };
        let keep = (data.len() as u64).saturating_sub(drop_words);
        let dropped = data.len() as u64 - keep;
        if dropped == 0 {
            return;
        }
        data.truncate(keep as usize);
        f.fired += 1;
        let detail = format!(
            "{fault}: burst {seq} for tile({},{}) lost its last {dropped} words",
            requester.x, requester.y
        );
        let coord = TileCoord::new(self.coord.x, self.coord.y);
        self.tracer
            .emit(cycle, coord, || TraceEvent::FaultInjected { fault, detail });
    }

    /// Captures the tile's complete serializable state: the sparse image
    /// of its storage stack and a clone of its [`MemTileState`].
    pub fn state(&self) -> (CachedDramState, MemTileState) {
        (self.dram.state(), self.st.clone())
    }

    /// Restores state captured by [`MemTile::state`]. Installed faults are
    /// replaced wholesale: restoring a fault-free snapshot uninstalls any
    /// plan armed since it was taken.
    ///
    /// # Panics
    ///
    /// Panics when the snapshot's DRAM/LLC geometry does not match this
    /// tile's (it was captured from a different floorplan).
    pub fn restore_state(&mut self, dram: &CachedDramState, state: &MemTileState) {
        self.dram.restore_state(dram);
        self.st.clone_from(state);
    }

    /// Installs the trace sink handle shared with the rest of the SoC.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    pub(crate) fn ledger(&self) -> &InvariantLedger {
        &self.st.ledger
    }

    pub(crate) fn ledger_mut(&mut self) -> &mut InvariantLedger {
        &mut self.st.ledger
    }

    /// LLC counters, when this tile hosts an LLC partition.
    pub fn llc_stats(&self) -> Option<&CacheStats> {
        self.dram.llc_stats()
    }

    /// The tile coordinate.
    pub fn coord(&self) -> Coord {
        self.coord
    }

    /// DRAM access counters (the Fig. 8 metric).
    pub fn dram_stats(&self) -> &DramStats {
        self.dram.dram_stats()
    }

    /// Direct word read, bypassing accounting (testbench access).
    pub fn peek(&self, addr: u64) -> u64 {
        self.dram.peek(addr)
    }

    /// Direct word write, bypassing accounting (testbench access).
    pub fn poke(&mut self, addr: u64, value: u64) {
        self.dram.poke(addr, value);
    }

    /// DRAM capacity in words.
    pub fn size_words(&self) -> u64 {
        self.dram.size_words()
    }

    /// Whether the tile has no queued or in-flight work.
    pub fn is_idle(&self) -> bool {
        self.st.queue.is_empty() && self.st.current.is_none() && self.st.outgoing.is_empty()
    }

    /// Advances the tile by one cycle against the mesh.
    pub fn tick(&mut self, mesh: &mut Mesh) {
        // Accept new requests.
        while let Some(pkt) = mesh.eject(self.coord, Plane::DmaReq) {
            self.st.queue.push_back(pkt);
        }
        // Start servicing the next request: the storage access runs now,
        // its responses are held for the modelled latency.
        if self.st.current.is_none() {
            if let Some(request) = self.st.queue.pop_front() {
                let (busy, responses) = self.service(request, mesh.cycle());
                self.st.current = Some(Pending { busy, responses });
            }
        }
        // Progress the in-flight request.
        if let Some(p) = self.st.current.as_mut() {
            if p.busy > 0 {
                p.busy -= 1;
            }
            if p.busy == 0 {
                let done = self.st.current.take().expect("current op");
                self.st.outgoing.extend(done.responses);
            }
        }
        inject_queued(mesh, self.coord, &mut self.st.outgoing);
    }

    /// Event-driven wake cycle: `now` whenever the tile has responses to
    /// release or requests to start, the release tick while the in-flight
    /// request counts down its DRAM latency, [`NEVER`] with nothing in
    /// flight.
    pub fn wake(&self, now: u64) -> u64 {
        if !self.st.outgoing.is_empty() {
            return now;
        }
        match &self.st.current {
            // A tick with `busy == 1` decrements *and* releases the
            // responses, so the last boring cycle is `busy - 1` away.
            Some(p) => now + p.busy.saturating_sub(1),
            None if !self.st.queue.is_empty() => now,
            None => NEVER,
        }
    }

    /// Bulk-applies `delta` boring cycles to the in-flight latency
    /// countdown.
    pub fn advance(&mut self, delta: u64) {
        if let Some(p) = self.st.current.as_mut() {
            debug_assert!(delta < p.busy, "advance must stop before release");
            p.busy -= delta;
        }
    }

    fn service(&mut self, request: Packet, cycle: u64) -> (u64, Vec<Packet>) {
        let requester = request.src();
        let coord = TileCoord::new(self.coord.x, self.coord.y);
        match request.kind() {
            MsgKind::DmaLoadReq => {
                let addr = request.payload()[0];
                let len = request.payload()[1];
                let dest_offset = request.payload().get(2).copied().unwrap_or(0);
                let frame = request.frame();
                let (mut data, latency) = self.dram.read_burst(addr, len);
                if self.st.faults.is_some() {
                    self.fault_drop(&mut data, requester, cycle);
                }
                self.tracer.emit(cycle, coord, || TraceEvent::DmaBurst {
                    kind: DmaKind::Read,
                    words: len,
                    latency,
                    frame,
                });
                let dma = Dma::new(self.coord, requester, frame);
                let responses = dma.data(dest_offset, &data).collect();
                (latency, responses)
            }
            MsgKind::DmaStoreReq => {
                let addr = request.payload()[0];
                let len = request.payload()[1] as usize;
                let data = &request.payload()[2..2 + len];
                let frame = request.frame();
                let latency = self.dram.write_burst(addr, data);
                self.tracer.emit(cycle, coord, || TraceEvent::DmaBurst {
                    kind: DmaKind::Write,
                    words: len as u64,
                    latency,
                    frame,
                });
                let ack = Dma::new(self.coord, requester, frame).store_ack(len as u64);
                (latency, vec![ack])
            }
            other => {
                self.st.ledger.violated(|| {
                    Diagnostic::error(
                        codes::PLANE_MISASSIGNMENT,
                        tile_location(self.coord),
                        format!(
                            "memory tile cannot service {other} from tile({},{})",
                            requester.x, requester.y
                        ),
                    )
                });
                (1, Vec::new())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp4ml_noc::MeshConfig;

    fn setup() -> (Mesh, MemTile) {
        let mesh = Mesh::new(MeshConfig::new(2, 1)).unwrap();
        let tile = MemTile::new(
            Coord::new(1, 0),
            DramConfig {
                size_words: 4096,
                first_word_latency: 4,
                per_word_latency: 1,
                banks: 1,
            },
        );
        (mesh, tile)
    }

    fn drive(mesh: &mut Mesh, tile: &mut MemTile, cycles: usize) {
        for _ in 0..cycles {
            tile.tick(mesh);
            mesh.tick();
        }
    }

    #[test]
    fn load_request_returns_data() {
        let (mut mesh, mut tile) = setup();
        tile.poke(100, 7);
        tile.poke(101, 8);
        let req = Packet::new(
            Coord::new(0, 0),
            Coord::new(1, 0),
            Plane::DmaReq,
            MsgKind::DmaLoadReq,
            vec![100, 2],
        );
        mesh.inject(req).unwrap();
        drive(&mut mesh, &mut tile, 50);
        let rsp = mesh.eject(Coord::new(0, 0), Plane::DmaRsp).expect("data");
        assert_eq!(rsp.kind(), MsgKind::DmaData);
        // Offset header (0 when the request omits it) then the data.
        assert_eq!(rsp.payload(), &[0, 7, 8]);
        assert_eq!(tile.dram_stats().word_reads, 2);
    }

    #[test]
    fn store_request_writes_and_acks() {
        let (mut mesh, mut tile) = setup();
        let mut payload = vec![200, 3];
        payload.extend([11, 12, 13]);
        let req = Packet::new(
            Coord::new(0, 0),
            Coord::new(1, 0),
            Plane::DmaReq,
            MsgKind::DmaStoreReq,
            payload,
        );
        mesh.inject(req).unwrap();
        drive(&mut mesh, &mut tile, 50);
        let ack = mesh.eject(Coord::new(0, 0), Plane::DmaRsp).expect("ack");
        assert_eq!(ack.kind(), MsgKind::DmaStoreAck);
        assert_eq!(ack.payload(), &[3]);
        assert_eq!(tile.peek(201), 12);
        assert_eq!(tile.dram_stats().word_writes, 3);
    }

    #[test]
    fn long_load_splits_into_packets() {
        let (mut mesh, mut tile) = setup();
        let req = Packet::new(
            Coord::new(0, 0),
            Coord::new(1, 0),
            Plane::DmaReq,
            MsgKind::DmaLoadReq,
            vec![0, 300],
        );
        mesh.inject(req).unwrap();
        // Drain as we go so ejection queues never saturate.
        let mut words = 0;
        let mut packets = 0;
        for _ in 0..3000 {
            tile.tick(&mut mesh);
            mesh.tick();
            while let Some(p) = mesh.eject(Coord::new(0, 0), Plane::DmaRsp) {
                words += p.payload().len() - 1; // minus the offset header
                packets += 1;
            }
        }
        assert_eq!(words, 300);
        assert_eq!(packets, 3); // 128 + 128 + 44
    }

    #[test]
    fn requests_are_serviced_in_order() {
        let (mut mesh, mut tile) = setup();
        tile.poke(0, 1);
        tile.poke(50, 2);
        for addr in [0u64, 50] {
            mesh.inject(Packet::new(
                Coord::new(0, 0),
                Coord::new(1, 0),
                Plane::DmaReq,
                MsgKind::DmaLoadReq,
                vec![addr, 1],
            ))
            .unwrap();
        }
        drive(&mut mesh, &mut tile, 100);
        let first = mesh.eject(Coord::new(0, 0), Plane::DmaRsp).unwrap();
        let second = mesh.eject(Coord::new(0, 0), Plane::DmaRsp).unwrap();
        assert_eq!(first.payload(), &[0, 1]);
        assert_eq!(second.payload(), &[0, 2]);
    }

    #[test]
    fn latency_reflects_dram_model() {
        let (mut mesh, mut tile) = setup();
        mesh.inject(Packet::new(
            Coord::new(0, 0),
            Coord::new(1, 0),
            Plane::DmaReq,
            MsgKind::DmaLoadReq,
            vec![0, 10],
        ))
        .unwrap();
        let mut cycles = 0;
        while mesh.peek(Coord::new(0, 0), Plane::DmaRsp).is_none() {
            tile.tick(&mut mesh);
            mesh.tick();
            cycles += 1;
            assert!(cycles < 1000, "no response");
        }
        // At least the DRAM burst latency (4 + 10) plus NoC traversal.
        assert!(cycles >= 14, "response too fast: {cycles}");
    }

    #[test]
    fn windowed_drop_fires_only_in_range_and_in_window() {
        use esp4ml_fault::{CycleWindow, FaultKind, FaultSpec};
        let (mut mesh, mut tile) = setup();
        let tracer = Tracer::ring_buffer_with_capacity(64);
        tile.set_tracer(tracer.clone());
        // Bursts 1..=3 are in range; burst `k` is requested at cycle
        // `100 * k` and serviced at `100 * k + 4`, so the window
        // excludes burst 1 and admits burst 4.
        assert!(tile.install_fault(
            &FaultSpec::new(FaultKind::DmaDropWords {
                from_burst: 1,
                count: 3,
                drop_words: 1,
            })
            .in_window(CycleWindow::between(150, 450))
        ));
        let mut lens = Vec::new();
        for k in 0..6u64 {
            while mesh.cycle() < 100 * k {
                drive(&mut mesh, &mut tile, 1);
            }
            mesh.inject(Packet::new(
                Coord::new(0, 0),
                Coord::new(1, 0),
                Plane::DmaReq,
                MsgKind::DmaLoadReq,
                vec![0, 4],
            ))
            .unwrap();
            drive(&mut mesh, &mut tile, 60);
            let rsp = mesh.eject(Coord::new(0, 0), Plane::DmaRsp).expect("data");
            lens.push(rsp.payload().len() - 1); // minus the offset header
        }
        assert_eq!(lens, vec![4, 4, 3, 3, 4, 4]);
        assert_eq!(tile.faults_fired(), 2);
        let fired: Vec<(u64, String)> = tracer
            .drain()
            .into_iter()
            .filter_map(|e| match e.event {
                TraceEvent::FaultInjected { detail, .. } => Some((e.cycle, detail)),
                _ => None,
            })
            .collect();
        let cycles: Vec<u64> = fired.iter().map(|(c, _)| *c).collect();
        assert_eq!(cycles, vec![204, 304]);
        assert!(fired[0].1.contains("burst 2 "), "{}", fired[0].1);
        assert!(fired[1].1.contains("burst 3 "), "{}", fired[1].1);
    }
}
