//! The accelerator tile: ESP socket wrapper around a kernel.
//!
//! The wrapper implements the paper's Fig. 4 loop — LOAD, COMPUTE, STORE
//! per frame — plus the ESP4ML p2p platform service. All p2p transactions
//! are *on-demand*: a consumer's LOAD sends a `P2pLoadReq` to the producer
//! tile, and a producer's STORE holds its output until such a request
//! arrives. This preserves the consumption assumption (data enters the NoC
//! only when the receiver has space) and is completely transparent to the
//! kernel, which still sees plain load/store semantics.

use crate::emit::{inject_queued, Dma};
use crate::kernel::{pack_values, unpack_values, words_for, AcceleratorKernel};
use crate::mem_map::MemMap;
use crate::regs::{
    P2pConfig, RegisterFile, CMD_START, FLAG_DOUBLE_BUFFER, REG_CMD, REG_CONF_OUT_SIZE,
    REG_CONF_SIZE, REG_DST_OFFSET, REG_DVFS, REG_FLAGS, REG_FRAME_BASE, REG_FRAME_STRIDE,
    REG_N_FRAMES, REG_P2P, REG_SRC_OFFSET, STATUS_DONE, STATUS_IDLE, STATUS_RUNNING,
};
use crate::sanitize::{tile_location, BlockedTile, InvariantLedger};
use crate::stats::AccelStats;
use esp4ml_check::{codes, Diagnostic};
use esp4ml_fault::{FaultKind, FaultSpec};
use esp4ml_mem::{PageTable, Tlb};
use esp4ml_noc::{Coord, Mesh, MsgKind, Packet, Plane, NEVER};
use esp4ml_trace::{TileCoord, TraceEvent, Tracer};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Cycles of socket overhead to set up one DMA burst descriptor.
const DMA_SETUP_CYCLES: u64 = 2;
/// TLB capacity of the socket (entries).
const SOCKET_TLB_ENTRIES: usize = 32;
/// Words the socket TLB maps without a page walk: a page per entry.
pub const SOCKET_TLB_REACH_WORDS: u64 = SOCKET_TLB_ENTRIES as u64 * PageTable::DEFAULT_PAGE_WORDS;
/// Page-walk penalty on a TLB miss, in cycles.
const TLB_MISS_PENALTY: u64 = 12;

/// The wrapper FSM state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccelState {
    /// Waiting for a start command.
    Idle,
    /// Issuing load requests for the current frame.
    LoadIssue,
    /// Waiting for load data (DMA or p2p).
    LoadWait,
    /// Kernel computation in progress.
    Compute,
    /// Deciding how to store the current frame.
    StoreIssue,
    /// P2p store: waiting for a consumer's request.
    StoreWaitReq,
    /// P2p store: streaming data packets to the consumer.
    StoreSend,
    /// DMA store: waiting for memory-tile acknowledgements.
    StoreWaitAck,
    /// Batch finished; status register reads done.
    Done,
}

impl AccelState {
    /// Stable lowercase phase name (used in trace events).
    pub fn name(self) -> &'static str {
        match self {
            AccelState::Idle => "idle",
            AccelState::LoadIssue => "load_issue",
            AccelState::LoadWait => "load_wait",
            AccelState::Compute => "compute",
            AccelState::StoreIssue => "store_issue",
            AccelState::StoreWaitReq => "store_wait_req",
            AccelState::StoreSend => "store_send",
            AccelState::StoreWaitAck => "store_wait_ack",
            AccelState::Done => "done",
        }
    }
}

/// A user-level accelerator invocation descriptor, written into the socket
/// registers by the driver. [`AccelConfig::dma_to_dma`] spells out the
/// plain descriptor; the other constructors change only its p2p side
/// (the offset a p2p side leaves unused is 0), and the `with_*` builders
/// adjust the result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccelConfig {
    /// Input values per frame (0 = the kernel's natural input size; any
    /// other value must equal it, see [`Soc::configure_accel`]).
    ///
    /// [`Soc::configure_accel`]: crate::Soc::configure_accel
    pub conf_size: u64,
    /// Output values per frame (0 = the kernel's natural output size; any
    /// other value must equal it).
    pub out_size: u64,
    /// Input base offset (words) in the accelerator's virtual address
    /// space.
    pub src_offset: u64,
    /// Output base offset (words) in the accelerator's virtual address
    /// space.
    pub dst_offset: u64,
    /// Frames to process in this batch.
    pub n_frames: u64,
    /// P2p configuration.
    pub p2p: P2pConfig,
    /// Wrapper feature flags (`FLAGS_REG`), e.g.
    /// [`FLAG_DOUBLE_BUFFER`](crate::regs::FLAG_DOUBLE_BUFFER).
    pub flags: u64,
    /// Datapath clock divider (`DVFS_REG`; 0 or 1 = full speed).
    pub dvfs_divider: u64,
    /// Global frame id of the batch's first frame (`FRAME_BASE_REG`).
    #[serde(default)]
    pub frame_base: u64,
    /// Global frame id stride between batch frames (`FRAME_STRIDE_REG`;
    /// 0 is treated as 1, so a deserialized default of 0 is equivalent).
    #[serde(default)]
    pub frame_stride: u64,
}

impl AccelConfig {
    /// Plain DMA in and out.
    pub fn dma_to_dma(src_offset: u64, dst_offset: u64, n_frames: u64) -> Self {
        AccelConfig {
            conf_size: 0,
            out_size: 0,
            src_offset,
            dst_offset,
            n_frames,
            p2p: P2pConfig::disabled(),
            flags: 0,
            dvfs_divider: 0,
            frame_base: 0,
            frame_stride: 1,
        }
    }

    /// DMA load, p2p store (first stage of a p2p pipeline).
    pub fn dma_to_p2p(src_offset: u64, n_frames: u64) -> Self {
        AccelConfig {
            p2p: P2pConfig::store(),
            ..Self::dma_to_dma(src_offset, 0, n_frames)
        }
    }

    /// P2p load from `sources`, DMA store (last stage).
    pub fn p2p_to_dma(sources: Vec<Coord>, dst_offset: u64, n_frames: u64) -> Self {
        AccelConfig {
            p2p: P2pConfig::load_from(sources),
            ..Self::dma_to_dma(0, dst_offset, n_frames)
        }
    }

    /// P2p on both sides (middle stage).
    pub fn p2p_to_p2p(sources: Vec<Coord>, n_frames: u64) -> Self {
        AccelConfig {
            p2p: P2pConfig::load_and_store(sources),
            ..Self::dma_to_dma(0, 0, n_frames)
        }
    }

    /// Enables input-PLM double buffering (builder style): the wrapper
    /// prefetches frame `k + 1` while frame `k` computes and stores.
    pub fn with_double_buffer(mut self) -> Self {
        self.flags |= FLAG_DOUBLE_BUFFER;
        self
    }

    /// Runs the kernel datapath at `f_noc / divider` (builder style) —
    /// ESP's per-tile fine-grained DVFS.
    pub fn with_dvfs_divider(mut self, divider: u64) -> Self {
        self.dvfs_divider = divider;
        self
    }

    /// Assigns the batch's global frame ids (builder style): batch frame
    /// `i` becomes global frame `base + i * stride`. A width-`k` parallel
    /// stage runs instance `j` with `base = j, stride = k` so the stage's
    /// instances interleave over the run's frame sequence.
    pub fn with_frame_ids(mut self, base: u64, stride: u64) -> Self {
        self.frame_base = base;
        self.frame_stride = stride.max(1);
        self
    }
}

/// Tile-side state of installed accelerator faults, including the
/// trigger counters: capturing `invocations`/`fired` is what lets a
/// restored run fire its remaining faults at exactly the same
/// architectural events as the original. Allocated only when a fault
/// plan names this device — fault-free runs never touch it.
#[derive(Debug, Default, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct AccelFaults {
    /// The plan's specs naming this device, in installation order.
    specs: Vec<FaultSpec>,
    /// Start commands seen since installation (the fault trigger index).
    invocations: u64,
    /// Total fault firings so far.
    fired: u64,
}

/// The machine state of an [`AccelTile`]: socket registers, page table
/// and TLB, the wrapper FSM with its latched batch context, PLM contents
/// (receive and output buffers), in-flight transfer bookkeeping, armed
/// faults with trigger counts, statistics and sanitizer ledger. A
/// snapshot clones it.
///
/// Structural identity — the coordinate, the plugged kernel and the
/// memory map — is *not* part of it; a snapshot only restores onto a tile
/// built from the same floorplan. The tracer is a live host-side handle
/// and is likewise excluded.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccelTileState {
    regs: RegisterFile,
    page_table: Option<PageTable>,
    tlb: Tlb,
    state: AccelState,
    // Batch context, latched at start.
    n_frames: u64,
    frame_idx: u64,
    frame_base: u64,
    frame_stride: u64,
    in_values: u64,
    out_values: u64,
    in_words: u64,
    out_words: u64,
    src_base: u64,
    dst_base: u64,
    p2p: P2pConfig,

    // Transfer bookkeeping: the frame receive buffer (PLM input), a
    // window of one frame, or of two ping-pong halves with double
    // buffering (frame k in half k % 2), filled by offset-tagged DmaData
    // packets in any arrival order. Sized once per batch.
    rx_buf: Vec<u64>,
    /// Words received into each half.
    rx_counts: [u64; 2],
    dbuf: bool,
    loads_issued: u64,
    dvfs_divider: u64,
    tx_queue: VecDeque<Packet>,
    store_acked_words: u64,
    /// Pending p2p consumer requests: `(requester, words, dest base)`.
    pending_p2p_reqs: VecDeque<(Coord, u64, u64)>,
    compute_countdown: u64,
    output_buffer: Vec<u64>,
    stall: u64,
    /// Words to drop from every output frame of the current batch
    /// (0 = healthy; latched from a matching short-output fault).
    short_drop: u64,
    faults: Option<Box<AccelFaults>>,

    stats: AccelStats,
    /// Records receive-buffer overruns and p2p length mismatches.
    ledger: InvariantLedger,
}

impl AccelTileState {
    /// The socket at `coord` as built: idle registers, no page table, an
    /// empty TLB, no batch latched, an empty PLM and empty queues.
    fn idle(coord: Coord) -> Self {
        AccelTileState {
            regs: RegisterFile::new(coord),
            page_table: None,
            tlb: Tlb::new(SOCKET_TLB_ENTRIES, TLB_MISS_PENALTY),
            state: AccelState::Idle,
            n_frames: 0,
            frame_idx: 0,
            frame_base: 0,
            frame_stride: 1,
            in_values: 0,
            out_values: 0,
            in_words: 0,
            out_words: 0,
            src_base: 0,
            dst_base: 0,
            p2p: P2pConfig::disabled(),
            rx_buf: Vec::new(),
            rx_counts: [0; 2],
            dbuf: false,
            loads_issued: 0,
            dvfs_divider: 1,
            tx_queue: VecDeque::new(),
            store_acked_words: 0,
            pending_p2p_reqs: VecDeque::new(),
            compute_countdown: 0,
            output_buffer: Vec::new(),
            stall: 0,
            short_drop: 0,
            faults: None,
            stats: AccelStats::default(),
            ledger: InvariantLedger::default(),
        }
    }
}

/// An accelerator tile: socket (registers, DMA engine, TLB, p2p service)
/// plus the plugged-in kernel.
#[derive(Debug)]
pub struct AccelTile {
    coord: Coord,
    kernel: Box<dyn AcceleratorKernel>,
    mem_map: MemMap,
    irq_target: Coord,
    tracer: Tracer,
    /// Host-side count of [`AcceleratorKernel::compute`] calls since the
    /// tile was built; not machine state, so never snapshotted or restored.
    kernel_invocations: u64,
    st: AccelTileState,
}

impl AccelTile {
    /// Creates an accelerator tile.
    ///
    /// `mem_map` describes the memory tiles its DMA targets; `irq_target`
    /// is the processor tile receiving its interrupts. Both come from the
    /// SoC floorplan, as in real ESP, where the SoC generator fixes them
    /// in each tile's configuration.
    pub fn new(
        coord: Coord,
        kernel: Box<dyn AcceleratorKernel>,
        mem_map: MemMap,
        irq_target: Coord,
    ) -> Self {
        AccelTile {
            coord,
            kernel,
            mem_map,
            irq_target,
            tracer: Tracer::disabled(),
            kernel_invocations: 0,
            st: AccelTileState::idle(coord),
        }
    }

    pub(crate) fn ledger(&self) -> &InvariantLedger {
        &self.st.ledger
    }

    pub(crate) fn ledger_mut(&mut self) -> &mut InvariantLedger {
        &mut self.st.ledger
    }

    /// Fault hook (sanitizer testing): inflates the received-word counter
    /// so the quiescent DMA-accounting audit must flag the imbalance.
    pub(crate) fn fault_phantom_words(&mut self, words: u64) {
        self.st.stats.words_received += words;
    }

    /// Installs one accelerator fault from a fault plan. Returns `false`
    /// (and installs nothing) when the spec targets another device or is
    /// not an accelerator fault, so callers can route a mixed plan through
    /// every component.
    pub fn install_fault(&mut self, spec: &FaultSpec) -> bool {
        match &spec.kind {
            FaultKind::AccelHang { device, .. } | FaultKind::AccelShortOutput { device, .. }
                if device == self.kernel.name() =>
            {
                let f = self.st.faults.get_or_insert_with(Default::default);
                f.specs.push(spec.clone());
                true
            }
            _ => false,
        }
    }

    /// How many accelerator faults have fired on this tile so far.
    pub fn faults_fired(&self) -> u64 {
        self.st.faults.as_ref().map_or(0, |f| f.fired)
    }

    /// Hard-resets the socket wrapper back to [`AccelState::Idle`] — the
    /// recovery path a driver takes after a watchdog expiry. The batch
    /// (its latched context, partial frames, queued packets, pending p2p
    /// requests) is discarded, back to the socket's idle state as built;
    /// the registers (status set to idle), page table, TLB, armed faults
    /// with their trigger counts, cumulative statistics and sanitizer
    /// ledger survive, so the driver can re-issue the batch immediately.
    /// `now` is the last executed cycle, which stamps the phase change to
    /// idle.
    pub fn reset(&mut self, now: u64) {
        self.set_state(AccelState::Idle, now);
        let kept = std::mem::replace(&mut self.st, AccelTileState::idle(self.coord));
        self.st.regs = kept.regs;
        self.st.regs.set_status(STATUS_IDLE);
        self.st.page_table = kept.page_table;
        self.st.tlb = kept.tlb;
        self.st.faults = kept.faults;
        self.st.stats = kept.stats;
        self.st.ledger = kept.ledger;
    }

    /// The tile's machine state (see [`AccelTileState`] for what is and
    /// is not included), which a snapshot clones. Named `tile_state`
    /// because [`AccelTile::state`] already reports the FSM state.
    pub fn tile_state(&self) -> &AccelTileState {
        &self.st
    }

    /// Restores state cloned from [`AccelTile::tile_state`]. Installed
    /// faults are replaced wholesale: restoring a fault-free snapshot
    /// uninstalls any plan armed since it was taken.
    pub fn restore_state(&mut self, state: &AccelTileState) {
        self.st.clone_from(state);
    }

    /// What this tile is waiting on, for the timeout deadlock diagnosis.
    /// Returns `None` when the tile is making progress on its own.
    pub(crate) fn blocked_info(&self) -> Option<BlockedTile> {
        let received = self.frame_words_received();
        let (waits_on, plane, reason) = match self.st.state {
            AccelState::LoadWait if received < self.st.in_words => {
                if self.st.p2p.load_enabled {
                    let sources = &self.st.p2p.sources;
                    let src = sources[(self.st.frame_idx as usize) % sources.len()];
                    (
                        Some((src.x, src.y)),
                        "dma-rsp",
                        format!(
                            "waiting for p2p data from tile({},{}) for frame {} ({} of {} words received)",
                            src.x, src.y, self.st.frame_idx, received, self.st.in_words
                        ),
                    )
                } else {
                    let (src, _) = self.mem_map.owner(self.st.src_base);
                    (
                        Some((src.x, src.y)),
                        "dma-rsp",
                        format!(
                            "waiting for DMA data from memory for frame {} ({} of {} words received)",
                            self.st.frame_idx, received, self.st.in_words
                        ),
                    )
                }
            }
            AccelState::StoreWaitReq if self.st.pending_p2p_reqs.is_empty() => (
                None,
                "dma-req",
                format!(
                    "output frame {} ready; waiting for a consumer P2pLoadReq",
                    self.st.frame_idx
                ),
            ),
            AccelState::StoreWaitAck if self.st.store_acked_words < self.st.out_words => {
                let (dst, _) = self.mem_map.owner(self.st.dst_base);
                (
                    Some((dst.x, dst.y)),
                    "dma-rsp",
                    format!(
                        "waiting for DMA store acknowledgement ({} of {} words acked)",
                        self.st.store_acked_words, self.st.out_words
                    ),
                )
            }
            _ => return None,
        };
        Some(BlockedTile {
            x: self.coord.x,
            y: self.coord.y,
            device: self.kernel.name().to_string(),
            state: self.st.state.name().to_string(),
            waits_on,
            plane: plane.to_string(),
            reason,
        })
    }

    /// Installs a tracer for phase-change, TLB-miss, p2p and
    /// frame-completion events.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    fn trace_coord(&self) -> TileCoord {
        TileCoord::new(self.coord.x, self.coord.y)
    }

    /// Frames the PLM window holds: two with double buffering, else one.
    fn halves(&self) -> u64 {
        1 + u64::from(self.st.dbuf)
    }

    /// Words of the current frame received so far, in its PLM half.
    fn frame_words_received(&self) -> u64 {
        self.st.rx_counts[(self.st.frame_idx % self.halves()) as usize]
    }

    /// Global frame id of batch frame `idx` under the latched base/stride.
    fn global_frame(&self, idx: u64) -> u64 {
        self.st.frame_base + idx * self.st.frame_stride.max(1)
    }

    /// Moves the FSM to `to`, emitting an [`TraceEvent::AccelPhaseChange`]
    /// when the phase actually changes. Working phases carry the global id
    /// of the frame they serve; `Idle`/`Done` carry no frame.
    fn set_state(&mut self, to: AccelState, now: u64) {
        if self.st.state != to {
            let from = self.st.state.name();
            let frame = match to {
                AccelState::Idle | AccelState::Done => None,
                _ => Some(self.global_frame(self.st.frame_idx)),
            };
            self.tracer
                .emit(now, self.trace_coord(), || TraceEvent::AccelPhaseChange {
                    accel: self.kernel.name().to_string(),
                    from,
                    to: to.name(),
                    frame,
                });
        }
        self.st.state = to;
    }

    /// The tile coordinate (also readable through `LOCATION_REG`).
    pub fn coord(&self) -> Coord {
        self.coord
    }

    /// The kernel name (the device name in the driver registry).
    pub fn kernel_name(&self) -> &str {
        self.kernel.name()
    }

    /// The plugged kernel.
    pub fn kernel(&self) -> &dyn AcceleratorKernel {
        self.kernel.as_ref()
    }

    /// The current FSM state.
    pub fn state(&self) -> AccelState {
        self.st.state
    }

    /// Execution statistics.
    pub fn stats(&self) -> &AccelStats {
        &self.st.stats
    }

    /// Kernel `compute` calls since the tile was built (host-side, like
    /// [`crate::EngineCounters`]).
    pub(crate) fn kernel_invocations(&self) -> u64 {
        self.kernel_invocations
    }

    /// Reads a socket register (driver access through the I/O plane).
    pub fn read_reg(&self, offset: u64) -> u64 {
        self.st.regs.read(offset)
    }

    /// Installs the page table mapping the accelerator's virtual address
    /// space (the driver does this when the user buffer is pinned).
    pub fn set_page_table(&mut self, table: PageTable) {
        self.st.tlb.flush();
        self.st.page_table = Some(table);
    }

    /// Whether the tile is idle (no batch running, no traffic pending).
    pub fn is_idle(&self) -> bool {
        matches!(self.st.state, AccelState::Idle | AccelState::Done) && self.st.tx_queue.is_empty()
    }

    /// Advances the tile by one cycle: the mesh's current cycle, which the
    /// mesh moves past only after every tile has ticked, stamps the
    /// tile's trace events and fault triggers.
    pub fn tick(&mut self, mesh: &mut Mesh) {
        let now = mesh.cycle();
        self.drain_control(mesh, now);
        self.drain_dma_req(mesh);
        self.drain_dma_rsp(mesh);

        if self.st.stall > 0 {
            self.st.stall -= 1;
            self.st.stats.stall_cycles += 1;
        } else {
            self.step_fsm(now);
        }
        if !matches!(self.st.state, AccelState::Idle | AccelState::Done) {
            self.st.stats.busy_cycles += 1;
        }

        inject_queued(mesh, self.coord, &mut self.st.tx_queue);
    }

    /// Event-driven wake cycle at `now`: `now` when the tile may act this
    /// cycle, [`NEVER`] when it waits only on packets or a start command.
    ///
    /// The countdown wakes mirror [`AccelTile::tick`]'s boring paths
    /// exactly: a stall of `s` burns `s` decrement ticks before the FSM
    /// steps again, and a compute phase at countdown `c` (NoC-clock ticks)
    /// transitions on its `c`-th tick.
    pub fn wake(&self, now: u64) -> u64 {
        if !self.st.tx_queue.is_empty() {
            return now;
        }
        if matches!(self.st.state, AccelState::Idle | AccelState::Done) {
            return NEVER;
        }
        if self.st.stall > 0 {
            return now + self.st.stall;
        }
        let ready = match self.st.state {
            AccelState::LoadIssue | AccelState::StoreIssue | AccelState::StoreSend => true,
            AccelState::LoadWait => self.frame_words_received() >= self.st.in_words,
            AccelState::Compute => return now.saturating_add(self.st.compute_countdown - 1),
            AccelState::StoreWaitReq => !self.st.pending_p2p_reqs.is_empty(),
            AccelState::StoreWaitAck => self.st.store_acked_words >= self.st.out_words,
            AccelState::Idle | AccelState::Done => unreachable!("handled above"),
        };
        if ready {
            now
        } else {
            NEVER
        }
    }

    /// Bulk-applies `delta` boring cycles: the stall/compute countdowns
    /// and the busy/stall/load/compute/store statistics advance exactly as
    /// `delta` naive ticks would have. No clock moves: the tile keeps
    /// none, and takes the cycle from the mesh when it ticks.
    pub fn advance(&mut self, delta: u64) {
        if delta == 0 || matches!(self.st.state, AccelState::Idle | AccelState::Done) {
            return;
        }
        self.st.stats.busy_cycles += delta;
        if self.st.stall > 0 {
            debug_assert!(delta <= self.st.stall, "advance past the stall countdown");
            self.st.stall -= delta;
            self.st.stats.stall_cycles += delta;
            return;
        }
        match self.st.state {
            AccelState::LoadWait => self.st.stats.load_cycles += delta,
            AccelState::Compute => {
                self.st.stats.compute_cycles += delta;
                debug_assert!(
                    delta < self.st.compute_countdown,
                    "advance past the compute countdown"
                );
                self.st.compute_countdown -= delta;
            }
            AccelState::StoreWaitReq | AccelState::StoreSend | AccelState::StoreWaitAck => {
                self.st.stats.store_cycles += delta;
            }
            AccelState::Idle
            | AccelState::Done
            | AccelState::LoadIssue
            | AccelState::StoreIssue => {}
        }
    }

    fn drain_control(&mut self, mesh: &mut Mesh, now: u64) {
        while let Some(pkt) = mesh.eject(self.coord, Plane::IoIrq) {
            match pkt.kind() {
                MsgKind::RegWrite => {
                    let offset = pkt.payload()[0];
                    let value = pkt.payload()[1];
                    self.st.regs.write(offset, value);
                    if offset == REG_CMD && value == CMD_START {
                        self.start_batch(now);
                    }
                }
                MsgKind::RegReadReq => {
                    let offset = pkt.payload()[0];
                    self.st.tx_queue.push_back(Packet::new(
                        self.coord,
                        pkt.src(),
                        Plane::IoIrq,
                        MsgKind::RegReadRsp,
                        vec![offset, self.st.regs.read(offset)],
                    ));
                }
                _ => {}
            }
        }
    }

    fn drain_dma_req(&mut self, mesh: &mut Mesh) {
        while let Some(pkt) = mesh.eject(self.coord, Plane::DmaReq) {
            if pkt.kind() == MsgKind::P2pLoadReq {
                let len = pkt.payload()[0];
                let dest_base = pkt.payload().get(1).copied().unwrap_or(0);
                self.st
                    .pending_p2p_reqs
                    .push_back((pkt.src(), len, dest_base));
            }
        }
    }

    fn drain_dma_rsp(&mut self, mesh: &mut Mesh) {
        while let Some(pkt) = mesh.eject(self.coord, Plane::DmaRsp) {
            match pkt.kind() {
                MsgKind::DmaData => {
                    let offset = pkt.payload()[0] as usize;
                    let data = &pkt.payload()[1..];
                    self.st.stats.words_received += data.len() as u64;
                    if let Some(plm) = self.st.rx_buf.get_mut(offset..offset + data.len()) {
                        plm.copy_from_slice(data);
                        let half = usize::from(offset as u64 >= self.st.in_words);
                        self.st.rx_counts[half] += data.len() as u64;
                    } else {
                        self.st.ledger.violated(|| {
                            Diagnostic::error(
                                codes::DMA_ACCOUNTING,
                                tile_location(self.coord),
                                format!(
                                    "DmaData burst of {} words at offset {offset} overruns the \
                                     {}-word receive buffer",
                                    data.len(),
                                    self.st.rx_buf.len()
                                ),
                            )
                        });
                    }
                }
                MsgKind::DmaStoreAck => {
                    self.st.store_acked_words += pkt.payload()[0];
                }
                _ => {}
            }
        }
    }

    /// Evaluates armed faults against this start command. Returns `true`
    /// when a hang fault swallows the command; latches `short_drop` when a
    /// short-output fault matches. Trigger indices count *start commands*,
    /// so a bounded hang clears itself on the driver's retry.
    fn fault_on_start(&mut self, cycle: u64) -> bool {
        let Some(f) = self.st.faults.as_deref_mut() else {
            return false;
        };
        let seq = f.invocations;
        f.invocations += 1;
        let hang = f.specs.iter().find_map(|s| match s.kind {
            FaultKind::AccelHang { .. } if s.fires(seq, cycle) => Some(s.kind.label()),
            _ => None,
        });
        if let Some(fault) = hang {
            f.fired += 1;
            // The hung device accepted the command (status says running)
            // but its FSM never leaves Idle: only the driver's watchdog
            // can tell the difference.
            self.st.regs.set_status(STATUS_RUNNING);
            let name = self.kernel.name();
            let detail = format!("{fault}: {name} swallowed start command for invocation {seq}");
            self.tracer
                .emit(cycle, self.trace_coord(), || TraceEvent::FaultInjected {
                    fault,
                    detail,
                });
            return true;
        }
        let short = f.specs.iter().find_map(|s| match s.kind {
            FaultKind::AccelShortOutput { drop_words, .. } if s.fires(seq, cycle) => {
                Some((s.kind.label(), drop_words))
            }
            _ => None,
        });
        if let Some((fault, drop_words)) = short {
            f.fired += 1;
            self.st.short_drop = drop_words;
            let name = self.kernel.name();
            let detail = format!(
                "{fault}: {name} will drop {drop_words} output words per frame \
                 of invocation {seq}"
            );
            self.tracer
                .emit(cycle, self.trace_coord(), || TraceEvent::FaultInjected {
                    fault,
                    detail,
                });
        } else {
            self.st.short_drop = 0;
        }
        false
    }

    fn start_batch(&mut self, now: u64) {
        if matches!(self.st.state, AccelState::Idle | AccelState::Done) {
            if self.fault_on_start(now) {
                return;
            }
            self.st.in_values = match self.st.regs.read(REG_CONF_SIZE) {
                0 => self.kernel.input_values(),
                v => v,
            };
            self.st.out_values = match self.st.regs.read(REG_CONF_OUT_SIZE) {
                0 => self.kernel.output_values(),
                v => v,
            };
            let bits = self.kernel.data_bits();
            self.st.in_words = words_for(self.st.in_values, bits);
            self.st.out_words = words_for(self.st.out_values, bits);
            self.st.src_base = self.st.regs.read(REG_SRC_OFFSET);
            self.st.dst_base = self.st.regs.read(REG_DST_OFFSET);
            self.st.n_frames = self.st.regs.read(REG_N_FRAMES).max(1);
            self.st.p2p = P2pConfig::from_reg(self.st.regs.read(REG_P2P));
            self.st.dbuf =
                (self.st.regs.read(REG_FLAGS) & FLAG_DOUBLE_BUFFER) != 0 && self.st.n_frames > 1;
            self.st.dvfs_divider = self.st.regs.read(REG_DVFS).max(1);
            self.st.frame_base = self.st.regs.read(REG_FRAME_BASE);
            self.st.frame_stride = self.st.regs.read(REG_FRAME_STRIDE).max(1);
            self.st.frame_idx = 0;
            self.st.loads_issued = 0;
            self.st.rx_counts = [0; 2];
            self.st.rx_buf.clear();
            let plm_words = self.halves() * self.st.in_words;
            self.st.rx_buf.resize(plm_words as usize, 0);
            self.st.regs.set_status(STATUS_RUNNING);
            self.set_state(AccelState::LoadIssue, now);
        }
    }

    fn step_fsm(&mut self, now: u64) {
        match self.st.state {
            AccelState::Idle | AccelState::Done => {}
            AccelState::LoadIssue => self.issue_loads(now),
            AccelState::LoadWait => {
                if self.frame_words_received() >= self.st.in_words {
                    self.run_kernel(now);
                } else {
                    self.st.stats.load_cycles += 1;
                }
            }
            AccelState::Compute => {
                self.st.stats.compute_cycles += 1;
                self.st.compute_countdown -= 1;
                if self.st.compute_countdown == 0 {
                    self.set_state(AccelState::StoreIssue, now);
                }
            }
            AccelState::StoreIssue => self.issue_store(now),
            AccelState::StoreWaitReq => {
                if let Some((requester, len, dest_base)) = self.st.pending_p2p_reqs.pop_front() {
                    if len != self.st.out_words {
                        self.st.ledger.violated(|| {
                            Diagnostic::error(
                                codes::DMA_ACCOUNTING,
                                tile_location(self.coord),
                                format!(
                                    "p2p consumer tile({},{}) requested {len} words but the \
                                     producer frame is {} words",
                                    requester.x, requester.y, self.st.out_words
                                ),
                            )
                        });
                    }
                    let data = std::mem::take(&mut self.st.output_buffer);
                    let words = data.len() as u64;
                    let frame = Some(self.global_frame(self.st.frame_idx));
                    self.tracer
                        .emit(now, self.trace_coord(), || TraceEvent::P2pTransfer {
                            dest: TileCoord::new(requester.x, requester.y),
                            words,
                            frame,
                        });
                    self.st.stats.p2p_words_sent += words;
                    let dma = Dma::new(self.coord, requester, frame);
                    self.st.tx_queue.extend(dma.data(dest_base, &data));
                    self.set_state(AccelState::StoreSend, now);
                } else {
                    self.st.stats.store_cycles += 1;
                }
            }
            AccelState::StoreSend => {
                if self.st.tx_queue.is_empty() {
                    self.finish_frame(now);
                } else {
                    self.st.stats.store_cycles += 1;
                }
            }
            AccelState::StoreWaitAck => {
                if self.st.store_acked_words >= self.st.out_words {
                    self.finish_frame(now);
                } else {
                    self.st.stats.store_cycles += 1;
                }
            }
        }
    }

    /// Issues the load of every not-yet-requested frame within the PLM
    /// window that starts at the current frame.
    fn issue_loads(&mut self, now: u64) {
        let window_end = (self.st.frame_idx + self.halves()).min(self.st.n_frames);
        while self.st.loads_issued < window_end {
            self.issue_load_for(self.st.loads_issued, now);
            self.st.loads_issued += 1;
        }
        self.set_state(AccelState::LoadWait, now);
    }

    /// Issues the load requests for one frame into its PLM half.
    fn issue_load_for(&mut self, frame: u64, now: u64) {
        let dest_base = (frame % self.halves()) * self.st.in_words;
        let global = Some(self.global_frame(frame));
        if self.st.p2p.load_enabled {
            let sources = &self.st.p2p.sources;
            let src = sources[(frame as usize) % sources.len()];
            let req = Dma::new(self.coord, src, global).p2p_load_req([self.st.in_words, dest_base]);
            self.st.tx_queue.push_back(req);
            return;
        }
        let va = self.st.src_base + frame * self.st.in_words;
        let mut dest_offset = dest_base;
        for (mem_tile, local_addr, l) in self.dma_pieces(va, self.st.in_words, now) {
            self.st.stats.dma_words_loaded += l;
            let req = Dma::new(self.coord, mem_tile, global).load_req([local_addr, l, dest_offset]);
            self.st.tx_queue.push_back(req);
            dest_offset += l;
        }
    }

    /// Translates the `len`-word DMA burst at virtual address `va` into
    /// per-memory-tile pieces `(tile, local address, words)`, charging
    /// the TLB lookup and the descriptor setup.
    fn dma_pieces(&mut self, va: u64, len: u64, now: u64) -> Vec<(Coord, u64, u64)> {
        let table = self
            .st
            .page_table
            .as_ref()
            .expect("page table installed before DMA");
        let (_, tlb_lat) = self
            .st
            .tlb
            .translate(table, va)
            .expect("mapped DMA address");
        if tlb_lat > 0 {
            self.tracer
                .emit(now, self.trace_coord(), || TraceEvent::TlbMiss {
                    penalty: tlb_lat,
                });
        }
        self.st.stall += tlb_lat + DMA_SETUP_CYCLES;
        let chunks = table.translate_range(va, len).expect("mapped DMA range");
        chunks
            .into_iter()
            .flat_map(|(paddr, words)| self.mem_map.split_range(paddr, words))
            .collect()
    }

    fn run_kernel(&mut self, now: u64) {
        let half = self.st.frame_idx % self.halves();
        let in_words = self.st.in_words as usize;
        let plm = &self.st.rx_buf[half as usize * in_words..][..in_words];
        let bits = self.kernel.data_bits();
        let input = unpack_values(plm, self.st.in_values as usize, bits);
        self.st.rx_counts[half as usize] = 0;
        if self.st.dbuf {
            // The consumed half is free: prefetch the next window frame. A
            // single-buffered PLM frees only when its frame finishes.
            let next = self.st.frame_idx + 2;
            if next < self.st.n_frames && self.st.loads_issued <= next {
                self.issue_load_for(next, now);
                self.st.loads_issued = next + 1;
            }
        }
        let values = self.kernel.compute(&input);
        self.kernel_invocations += 1;
        debug_assert_eq!(
            values.len() as u64,
            self.kernel.output_values(),
            "kernel output size contract"
        );
        self.st.output_buffer = pack_values(&values, bits);
        debug_assert_eq!(self.st.output_buffer.len() as u64, self.st.out_words);
        if self.st.short_drop > 0 {
            // Wrong-length-result fault: the datapath produced fewer words
            // than the descriptor promised. At least one word survives so
            // the store still engages (and then starves on the shortfall).
            let keep = (self.st.output_buffer.len() as u64)
                .saturating_sub(self.st.short_drop)
                .max(1);
            self.st.output_buffer.truncate(keep as usize);
        }
        // Per-tile DVFS divides only the datapath clock: the kernel's
        // declared latency cycles last `divider` NoC-clock ticks each,
        // while the socket stays on the NoC clock.
        self.st.compute_countdown = self
            .kernel
            .latency()
            .max(1)
            .saturating_mul(self.st.dvfs_divider);
        self.set_state(AccelState::Compute, now);
    }

    fn issue_store(&mut self, now: u64) {
        if self.st.p2p.store_enabled {
            self.set_state(AccelState::StoreWaitReq, now);
            return;
        }
        let va = self.st.dst_base + self.st.frame_idx * self.st.out_words;
        let pieces = self.dma_pieces(va, self.st.out_words, now);
        let global = Some(self.global_frame(self.st.frame_idx));
        self.st.store_acked_words = 0;
        let data = std::mem::take(&mut self.st.output_buffer);
        let mut cursor = 0;
        for (mem_tile, local_addr, l) in pieces {
            // A short-output fault leaves fewer words in the PLM than the
            // descriptor covers; only what exists is sent (the ack
            // shortfall is what the watchdog then sees).
            let end = (cursor + l as usize).min(data.len());
            let words = &data[cursor..end];
            self.st.stats.dma_words_stored += words.len() as u64;
            let dma = Dma::new(self.coord, mem_tile, global);
            self.st.tx_queue.extend(dma.store(local_addr, words));
            cursor = end;
        }
        self.set_state(AccelState::StoreWaitAck, now);
    }

    fn finish_frame(&mut self, now: u64) {
        self.st.stats.frames_done += 1;
        let frame = self.global_frame(self.st.frame_idx);
        self.tracer
            .emit(now, self.trace_coord(), || TraceEvent::FrameComplete {
                accel: self.kernel.name().to_string(),
                frame,
            });
        self.st.frame_idx += 1;
        if self.st.frame_idx >= self.st.n_frames {
            self.st.regs.set_status(STATUS_DONE);
            self.set_state(AccelState::Done, now);
            self.st.tx_queue.push_back(Packet::new(
                self.coord,
                self.irq_target,
                Plane::IoIrq,
                MsgKind::Irq,
                vec![self.coord.to_reg()],
            ));
        } else {
            self.set_state(AccelState::LoadIssue, now);
        }
    }
}

// Unit tests for the tile FSM live in the `soc` module's tests, where a
// full mesh + memory tile environment is available; see `soc.rs`.

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_constructors_select_p2p_sides() {
        let sides = |c: AccelConfig| (c.p2p.load_enabled, c.p2p.store_enabled);
        assert_eq!(sides(AccelConfig::dma_to_dma(0, 0, 1)), (false, false));
        assert_eq!(sides(AccelConfig::dma_to_p2p(0, 1)), (false, true));
        let src = vec![Coord::new(1, 1)];
        assert_eq!(
            sides(AccelConfig::p2p_to_dma(src.clone(), 0, 1)),
            (true, false)
        );
        assert_eq!(sides(AccelConfig::p2p_to_p2p(src, 1)), (true, true));
    }
}
