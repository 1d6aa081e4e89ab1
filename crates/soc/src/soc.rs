//! SoC construction (the `.esp_config` analog) and the cycle simulator.

use crate::accel_tile::{AccelConfig, AccelTile, AccelTileState};
use crate::kernel::{pack_values, unpack_values, words_for, AcceleratorKernel};
use crate::mem_map::MemMap;
use crate::mem_tile::{MemTile, MemTileState};
use crate::proc_tile::ProcTile;
use crate::regs::{self, CMD_START};
use crate::sanitize::{wait_cycle, InvariantLedger};
use crate::stats::SocStats;
use crate::{BlockedTile, DeadlockDiagnosis, SocError};
use esp4ml_check::{codes, Diagnostic, Report};
use esp4ml_fault::FaultPlan;
use esp4ml_hls::Resources;
use esp4ml_mem::{CacheConfig, CacheStats, CachedDramState, DramConfig, PageTable};
use esp4ml_noc::{Coord, Mesh, MeshConfig, MeshState, NocHeatmap, NocStats, NEVER};
use esp4ml_trace::{CounterRegistry, CounterSeries, Tracer};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Which simulation engine drives [`Soc::step`] and the run loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SocEngine {
    /// Tick every component every cycle — the reference oracle.
    Naive,
    /// Hand every span before the earliest tile wake cycle to the
    /// mesh, which ticks through its traffic and jumps its clock
    /// over idle stretches; the tiles catch up in bulk. Cycle-exact with
    /// [`SocEngine::Naive`]: identical metrics, counters, sampling rows
    /// and trace events.
    #[default]
    EventDriven,
}

impl SocEngine {
    /// The canonical name (`naive` / `event-driven`), as recorded in
    /// every machine-readable report.
    pub fn name(self) -> &'static str {
        match self {
            SocEngine::Naive => "naive",
            SocEngine::EventDriven => "event-driven",
        }
    }
}

/// How the engine advanced a [`Soc`]'s clock and how many kernel
/// computations it ran, read through [`Soc::engine_counters`].
///
/// These are host-side counters, not machine state: they count what this
/// `Soc` instance did since it was built, are never captured by
/// [`Soc::snapshot`] or touched by [`Soc::restore`], and appear in no
/// statistics or rendered artifact (so they differ between engines
/// without breaking the engines' byte-identity contract). On an instance
/// that was never restored, `ticked_cycles + mesh_only_cycles +
/// stream_cycles + fast_forwarded_cycles` is [`Soc::cycle`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Cycles executed by a full [`Soc::tick`] of every component.
    pub ticked_cycles: u64,
    /// Cycles of a boring span on which only the mesh ticked, every tile
    /// being caught up afterwards (always zero under
    /// [`SocEngine::Naive`]).
    pub mesh_only_cycles: u64,
    /// Cycles of a boring span that the mesh jumped in closed form while
    /// one lone worm stream carried every in-flight flit (always zero
    /// under [`SocEngine::Naive`]; see [`Mesh::run_alone`]).
    pub stream_cycles: u64,
    /// Cycles of a boring span that the mesh jumped over instead of
    /// ticking, being idle or holding only fault-delayed packets (always
    /// zero under [`SocEngine::Naive`]).
    pub fast_forwarded_cycles: u64,
    /// Accelerator kernel computations run (one per
    /// [`crate::AcceleratorKernel::compute`] call, summed over all tiles).
    pub kernel_invocations: u64,
}

/// How a bounded run ([`Soc::run_until_idle`]) ended.
#[must_use]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// The SoC went quiescent after this many cycles.
    Idle {
        /// Cycles executed before quiescence.
        cycles: u64,
    },
    /// The cycle budget ran out with work still pending (a stuck
    /// accelerator, an unserviced p2p request, a deadlocked pipeline).
    TimedOut {
        /// Cycles executed (the full budget).
        cycles: u64,
        /// Wait-for-graph walk of the stuck SoC, when any tile was
        /// blocked at timeout. Identical across engines.
        diagnosis: Option<Box<DeadlockDiagnosis>>,
    },
}

impl RunOutcome {
    /// Cycles executed, however the run ended.
    pub fn cycles(&self) -> u64 {
        match self {
            RunOutcome::Idle { cycles } | RunOutcome::TimedOut { cycles, .. } => *cycles,
        }
    }

    /// True when the run reached quiescence.
    pub fn is_idle(&self) -> bool {
        matches!(self, RunOutcome::Idle { .. })
    }

    /// True when the cycle budget ran out first.
    pub fn timed_out(&self) -> bool {
        matches!(self, RunOutcome::TimedOut { .. })
    }

    /// The deadlock diagnosis attached to a timeout, when one exists.
    pub fn diagnosis(&self) -> Option<&DeadlockDiagnosis> {
        match self {
            RunOutcome::TimedOut {
                diagnosis: Some(d), ..
            } => Some(d),
            _ => None,
        }
    }
}

/// What occupies a grid position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TileKind {
    /// A processor tile (Ariane RISC-V in the paper's SoCs).
    Processor,
    /// A memory tile fronting off-chip DRAM.
    Memory,
    /// An accelerator tile.
    Accelerator,
    /// An auxiliary tile (Ethernet, UART, debug).
    Auxiliary,
    /// Unoccupied (router only).
    Empty,
}

/// Builder for an ESP SoC instance: the floorplan step of the design flow,
/// where the ESP graphical configuration interface "can be used to pick the
/// location of each accelerator in the SoC" (paper, §IV).
pub struct SocBuilder {
    cols: usize,
    rows: usize,
    clock_mhz: f64,
    engine: SocEngine,
    procs: Vec<Coord>,
    mems: Vec<(Coord, DramConfig, Option<CacheConfig>)>,
    aux: Vec<Coord>,
    accels: Vec<(Coord, Box<dyn AcceleratorKernel>)>,
}

impl std::fmt::Debug for SocBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SocBuilder")
            .field("cols", &self.cols)
            .field("rows", &self.rows)
            .field("accels", &self.accels.len())
            .finish()
    }
}

impl SocBuilder {
    /// Starts a floorplan for a `cols x rows` mesh, clocked at the paper's
    /// FPGA frequency (78 MHz) by default.
    pub fn new(cols: usize, rows: usize) -> Self {
        SocBuilder {
            cols,
            rows,
            clock_mhz: 78.0,
            engine: SocEngine::default(),
            procs: Vec::new(),
            mems: Vec::new(),
            aux: Vec::new(),
            accels: Vec::new(),
        }
    }

    /// Sets the SoC clock in MHz.
    pub fn clock_mhz(mut self, mhz: f64) -> Self {
        self.clock_mhz = mhz;
        self
    }

    /// Selects the simulation engine (event-driven by default).
    pub fn engine(mut self, engine: SocEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Places a processor tile.
    pub fn processor(mut self, coord: Coord) -> Self {
        self.procs.push(coord);
        self
    }

    /// Places a memory tile with the default DRAM configuration.
    pub fn memory(self, coord: Coord) -> Self {
        self.memory_with(coord, DramConfig::default())
    }

    /// Places a memory tile with an explicit DRAM configuration.
    pub fn memory_with(mut self, coord: Coord, config: DramConfig) -> Self {
        self.mems.push((coord, config, None));
        self
    }

    /// Places a memory tile whose DRAM sits behind an LLC partition, so
    /// accelerator DMA through this tile is LLC-coherent.
    pub fn memory_llc(mut self, coord: Coord, config: DramConfig, cache: CacheConfig) -> Self {
        self.mems.push((coord, config, Some(cache)));
        self
    }

    /// Places an auxiliary tile.
    pub fn auxiliary(mut self, coord: Coord) -> Self {
        self.aux.push(coord);
        self
    }

    /// Places an accelerator tile hosting `kernel`.
    pub fn accelerator(mut self, coord: Coord, kernel: Box<dyn AcceleratorKernel>) -> Self {
        self.accels.push((coord, kernel));
        self
    }

    /// Builds the SoC.
    ///
    /// # Errors
    ///
    /// * [`SocError::MissingTile`] without at least one processor and one
    ///   memory tile;
    /// * [`SocError::TileConflict`] when two tiles share a coordinate;
    /// * [`SocError::Noc`] when the grid dimensions are invalid or a tile
    ///   lies outside it.
    pub fn build(self) -> Result<Soc, SocError> {
        let mesh = Mesh::new(MeshConfig::new(self.cols, self.rows))?;
        if self.procs.is_empty() {
            return Err(SocError::MissingTile { kind: "processor" });
        }
        if self.mems.is_empty() {
            return Err(SocError::MissingTile { kind: "memory" });
        }
        let primary_proc = self.procs[0];
        // All memory tiles must expose the same capacity so the
        // block-interleaved address map stays uniform.
        let tile_words = self.mems[0].1.size_words;
        if self
            .mems
            .iter()
            .any(|(_, cfg, _)| cfg.size_words != tile_words)
        {
            return Err(SocError::BadConfig(
                "memory tiles must have equal DRAM capacity for interleaving".into(),
            ));
        }
        let mem_map = MemMap::new(
            self.mems.iter().map(|(c, _, _)| *c).collect(),
            MemMap::DEFAULT_INTERLEAVE_WORDS,
            tile_words,
        );

        let mut tile_map: HashMap<Coord, (TileKind, usize)> = HashMap::new();
        let mut claim = |coord: Coord, kind: TileKind, idx: usize| -> Result<(), SocError> {
            if coord.x as usize >= self.cols || coord.y as usize >= self.rows {
                return Err(SocError::Noc(esp4ml_noc::NocError::OutOfBounds {
                    coord,
                    cols: self.cols,
                    rows: self.rows,
                }));
            }
            if tile_map.insert(coord, (kind, idx)).is_some() {
                return Err(SocError::TileConflict { coord });
            }
            Ok(())
        };

        let mut proc_tiles = Vec::new();
        for (i, &c) in self.procs.iter().enumerate() {
            claim(c, TileKind::Processor, i)?;
            proc_tiles.push(ProcTile::new(c));
        }
        let mut mem_tiles = Vec::new();
        for (i, (c, cfg, llc)) in self.mems.iter().enumerate() {
            claim(*c, TileKind::Memory, i)?;
            mem_tiles.push(match llc {
                Some(cache) => MemTile::with_llc(*c, *cfg, *cache),
                None => MemTile::new(*c, *cfg),
            });
        }
        for (i, &c) in self.aux.iter().enumerate() {
            claim(c, TileKind::Auxiliary, i)?;
        }
        let mut accel_tiles = Vec::new();
        for (i, (c, kernel)) in self.accels.into_iter().enumerate() {
            claim(c, TileKind::Accelerator, i)?;
            accel_tiles.push(AccelTile::new(c, kernel, mem_map.clone(), primary_proc));
        }

        Ok(Soc {
            mesh,
            proc_tiles,
            mem_tiles,
            accel_tiles,
            aux_tiles: self.aux,
            tile_map,
            mem_map,
            clock_hz: self.clock_mhz * 1.0e6,
            tracer: Tracer::disabled(),
            series: None,
            engine: self.engine,
            sanitizer: InvariantLedger::default(),
            counters: EngineCounters::default(),
        })
    }
}

/// The complete serializable machine state of a [`Soc`], captured by
/// [`Soc::snapshot`] and reinstated by [`Soc::restore`].
///
/// A snapshot covers everything that influences future simulation:
/// mesh planes, routers and in-flight flits; socket FSMs, registers and
/// PLM contents; memory-tile DRAM images and in-flight DMA state;
/// pending interrupts; every statistics counter and sampling series; the
/// sanitizer ledgers; and installed fault plans *with their trigger
/// counts*, so a restored run fires its remaining faults at the same
/// architectural events as the original. Each part is a clone of the
/// component's live machine state; only DRAM contents travel in a
/// different form, as sparse spans.
///
/// Deliberately excluded:
///
/// * **Structure** — grid dimensions, tile placement, kernels, DRAM/LLC
///   geometry and the memory map. (Routing is fixed XY computed from
///   tile coordinates, so it has no state to save.) A snapshot restores
///   only onto a SoC built from the same floorplan; [`Soc::restore`]
///   validates the structural fit, including the processor-tile
///   coordinates and LLC geometry that ride along in cloned state.
/// * **The engine** — [`SocEngine::Naive`] and
///   [`SocEngine::EventDriven`] are cycle-exact by contract and keep no
///   hidden state, so a snapshot taken under one engine resumes
///   byte-identically under the other.
/// * **The tracer** — a live host-side sink handle, not machine state.
///   The restored SoC keeps emitting into whatever tracer it already
///   has.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SocSnapshot {
    /// NoC state: routers, in-flight flits, endpoint queues, stats,
    /// sanitizer shadow state and armed NoC faults.
    pub mesh: MeshState,
    /// Processor tiles, in placement order.
    pub proc_tiles: Vec<ProcTile>,
    /// Memory tiles, in placement order: the sparse DRAM (and LLC) image
    /// and the rest of the tile's state.
    pub mem_tiles: Vec<(CachedDramState, MemTileState)>,
    /// Accelerator tiles, in placement order.
    pub accel_tiles: Vec<AccelTileState>,
    /// The counter sampling series, when sampling is on.
    pub series: Option<CounterSeries>,
    /// The SoC-level sanitizer ledger.
    sanitizer: InvariantLedger,
}

/// A complete, running ESP SoC instance.
///
/// See the [crate-level documentation](crate) for a usage example.
#[derive(Debug)]
pub struct Soc {
    mesh: Mesh,
    proc_tiles: Vec<ProcTile>,
    mem_tiles: Vec<MemTile>,
    accel_tiles: Vec<AccelTile>,
    aux_tiles: Vec<Coord>,
    tile_map: HashMap<Coord, (TileKind, usize)>,
    mem_map: MemMap,
    clock_hz: f64,
    tracer: Tracer,
    series: Option<CounterSeries>,
    engine: SocEngine,
    sanitizer: InvariantLedger,
    counters: EngineCounters,
}

impl Soc {
    /// Socket resources instantiated per accelerator tile (DMA engine, TLB,
    /// register file, wrapper FIFOs and double-buffered PLM).
    const SOCKET: Resources = Resources::new(11_000, 14_000, 16, 0);
    /// A processor tile: Ariane core plus L1/L2 caches.
    const PROC_TILE: Resources = Resources::new(95_000, 80_000, 80, 27);
    /// A memory tile: DDR controller front-end and coherence directory.
    const MEM_TILE: Resources = Resources::new(30_000, 35_000, 72, 0);
    /// An auxiliary tile (Ethernet, UART, interrupt controller).
    const AUX_TILE: Resources = Resources::new(18_000, 20_000, 16, 0);
    /// Six-plane router plus NoC interface, per grid position.
    const ROUTER: Resources = Resources::new(4_000, 5_000, 0, 0);

    /// The clock frequency in Hz.
    pub fn clock_hz(&self) -> f64 {
        self.clock_hz
    }

    /// Current cycle count.
    pub fn cycle(&self) -> u64 {
        self.mesh.cycle()
    }

    /// The kind of tile at `coord` ([`TileKind::Empty`] if unoccupied).
    pub fn tile_kind(&self, coord: Coord) -> TileKind {
        self.tile_map
            .get(&coord)
            .map_or(TileKind::Empty, |&(k, _)| k)
    }

    /// Coordinates of all accelerator tiles, in placement order.
    pub fn accel_coords(&self) -> Vec<Coord> {
        self.accel_tiles.iter().map(|t| t.coord()).collect()
    }

    /// Finds an accelerator tile by kernel (device) name.
    pub fn accel_by_name(&self, name: &str) -> Option<Coord> {
        self.accel_tiles
            .iter()
            .find(|t| t.kernel_name() == name)
            .map(|t| t.coord())
    }

    fn accel_index(&self, coord: Coord) -> Result<usize, SocError> {
        match self.tile_map.get(&coord) {
            Some(&(TileKind::Accelerator, idx)) => Ok(idx),
            _ => Err(SocError::WrongTile {
                coord,
                expected: "accelerator",
            }),
        }
    }

    /// The accelerator tile at `coord`.
    ///
    /// # Errors
    ///
    /// [`SocError::WrongTile`] if `coord` is not an accelerator tile.
    pub fn accel(&self, coord: Coord) -> Result<&AccelTile, SocError> {
        Ok(&self.accel_tiles[self.accel_index(coord)?])
    }

    /// Reads a socket register of an accelerator (functional driver read,
    /// e.g. `LOCATION_REG` at probe time).
    ///
    /// # Errors
    ///
    /// [`SocError::WrongTile`] if `coord` is not an accelerator tile.
    pub fn read_reg(&self, coord: Coord, offset: u64) -> Result<u64, SocError> {
        Ok(self.accel(coord)?.read_reg(offset))
    }

    /// Queues a register write from the (primary) processor tile; the write
    /// travels the I/O NoC plane like a real `ioctl`-path store.
    ///
    /// # Errors
    ///
    /// [`SocError::WrongTile`] if `coord` is not an accelerator tile.
    pub fn write_reg(&mut self, coord: Coord, offset: u64, value: u64) -> Result<(), SocError> {
        self.accel_index(coord)?;
        self.proc_tiles[0].queue_reg_write(coord, offset, value);
        Ok(())
    }

    /// Installs a page table mapping the accelerator's virtual address
    /// space onto physical memory.
    ///
    /// # Errors
    ///
    /// [`SocError::WrongTile`] if `coord` is not an accelerator tile.
    pub fn set_page_table(&mut self, coord: Coord, table: PageTable) -> Result<(), SocError> {
        let idx = self.accel_index(coord)?;
        self.accel_tiles[idx].set_page_table(table);
        Ok(())
    }

    /// Maps a physically contiguous region `[phys_base, phys_base + len)`
    /// as the accelerator's virtual address space (the `esp_alloc` fast
    /// path).
    ///
    /// # Errors
    ///
    /// [`SocError::WrongTile`] for non-accelerator tiles;
    /// [`SocError::BadConfig`] for a zero-length mapping.
    pub fn map_contiguous(
        &mut self,
        coord: Coord,
        phys_base: u64,
        len: u64,
    ) -> Result<(), SocError> {
        let table = PageTable::contiguous(phys_base, len, PageTable::DEFAULT_PAGE_WORDS)
            .map_err(|e| SocError::BadConfig(e.to_string()))?;
        self.set_page_table(coord, table)
    }

    /// Writes the full invocation configuration to an accelerator's socket
    /// registers (each write is one I/O-plane packet).
    ///
    /// # Errors
    ///
    /// [`SocError::WrongTile`] if `coord` is not an accelerator tile;
    /// [`SocError::SizeMismatch`] if a non-zero `conf_size` or `out_size`
    /// differs from the plugged kernel's input or output size. Nothing is
    /// written on error.
    pub fn configure_accel(&mut self, coord: Coord, cfg: &AccelConfig) -> Result<(), SocError> {
        let kernel = self.accel(coord)?.kernel();
        for (field, configured, size) in [
            ("conf_size", cfg.conf_size, kernel.input_values()),
            ("out_size", cfg.out_size, kernel.output_values()),
        ] {
            if configured != 0 && configured != size {
                return Err(SocError::SizeMismatch {
                    coord,
                    field,
                    configured,
                    kernel: size,
                });
            }
        }
        self.write_reg(coord, regs::REG_CONF_SIZE, cfg.conf_size)?;
        self.write_reg(coord, regs::REG_CONF_OUT_SIZE, cfg.out_size)?;
        self.write_reg(coord, regs::REG_SRC_OFFSET, cfg.src_offset)?;
        self.write_reg(coord, regs::REG_DST_OFFSET, cfg.dst_offset)?;
        self.write_reg(coord, regs::REG_N_FRAMES, cfg.n_frames)?;
        self.write_reg(coord, regs::REG_P2P, cfg.p2p.to_reg())?;
        self.write_reg(coord, regs::REG_FLAGS, cfg.flags)?;
        self.write_reg(coord, regs::REG_DVFS, cfg.dvfs_divider)?;
        self.write_reg(coord, regs::REG_FRAME_BASE, cfg.frame_base)?;
        self.write_reg(coord, regs::REG_FRAME_STRIDE, cfg.frame_stride)?;
        Ok(())
    }

    /// Starts the configured batch on an accelerator.
    ///
    /// # Errors
    ///
    /// [`SocError::WrongTile`] if `coord` is not an accelerator tile.
    pub fn start_accel(&mut self, coord: Coord) -> Result<(), SocError> {
        self.write_reg(coord, regs::REG_CMD, CMD_START)
    }

    /// Takes all pending interrupts (accelerator tile coordinates).
    ///
    /// Interrupts already delivered to the processor tile's socket but not
    /// yet seen by its last tick are drained first, so an interrupt raised
    /// by the final cycle of [`Soc::run_until_idle`] is never missed.
    pub fn take_irqs(&mut self) -> Vec<Coord> {
        self.proc_tiles[0].drain_irqs(&mut self.mesh);
        self.proc_tiles[0].take_irqs()
    }

    /// The memory-tile interleaving map.
    pub fn mem_map(&self) -> &MemMap {
        &self.mem_map
    }

    /// Aggregated LLC counters across memory tiles, if any tile hosts an
    /// LLC partition.
    pub fn llc_stats(&self) -> Option<CacheStats> {
        let mut total = CacheStats::default();
        let mut any = false;
        for m in &self.mem_tiles {
            if let Some(s) = m.llc_stats() {
                any = true;
                total.hits += s.hits;
                total.misses += s.misses;
                total.writebacks += s.writebacks;
            }
        }
        any.then_some(total)
    }

    fn mem_index(&self, coord: Coord) -> usize {
        match self.tile_map.get(&coord) {
            Some(&(TileKind::Memory, idx)) => idx,
            _ => unreachable!("mem map coordinates are memory tiles"),
        }
    }

    /// Direct DRAM word write in the interleaved address space (testbench).
    ///
    /// # Errors
    ///
    /// [`SocError::BadAddress`] past the end of DRAM.
    pub fn dram_poke(&mut self, addr: u64, word: u64) -> Result<(), SocError> {
        if addr >= self.mem_map.total_words() {
            return Err(SocError::BadAddress { addr });
        }
        let (tile, local) = self.mem_map.owner(addr);
        let idx = self.mem_index(tile);
        self.mem_tiles[idx].poke(local, word);
        Ok(())
    }

    /// Direct DRAM word read in the interleaved address space (testbench).
    ///
    /// # Errors
    ///
    /// [`SocError::BadAddress`] past the end of DRAM.
    pub fn dram_peek(&self, addr: u64) -> Result<u64, SocError> {
        if addr >= self.mem_map.total_words() {
            return Err(SocError::BadAddress { addr });
        }
        let (tile, local) = self.mem_map.owner(addr);
        let idx = self.mem_index(tile);
        Ok(self.mem_tiles[idx].peek(local))
    }

    /// Packs `values` of `data_bits` bits each and writes them starting at
    /// word address `addr` (testbench initialization, not counted as DRAM
    /// traffic).
    ///
    /// # Errors
    ///
    /// [`SocError::BadAddress`] if the packed data runs past DRAM.
    pub fn dram_write_values(
        &mut self,
        addr: u64,
        values: &[u64],
        data_bits: u32,
    ) -> Result<(), SocError> {
        for (i, word) in pack_values(values, data_bits).into_iter().enumerate() {
            self.dram_poke(addr + i as u64, word)?;
        }
        Ok(())
    }

    /// Reads and unpacks `count` values of `data_bits` bits each starting
    /// at word address `addr` (testbench validation).
    ///
    /// # Errors
    ///
    /// [`SocError::BadAddress`] if the packed data runs past DRAM.
    pub fn dram_read_values(
        &self,
        addr: u64,
        count: usize,
        data_bits: u32,
    ) -> Result<Vec<u64>, SocError> {
        let words = (0..words_for(count as u64, data_bits))
            .map(|i| self.dram_peek(addr + i))
            .collect::<Result<Vec<u64>, SocError>>()?;
        Ok(unpack_values(&words, count, data_bits))
    }

    /// Whether everything — tiles and NoC — is quiescent. Packets sitting
    /// in ejection queues count as pending work: a tile will drain them on
    /// its next tick.
    pub fn is_idle(&self) -> bool {
        self.mesh.is_idle()
            && self.mesh.undelivered_total() == 0
            && self.proc_tiles.iter().all(ProcTile::is_idle)
            && self.mem_tiles.iter().all(MemTile::is_idle)
            && self.accel_tiles.iter().all(AccelTile::is_idle)
    }

    /// The simulation engine currently driving [`Soc::step`].
    pub fn engine(&self) -> SocEngine {
        self.engine
    }

    /// How the engine has advanced the clock so far: cycles ticked,
    /// mesh-only cycles, lone-stream cycles, cycles fast-forwarded and
    /// kernel computations (see [`EngineCounters`]).
    pub fn engine_counters(&self) -> EngineCounters {
        EngineCounters {
            kernel_invocations: self
                .accel_tiles
                .iter()
                .map(AccelTile::kernel_invocations)
                .sum(),
            ..self.counters
        }
    }

    /// Switches the simulation engine (e.g. back to [`SocEngine::Naive`]
    /// as an oracle).
    pub fn set_engine(&mut self, engine: SocEngine) {
        self.engine = engine;
    }

    /// Captures the complete serializable machine state (see
    /// [`SocSnapshot`] for exactly what is and is not included).
    ///
    /// `restore(snapshot(s))` resumes byte-identically under both
    /// engines: metrics, counters, sampling rows, trace events, fault
    /// firings and sanitizer verdicts all continue exactly as if the
    /// original simulation had never been interrupted.
    pub fn snapshot(&self) -> SocSnapshot {
        SocSnapshot {
            mesh: self.mesh.state(),
            proc_tiles: self.proc_tiles.clone(),
            mem_tiles: self.mem_tiles.iter().map(MemTile::state).collect(),
            accel_tiles: self
                .accel_tiles
                .iter()
                .map(|t| t.tile_state().clone())
                .collect(),
            series: self.series.clone(),
            sanitizer: self.sanitizer.clone(),
        }
    }

    /// Reinstates state captured by [`Soc::snapshot`], fully replacing
    /// the current machine state — including sanitizer ledgers and
    /// installed fault plans, so restoring a fault-free snapshot
    /// *uninstalls* any plan armed since it was taken.
    ///
    /// The simulation engine, tracer and [`EngineCounters`] are
    /// untouched: all are host-side concerns, not machine state.
    ///
    /// # Errors
    ///
    /// [`SocError::SnapshotMismatch`] when the snapshot's tile counts do
    /// not match this SoC's floorplan. Deeper structural mismatches
    /// (different grid, DRAM capacity or TLB geometry) panic, as they
    /// indicate the snapshot came from a different [`SocBuilder`] program
    /// entirely.
    pub fn restore(&mut self, snapshot: &SocSnapshot) -> Result<(), SocError> {
        let grid = self.mesh.config().cols * self.mesh.config().rows;
        let mismatch = |what: &str, got: usize, want: usize| {
            Err(SocError::SnapshotMismatch(format!(
                "snapshot has {got} {what}, this SoC has {want}"
            )))
        };
        if snapshot.mesh.routers.len() != grid {
            return mismatch("routers", snapshot.mesh.routers.len(), grid);
        }
        if snapshot.proc_tiles.len() != self.proc_tiles.len() {
            return mismatch(
                "processor tiles",
                snapshot.proc_tiles.len(),
                self.proc_tiles.len(),
            );
        }
        let mut proc_pairs = snapshot.proc_tiles.iter().zip(&self.proc_tiles);
        if proc_pairs.any(|(s, t)| s.coord() != t.coord()) {
            return Err(SocError::SnapshotMismatch(
                "snapshot places its processor tiles elsewhere".to_string(),
            ));
        }
        if snapshot.mem_tiles.len() != self.mem_tiles.len() {
            return mismatch(
                "memory tiles",
                snapshot.mem_tiles.len(),
                self.mem_tiles.len(),
            );
        }
        if snapshot.accel_tiles.len() != self.accel_tiles.len() {
            return mismatch(
                "accelerator tiles",
                snapshot.accel_tiles.len(),
                self.accel_tiles.len(),
            );
        }
        self.mesh.restore_state(&snapshot.mesh);
        self.proc_tiles.clone_from(&snapshot.proc_tiles);
        for (tile, (dram, state)) in self.mem_tiles.iter_mut().zip(&snapshot.mem_tiles) {
            tile.restore_state(dram, state);
        }
        for (tile, state) in self.accel_tiles.iter_mut().zip(&snapshot.accel_tiles) {
            tile.restore_state(state);
        }
        self.series.clone_from(&snapshot.series);
        self.sanitizer.clone_from(&snapshot.sanitizer);
        Ok(())
    }

    /// Advances the SoC by exactly one cycle, ticking every component
    /// (the naive per-cycle contract, regardless of engine).
    pub fn tick(&mut self) {
        self.counters.ticked_cycles += 1;
        for t in &mut self.proc_tiles {
            t.tick(&mut self.mesh);
        }
        for t in &mut self.accel_tiles {
            t.tick(&mut self.mesh);
        }
        for t in &mut self.mem_tiles {
            t.tick(&mut self.mesh);
        }
        self.mesh.tick();
        self.finish_cycle();
    }

    /// The end of an executed cycle, after [`Soc::tick`] or a boring
    /// span: records the [`CounterSeries`] row when the cycle is on the
    /// sampling grid, then runs the sanitizer audit.
    fn finish_cycle(&mut self) {
        let cycle = self.mesh.cycle();
        if self.series.as_ref().is_some_and(|s| s.due(cycle)) {
            let snap = self.counter_registry().snapshot();
            self.series
                .as_mut()
                .expect("sampling on")
                .record(cycle, snap);
        }
        if self.sanitizer.armed() {
            self.sanitize_audit();
        }
    }

    /// Advances the SoC by at least one and at most `limit` cycles and
    /// returns how many elapsed.
    ///
    /// Under [`SocEngine::EventDriven`] the step takes one of two paths:
    ///
    /// - **Boring span.** No packet waits in an ejection queue and the
    ///   earliest tile wake is after the current cycle, so every tile is
    ///   boring until then. A boring tile's tick does not touch the
    ///   mesh, so the mesh runs alone ([`Mesh::run_alone`]), ticking
    ///   through traffic, jumping a lone worm stream to the tick before
    ///   its next tail ejects and jumping over idle stretches, until it
    ///   delivers a packet, or until that wake, `limit` or the next
    ///   sampling cycle. The tiles then catch up in bulk (countdowns and
    ///   statistics: no tile keeps a copy of the clock, which is the
    ///   mesh's alone), and a sampling row due at the span's last cycle
    ///   is recorded as [`Soc::tick`] records it.
    /// - **Otherwise** (a tile wake is due, or a packet waits) one
    ///   [`Soc::tick`].
    ///
    /// Under [`SocEngine::Naive`] this is exactly one [`Soc::tick`].
    pub fn step(&mut self, limit: u64) -> u64 {
        debug_assert!(limit > 0, "step needs a non-zero cycle budget");
        if self.engine == SocEngine::EventDriven && self.mesh.undelivered_total() == 0 {
            let now = self.mesh.cycle();
            let wake = self.tile_wake(now);
            if wake > now {
                let to_sample = self
                    .series
                    .as_ref()
                    .map_or(u64::MAX, |s| (now / s.every() + 1) * s.every() - now);
                let (elapsed, ticked, streamed) =
                    self.mesh.run_alone((wake - now).min(limit).min(to_sample));
                self.counters.mesh_only_cycles += ticked;
                self.counters.stream_cycles += streamed;
                self.counters.fast_forwarded_cycles += elapsed - ticked - streamed;
                self.advance_tiles(elapsed);
                self.finish_cycle();
                return elapsed;
            }
        }
        self.tick();
        1
    }

    /// The earliest tile wake cycle ([`NEVER`] with no tile
    /// waiting on anything but input).
    fn tile_wake(&self, now: u64) -> u64 {
        let procs = self.proc_tiles.iter().map(|t| t.wake(now));
        let accels = self.accel_tiles.iter().map(|t| t.wake(now));
        let mems = self.mem_tiles.iter().map(|t| t.wake(now));
        procs.chain(accels).chain(mems).fold(NEVER, u64::min)
    }

    /// Applies `delta` boring cycles to every tile's countdowns and
    /// statistics (the processor tiles keep no per-cycle state).
    fn advance_tiles(&mut self, delta: u64) {
        for t in &mut self.accel_tiles {
            t.advance(delta);
        }
        for t in &mut self.mem_tiles {
            t.advance(delta);
        }
    }

    /// Runs `n` cycles.
    pub fn run_cycles(&mut self, n: u64) {
        let end = self.cycle() + n;
        while self.cycle() < end {
            self.step(end - self.cycle());
        }
    }

    /// Runs until quiescent or `max_cycles` elapse.
    pub fn run_until_idle(&mut self, max_cycles: u64) -> RunOutcome {
        let start = self.cycle();
        while !self.is_idle() {
            let elapsed = self.cycle() - start;
            if elapsed >= max_cycles {
                return RunOutcome::TimedOut {
                    cycles: elapsed,
                    diagnosis: self.diagnose_deadlock().map(Box::new),
                };
            }
            self.step(max_cycles - elapsed);
        }
        RunOutcome::Idle {
            cycles: self.cycle() - start,
        }
    }

    /// Arms the runtime invariant sanitizer: the mesh shadows its flow
    /// control state (credit/flit conservation, wormhole framing, plane
    /// assignment) and the SoC audits end-to-end DMA word accounting at
    /// every quiescent point. Promoted tile-level invariant asserts fire
    /// as typed diagnostics in release builds too.
    ///
    /// Audits run after every tick and at the end of every boring span,
    /// and verdicts are deduplicated, so [`SocEngine::Naive`] and
    /// [`SocEngine::EventDriven`] produce byte-identical reports.
    pub fn enable_sanitizer(&mut self) {
        self.mesh.enable_sanitizer();
        for a in &mut self.accel_tiles {
            a.ledger_mut().arm();
        }
        for m in &mut self.mem_tiles {
            m.ledger_mut().arm();
        }
        self.sanitizer.arm();
    }

    /// The accumulated sanitizer verdict: every violation observed so
    /// far, across the mesh and all tiles, sorted and deduplicated.
    /// `None` when the sanitizer is not armed.
    pub fn sanitizer_report(&self) -> Option<Report> {
        if !self.sanitizer.armed() {
            return None;
        }
        let mut report = self.mesh.sanitizer_report().unwrap_or_default();
        self.sanitizer.merge_into(&mut report);
        for a in &self.accel_tiles {
            a.ledger().merge_into(&mut report);
        }
        for m in &self.mem_tiles {
            m.ledger().merge_into(&mut report);
        }
        report.normalize();
        Some(report)
    }

    /// Walks the wait-for graph of the accelerator wrappers and names
    /// every blocked tile — and the wait cycle, when the blocking waits
    /// close one. `None` when nothing is blocked (e.g. the timeout came
    /// from slow but progressing work).
    ///
    /// Works whether or not the sanitizer is armed; `run_until_idle`
    /// attaches the result to [`RunOutcome::TimedOut`].
    pub fn diagnose_deadlock(&self) -> Option<DeadlockDiagnosis> {
        let blocked: Vec<BlockedTile> = self
            .accel_tiles
            .iter()
            .filter_map(AccelTile::blocked_info)
            .collect();
        if blocked.is_empty() {
            return None;
        }
        let cycle = wait_cycle(&blocked);
        Some(DeadlockDiagnosis { blocked, cycle })
    }

    /// SoC-level sanitizer audit, run at every tick and boring-span
    /// boundary: end-to-end DMA word accounting across the accelerator
    /// sockets. The conservation law only holds at quiescent points
    /// (in-flight bursts are legitimately unaccounted), so the audit
    /// gates on [`Soc::is_idle`].
    fn sanitize_audit(&mut self) {
        if !self.sanitizer.armed() || !self.is_idle() {
            return;
        }
        let mut received = 0u64;
        let mut loaded = 0u64;
        let mut p2p_sent = 0u64;
        for a in &self.accel_tiles {
            let s = a.stats();
            received += s.words_received;
            loaded += s.dma_words_loaded;
            p2p_sent += s.p2p_words_sent;
        }
        if received != loaded + p2p_sent {
            self.sanitizer.violated(|| {
                Diagnostic::error(
                    codes::DMA_ACCOUNTING,
                    "soc",
                    format!(
                        "DMA word accounting violated at quiescence: accelerators received \
                         {received} words but {loaded} were DMA-loaded and {p2p_sent} were \
                         p2p-forwarded"
                    ),
                )
                .with_hint("a socket dropped or duplicated DmaData words; check the offending tile's receive buffer bounds")
            });
        }
    }

    /// Installs every fault of a plan into its target component: NoC
    /// faults into the mesh, accelerator faults into the named device's
    /// tile, DMA drop faults into the first memory tile. Returns how many
    /// specs found a target (a spec naming an unknown device installs
    /// nowhere and simply never fires).
    ///
    /// Fault triggers count architectural events (invocations, bursts,
    /// packets), which occur at identical cycles under both engines, so an
    /// installed plan perturbs [`SocEngine::Naive`] and
    /// [`SocEngine::EventDriven`] runs byte-identically.
    pub fn install_fault_plan(&mut self, plan: &FaultPlan) -> usize {
        plan.faults
            .iter()
            .filter(|spec| {
                self.mesh.install_fault(spec)
                    || self.accel_tiles.iter_mut().any(|a| a.install_fault(spec))
                    || self
                        .mem_tiles
                        .first_mut()
                        .is_some_and(|m| m.install_fault(spec))
            })
            .count()
    }

    /// Total fault firings so far across the mesh and every tile (0 when
    /// no plan is installed).
    pub fn faults_injected(&self) -> u64 {
        self.mesh.faults_fired()
            + self
                .accel_tiles
                .iter()
                .map(AccelTile::faults_fired)
                .sum::<u64>()
            + self
                .mem_tiles
                .iter()
                .map(MemTile::faults_fired)
                .sum::<u64>()
    }

    /// Hard-resets the accelerator tile at `coord` back to idle — the
    /// driver's recovery action after a watchdog expiry, before retrying
    /// the invocation. Configuration registers and statistics survive.
    /// The tile's phase change to idle is stamped with the last executed
    /// cycle, `cycle() - 1`.
    ///
    /// # Errors
    ///
    /// [`SocError::WrongTile`] if `coord` is not an accelerator tile.
    pub fn reset_accel(&mut self, coord: Coord) -> Result<(), SocError> {
        let idx = self.accel_index(coord)?;
        let now = self.cycle().saturating_sub(1);
        self.accel_tiles[idx].reset(now);
        Ok(())
    }

    /// Fault hook (sanitizer testing): corrupts the shadow credit state
    /// of one router input queue so the next audit reports `E0401`.
    ///
    /// # Panics
    ///
    /// If the sanitizer is not armed or `coord` is out of bounds.
    pub fn fault_leak_credit(&mut self, coord: Coord, plane: esp4ml_noc::Plane) {
        self.mesh
            .fault_leak_credit(coord, plane, esp4ml_noc::Port::Local);
    }

    /// Fault hook (sanitizer testing): corrupts an accelerator's receive
    /// statistics so the next quiescent DMA-accounting audit reports
    /// `E0404`.
    ///
    /// # Panics
    ///
    /// If the sanitizer is not armed or `coord` is not an accelerator.
    pub fn fault_phantom_words(&mut self, coord: Coord, words: u64) {
        assert!(self.sanitizer.armed(), "sanitizer not armed");
        let a = self
            .accel_tiles
            .iter_mut()
            .find(|a| a.coord() == coord)
            .expect("accelerator tile");
        a.fault_phantom_words(words);
    }

    /// Installs a trace sink handle, distributing clones into the mesh,
    /// every accelerator tile and every memory tile so all of them emit
    /// into the same sink.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.mesh.set_tracer(tracer.clone());
        for a in &mut self.accel_tiles {
            a.set_tracer(tracer.clone());
        }
        for m in &mut self.mem_tiles {
            m.set_tracer(tracer.clone());
        }
        self.tracer = tracer;
    }

    /// The SoC-wide trace handle (disabled unless [`Soc::set_tracer`] was
    /// called with an enabled one).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Starts sampling the counter registry every `every` cycles into a
    /// [`CounterSeries`] (see [`Soc::take_counter_series`]).
    pub fn enable_counter_sampling(&mut self, every: u64) {
        self.series = Some(CounterSeries::new(every));
    }

    /// Takes the accumulated counter time-series, stopping sampling.
    pub fn take_counter_series(&mut self) -> Option<CounterSeries> {
        self.series.take()
    }

    /// The aggregate statistics as a named-counter registry — the same
    /// numbers as [`Soc::stats`] behind the generic snapshot API.
    pub fn counter_registry(&self) -> CounterRegistry {
        let stats = self.stats();
        let mut reg = CounterRegistry::new();
        reg.set("soc.cycles", stats.cycles);
        reg.set("soc.dram_reads", stats.dram_word_reads);
        reg.set("soc.dram_writes", stats.dram_word_writes);
        reg.set("noc.flit_hops", stats.noc_flit_hops);
        reg.set("soc.frames", stats.total_frames);
        reg
    }

    /// NoC traffic statistics.
    pub fn noc_stats(&self) -> &NocStats {
        self.mesh.stats()
    }

    /// Per-router, per-link occupancy and credit-stall snapshot for
    /// every NoC plane (the profiling heatmap).
    pub fn noc_heatmap(&self) -> NocHeatmap {
        self.mesh.link_heatmap()
    }

    /// Aggregated SoC statistics.
    pub fn stats(&self) -> SocStats {
        SocStats {
            cycles: self.cycle(),
            dram_word_reads: self
                .mem_tiles
                .iter()
                .map(|m| m.dram_stats().word_reads)
                .sum(),
            dram_word_writes: self
                .mem_tiles
                .iter()
                .map(|m| m.dram_stats().word_writes)
                .sum(),
            noc_flit_hops: self.mesh.stats().total_flit_hops(),
            total_frames: self.accel_tiles.iter().map(|a| a.stats().frames_done).sum(),
        }
    }

    /// Post-synthesis resource usage of the full SoC: all tiles, sockets
    /// and routers — the numerator of Table I's utilization percentages.
    pub fn resources(&self) -> Resources {
        let mut r = Resources::zero();
        r += Self::PROC_TILE * self.proc_tiles.len() as u64;
        r += Self::MEM_TILE * self.mem_tiles.len() as u64;
        r += Self::AUX_TILE * self.aux_tiles.len() as u64;
        let grid = self.mesh.config().cols * self.mesh.config().rows;
        r += Self::ROUTER * grid as u64;
        for a in &self.accel_tiles {
            r += Self::SOCKET;
            r += a.kernel().resources();
        }
        r
    }

    /// The primary processor tile coordinate: the first processor the
    /// floorplan placed, which every accelerator interrupts.
    pub fn primary_proc(&self) -> Coord {
        self.proc_tiles[0].coord()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::ScaleKernel;
    use crate::regs::{REG_LOCATION, REG_STATUS, STATUS_DONE};

    fn basic_soc() -> Soc {
        SocBuilder::new(3, 2)
            .processor(Coord::new(0, 0))
            .memory(Coord::new(1, 0))
            .accelerator(Coord::new(0, 1), Box::new(ScaleKernel::new("a0", 16, 2)))
            .accelerator(Coord::new(1, 1), Box::new(ScaleKernel::new("a1", 16, 3)))
            .build()
            .expect("valid floorplan")
    }

    #[test]
    fn builder_validates_floorplan() {
        assert!(matches!(
            SocBuilder::new(2, 2).memory(Coord::new(0, 0)).build(),
            Err(SocError::MissingTile { kind: "processor" })
        ));
        assert!(matches!(
            SocBuilder::new(2, 2).processor(Coord::new(0, 0)).build(),
            Err(SocError::MissingTile { kind: "memory" })
        ));
        assert!(matches!(
            SocBuilder::new(2, 2)
                .processor(Coord::new(0, 0))
                .memory(Coord::new(0, 0))
                .build(),
            Err(SocError::TileConflict { .. })
        ));
        assert!(SocBuilder::new(2, 2)
            .processor(Coord::new(5, 0))
            .memory(Coord::new(1, 0))
            .build()
            .is_err());
    }

    #[test]
    fn configured_sizes_must_match_the_kernel() {
        use esp4ml_hls4ml::{Hls4mlCompiler, Hls4mlConfig};
        use esp4ml_nn::{Activation, LayerSpec, Sequential};
        let mut model = Sequential::new(8);
        model.push(LayerSpec::dense(2, Activation::Linear));
        let nn = Hls4mlCompiler::compile(&model, &Hls4mlConfig::with_reuse(4)).unwrap();
        let accel = Coord::new(0, 1);
        let mut soc = SocBuilder::new(2, 2)
            .processor(Coord::new(0, 0))
            .memory(Coord::new(1, 0))
            .accelerator(accel, Box::new(crate::NnKernel::new(nn)))
            .build()
            .unwrap();
        let sized = |conf_size, out_size| AccelConfig {
            conf_size,
            out_size,
            ..AccelConfig::dma_to_dma(0, 64, 1)
        };
        let err = soc.configure_accel(accel, &sized(4, 0)).unwrap_err();
        assert!(matches!(
            err,
            SocError::SizeMismatch {
                field: "conf_size",
                configured: 4,
                kernel: 8,
                ..
            }
        ));
        assert!(err.to_string().contains("conf_size 4"), "{err}");
        assert!(matches!(
            soc.configure_accel(accel, &sized(0, 3)),
            Err(SocError::SizeMismatch {
                field: "out_size",
                configured: 3,
                kernel: 2,
                ..
            })
        ));
        // A refused configuration queues no register write: the SoC is
        // still idle, and a matching configuration then runs a frame.
        assert!(soc.run_until_idle(1_000).is_idle());
        soc.dram_write_values(0, &[0; 8], 16).unwrap();
        soc.map_contiguous(accel, 0, 4096).unwrap();
        soc.configure_accel(accel, &sized(8, 2)).unwrap();
        soc.start_accel(accel).unwrap();
        assert!(soc.run_until_idle(100_000).is_idle());
        assert_eq!(soc.take_irqs(), vec![accel]);
    }

    #[test]
    fn location_reg_exposes_coordinates() {
        let soc = basic_soc();
        let loc = soc.read_reg(Coord::new(1, 1), REG_LOCATION).unwrap();
        assert_eq!(Coord::from_reg(loc), Coord::new(1, 1));
    }

    #[test]
    fn accel_lookup_by_name() {
        let soc = basic_soc();
        assert_eq!(soc.accel_by_name("a1"), Some(Coord::new(1, 1)));
        assert_eq!(soc.accel_by_name("nope"), None);
    }

    #[test]
    fn dma_roundtrip_single_accel() {
        let mut soc = basic_soc();
        let accel = Coord::new(0, 1);
        let input: Vec<u64> = (1..=16).collect();
        soc.dram_write_values(0, &input, 16).unwrap();
        soc.map_contiguous(accel, 0, 4096).unwrap();
        soc.configure_accel(accel, &AccelConfig::dma_to_dma(0, 100, 1))
            .unwrap();
        soc.start_accel(accel).unwrap();
        let outcome = soc.run_until_idle(100_000);
        assert!(outcome.is_idle());
        assert!(outcome.cycles() > 0 && outcome.cycles() < 100_000);
        assert_eq!(soc.take_irqs(), vec![accel]);
        let out = soc.dram_read_values(100, 16, 16).unwrap();
        let expected: Vec<u64> = input.iter().map(|v| v * 2).collect();
        assert_eq!(out, expected);
        assert_eq!(soc.read_reg(accel, REG_STATUS).unwrap(), STATUS_DONE);
    }

    #[test]
    fn dma_multi_frame_strides() {
        let mut soc = basic_soc();
        let accel = Coord::new(0, 1);
        // Two frames of 16 values (4 words) each.
        let f0: Vec<u64> = (0..16).collect();
        let f1: Vec<u64> = (100..116).collect();
        soc.dram_write_values(0, &f0, 16).unwrap();
        soc.dram_write_values(4, &f1, 16).unwrap();
        soc.map_contiguous(accel, 0, 4096).unwrap();
        soc.configure_accel(accel, &AccelConfig::dma_to_dma(0, 64, 2))
            .unwrap();
        soc.start_accel(accel).unwrap();
        assert!(soc.run_until_idle(100_000).is_idle());
        let out0 = soc.dram_read_values(64, 16, 16).unwrap();
        let out1 = soc.dram_read_values(68, 16, 16).unwrap();
        assert_eq!(out0, f0.iter().map(|v| v * 2).collect::<Vec<_>>());
        assert_eq!(out1, f1.iter().map(|v| v * 2).collect::<Vec<_>>());
        assert_eq!(soc.accel(accel).unwrap().stats().frames_done, 2);
    }

    #[test]
    fn p2p_pipeline_two_stages() {
        let mut soc = basic_soc();
        let producer = Coord::new(0, 1); // x2
        let consumer = Coord::new(1, 1); // x3
        let frames = 3u64;
        for f in 0..frames {
            let vals: Vec<u64> = (0..16).map(|i| i + 10 * f).collect();
            soc.dram_write_values(f * 4, &vals, 16).unwrap();
        }
        soc.map_contiguous(producer, 0, 4096).unwrap();
        soc.map_contiguous(consumer, 0, 4096).unwrap();
        soc.configure_accel(producer, &AccelConfig::dma_to_p2p(0, frames))
            .unwrap();
        soc.configure_accel(
            consumer,
            &AccelConfig::p2p_to_dma(vec![producer], 100, frames),
        )
        .unwrap();
        soc.start_accel(producer).unwrap();
        soc.start_accel(consumer).unwrap();
        assert!(soc.run_until_idle(1_000_000).is_idle());
        let mut irqs = soc.take_irqs();
        irqs.sort();
        assert_eq!(irqs, vec![producer, consumer]);
        for f in 0..frames {
            let out = soc.dram_read_values(100 + f * 4, 16, 16).unwrap();
            let expected: Vec<u64> = (0..16).map(|i| (i + 10 * f) * 6).collect();
            assert_eq!(out, expected, "frame {f}");
        }
        // The intermediate result never touched DRAM: producer loaded
        // 3 frames x 4 words, consumer stored 3 x 4 words — nothing else.
        let stats = soc.stats();
        assert_eq!(stats.dram_word_reads, frames * 4);
        assert_eq!(stats.dram_word_writes, frames * 4);
        // And the p2p service actually carried the traffic.
        assert_eq!(
            soc.accel(producer).unwrap().stats().p2p_words_sent,
            frames * 4
        );
    }

    #[test]
    fn kernel_invocations_are_frames_times_chain_length_under_both_engines() {
        let frames = 3u64;
        let run = |engine| {
            let mut soc = basic_soc();
            soc.set_engine(engine);
            let (producer, consumer) = (Coord::new(0, 1), Coord::new(1, 1));
            soc.map_contiguous(producer, 0, 4096).unwrap();
            soc.map_contiguous(consumer, 0, 4096).unwrap();
            soc.configure_accel(producer, &AccelConfig::dma_to_p2p(0, frames))
                .unwrap();
            soc.configure_accel(
                consumer,
                &AccelConfig::p2p_to_dma(vec![producer], 100, frames),
            )
            .unwrap();
            assert_eq!(soc.engine_counters().kernel_invocations, 0);
            soc.start_accel(producer).unwrap();
            soc.start_accel(consumer).unwrap();
            assert!(soc.run_until_idle(1_000_000).is_idle());
            soc.engine_counters().kernel_invocations
        };
        let naive = run(SocEngine::Naive);
        assert_eq!(naive, frames * 2);
        assert_eq!(run(SocEngine::EventDriven), naive);
    }

    #[test]
    fn p2p_reduces_dram_traffic_vs_dma() {
        // Same two-stage pipeline through memory: measure DRAM accesses.
        let run_dma = || {
            let mut soc = basic_soc();
            let a = Coord::new(0, 1);
            let b = Coord::new(1, 1);
            soc.dram_write_values(0, &(0..16).collect::<Vec<_>>(), 16)
                .unwrap();
            soc.map_contiguous(a, 0, 4096).unwrap();
            soc.map_contiguous(b, 0, 4096).unwrap();
            soc.configure_accel(a, &AccelConfig::dma_to_dma(0, 50, 1))
                .unwrap();
            soc.start_accel(a).unwrap();
            assert!(soc.run_until_idle(100_000).is_idle());
            soc.configure_accel(b, &AccelConfig::dma_to_dma(50, 100, 1))
                .unwrap();
            soc.start_accel(b).unwrap();
            assert!(soc.run_until_idle(100_000).is_idle());
            soc.stats().dram_accesses()
        };
        let run_p2p = || {
            let mut soc = basic_soc();
            let a = Coord::new(0, 1);
            let b = Coord::new(1, 1);
            soc.dram_write_values(0, &(0..16).collect::<Vec<_>>(), 16)
                .unwrap();
            soc.map_contiguous(a, 0, 4096).unwrap();
            soc.map_contiguous(b, 0, 4096).unwrap();
            soc.configure_accel(a, &AccelConfig::dma_to_p2p(0, 1))
                .unwrap();
            soc.configure_accel(b, &AccelConfig::p2p_to_dma(vec![a], 100, 1))
                .unwrap();
            soc.start_accel(a).unwrap();
            soc.start_accel(b).unwrap();
            assert!(soc.run_until_idle(100_000).is_idle());
            soc.stats().dram_accesses()
        };
        let dma = run_dma();
        let p2p = run_p2p();
        assert_eq!(dma, 16); // 4 + 4 + 4 + 4 words
        assert_eq!(p2p, 8); // 4 + 4 words
    }

    #[test]
    fn round_robin_p2p_sources() {
        // Two producers feed one consumer alternately.
        let mut soc = SocBuilder::new(3, 2)
            .processor(Coord::new(0, 0))
            .memory(Coord::new(1, 0))
            .accelerator(Coord::new(0, 1), Box::new(ScaleKernel::new("p0", 4, 1)))
            .accelerator(Coord::new(1, 1), Box::new(ScaleKernel::new("p1", 4, 1)))
            .accelerator(Coord::new(2, 1), Box::new(ScaleKernel::new("c", 4, 10)))
            .build()
            .unwrap();
        let p0 = Coord::new(0, 1);
        let p1 = Coord::new(1, 1);
        let c = Coord::new(2, 1);
        // p0's stream: frames 0, 2; p1's stream: frames 1, 3.
        soc.dram_write_values(0, &[1, 1, 1, 1], 16).unwrap(); // p0 frame 0
        soc.dram_write_values(1, &[3, 3, 3, 3], 16).unwrap(); // p0 frame 1
        soc.dram_write_values(10, &[2, 2, 2, 2], 16).unwrap(); // p1 frame 0
        soc.dram_write_values(11, &[4, 4, 4, 4], 16).unwrap(); // p1 frame 1
        for t in [p0, p1, c] {
            soc.map_contiguous(t, 0, 4096).unwrap();
        }
        soc.configure_accel(p0, &AccelConfig::dma_to_p2p(0, 2))
            .unwrap();
        let mut cfg_p1 = AccelConfig::dma_to_p2p(10, 2);
        cfg_p1.src_offset = 10;
        soc.configure_accel(p1, &cfg_p1).unwrap();
        soc.configure_accel(c, &AccelConfig::p2p_to_dma(vec![p0, p1], 100, 4))
            .unwrap();
        for t in [p0, p1, c] {
            soc.start_accel(t).unwrap();
        }
        assert!(soc.run_until_idle(1_000_000).is_idle());
        // Consumer output: frames in round-robin order 1,2,3,4 (x10).
        for (f, expect) in [(0u64, 10u64), (1, 20), (2, 30), (3, 40)] {
            let out = soc.dram_read_values(100 + f, 4, 16).unwrap();
            assert_eq!(out, vec![expect; 4], "frame {f}");
        }
    }

    #[test]
    fn resources_scale_with_tiles() {
        let small = SocBuilder::new(2, 2)
            .processor(Coord::new(0, 0))
            .memory(Coord::new(1, 0))
            .build()
            .unwrap();
        let big = basic_soc();
        let rs = small.resources();
        let rb = big.resources();
        assert!(rb.luts > rs.luts);
        assert!(rb.dsps >= rs.dsps);
    }

    #[test]
    fn hang_fault_recovers_after_reset_and_retry() {
        use crate::regs::STATUS_RUNNING;
        use esp4ml_fault::{FaultPlan, FaultSpec};
        let run = |engine: SocEngine| {
            let mut soc = basic_soc();
            soc.set_engine(engine);
            let accel = Coord::new(0, 1);
            let plan = FaultPlan::new(1).with(FaultSpec::transient_hang("a0", 0));
            assert_eq!(soc.install_fault_plan(&plan), 1);
            let input: Vec<u64> = (1..=16).collect();
            soc.dram_write_values(0, &input, 16).unwrap();
            soc.map_contiguous(accel, 0, 4096).unwrap();
            soc.configure_accel(accel, &AccelConfig::dma_to_dma(0, 100, 1))
                .unwrap();
            soc.start_accel(accel).unwrap();
            // The hang signature: the SoC goes quiescent with the status
            // register claiming a batch is running and no IRQ ever raised.
            assert!(soc.run_until_idle(10_000).is_idle());
            assert!(soc.take_irqs().is_empty());
            assert_eq!(soc.read_reg(accel, REG_STATUS).unwrap(), STATUS_RUNNING);
            assert_eq!(soc.faults_injected(), 1);
            // Watchdog recovery: reset the tile and re-issue the start;
            // the transient fault does not re-fire on invocation 1.
            soc.reset_accel(accel).unwrap();
            soc.start_accel(accel).unwrap();
            assert!(soc.run_until_idle(100_000).is_idle());
            assert_eq!(soc.take_irqs(), vec![accel]);
            let out = soc.dram_read_values(100, 16, 16).unwrap();
            assert_eq!(out, input.iter().map(|v| v * 2).collect::<Vec<_>>());
            soc.cycle()
        };
        // Fault firing and recovery are cycle-identical across engines.
        assert_eq!(run(SocEngine::Naive), run(SocEngine::EventDriven));
    }

    #[test]
    fn short_output_fault_starves_store_then_retry_succeeds() {
        use esp4ml_fault::{FaultPlan, FaultSpec};
        let run = |engine: SocEngine| {
            let mut soc = basic_soc();
            soc.set_engine(engine);
            let accel = Coord::new(0, 1);
            let plan = FaultPlan::new(1).with(FaultSpec::short_output("a0", 0, 2));
            assert_eq!(soc.install_fault_plan(&plan), 1);
            let input: Vec<u64> = (1..=16).collect();
            soc.dram_write_values(0, &input, 16).unwrap();
            soc.map_contiguous(accel, 0, 4096).unwrap();
            soc.configure_accel(accel, &AccelConfig::dma_to_dma(0, 100, 1))
                .unwrap();
            soc.start_accel(accel).unwrap();
            // The truncated store never collects enough acks: the wrapper
            // wedges in store_wait_ack and the run times out.
            let outcome = soc.run_until_idle(5_000);
            assert!(outcome.timed_out());
            let diag = outcome.diagnosis().expect("blocked tile named");
            assert_eq!(diag.blocked[0].state, "store_wait_ack");
            assert_eq!(soc.faults_injected(), 1);
            // The reset's phase change is stamped with the last executed
            // cycle, whether that cycle was ticked or fast-forwarded.
            let tracer = Tracer::ring_buffer();
            soc.set_tracer(tracer.clone());
            soc.reset_accel(accel).unwrap();
            let events = tracer.drain();
            assert!(matches!(
                events[..],
                [esp4ml_trace::TimedEvent {
                    cycle,
                    event: esp4ml_trace::TraceEvent::AccelPhaseChange { to: "idle", .. },
                    ..
                }] if cycle == soc.cycle() - 1
            ));
            soc.start_accel(accel).unwrap();
            assert!(soc.run_until_idle(100_000).is_idle());
            let out = soc.dram_read_values(100, 16, 16).unwrap();
            assert_eq!(out, input.iter().map(|v| v * 2).collect::<Vec<_>>());
            soc.cycle()
        };
        assert_eq!(run(SocEngine::Naive), run(SocEngine::EventDriven));
    }

    #[test]
    fn dma_drop_fault_starves_load_then_retry_succeeds() {
        use esp4ml_fault::{FaultKind, FaultPlan, FaultSpec};
        let run = |engine: SocEngine| {
            let mut soc = basic_soc();
            soc.set_engine(engine);
            let accel = Coord::new(0, 1);
            let plan = FaultPlan::new(1).with(FaultSpec::new(FaultKind::DmaDropWords {
                from_burst: 0,
                count: 1,
                drop_words: 2,
            }));
            assert_eq!(soc.install_fault_plan(&plan), 1);
            let input: Vec<u64> = (1..=16).collect();
            soc.dram_write_values(0, &input, 16).unwrap();
            soc.map_contiguous(accel, 0, 4096).unwrap();
            soc.configure_accel(accel, &AccelConfig::dma_to_dma(0, 100, 1))
                .unwrap();
            soc.start_accel(accel).unwrap();
            // The dropped response words leave the load forever short.
            let outcome = soc.run_until_idle(5_000);
            assert!(outcome.timed_out());
            let diag = outcome.diagnosis().expect("blocked tile named");
            assert_eq!(diag.blocked[0].state, "load_wait");
            assert_eq!(soc.faults_injected(), 1);
            // Retry: the fault was bounded to the first burst.
            soc.reset_accel(accel).unwrap();
            soc.start_accel(accel).unwrap();
            assert!(soc.run_until_idle(100_000).is_idle());
            let out = soc.dram_read_values(100, 16, 16).unwrap();
            assert_eq!(out, input.iter().map(|v| v * 2).collect::<Vec<_>>());
            soc.cycle()
        };
        assert_eq!(run(SocEngine::Naive), run(SocEngine::EventDriven));
    }

    #[test]
    fn noc_delay_fault_is_engine_identical_end_to_end() {
        use esp4ml_fault::{FaultKind, FaultPlan, FaultSpec};
        use esp4ml_noc::Plane;
        let run = |engine: SocEngine| {
            let mut soc = basic_soc();
            soc.set_engine(engine);
            let accel = Coord::new(0, 1);
            let plan = FaultPlan::new(1).with(FaultSpec::new(FaultKind::NocDelay {
                plane: Plane::DmaRsp.index(),
                from_packet: 0,
                count: 1,
                extra_cycles: 300,
            }));
            assert_eq!(soc.install_fault_plan(&plan), 1);
            let input: Vec<u64> = (1..=16).collect();
            soc.dram_write_values(0, &input, 16).unwrap();
            soc.map_contiguous(accel, 0, 4096).unwrap();
            soc.configure_accel(accel, &AccelConfig::dma_to_dma(0, 100, 1))
                .unwrap();
            soc.start_accel(accel).unwrap();
            assert!(soc.run_until_idle(100_000).is_idle());
            assert_eq!(soc.faults_injected(), 1);
            let out = soc.dram_read_values(100, 16, 16).unwrap();
            assert_eq!(out, input.iter().map(|v| v * 2).collect::<Vec<_>>());
            soc.cycle()
        };
        let naive = run(SocEngine::Naive);
        let event = run(SocEngine::EventDriven);
        assert_eq!(naive, event);
        // And the delay is actually visible: a fault-free run is faster.
        let baseline = {
            let mut soc = basic_soc();
            let accel = Coord::new(0, 1);
            soc.dram_write_values(0, &(1..=16).collect::<Vec<_>>(), 16)
                .unwrap();
            soc.map_contiguous(accel, 0, 4096).unwrap();
            soc.configure_accel(accel, &AccelConfig::dma_to_dma(0, 100, 1))
                .unwrap();
            soc.start_accel(accel).unwrap();
            assert!(soc.run_until_idle(100_000).is_idle());
            soc.cycle()
        };
        assert!(
            naive >= baseline + 300,
            "delay not visible: {naive} vs {baseline}"
        );
    }

    #[test]
    fn huge_noc_delay_holds_the_packet_without_overflow() {
        use esp4ml_fault::{FaultKind, FaultPlan, FaultSpec};
        use esp4ml_noc::Plane;
        let run = |engine: SocEngine| {
            let mut soc = basic_soc();
            soc.set_engine(engine);
            let accel = Coord::new(0, 1);
            let plan = FaultPlan::new(1).with(FaultSpec::new(FaultKind::NocDelay {
                plane: Plane::DmaRsp.index(),
                from_packet: 0,
                count: 1,
                extra_cycles: u64::MAX,
            }));
            assert_eq!(soc.install_fault_plan(&plan), 1);
            soc.dram_write_values(0, &(1..=16).collect::<Vec<_>>(), 16)
                .unwrap();
            soc.map_contiguous(accel, 0, 4096).unwrap();
            soc.configure_accel(accel, &AccelConfig::dma_to_dma(0, 100, 1))
                .unwrap();
            soc.start_accel(accel).unwrap();
            // The held load response never arrives: the tile waits for
            // it until the budget runs out.
            let outcome = soc.run_until_idle(50_000);
            assert!(outcome.timed_out());
            let diag = outcome.diagnosis().expect("blocked tile named");
            assert_eq!(diag.blocked[0].state, "load_wait");
            assert_eq!(soc.faults_injected(), 1);
            assert!(soc.take_irqs().is_empty());
            soc.cycle()
        };
        assert_eq!(run(SocEngine::Naive), run(SocEngine::EventDriven));
    }

    /// Starts invocation `k` of `a0` at cycle `10_000 * k`, six times,
    /// resetting the tile after every invocation that raises no IRQ.
    /// Returns which invocations completed, the tile's fired-fault count
    /// and the cycles and details of the traced `FaultInjected` events.
    fn windowed_accel_run(
        engine: SocEngine,
        specs: &[esp4ml_fault::FaultSpec],
    ) -> (Vec<bool>, u64, Vec<(u64, String)>) {
        use esp4ml_fault::FaultPlan;
        use esp4ml_trace::TraceEvent;
        let mut soc = basic_soc();
        soc.set_engine(engine);
        let tracer = Tracer::ring_buffer_with_capacity(1 << 16);
        soc.set_tracer(tracer.clone());
        let accel = Coord::new(0, 1);
        let plan = FaultPlan {
            seed: 1,
            faults: specs.to_vec(),
        };
        assert_eq!(soc.install_fault_plan(&plan), specs.len());
        soc.dram_write_values(0, &(1..=16).collect::<Vec<_>>(), 16)
            .unwrap();
        soc.map_contiguous(accel, 0, 4096).unwrap();
        soc.configure_accel(accel, &AccelConfig::dma_to_dma(0, 100, 1))
            .unwrap();
        let mut completed = Vec::new();
        for k in 0..6u64 {
            soc.run_cycles(10_000 * k - soc.cycle());
            soc.start_accel(accel).unwrap();
            let done = soc.run_until_idle(5_000).is_idle() && !soc.take_irqs().is_empty();
            if !done {
                soc.reset_accel(accel).unwrap();
            }
            completed.push(done);
        }
        let fired = soc.accel(accel).unwrap().faults_fired();
        assert_eq!(soc.faults_injected(), fired);
        let events = tracer
            .drain()
            .into_iter()
            .filter_map(|e| match e.event {
                TraceEvent::FaultInjected { detail, .. } => Some((e.cycle, detail)),
                _ => None,
            })
            .collect();
        (completed, fired, events)
    }

    /// Invocations 1..=3 are in range; the window excludes invocation 1
    /// (its start command reaches the tile at cycle 10 004) and admits
    /// invocation 4, which is past the range. Exactly invocations 2 and 3
    /// fire, under both engines.
    fn assert_windowed_accel_fault(spec: esp4ml_fault::FaultSpec, label: &str) {
        use esp4ml_fault::CycleWindow;
        let specs = [spec.in_window(CycleWindow::between(15_000, 45_000))];
        let naive = windowed_accel_run(SocEngine::Naive, &specs);
        let event = windowed_accel_run(SocEngine::EventDriven, &specs);
        assert_eq!(naive, event);
        let (completed, fired, events) = naive;
        assert_eq!(completed, vec![true, true, false, false, true, true]);
        assert_eq!(fired, 2);
        let cycles: Vec<u64> = events.iter().map(|(c, _)| *c).collect();
        assert_eq!(cycles, vec![20_004, 30_004]);
        for ((_, detail), seq) in events.iter().zip([2, 3]) {
            assert!(detail.starts_with(label), "{detail}");
            assert!(detail.ends_with(&format!("invocation {seq}")), "{detail}");
        }
    }

    #[test]
    fn windowed_hang_fires_only_in_range_and_in_window() {
        use esp4ml_fault::{FaultKind, FaultSpec};
        let spec = FaultSpec::new(FaultKind::AccelHang {
            device: "a0".into(),
            from_invocation: 1,
            count: 3,
        });
        assert_windowed_accel_fault(spec, "accel_hang");
    }

    #[test]
    fn windowed_short_output_fires_only_in_range_and_in_window() {
        use esp4ml_fault::{FaultKind, FaultSpec};
        let spec = FaultSpec::new(FaultKind::AccelShortOutput {
            device: "a0".into(),
            from_invocation: 1,
            count: 3,
            drop_words: 2,
        });
        assert_windowed_accel_fault(spec, "accel_short_output");
    }

    #[test]
    fn hang_takes_priority_over_short_output_on_one_start() {
        use esp4ml_fault::FaultSpec;
        // Both armed for invocation 0: only the hang fires, and the
        // short output never latches for a later invocation.
        let specs = [
            FaultSpec::short_output("a0", 0, 2),
            FaultSpec::transient_hang("a0", 0),
        ];
        let (completed, fired, events) = windowed_accel_run(SocEngine::EventDriven, &specs);
        assert_eq!(completed, vec![false, true, true, true, true, true]);
        assert_eq!(fired, 1);
        assert_eq!(events.len(), 1);
        assert!(events[0].1.starts_with("accel_hang"), "{}", events[0].1);
    }
}

#[cfg(test)]
mod multi_mem_tests {
    use super::*;
    use crate::kernel::ScaleKernel;
    use esp4ml_mem::DramConfig;

    fn dual_mem_soc() -> Soc {
        let small = DramConfig {
            size_words: 1 << 20,
            ..DramConfig::default()
        };
        SocBuilder::new(3, 2)
            .processor(Coord::new(0, 0))
            .memory_with(Coord::new(1, 0), small)
            .memory_with(Coord::new(2, 0), small)
            .accelerator(Coord::new(0, 1), Box::new(ScaleKernel::new("a", 4096, 2)))
            .build()
            .expect("valid floorplan")
    }

    #[test]
    fn interleaved_poke_peek_roundtrip() {
        let mut soc = dual_mem_soc();
        // Addresses spanning several interleave blocks.
        for addr in [0u64, 511, 512, 513, 1024, 4096, 100_000] {
            soc.dram_poke(addr, addr * 3 + 1).unwrap();
        }
        for addr in [0u64, 511, 512, 513, 1024, 4096, 100_000] {
            assert_eq!(soc.dram_peek(addr).unwrap(), addr * 3 + 1, "addr {addr}");
        }
    }

    #[test]
    fn dma_spanning_both_memory_tiles_roundtrips() {
        let mut soc = dual_mem_soc();
        let accel = Coord::new(0, 1);
        // 4096 values = 1024 words = two interleave blocks, one per tile.
        let input: Vec<u64> = (0..4096).map(|i| i % 1000).collect();
        soc.dram_write_values(0, &input, 16).unwrap();
        soc.map_contiguous(accel, 0, 1 << 16).unwrap();
        soc.configure_accel(accel, &AccelConfig::dma_to_dma(0, 8192, 1))
            .unwrap();
        soc.start_accel(accel).unwrap();
        assert!(soc.run_until_idle(1_000_000).is_idle());
        assert_eq!(soc.take_irqs(), vec![accel]);
        let out = soc.dram_read_values(8192, 4096, 16).unwrap();
        let expected: Vec<u64> = input.iter().map(|v| (v * 2) & 0xffff).collect();
        assert_eq!(out, expected);
        // Both memory tiles must have serviced traffic.
        let stats = soc.stats();
        assert_eq!(stats.dram_word_reads, 1024);
        assert_eq!(stats.dram_word_writes, 1024);
    }

    #[test]
    fn mismatched_memory_capacities_rejected() {
        let a = DramConfig {
            size_words: 1 << 20,
            ..DramConfig::default()
        };
        let b = DramConfig {
            size_words: 1 << 21,
            ..DramConfig::default()
        };
        let err = SocBuilder::new(3, 2)
            .processor(Coord::new(0, 0))
            .memory_with(Coord::new(1, 0), a)
            .memory_with(Coord::new(2, 0), b)
            .build()
            .unwrap_err();
        assert!(matches!(err, SocError::BadConfig(_)));
    }
}

#[cfg(test)]
mod dbuf_tests {
    use super::*;
    use crate::kernel::ScaleKernel;
    use crate::regs::STATUS_DONE;

    fn soc_with(values: u64, cycles_per_value: u64) -> Soc {
        SocBuilder::new(3, 2)
            .processor(Coord::new(0, 0))
            .memory(Coord::new(1, 0))
            .accelerator(
                Coord::new(0, 1),
                Box::new(ScaleKernel::new("a", values, 2).with_cycles_per_value(cycles_per_value)),
            )
            .accelerator(
                Coord::new(1, 1),
                Box::new(ScaleKernel::new("b", values, 3).with_cycles_per_value(cycles_per_value)),
            )
            .build()
            .unwrap()
    }

    fn run_batch(soc: &mut Soc, dbuf: bool, frames: u64) -> (Vec<u64>, u64) {
        let accel = Coord::new(0, 1);
        let values = 256u64;
        for f in 0..frames {
            let vals: Vec<u64> = (0..values).map(|i| (i + f) % 500).collect();
            soc.dram_write_values(f * 64, &vals, 16).unwrap();
        }
        soc.map_contiguous(accel, 0, 1 << 16).unwrap();
        let mut cfg = AccelConfig::dma_to_dma(0, 4096, frames);
        if dbuf {
            cfg = cfg.with_double_buffer();
        }
        soc.configure_accel(accel, &cfg).unwrap();
        let start = soc.cycle();
        soc.start_accel(accel).unwrap();
        assert!(soc.run_until_idle(10_000_000).is_idle());
        assert_eq!(
            soc.read_reg(accel, crate::regs::REG_STATUS).unwrap(),
            STATUS_DONE
        );
        let mut out = Vec::new();
        for f in 0..frames {
            out.extend(
                soc.dram_read_values(4096 + f * 64, values as usize, 16)
                    .unwrap(),
            );
        }
        (out, soc.cycle() - start)
    }

    #[test]
    fn double_buffer_same_results_fewer_cycles() {
        let frames = 6;
        let (out_sb, cycles_sb) = run_batch(&mut soc_with(256, 4), false, frames);
        let (out_db, cycles_db) = run_batch(&mut soc_with(256, 4), true, frames);
        assert_eq!(out_sb, out_db, "double buffering must not change results");
        // The load of frame k+1 (≈ 64 words + DRAM latency) hides under the
        // compute of frame k (1024 cycles), so the batch gets faster.
        assert!(
            (cycles_db as f64) < cycles_sb as f64 * 0.95,
            "dbuf {cycles_db} !< single {cycles_sb}"
        );
    }

    #[test]
    fn double_buffer_p2p_pipeline_matches_plain() {
        // Two-stage p2p pipeline with the consumer double-buffered.
        let run = |dbuf: bool| {
            let mut soc = soc_with(256, 2);
            let (a, b) = (Coord::new(0, 1), Coord::new(1, 1));
            let frames = 4u64;
            for f in 0..frames {
                soc.dram_write_values(f * 64, &vec![f + 1; 256], 16)
                    .unwrap();
            }
            soc.map_contiguous(a, 0, 1 << 16).unwrap();
            soc.map_contiguous(b, 0, 1 << 16).unwrap();
            let mut cfg_a = AccelConfig::dma_to_p2p(0, frames);
            let mut cfg_b = AccelConfig::p2p_to_dma(vec![a], 4096, frames);
            if dbuf {
                cfg_a = cfg_a.with_double_buffer();
                cfg_b = cfg_b.with_double_buffer();
            }
            soc.configure_accel(a, &cfg_a).unwrap();
            soc.configure_accel(b, &cfg_b).unwrap();
            soc.start_accel(a).unwrap();
            soc.start_accel(b).unwrap();
            assert!(soc.run_until_idle(10_000_000).is_idle());
            (0..frames)
                .map(|f| soc.dram_read_values(4096 + f * 64, 256, 16).unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn single_frame_batch_ignores_double_buffer() {
        // n_frames == 1: the flag is accepted but ping-pong is pointless;
        // results must match the plain single-buffer path.
        let (out, _) = run_batch(&mut soc_with(256, 1), true, 1);
        let expected: Vec<u64> = (0..256u64).map(|i| ((i % 500) * 2) & 0xffff).collect();
        assert_eq!(out, expected);
    }
}

#[cfg(test)]
mod dvfs_tests {
    use super::*;
    use crate::kernel::ScaleKernel;

    /// A one-frame batch of 640 datapath cycles at `divider`, configured
    /// and started on a fresh SoC under `engine`.
    fn start(engine: SocEngine, divider: u64) -> Soc {
        let mut soc = SocBuilder::new(2, 2)
            .processor(Coord::new(0, 0))
            .memory(Coord::new(1, 0))
            .accelerator(
                Coord::new(0, 1),
                Box::new(ScaleKernel::new("a", 64, 2).with_cycles_per_value(10)),
            )
            .engine(engine)
            .build()
            .unwrap();
        let accel = Coord::new(0, 1);
        soc.dram_write_values(0, &(0..64).collect::<Vec<_>>(), 16)
            .unwrap();
        soc.map_contiguous(accel, 0, 4096).unwrap();
        soc.configure_accel(
            accel,
            &AccelConfig::dma_to_dma(0, 512, 1).with_dvfs_divider(divider),
        )
        .unwrap();
        soc.start_accel(accel).unwrap();
        soc
    }

    fn run(divider: u64) -> (Vec<u64>, u64) {
        let mut soc = start(SocEngine::EventDriven, divider);
        assert!(soc.run_until_idle(1_000_000).is_idle());
        let out = soc.dram_read_values(512, 64, 16).unwrap();
        (out, soc.cycle())
    }

    /// A divider near `u64::MAX` (accepted by `with_dvfs_divider` and
    /// `configure_accel`) stretches the compute phase past any budget:
    /// both engines run to the same budget with equal machine state,
    /// and the event engine's wake arithmetic does not overflow.
    #[test]
    fn huge_divider_runs_to_the_budget_under_both_engines() {
        let [naive, event] = [SocEngine::Naive, SocEngine::EventDriven].map(|engine| {
            let mut soc = start(engine, u64::MAX / 4);
            assert!(soc.run_until_idle(200_000).timed_out());
            assert_eq!(
                soc.accel(Coord::new(0, 1)).unwrap().state(),
                crate::AccelState::Compute
            );
            soc
        });
        assert_eq!(naive.cycle(), event.cycle());
        assert_eq!(naive.snapshot(), event.snapshot());
    }

    #[test]
    fn dvfs_slows_compute_without_changing_results() {
        let (out_full, cycles_full) = run(1);
        let (out_half, cycles_half) = run(2);
        assert_eq!(out_full, out_half);
        // Compute is 640 cycles at full speed; at /2 it doubles while DMA
        // and control stay at the NoC clock.
        assert!(
            cycles_half > cycles_full + 500,
            "half {cycles_half} vs full {cycles_full}"
        );
        assert!(cycles_half < cycles_full * 2);
    }

    #[test]
    fn divider_zero_means_full_speed() {
        let (_, at_zero) = run(0);
        let (_, at_one) = run(1);
        assert_eq!(at_zero, at_one);
    }
}

#[cfg(test)]
mod engine_equivalence_tests {
    use super::*;
    use crate::kernel::ScaleKernel;

    fn basic_soc() -> Soc {
        SocBuilder::new(3, 2)
            .processor(Coord::new(0, 0))
            .memory(Coord::new(1, 0))
            .accelerator(Coord::new(0, 1), Box::new(ScaleKernel::new("a0", 16, 2)))
            .accelerator(Coord::new(1, 1), Box::new(ScaleKernel::new("a1", 16, 3)))
            .build()
            .expect("valid floorplan")
    }

    /// The floorplan [`start_workload`] runs on, freshly built.
    fn workload_soc(engine: SocEngine) -> Soc {
        SocBuilder::new(3, 2)
            .processor(Coord::new(0, 0))
            .memory(Coord::new(1, 0))
            .accelerator(
                Coord::new(0, 1),
                Box::new(ScaleKernel::new("a0", 16, 2).with_cycles_per_value(10)),
            )
            .accelerator(Coord::new(1, 1), Box::new(ScaleKernel::new("a1", 16, 3)))
            .engine(engine)
            .build()
            .expect("valid floorplan")
    }

    /// A two-accelerator SoC with a moderately interesting workload:
    /// multi-frame DMA on a DVFS-throttled accelerator, so boring spans
    /// (stalls, slow compute) dominate and fast-forward actually engages.
    /// Returns the SoC just after the accelerator is started.
    fn start_workload(engine: SocEngine, sample_every: Option<u64>) -> Soc {
        let mut soc = workload_soc(engine);
        if let Some(every) = sample_every {
            soc.enable_counter_sampling(every);
        }
        start(&mut soc);
        soc
    }

    /// Loads [`start_workload`]'s two frames, then configures and starts
    /// its accelerator.
    fn start(soc: &mut Soc) {
        let accel = Coord::new(0, 1);
        let f0: Vec<u64> = (0..16).collect();
        let f1: Vec<u64> = (100..116).collect();
        soc.dram_write_values(0, &f0, 16).unwrap();
        soc.dram_write_values(4, &f1, 16).unwrap();
        soc.map_contiguous(accel, 0, 4096).unwrap();
        soc.configure_accel(
            accel,
            &AccelConfig::dma_to_dma(0, 64, 2).with_dvfs_divider(2),
        )
        .unwrap();
        soc.start_accel(accel).unwrap();
    }

    /// A snapshot taken between steps is the naive engine's state: from
    /// a few idle cycles before the first register write to the end of
    /// [`start_workload`]'s run, the naive SoC run to the cycle each
    /// event-engine step ends at holds equal machine state.
    #[test]
    fn snapshots_agree_across_engines_at_every_event_step() {
        let [mut naive, mut event] = [SocEngine::Naive, SocEngine::EventDriven].map(|engine| {
            let mut soc = workload_soc(engine);
            soc.run_cycles(5);
            soc
        });
        assert_eq!(naive.snapshot(), event.snapshot(), "after idling");
        start(&mut naive);
        start(&mut event);
        let mut steps = 0;
        while !event.is_idle() {
            assert!(event.cycle() < 1_000_000, "workload never idles");
            event.step(1_000_000);
            naive.run_cycles(event.cycle() - naive.cycle());
            assert_eq!(
                naive.snapshot(),
                event.snapshot(),
                "cycle {}",
                event.cycle()
            );
            steps += 1;
        }
        assert!(naive.is_idle());
        assert!(steps < event.cycle(), "no step spanned more than one cycle");
    }

    /// [`start_workload`], run to completion.
    fn run_workload(engine: SocEngine, sample_every: Option<u64>) -> Soc {
        let mut soc = start_workload(engine, sample_every);
        assert!(soc.run_until_idle(1_000_000).is_idle());
        soc
    }

    #[test]
    fn engines_agree_on_cycles_stats_and_data() {
        let mut naive = run_workload(SocEngine::Naive, None);
        let mut event = run_workload(SocEngine::EventDriven, None);
        assert_eq!(naive.cycle(), event.cycle(), "total cycles diverged");
        let accel = Coord::new(0, 1);
        assert_eq!(
            naive.accel(accel).unwrap().stats(),
            event.accel(accel).unwrap().stats(),
            "per-accelerator cycle accounting diverged"
        );
        assert_eq!(
            naive.dram_read_values(64, 32, 16).unwrap(),
            event.dram_read_values(64, 32, 16).unwrap()
        );
        assert_eq!(naive.take_irqs(), event.take_irqs());
        // The full counter registries must agree, not just headline stats.
        assert_eq!(
            naive.counter_registry().snapshot(),
            event.counter_registry().snapshot()
        );
        // Link-level heatmap counters only move during real mesh ticks,
        // so fast-forward must leave them cycle-exact too.
        assert_eq!(
            naive.noc_heatmap(),
            event.noc_heatmap(),
            "per-link NoC heatmap diverged"
        );
    }

    #[test]
    fn engine_counters_account_for_every_elapsed_cycle() {
        let naive = run_workload(SocEngine::Naive, None);
        let event = run_workload(SocEngine::EventDriven, None);
        let (n, e) = (naive.engine_counters(), event.engine_counters());
        assert_eq!(n.ticked_cycles, naive.cycle());
        assert_eq!(n.mesh_only_cycles, 0);
        assert_eq!(n.stream_cycles, 0);
        assert_eq!(n.fast_forwarded_cycles, 0);
        assert_eq!(
            e.ticked_cycles + e.mesh_only_cycles + e.stream_cycles + e.fast_forwarded_cycles,
            event.cycle()
        );
        assert!(e.mesh_only_cycles > 0, "mesh-only stepping never engaged");
        assert!(e.stream_cycles > 0, "lone-stream jumps never engaged");
        assert!(e.fast_forwarded_cycles > 0, "fast-forward never engaged");
        assert!(e.ticked_cycles < n.ticked_cycles);
        // One accelerator ran two frames under each engine.
        assert_eq!((n.kernel_invocations, e.kernel_invocations), (2, 2));
    }

    /// The SoC's wake is the earliest tile wake, and an event-engine step
    /// is one full tick exactly when that wake is due or a packet waits
    /// to be ejected; otherwise it is a boring span.
    #[test]
    fn step_ticks_exactly_when_the_earliest_tile_wake_is_due() {
        let mut soc = start_busy_workload(SocEngine::EventDriven, None);
        let (mut due, mut later, mut never) = (0, 0, 0);
        while !soc.is_idle() {
            let now = soc.cycle();
            let wakes = soc.proc_tiles.iter().map(|t| t.wake(now));
            let wakes = wakes.chain(soc.accel_tiles.iter().map(|t| t.wake(now)));
            let wakes = wakes.chain(soc.mem_tiles.iter().map(|t| t.wake(now)));
            let wake = soc.tile_wake(now);
            assert_eq!(Some(wake), wakes.min(), "cycle {now}");
            let delivered = soc.mesh.undelivered_total() > 0;
            let before = soc.engine_counters().ticked_cycles;
            let elapsed = soc.step(1_000_000);
            let full = soc.engine_counters().ticked_cycles > before;
            assert_eq!(full, wake <= now || delivered, "cycle {now}");
            assert!(!full || elapsed == 1, "cycle {now}");
            match wake {
                w if w <= now => due += 1,
                NEVER => never += 1,
                _ => later += 1,
            }
        }
        assert!(
            due > 0 && later > 0 && never > 0,
            "{due} due, {later} later, {never} never"
        );
    }

    #[test]
    fn engine_counters_stay_out_of_snapshots() {
        let mut event = run_workload(SocEngine::EventDriven, None);
        let before = event.engine_counters();
        let snap = event.snapshot();
        event.run_cycles(100);
        let after = event.engine_counters();
        let elapsed = |c: EngineCounters| {
            c.ticked_cycles + c.mesh_only_cycles + c.stream_cycles + c.fast_forwarded_cycles
        };
        assert_eq!(elapsed(after), elapsed(before) + 100);
        // Restore rewinds the machine, not the host-side counters.
        event.restore(&snap).unwrap();
        assert_eq!(event.engine_counters(), after);
        assert_eq!(event.snapshot(), snap);
    }

    #[test]
    fn fast_forward_never_skips_a_sampling_point() {
        // 7 is coprime to every latency in the model, so sampling points
        // land mid-span; a fast-forward that jumped over one would drop
        // a row (or record it with stale counters).
        let mut naive = run_workload(SocEngine::Naive, Some(7));
        let mut event = run_workload(SocEngine::EventDriven, Some(7));
        // Mesh-only spans must stop on sampling cycles too, not be
        // refused while sampling is on.
        assert!(event.engine_counters().mesh_only_cycles > 0);
        let naive_series = naive.take_counter_series().expect("sampling on");
        let event_series = event.take_counter_series().expect("sampling on");
        assert_eq!(naive_series.rows().len(), event_series.rows().len());
        for (n, e) in naive_series.rows().iter().zip(event_series.rows()) {
            assert_eq!(n.cycle, e.cycle);
            assert_eq!(
                n.snapshot, e.snapshot,
                "counters diverged at cycle {}",
                n.cycle
            );
        }
    }

    /// [`start_workload`] with the second accelerator streaming four
    /// frames of its own at the same time, so DMA bursts overlap: the
    /// memory tile counts one burst's latency down while another burst's
    /// flits stream, and deliveries land mid-stream.
    fn start_busy_workload(engine: SocEngine, sample_every: Option<u64>) -> Soc {
        let mut soc = start_workload(engine, sample_every);
        let accel = Coord::new(1, 1);
        let frames: Vec<u64> = (200..264).collect();
        soc.dram_write_values(1024, &frames, 16).unwrap();
        soc.map_contiguous(accel, 1024, 4096).unwrap();
        soc.configure_accel(accel, &AccelConfig::dma_to_dma(0, 64, 4))
            .unwrap();
        soc.start_accel(accel).unwrap();
        soc
    }

    /// Snapshots after the first step for which `stop(before, after)`
    /// holds of the engine counters, restores into a fresh SoC and runs
    /// both to completion: the restored run must equal the uninterrupted
    /// one and the naive one.
    fn restore_after_first(stop: fn(EngineCounters, EngineCounters) -> bool) {
        let workloads: [fn(SocEngine, Option<u64>) -> Soc; 2] =
            [start_workload, start_busy_workload];
        for (w, start) in workloads.into_iter().enumerate() {
            let finish = |mut soc: Soc| {
                assert!(soc.run_until_idle(1_000_000).is_idle());
                soc
            };
            let mut interrupted = start(SocEngine::EventDriven, Some(7));
            loop {
                let before = interrupted.engine_counters();
                interrupted.step(1_000_000);
                if stop(before, interrupted.engine_counters()) {
                    break;
                }
                assert!(!interrupted.is_idle(), "workload {w} ended first");
            }
            let snap = interrupted.snapshot();
            let mut restored = workload_soc(SocEngine::EventDriven);
            restored.restore(&snap).unwrap();
            let restored = finish(restored);
            let uninterrupted = finish(start(SocEngine::EventDriven, Some(7)));
            let naive = finish(start(SocEngine::Naive, Some(7)));
            for (label, other) in [("uninterrupted", &uninterrupted), ("naive", &naive)] {
                assert_eq!(restored.cycle(), other.cycle(), "workload {w}, {label}");
                assert_eq!(
                    restored.snapshot(),
                    other.snapshot(),
                    "workload {w}, {label}: state diverged"
                );
            }
        }
    }

    #[test]
    fn restore_after_a_mesh_only_span_resumes_exactly() {
        restore_after_first(|b, a| a.mesh_only_cycles > b.mesh_only_cycles);
        // A span that jumped a lone stream and ticked nothing ended on the
        // jump, mid-stream: every flit must be materialised where ticks
        // would have left it.
        restore_after_first(|b, a| {
            a.stream_cycles > b.stream_cycles && a.mesh_only_cycles == b.mesh_only_cycles
        });
    }

    #[test]
    fn engines_agree_on_timeout_spin() {
        // A p2p consumer with no producer never makes progress: both
        // engines must time out at the same cycle with the same stats
        // (the event engine skips the spin, the naive engine burns it).
        let run = |engine: SocEngine| {
            let mut soc = SocBuilder::new(3, 2)
                .processor(Coord::new(0, 0))
                .memory(Coord::new(1, 0))
                .accelerator(Coord::new(0, 1), Box::new(ScaleKernel::new("a0", 16, 2)))
                .accelerator(Coord::new(1, 1), Box::new(ScaleKernel::new("a1", 16, 3)))
                .engine(engine)
                .build()
                .unwrap();
            let consumer = Coord::new(1, 1);
            soc.map_contiguous(consumer, 0, 4096).unwrap();
            soc.configure_accel(
                consumer,
                &AccelConfig::p2p_to_dma(vec![Coord::new(0, 1)], 64, 1),
            )
            .unwrap();
            soc.start_accel(consumer).unwrap();
            let outcome = soc.run_until_idle(10_000);
            (outcome, soc.cycle(), *soc.accel(consumer).unwrap().stats())
        };
        let (naive_outcome, naive_cycle, naive_stats) = run(SocEngine::Naive);
        let (event_outcome, event_cycle, event_stats) = run(SocEngine::EventDriven);
        assert!(naive_outcome.timed_out());
        assert!(event_outcome.timed_out());
        assert_eq!(naive_outcome.cycles(), event_outcome.cycles());
        assert_eq!(naive_cycle, event_cycle);
        assert_eq!(naive_stats, event_stats);
        // Both engines attach the same deadlock diagnosis: the consumer
        // is parked in LoadWait on its silent producer.
        assert_eq!(naive_outcome, event_outcome);
        let diag = naive_outcome.diagnosis().expect("diagnosis attached");
        assert_eq!(diag.blocked.len(), 1);
        assert_eq!((diag.blocked[0].x, diag.blocked[0].y), (1, 1));
        assert_eq!(diag.blocked[0].waits_on, Some((0, 1)));
        assert!(diag.cycle.is_none());
        assert!(diag
            .to_string()
            .contains("waiting for p2p data from tile(0,1)"));
    }

    #[test]
    fn sanitized_run_is_clean() {
        // A healthy DMA round trip must produce a clean verdict: no
        // credit, flit, wormhole, plane or DMA-accounting findings.
        let mut soc = basic_soc();
        soc.enable_sanitizer();
        let accel = Coord::new(0, 1);
        let input: Vec<u64> = (1..=16).collect();
        soc.dram_write_values(0, &input, 16).unwrap();
        soc.map_contiguous(accel, 0, 4096).unwrap();
        soc.configure_accel(accel, &AccelConfig::dma_to_dma(0, 100, 1))
            .unwrap();
        soc.start_accel(accel).unwrap();
        assert!(soc.run_until_idle(100_000).is_idle());
        let report = soc.sanitizer_report().expect("sanitizer armed");
        assert!(report.is_clean(), "unexpected findings:\n{report}");
    }

    #[test]
    fn phantom_words_breach_dma_accounting() {
        let mut soc = basic_soc();
        soc.enable_sanitizer();
        let accel = Coord::new(0, 1);
        let input: Vec<u64> = (1..=16).collect();
        soc.dram_write_values(0, &input, 16).unwrap();
        soc.map_contiguous(accel, 0, 4096).unwrap();
        soc.configure_accel(accel, &AccelConfig::dma_to_dma(0, 100, 1))
            .unwrap();
        soc.start_accel(accel).unwrap();
        soc.fault_phantom_words(accel, 3);
        assert!(soc.run_until_idle(100_000).is_idle());
        let report = soc.sanitizer_report().expect("sanitizer armed");
        assert_eq!(report.error_count(), 1);
        assert_eq!(report.diagnostics[0].code, "E0404");
    }

    #[test]
    fn leaked_credit_is_reported_through_soc() {
        let mut soc = basic_soc();
        soc.enable_sanitizer();
        soc.fault_leak_credit(Coord::new(1, 0), esp4ml_noc::Plane::DmaReq);
        soc.run_cycles(5);
        let report = soc.sanitizer_report().expect("sanitizer armed");
        assert_eq!(report.error_count(), 1);
        assert_eq!(report.diagnostics[0].code, "E0401");
    }

    #[test]
    fn mutual_p2p_wait_is_diagnosed_as_cycle() {
        // Two consumers each configured to p2p-load from the other: both
        // park in LoadWait and the wait-for graph closes a cycle.
        let mut soc = basic_soc();
        let (a, b) = (Coord::new(0, 1), Coord::new(1, 1));
        soc.map_contiguous(a, 0, 4096).unwrap();
        soc.map_contiguous(b, 0, 4096).unwrap();
        soc.configure_accel(a, &AccelConfig::p2p_to_dma(vec![b], 100, 1))
            .unwrap();
        soc.configure_accel(b, &AccelConfig::p2p_to_dma(vec![a], 200, 1))
            .unwrap();
        soc.start_accel(a).unwrap();
        soc.start_accel(b).unwrap();
        let outcome = soc.run_until_idle(10_000);
        assert!(outcome.timed_out());
        let diag = outcome.diagnosis().expect("diagnosis attached");
        assert_eq!(diag.cycle, Some(vec![(0, 1), (1, 1)]));
        assert_eq!(diag.blocked.len(), 2);
        let typed = diag.diagnostic();
        assert_eq!(typed.code, "E0501");
        assert_eq!(typed.location, "tile(0,1) -> tile(1,1)");
    }

    #[test]
    fn engines_agree_on_sanitizer_verdict() {
        // The event-driven engine audits only at tick and boring-span
        // boundaries, yet its (deduplicated) verdict must be
        // byte-identical to the naive engine's per-cycle audit.
        let run = |engine: SocEngine| {
            let mut soc = SocBuilder::new(3, 2)
                .processor(Coord::new(0, 0))
                .memory(Coord::new(1, 0))
                .accelerator(Coord::new(0, 1), Box::new(ScaleKernel::new("a0", 16, 2)))
                .accelerator(Coord::new(1, 1), Box::new(ScaleKernel::new("a1", 16, 3)))
                .engine(engine)
                .build()
                .unwrap();
            soc.enable_sanitizer();
            let accel = Coord::new(1, 1);
            let input: Vec<u64> = (1..=16).collect();
            soc.dram_write_values(0, &input, 16).unwrap();
            soc.map_contiguous(accel, 0, 4096).unwrap();
            soc.configure_accel(accel, &AccelConfig::dma_to_dma(0, 100, 1))
                .unwrap();
            soc.start_accel(accel).unwrap();
            soc.fault_phantom_words(accel, 7);
            assert!(soc.run_until_idle(100_000).is_idle());
            serde_json::to_string(&soc.sanitizer_report().expect("sanitizer armed")).unwrap()
        };
        let naive = run(SocEngine::Naive);
        let event = run(SocEngine::EventDriven);
        assert_eq!(naive, event);
        assert!(naive.contains("E0404"));
    }
}
