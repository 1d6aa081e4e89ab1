//! `esp_alloc` / `esp_run` / `esp_cleanup`: the runtime engine.

use crate::{Dataflow, ExecMode, RunMetrics, RuntimeError};
use esp4ml_check::{codes, Diagnostic};
use esp4ml_mem::{ContigAlloc, ContigHandle};
use esp4ml_noc::Coord;
use esp4ml_soc::{words_for, AccelConfig, AcceleratorKernel, Soc, SocSnapshot};
use esp4ml_trace::{TileCoord, TraceEvent, Tracer};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Driver/syscall overhead charged per accelerator invocation, in SoC
/// cycles: the `ioctl` path through the Linux kernel on the Ariane core.
const IOCTL_CYCLES: u64 = 300;

/// Default per-invocation watchdog deadline, in cycles: how long the
/// driver waits for a completion interrupt before declaring the
/// invocation lost. Override per run with [`RunSpec::watchdog_cycles`].
pub const DEFAULT_WATCHDOG_CYCLES: u64 = 500_000_000;

/// What the runtime does when an invocation's watchdog expires: bounded
/// retry with exponential backoff, then (optionally) remap the stage
/// instance to a spare device of the same kind.
///
/// Without a policy ([`RunSpec::recover`] never called) a watchdog expiry
/// is fatal, exactly as before the recovery layer existed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecoveryPolicy {
    /// Re-issues of one invocation after watchdog expiries before the
    /// runtime gives up on the device.
    pub max_retries: u32,
    /// Backoff burned before the first retry, in cycles (a wedged device
    /// may need its reset to propagate; immediate re-issue also risks
    /// re-triggering a transient fault window).
    pub backoff_cycles: u64,
    /// Multiplier applied to the backoff on each subsequent retry
    /// (exponential backoff; 1 = constant).
    pub backoff_factor: u64,
    /// After retries are exhausted, remap the stage instance to an idle
    /// spare device of the same kind and I/O shape.
    pub failover: bool,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 2,
            backoff_cycles: 1_000,
            backoff_factor: 2,
            failover: true,
        }
    }
}

impl RecoveryPolicy {
    /// Backoff for retry `attempt` (1-based): `backoff_cycles *
    /// backoff_factor^(attempt-1)`, saturating.
    pub fn backoff_for(&self, attempt: u32) -> u64 {
        self.backoff_cycles.saturating_mul(
            self.backoff_factor
                .saturating_pow(attempt.saturating_sub(1)),
        )
    }
}

/// The state of one run: the live plan and its buffers, the watchdog and
/// recovery settings, and the counters the run reports.
#[derive(Debug)]
struct RunCtx<'b> {
    /// The execution mode, which schedules every invocation's transfers.
    mode: ExecMode,
    /// Device placement; failover remaps instances in place, and the remap
    /// is sticky for the rest of the run.
    plan: Plan,
    /// The buffers the run reads and writes.
    buf: &'b AppBuffers,
    /// Per-invocation watchdog deadline in cycles.
    watchdog: u64,
    /// Recovery policy; `None` = watchdog expiry is fatal.
    policy: Option<RecoveryPolicy>,
    /// Cycle at which the run started (timeouts report measured elapsed
    /// cycles, not the configured budget).
    start_cycle: u64,
    /// Invocations issued, re-issues included.
    invocations: u64,
    /// Invocations re-issued after a watchdog expiry.
    retries: u64,
    /// Stage instances remapped to a spare.
    failovers: u64,
    /// Devices abandoned by failover — never picked as spares again.
    banned: HashSet<Coord>,
}

impl RunCtx<'_> {
    /// The device `inv` currently runs on (after any failover).
    fn device(&self, inv: &Invocation) -> Coord {
        self.plan[inv.s][inv.j]
    }
}

/// One accelerator invocation: the plan slot it runs on, the socket
/// configuration kept for re-issue, and its watchdog state.
#[derive(Debug, Clone)]
struct Invocation {
    /// Stage index into the plan.
    s: usize,
    /// Instance index within stage `s`.
    j: usize,
    /// The global frame (DMA modes) or the batch's first frame (p2p).
    frame: u64,
    /// Socket registers, written unchanged on every (re-)issue.
    cfg: AccelConfig,
    /// Cycle at which the latest (re-)issue's ioctl returned.
    issued_at: u64,
    /// Retries spent on the current device.
    attempts: u32,
}

impl Invocation {
    fn new(s: usize, j: usize, frame: u64, cfg: AccelConfig) -> Self {
        Invocation {
            s,
            j,
            frame,
            cfg,
            issued_at: 0,
            attempts: 0,
        }
    }

    /// The socket registers of stage `s`, instance `j` over `n` frames,
    /// scheduled by [`ExecMode::instance_io`]: a DMA side reads `src` or
    /// writes `dst`; a p2p side pulls from the scheduled producers or
    /// serves the next stage.
    fn config(cx: &RunCtx<'_>, s: usize, j: usize, src: u64, dst: u64, n: u64) -> AccelConfig {
        let widths: Vec<usize> = cx.plan.iter().map(Vec::len).collect();
        let io = cx.mode.instance_io(&widths, s, j);
        let sources = || io.sources.iter().map(|&i| cx.plan[s - 1][i]).collect();
        match (io.loads, io.stores) {
            (true, true) => AccelConfig::dma_to_dma(src, dst, n),
            (true, false) => AccelConfig::dma_to_p2p(src, n),
            (false, true) => AccelConfig::p2p_to_dma(sources(), dst, n),
            (false, false) => AccelConfig::p2p_to_p2p(sources(), n),
        }
    }

    /// The single-frame DMA invocation of stage `s`, instance `j` on
    /// global frame `f`: it reads the stage's input region and writes the
    /// next stage's region, or the application output.
    fn dma(cx: &RunCtx<'_>, s: usize, j: usize, f: u64) -> Self {
        let buf = cx.buf;
        let region = |r: usize| buf.handle.base + buf.region_offsets[r] + f * buf.stage_in_words[r];
        let src = if s == 0 {
            buf.input_frame_addr(f)
        } else {
            region(s)
        };
        let dst = if s + 1 == buf.stage_in_words.len() {
            buf.output_frame_addr(f)
        } else {
            region(s + 1)
        };
        let cfg = Self::config(cx, s, j, src, dst, 1).with_frame_ids(f, 1);
        Invocation::new(s, j, f, cfg)
    }

    /// The p2p batch of stage `s`, instance `j` over its `n` frames.
    /// Instance `j` of a width-`k` stage serves global frames j, j+k,
    /// j+2k, ... (the round-robin frame assignment), so its input and
    /// output sub-regions start at those of frame `j`.
    fn batch(cx: &RunCtx<'_>, s: usize, j: usize, n: u64) -> Self {
        let (f, k) = (j as u64, cx.plan[s].len() as u64);
        let (src, dst) = (cx.buf.input_frame_addr(f), cx.buf.output_frame_addr(f));
        let cfg = Self::config(cx, s, j, src, dst, n).with_frame_ids(f, k);
        Invocation::new(s, j, f, cfg)
    }
}

/// A typed description of one `esp_run` invocation: the dataflow plus the
/// run options (execution mode, watchdog, recovery policy).
///
/// ```
/// use esp4ml_runtime::{Dataflow, ExecMode, RunSpec};
///
/// let df = Dataflow::linear(&[&["classifier"]]);
/// let spec = RunSpec::new(&df).mode(ExecMode::P2p).watchdog_cycles(50_000);
/// assert_eq!(spec.exec_mode(), ExecMode::P2p);
/// ```
#[derive(Debug, Clone)]
pub struct RunSpec<'a> {
    dataflow: &'a Dataflow,
    mode: ExecMode,
    watchdog_cycles: Option<u64>,
    recovery: Option<RecoveryPolicy>,
}

impl<'a> RunSpec<'a> {
    /// Starts a run specification for `dataflow` in [`ExecMode::Base`].
    pub fn new(dataflow: &'a Dataflow) -> Self {
        RunSpec {
            dataflow,
            mode: ExecMode::Base,
            watchdog_cycles: None,
            recovery: None,
        }
    }

    /// Selects the execution mode (Fig. 7's `base` / `pipe` / `p2p`).
    pub fn mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Overrides the per-invocation watchdog deadline for this run
    /// (defaults to [`DEFAULT_WATCHDOG_CYCLES`]). The watchdog replaces
    /// the old global run timeout: every invocation must raise its
    /// completion interrupt within `cycles` of being issued.
    pub fn watchdog_cycles(mut self, cycles: u64) -> Self {
        self.watchdog_cycles = Some(cycles);
        self
    }

    /// Enables fault recovery for this run: on a watchdog expiry the
    /// runtime resets and retries the invocation per `policy`, then fails
    /// over to a spare device of the same kind if the policy allows it.
    pub fn recover(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = Some(policy);
        self
    }

    /// The dataflow this spec runs.
    pub fn dataflow(&self) -> &'a Dataflow {
        self.dataflow
    }

    /// The selected execution mode.
    pub fn exec_mode(&self) -> ExecMode {
        self.mode
    }
}

/// The buffers backing one application dataflow (returned by
/// [`EspRuntime::prepare`], the `esp_alloc` step).
///
/// Region 0 holds the input frames, partitioned by first-stage instance;
/// region `i` holds the output of stage `i-1` (used only by the
/// memory-communication modes); the last region holds the application
/// output, partitioned by last-stage instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppBuffers {
    /// The underlying contiguous allocation.
    pub handle: ContigHandle,
    /// Word offset of each region within the buffer (length `depth + 1`).
    pub region_offsets: Vec<u64>,
    /// Frames the buffers were sized for.
    pub frames: u64,
    /// Input words per frame, per stage (length `depth`).
    pub stage_in_words: Vec<u64>,
    /// Output words per frame of the final stage.
    pub out_words: u64,
    /// Instance count of the first stage (input partitioning).
    pub first_width: u64,
    /// Instance count of the last stage (output partitioning).
    pub last_width: u64,
    /// Input values per frame of the first stage.
    pub in_values: u64,
    /// Output values per frame of the last stage.
    pub out_values: u64,
    /// Data width in bits of the first stage's input.
    pub in_bits: u32,
    /// Data width in bits of the last stage's output.
    pub out_bits: u32,
}

impl AppBuffers {
    /// Frames assigned to instance `j` of a stage with `k` instances.
    pub fn frames_for_instance(frames: u64, k: u64, j: u64) -> u64 {
        (frames + k - 1 - j) / k
    }

    /// Words per instance sub-region for a stage of width `k` with
    /// `words`-word frames.
    fn sub_region_words(frames: u64, k: u64, words: u64) -> u64 {
        frames.div_ceil(k) * words
    }

    /// Word address of input frame `f` (within the SoC address space).
    pub fn input_frame_addr(&self, f: u64) -> u64 {
        let k = self.first_width;
        let (j, local) = (f % k, f / k);
        let sub = Self::sub_region_words(self.frames, k, self.stage_in_words[0]);
        self.handle.base + self.region_offsets[0] + j * sub + local * self.stage_in_words[0]
    }

    /// Word address of output frame `f`.
    pub fn output_frame_addr(&self, f: u64) -> u64 {
        let k = self.last_width;
        let (j, local) = (f % k, f / k);
        let sub = Self::sub_region_words(self.frames, k, self.out_words);
        self.handle.base
            + self.region_offsets[self.region_offsets.len() - 1]
            + j * sub
            + local * self.out_words
    }
}

/// The complete serializable state of an [`EspRuntime`]: the machine
/// snapshot plus the software state layered on top of it.
///
/// Captured alongside the [`SocSnapshot`]: `alloc`, the contiguous
/// allocator, so a restored runtime can keep allocating without
/// colliding with buffers carved out before the snapshot. Per-run
/// counters are not runtime state: each [`EspRuntime::run`] returns its
/// own [`RunMetrics`].
///
/// Excluded: the tracer, a live host-side handle (it lives on the SoC and
/// is excluded from [`SocSnapshot`] too). Device names resolve with
/// [`Soc::accel_by_name`] on the floorplan itself, which [`Soc::restore`]
/// verifies is unchanged.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuntimeSnapshot {
    /// The full machine state underneath the runtime.
    pub soc: SocSnapshot,
    /// The contiguous-buffer allocator (live handles and free list).
    pub alloc: ContigAlloc,
}

/// Per-instance placement: the `[stage][instance]` accelerator tiles a
/// dataflow's device names resolve to.
type Plan = Vec<Vec<Coord>>;

/// A kernel's I/O shape: input values, output values and data width.
/// Stage instances, and failover spares, must agree on it.
fn io_shape(kernel: &dyn AcceleratorKernel) -> (u64, u64, u32) {
    (
        kernel.input_values(),
        kernel.output_values(),
        kernel.data_bits(),
    )
}

/// The ESP runtime: owns the simulated SoC and the contiguous allocator,
/// and implements the `esp_*` API of the paper's generated applications
/// (Fig. 5). Device names map to tile coordinates through
/// [`Soc::accel_by_name`].
#[derive(Debug)]
pub struct EspRuntime {
    soc: Soc,
    alloc: ContigAlloc,
}

impl EspRuntime {
    /// Boots the runtime on an SoC, carving the contiguous-allocation pool
    /// (the driver's reserved memory) out of the SoC's whole DRAM word
    /// space.
    ///
    /// # Errors
    ///
    /// Propagates SoC query failures.
    pub fn new(soc: Soc) -> Result<Self, RuntimeError> {
        let alloc = ContigAlloc::new(0, soc.mem_map().total_words());
        Ok(EspRuntime { soc, alloc })
    }

    /// Installs a trace sink handle on the whole SoC (mesh, accelerator
    /// and memory tiles); the runtime emits its own events through it.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.soc.set_tracer(tracer);
    }

    /// The underlying SoC (e.g. for resource and power reporting).
    pub fn soc(&self) -> &Soc {
        &self.soc
    }

    /// Mutable access to the underlying SoC.
    pub fn soc_mut(&mut self) -> &mut Soc {
        &mut self.soc
    }

    /// Hardware execution counters of a device (the ESP monitors API):
    /// busy/load/compute/store cycles, frames, DMA and p2p word counts.
    pub fn device_stats(&self, name: &str) -> Option<esp4ml_soc::AccelStats> {
        let coord = self.soc.accel_by_name(name)?;
        self.soc.accel(coord).ok().map(|t| *t.stats())
    }

    /// The kernel of the accelerator tile at `coord`.
    fn kernel(&self, coord: Coord) -> Result<&dyn AcceleratorKernel, RuntimeError> {
        Ok(self.soc.accel(coord)?.kernel())
    }

    /// Resolves a dataflow's device names to tiles, checking that the
    /// instances of a stage share one I/O shape and that each stage's
    /// output feeds the next stage's input.
    fn resolve(&self, dataflow: &Dataflow) -> Result<Plan, RuntimeError> {
        dataflow.validate().map_err(RuntimeError::BadDataflow)?;
        let mut plan = Vec::with_capacity(dataflow.depth());
        for spec in &dataflow.stages {
            let mut instances = Vec::with_capacity(spec.width());
            for name in &spec.devices {
                let coord = self
                    .soc
                    .accel_by_name(name)
                    .ok_or_else(|| RuntimeError::UnknownDevice { name: name.clone() })?;
                instances.push(coord);
            }
            // All instances of a stage must be interchangeable.
            let first = self.kernel(instances[0])?;
            for &coord in &instances[1..] {
                let other = self.kernel(coord)?;
                if io_shape(other) != io_shape(first) {
                    return Err(RuntimeError::BadDataflow(Diagnostic::error(
                        codes::STAGE_WIDTHS,
                        format!("device {}", other.name()),
                        format!(
                            "stage instances {} and {} have different I/O shapes",
                            first.name(),
                            other.name()
                        ),
                    )));
                }
            }
            plan.push(instances);
        }
        for w in plan.windows(2) {
            let (a, b) = (self.kernel(w[0][0])?, self.kernel(w[1][0])?);
            if a.output_values() != b.input_values() {
                return Err(RuntimeError::BadDataflow(Diagnostic::error(
                    codes::STAGE_WIDTHS,
                    format!("device {}", b.name()),
                    format!(
                        "stage output {} values does not feed stage input {} values",
                        a.output_values(),
                        b.input_values()
                    ),
                )));
            }
        }
        Ok(plan)
    }

    /// Captures the complete serializable runtime state — machine
    /// snapshot and allocator — as a [`RuntimeSnapshot`] that
    /// [`EspRuntime::restore`] resumes byte-identically.
    pub fn snapshot(&self) -> RuntimeSnapshot {
        RuntimeSnapshot {
            soc: self.soc.snapshot(),
            alloc: self.alloc.clone(),
        }
    }

    /// Restores a state captured by [`EspRuntime::snapshot`], replacing
    /// the SoC state and allocator wholesale. The runtime must sit on the
    /// same floorplan the snapshot was taken on. The tracer is left as-is.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Soc`] with
    /// [`SocError::SnapshotMismatch`](esp4ml_soc::SocError::SnapshotMismatch)
    /// when the snapshot's floorplan does not match; the runtime is
    /// unmodified in that case.
    pub fn restore(&mut self, snapshot: &RuntimeSnapshot) -> Result<(), RuntimeError> {
        self.soc.restore(&snapshot.soc)?;
        self.alloc = snapshot.alloc.clone();
        Ok(())
    }

    /// Allocates a raw contiguous buffer (`esp_alloc`).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Alloc`] when the pool is exhausted.
    pub fn esp_alloc(&mut self, words: u64) -> Result<ContigHandle, RuntimeError> {
        Ok(self.alloc.alloc(words)?)
    }

    /// Frees every allocation (`esp_cleanup`).
    pub fn esp_cleanup(&mut self) {
        self.alloc.free_all();
    }

    /// Allocates and maps the buffers for a dataflow over `frames` frames,
    /// installing each device's page table.
    ///
    /// # Errors
    ///
    /// Unknown devices, invalid dataflows, exhausted memory.
    pub fn prepare(
        &mut self,
        dataflow: &Dataflow,
        frames: u64,
    ) -> Result<AppBuffers, RuntimeError> {
        let plan = self.resolve(dataflow)?;
        let depth = plan.len();
        let mut region_offsets = Vec::with_capacity(depth + 1);
        let mut stage_in_words = Vec::with_capacity(depth);
        let mut cursor = 0u64;
        for (s, stage) in plan.iter().enumerate() {
            let kernel = self.kernel(stage[0])?;
            let words = words_for(kernel.input_values(), kernel.data_bits());
            stage_in_words.push(words);
            region_offsets.push(cursor);
            // Only the input region is partitioned by instance.
            let k = if s == 0 { stage.len() as u64 } else { 1 };
            cursor += AppBuffers::sub_region_words(frames, k, words) * k;
        }
        let (in_values, _, in_bits) = io_shape(self.kernel(plan[0][0])?);
        let (_, out_values, out_bits) = io_shape(self.kernel(plan[depth - 1][0])?);
        let out_words = words_for(out_values, out_bits);
        region_offsets.push(cursor);
        let k_last = plan[depth - 1].len() as u64;
        cursor += AppBuffers::sub_region_words(frames, k_last, out_words) * k_last;

        let handle = self.esp_alloc(cursor.max(1))?;
        // Map the whole buffer into every participating accelerator's VA
        // space (identity offsets within the buffer).
        for &coord in plan.iter().flatten() {
            self.soc
                .map_contiguous(coord, 0, handle.base + handle.len)?;
        }
        Ok(AppBuffers {
            handle,
            region_offsets,
            frames,
            stage_in_words,
            out_words,
            first_width: plan[0].len() as u64,
            last_width: k_last,
            in_values,
            out_values,
            in_bits,
            out_bits,
        })
    }

    /// Writes input frame `f` (values) into the prepared buffers.
    ///
    /// # Errors
    ///
    /// Out-of-range addresses.
    pub fn write_frame(
        &mut self,
        buf: &AppBuffers,
        f: u64,
        values: &[u64],
    ) -> Result<(), RuntimeError> {
        let addr = buf.input_frame_addr(f);
        self.soc.dram_write_values(addr, values, buf.in_bits)?;
        Ok(())
    }

    /// Reads output frame `f` (values) from the prepared buffers.
    ///
    /// # Errors
    ///
    /// Out-of-range addresses.
    pub fn read_frame(&self, buf: &AppBuffers, f: u64) -> Result<Vec<u64>, RuntimeError> {
        let addr = buf.output_frame_addr(f);
        Ok(self
            .soc
            .dram_read_values(addr, buf.out_values as usize, buf.out_bits)?)
    }

    /// Executes a [`RunSpec`] over the prepared buffers — the typed
    /// replacement for the removed `esp_run` shim.
    ///
    /// # Errors
    ///
    /// Unknown devices, invalid dataflows, or a simulation timeout.
    pub fn run(
        &mut self,
        spec: &RunSpec<'_>,
        buf: &AppBuffers,
    ) -> Result<RunMetrics, RuntimeError> {
        let plan = self.resolve(spec.dataflow)?;
        let start_cycle = self.soc.cycle();
        let stats0 = self.soc.stats();
        let hops0 = self.soc.noc_stats().total_flit_hops();
        let faults0 = self.soc.faults_injected();
        self.soc.take_irqs(); // discard stale interrupts
        let mut cx = RunCtx {
            mode: spec.mode,
            plan,
            buf,
            watchdog: spec.watchdog_cycles.unwrap_or(DEFAULT_WATCHDOG_CYCLES),
            policy: spec.recovery,
            start_cycle,
            invocations: 0,
            retries: 0,
            failovers: 0,
            banned: HashSet::new(),
        };
        match spec.mode {
            ExecMode::Base => self.run_base(&mut cx)?,
            ExecMode::Pipe => self.run_pipe(&mut cx)?,
            ExecMode::P2p => self.run_p2p(&mut cx)?,
        }

        let stats1 = self.soc.stats();
        Ok(RunMetrics {
            frames: buf.frames,
            cycles: self.soc.cycle() - start_cycle,
            dram_reads: stats1.dram_word_reads - stats0.dram_word_reads,
            dram_writes: stats1.dram_word_writes - stats0.dram_word_writes,
            dram_accesses: (stats1.dram_word_reads + stats1.dram_word_writes)
                - (stats0.dram_word_reads + stats0.dram_word_writes),
            noc_flit_hops: self.soc.noc_stats().total_flit_hops() - hops0,
            invocations: cx.invocations,
            clock_hz: self.soc.clock_hz(),
            faults_injected: self.soc.faults_injected() - faults0,
            retries: cx.retries,
            failovers: cx.failovers,
        })
    }

    /// Base mode: one invocation at a time, frame by frame and stage by
    /// stage, polling for its interrupt right after every (re-)issue.
    fn run_base(&mut self, cx: &mut RunCtx<'_>) -> Result<(), RuntimeError> {
        for f in 0..cx.buf.frames {
            for s in 0..cx.plan.len() {
                let j = (f % cx.plan[s].len() as u64) as usize;
                let mut inv = Invocation::dma(cx, s, j, f);
                self.issue(cx, &mut inv)?;
                while !self.wait_for_irq(cx, &inv) {
                    self.recover(cx, &mut inv, true)?;
                    self.issue(cx, &mut inv)?;
                }
            }
        }
        Ok(())
    }

    /// Pipe mode: a software pipeline of single-frame DMA invocations.
    /// Each round retires, issues every ready frame (each ioctl
    /// serializes on the core), then expires and sleeps before polling.
    fn run_pipe(&mut self, cx: &mut RunCtx<'_>) -> Result<(), RuntimeError> {
        let (frames, depth) = (cx.buf.frames, cx.plan.len());
        // Plan slots in stage-major order; `inflight` and `issued` (the
        // frames each instance has started) are indexed alike.
        let slots: Vec<(usize, usize)> = cx
            .plan
            .iter()
            .enumerate()
            .flat_map(|(s, stage)| (0..stage.len()).map(move |j| (s, j)))
            .collect();
        let mut inflight: Vec<Option<Invocation>> = vec![None; slots.len()];
        let mut issued = vec![0u64; slots.len()];
        // Per stage: which frames have completed.
        let mut done = vec![vec![false; frames as usize]; depth];
        loop {
            for inv in self.retire(cx, &mut inflight) {
                done[inv.s][inv.frame as usize] = true;
            }
            if done[depth - 1].iter().all(|&d| d) {
                return Ok(());
            }
            for (i, &(s, j)) in slots.iter().enumerate() {
                // Instance `j` of a width-`k` stage takes frames j, j+k, ...
                let f = j as u64 + issued[i] * cx.plan[s].len() as u64;
                if inflight[i].is_some() || f >= frames || (s > 0 && !done[s - 1][f as usize]) {
                    continue;
                }
                let mut inv = Invocation::dma(cx, s, j, f);
                self.issue(cx, &mut inv)?;
                issued[i] += 1;
                inflight[i] = Some(inv);
            }
            self.expire_and_sleep(cx, &mut inflight, true)?;
        }
    }

    /// p2p mode: one batch invocation per instance, synchronized by the
    /// hardware. It polls once right after issuing every batch, then
    /// sleeps before each poll.
    ///
    /// Recovery is retry-only: peers address their sources by tile
    /// coordinate in `P2P_REG`, so swapping one instance would require
    /// reconfiguring (and restarting) every consumer mid-flight. Retry
    /// alone still recovers hangs at start: a restarted producer finds its
    /// consumers parked in LOAD, waiting for the p2p data.
    fn run_p2p(&mut self, cx: &mut RunCtx<'_>) -> Result<(), RuntimeError> {
        let mut inflight = Vec::new();
        for s in 0..cx.plan.len() {
            let k = cx.plan[s].len() as u64;
            for j in 0..k {
                let n = AppBuffers::frames_for_instance(cx.buf.frames, k, j);
                if n == 0 {
                    continue;
                }
                let mut inv = Invocation::batch(cx, s, j as usize, n);
                self.issue(cx, &mut inv)?;
                inflight.push(Some(inv));
            }
        }
        loop {
            self.retire(cx, &mut inflight);
            if inflight.iter().all(Option::is_none) {
                return Ok(());
            }
            self.expire_and_sleep(cx, &mut inflight, false)?;
        }
    }

    /// Emits a runtime event on the SoC's tracer at the current cycle,
    /// traced as issued from the primary processor tile.
    fn trace(&self, event: impl FnOnce() -> TraceEvent) {
        let proc = self.soc.primary_proc();
        self.soc
            .tracer()
            .emit(self.soc.cycle(), TileCoord::new(proc.x, proc.y), event);
    }

    /// The device name of the accelerator at `coord`, for trace events.
    fn device_name(&self, coord: Coord) -> String {
        self.soc
            .accel(coord)
            .map(|t| t.kernel_name().to_string())
            .unwrap_or_default()
    }

    /// Configures and starts `inv` on its (possibly failed-over) device
    /// and charges the ioctl. The invocation's watchdog starts when the
    /// ioctl returns.
    fn issue(&mut self, cx: &mut RunCtx<'_>, inv: &mut Invocation) -> Result<(), RuntimeError> {
        let coord = cx.device(inv);
        self.soc.configure_accel(coord, &inv.cfg)?;
        self.soc.start_accel(coord)?;
        self.trace(|| TraceEvent::IoctlIssue {
            device: self.device_name(coord),
        });
        self.soc.run_cycles(IOCTL_CYCLES);
        cx.invocations += 1;
        inv.issued_at = self.soc.cycle();
        Ok(())
    }

    /// The recovery ladder for an invocation whose watchdog expired. While
    /// retries remain: reset the device and burn the policy's backoff.
    /// Then, if `remap`: quiesce the device and fail over to a spare with
    /// a fresh retry budget. Otherwise give up with a timeout. On `Ok` the
    /// caller re-issues `inv`.
    fn recover(
        &mut self,
        cx: &mut RunCtx<'_>,
        inv: &mut Invocation,
        remap: bool,
    ) -> Result<(), RuntimeError> {
        let Some(policy) = cx.policy else {
            return Err(self.timeout_err(cx));
        };
        let coord = cx.device(inv);
        inv.attempts += 1;
        if inv.attempts <= policy.max_retries {
            let (attempt, backoff) = (inv.attempts, policy.backoff_for(inv.attempts));
            self.trace(|| TraceEvent::RetryScheduled {
                device: self.device_name(coord),
                attempt,
                backoff,
            });
            self.soc.reset_accel(coord)?;
            if backoff > 0 {
                self.soc.run_cycles(backoff);
            }
            cx.retries += 1;
            return Ok(());
        }
        if remap {
            // Quiesce the abandoned device so it stops holding NoC or PLM
            // resources, then try a spare.
            self.soc.reset_accel(coord)?;
            if policy.failover && self.failover(cx, inv)? {
                inv.attempts = 0;
                return Ok(());
            }
        }
        Err(self.timeout_err(cx))
    }

    /// Remaps `inv`'s stage instance to an idle spare: the first tile in
    /// placement order of the same kind and I/O shape, not part of the
    /// plan, not previously abandoned. Returns `false` when no spare
    /// exists.
    fn failover(&mut self, cx: &mut RunCtx<'_>, inv: &Invocation) -> Result<bool, RuntimeError> {
        let failed = cx.device(inv);
        let in_plan: HashSet<Coord> = cx.plan.iter().flatten().copied().collect();
        let kernel = self.kernel(failed)?;
        let (kind, shape) = (kernel.kind(), io_shape(kernel));
        let spare = self.soc.accel_coords().into_iter().find(|c| {
            !in_plan.contains(c)
                && !cx.banned.contains(c)
                && self
                    .kernel(*c)
                    .is_ok_and(|k| k.kind() == kind && io_shape(k) == shape)
        });
        let Some(spare) = spare else {
            return Ok(false);
        };
        // `prepare` only mapped the planned devices; the spare needs the
        // application buffer in its VA space before it can DMA.
        let end = cx.buf.handle.base + cx.buf.handle.len;
        self.soc.map_contiguous(spare, 0, end)?;
        cx.banned.insert(failed);
        self.trace(|| TraceEvent::FailedOver {
            from: self.device_name(failed),
            to: self.device_name(spare),
        });
        cx.plan[inv.s][inv.j] = spare;
        cx.failovers += 1;
        Ok(true)
    }

    /// Drains the completion interrupts and takes every invocation whose
    /// device raised one out of `inflight`, returning them.
    fn retire(&mut self, cx: &RunCtx<'_>, inflight: &mut [Option<Invocation>]) -> Vec<Invocation> {
        let irqs = self.soc.take_irqs();
        inflight
            .iter_mut()
            .filter(|slot| {
                slot.as_ref()
                    .is_some_and(|inv| irqs.contains(&cx.device(inv)))
            })
            .filter_map(Option::take)
            .collect()
    }

    /// Recovers and re-issues every invocation in `inflight` whose
    /// watchdog has expired, then sleeps to the earliest deadline still in
    /// flight: the event-driven engine stops sooner at the next
    /// interesting cycle, the naive engine ticks once. Issue decisions only
    /// change when an interrupt retires, so skipping boring cycles cannot
    /// alter the schedule.
    fn expire_and_sleep(
        &mut self,
        cx: &mut RunCtx<'_>,
        inflight: &mut [Option<Invocation>],
        remap: bool,
    ) -> Result<(), RuntimeError> {
        let now = self.soc.cycle();
        for inv in inflight.iter_mut().flatten() {
            if now > inv.issued_at.saturating_add(cx.watchdog) {
                self.recover(cx, inv, remap)?;
                self.issue(cx, inv)?;
            }
        }
        let deadline = inflight
            .iter()
            .flatten()
            .map(|i| i.issued_at.saturating_add(cx.watchdog))
            .min();
        let Some(deadline) = deadline else {
            // Nothing in flight yet frames remain: the schedule is wedged
            // (cannot happen with a well-formed plan).
            return Err(self.timeout_err(cx));
        };
        let now = self.soc.cycle();
        self.soc
            .step(deadline.saturating_add(1).saturating_sub(now).max(1));
        Ok(())
    }

    /// Steps the SoC until `inv`'s device raises its completion interrupt.
    /// Returns `false` when the invocation's watchdog expires first.
    fn wait_for_irq(&mut self, cx: &RunCtx<'_>, inv: &Invocation) -> bool {
        let (coord, deadline) = (cx.device(inv), inv.issued_at.saturating_add(cx.watchdog));
        loop {
            if self.soc.take_irqs().contains(&coord) {
                return true;
            }
            if self.soc.cycle() > deadline {
                return false;
            }
            self.soc.step(
                deadline
                    .saturating_add(1)
                    .saturating_sub(self.soc.cycle())
                    .max(1),
            );
        }
    }

    /// Builds the timeout error, reporting how long the run actually ran
    /// (not the configured budget) plus a deadlock diagnosis if the
    /// sanitizer can name one.
    fn timeout_err(&self, cx: &RunCtx<'_>) -> RuntimeError {
        RuntimeError::Timeout {
            cycles: self.soc.cycle() - cx.start_cycle,
            diagnosis: self.soc.diagnose_deadlock().map(|d| d.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp4ml_fault::{FaultPlan, FaultSpec};
    use esp4ml_mem::DramConfig;
    use esp4ml_soc::{ScaleKernel, SocBuilder, SocEngine};

    /// Fallible helpers: tests bubble failures up with `?` instead of
    /// unwrapping at every call site.
    fn two_stage_runtime() -> Result<EspRuntime, RuntimeError> {
        let soc = SocBuilder::new(3, 2)
            .processor(Coord::new(0, 0))
            .memory(Coord::new(1, 0))
            .accelerator(Coord::new(0, 1), Box::new(ScaleKernel::new("x2", 16, 2)))
            .accelerator(Coord::new(1, 1), Box::new(ScaleKernel::new("x3", 16, 3)))
            .build()
            .map_err(RuntimeError::Soc)?;
        EspRuntime::new(soc)
    }

    fn run_mode(mode: ExecMode) -> Result<(Vec<Vec<u64>>, RunMetrics), RuntimeError> {
        run_mode_on(SocEngine::default(), mode, None)
    }

    /// Runs 4 frames through `two_stage_runtime` on `engine` in `mode`,
    /// with a `watchdog` override when given, returning the output frames
    /// and the run's metrics.
    fn run_mode_on(
        engine: SocEngine,
        mode: ExecMode,
        watchdog: Option<u64>,
    ) -> Result<(Vec<Vec<u64>>, RunMetrics), RuntimeError> {
        let mut rt = two_stage_runtime()?;
        rt.soc_mut().set_engine(engine);
        let df = Dataflow::linear(&[&["x2"], &["x3"]]);
        let frames = 4;
        let buf = rt.prepare(&df, frames)?;
        for f in 0..frames {
            let vals: Vec<u64> = (0..16).map(|i| i + 100 * f).collect();
            rt.write_frame(&buf, f, &vals)?;
        }
        let mut spec = RunSpec::new(&df).mode(mode);
        if let Some(cycles) = watchdog {
            spec = spec.watchdog_cycles(cycles);
        }
        let m = rt.run(&spec, &buf)?;
        let mut outs = Vec::new();
        for f in 0..frames {
            outs.push(rt.read_frame(&buf, f)?);
        }
        Ok((outs, m))
    }

    /// Runs 4 frames through `two_stage_runtime` in `mode` under
    /// [`RecoveryPolicy::default`], optionally with x2's first start
    /// command swallowed, and returns `(cycles, invocations, retries,
    /// failovers)`.
    fn pinned_run(mode: ExecMode, hang: bool) -> Result<(u64, u64, u64, u64), RuntimeError> {
        let mut rt = two_stage_runtime()?;
        if hang {
            let plan = FaultPlan::new(0).with(FaultSpec::transient_hang("x2", 0));
            rt.soc_mut().install_fault_plan(&plan);
        }
        let df = Dataflow::linear(&[&["x2"], &["x3"]]);
        let buf = rt.prepare(&df, 4)?;
        for f in 0..4 {
            rt.write_frame(&buf, f, &[f + 1; 16])?;
        }
        let spec = RunSpec::new(&df)
            .mode(mode)
            .watchdog_cycles(50_000)
            .recover(RecoveryPolicy::default());
        let m = rt.run(&spec, &buf)?;
        for f in 0..4 {
            assert_eq!(rt.read_frame(&buf, f)?, vec![(f + 1) * 6; 16], "frame {f}");
        }
        Ok((m.cycles, m.invocations, m.retries, m.failovers))
    }

    /// Exact metrics per mode, healthy and recovering. The `ScaleKernel`
    /// stages finish inside their own ioctl window, so these numbers move
    /// if any mode changes when it polls for completion interrupts.
    #[test]
    fn run_metrics_are_pinned_per_mode() -> Result<(), RuntimeError> {
        let pins = [
            (ExecMode::Base, false, (2400, 8, 0, 0)),
            (ExecMode::Pipe, false, (2405, 8, 0, 0)),
            (ExecMode::P2p, false, (600, 2, 0, 0)),
            (ExecMode::Base, true, (53701, 9, 1, 0)),
            (ExecMode::Pipe, true, (53706, 9, 1, 0)),
            (ExecMode::P2p, true, (52903, 4, 2, 0)),
        ];
        for (mode, hang, expected) in pins {
            assert_eq!(pinned_run(mode, hang)?, expected, "{mode:?}, hang: {hang}");
        }
        Ok(())
    }

    #[test]
    fn all_modes_compute_the_same_result() -> Result<(), RuntimeError> {
        let (base, mb) = run_mode(ExecMode::Base)?;
        let (pipe, mp) = run_mode(ExecMode::Pipe)?;
        let (p2p, m2) = run_mode(ExecMode::P2p)?;
        for f in 0..4usize {
            let expected: Vec<u64> = (0..16).map(|i| (i + 100 * f as u64) * 6).collect();
            assert_eq!(base[f], expected, "base frame {f}");
            assert_eq!(pipe[f], expected, "pipe frame {f}");
            assert_eq!(p2p[f], expected, "p2p frame {f}");
        }
        assert_eq!(mb.frames, 4);
        assert!(mb.invocations == 8 && mp.invocations == 8 && m2.invocations == 2);
        Ok(())
    }

    /// Restore identity: executing the load/config prefix once,
    /// snapshotting, and restoring the snapshot before each mode must be
    /// indistinguishable — metrics, outputs and the full final machine
    /// state — from a cold start per mode.
    #[test]
    fn forked_prefix_runs_match_cold_start() -> Result<(), RuntimeError> {
        let frames = 4;
        let fill = |rt: &mut EspRuntime, buf: &AppBuffers| -> Result<(), RuntimeError> {
            for f in 0..frames {
                let vals: Vec<u64> = (0..16).map(|i| i + 100 * f).collect();
                rt.write_frame(buf, f, &vals)?;
            }
            Ok(())
        };
        let modes = [ExecMode::Base, ExecMode::Pipe, ExecMode::P2p];

        // Cold start: a fresh runtime executes the prefix for every mode.
        let mut cold = Vec::new();
        for mode in modes {
            let mut rt = two_stage_runtime()?;
            let df = Dataflow::linear(&[&["x2"], &["x3"]]);
            let buf = rt.prepare(&df, frames)?;
            fill(&mut rt, &buf)?;
            let m = rt.run(&RunSpec::new(&df).mode(mode), &buf)?;
            let out = rt.read_frame(&buf, frames - 1)?;
            cold.push((m, out, rt.snapshot()));
        }

        // Forked: the prefix runs once and the snapshot is reused.
        let mut rt = two_stage_runtime()?;
        let df = Dataflow::linear(&[&["x2"], &["x3"]]);
        let buf = rt.prepare(&df, frames)?;
        fill(&mut rt, &buf)?;
        let warm = rt.snapshot();
        for (mode, (m_cold, out_cold, snap_cold)) in modes.into_iter().zip(&cold) {
            rt.restore(&warm)?;
            let m = rt.run(&RunSpec::new(&df).mode(mode), &buf)?;
            assert_eq!(&m, m_cold, "{mode:?} metrics diverge");
            assert_eq!(&rt.read_frame(&buf, frames - 1)?, out_cold);
            assert_eq!(&rt.snapshot(), snap_cold, "{mode:?} final state diverges");
        }
        Ok(())
    }

    #[test]
    fn restore_rejects_foreign_floorplan() -> Result<(), RuntimeError> {
        let rt = two_stage_runtime()?;
        let snap = rt.snapshot();
        let soc = SocBuilder::new(2, 2)
            .processor(Coord::new(0, 0))
            .memory(Coord::new(1, 0))
            .build()
            .map_err(RuntimeError::Soc)?;
        let mut other = EspRuntime::new(soc)?;
        assert!(matches!(
            other.restore(&snap),
            Err(RuntimeError::Soc(esp4ml_soc::SocError::SnapshotMismatch(_)))
        ));
        Ok(())
    }

    #[test]
    fn pipe_is_faster_than_base() {
        // Use compute-heavy kernels so execution is not ioctl-bound (with
        // trivial kernels both modes degenerate to syscall cost, which is
        // itself a faithful behaviour).
        let run = |mode: ExecMode| {
            let soc = SocBuilder::new(3, 2)
                .processor(Coord::new(0, 0))
                .memory(Coord::new(1, 0))
                .accelerator(
                    Coord::new(0, 1),
                    Box::new(ScaleKernel::new("x2", 16, 2).with_cycles_per_value(150)),
                )
                .accelerator(
                    Coord::new(1, 1),
                    Box::new(ScaleKernel::new("x3", 16, 3).with_cycles_per_value(150)),
                )
                .build()
                .unwrap();
            let mut rt = EspRuntime::new(soc).unwrap();
            let df = Dataflow::linear(&[&["x2"], &["x3"]]);
            let buf = rt.prepare(&df, 8).unwrap();
            for f in 0..8 {
                rt.write_frame(&buf, f, &[1; 16]).unwrap();
            }
            rt.run(&RunSpec::new(&df).mode(mode), &buf).unwrap().cycles
        };
        let base = run(ExecMode::Base);
        let pipe = run(ExecMode::Pipe);
        assert!(
            (pipe as f64) < base as f64 * 0.75,
            "pipe {pipe} !<< base {base}"
        );
    }

    #[test]
    fn p2p_reduces_dram_accesses() -> Result<(), RuntimeError> {
        let (_, mp) = run_mode(ExecMode::Pipe)?;
        let (_, m2) = run_mode(ExecMode::P2p)?;
        assert!(
            m2.dram_accesses < mp.dram_accesses / 2 + 1,
            "p2p {} vs pipe {}",
            m2.dram_accesses,
            mp.dram_accesses
        );
        // Exactly input + output should hit DRAM under p2p.
        assert_eq!(m2.dram_accesses, 4 * 4 + 4 * 4);
        Ok(())
    }

    #[test]
    fn unknown_device_rejected() -> Result<(), RuntimeError> {
        let mut rt = two_stage_runtime()?;
        let df = Dataflow::linear(&[&["nope"]]);
        assert!(matches!(
            rt.prepare(&df, 1),
            Err(RuntimeError::UnknownDevice { .. })
        ));
        Ok(())
    }

    #[test]
    fn mismatched_stage_sizes_rejected() {
        let soc = SocBuilder::new(3, 2)
            .processor(Coord::new(0, 0))
            .memory(Coord::new(1, 0))
            .accelerator(Coord::new(0, 1), Box::new(ScaleKernel::new("a", 16, 2)))
            .accelerator(Coord::new(1, 1), Box::new(ScaleKernel::new("b", 8, 3)))
            .build()
            .unwrap();
        let mut rt = EspRuntime::new(soc).unwrap();
        let df = Dataflow::linear(&[&["a"], &["b"]]);
        assert!(matches!(
            rt.prepare(&df, 1),
            Err(RuntimeError::BadDataflow(_))
        ));
    }

    #[test]
    fn fan_in_pipeline_runs_p2p() {
        // Two producers, one consumer (the 4NV+1Cl shape, scaled down).
        let soc = SocBuilder::new(3, 2)
            .processor(Coord::new(0, 0))
            .memory(Coord::new(1, 0))
            .accelerator(Coord::new(0, 1), Box::new(ScaleKernel::new("p0", 8, 2)))
            .accelerator(Coord::new(1, 1), Box::new(ScaleKernel::new("p1", 8, 2)))
            .accelerator(Coord::new(2, 1), Box::new(ScaleKernel::new("c", 8, 5)))
            .build()
            .unwrap();
        let mut rt = EspRuntime::new(soc).unwrap();
        let df = Dataflow::linear(&[&["p0", "p1"], &["c"]]);
        let frames = 6;
        let buf = rt.prepare(&df, frames).unwrap();
        for f in 0..frames {
            rt.write_frame(&buf, f, &[f + 1; 8]).unwrap();
        }
        let m = rt
            .run(&RunSpec::new(&df).mode(ExecMode::P2p), &buf)
            .unwrap();
        assert_eq!(m.invocations, 3);
        for f in 0..frames {
            assert_eq!(
                rt.read_frame(&buf, f).unwrap(),
                vec![(f + 1) * 10; 8],
                "frame {f}"
            );
        }
    }

    #[test]
    fn esp_alloc_and_cleanup() -> Result<(), RuntimeError> {
        let mut rt = two_stage_runtime()?;
        let h = rt.esp_alloc(1024)?;
        assert_eq!(h.len, 1024);
        rt.esp_cleanup();
        let h2 = rt.esp_alloc(1024)?;
        assert_eq!(h2.base, h.base);
        Ok(())
    }

    /// Every DMA-mode invocation is charged the fixed ioctl cost: the
    /// ioctls serialize on the core, so a run lasts at least that long per
    /// invocation, re-issues included.
    #[test]
    fn dma_invocations_are_charged_the_fixed_ioctl_cost() -> Result<(), RuntimeError> {
        for mode in [ExecMode::Base, ExecMode::Pipe] {
            for hang in [false, true] {
                let (cycles, invocations, ..) = pinned_run(mode, hang)?;
                assert!(
                    cycles >= invocations * IOCTL_CYCLES,
                    "{mode:?}, hang: {hang}: {cycles} cycles for {invocations} invocations"
                );
            }
        }
        Ok(())
    }

    #[test]
    fn watchdog_retry_recovers_transient_hang() -> Result<(), RuntimeError> {
        let mut rt = two_stage_runtime()?;
        // Swallow the second start command x2 receives (frame 1).
        let plan = FaultPlan::new(0).with(FaultSpec::transient_hang("x2", 1));
        rt.soc_mut().install_fault_plan(&plan);
        let df = Dataflow::linear(&[&["x2"], &["x3"]]);
        let frames = 3;
        let buf = rt.prepare(&df, frames)?;
        for f in 0..frames {
            rt.write_frame(&buf, f, &[f + 1; 16])?;
        }
        let spec = RunSpec::new(&df)
            .watchdog_cycles(50_000)
            .recover(RecoveryPolicy::default());
        let m = rt.run(&spec, &buf)?;
        assert!(m.retries >= 1, "no retry recorded: {m:?}");
        assert_eq!(m.failovers, 0);
        assert!(m.faults_injected >= 1);
        for f in 0..frames {
            assert_eq!(rt.read_frame(&buf, f)?, vec![(f + 1) * 6; 16], "frame {f}");
        }
        Ok(())
    }

    #[test]
    fn permanent_hang_fails_over_to_spare() -> Result<(), RuntimeError> {
        let soc = SocBuilder::new(3, 2)
            .processor(Coord::new(0, 0))
            .memory(Coord::new(1, 0))
            .accelerator(
                Coord::new(0, 1),
                Box::new(ScaleKernel::new("x2", 16, 2).with_kind("doubler")),
            )
            .accelerator(
                Coord::new(1, 1),
                Box::new(ScaleKernel::new("x2_spare", 16, 2).with_kind("doubler")),
            )
            .accelerator(Coord::new(2, 1), Box::new(ScaleKernel::new("x3", 16, 3)))
            .build()
            .map_err(RuntimeError::Soc)?;
        let mut rt = EspRuntime::new(soc)?;
        let plan = FaultPlan::new(0).with(FaultSpec::permanent_hang("x2"));
        rt.soc_mut().install_fault_plan(&plan);
        let df = Dataflow::linear(&[&["x2"], &["x3"]]);
        let buf = rt.prepare(&df, 2)?;
        for f in 0..2 {
            rt.write_frame(&buf, f, &[5; 16])?;
        }
        let policy = RecoveryPolicy {
            max_retries: 1,
            backoff_cycles: 100,
            backoff_factor: 2,
            failover: true,
        };
        let spec = RunSpec::new(&df)
            .mode(ExecMode::Pipe)
            .watchdog_cycles(50_000)
            .recover(policy);
        let m = rt.run(&spec, &buf)?;
        assert_eq!(m.failovers, 1, "{m:?}");
        assert!(m.retries >= 1, "{m:?}");
        for f in 0..2 {
            assert_eq!(rt.read_frame(&buf, f)?, vec![30; 16], "frame {f}");
        }
        Ok(())
    }

    /// Failover walks the tiles in placement order: it skips a same-kind
    /// spare of another I/O shape, takes the first one that matches, and
    /// never returns to a device it abandoned, even once that device has
    /// left the plan. The first spare hangs once, so the second failover
    /// would find the abandoned `x2` ahead of `second`.
    #[test]
    fn failover_picks_the_first_matching_spare_and_never_an_abandoned_one(
    ) -> Result<(), RuntimeError> {
        let doubler = |name: &str, values: u64| {
            Box::new(ScaleKernel::new(name, values, 2).with_kind("doubler"))
        };
        let soc = SocBuilder::new(3, 3)
            .processor(Coord::new(0, 0))
            .memory(Coord::new(1, 0))
            .accelerator(Coord::new(2, 0), doubler("narrow", 8))
            .accelerator(Coord::new(0, 1), doubler("x2", 16))
            .accelerator(Coord::new(1, 1), doubler("first", 16))
            .accelerator(Coord::new(2, 1), doubler("second", 16))
            .accelerator(Coord::new(0, 2), Box::new(ScaleKernel::new("x3", 16, 3)))
            .build()
            .map_err(RuntimeError::Soc)?;
        let mut rt = EspRuntime::new(soc)?;
        let tracer = Tracer::ring_buffer();
        rt.set_tracer(tracer.clone());
        let plan = FaultPlan::new(0)
            .with(FaultSpec::permanent_hang("x2"))
            .with(FaultSpec::transient_hang("first", 0));
        rt.soc_mut().install_fault_plan(&plan);
        let df = Dataflow::linear(&[&["x2"], &["x3"]]);
        let buf = rt.prepare(&df, 2)?;
        for f in 0..2 {
            rt.write_frame(&buf, f, &[5; 16])?;
        }
        let policy = RecoveryPolicy {
            max_retries: 0,
            ..RecoveryPolicy::default()
        };
        let spec = RunSpec::new(&df)
            .mode(ExecMode::Pipe)
            .watchdog_cycles(20_000)
            .recover(policy);
        let m = rt.run(&spec, &buf)?;
        assert_eq!(m.failovers, 2, "{m:?}");
        let remaps: Vec<(String, String)> = tracer
            .drain()
            .into_iter()
            .filter_map(|e| match e.event {
                TraceEvent::FailedOver { from, to } => Some((from, to)),
                _ => None,
            })
            .collect();
        let pair = |from: &str, to: &str| (from.to_string(), to.to_string());
        assert_eq!(remaps, [pair("x2", "first"), pair("first", "second")]);
        for f in 0..2 {
            assert_eq!(rt.read_frame(&buf, f)?, vec![30; 16], "frame {f}");
        }
        let frames = |name: &str| rt.device_stats(name).map(|s| s.frames_done);
        assert_eq!(frames("narrow"), Some(0));
        assert_eq!(frames("second"), Some(2));
        Ok(())
    }

    /// A watchdog of `u64::MAX` never expires: the deadline arithmetic
    /// saturates, and every mode under both engines returns exactly what
    /// the default watchdog returns.
    #[test]
    fn maximal_watchdog_matches_the_default() -> Result<(), RuntimeError> {
        for engine in [SocEngine::Naive, SocEngine::EventDriven] {
            for mode in [ExecMode::Base, ExecMode::Pipe, ExecMode::P2p] {
                assert_eq!(
                    run_mode_on(engine, mode, Some(u64::MAX))?,
                    run_mode_on(engine, mode, None)?,
                    "{engine:?}, {mode:?}"
                );
            }
        }
        Ok(())
    }

    /// The contiguous pool is the SoC's DRAM: a dataflow whose buffers do
    /// not fit is refused at `prepare`, before any DMA leaves the DRAM's
    /// bounds.
    #[test]
    fn prepare_refuses_buffers_larger_than_dram() -> Result<(), RuntimeError> {
        let dram = DramConfig {
            size_words: 64,
            ..DramConfig::default()
        };
        let soc = SocBuilder::new(2, 2)
            .processor(Coord::new(0, 0))
            .memory_with(Coord::new(1, 0), dram)
            .accelerator(Coord::new(0, 1), Box::new(ScaleKernel::new("x2", 16, 2)))
            .build()
            .map_err(RuntimeError::Soc)?;
        let mut rt = EspRuntime::new(soc)?;
        let df = Dataflow::linear(&[&["x2"]]);
        assert!(rt.prepare(&df, 1).is_ok());
        rt.esp_cleanup();
        assert!(matches!(rt.prepare(&df, 16), Err(RuntimeError::Alloc(_))));
        Ok(())
    }

    #[test]
    fn p2p_retries_hang_at_start() -> Result<(), RuntimeError> {
        let mut rt = two_stage_runtime()?;
        // The consumer never starts its batch on the first attempt; the
        // producer parks in STORE waiting for p2p requests, so both
        // invocations eventually trip their watchdogs and restart.
        let plan = FaultPlan::new(0).with(FaultSpec::transient_hang("x3", 0));
        rt.soc_mut().install_fault_plan(&plan);
        let df = Dataflow::linear(&[&["x2"], &["x3"]]);
        let frames = 4;
        let buf = rt.prepare(&df, frames)?;
        for f in 0..frames {
            rt.write_frame(&buf, f, &[f + 1; 16])?;
        }
        let spec = RunSpec::new(&df)
            .mode(ExecMode::P2p)
            .watchdog_cycles(50_000)
            .recover(RecoveryPolicy::default());
        let m = rt.run(&spec, &buf)?;
        assert!(m.retries >= 1, "{m:?}");
        assert_eq!(m.failovers, 0, "p2p never fails over");
        for f in 0..frames {
            assert_eq!(rt.read_frame(&buf, f)?, vec![(f + 1) * 6; 16], "frame {f}");
        }
        Ok(())
    }

    #[test]
    fn timeout_reports_measured_elapsed_cycles() {
        let run = |engine: SocEngine| {
            let mut rt = two_stage_runtime().unwrap();
            rt.soc_mut().set_engine(engine);
            let plan = FaultPlan::new(0).with(FaultSpec::permanent_hang("x2"));
            rt.soc_mut().install_fault_plan(&plan);
            let df = Dataflow::linear(&[&["x2"], &["x3"]]);
            let buf = rt.prepare(&df, 1).unwrap();
            rt.write_frame(&buf, 0, &[1; 16]).unwrap();
            match rt.run(&RunSpec::new(&df).watchdog_cycles(50_000), &buf) {
                Err(RuntimeError::Timeout { cycles, .. }) => cycles,
                other => panic!("expected timeout, got {other:?}"),
            }
        };
        let naive = run(SocEngine::Naive);
        let event = run(SocEngine::EventDriven);
        assert_eq!(naive, event, "engines disagree on measured elapsed");
        // The error reports how long the run actually ran, not the
        // configured watchdog constant.
        assert!(naive > 50_000 && naive < DEFAULT_WATCHDOG_CYCLES);
    }

    #[test]
    fn exhausted_retries_without_spare_time_out() {
        let mut rt = two_stage_runtime().unwrap();
        let plan = FaultPlan::new(0).with(FaultSpec::permanent_hang("x2"));
        rt.soc_mut().install_fault_plan(&plan);
        let df = Dataflow::linear(&[&["x2"], &["x3"]]);
        let buf = rt.prepare(&df, 1).unwrap();
        rt.write_frame(&buf, 0, &[1; 16]).unwrap();
        let policy = RecoveryPolicy {
            max_retries: 1,
            backoff_cycles: 10,
            backoff_factor: 2,
            failover: true, // no same-kind spare exists
        };
        let err = rt
            .run(
                &RunSpec::new(&df).watchdog_cycles(20_000).recover(policy),
                &buf,
            )
            .unwrap_err();
        assert!(matches!(err, RuntimeError::Timeout { .. }), "{err:?}");
    }

    #[test]
    fn recovery_policy_is_free_on_healthy_runs() -> Result<(), RuntimeError> {
        let run = |recover: bool| -> Result<RunMetrics, RuntimeError> {
            let mut rt = two_stage_runtime()?;
            let df = Dataflow::linear(&[&["x2"], &["x3"]]);
            let buf = rt.prepare(&df, 4)?;
            for f in 0..4 {
                rt.write_frame(&buf, f, &[1; 16])?;
            }
            let mut spec = RunSpec::new(&df).mode(ExecMode::Pipe);
            if recover {
                spec = spec.recover(RecoveryPolicy::default());
            }
            rt.run(&spec, &buf)
        };
        let plain = run(false)?;
        let recov = run(true)?;
        assert_eq!(plain, recov, "recovery arming must be zero-cost");
        assert_eq!(recov.retries, 0);
        assert_eq!(recov.faults_injected, 0);
        Ok(())
    }

    #[test]
    fn backoff_grows_exponentially() {
        let p = RecoveryPolicy {
            max_retries: 5,
            backoff_cycles: 100,
            backoff_factor: 3,
            failover: false,
        };
        assert_eq!(p.backoff_for(1), 100);
        assert_eq!(p.backoff_for(2), 300);
        assert_eq!(p.backoff_for(3), 900);
    }
}
