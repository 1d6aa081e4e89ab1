//! Online profiling layer: consumes the [`TraceEvent`] stream as it is
//! produced (no post-hoc trace file required) and reconstructs
//! per-frame latency spans, per-tile time-in-state utilization, and a
//! throughput bottleneck report.
//!
//! The collector attaches to a [`Tracer`](crate::Tracer) by wrapping
//! its sink ([`Collector::sink`]): every recorded event is observed into
//! shared profile state *and* forwarded to the inner sink, so Perfetto
//! export and profiling coexist on one event stream.
//!
//! Engine safety: both `SocEngine::Naive` and `SocEngine::EventDriven`
//! emit identical event streams at identical cycles (the PR 2
//! equivalence contract), and all profile state is derived purely from
//! those events plus the final cycle count — so fast-forwarded runs
//! produce byte-identical reports, which `tests/equivalence.rs`
//! enforces on every experiment grid point.

mod histogram;

pub use histogram::Histogram;

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use crate::collector::sealed::Accumulator;
use crate::collector::{Collector, StageGroups};
use crate::event::{DmaKind, TileCoord, TimedEvent, TraceEvent};
use crate::span::{classify_state, SpanKind};

/// Cycles attributed to the four coarse utilization classes.
///
/// Accelerator socket FSM states map onto classes as follows:
/// `compute` is busy; `load_issue`/`load_wait`/`store_issue` are
/// DMA-path stalls (waiting on data-in or issuing data-out); the p2p
/// service states `store_wait_req`/`store_send`/`store_wait_ack` are
/// NoC stalls; `idle`/`done` (and anything unrecognized) are idle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StateBreakdown {
    /// Cycles spent computing.
    pub busy: u64,
    /// Cycles stalled on the DMA/load path.
    pub dma_stall: u64,
    /// Cycles stalled on NoC point-to-point service.
    pub noc_stall: u64,
    /// Cycles idle (no frame in flight).
    pub idle: u64,
}

impl StateBreakdown {
    /// Attributes `cycles` spent in FSM state `state` to its class.
    pub fn add_state(&mut self, state: &str, cycles: u64) {
        let class = match classify_state(state) {
            SpanKind::Compute => &mut self.busy,
            SpanKind::Dma => &mut self.dma_stall,
            SpanKind::Noc => &mut self.noc_stall,
            _ => &mut self.idle,
        };
        *class += cycles;
    }

    /// Sums the cycles of another breakdown into this one.
    pub fn merge(&mut self, other: &StateBreakdown) {
        self.busy += other.busy;
        self.dma_stall += other.dma_stall;
        self.noc_stall += other.noc_stall;
        self.idle += other.idle;
    }

    /// Total attributed cycles.
    pub fn total(&self) -> u64 {
        self.busy + self.dma_stall + self.noc_stall + self.idle
    }
}

/// Per-accelerator-instance utilization profile.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AccelProfile {
    /// Mesh tile hosting the instance.
    pub tile: TileCoord,
    /// Frames completed by this instance.
    pub frames: u64,
    /// Inter-completion service intervals (frame 0 measured from run
    /// start, so it includes initial load/fill).
    pub service: Histogram,
    /// Exact cycles spent in each FSM state, by state name.
    pub states: BTreeMap<String, u64>,
    /// The state cycles folded into busy/DMA-stall/NoC-stall/idle.
    pub breakdown: StateBreakdown,
}

/// Aggregated profile for one pipeline stage (a group of parallel
/// instances executing the same kernel).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StageProfile {
    /// Stage name (kernel name with instance suffix stripped).
    pub name: String,
    /// Member instance names.
    pub instances: Vec<String>,
    /// Number of parallel instances.
    pub width: usize,
    /// Frames completed across all instances.
    pub frames: u64,
    /// Compute cycles summed across all instances.
    pub busy_cycles: u64,
    /// Utilization breakdown summed across all instances.
    pub breakdown: StateBreakdown,
    /// Throughput lower bound contributed by this stage:
    /// `busy_cycles / frames / width` cycles per frame.
    pub bound_cycles_per_frame: f64,
}

/// Names the stage limiting throughput and the ceiling on speedup
/// obtainable by relieving it (pipeline critical-path analysis).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BottleneckReport {
    /// Stage with the highest compute bound.
    pub limiting_stage: String,
    /// The limiting stage's bound in cycles per frame.
    pub bound_cycles_per_frame: f64,
    /// Second-highest stage bound (equals the limiting bound when the
    /// pipeline has a single stage).
    pub next_bound_cycles_per_frame: f64,
    /// Measured end-to-end cycles per frame.
    pub observed_cycles_per_frame: f64,
    /// Fraction of the run the limiting stage spent computing.
    pub busy_fraction: f64,
    /// `observed / next_bound`: throughput gain ceiling from fully
    /// relieving the limiting stage.
    pub speedup_ceiling: f64,
}

/// Complete profile of one labelled run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunProfile {
    /// Run label (from the `RunStart` event).
    pub label: String,
    /// Cycle of the `RunStart` event.
    pub start_cycle: u64,
    /// Cycle at which the run was closed.
    pub end_cycle: u64,
    /// End-to-end frames delivered by the final pipeline stage.
    pub frames: u64,
    /// Inter-departure intervals at the final stage (frame 0 from run
    /// start): the per-frame end-to-end latency distribution.
    pub pipeline: Histogram,
    /// Per-stage aggregates in pipeline order.
    pub stages: Vec<StageProfile>,
    /// Per-instance utilization profiles.
    pub accels: BTreeMap<String, AccelProfile>,
    /// NoC packet end-to-end latency histograms keyed by plane index.
    pub noc_latency: BTreeMap<usize, Histogram>,
    /// DRAM read burst latency distribution.
    pub dma_read: Histogram,
    /// DRAM write burst latency distribution.
    pub dma_write: Histogram,
    /// Words moved point-to-point (DRAM bypass).
    pub p2p_words: u64,
    /// TLB misses observed.
    pub tlb_misses: u64,
    /// Critical-path analysis, when at least one stage completed frames.
    pub bottleneck: Option<BottleneckReport>,
}

impl RunProfile {
    /// Run length in cycles.
    pub fn cycles(&self) -> u64 {
        self.end_cycle.saturating_sub(self.start_cycle)
    }

    /// Measured end-to-end cycles per frame (0.0 when no frames).
    pub fn observed_cycles_per_frame(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.cycles() as f64 / self.frames as f64
        }
    }

    /// Renders the human-readable bottleneck report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let cycles = self.cycles();
        out.push_str(&format!(
            "run \"{}\": {} cycles, {} frames ({:.1} cycles/frame)\n",
            self.label,
            cycles,
            self.frames,
            self.observed_cycles_per_frame()
        ));
        out.push_str(&format!("frame latency: {}\n", self.pipeline.summary()));
        if !self.stages.is_empty() {
            out.push_str(&format!(
                "{:<12} {:>5} {:>7} {:>10} {:>7} {:>7} {:>7} {:>7}\n",
                "stage", "width", "frames", "bound/frm", "busy%", "dma%", "noc%", "idle%"
            ));
            for s in &self.stages {
                let denom = (s.width as u64 * cycles).max(1) as f64;
                out.push_str(&format!(
                    "{:<12} {:>5} {:>7} {:>10.1} {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}%\n",
                    s.name,
                    s.width,
                    s.frames,
                    s.bound_cycles_per_frame,
                    100.0 * s.breakdown.busy as f64 / denom,
                    100.0 * s.breakdown.dma_stall as f64 / denom,
                    100.0 * s.breakdown.noc_stall as f64 / denom,
                    100.0 * s.breakdown.idle as f64 / denom,
                ));
            }
        }
        if let Some(b) = &self.bottleneck {
            out.push_str(&format!(
                "bottleneck: stage \"{}\" bounds throughput at {:.1} cycles/frame\n",
                b.limiting_stage, b.bound_cycles_per_frame
            ));
            out.push_str(&format!(
                "  observed {:.1} cycles/frame; busy fraction {:.1}%; \
                 relieving it caps gains at {:.2}x (next bound {:.1})\n",
                b.observed_cycles_per_frame,
                100.0 * b.busy_fraction,
                b.speedup_ceiling,
                b.next_bound_cycles_per_frame
            ));
        }
        if self.p2p_words > 0 || self.tlb_misses > 0 {
            out.push_str(&format!(
                "p2p words: {}  tlb misses: {}\n",
                self.p2p_words, self.tlb_misses
            ));
        }
        if !self.dma_read.is_empty() {
            out.push_str(&format!("dma read latency: {}\n", self.dma_read.summary()));
        }
        if !self.dma_write.is_empty() {
            out.push_str(&format!(
                "dma write latency: {}\n",
                self.dma_write.summary()
            ));
        }
        out
    }
}

/// Accumulator for one accelerator instance while its run is open.
#[derive(Debug)]
struct AccelAccum {
    tile: TileCoord,
    cur_state: String,
    last_change: u64,
    states: BTreeMap<String, u64>,
    frames: u64,
    last_done: u64,
    service: Histogram,
}

impl AccelAccum {
    fn new(tile: TileCoord, initial_state: &str, since: u64) -> Self {
        AccelAccum {
            tile,
            cur_state: initial_state.to_string(),
            last_change: since,
            states: BTreeMap::new(),
            frames: 0,
            last_done: 0,
            service: Histogram::new(),
        }
    }

    fn charge(&mut self, until: u64) {
        let delta = until.saturating_sub(self.last_change);
        if delta > 0 {
            *self.states.entry(self.cur_state.clone()).or_insert(0) += delta;
        }
        self.last_change = until;
    }
}

/// Profile state of one open run (the accumulator behind
/// [`ProfileCollector`]).
#[derive(Debug)]
pub struct RunAccum {
    label: String,
    start_cycle: u64,
    groups: StageGroups,
    final_members: BTreeSet<String>,
    accels: BTreeMap<String, AccelAccum>,
    pipeline: Histogram,
    pipeline_frames: u64,
    last_departure: u64,
    noc_latency: BTreeMap<usize, Histogram>,
    dma_read: Histogram,
    dma_write: Histogram,
    p2p_words: u64,
    tlb_misses: u64,
}

impl Accumulator for RunAccum {
    type Report = RunProfile;

    fn open(label: String, start_cycle: u64, groups: StageGroups) -> Self {
        let final_members = groups
            .last()
            .map(|(_, members)| members.iter().cloned().collect())
            .unwrap_or_default();
        RunAccum {
            label,
            start_cycle,
            groups,
            final_members,
            accels: BTreeMap::new(),
            pipeline: Histogram::new(),
            pipeline_frames: 0,
            last_departure: start_cycle,
            noc_latency: BTreeMap::new(),
            dma_read: Histogram::new(),
            dma_write: Histogram::new(),
            p2p_words: 0,
            tlb_misses: 0,
        }
    }

    fn observe(&mut self, ev: &TimedEvent) {
        match &ev.event {
            TraceEvent::AccelPhaseChange {
                accel, from, to, ..
            } => {
                let start = self.start_cycle;
                let acc = self
                    .accels
                    .entry(accel.clone())
                    .or_insert_with(|| AccelAccum::new(ev.source, from, start));
                acc.tile = ev.source;
                acc.charge(ev.cycle);
                acc.cur_state = (*to).to_string();
            }
            TraceEvent::FrameComplete { accel, .. } => {
                let start = self.start_cycle;
                let acc = self
                    .accels
                    .entry(accel.clone())
                    .or_insert_with(|| AccelAccum::new(ev.source, "idle", start));
                let since = if acc.frames == 0 {
                    self.start_cycle
                } else {
                    acc.last_done
                };
                acc.service.record(ev.cycle.saturating_sub(since));
                acc.frames += 1;
                acc.last_done = ev.cycle;
                if self.final_members.contains(accel) {
                    self.pipeline
                        .record(ev.cycle.saturating_sub(self.last_departure));
                    self.pipeline_frames += 1;
                    self.last_departure = ev.cycle;
                }
            }
            TraceEvent::DmaBurst { kind, latency, .. } => match kind {
                DmaKind::Read => self.dma_read.record(*latency),
                DmaKind::Write => self.dma_write.record(*latency),
            },
            TraceEvent::NocPacketEject { plane, latency, .. } => {
                self.noc_latency.entry(*plane).or_default().record(*latency);
            }
            TraceEvent::P2pTransfer { words, .. } => self.p2p_words += *words,
            TraceEvent::TlbMiss { .. } => self.tlb_misses += 1,
            TraceEvent::RunStart { .. }
            | TraceEvent::NocPacketInject { .. }
            | TraceEvent::IoctlIssue { .. }
            | TraceEvent::FaultInjected { .. }
            | TraceEvent::RetryScheduled { .. }
            | TraceEvent::FailedOver { .. } => {}
        }
    }

    fn close(mut self, end_cycle: u64) -> RunProfile {
        for acc in self.accels.values_mut() {
            acc.charge(end_cycle);
        }

        let accels: BTreeMap<String, AccelProfile> = self
            .accels
            .iter()
            .map(|(name, acc)| {
                let mut breakdown = StateBreakdown::default();
                for (state, cycles) in &acc.states {
                    breakdown.add_state(state, *cycles);
                }
                (
                    name.clone(),
                    AccelProfile {
                        tile: acc.tile,
                        frames: acc.frames,
                        service: acc.service.clone(),
                        states: acc.states.clone(),
                        breakdown,
                    },
                )
            })
            .collect();

        // Without stage groups (replayed sinks), treat each instance as
        // its own single-width stage and use the instance that finished
        // last as the pipeline sink.
        let groups: StageGroups = if self.groups.is_empty() {
            accels
                .keys()
                .map(|name| (name.clone(), vec![name.clone()]))
                .collect()
        } else {
            std::mem::take(&mut self.groups)
        };

        let (pipeline, frames) = if self.final_members.is_empty() {
            let sink = self
                .accels
                .iter()
                .max_by_key(|(name, acc)| (acc.last_done, std::cmp::Reverse(name.as_str())))
                .map(|(name, _)| name.clone());
            match sink.and_then(|name| accels.get(&name)) {
                Some(p) => (p.service.clone(), p.frames),
                None => (Histogram::new(), 0),
            }
        } else {
            (self.pipeline.clone(), self.pipeline_frames)
        };

        let stages: Vec<StageProfile> = groups
            .iter()
            .map(|(name, members)| {
                let mut breakdown = StateBreakdown::default();
                let mut stage_frames = 0u64;
                for member in members {
                    if let Some(p) = accels.get(member) {
                        breakdown.merge(&p.breakdown);
                        stage_frames += p.frames;
                    }
                }
                let width = members.len().max(1);
                let bound = if stage_frames == 0 {
                    0.0
                } else {
                    breakdown.busy as f64 / stage_frames as f64 / width as f64
                };
                StageProfile {
                    name: name.clone(),
                    instances: members.clone(),
                    width,
                    frames: stage_frames,
                    busy_cycles: breakdown.busy,
                    breakdown,
                    bound_cycles_per_frame: bound,
                }
            })
            .collect();

        let run_cycles = end_cycle.saturating_sub(self.start_cycle);
        let bottleneck = {
            let candidates: Vec<&StageProfile> = stages.iter().filter(|s| s.frames > 0).collect();
            if candidates.is_empty() || frames == 0 || run_cycles == 0 {
                None
            } else {
                let mut limiting = candidates[0];
                for s in &candidates[1..] {
                    if s.bound_cycles_per_frame > limiting.bound_cycles_per_frame {
                        limiting = *s;
                    }
                }
                let next_bound = candidates
                    .iter()
                    .filter(|s| !std::ptr::eq(**s, limiting))
                    .map(|s| s.bound_cycles_per_frame)
                    .fold(f64::NEG_INFINITY, f64::max);
                let next_bound = if next_bound.is_finite() {
                    next_bound
                } else {
                    limiting.bound_cycles_per_frame
                };
                let observed = run_cycles as f64 / frames as f64;
                Some(BottleneckReport {
                    limiting_stage: limiting.name.clone(),
                    bound_cycles_per_frame: limiting.bound_cycles_per_frame,
                    next_bound_cycles_per_frame: next_bound,
                    observed_cycles_per_frame: observed,
                    busy_fraction: limiting.breakdown.busy as f64
                        / (limiting.width as u64 * run_cycles) as f64,
                    speedup_ceiling: if next_bound > 0.0 {
                        observed / next_bound
                    } else {
                        1.0
                    },
                })
            }
        };

        RunProfile {
            label: self.label,
            start_cycle: self.start_cycle,
            end_cycle,
            frames,
            pipeline,
            stages,
            accels,
            noc_latency: self.noc_latency,
            dma_read: self.dma_read,
            dma_write: self.dma_write,
            p2p_words: self.p2p_words,
            tlb_misses: self.tlb_misses,
            bottleneck,
        }
    }
}

/// Shared handle onto online profile state.
///
/// Clone it freely: all clones observe into the same state. Typical
/// wiring is [`Collector::ring_buffer_tracer`], which returns a
/// [`Tracer`](crate::Tracer) whose sink both profiles and buffers
/// events.
pub type ProfileCollector = Collector<RunAccum>;

#[cfg(test)]
mod tests {
    use super::*;

    fn at(cycle: u64, event: TraceEvent) -> TimedEvent {
        TimedEvent {
            cycle,
            source: TileCoord::new(1, 1),
            event,
        }
    }

    fn phase(cycle: u64, accel: &str, from: &'static str, to: &'static str) -> TimedEvent {
        at(
            cycle,
            TraceEvent::AccelPhaseChange {
                accel: accel.to_string(),
                from,
                to,
                frame: None,
            },
        )
    }

    fn frame(cycle: u64, accel: &str, frame: u64) -> TimedEvent {
        at(
            cycle,
            TraceEvent::FrameComplete {
                accel: accel.to_string(),
                frame,
            },
        )
    }

    fn run_start(cycle: u64, label: &str) -> TimedEvent {
        at(
            cycle,
            TraceEvent::RunStart {
                label: label.to_string(),
            },
        )
    }

    #[test]
    fn time_in_state_accounts_every_cycle() {
        let c = ProfileCollector::new();
        c.observe(&run_start(0, "t"));
        c.observe(&phase(10, "nv0", "idle", "load_wait"));
        c.observe(&phase(30, "nv0", "load_wait", "compute"));
        c.observe(&phase(100, "nv0", "compute", "store_issue"));
        c.observe(&phase(110, "nv0", "store_issue", "idle"));
        c.observe(&frame(110, "nv0", 0));
        let p = c.close_run(150).expect("run open");
        let acc = &p.accels["nv0"];
        assert_eq!(acc.states["idle"], 10 + 40);
        assert_eq!(acc.states["load_wait"], 20);
        assert_eq!(acc.states["compute"], 70);
        assert_eq!(acc.states["store_issue"], 10);
        assert_eq!(acc.breakdown.busy, 70);
        assert_eq!(acc.breakdown.dma_stall, 30);
        assert_eq!(acc.breakdown.noc_stall, 0);
        assert_eq!(acc.breakdown.idle, 50);
        assert_eq!(acc.breakdown.total(), 150);
    }

    #[test]
    fn pipeline_spans_use_final_stage_departures() {
        let c = ProfileCollector::new();
        c.set_stage_groups(vec![
            ("nv".to_string(), vec!["nv0".to_string()]),
            ("cl".to_string(), vec!["cl0".to_string()]),
        ]);
        c.observe(&run_start(0, "t"));
        c.observe(&frame(100, "nv0", 0));
        c.observe(&frame(140, "cl0", 0)); // fill: 140 from start
        c.observe(&frame(200, "nv0", 1));
        c.observe(&frame(240, "cl0", 1)); // steady: 100 apart
        let p = c.close_run(260).expect("run open");
        assert_eq!(p.frames, 2);
        assert_eq!(p.pipeline.count(), 2);
        assert_eq!(p.pipeline.max(), 140);
        assert_eq!(p.pipeline.sum(), 140 + 100);
        // nv's completions are not pipeline departures.
        assert_eq!(p.accels["nv0"].frames, 2);
    }

    #[test]
    fn bottleneck_names_slowest_stage() {
        let c = ProfileCollector::new();
        c.set_stage_groups(vec![
            ("fast".to_string(), vec!["a".to_string()]),
            ("slow".to_string(), vec!["b".to_string()]),
        ]);
        c.observe(&run_start(0, "t"));
        // a: 100 busy cycles over 2 frames; b: 300 busy cycles over 2.
        c.observe(&phase(0, "a", "idle", "compute"));
        c.observe(&phase(100, "a", "compute", "idle"));
        c.observe(&frame(100, "a", 0));
        c.observe(&frame(150, "a", 1));
        c.observe(&phase(100, "b", "idle", "compute"));
        c.observe(&phase(400, "b", "compute", "idle"));
        c.observe(&frame(250, "b", 0));
        c.observe(&frame(400, "b", 1));
        let p = c.close_run(400).expect("run open");
        let b = p.bottleneck.expect("bottleneck");
        assert_eq!(b.limiting_stage, "slow");
        assert_eq!(b.bound_cycles_per_frame, 150.0);
        assert_eq!(b.next_bound_cycles_per_frame, 50.0);
        assert_eq!(b.observed_cycles_per_frame, 200.0);
        assert!(b.speedup_ceiling > 1.0);
    }

    #[test]
    fn replay_without_groups_falls_back_to_sink_instance() {
        let c = ProfileCollector::new();
        c.observe(&run_start(0, "replay"));
        c.observe(&frame(50, "up", 0));
        c.observe(&frame(80, "down", 0));
        c.observe(&frame(150, "up", 1));
        c.observe(&frame(180, "down", 1));
        let p = c.close_run(200).expect("run open");
        // "down" finishes last => it is the pipeline sink.
        assert_eq!(p.frames, 2);
        assert_eq!(p.pipeline.sum(), 80 + 100);
        assert_eq!(p.stages.len(), 2);
    }

    #[test]
    fn run_start_closes_previous_run() {
        let c = ProfileCollector::new();
        c.observe(&run_start(0, "first"));
        c.observe(&frame(10, "x", 0));
        c.observe(&run_start(100, "second"));
        c.observe(&frame(110, "x", 0));
        c.close_run(200);
        let reports = c.take_reports();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].label, "first");
        assert_eq!(reports[0].end_cycle, 100);
        assert_eq!(reports[1].label, "second");
        assert_eq!(reports[1].end_cycle, 200);
        assert!(c.take_reports().is_empty());
    }

    #[test]
    fn profiling_sink_forwards_and_profiles() {
        let c = ProfileCollector::new();
        let tracer = c.ring_buffer_tracer();
        tracer.emit(0, TileCoord::new(0, 0), || TraceEvent::RunStart {
            label: "s".to_string(),
        });
        tracer.emit(5, TileCoord::new(0, 0), || TraceEvent::TlbMiss {
            penalty: 7,
        });
        let p = c.close_run(10).expect("run open");
        assert_eq!(p.tlb_misses, 1);
        assert_eq!(tracer.len(), 2); // events still buffered for export
        assert_eq!(tracer.dropped(), 0);
    }

    #[test]
    fn render_text_names_bottleneck() {
        let c = ProfileCollector::new();
        c.set_stage_groups(vec![("only".to_string(), vec!["k".to_string()])]);
        c.observe(&run_start(0, "t"));
        c.observe(&phase(0, "k", "idle", "compute"));
        c.observe(&phase(90, "k", "compute", "idle"));
        c.observe(&frame(90, "k", 0));
        let p = c.close_run(100).expect("run open");
        let text = p.render_text();
        assert!(text.contains("bottleneck: stage \"only\""));
        assert!(text.contains("frame latency"));
    }

    #[test]
    fn serialized_report_is_deterministic() {
        let build = || {
            let c = ProfileCollector::new();
            c.observe(&run_start(0, "d"));
            c.observe(&phase(3, "z", "idle", "compute"));
            c.observe(&phase(9, "z", "compute", "idle"));
            c.observe(&frame(9, "z", 0));
            c.observe(&at(
                4,
                TraceEvent::NocPacketEject {
                    plane: 3,
                    latency: 11,
                    frame: None,
                },
            ));
            c.observe(&at(
                5,
                TraceEvent::DmaBurst {
                    kind: DmaKind::Read,
                    words: 16,
                    latency: 40,
                    frame: None,
                },
            ));
            serde_json::to_string(&c.close_run(20).expect("run open")).expect("serialize")
        };
        assert_eq!(build(), build());
    }
}
