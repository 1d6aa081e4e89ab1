//! Causal frame-level span layer.
//!
//! Every frame flowing through the SoC carries a global frame id
//! (latched by the accelerator socket from `FRAME_BASE_REG` /
//! `FRAME_STRIDE_REG` and propagated onto NoC packets, DMA bursts and
//! FSM phase changes). This module consumes the tagged
//! [`TraceEvent`] stream and assembles, per frame, a span tree with
//! *exact cycle attribution*: every cycle of the frame's end-to-end
//! latency lands in exactly one [`Span`] — compute, DMA-path stall,
//! NoC service, queueing behind other frames, or retry backoff — so
//! the per-frame spans always sum to the per-frame latency
//! ([`SpanReport::check_attribution`]).
//!
//! The frame's stage chain is recovered causally from `FrameComplete`
//! events: stage *i*'s completion of frame *f* bounds the segment in
//! which stage *i* owned the frame, and the segment is subdivided by
//! the owning instance's frame-tagged FSM phases. Time the owner spent
//! on *other* frames (or idle) inside the segment is queueing; time
//! inside a scheduled retry-backoff window is [`SpanKind::Retry`];
//! failovers appear as zero-length [`SpanKind::Failover`] markers.
//!
//! The aggregated [`CriticalPath`] names the limiting pipeline stage
//! using *the same selection code* as the profiler's
//! [`BottleneckReport`](crate::profile::BottleneckReport) — each run's
//! [`SpanAccum`] owns a [`RunAccum`] fed the identical event stream —
//! so `espspan` and `espprof` provably agree on the limiting stage.
//!
//! Engine safety: span state is derived purely from the event stream
//! plus the final cycle count, and both engines emit identical streams
//! (the PR 2 equivalence contract), so reports are byte-identical
//! across `SocEngine::Naive` and `SocEngine::EventDriven`.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use crate::collector::sealed::Accumulator;
use crate::collector::{Collector, StageGroups};
use crate::event::{TimedEvent, TraceEvent};
use crate::profile::RunAccum;

/// What a slice of a frame's latency was spent on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SpanKind {
    /// The owning socket was computing on this frame.
    Compute,
    /// The owning socket was stalled on the DMA/load path
    /// (`load_issue`/`load_wait`/`store_issue`).
    Dma,
    /// The owning socket was in NoC point-to-point service
    /// (`store_wait_req`/`store_send`/`store_wait_ack`).
    Noc,
    /// The frame waited while its owner was idle or busy with a
    /// different frame.
    Queue,
    /// The frame waited out a scheduled retry-backoff window.
    Retry,
    /// Zero-length marker: the frame's work was remapped to a spare.
    Failover,
}

impl SpanKind {
    /// Stable lowercase label (used in text/flame output and JSON maps).
    pub fn label(&self) -> &'static str {
        match self {
            SpanKind::Compute => "compute",
            SpanKind::Dma => "dma",
            SpanKind::Noc => "noc",
            SpanKind::Queue => "queue",
            SpanKind::Retry => "retry",
            SpanKind::Failover => "failover",
        }
    }
}

/// Maps a socket FSM state onto a span kind: the one partition of FSM
/// states into compute, DMA, NoC and idle/queue.
/// [`StateBreakdown::add_state`](crate::profile::StateBreakdown::add_state)
/// reads [`SpanKind::Queue`] as its idle class, and the Perfetto exporter
/// elides phases in it.
pub(crate) fn classify_state(state: &str) -> SpanKind {
    match state {
        "compute" => SpanKind::Compute,
        "load_issue" | "load_wait" | "store_issue" => SpanKind::Dma,
        "store_wait_req" | "store_send" | "store_wait_ack" => SpanKind::Noc,
        _ => SpanKind::Queue,
    }
}

/// A half-open `[begin, end)` slice of one frame's latency.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Span {
    /// Attribution class.
    pub kind: SpanKind,
    /// First cycle of the slice.
    pub begin: u64,
    /// One past the last cycle of the slice.
    pub end: u64,
}

impl Span {
    /// Slice length in cycles.
    pub fn cycles(&self) -> u64 {
        self.end.saturating_sub(self.begin)
    }
}

/// One pipeline stage's segment of a frame's journey: from the
/// previous stage's completion of the frame to this stage's.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StageSpan {
    /// Stage name (group name, or the instance name without groups).
    pub stage: String,
    /// Accelerator instance that completed the frame for this stage
    /// (the spare after a failover).
    pub owner: String,
    /// Segment start cycle.
    pub begin: u64,
    /// Segment end cycle (= the owner's `FrameComplete` cycle).
    pub end: u64,
    /// Exact subdivision of `[begin, end)`; spans are disjoint,
    /// ordered, and tile the segment (plus zero-length markers).
    pub spans: Vec<Span>,
}

impl StageSpan {
    /// Segment length in cycles.
    pub fn cycles(&self) -> u64 {
        self.end.saturating_sub(self.begin)
    }

    /// Cycles per span kind within this segment.
    pub fn kind_cycles(&self) -> BTreeMap<SpanKind, u64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.kind).or_insert(0) += s.cycles();
        }
        out
    }
}

/// One link of a frame's critical path: the dominant span kind of one
/// stage segment.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CriticalLink {
    /// Stage name.
    pub stage: String,
    /// Dominant span-kind label within the stage segment.
    pub kind: String,
    /// Cycles attributed to that kind.
    pub cycles: u64,
}

/// The complete span tree of one frame.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FrameSpans {
    /// Global frame id.
    pub frame: u64,
    /// Cycle the frame entered the pipeline (first frame-tagged phase
    /// of the first stage's owner).
    pub begin: u64,
    /// Cycle the final observed stage completed the frame.
    pub end: u64,
    /// Stage segments in causal (completion) order.
    pub stages: Vec<StageSpan>,
    /// Dominant blocking resource per stage, in causal order.
    pub critical: Vec<CriticalLink>,
    /// True when the frame's entry cycle had to be inferred because no
    /// frame-tagged phase events were available (e.g. ring-buffer
    /// overflow evicted them).
    pub partial: bool,
}

impl FrameSpans {
    /// End-to-end frame latency in cycles.
    pub fn latency(&self) -> u64 {
        self.end.saturating_sub(self.begin)
    }

    /// Total cycles attributed across all spans. The attribution
    /// invariant is `attributed() == latency()` on every frame.
    pub fn attributed(&self) -> u64 {
        self.stages
            .iter()
            .flat_map(|s| s.spans.iter())
            .map(Span::cycles)
            .sum()
    }
}

/// Aggregate span cost of one pipeline stage across all frames.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StageCost {
    /// Stage name.
    pub stage: String,
    /// Cycles per span-kind label, summed over all frame segments.
    pub kinds: BTreeMap<String, u64>,
    /// Kind label with the most cycles.
    pub dominant: String,
    /// Total attributed cycles across all frame segments.
    pub total: u64,
}

/// Aggregated critical-path report: names the pipeline stage limiting
/// throughput (via the profiler's exact bottleneck selection) and the
/// blocking resource chain behind it.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CriticalPath {
    /// Stage limiting throughput. Selected by the *same code* as
    /// [`BottleneckReport`](crate::profile::BottleneckReport) —
    /// `espspan` cross-checks the two at runtime.
    pub limiting_stage: String,
    /// Dominant span kind within the limiting stage's aggregate cost.
    pub dominant_kind: String,
    /// The limiting stage's throughput bound in cycles per frame.
    pub bound_cycles_per_frame: f64,
    /// Second-highest stage bound.
    pub next_bound_cycles_per_frame: f64,
    /// Measured end-to-end cycles per frame.
    pub observed_cycles_per_frame: f64,
    /// Fraction of the run the limiting stage spent computing.
    pub busy_fraction: f64,
    /// Throughput gain ceiling from fully relieving the limiting stage.
    pub speedup_ceiling: f64,
    /// Per-stage aggregate span costs in pipeline order.
    pub stages: Vec<StageCost>,
}

/// Whether a [`SpanEvent`] opens or closes its span.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpanPhase {
    /// The span opens at this cycle.
    Begin,
    /// The span closes at this cycle.
    End,
}

/// A typed begin/end event derived from an assembled span tree, with a
/// causal link to the preceding span of the same frame. Exporters map
/// these onto Perfetto flow-linked track events.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SpanEvent {
    /// Report-unique span id (shared by the Begin/End pair).
    pub id: u64,
    /// Global frame id.
    pub frame: u64,
    /// Stage name.
    pub stage: String,
    /// Owning instance name.
    pub owner: String,
    /// Attribution class.
    pub kind: SpanKind,
    /// Begin or end.
    pub phase: SpanPhase,
    /// Cycle of the event.
    pub cycle: u64,
    /// Id of the causally preceding span in the same frame (`None` for
    /// the frame's root span).
    pub cause: Option<u64>,
}

/// Complete span analysis of one labelled run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SpanReport {
    /// Run label (from the `RunStart` event).
    pub label: String,
    /// Cycle of the `RunStart` event.
    pub start_cycle: u64,
    /// Cycle at which the run was closed.
    pub end_cycle: u64,
    /// Per-frame span trees in frame-id order.
    pub frames: Vec<FrameSpans>,
    /// Aggregated critical path, when at least one stage completed
    /// frames.
    pub critical_path: Option<CriticalPath>,
    /// Span-relevant events discarded before assembly (ring-buffer
    /// pressure); non-zero flags the report as partial.
    pub dropped_spans: u64,
    /// True when the tree may be incomplete: span events were dropped,
    /// or some frame's entry cycle had to be inferred.
    pub partial: bool,
}

impl SpanReport {
    /// Run length in cycles.
    pub fn cycles(&self) -> u64 {
        self.end_cycle.saturating_sub(self.start_cycle)
    }

    /// Verifies the attribution invariant: on every frame the span
    /// cycles sum exactly to the frame's end-to-end latency. Returns a
    /// description of the first violation.
    pub fn check_attribution(&self) -> Result<(), String> {
        for f in &self.frames {
            if f.attributed() != f.latency() {
                return Err(format!(
                    "frame {}: {} attributed cycles != {} latency cycles",
                    f.frame,
                    f.attributed(),
                    f.latency()
                ));
            }
        }
        Ok(())
    }

    /// Derives the flat typed begin/end event stream with causal
    /// links, in frame then causal order.
    pub fn events(&self) -> Vec<SpanEvent> {
        let mut out = Vec::new();
        let mut id = 0u64;
        for frame in &self.frames {
            let mut cause = None;
            for stage in &frame.stages {
                for span in &stage.spans {
                    for (phase, cycle) in
                        [(SpanPhase::Begin, span.begin), (SpanPhase::End, span.end)]
                    {
                        out.push(SpanEvent {
                            id,
                            frame: frame.frame,
                            stage: stage.stage.clone(),
                            owner: stage.owner.clone(),
                            kind: span.kind,
                            phase,
                            cycle,
                            cause,
                        });
                    }
                    cause = Some(id);
                    id += 1;
                }
            }
        }
        out
    }

    /// Renders the human-readable critical-path report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "spans \"{}\": {} frames over {} cycles{}\n",
            self.label,
            self.frames.len(),
            self.cycles(),
            if self.partial { " (PARTIAL)" } else { "" },
        ));
        if self.dropped_spans > 0 {
            out.push_str(&format!(
                "  {} span-relevant events dropped before assembly\n",
                self.dropped_spans
            ));
        }
        if let Some(cp) = &self.critical_path {
            out.push_str(&format!(
                "critical path: stage \"{}\" limited by {} — bound {:.1} cycles/frame, \
                 observed {:.1}, ceiling {:.2}x\n",
                cp.limiting_stage,
                cp.dominant_kind,
                cp.bound_cycles_per_frame,
                cp.observed_cycles_per_frame,
                cp.speedup_ceiling,
            ));
            for s in &cp.stages {
                let kinds: Vec<String> = s.kinds.iter().map(|(k, v)| format!("{k}={v}")).collect();
                out.push_str(&format!("  {:<12} {}\n", s.stage, kinds.join(" ")));
            }
        }
        for f in &self.frames {
            let chain: Vec<String> = f
                .critical
                .iter()
                .map(|l| format!("{}/{} {}", l.stage, l.kind, l.cycles))
                .collect();
            out.push_str(&format!(
                "frame {}: {} cycles | {}{}\n",
                f.frame,
                f.latency(),
                chain.join(" -> "),
                if f.partial { " (partial)" } else { "" },
            ));
        }
        out
    }

    /// Renders per-frame folded stacks (`label;frameN;stage;kind
    /// cycles`), one line per (frame, stage, kind) — the input format
    /// of flamegraph tooling.
    pub fn render_flame(&self) -> String {
        let mut out = String::new();
        for f in &self.frames {
            for s in &f.stages {
                for (kind, cycles) in s.kind_cycles() {
                    if cycles > 0 {
                        out.push_str(&format!(
                            "{};frame{};{};{} {}\n",
                            self.label,
                            f.frame,
                            s.stage,
                            kind.label(),
                            cycles
                        ));
                    }
                }
            }
        }
        out
    }
}

/// Subdivides the segment `[s, e)` of frame `f` by the owner's
/// frame-tagged FSM phases and retry windows. Returned spans are
/// disjoint, ordered, and tile the segment exactly.
fn subdivide(
    s: u64,
    e: u64,
    f: u64,
    timeline: &[TimelineEntry],
    retry_windows: &[(u64, u64)],
) -> Vec<Span> {
    if e <= s {
        return Vec::new();
    }
    let mut cuts: BTreeSet<u64> = BTreeSet::new();
    cuts.insert(s);
    cuts.insert(e);
    for (c, _, _) in timeline {
        if *c > s && *c < e {
            cuts.insert(*c);
        }
    }
    for (a, b) in retry_windows {
        if *a > s && *a < e {
            cuts.insert(*a);
        }
        if *b > s && *b < e {
            cuts.insert(*b);
        }
    }
    let pts: Vec<u64> = cuts.into_iter().collect();
    let mut spans: Vec<Span> = Vec::new();
    for w in pts.windows(2) {
        let (a, b) = (w[0], w[1]);
        let idx = timeline.partition_point(|(c, _, _)| *c <= a);
        let (state, tag) = if idx == 0 {
            ("idle", None)
        } else {
            (timeline[idx - 1].1, timeline[idx - 1].2)
        };
        let kind = if tag == Some(f) {
            classify_state(state)
        } else if retry_windows.iter().any(|(ra, rb)| *ra <= a && a < *rb) {
            SpanKind::Retry
        } else {
            SpanKind::Queue
        };
        match spans.last_mut() {
            Some(last) if last.kind == kind && last.end == a => last.end = b,
            _ => spans.push(Span {
                kind,
                begin: a,
                end: b,
            }),
        }
    }
    spans
}

/// One FSM timeline entry: (cycle, state entered, frame tag).
type TimelineEntry = (u64, &'static str, Option<u64>);

/// Span state of one open run (the accumulator behind
/// [`SpanCollector`]).
#[derive(Debug)]
pub struct SpanAccum {
    /// The run's profile, fed the same events; its bottleneck selection
    /// is the critical path's base.
    profile: RunAccum,
    groups: StageGroups,
    /// Per-instance FSM timeline.
    timelines: BTreeMap<String, Vec<TimelineEntry>>,
    /// (cycle, instance, global frame id) in emission order.
    completions: Vec<(u64, String, u64)>,
    /// Per-device retry-backoff windows `[begin, end)`.
    retries: BTreeMap<String, Vec<(u64, u64)>>,
    /// (cycle, from, to) failover records in emission order.
    failovers: Vec<(u64, String, String)>,
    dropped_spans: u64,
}

impl Accumulator for SpanAccum {
    type Report = SpanReport;

    fn open(label: String, start_cycle: u64, groups: StageGroups) -> Self {
        SpanAccum {
            profile: RunAccum::open(label, start_cycle, groups.clone()),
            groups,
            timelines: BTreeMap::new(),
            completions: Vec::new(),
            retries: BTreeMap::new(),
            failovers: Vec::new(),
            dropped_spans: 0,
        }
    }

    fn observe(&mut self, ev: &TimedEvent) {
        self.profile.observe(ev);
        match &ev.event {
            TraceEvent::AccelPhaseChange {
                accel, to, frame, ..
            } => {
                self.timelines
                    .entry(accel.clone())
                    .or_default()
                    .push((ev.cycle, to, *frame));
            }
            TraceEvent::FrameComplete { accel, frame } => {
                self.completions.push((ev.cycle, accel.clone(), *frame));
            }
            TraceEvent::RetryScheduled {
                device, backoff, ..
            } => {
                self.retries
                    .entry(device.clone())
                    .or_default()
                    .push((ev.cycle, ev.cycle.saturating_add(*backoff)));
            }
            TraceEvent::FailedOver { from, to } => {
                self.failovers.push((ev.cycle, from.clone(), to.clone()));
            }
            _ => {}
        }
    }

    fn close(self, end_cycle: u64) -> SpanReport {
        let profile = self.profile.close(end_cycle);
        // Instance -> (stage index, stage name); failover spares join
        // the stage of the instance they replaced.
        let mut stage_of: BTreeMap<String, (usize, String)> = BTreeMap::new();
        for (i, (name, members)) in self.groups.iter().enumerate() {
            for m in members {
                stage_of.insert(m.clone(), (i, name.clone()));
            }
        }
        for (_, from, to) in &self.failovers {
            if let Some(stage) = stage_of.get(from).cloned() {
                stage_of.entry(to.clone()).or_insert(stage);
            }
        }
        let stage_key = |accel: &str| -> (usize, String) {
            stage_of
                .get(accel)
                .cloned()
                .unwrap_or((usize::MAX, accel.to_string()))
        };

        let mut by_frame: BTreeMap<u64, Vec<(u64, String)>> = BTreeMap::new();
        for (cycle, accel, frame) in &self.completions {
            by_frame
                .entry(*frame)
                .or_default()
                .push((*cycle, accel.clone()));
        }

        let empty_tl: Vec<TimelineEntry> = Vec::new();
        let empty_rw: Vec<(u64, u64)> = Vec::new();
        let mut frames = Vec::new();
        for (frame_id, mut chain) in by_frame {
            chain.sort_by(|a, b| {
                let (ka, kb) = (stage_key(&a.1), stage_key(&b.1));
                (a.0, ka.0, &a.1).cmp(&(b.0, kb.0, &b.1))
            });
            let (first_done, owner0) = (chain[0].0, chain[0].1.clone());
            let tl0 = self.timelines.get(&owner0).unwrap_or(&empty_tl);
            let tagged_entry = tl0
                .iter()
                .find(|(_, _, tag)| *tag == Some(frame_id))
                .map(|(c, _, _)| *c);
            let mut partial = false;
            let prev_completion = self
                .completions
                .iter()
                .filter(|(c, a, _)| *a == owner0 && *c < first_done)
                .map(|(c, _, _)| *c)
                .max()
                .unwrap_or(profile.start_cycle);
            let mut begin = match tagged_entry {
                Some(c) => c.min(first_done),
                None => {
                    partial = true;
                    // Fall back to the owner's previous completion (the
                    // profiler's service-interval convention).
                    prev_completion
                }
            };
            // A retry of the owner before the frame's first tagged phase
            // means the frame sat on a hung device: pull the segment
            // back to the owner's previous completion so the watchdog
            // wait and retry backoff are attributed (as queue and retry
            // spans) instead of falling outside every frame.
            if let Some(rw) = self.retries.get(&owner0) {
                if rw
                    .iter()
                    .any(|(ra, _)| *ra >= prev_completion && *ra < begin)
                {
                    begin = begin.min(prev_completion);
                }
            }

            let mut prev = begin;
            let mut stages = Vec::new();
            for (done, accel) in &chain {
                let seg_begin = prev.min(*done);
                let tl = self.timelines.get(accel).unwrap_or(&empty_tl);
                let rw = self.retries.get(accel).unwrap_or(&empty_rw);
                let mut spans = subdivide(seg_begin, *done, frame_id, tl, rw);
                for (fc, from, to) in &self.failovers {
                    if (to == accel || from == accel) && *fc >= seg_begin && *fc <= *done {
                        spans.push(Span {
                            kind: SpanKind::Failover,
                            begin: *fc,
                            end: *fc,
                        });
                    }
                }
                spans.sort_by_key(|s| (s.begin, s.end));
                stages.push(StageSpan {
                    stage: stage_key(accel).1,
                    owner: accel.clone(),
                    begin: seg_begin,
                    end: *done,
                    spans,
                });
                prev = *done;
            }

            let critical = stages
                .iter()
                .filter_map(|s| {
                    s.kind_cycles()
                        .into_iter()
                        .max_by_key(|(_, v)| *v)
                        .map(|(kind, cycles)| CriticalLink {
                            stage: s.stage.clone(),
                            kind: kind.label().to_string(),
                            cycles,
                        })
                })
                .collect();

            frames.push(FrameSpans {
                frame: frame_id,
                begin,
                end: chain.last().map(|(c, _)| *c).unwrap_or(begin),
                stages,
                critical,
                partial,
            });
        }

        // Aggregate per-stage span cost across all frames.
        let mut agg: BTreeMap<String, BTreeMap<String, u64>> = BTreeMap::new();
        for f in &frames {
            for s in &f.stages {
                let entry = agg.entry(s.stage.clone()).or_default();
                for (kind, cycles) in s.kind_cycles() {
                    *entry.entry(kind.label().to_string()).or_insert(0) += cycles;
                }
            }
        }
        // Pipeline order: declared groups first, then any extras.
        let mut stage_order: Vec<String> = self.groups.iter().map(|(n, _)| n.clone()).collect();
        for name in agg.keys() {
            if !stage_order.contains(name) {
                stage_order.push(name.clone());
            }
        }
        let stage_costs: Vec<StageCost> = stage_order
            .iter()
            .filter_map(|name| {
                agg.get(name).map(|kinds| {
                    let dominant = kinds
                        .iter()
                        .max_by(|a, b| a.1.cmp(b.1))
                        .map(|(k, _)| k.clone())
                        .unwrap_or_else(|| "queue".to_string());
                    StageCost {
                        stage: name.clone(),
                        total: kinds.values().sum(),
                        dominant,
                        kinds: kinds.clone(),
                    }
                })
            })
            .collect();

        let critical_path = profile.bottleneck.map(|b| CriticalPath {
            dominant_kind: stage_costs
                .iter()
                .find(|s| s.stage == b.limiting_stage)
                .map(|s| s.dominant.clone())
                .unwrap_or_else(|| "compute".to_string()),
            limiting_stage: b.limiting_stage,
            bound_cycles_per_frame: b.bound_cycles_per_frame,
            next_bound_cycles_per_frame: b.next_bound_cycles_per_frame,
            observed_cycles_per_frame: b.observed_cycles_per_frame,
            busy_fraction: b.busy_fraction,
            speedup_ceiling: b.speedup_ceiling,
            stages: stage_costs,
        });

        let partial = self.dropped_spans > 0 || frames.iter().any(|f| f.partial);
        SpanReport {
            label: profile.label,
            start_cycle: profile.start_cycle,
            end_cycle,
            frames,
            critical_path,
            dropped_spans: self.dropped_spans,
            partial,
        }
    }
}

/// Shared handle onto online span-assembly state.
///
/// Clone it freely: all clones observe into the same state. Typical
/// wiring is [`Collector::sink`] inside a tracer's sink chain, or
/// [`Collector::ring_buffer_tracer`] for standalone use.
pub type SpanCollector = Collector<SpanAccum>;

impl SpanCollector {
    /// Records how many span-relevant events were discarded before
    /// reaching this collector (e.g.
    /// [`Tracer::dropped_spans`](crate::Tracer::dropped_spans) when
    /// replaying a saturated ring buffer). A non-zero count flags the
    /// open run's report as partial.
    pub fn note_dropped_spans(&self, n: u64) {
        if let Some(run) = self.lock().current.as_mut() {
            run.dropped_spans = n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TileCoord;
    use crate::profile::ProfileCollector;

    fn at(cycle: u64, event: TraceEvent) -> TimedEvent {
        TimedEvent {
            cycle,
            source: TileCoord::new(1, 1),
            event,
        }
    }

    fn phase(cycle: u64, accel: &str, to: &'static str, frame: Option<u64>) -> TimedEvent {
        at(
            cycle,
            TraceEvent::AccelPhaseChange {
                accel: accel.to_string(),
                from: "idle",
                to,
                frame,
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

    fn two_stage_events() -> Vec<TimedEvent> {
        vec![
            run_start(0, "t"),
            // Stage nv works frame 0: load 10..30, compute 30..100,
            // store 100..110, done.
            phase(10, "nv0", "load_wait", Some(0)),
            phase(30, "nv0", "compute", Some(0)),
            phase(100, "nv0", "store_issue", Some(0)),
            phase(110, "nv0", "idle", None),
            frame(110, "nv0", 0),
            // Stage cl picks frame 0 up at 120, computes to 150.
            phase(120, "cl0", "compute", Some(0)),
            phase(150, "cl0", "idle", None),
            frame(150, "cl0", 0),
        ]
    }

    fn collector_with_groups() -> SpanCollector {
        let c = SpanCollector::new();
        c.set_stage_groups(vec![
            ("nv".to_string(), vec!["nv0".to_string()]),
            ("cl".to_string(), vec!["cl0".to_string()]),
        ]);
        c
    }

    #[test]
    fn attribution_sums_to_frame_latency() {
        let c = collector_with_groups();
        for ev in two_stage_events() {
            c.observe(&ev);
        }
        let r = c.close_run(200).expect("run open");
        r.check_attribution().expect("invariant");
        assert_eq!(r.frames.len(), 1);
        let f = &r.frames[0];
        assert_eq!(f.begin, 10);
        assert_eq!(f.end, 150);
        assert_eq!(f.latency(), 140);
        assert!(!f.partial && !r.partial);
        // Stage segments: nv [10,110), cl [110,150).
        assert_eq!(f.stages.len(), 2);
        assert_eq!(f.stages[0].stage, "nv");
        assert_eq!(f.stages[1].stage, "cl");
        let nv = f.stages[0].kind_cycles();
        assert_eq!(nv[&SpanKind::Dma], 20 + 10); // load_wait + store_issue
        assert_eq!(nv[&SpanKind::Compute], 70);
        let cl = f.stages[1].kind_cycles();
        // 110..120 the cl socket had not yet taken the frame: queueing.
        assert_eq!(cl[&SpanKind::Queue], 10);
        assert_eq!(cl[&SpanKind::Compute], 30);
    }

    #[test]
    fn other_frame_work_is_queueing() {
        let c = collector_with_groups();
        c.observe(&run_start(0, "t"));
        c.observe(&phase(0, "nv0", "compute", Some(0)));
        c.observe(&frame(50, "nv0", 0));
        // nv starts frame 1 immediately; cl still busy with frame 0
        // until 90, so frame 1 queues behind it from 100 to 120.
        c.observe(&phase(50, "nv0", "compute", Some(1)));
        c.observe(&frame(100, "nv0", 1));
        c.observe(&phase(60, "cl0", "compute", Some(0)));
        c.observe(&frame(90, "cl0", 0));
        c.observe(&phase(120, "cl0", "compute", Some(1)));
        c.observe(&frame(140, "cl0", 1));
        let r = c.close_run(150).expect("run open");
        r.check_attribution().expect("invariant");
        let f1 = r.frames.iter().find(|f| f.frame == 1).expect("frame 1");
        let cl = f1.stages.iter().find(|s| s.stage == "cl").expect("cl");
        let kinds = cl.kind_cycles();
        // 100..120: cl idle/on frame 0 => queue; 120..140 compute.
        assert_eq!(kinds[&SpanKind::Queue], 20);
        assert_eq!(kinds[&SpanKind::Compute], 20);
    }

    #[test]
    fn retry_backoff_appears_as_retry_span() {
        let c = collector_with_groups();
        c.observe(&run_start(0, "t"));
        c.observe(&phase(0, "nv0", "compute", Some(0)));
        // Watchdog fires at 40: reset (socket leaves the batch) and
        // back off 30 cycles, then recompute and finish.
        c.observe(&at(
            40,
            TraceEvent::RetryScheduled {
                device: "nv0".to_string(),
                attempt: 1,
                backoff: 30,
            },
        ));
        c.observe(&phase(40, "nv0", "idle", None));
        c.observe(&phase(70, "nv0", "compute", Some(0)));
        c.observe(&frame(100, "nv0", 0));
        let r = c.close_run(120).expect("run open");
        r.check_attribution().expect("invariant");
        let f = &r.frames[0];
        let kinds = f.stages[0].kind_cycles();
        assert_eq!(kinds[&SpanKind::Retry], 30);
        assert_eq!(kinds[&SpanKind::Compute], 70);
    }

    #[test]
    fn failover_adds_marker_and_spare_joins_stage() {
        let c = collector_with_groups();
        c.observe(&run_start(0, "t"));
        c.observe(&phase(0, "nv0", "compute", Some(0)));
        c.observe(&at(
            40,
            TraceEvent::FailedOver {
                from: "nv0".to_string(),
                to: "nv1".to_string(),
            },
        ));
        c.observe(&phase(40, "nv1", "compute", Some(0)));
        c.observe(&frame(90, "nv1", 0));
        let r = c.close_run(100).expect("run open");
        r.check_attribution().expect("invariant");
        let f = &r.frames[0];
        // The spare completed the frame under the original stage name.
        assert_eq!(f.stages[0].stage, "nv");
        assert_eq!(f.stages[0].owner, "nv1");
        assert!(f.stages[0]
            .spans
            .iter()
            .any(|s| s.kind == SpanKind::Failover && s.cycles() == 0));
    }

    #[test]
    fn critical_path_agrees_with_profiler_bottleneck() {
        let events = two_stage_events();
        let spans = collector_with_groups();
        let profiles = ProfileCollector::new();
        profiles.set_stage_groups(vec![
            ("nv".to_string(), vec!["nv0".to_string()]),
            ("cl".to_string(), vec!["cl0".to_string()]),
        ]);
        for ev in &events {
            spans.observe(ev);
            profiles.observe(ev);
        }
        let sr = spans.close_run(200).expect("run open");
        let pr = profiles.close_run(200).expect("run open");
        let cp = sr.critical_path.expect("critical path");
        let b = pr.bottleneck.expect("bottleneck");
        assert_eq!(cp.limiting_stage, b.limiting_stage);
        assert_eq!(cp.bound_cycles_per_frame, b.bound_cycles_per_frame);
        assert_eq!(cp.speedup_ceiling, b.speedup_ceiling);
        assert_eq!(cp.limiting_stage, "nv");
        assert_eq!(cp.dominant_kind, "compute");
        assert_eq!(cp.stages.len(), 2);
    }

    #[test]
    fn events_link_causally_within_a_frame() {
        let c = collector_with_groups();
        for ev in two_stage_events() {
            c.observe(&ev);
        }
        let r = c.close_run(200).expect("run open");
        let events = r.events();
        assert!(!events.is_empty());
        // Root span of the frame has no cause; every later span's
        // cause is the previous span id; begin/end pair shares an id.
        let begins: Vec<&SpanEvent> = events
            .iter()
            .filter(|e| e.phase == SpanPhase::Begin)
            .collect();
        assert_eq!(begins[0].cause, None);
        for pair in begins.windows(2) {
            assert_eq!(pair[1].cause, Some(pair[0].id));
        }
        for b in &begins {
            assert!(events
                .iter()
                .any(|e| e.phase == SpanPhase::End && e.id == b.id));
        }
    }

    #[test]
    fn dropped_spans_flag_report_partial() {
        let c = collector_with_groups();
        for ev in two_stage_events() {
            c.observe(&ev);
        }
        c.note_dropped_spans(7);
        let r = c.close_run(200).expect("run open");
        assert_eq!(r.dropped_spans, 7);
        assert!(r.partial);
        assert!(r.render_text().contains("PARTIAL"));
    }

    #[test]
    fn missing_phase_tags_yield_partial_frame_not_panic() {
        let c = collector_with_groups();
        c.observe(&run_start(0, "t"));
        // Only the completion survived buffer pressure.
        c.observe(&frame(110, "nv0", 0));
        let r = c.close_run(200).expect("run open");
        r.check_attribution().expect("invariant");
        assert_eq!(r.frames.len(), 1);
        assert!(r.frames[0].partial);
        assert!(r.partial);
    }

    #[test]
    fn run_start_closes_previous_run() {
        let c = SpanCollector::new();
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
        assert!(c.take_reports().is_empty());
    }

    #[test]
    fn span_sink_forwards_and_assembles() {
        let c = SpanCollector::new();
        let tracer = c.ring_buffer_tracer();
        tracer.emit(0, TileCoord::new(0, 0), || TraceEvent::RunStart {
            label: "s".to_string(),
        });
        tracer.emit(5, TileCoord::new(0, 0), || TraceEvent::FrameComplete {
            accel: "k".to_string(),
            frame: 0,
        });
        let r = c.close_run(10).expect("run open");
        assert_eq!(r.frames.len(), 1);
        assert_eq!(tracer.len(), 2); // events still buffered for export
    }

    #[test]
    fn flame_output_is_folded_stacks() {
        let c = collector_with_groups();
        for ev in two_stage_events() {
            c.observe(&ev);
        }
        let r = c.close_run(200).expect("run open");
        let flame = r.render_flame();
        assert!(flame.contains("t;frame0;nv;compute 70"));
        assert!(flame.contains("t;frame0;cl;queue 10"));
    }

    #[test]
    fn serialized_report_is_deterministic() {
        let build = || {
            let c = collector_with_groups();
            for ev in two_stage_events() {
                c.observe(&ev);
            }
            serde_json::to_string(&c.close_run(200).expect("run open")).expect("serialize")
        };
        assert_eq!(build(), build());
    }
}
