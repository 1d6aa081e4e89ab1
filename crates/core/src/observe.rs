//! Observability session shared across traced experiment runs.
//!
//! Each [`AppRun`](crate::experiments::AppRun) builds a fresh SoC, so a
//! figure-level trace needs one handle threaded through every run: the
//! [`TraceSession`] carries the shared [`Tracer`] into each SoC and
//! collects the per-run counter time-series and NoC summaries on the way
//! out. The event stream itself stays in the tracer's sink, ready for
//! [`esp4ml_trace::perfetto`] export (each run opens with a
//! [`esp4ml_trace::TraceEvent::RunStart`] marker so the exporter can
//! split runs into separate process tracks).

use esp4ml_noc::{NocHeatmap, NocStats};
use esp4ml_soc::Soc;
use esp4ml_trace::{
    CounterSeries, ProfileCollector, RingBufferSink, RunProfile, SpanCollector, SpanReport,
    TileCoord, TraceEvent, TraceSink, Tracer,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// The complete profiling output of one run: the event-derived
/// [`RunProfile`] plus the link-level NoC heatmap snapshotted from the
/// run's mesh.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProfileReport {
    /// Frame-latency histograms, time-in-state utilization and
    /// bottleneck analysis reconstructed from the trace stream.
    pub run: RunProfile,
    /// Per-router, per-link occupancy and credit-stall counters.
    pub heatmap: NocHeatmap,
}

impl ProfileReport {
    /// Renders the bottleneck report followed by the NoC heatmap.
    pub fn render_text(&self) -> String {
        format!("{}{}", self.run.render_text(), self.heatmap.render_ascii())
    }
}

/// Shared observability state for a sequence of experiment runs.
#[derive(Debug, Default)]
pub struct TraceSession {
    tracer: Tracer,
    sample_every: Option<u64>,
    profiler: Option<ProfileCollector>,
    spans: Option<SpanCollector>,
    series: Vec<(String, CounterSeries)>,
    noc: Vec<(String, NocStats)>,
    profiles: Vec<ProfileReport>,
    span_reports: Vec<SpanReport>,
}

impl TraceSession {
    /// A session recording events through `tracer`, without counter
    /// sampling.
    pub fn new(tracer: Tracer) -> Self {
        TraceSession {
            tracer,
            ..Default::default()
        }
    }

    /// A session recording events and sampling the counter registry
    /// every `every` cycles of each run.
    pub fn with_sampling(tracer: Tracer, every: u64) -> Self {
        TraceSession {
            tracer,
            sample_every: Some(every),
            ..Default::default()
        }
    }

    /// A session that profiles every run online: events flow through a
    /// [`ProfileCollector`] into a ring-buffer sink, and each completed
    /// run leaves a [`ProfileReport`] in [`TraceSession::profiles`].
    /// `sample_every` optionally enables counter sampling as well.
    pub fn profiled(sample_every: Option<u64>) -> Self {
        Self::collecting(sample_every, true, false)
    }

    /// A session that assembles causal frame-level span trees for every
    /// run: events flow through a [`SpanCollector`] into a ring-buffer
    /// sink, and each completed run leaves a [`SpanReport`] in
    /// [`TraceSession::span_reports`]. When `profile` is also set, a
    /// [`ProfileCollector`] observes the identical stream first and each
    /// run additionally leaves a [`ProfileReport`].
    pub fn spanned(sample_every: Option<u64>, profile: bool) -> Self {
        Self::collecting(sample_every, profile, true)
    }

    /// A session whose ring-buffer sink is fronted by the collectors
    /// that are on: the profiler first, then the span collector.
    fn collecting(sample_every: Option<u64>, profile: bool, spans: bool) -> Self {
        let profiler = profile.then(ProfileCollector::new);
        let spans = spans.then(SpanCollector::new);
        let mut sink: Box<dyn TraceSink> = Box::<RingBufferSink>::default();
        if let Some(c) = &spans {
            sink = c.sink(sink);
        }
        if let Some(c) = &profiler {
            sink = c.sink(sink);
        }
        TraceSession {
            tracer: Tracer::with_sink(sink),
            sample_every,
            profiler,
            spans,
            ..Default::default()
        }
    }

    /// A no-op session: events are discarded and nothing is sampled.
    pub fn disabled() -> Self {
        TraceSession::default()
    }

    /// The shared tracer handle.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The counter sampling period, when sampling is on.
    pub fn sample_every(&self) -> Option<u64> {
        self.sample_every
    }

    /// The online profile collector, when profiling is on.
    pub fn profiler(&self) -> Option<&ProfileCollector> {
        self.profiler.as_ref()
    }

    /// The online span collector, when span assembly is on.
    pub fn span_collector(&self) -> Option<&SpanCollector> {
        self.spans.as_ref()
    }

    /// Opens one observed run on `soc`: declares the run's pipeline
    /// stage groups to every collector, then emits the `RunStart` marker
    /// naming the run from the primary processor tile.
    pub(crate) fn open_run(&self, label: String, groups: Vec<(String, Vec<String>)>, soc: &Soc) {
        if let Some(profiler) = &self.profiler {
            profiler.set_stage_groups(groups.clone());
        }
        if let Some(spans) = &self.spans {
            spans.set_stage_groups(groups);
        }
        let proc = soc.primary_proc();
        self.tracer
            .emit(soc.cycle(), TileCoord::new(proc.x, proc.y), || {
                TraceEvent::RunStart { label }
            });
    }

    /// Closes the observed run where `soc` stopped and records its
    /// output: the profile (with the NoC heatmap), the span report, the
    /// counter series and the NoC summary. The span run carries over any
    /// ring-buffer span losses, so a saturated trace yields a report
    /// flagged partial instead of a silently wrong one.
    pub(crate) fn close_run(&mut self, label: String, soc: &mut Soc) {
        let end = soc.cycle();
        if let Some(run) = self.profiler.as_ref().and_then(|p| p.close_run(end)) {
            self.profiles.push(ProfileReport {
                run,
                heatmap: soc.noc_heatmap(),
            });
        }
        if let Some(spans) = &self.spans {
            spans.note_dropped_spans(self.tracer.dropped_spans());
            self.span_reports.extend(spans.close_run(end));
        }
        self.record_run(label, soc.take_counter_series(), soc.noc_stats().clone());
    }

    /// Records one run's counter series and NoC summary.
    fn record_run(&mut self, label: String, series: Option<CounterSeries>, noc: NocStats) {
        if let Some(series) = series {
            self.series.push((label.clone(), series));
        }
        self.noc.push((label, noc));
    }

    /// Accumulated per-run profile reports, in run order.
    pub fn profiles(&self) -> &[ProfileReport] {
        &self.profiles
    }

    /// Accumulated per-run span reports, in run order.
    pub fn span_reports(&self) -> &[SpanReport] {
        &self.span_reports
    }

    /// Serializes every span report as one enveloped JSON array
    /// (kind `span-reports`, see [`esp4ml_trace::schema`]).
    pub fn span_reports_json(&self) -> String {
        let payload = serde_json::to_value(&self.span_reports).expect("span serialization");
        esp4ml_trace::schema::envelope_json("span-reports", payload)
    }

    /// Renders every span report as human-readable text.
    pub fn span_summary(&self) -> String {
        let mut out = String::new();
        for r in &self.span_reports {
            out.push_str(&r.render_text());
            out.push('\n');
        }
        out
    }

    /// Serializes every profile report as one enveloped JSON array
    /// (kind `profile-reports`, see [`esp4ml_trace::schema`]).
    pub fn profiles_json(&self) -> String {
        let payload = serde_json::to_value(&self.profiles).expect("profile serialization");
        esp4ml_trace::schema::envelope_json("profile-reports", payload)
    }

    /// Renders every profile report as human-readable text.
    pub fn profile_summary(&self) -> String {
        let mut out = String::new();
        for p in &self.profiles {
            out.push_str(&p.render_text());
            out.push('\n');
        }
        out
    }

    /// Accumulated `(run label, counter series)` pairs, in run order.
    pub fn series(&self) -> &[(String, CounterSeries)] {
        &self.series
    }

    /// Accumulated `(run label, NoC stats)` pairs, in run order.
    pub fn noc_stats(&self) -> &[(String, NocStats)] {
        &self.noc
    }

    /// Renders every sampled counter series as one CSV with a leading
    /// `run` label column (each run's SoC restarts at cycle 0, so the
    /// label disambiguates the rows).
    pub fn counters_csv(&self) -> String {
        let mut columns = BTreeSet::new();
        for (_, series) in &self.series {
            for row in series.rows() {
                for name in row.snapshot.names() {
                    columns.insert(name.to_string());
                }
            }
        }
        let mut out = String::from("run,cycle");
        for c in &columns {
            out.push(',');
            out.push_str(c);
        }
        out.push('\n');
        for (label, series) in &self.series {
            for row in series.rows() {
                let _ = write!(out, "{label},{}", row.cycle);
                for c in &columns {
                    let _ = write!(out, ",{}", row.snapshot.get(c));
                }
                out.push('\n');
            }
        }
        out
    }

    /// Renders the per-run NoC traffic tables as one human-readable
    /// summary.
    pub fn noc_summary(&self) -> String {
        let mut out = String::new();
        for (label, stats) in &self.noc {
            let _ = writeln!(out, "[{label}]");
            let _ = write!(out, "{stats}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp4ml_trace::CounterRegistry;

    #[test]
    fn disabled_session_has_no_output() {
        let s = TraceSession::disabled();
        assert!(!s.tracer().is_enabled());
        assert!(s.sample_every().is_none());
        assert_eq!(s.counters_csv(), "run,cycle\n");
        assert!(s.noc_summary().is_empty());
    }

    #[test]
    fn counters_csv_labels_rows_per_run() {
        let mut s = TraceSession::with_sampling(Tracer::ring_buffer(), 100);
        let mut reg = CounterRegistry::new();
        reg.set("soc.cycles", 100);
        let mut series = CounterSeries::new(100);
        series.record(100, reg.snapshot());
        s.record_run("app p2p".into(), Some(series), NocStats::new());
        let csv = s.counters_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "run,cycle,soc.cycles");
        assert_eq!(lines[1], "app p2p,100,100");
        assert_eq!(s.noc_stats().len(), 1);
    }
}
