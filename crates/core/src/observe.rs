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
use esp4ml_trace::{
    CounterSeries, ProfileCollector, RingBufferSink, RunProfile, SpanCollector, SpanReport, Tracer,
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
        let profiler = ProfileCollector::new();
        TraceSession {
            tracer: profiler.ring_buffer_tracer(),
            sample_every,
            profiler: Some(profiler),
            ..Default::default()
        }
    }

    /// A session that assembles causal frame-level span trees for every
    /// run: events flow through a [`SpanCollector`] (which embeds its own
    /// profiler for critical-path agreement) into a ring-buffer sink, and
    /// each completed run leaves a [`SpanReport`] in
    /// [`TraceSession::span_reports`]. When `profile` is also set, a
    /// [`ProfileCollector`] observes the identical stream first and each
    /// run additionally leaves a [`ProfileReport`].
    pub fn spanned(sample_every: Option<u64>, profile: bool) -> Self {
        let spans = SpanCollector::new();
        if profile {
            let profiler = ProfileCollector::new();
            let sink = profiler.sink(spans.sink(Box::<RingBufferSink>::default()));
            TraceSession {
                tracer: Tracer::with_sink(sink),
                sample_every,
                profiler: Some(profiler),
                spans: Some(spans),
                ..Default::default()
            }
        } else {
            TraceSession {
                tracer: spans.ring_buffer_tracer(),
                sample_every,
                spans: Some(spans),
                ..Default::default()
            }
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

    /// Records the observability output of one completed run.
    pub(crate) fn record_run(
        &mut self,
        label: String,
        series: Option<CounterSeries>,
        noc: NocStats,
    ) {
        if let Some(series) = series {
            self.series.push((label.clone(), series));
        }
        self.noc.push((label, noc));
    }

    /// Records one completed run's profile.
    pub(crate) fn record_profile(&mut self, profile: ProfileReport) {
        self.profiles.push(profile);
    }

    /// Records one completed run's span report.
    pub(crate) fn record_spans(&mut self, report: SpanReport) {
        self.span_reports.push(report);
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
