//! Grid points run call by call, and the per-layer metrics of a traced
//! run.
//!
//! [`run_point`] performs the cold-start sequence of the experiment
//! code (`AppRun`): build the SoC, price it, boot the runtime,
//! prepare the buffers, write the input frames, run, read the outputs
//! back. It calls each layer's public function itself so that a traced
//! run can wrap every call in a span; the goldens check that it
//! computes what the library path computes, and [`check_replay`] warns
//! when its host time strays from the library's. Keep it in step with
//! `AppRun::execute_with` in `crates/core/src/experiments.rs`.

use crate::spans::{Recorder, SpanLog};
use crate::util::median;
use crate::{Outcome, REPLAY_TOLERANCE};
use esp4ml::apps::{argmax, decode_values, encode_image, CaseApp, TrainedModels};
use esp4ml::noc::NocStats;
use esp4ml::runtime::{Dataflow, EspRuntime, ExecMode, RunMetrics, RunSpec};
use esp4ml::soc::SocEngine;
use esp4ml::trace::schema::envelope_json;
use esp4ml::trace::{perfetto, SpanReport, TileCoord, TraceEvent};
use esp4ml::vision::SvhnGenerator;
use esp4ml::{Esp4mlFlow, ProfileReport, TraceSession};
use esp4ml_bench::request::{self, RunRequest, RunResponse};
use std::collections::BTreeMap;
use std::hint::black_box;

/// Seed of the experiment input frames (`experiments::DATA_SEED`);
/// were they to differ, every golden check would fail.
const DATA_SEED: u64 = 0xE5F4;
/// Snapshot/restore pairs timed per application.
const SNAPSHOT_REPS: usize = 3;
/// Repetitions of each timed request-layer call.
const REQUEST_REPS: usize = 200;

/// One grid point run call by call.
pub struct PointRun {
    /// Configuration label (`1De+1Cl`).
    pub app_label: String,
    pub mode: ExecMode,
    pub metrics: RunMetrics,
    pub watts: f64,
    pub predictions: Vec<usize>,
    pub labels: Vec<usize>,
    /// NoC packets delivered during the run.
    pub packets: u64,
    /// Busy cycles summed over the run's accelerators.
    pub accel_busy: u64,
    /// Stall cycles summed over the run's accelerators.
    pub accel_stall: u64,
}

impl PointRun {
    /// The row `request::execute` reports for this run.
    fn response_row(&self) -> request::PointRun {
        let correct = self
            .predictions
            .iter()
            .zip(&self.labels)
            .filter(|(p, l)| p == l)
            .count();
        let accuracy = if self.labels.is_empty() {
            0.0
        } else {
            correct as f64 / self.labels.len() as f64
        };
        request::PointRun {
            label: self.app_label.clone(),
            mode: self.mode.label().to_string(),
            metrics: self.metrics,
            watts: self.watts,
            frames_per_second: self.metrics.frames_per_second(),
            frames_per_joule: self.metrics.frames_per_joule(self.watts),
            accuracy,
            software_fallback: false,
        }
    }
}

/// The run-metrics artifact `request::execute` attaches for `runs`.
pub fn metrics_artifact(runs: &[PointRun]) -> String {
    let rows: Vec<request::PointRun> = runs.iter().map(PointRun::response_row).collect();
    envelope_json(
        "run-metrics",
        serde_json::to_value(rows.as_slice()).expect("rows serialize"),
    )
}

/// The observers of a spanned and profiled session, as `execute` sets
/// them up for `observe: {spans, profile}`, and the reports each run
/// leaves with them.
pub struct Observed {
    session: TraceSession,
    profiles: Vec<ProfileReport>,
    spans: Vec<SpanReport>,
    noc: Vec<(String, NocStats)>,
}

impl Observed {
    pub fn new() -> Observed {
        Observed {
            session: TraceSession::spanned(None, true),
            profiles: Vec::new(),
            spans: Vec::new(),
            noc: Vec::new(),
        }
    }

    /// Closes the run in the profiler and the span collector at `cycle`,
    /// before the outputs are read back, as `AppRun` does.
    fn close_run(&mut self, cycle: u64, rt: &EspRuntime) {
        if let Some(run) = self.session.profiler().and_then(|p| p.close_run(cycle)) {
            let heatmap = rt.soc().noc_heatmap();
            self.profiles.push(ProfileReport { run, heatmap });
        }
        if let Some(collector) = self.session.span_collector() {
            collector.note_dropped_spans(self.session.tracer().dropped_spans());
            if let Some(report) = collector.close_run(cycle) {
                self.spans.push(report);
            }
        }
    }

    /// Renders the artifacts `execute` attaches to an observed response.
    pub fn render(&self) -> BTreeMap<String, String> {
        let mut artifacts = BTreeMap::new();
        let mut insert = |kind: &str, body: String| {
            if !body.is_empty() {
                artifacts.insert(kind.to_string(), body);
            }
        };
        let profiles = serde_json::to_value(self.profiles.as_slice()).expect("profiles serialize");
        insert("profile", envelope_json("profile-reports", profiles));
        insert(
            "profile_text",
            self.profiles
                .iter()
                .map(|p| format!("{}\n", p.render_text()))
                .collect(),
        );
        let spans = serde_json::to_value(self.spans.as_slice()).expect("span reports serialize");
        insert("spans", envelope_json("span-reports", spans));
        let span_trace = perfetto::span_chrome_trace(&self.spans);
        insert(
            "span_trace",
            serde_json::to_string_pretty(&span_trace).expect("span trace serializes"),
        );
        insert(
            "span_text",
            self.spans
                .iter()
                .map(|r| format!("{}\n", r.render_text()))
                .collect(),
        );
        insert(
            "noc_text",
            self.noc
                .iter()
                .map(|(label, stats)| format!("[{label}]\n{stats}"))
                .collect(),
        );
        artifacts
    }
}

/// Profiler stage groups `(stage name, member instances)` of a dataflow,
/// named as `AppRun` names them.
fn stage_groups(dataflow: &Dataflow) -> Vec<(String, Vec<String>)> {
    dataflow
        .stages
        .iter()
        .enumerate()
        .map(|(i, stage)| {
            let name = if stage.devices.len() == 1 {
                stage.devices[0].clone()
            } else {
                let stripped = stage.devices[0].trim_end_matches(|c: char| c.is_ascii_digit());
                if stripped.is_empty() {
                    format!("stage{i}")
                } else {
                    stripped.to_string()
                }
            };
            (name, stage.devices.clone())
        })
        .collect()
}

fn run_span(mode: ExecMode) -> &'static str {
    match mode {
        ExecMode::Base => "runtime.run.base",
        ExecMode::Pipe => "runtime.run.pipe",
        ExecMode::P2p => "runtime.run.p2p",
    }
}

/// Runs one grid point from a cold start under the event engine, every
/// layer call in a span. With `observed`, the run feeds the session's
/// collectors as an observed `execute` does.
pub fn run_point(
    rec: &mut Recorder,
    app: &CaseApp,
    mode: ExecMode,
    models: &TrainedModels,
    frames: u64,
    mut observed: Option<&mut Observed>,
) -> Result<PointRun, String> {
    let label = format!("{} {}", app.label(), mode.label());
    let fail = |e: &dyn std::fmt::Display| format!("{label}: {e}");
    rec.span(&format!("point {label}"), |rec| {
        let mut soc = rec
            .span("apps.build_soc", |_| app.build_soc(models))
            .map_err(|e| fail(&e))?;
        soc.set_engine(SocEngine::EventDriven);
        let dataflow = app.dataflow();
        if let Some(obs) = observed.as_deref() {
            if let Some(profiler) = obs.session.profiler() {
                profiler.set_stage_groups(stage_groups(&dataflow));
            }
            if let Some(collector) = obs.session.span_collector() {
                collector.set_stage_groups(stage_groups(&dataflow));
            }
            let proc = soc.primary_proc();
            let run_label = label.clone();
            obs.session
                .tracer()
                .emit(soc.cycle(), TileCoord::new(proc.x, proc.y), || {
                    TraceEvent::RunStart { label: run_label }
                });
            soc.set_tracer(obs.session.tracer().clone());
        }
        let watts = rec.span("flow.power", |_| {
            Esp4mlFlow::new().estimate_power(&soc).total_watts()
        });
        let mut rt = rec
            .span("runtime.new", |_| EspRuntime::new(soc))
            .map_err(|e| fail(&e))?;
        if let Some(obs) = observed.as_deref() {
            rt.set_tracer(obs.session.tracer().clone());
        }
        let buf = rec
            .span("runtime.prepare", |_| rt.prepare(&dataflow, frames))
            .map_err(|e| fail(&e))?;
        let mut gen = SvhnGenerator::new(DATA_SEED);
        let mut labels = Vec::with_capacity(frames as usize);
        for f in 0..frames {
            let (image, truth) = rec.span("apps.input_frame", |_| app.input_frame(&mut gen));
            let words = encode_image(&image);
            rec.span("runtime.write_frame", |_| rt.write_frame(&buf, f, &words))
                .map_err(|e| fail(&e))?;
            labels.push(truth);
        }
        let spec = RunSpec::new(&dataflow).mode(mode);
        let metrics = rec
            .span(run_span(mode), |_| rt.run(&spec, &buf))
            .map_err(|e| fail(&e))?;
        if let Some(obs) = observed.as_deref_mut() {
            let cycle = rt.soc().cycle();
            rec.span("trace.close_run", |_| obs.close_run(cycle, &rt));
        }
        let mut predictions = Vec::with_capacity(frames as usize);
        for f in 0..frames {
            let values = rec
                .span("runtime.read_frame", |_| rt.read_frame(&buf, f))
                .map_err(|e| fail(&e))?;
            predictions.push(argmax(&decode_values(&values)));
        }
        if let Some(obs) = observed {
            obs.noc.push((label.clone(), rt.soc().noc_stats().clone()));
        }
        let (mut accel_busy, mut accel_stall) = (0, 0);
        for device in dataflow.stages.iter().flat_map(|s| &s.devices) {
            if let Some(stats) = rt.device_stats(device) {
                accel_busy += stats.busy_cycles;
                accel_stall += stats.stall_cycles;
            }
        }
        Ok(PointRun {
            app_label: app.label(),
            mode,
            metrics,
            watts,
            predictions,
            labels,
            packets: rt.soc().noc_stats().total_delivered(),
            accel_busy,
            accel_stall,
        })
    })
}

/// Loads each application as a grid point's prefix does, then times
/// `EspRuntime::snapshot` and `EspRuntime::restore` on the warm state.
/// Returns the median serialized snapshot size in KiB.
pub fn snapshot_probe(
    rec: &mut Recorder,
    apps: &[CaseApp],
    models: &TrainedModels,
    frames: u64,
) -> Result<f64, String> {
    let mut kib = Vec::new();
    for app in apps {
        let fail = |e: &dyn std::fmt::Display| format!("snapshot probe {}: {e}", app.label());
        let mut soc = app.build_soc(models).map_err(|e| fail(&e))?;
        soc.set_engine(SocEngine::EventDriven);
        let mut rt = EspRuntime::new(soc).map_err(|e| fail(&e))?;
        let buf = rt.prepare(&app.dataflow(), frames).map_err(|e| fail(&e))?;
        let mut gen = SvhnGenerator::new(DATA_SEED);
        for f in 0..frames {
            let (image, _) = app.input_frame(&mut gen);
            rt.write_frame(&buf, f, &encode_image(&image))
                .map_err(|e| fail(&e))?;
        }
        for _ in 0..SNAPSHOT_REPS {
            let snapshot = rec.span("soc.snapshot", |_| rt.snapshot());
            let json = serde_json::to_string(&snapshot).map_err(|e| fail(&e))?;
            kib.push(json.len() as f64 / 1024.0);
            rec.span("soc.restore", |_| rt.restore(&snapshot))
                .map_err(|e| fail(&e))?;
        }
    }
    Ok(median(&kib))
}

/// Times the request layer's gate on `requests` (the admission lint and
/// the cache key, `REQUEST_REPS` times each) and the JSON encoding of
/// `responses`.
pub fn request_probe(rec: &mut Recorder, requests: &[RunRequest], responses: &[&RunResponse]) {
    for _ in 0..REQUEST_REPS {
        for req in requests {
            rec.span("request.admission", |_| black_box(request::admission(req)));
            rec.span("request.cache_key", |_| black_box(req.cache_key()));
        }
    }
    for resp in responses {
        rec.span("request.response_json", |_| black_box(resp.to_json()));
    }
}

/// Records the per-layer metrics every workload reports: host time per
/// layer from the spans, and the simulated counts of `runs`.
pub fn layer_metrics(log: &SpanLog, runs: &[PointRun], snapshot_kib: f64, out: &mut Outcome) {
    let ms = |name: &str| log.total_s(name) * 1e3;
    let run_s = |mode: ExecMode| log.total_s(run_span(mode));
    let total = |modes: &[ExecMode], count: fn(&PointRun) -> u64| {
        runs.iter()
            .filter(|r| modes.contains(&r.mode))
            .map(count)
            .sum::<u64>() as f64
    };
    let ns_per = |seconds: f64, count: f64| crate::util::ratio(seconds * 1e9, count);
    let all = &ExecMode::ALL;
    let memory_bound = &[ExecMode::Base, ExecMode::Pipe];
    out.record("apps.build_soc_ms", ms("apps.build_soc"), "ms");
    out.record("apps.input_frame_ms", ms("apps.input_frame"), "ms");
    out.record("flow.power_ms", ms("flow.power"), "ms");
    let load = ms("runtime.new") + ms("runtime.prepare") + ms("runtime.write_frame");
    out.record("runtime.load_ms", load, "ms");
    out.record("runtime.run_s.pipe", run_s(ExecMode::Pipe), "s");
    out.record("runtime.run_s.p2p", run_s(ExecMode::P2p), "s");
    out.record("runtime.readback_ms", ms("runtime.read_frame"), "ms");
    out.record(
        "runtime.invocations",
        total(all, |r| r.metrics.invocations),
        "count",
    );
    let cycles = total(all, |r| r.metrics.cycles);
    let run_all = run_s(ExecMode::Base) + run_s(ExecMode::Pipe) + run_s(ExecMode::P2p);
    out.record("soc.sim_cycles", cycles, "count");
    out.record("soc.host_ns_per_cycle", ns_per(run_all, cycles), "ns");
    let snapshot_ms = median(&log.durations_s("soc.snapshot")) * 1e3;
    out.record("soc.snapshot_ms", snapshot_ms, "ms");
    let restore_ms = median(&log.durations_s("soc.restore")) * 1e3;
    out.record("soc.restore_ms", restore_ms, "ms");
    out.record("soc.snapshot_kb", snapshot_kib, "KiB");
    out.record("accel.busy_cycles", total(all, |r| r.accel_busy), "count");
    out.record("accel.stall_cycles", total(all, |r| r.accel_stall), "count");
    out.record(
        "noc.flit_hops",
        total(all, |r| r.metrics.noc_flit_hops),
        "count",
    );
    out.record("noc.packets", total(all, |r| r.packets), "count");
    let p2p_hops = total(&[ExecMode::P2p], |r| r.metrics.noc_flit_hops);
    out.record(
        "noc.host_ns_per_flit_hop",
        ns_per(run_s(ExecMode::P2p), p2p_hops),
        "ns",
    );
    out.record(
        "mem.dram_accesses",
        total(all, |r| r.metrics.dram_accesses),
        "count",
    );
    let memory_accesses = total(memory_bound, |r| r.metrics.dram_accesses);
    let memory_s = run_s(ExecMode::Base) + run_s(ExecMode::Pipe);
    out.record(
        "mem.host_ns_per_dram_access",
        ns_per(memory_s, memory_accesses),
        "ns",
    );
    if runs.iter().any(|r| r.mode == ExecMode::Base) {
        out.extra("runtime.run_s.base", run_s(ExecMode::Base), "s");
    }
}

/// Compares a call-by-call replay's wall time with that of the library
/// call it stands for and warns when they differ by more than
/// `REPLAY_TOLERANCE`. [`run_point`] copies the sequence of the library's
/// private `AppRun::execute_with`; a wide gap means one of them changed
/// its host-side steps and the per-layer figures no longer describe the
/// program.
pub fn check_replay(replay_s: f64, library_s: f64, out: &mut Outcome) {
    let share = crate::util::ratio(replay_s, library_s);
    out.extra("bench.replay_vs_execute", share, "x");
    if (share - 1.0).abs() > REPLAY_TOLERANCE {
        eprintln!(
            "warning: the call-by-call replay took {replay_s:.3} s against {library_s:.3} s \
             for the library's execute; check that run_point still follows \
             AppRun::execute_with"
        );
    }
}

/// Records the request-layer metrics from [`request_probe`]'s spans.
pub fn request_metrics(log: &SpanLog, out: &mut Outcome) {
    let admission = median(&log.durations_s("request.admission")) * 1e6;
    out.record("request.admission_us", admission, "us");
    let cache_key = median(&log.durations_s("request.cache_key")) * 1e6;
    out.record("request.cache_key_us", cache_key, "us");
    let json = median(&log.durations_s("request.response_json")) * 1e3;
    out.record("request.response_json_ms", json, "ms");
}
