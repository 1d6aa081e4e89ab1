//! The grid workloads.
//!
//! * `fig7_sweep` executes the full Fig. 7 grid (five configurations ×
//!   base/pipe/p2p, event engine, `jobs: 2`, cold starts) as the `fig7`
//!   binary does. The simulator core does nearly all the work.
//! * `fig8_observed` executes the Fig. 8 grid (the three Table I
//!   applications × pipe/p2p) with spans and profiling on, which
//!   `execute` runs serially. The trace layer and three distinct SoC
//!   builds take a large share.

use crate::calib::Gauge;
use crate::layers::{self, Observed, PointRun};
use crate::spans::{Recorder, SpanLog};
use crate::util::{digest, median, peak_rss_mb, ratio};
use crate::{timed_setup, Args, Outcome, GOLDEN_DIR};
use esp4ml::apps::{CaseApp, TrainedModels};
use esp4ml::experiments::{Fig7, Fig8, GridPoint};
use esp4ml::runtime::RunMetrics;
use esp4ml::soc::SocEngine;
use esp4ml_bench::parallel;
use esp4ml_bench::request::{
    self, ObserveOpts, Progress, ProgressSink, RunRequest, RunResponse, WorkloadKind,
};
use serde_json::{json, Value};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// An untraced run executes the workload at least this often.
const MIN_REPS: usize = 3;
/// The requests' `jobs`: the harness default on a two-core machine.
const JOBS: usize = 2;

/// A grid workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grid {
    Fig7Sweep,
    Fig8Observed,
}

impl Grid {
    fn name(self) -> &'static str {
        match self {
            Grid::Fig7Sweep => "fig7_sweep",
            Grid::Fig8Observed => "fig8_observed",
        }
    }

    /// The workload's request, as `fig7 --jobs 2` (and
    /// `fig8 --jobs 2 --spans --profile`) build it.
    fn request(self) -> RunRequest {
        let kind = match self {
            Grid::Fig7Sweep => WorkloadKind::Fig7,
            Grid::Fig8Observed => WorkloadKind::Fig8,
        };
        let mut req = RunRequest::new(kind);
        req.engine = "event".to_string();
        req.jobs = JOBS;
        if self == Grid::Fig8Observed {
            req.observe.spans = true;
            req.observe.profile = true;
        }
        req
    }

    fn points(self) -> Vec<GridPoint> {
        match self {
            Grid::Fig7Sweep => Fig7::grid(),
            Grid::Fig8Observed => Fig8::grid(),
        }
    }

    fn golden_path(self) -> String {
        format!("{GOLDEN_DIR}/{}.json", self.name())
    }
}

/// A golden grid point.
struct GoldenPoint {
    label: String,
    mode: String,
    metrics: RunMetrics,
    predictions: Vec<usize>,
}

/// Expected outputs of a grid workload, taken from the library's
/// serial, unobserved run of its grid.
struct Golden {
    metrics_digest: String,
    points: Vec<GoldenPoint>,
}

impl Golden {
    fn load(grid: Grid) -> Result<Golden, String> {
        let path = grid.golden_path();
        let bad = |what: &str| format!("{path}: {what}");
        let text = std::fs::read_to_string(&path).map_err(|e| bad(&e.to_string()))?;
        let doc: Value = serde_json::from_str(&text).map_err(|e| bad(&e.to_string()))?;
        let mut points = Vec::new();
        for p in doc["points"].as_array().ok_or_else(|| bad("no points"))? {
            let predictions = p["predictions"]
                .as_array()
                .ok_or_else(|| bad("a point has no predictions"))?
                .iter()
                .map(|v| {
                    v.as_u64()
                        .and_then(|x| usize::try_from(x).ok())
                        .ok_or_else(|| bad("a prediction is not a class index"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            points.push(GoldenPoint {
                label: p["label"]
                    .as_str()
                    .ok_or_else(|| bad("no label"))?
                    .to_string(),
                mode: p["mode"]
                    .as_str()
                    .ok_or_else(|| bad("no mode"))?
                    .to_string(),
                metrics: serde_json::from_value(p["metrics"].clone())
                    .map_err(|e| bad(&e.to_string()))?,
                predictions,
            });
        }
        let metrics_digest = doc["metrics_artifact_digest"]
            .as_str()
            .ok_or_else(|| bad("no metrics_artifact_digest"))?
            .to_string();
        Ok(Golden {
            metrics_digest,
            points,
        })
    }

    fn check_artifact(&self, artifact: Option<&String>, whose: &str, problems: &mut Vec<String>) {
        match artifact.map(|a| digest(a)) {
            Some(d) if d == self.metrics_digest => {}
            Some(d) => problems.push(format!(
                "{whose}: metrics artifact digest {d}, golden {}",
                self.metrics_digest
            )),
            None => problems.push(format!("{whose}: no metrics artifact")),
        }
    }

    /// Problems with a response to the workload's request.
    fn check_response(&self, resp: &RunResponse) -> Vec<String> {
        let mut problems = Vec::new();
        if !resp.verdict.ok {
            problems.push(format!("verdict not ok: {:?}", resp.verdict.violations));
        }
        self.check_artifact(resp.artifacts.get("metrics"), "execute", &mut problems);
        if resp.runs.len() != self.points.len() {
            problems.push(format!(
                "execute returned {} runs, the golden has {}",
                resp.runs.len(),
                self.points.len()
            ));
        }
        for (run, golden) in resp.runs.iter().zip(&self.points) {
            if run.label != golden.label || run.mode != golden.mode || run.metrics != golden.metrics
            {
                problems.push(format!(
                    "{} {}: run metrics differ from the golden",
                    run.label, run.mode
                ));
            }
        }
        problems
    }

    /// Problems with the points of a traced pass.
    fn check_points(&self, runs: &[PointRun]) -> Vec<String> {
        let mut problems = Vec::new();
        if runs.len() != self.points.len() {
            problems.push(format!(
                "the traced pass ran {} points, the golden has {}",
                runs.len(),
                self.points.len()
            ));
        }
        for (run, golden) in runs.iter().zip(&self.points) {
            if run.app_label != golden.label
                || run.mode.label() != golden.mode
                || run.metrics != golden.metrics
                || run.predictions != golden.predictions
            {
                problems.push(format!(
                    "traced {} {}: run metrics or predictions differ from the golden",
                    run.app_label,
                    run.mode.label()
                ));
            }
        }
        let artifact = layers::metrics_artifact(runs);
        self.check_artifact(Some(&artifact), "traced pass", &mut problems);
        problems
    }
}

/// Timestamps every progress snapshot `execute` publishes.
struct StampSink {
    begin: Instant,
    stamps: Mutex<Vec<f64>>,
}

impl StampSink {
    fn new() -> StampSink {
        StampSink {
            begin: Instant::now(),
            stamps: Mutex::new(Vec::new()),
        }
    }

    /// Seconds between consecutive snapshots, the first counted from
    /// when the sink was made. On the serial path a snapshot follows each
    /// point, so these are the points' host times.
    fn intervals(&self) -> Vec<f64> {
        let stamps = self.stamps.lock().expect("no publisher panicked");
        let mut previous = 0.0;
        stamps
            .iter()
            .map(|&t| {
                let interval = t - previous;
                previous = t;
                interval
            })
            .collect()
    }
}

impl ProgressSink for StampSink {
    fn publish(&self, _: &Progress) {
        let t = self.begin.elapsed().as_secs_f64();
        self.stamps.lock().expect("no publisher panicked").push(t);
    }
}

/// Executes `req`, returning the response and its wall seconds.
fn timed_execute(
    req: &RunRequest,
    models: &TrainedModels,
    sink: Option<&dyn ProgressSink>,
) -> Result<(RunResponse, f64), String> {
    let start = Instant::now();
    let resp = request::execute_with_progress(req, models, sink)
        .map_err(|e| format!("{}: {e}", req.workload.label()))?;
    Ok((resp, start.elapsed().as_secs_f64()))
}

/// Runs a grid workload. Untraced, it executes the request once to warm
/// up, then until `args.seconds` have passed, each execute followed by a
/// reference pass that scales its time to the nominal host speed, and
/// reports the end-to-end metrics from the median scaled time.
pub fn run(grid: Grid, args: &Args) -> Result<Outcome, String> {
    let (setup_s, (models, req)) = timed_setup(args.started, || {
        let models = TrainedModels::untrained();
        let req = grid.request();
        req.validate()?;
        Ok((models, req))
    })?;
    let golden = Golden::load(grid)?;
    if args.trace {
        return traced(grid, &models, &golden, &req);
    }
    let mut out = Outcome::default();
    let checked = |result: &Result<RunResponse, _>| match result {
        Ok(resp) => golden.check_response(resp),
        Err(e) => vec![format!("{e}")],
    };
    // The process's first execute runs measurably slower; it is checked
    // but not timed.
    let start = Instant::now();
    let result = request::execute(&req, &models);
    out.extra("warm_up_s", start.elapsed().as_secs_f64(), "s");
    out.operation(checked(&result));
    let mut gauge = Gauge::new();
    let (mut walls, mut scaled) = (Vec::new(), Vec::new());
    let mut cycles = 0;
    let begin = Instant::now();
    while walls.len() < MIN_REPS || begin.elapsed().as_secs_f64() < args.seconds {
        let start = Instant::now();
        let result = request::execute(&req, &models);
        let wall = start.elapsed().as_secs_f64();
        walls.push(wall);
        scaled.push(wall * gauge.factor());
        if out.operation(checked(&result)) {
            cycles = result
                .iter()
                .flat_map(|r| &r.runs)
                .map(|r| r.metrics.cycles)
                .sum::<u64>();
        }
    }
    let wall = median(&scaled);
    let points = grid.points().len() as f64;
    out.record("setup_s", setup_s, "s");
    out.record("wall_s", wall, "s");
    out.record("sim_cycles_per_s", ratio(cycles as f64, wall), "1/s");
    out.record("jobs_per_s", ratio(points, wall), "1/s");
    out.record("peak_rss_mb", peak_rss_mb()?, "MB");
    out.extra("wall_raw_s", median(&walls), "s");
    out.extra("reference_s", gauge.reference_s(), "s");
    Ok(out)
}

/// A traced run: the workload's own execute as the untraced reference,
/// the workload's probes (fig7: serial and forked executes for the
/// parallel and fork figures; fig8: the unobserved execute for the trace
/// layer's overhead), then the same points call by call with every
/// layer call in a span, and finally snapshot/restore and request-layer
/// timings.
fn traced(
    grid: Grid,
    models: &TrainedModels,
    golden: &Golden,
    req: &RunRequest,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let t0 = Instant::now();
    let mut main = Recorder::new(t0, 0);
    // The process's first execute runs measurably slower; keep it out of
    // the timed reference.
    let (warm_up, _) = main.span("phase warm-up", |_| timed_execute(req, models, None))?;
    out.operation(golden.check_response(&warm_up));
    let (plain, plain_wall) = main.span("phase plain", |_| timed_execute(req, models, None))?;
    out.operation(golden.check_response(&plain));
    match grid {
        Grid::Fig7Sweep => {
            let serial = RunRequest {
                jobs: 1,
                ..req.clone()
            };
            let sink = StampSink::new();
            let stamps: &dyn ProgressSink = &sink;
            let (resp, serial_wall) = main.span("phase serial", |_| {
                timed_execute(&serial, models, Some(stamps))
            })?;
            out.operation(golden.check_response(&resp));
            let serial_points: f64 = sink.intervals().iter().sum();
            out.extra("parallel.speedup", ratio(serial_points, plain_wall), "x");
            let forked = RunRequest {
                fork_prefix: true,
                ..serial
            };
            let (resp, fork_wall) =
                main.span("phase fork", |_| timed_execute(&forked, models, None))?;
            out.operation(golden.check_response(&resp));
            out.extra("fork.speedup", ratio(serial_wall, fork_wall), "x");
        }
        Grid::Fig8Observed => {
            let unobserved = RunRequest {
                observe: ObserveOpts::default(),
                jobs: 1,
                ..req.clone()
            };
            let (resp, unobserved_wall) = main.span("phase unobserved", |_| {
                timed_execute(&unobserved, models, None)
            })?;
            let mut problems = golden.check_response(&resp);
            if resp.artifacts.get("metrics") != plain.artifacts.get("metrics") {
                problems.push(
                    "the observed run's metrics artifact differs from the unobserved run's".into(),
                );
            }
            out.operation(problems);
            out.extra("trace.overhead_s", plain_wall - unobserved_wall, "s");
        }
    }

    let points = grid.points();
    let from = main.now_ns();
    let (results, workers) = match grid {
        Grid::Fig7Sweep => parallel_pass(&points, models, req.frames, t0),
        Grid::Fig8Observed => {
            let mut rec = Recorder::new(t0, 1);
            let mut observed = Observed::new();
            let results: Vec<_> = points
                .iter()
                .map(|p| {
                    let obs = Some(&mut observed);
                    layers::run_point(&mut rec, &p.app, p.mode, models, req.frames, obs)
                })
                .collect();
            let artifacts = rec.span("trace.render", |_| observed.render());
            let mut problems = Vec::new();
            for (kind, body) in &artifacts {
                if plain.artifacts.get(kind) != Some(body) {
                    problems.push(format!(
                        "the traced pass's {kind} artifact differs from execute's"
                    ));
                }
            }
            out.operation(problems);
            let bytes: usize = artifacts.values().map(String::len).sum();
            out.extra("trace.artifact_kb", bytes as f64 / 1024.0, "KiB");
            (results, vec![rec])
        }
    };
    let to = main.now_ns();
    let runs: Vec<PointRun> = results.into_iter().collect::<Result<_, _>>()?;
    out.operation(golden.check_points(&runs));

    let mut apps: Vec<CaseApp> = points.iter().map(|p| p.app).collect();
    apps.dedup();
    let snapshot_kib = main.span("phase snapshot", |rec| {
        layers::snapshot_probe(rec, &apps, models, req.frames)
    })?;
    main.span("phase request", |rec| {
        layers::request_probe(rec, std::slice::from_ref(req), &[&plain]);
    });

    let log = SpanLog::merge(std::iter::once(main).chain(workers));
    layers::layer_metrics(&log, &runs, snapshot_kib, &mut out);
    layers::request_metrics(&log, &mut out);
    let traced_wall = to.saturating_sub(from) as f64 * 1e-9;
    out.record("bench.span_overhead_s", traced_wall - plain_wall, "s");
    layers::check_replay(traced_wall, plain_wall, &mut out);
    let coverage = log.coverage(from, to);
    out.record("bench.span_coverage", coverage, "ratio");
    if coverage < 0.9 {
        out.problems.push(format!(
            "layer calls cover {:.1}% of the traced pass, under 90%",
            coverage * 100.0
        ));
    }
    match grid {
        Grid::Fig7Sweep => {
            let busy = log.busy_by_worker_s("point ");
            let mean = ratio(busy.iter().sum(), busy.len() as f64);
            let slowest = busy.iter().copied().fold(0.0, f64::max);
            out.extra("parallel.imbalance", ratio(slowest, mean), "x");
        }
        Grid::Fig8Observed => {
            out.extra("trace.render_ms", log.total_s("trace.render") * 1e3, "ms");
        }
    }
    let path = log.write(grid.name(), &out)?;
    eprintln!("spans written to {path}");
    Ok(out)
}

/// Runs `points` on `JOBS` workers that each take the next point in grid
/// order, as `parallel::run_grid` schedules a cold-start grid.
fn parallel_pass(
    points: &[GridPoint],
    models: &TrainedModels,
    frames: u64,
    t0: Instant,
) -> (Vec<Result<PointRun, String>>, Vec<Recorder>) {
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<PointRun, String>>>> =
        points.iter().map(|_| Mutex::new(None)).collect();
    let recorders = std::thread::scope(|scope| {
        let workers: Vec<_> = (1..=JOBS)
            .map(|worker| {
                let (cursor, slots) = (&cursor, &slots);
                scope.spawn(move || {
                    let mut rec = Recorder::new(t0, worker);
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(p) = points.get(i) else { break };
                        let run = layers::run_point(&mut rec, &p.app, p.mode, models, frames, None);
                        *slots[i].lock().expect("no worker panicked") = Some(run);
                    }
                    rec
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("traced worker panicked"))
            .collect::<Vec<_>>()
    });
    let results = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no worker panicked")
                .expect("every point ran")
        })
        .collect();
    (results, recorders)
}

/// Writes the grid goldens from the library's serial, unobserved run of
/// each grid: per point the run metrics and predictions, and the digest
/// of the metrics artifact. For `fig8_observed` this makes the golden
/// the unobserved run's, so every observed run is checked against it.
pub fn write_goldens() -> Result<(), String> {
    let models = TrainedModels::untrained();
    for grid in [Grid::Fig7Sweep, Grid::Fig8Observed] {
        let req = RunRequest {
            observe: ObserveOpts::default(),
            jobs: 1,
            ..grid.request()
        };
        let resp = request::execute(&req, &models).map_err(|e| e.to_string())?;
        let runs = parallel::run_grid(
            &grid.points(),
            &models,
            req.frames,
            SocEngine::EventDriven,
            1,
            false,
            None,
            false,
            None,
        )
        .map_err(|e| e.to_string())?;
        let points: Vec<Value> = resp
            .runs
            .iter()
            .zip(&runs)
            .map(|(row, run)| {
                json!({
                    "label": row.label.as_str(),
                    "mode": row.mode.as_str(),
                    "metrics": serde_json::to_value(row.metrics).expect("metrics serialize"),
                    "predictions": run.predictions.clone(),
                })
            })
            .collect();
        let metrics = resp
            .artifacts
            .get("metrics")
            .ok_or("the response has no metrics artifact")?;
        let doc = json!({
            "workload": grid.name(),
            "request": serde_json::to_value(grid.request()).expect("requests serialize"),
            "metrics_artifact_digest": digest(metrics),
            "points": points,
        });
        let path = grid.golden_path();
        let text = serde_json::to_string_pretty(&doc).expect("a Value always serializes");
        std::fs::write(&path, text + "\n").map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}
