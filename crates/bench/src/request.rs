//! The unified typed request API over the simulation stack.
//!
//! Every harness binary and the `espserve` job server funnel through
//! one entry point: build a [`RunRequest`] (the union of the historical
//! `--engine/--jobs/--trace/--profile/--spans/--sanitize/--faults`
//! surfaces plus a `schema_version`), then call [`execute`]. The
//! request is validated, linted by the espcheck admission filter
//! ([`admission`] — broken configurations and fault plans are rejected
//! with their `E`-codes before a single cycle is simulated), and
//! dispatched to the same grid driver / trace session / campaign
//! machinery the binaries always used. The [`RunResponse`] carries the
//! per-point measurements plus every artifact as a named string, so a
//! CLI `--metrics` file and the server's `/artifacts/metrics` body are
//! the same bytes by construction.
//!
//! Requests also have a deterministic identity: [`RunRequest::cache_key`]
//! hashes the canonical (key-sorted, jobs-stripped) JSON form, which is
//! what makes the server's result cache sound — the simulator is proven
//! engine-byte-identical, so equal keys imply equal responses.

use crate::{chart, parallel};
use esp4ml::apps::{CaseApp, TrainedModels};
use esp4ml::check::{lint_all, lint_config};
use esp4ml::deploy::{self, Deployment};
use esp4ml::experiments::{AppRun, ExperimentError, Fig7, Fig8, GridPoint, RunOptions, Table1};
use esp4ml::faults::{lint_fault_plan, CampaignReport};
use esp4ml::soc_config::SocConfigFile;
use esp4ml::trace::schema::envelope_json;
use esp4ml::trace::{perfetto, Tracer};
use esp4ml::TraceSession;
use esp4ml_check::{Diagnostic, Report};
use esp4ml_fault::FaultPlan;
use esp4ml_runtime::ExecMode;
use esp4ml_runtime::RunMetrics;
use esp4ml_soc::SocEngine;
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

/// Version of the request/response schema (shared with the artifact
/// envelope — one version covers the whole machine-readable surface).
pub const SCHEMA_VERSION: u64 = esp4ml::trace::schema::SCHEMA_VERSION;

/// What to run — one variant per harness workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum WorkloadKind {
    /// The Fig. 7 grid (frames/J, base/pipe/p2p × configurations).
    Fig7,
    /// The Fig. 8 grid (DRAM accesses with and without p2p).
    Fig8,
    /// The Table I grid (best configs vs i7/Jetson baselines).
    Table1,
    /// `espprof`: configurations across modes with the online profiler,
    /// cross-checked against measured throughput.
    Profile,
    /// `espspan`: configurations across modes with span assembly,
    /// attribution and critical-path agreement checks.
    Spans,
    /// `espfault`: a seeded fault-injection campaign (seeds `1..=seeds`).
    Faults {
        /// Number of campaign seeds to sweep.
        seeds: u64,
    },
    /// `espcheck`: statically lint the request's `soc_config` (or the
    /// built-in floorplans and Fig. 7 mappings) without simulating.
    Check,
    /// `espcheck --deployment`: statically admit the request's
    /// multi-tenant `deployment` (`E07xx`), then validate the static
    /// bandwidth model against per-tenant solo simulation runs.
    Deployment,
}

impl WorkloadKind {
    /// Stable name used in responses and job listings.
    pub fn label(&self) -> &'static str {
        match self {
            WorkloadKind::Fig7 => "fig7",
            WorkloadKind::Fig8 => "fig8",
            WorkloadKind::Table1 => "table1",
            WorkloadKind::Profile => "profile",
            WorkloadKind::Spans => "spans",
            WorkloadKind::Faults { .. } => "faults",
            WorkloadKind::Check => "check",
            WorkloadKind::Deployment => "deployment",
        }
    }

    /// The labelled configuration space `configs` indexes into:
    /// grid points for the figure/table workloads, Fig. 7 configurations
    /// for profile/spans, empty where `configs` is meaningless.
    pub fn config_space(&self) -> Vec<String> {
        match self {
            WorkloadKind::Fig7 => Fig7::grid().iter().map(GridPoint::label).collect(),
            WorkloadKind::Fig8 => Fig8::grid().iter().map(GridPoint::label).collect(),
            WorkloadKind::Table1 => Table1::grid().iter().map(GridPoint::label).collect(),
            WorkloadKind::Profile | WorkloadKind::Spans => CaseApp::all_fig7_configs()
                .iter()
                .map(|c| c.label())
                .collect(),
            WorkloadKind::Faults { .. } | WorkloadKind::Check | WorkloadKind::Deployment => {
                Vec::new()
            }
        }
    }
}

/// Observability toggles — the request-level form of
/// `--trace/--profile/--spans/--sample-every`. The artifacts land in
/// [`RunResponse::artifacts`] rather than client-side files.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObserveOpts {
    /// Capture the trace-event stream (`trace` + optional
    /// `counters_csv` artifacts).
    #[serde(default)]
    pub trace: bool,
    /// Profile every run online (`profile` + `profile_text` artifacts).
    #[serde(default)]
    pub profile: bool,
    /// Assemble frame-level span trees (`spans`, `span_trace`,
    /// `span_text` artifacts).
    #[serde(default)]
    pub spans: bool,
    /// Counter sampling period in cycles (requires `trace`).
    #[serde(default)]
    pub sample_every: Option<u64>,
}

impl ObserveOpts {
    /// Whether any observability layer is requested.
    pub fn any(&self) -> bool {
        self.trace || self.profile || self.spans
    }
}

/// A point-in-time snapshot of how far a request has executed.
///
/// Snapshots are published through a [`ProgressSink`] after each
/// completed unit of work (a grid point, a profiled mode run, a
/// campaign case, a lint target), always in the workload's canonical
/// order. Every field is derived from simulator state that is proven
/// engine-byte-identical, so the *sequence* of snapshots for a given
/// [`RunRequest`] is deterministic: identical across the Naive and
/// EventDriven engines, across serial and parallel grid execution, and
/// between the CLI `--progress` stream and the server's job progress.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Progress {
    /// Work units completed so far.
    pub points_done: u64,
    /// Total work units this request will execute.
    pub points_total: u64,
    /// Frames simulated across the completed units.
    pub frames_done: u64,
    /// Simulated cycles accumulated across the completed units.
    pub cycles: u64,
    /// Label of the most recently completed unit.
    pub label: String,
}

impl Progress {
    /// Whether this is the final snapshot (every unit completed).
    pub fn is_final(&self) -> bool {
        self.points_done == self.points_total
    }

    /// The canonical one-line JSON form — the exact bytes `--progress`
    /// prints and the byte-identity surface between CLI and server.
    pub fn to_json_line(&self) -> String {
        serde_json::to_string(self).expect("progress serializes")
    }
}

/// Receives [`Progress`] snapshots while a request executes. Published
/// from grid worker threads, so implementations must be `Sync`.
pub trait ProgressSink: Sync {
    /// Called once per completed work unit, in canonical order.
    fn publish(&self, progress: &Progress);
}

/// A [`ProgressSink`] that records every snapshot in publication order
/// — the reference consumer for determinism tests.
#[derive(Debug, Default)]
pub struct CollectingSink {
    snapshots: Mutex<Vec<Progress>>,
}

impl CollectingSink {
    /// An empty collector.
    pub fn new() -> CollectingSink {
        CollectingSink::default()
    }

    /// Every snapshot published so far, in order.
    pub fn snapshots(&self) -> Vec<Progress> {
        self.snapshots.lock().expect("progress lock").clone()
    }
}

impl ProgressSink for CollectingSink {
    fn publish(&self, progress: &Progress) {
        self.snapshots
            .lock()
            .expect("progress lock")
            .push(progress.clone());
    }
}

/// The progress accumulator: counts units off as they complete and
/// publishes the cumulative snapshot to the sink (no-op without one).
/// Every workload publishes through it — the serial loops directly, and
/// [`crate::parallel::run_grid`] over its in-order prefix of finished
/// points.
pub(crate) struct ProgressTracker<'a> {
    sink: Option<&'a dyn ProgressSink>,
    total: u64,
    done: u64,
    frames: u64,
    cycles: u64,
}

impl<'a> ProgressTracker<'a> {
    pub(crate) fn new(sink: Option<&'a dyn ProgressSink>, total: u64) -> ProgressTracker<'a> {
        ProgressTracker {
            sink,
            total,
            done: 0,
            frames: 0,
            cycles: 0,
        }
    }

    /// Counts one unit off; `label` is rendered only when a sink listens.
    pub(crate) fn advance(&mut self, label: impl std::fmt::Display, frames: u64, cycles: u64) {
        self.done += 1;
        self.frames += frames;
        self.cycles += cycles;
        if let Some(sink) = self.sink {
            sink.publish(&Progress {
                points_done: self.done,
                points_total: self.total,
                frames_done: self.frames,
                cycles: self.cycles,
                label: label.to_string(),
            });
        }
    }

    /// Counts one finished run off under its `{app} {mode}` label.
    pub(crate) fn advance_run(&mut self, run: &AppRun) {
        self.advance(
            format_args!("{} {}", run.label, run.mode.label()),
            run.metrics.frames,
            run.metrics.cycles,
        );
    }
}

/// One simulation job, fully described: what to run, how, and what to
/// observe. This is the wire format of `POST /v1/jobs` and the value
/// every harness binary assembles from its command line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRequest {
    /// Must be [`SCHEMA_VERSION`]; unknown versions are rejected.
    pub schema_version: u64,
    /// The workload to run.
    pub workload: WorkloadKind,
    /// Configuration indices into [`WorkloadKind::config_space`]
    /// (empty = the whole space). Order is preserved in the response.
    #[serde(default)]
    pub configs: Vec<usize>,
    /// Execution modes (`base`/`pipe`/`p2p`) for the profile/spans
    /// workloads; empty = the default `pipe`+`p2p` pair.
    #[serde(default)]
    pub modes: Vec<String>,
    /// Frames to simulate per measurement point (ignored by `check`).
    #[serde(default)]
    pub frames: u64,
    /// Simulation engine: `naive`, `event` (or its alias
    /// `event-driven`); empty = the default engine.
    #[serde(default)]
    pub engine: String,
    /// Worker threads for grid execution; 0 = auto. Never affects
    /// results, so it is excluded from [`RunRequest::cache_key`].
    #[serde(default)]
    pub jobs: usize,
    /// Ignored: every grid point runs cold, whatever this says. The
    /// field stays, and [`RunRequest::cache_key`] still zeroes it, so
    /// that requests which set it keep parsing and keep their cache
    /// keys; a later change to the benchmark harness removes it.
    #[serde(default)]
    pub fork_prefix: bool,
    /// Arm the runtime invariant sanitizer on every run.
    #[serde(default)]
    pub sanitize: bool,
    /// Fault plan to install on every run's SoC (recovery layer armed,
    /// campaign watchdog). Linted at admission (`E06xx`).
    #[serde(default)]
    pub fault_plan: Option<FaultPlan>,
    /// A SoC configuration: the lint subject for `check`, and an
    /// admission-linted design attachment everywhere else (jobs whose
    /// configuration has errors never reach the simulator).
    #[serde(default)]
    pub soc_config: Option<SocConfigFile>,
    /// The multi-tenant deployment for the `deployment` workload.
    /// Admission runs the full `E07xx` analysis; infeasible
    /// deployments are rejected before a single cycle is simulated.
    #[serde(default)]
    pub deployment: Option<Deployment>,
    /// Observability toggles.
    #[serde(default)]
    pub observe: ObserveOpts,
}

/// One measured grid point in a response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PointRun {
    /// Application label (e.g. `1De+1Cl`).
    pub label: String,
    /// Execution mode label (`base`/`pipe`/`p2p`).
    pub mode: String,
    /// The raw runtime metrics.
    pub metrics: RunMetrics,
    /// SoC average dynamic power in watts.
    pub watts: f64,
    /// Throughput in frames per second.
    pub frames_per_second: f64,
    /// Energy efficiency in frames per joule.
    pub frames_per_joule: f64,
    /// Classification accuracy against ground truth.
    pub accuracy: f64,
    /// Whether the run degraded to the processor-tile software path.
    #[serde(default)]
    pub software_fallback: bool,
}

impl PointRun {
    fn from_app_run(run: &AppRun) -> PointRun {
        PointRun {
            label: run.label.clone(),
            mode: run.mode.label().to_string(),
            metrics: run.metrics,
            watts: run.watts,
            frames_per_second: run.metrics.frames_per_second(),
            frames_per_joule: run.frames_per_joule(),
            accuracy: run.accuracy(),
            software_fallback: run.software_fallback,
        }
    }
}

/// The workload's self-check outcome (espprof/espspan consistency,
/// espfault absorption, espcheck cleanliness; always `ok` for plain
/// figure runs).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Verdict {
    /// Whether every check passed.
    pub ok: bool,
    /// Human-readable violations when it did not.
    #[serde(default)]
    pub violations: Vec<String>,
}

/// The result of executing a [`RunRequest`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResponse {
    /// Schema version of this response (= the request's).
    pub schema_version: u64,
    /// [`WorkloadKind::label`] of what ran.
    pub workload: String,
    /// Canonical engine name that drove the runs.
    pub engine: String,
    /// Frames simulated per point.
    pub frames: u64,
    /// Per-point measurements, in request order.
    pub runs: Vec<PointRun>,
    /// The workload's self-check outcome.
    pub verdict: Verdict,
    /// Human-readable summary (figure text, campaign table, …).
    pub summary_text: String,
    /// Warnings that are not verdict violations (e.g. ring-buffer
    /// event drops under `observe.trace`).
    #[serde(default)]
    pub notes: Vec<String>,
    /// Named artifacts, each a complete file body: the
    /// [`JSON_ARTIFACTS`] plus plain-text ones (`figure`, `counters_csv`,
    /// `flame`, `profile_text`, `span_text`, `noc_text`).
    pub artifacts: BTreeMap<String, String>,
}

/// The artifact kinds whose bodies are JSON documents; every other
/// artifact is plain text.
pub const JSON_ARTIFACTS: [&str; 7] = [
    "metrics",
    "report",
    "campaign",
    "trace",
    "profile",
    "spans",
    "span_trace",
];

impl RunResponse {
    /// Serializes the response as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("response serializes")
    }
}

/// Why a request did not produce a [`RunResponse`].
#[derive(Debug)]
pub enum RequestError {
    /// The request is malformed (bad version, unknown engine, index
    /// out of range, conflicting options…). Maps to exit 2 / HTTP 400.
    Invalid(String),
    /// The espcheck admission filter found errors; the report carries
    /// the typed diagnostics with their `E`-codes. Exit 2 / HTTP 422.
    Rejected(Report),
    /// The simulation itself failed. Exit 1 / job state `failed`.
    Run(ExperimentError),
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Invalid(msg) => write!(f, "invalid request: {msg}"),
            RequestError::Rejected(report) => {
                write!(
                    f,
                    "rejected by admission lint ({} error(s))",
                    report.error_count()
                )
            }
            RequestError::Run(e) => write!(f, "run failed: {e}"),
        }
    }
}

impl std::error::Error for RequestError {}

impl From<ExperimentError> for RequestError {
    fn from(e: ExperimentError) -> Self {
        RequestError::Run(e)
    }
}

impl RunRequest {
    /// A request for `workload` with the workspace defaults (64 frames,
    /// default engine, nothing observed).
    pub fn new(workload: WorkloadKind) -> RunRequest {
        RunRequest {
            schema_version: SCHEMA_VERSION,
            workload,
            configs: Vec::new(),
            modes: Vec::new(),
            frames: 64,
            engine: String::new(),
            jobs: 0,
            fork_prefix: false,
            sanitize: false,
            fault_plan: None,
            soc_config: None,
            deployment: None,
            observe: ObserveOpts::default(),
        }
    }

    /// The canonical form: engine aliases resolved, defaults made
    /// explicit where they affect execution (profile/spans mode and
    /// config defaults), frames zeroed where ignored. Two requests
    /// meaning the same job normalize identically, which is what the
    /// cache key hashes.
    pub fn normalized(&self) -> RunRequest {
        let mut out = self.clone();
        out.engine = match self.engine.as_str() {
            "" | "event" | "event-driven" => "event".to_string(),
            other => other.to_string(),
        };
        if matches!(self.workload, WorkloadKind::Profile | WorkloadKind::Spans) {
            if out.configs.is_empty() {
                // The paper's denoiser-classifier pipeline, as espprof
                // and espspan always defaulted to.
                out.configs = vec![3];
            }
            if out.modes.is_empty() {
                out.modes = vec!["pipe".to_string(), "p2p".to_string()];
            }
        }
        if matches!(self.workload, WorkloadKind::Check) {
            out.frames = 0;
        }
        out
    }

    /// The attached deployment, required by the `deployment` workload.
    fn required_deployment(&self) -> Result<&Deployment, String> {
        self.deployment
            .as_ref()
            .ok_or_else(|| "the deployment workload needs a deployment attachment".to_string())
    }

    /// Validates a normalized request; the error string is the message
    /// shown to a CLI user (exit 2) or an API client (HTTP 400).
    fn validate_normalized(&self) -> Result<(), String> {
        if self.schema_version != SCHEMA_VERSION {
            return Err(format!(
                "unknown schema_version {} (this build understands {SCHEMA_VERSION})",
                self.schema_version
            ));
        }
        match self.engine.as_str() {
            "naive" | "event" => {}
            other => return Err(format!("unknown engine {other}; expected naive or event")),
        }
        if !matches!(self.workload, WorkloadKind::Check) && self.frames == 0 {
            return Err("frames must be at least 1".into());
        }
        if let WorkloadKind::Faults { seeds } = self.workload {
            if seeds == 0 {
                return Err("seeds must be at least 1".into());
            }
        }
        if self.observe.sample_every == Some(0) {
            return Err("sample_every must be at least 1".into());
        }
        if self.observe.sample_every.is_some() && !self.observe.trace {
            return Err("sample_every requires trace".into());
        }
        if self.sanitize && self.observe.any() {
            return Err(
                "sanitize cannot be combined with trace/profile/spans; run them separately".into(),
            );
        }
        if self.fault_plan.is_some() && (self.observe.any() || self.sanitize) {
            return Err(
                "fault_plan cannot be combined with trace/profile/spans/sanitize; \
                 injected faults deliberately break the invariants those audit"
                    .into(),
            );
        }
        if self.deployment.is_some() && !matches!(self.workload, WorkloadKind::Deployment) {
            return Err(format!(
                "a deployment attachment is not meaningful for the {} workload",
                self.workload.label()
            ));
        }
        match self.workload {
            WorkloadKind::Deployment => {
                self.required_deployment()?;
                if !self.configs.is_empty() || !self.modes.is_empty() {
                    return Err(
                        "configs/modes are not meaningful for the deployment workload; \
                         tenants carry their own mappings and modes"
                            .into(),
                    );
                }
                if self.soc_config.is_some() {
                    return Err("soc_config is not meaningful for the deployment workload; \
                         the deployment carries its own floorplan"
                        .into());
                }
                if self.fault_plan.is_some() || self.sanitize || self.observe.any() {
                    return Err("fault_plan/sanitize/observe are not meaningful for the \
                         deployment workload"
                        .into());
                }
            }
            WorkloadKind::Faults { .. } | WorkloadKind::Check => {
                if !self.configs.is_empty() || !self.modes.is_empty() {
                    return Err(format!(
                        "configs/modes are not meaningful for the {} workload",
                        self.workload.label()
                    ));
                }
                self.reject_run_options()?;
            }
            WorkloadKind::Fig7 | WorkloadKind::Fig8 | WorkloadKind::Table1 => {
                if !self.modes.is_empty() {
                    return Err(format!(
                        "modes are fixed by the {} grid; use configs to select points",
                        self.workload.label()
                    ));
                }
            }
            WorkloadKind::Profile | WorkloadKind::Spans => {
                if let Some(m) = self
                    .modes
                    .iter()
                    .find(|m| ExecMode::from_label(m).is_none())
                {
                    return Err(format!("unknown mode {m}; expected base, pipe or p2p"));
                }
                // espprof/espspan attach their own observers per point.
                self.reject_run_options()?;
            }
        }
        let space = self.workload.config_space();
        if let Some(&bad) = self.configs.iter().find(|&&c| c >= space.len()) {
            let list: Vec<String> = space
                .iter()
                .enumerate()
                .map(|(i, label)| format!("{i}={label}"))
                .collect();
            return Err(format!(
                "config {bad}: index out of range; {}",
                list.join(" ")
            ));
        }
        Ok(())
    }

    /// Refuses the per-run options (fault plan, sanitizer, observers)
    /// on workloads that fix how their runs are made.
    fn reject_run_options(&self) -> Result<(), String> {
        if self.fault_plan.is_some() {
            return Err(format!(
                "fault_plan is not meaningful for the {} workload",
                self.workload.label()
            ));
        }
        if self.sanitize || self.observe.any() {
            return Err(format!(
                "sanitize/observe are not meaningful for the {} workload",
                self.workload.label()
            ));
        }
        Ok(())
    }

    /// Validates the request (after normalization).
    ///
    /// # Errors
    ///
    /// A printable message describing the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        self.normalized().validate_normalized()
    }

    /// The deterministic cache key: FNV-1a 64 over the canonical JSON
    /// form of [`RunRequest::normalized`] with `jobs` and the ignored
    /// `fork_prefix` zeroed (neither changes results). Canonical JSON
    /// sorts every object's keys, so the key is invariant under JSON key
    /// reordering — and since runs are proven engine-byte-identical and
    /// seeded, equal keys imply byte-equal responses.
    pub fn cache_key(&self) -> u64 {
        let mut canonical = self.normalized();
        canonical.jobs = 0;
        canonical.fork_prefix = false;
        let value = serde_json::to_value(&canonical).expect("request serializes");
        fnv1a64(canonical_json(&value).as_bytes())
    }

    /// The parsed engine of a normalized request.
    fn soc_engine(&self) -> SocEngine {
        match self.engine.as_str() {
            "naive" => SocEngine::Naive,
            _ => SocEngine::EventDriven,
        }
    }

    /// The worker-thread count to use.
    fn effective_jobs(&self) -> usize {
        if self.jobs == 0 {
            parallel::default_jobs()
        } else {
            self.jobs
        }
    }
}

/// Renders a JSON value in canonical form: objects with keys sorted
/// (recursively), compact separators, scalar leaves rendered exactly as
/// the workspace JSON writer renders them. Used by
/// [`RunRequest::cache_key`]; exposed for the cache-key property tests.
pub fn canonical_json(value: &Value) -> String {
    let mut out = String::new();
    write_canonical(value, &mut out);
    out
}

fn write_canonical(value: &Value, out: &mut String) {
    match value {
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_canonical(item, out);
            }
            out.push(']');
        }
        Value::Object(map) => {
            let mut pairs: Vec<(&String, &Value)> = map.iter().collect();
            pairs.sort_by(|a, b| a.0.cmp(b.0));
            out.push('{');
            for (i, (key, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&serde_json::to_string(*key).expect("key serializes"));
                out.push(':');
                write_canonical(item, out);
            }
            out.push('}');
        }
        scalar => {
            out.push_str(&serde_json::to_string(scalar).expect("scalar serializes"));
        }
    }
}

/// FNV-1a 64-bit over `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The espcheck admission filter: lints the request's attachments
/// (SoC configuration, fault plan) statically, returning the combined
/// diagnostic report. [`execute`] refuses requests whose report has
/// errors — broken designs never reach the simulator. The `check`
/// workload's own lint subject is exempt (linting it is the job).
pub fn admission(req: &RunRequest) -> Report {
    let req = req.normalized();
    let mut report = Report::new();
    if let Some(config) = &req.soc_config {
        if !matches!(req.workload, WorkloadKind::Check) {
            report.merge(lint_config(config));
        }
    }
    if let Some(deployment) = &req.deployment {
        // The full E07xx multi-tenant analysis IS the admission filter:
        // lease conflicts, composed PLM overflow, union-CDG deadlock
        // and bandwidth infeasibility all block the simulator.
        report.merge(deploy::lint_deployment(deployment).report);
    }
    if let Some(plan) = &req.fault_plan {
        let mut hosted: Vec<String> = selected_points(&req)
            .iter()
            .flat_map(|p| p.app.dataflow().stages)
            .flat_map(|s| s.devices)
            .collect();
        hosted.sort();
        hosted.dedup();
        report.merge(lint_fault_plan(plan, &hosted));
    }
    report.normalize();
    report
}

/// The grid points a normalized request selects: figure-grid points in
/// request order, or the profile/spans `configs × modes` in config-major
/// order; empty for the workloads that run no grid. Modes are parsed
/// here, once; entries validation would reject are skipped.
fn selected_points(req: &RunRequest) -> Vec<GridPoint> {
    let grid = match req.workload {
        WorkloadKind::Fig7 => Fig7::grid(),
        WorkloadKind::Fig8 => Fig8::grid(),
        WorkloadKind::Table1 => Table1::grid(),
        WorkloadKind::Profile | WorkloadKind::Spans => {
            let all = CaseApp::all_fig7_configs();
            let modes: Vec<ExecMode> = req
                .modes
                .iter()
                .filter_map(|m| ExecMode::from_label(m))
                .collect();
            return req
                .configs
                .iter()
                .filter_map(|&c| all.get(c).copied())
                .flat_map(|app| modes.iter().map(move |&mode| GridPoint { app, mode }))
                .collect();
        }
        _ => return Vec::new(),
    };
    if req.configs.is_empty() {
        grid
    } else {
        req.configs
            .iter()
            .filter_map(|&i| grid.get(i).copied())
            .collect()
    }
}

/// Executes a request end to end: normalize, validate, admission-lint,
/// simulate, package the response. This is the single entry point both
/// the harness binaries and the `espserve` job engine call.
///
/// # Errors
///
/// [`RequestError::Invalid`] on malformed requests,
/// [`RequestError::Rejected`] when the admission lint finds errors,
/// [`RequestError::Run`] when the simulation itself fails.
pub fn execute(req: &RunRequest, models: &TrainedModels) -> Result<RunResponse, RequestError> {
    execute_with_progress(req, models, None)
}

/// [`execute`] with a live [`ProgressSink`]: one cumulative snapshot is
/// published per completed work unit, in the workload's canonical
/// order. The snapshot sequence is deterministic for a given request —
/// identical across engines and across serial/parallel execution.
///
/// # Errors
///
/// Same contract as [`execute`].
pub fn execute_with_progress(
    req: &RunRequest,
    models: &TrainedModels,
    progress: Option<&dyn ProgressSink>,
) -> Result<RunResponse, RequestError> {
    let req = req.normalized();
    req.validate_normalized().map_err(RequestError::Invalid)?;
    let report = admission(&req);
    if report.has_errors() {
        return Err(RequestError::Rejected(report));
    }
    match req.workload {
        WorkloadKind::Fig7 | WorkloadKind::Fig8 | WorkloadKind::Table1 => {
            figure_response(&req, models, progress)
        }
        WorkloadKind::Profile => profile_response(&req, models, progress),
        WorkloadKind::Spans => spans_response(&req, models, progress),
        WorkloadKind::Faults { seeds } => faults_response(&req, seeds, models, progress),
        WorkloadKind::Check => check_response(&req, progress),
        WorkloadKind::Deployment => deployment_response(&req, models, progress),
    }
}

impl RunResponse {
    /// The response skeleton every workload builder starts from: the
    /// request's identity fields, the measured `runs` (plus the enveloped
    /// `metrics` artifact — the byte-identity surface between the CLI
    /// `--metrics` file and the server — when there are any), and a
    /// verdict that is `ok` exactly when `violations` is empty.
    fn new(
        req: &RunRequest,
        runs: &[AppRun],
        violations: Vec<String>,
        summary_text: String,
    ) -> RunResponse {
        let runs: Vec<PointRun> = runs.iter().map(PointRun::from_app_run).collect();
        let mut artifacts = BTreeMap::new();
        if !runs.is_empty() {
            let payload = serde_json::to_value(&runs).expect("runs serialize");
            artifacts.insert("metrics".into(), envelope_json("run-metrics", payload));
        }
        RunResponse {
            schema_version: SCHEMA_VERSION,
            workload: req.workload.label().to_string(),
            engine: req.soc_engine().name().to_string(),
            frames: req.frames,
            runs,
            verdict: Verdict {
                ok: violations.is_empty(),
                violations,
            },
            summary_text,
            notes: Vec::new(),
            artifacts,
        }
    }
}

/// Builds the observability session a request asks for (`None` when
/// nothing is observed). Same shape priority as the historical
/// `--spans` > `--profile` > `--trace` session selection.
fn session_for(observe: &ObserveOpts) -> Option<TraceSession> {
    if observe.spans {
        return Some(TraceSession::spanned(observe.sample_every, observe.profile));
    }
    if observe.profile {
        return Some(TraceSession::profiled(observe.sample_every));
    }
    if !observe.trace {
        return None;
    }
    let tracer = Tracer::ring_buffer();
    Some(match observe.sample_every {
        Some(every) => TraceSession::with_sampling(tracer, every),
        None => TraceSession::new(tracer),
    })
}

/// Drains a finished session into response artifacts and notes.
fn observe_artifacts(
    observe: &ObserveOpts,
    session: &TraceSession,
    artifacts: &mut BTreeMap<String, String>,
    notes: &mut Vec<String>,
) {
    if observe.trace {
        let dropped = session.tracer().dropped();
        let dropped_spans = session.tracer().dropped_spans();
        let events = session.tracer().drain();
        let doc = perfetto::chrome_trace(&events, dropped, dropped_spans);
        artifacts.insert(
            "trace".into(),
            serde_json::to_string_pretty(&doc).expect("trace serializes"),
        );
        notes.push(format!("captured {} trace events", events.len()));
        if dropped > 0 {
            notes.push(format!(
                "ring buffer dropped {dropped} oldest events ({dropped_spans} span-relevant)"
            ));
        }
        if observe.sample_every.is_some() {
            artifacts.insert("counters_csv".into(), session.counters_csv());
        }
    }
    if observe.profile {
        artifacts.insert("profile".into(), session.profiles_json());
        let summary = session.profile_summary();
        if !summary.is_empty() {
            artifacts.insert("profile_text".into(), summary);
        }
    }
    if observe.spans {
        artifacts.insert("spans".into(), session.span_reports_json());
        let doc = perfetto::span_chrome_trace(session.span_reports());
        artifacts.insert(
            "span_trace".into(),
            serde_json::to_string_pretty(&doc).expect("span trace serializes"),
        );
        let summary = session.span_summary();
        if !summary.is_empty() {
            artifacts.insert("span_text".into(), summary);
        }
    }
    if observe.any() {
        let summary = session.noc_summary();
        if !summary.is_empty() {
            artifacts.insert("noc_text".into(), summary);
        }
    }
}

/// The one serial traced loop: runs `points` in order, each under
/// `session`, publishing one progress snapshot per point, and folds each
/// finished run into a row with `row` (which sees the session that
/// recorded it). Observed runs are serial by design: the collectors are
/// single-stream.
fn traced_runs<T>(
    req: &RunRequest,
    points: &[GridPoint],
    models: &TrainedModels,
    progress: Option<&dyn ProgressSink>,
    session: &mut TraceSession,
    mut row: impl FnMut(&AppRun, &mut TraceSession) -> Result<T, RequestError>,
) -> Result<(Vec<AppRun>, Vec<T>), RequestError> {
    let engine = req.soc_engine();
    let mut tracker = ProgressTracker::new(progress, points.len() as u64);
    let mut runs = Vec::with_capacity(points.len());
    let mut rows = Vec::with_capacity(points.len());
    for point in points {
        let opts = RunOptions::new(engine).traced(session);
        let run = AppRun::execute(&point.app, models, req.frames, point.mode, opts)?;
        tracker.advance_run(&run);
        rows.push(row(&run, session)?);
        runs.push(run);
    }
    Ok((runs, rows))
}

/// Runs a figure/table workload: the selected grid points, observed /
/// sanitized / faulted / parallel exactly as the flags always composed,
/// plus figure assembly when the whole grid ran.
fn figure_response(
    req: &RunRequest,
    models: &TrainedModels,
    progress: Option<&dyn ProgressSink>,
) -> Result<RunResponse, RequestError> {
    let points = selected_points(req);
    let faults = req.fault_plan.as_ref();
    let mut artifacts = BTreeMap::new();
    let mut notes = Vec::new();
    let runs = match session_for(&req.observe) {
        Some(mut session) => {
            let (runs, _) =
                traced_runs(req, &points, models, progress, &mut session, |_, _| Ok(()))?;
            // Drained and dropped before the response is built, which
            // keeps the peak RSS of observed grids down.
            observe_artifacts(&req.observe, &session, &mut artifacts, &mut notes);
            runs
        }
        None => parallel::run_grid(
            &points,
            models,
            req.frames,
            req.soc_engine(),
            req.effective_jobs(),
            req.sanitize,
            faults,
            false,
            progress,
        )?,
    };
    if req.sanitize {
        notes.push(format!("sanitizer: clean across {} runs", runs.len()));
    }
    if faults.is_some() {
        let (retries, failovers, degraded) = runs.iter().fold((0, 0, 0), |acc, r| {
            (
                acc.0 + r.metrics.retries,
                acc.1 + r.metrics.failovers,
                acc.2 + u64::from(r.software_fallback),
            )
        });
        notes.push(format!(
            "faults: {retries} retries, {failovers} failovers, \
             {degraded} software-degraded run(s) across {} runs",
            runs.len()
        ));
    }
    let summary_text = if req.configs.is_empty() {
        let figure = match req.workload {
            WorkloadKind::Fig7 => {
                let fig = Fig7::assemble(&runs)?;
                format!("{fig}\n\n{}", chart::render_fig7(&fig))
            }
            WorkloadKind::Fig8 => Fig8::assemble(&runs)?.to_string(),
            WorkloadKind::Table1 => Table1::assemble(models, &runs)?.to_string(),
            _ => unreachable!("figure_response only handles grid workloads"),
        };
        artifacts.insert("figure".into(), figure.clone());
        figure
    } else {
        runs.iter()
            .map(|r| format!("{} {}: {}\n", r.label, r.mode.label(), r.metrics))
            .collect()
    };
    let mut response = RunResponse::new(req, &runs, Vec::new(), summary_text);
    response.artifacts.append(&mut artifacts);
    response.notes = notes;
    Ok(response)
}

/// Folds one observed run, with the session that recorded it alone,
/// into a report row and the row's report text.
type RowFn<T> = fn(&AppRun, &TraceSession) -> Result<(T, String), RequestError>;

/// What espprof and espspan share: runs the request's `configs × modes`
/// points through [`traced_runs`], each in a fresh `new_session()` so
/// every report stands alone, folds each run into a `row`, and starts
/// the response with the `=== label ===` text of every row and the
/// `violations` of the whole set.
fn observed_points<T>(
    req: &RunRequest,
    models: &TrainedModels,
    progress: Option<&dyn ProgressSink>,
    new_session: fn() -> TraceSession,
    row: RowFn<T>,
    violations: fn(&[T]) -> Vec<String>,
) -> Result<(RunResponse, Vec<T>), RequestError> {
    let points = selected_points(req);
    let mut summary = String::new();
    let (runs, rows) = traced_runs(
        req,
        &points,
        models,
        progress,
        &mut new_session(),
        |run, session| {
            let (row, text) = row(run, &std::mem::replace(session, new_session()))?;
            let _ = write!(
                summary,
                "=== {} {} ===\n{text}measured throughput: {:.1} frames/s over {} frames\n\n",
                run.label,
                run.mode.label(),
                run.metrics.frames_per_second(),
                req.frames
            );
            Ok(row)
        },
    )?;
    let response = RunResponse::new(req, &runs, violations(&rows), summary);
    Ok((response, rows))
}

/// Labels of the Fig. 7 configurations a profile/spans request selects.
fn config_labels(req: &RunRequest) -> Vec<String> {
    let all = CaseApp::all_fig7_configs();
    req.configs.iter().map(|&c| all[c].label()).collect()
}

/// A run failure outside the simulator proper (a missing report, a
/// serialization or validation failure).
fn grid_error(e: impl ToString) -> RequestError {
    RequestError::Run(ExperimentError::Grid(e.to_string()))
}

/// The enveloped JSON body of a verdict report.
fn report_artifact(kind: &str, report: &impl Serialize) -> String {
    envelope_json(
        kind,
        serde_json::to_value(report).expect("report serializes"),
    )
}

// ---------------------------------------------------------------------------
// espprof / espspan verdict reports
// ---------------------------------------------------------------------------

/// One profiled mode run in an [`EspprofReport`].
#[derive(Debug, Clone, Serialize)]
pub struct ProfiledRun {
    /// `{config} {mode}` label.
    pub label: String,
    /// Execution mode label.
    pub mode: String,
    /// Measured throughput.
    pub frames_per_second: f64,
    /// Cycles per frame observed by the profiler.
    pub observed_cycles_per_frame: f64,
    /// The limiting stage named by the bottleneck report.
    pub limiting_stage: Option<String>,
    /// Throughput ceiling if the limiting stage were free.
    pub speedup_ceiling: Option<f64>,
    /// The full profile report.
    pub profile: esp4ml::ProfileReport,
}

/// The espprof verdict report (`report` artifact of the `profile`
/// workload, enveloped as kind `espprof-report`).
#[derive(Debug, Clone, Serialize)]
pub struct EspprofReport {
    /// Workspace version that produced the report.
    pub version: String,
    /// Labels of the profiled configurations.
    pub configs: Vec<String>,
    /// Frames per run.
    pub frames: u64,
    /// Canonical engine name.
    pub engine: String,
    /// Per-mode profiled runs.
    pub runs: Vec<ProfiledRun>,
    /// Consistency violations (empty when `consistent`).
    pub violations: Vec<String>,
    /// Whether the profile agrees with the simulator.
    pub consistent: bool,
}

/// Checks the profile reports against the measured throughput; returns
/// the list of violated invariants (empty when consistent).
fn profile_violations(runs: &[ProfiledRun]) -> Vec<String> {
    let mut violations = Vec::new();
    for run in runs {
        if let Some(b) = &run.profile.run.bottleneck {
            if b.bound_cycles_per_frame > run.observed_cycles_per_frame * (1.0 + 1e-9) {
                violations.push(format!(
                    "{}: limiting-stage bound {:.1} cycles/frame exceeds observed {:.1}",
                    run.label, b.bound_cycles_per_frame, run.observed_cycles_per_frame
                ));
            }
        } else {
            violations.push(format!("{}: no bottleneck report produced", run.label));
        }
    }
    for a in runs {
        for b in runs {
            if a.frames_per_second > b.frames_per_second
                && a.observed_cycles_per_frame > b.observed_cycles_per_frame
            {
                violations.push(format!(
                    "throughput ordering disagrees with profile: {} measures \
                     {:.1} f/s vs {} at {:.1} f/s, yet profiles {:.1} vs {:.1} cycles/frame",
                    a.label,
                    a.frames_per_second,
                    b.label,
                    b.frames_per_second,
                    a.observed_cycles_per_frame,
                    b.observed_cycles_per_frame
                ));
            }
        }
    }
    violations
}

/// One profiled run's row, from the fresh session that recorded it.
fn profiled_row(
    run: &AppRun,
    session: &TraceSession,
) -> Result<(ProfiledRun, String), RequestError> {
    let profile = session
        .profiles()
        .first()
        .cloned()
        .ok_or_else(|| grid_error("profiled run produced no profile report"))?;
    let text = profile.render_text();
    let bottleneck = profile.run.bottleneck.as_ref();
    let row = ProfiledRun {
        label: format!("{} {}", run.label, run.mode.label()),
        mode: run.mode.label().to_string(),
        frames_per_second: run.metrics.frames_per_second(),
        observed_cycles_per_frame: profile.run.observed_cycles_per_frame(),
        limiting_stage: bottleneck.map(|b| b.limiting_stage.clone()),
        speedup_ceiling: bottleneck.map(|b| b.speedup_ceiling),
        profile,
    };
    Ok((row, text))
}

fn profile_response(
    req: &RunRequest,
    models: &TrainedModels,
    progress: Option<&dyn ProgressSink>,
) -> Result<RunResponse, RequestError> {
    let (mut response, runs) = observed_points(
        req,
        models,
        progress,
        || TraceSession::profiled(None),
        profiled_row,
        profile_violations,
    )?;
    let report = EspprofReport {
        version: env!("CARGO_PKG_VERSION").to_string(),
        configs: config_labels(req),
        frames: req.frames,
        engine: response.engine.clone(),
        runs,
        violations: response.verdict.violations.clone(),
        consistent: response.verdict.ok,
    };
    response
        .artifacts
        .insert("report".into(), report_artifact("espprof-report", &report));
    Ok(response)
}

/// One spanned run in an [`EspspanReport`].
#[derive(Debug, Clone, Serialize)]
pub struct SpannedRun {
    /// `{config} {mode}` label.
    pub label: String,
    /// Execution mode label.
    pub mode: String,
    /// Measured throughput.
    pub frames_per_second: f64,
    /// Limiting stage per the span layer's aggregated critical path.
    pub span_limiting_stage: Option<String>,
    /// Limiting stage per the session's profile collector. The span
    /// collector embeds its own copy of the same bottleneck code, so
    /// agreement shows both collectors saw the same event stream.
    pub profile_limiting_stage: Option<String>,
    /// The full span report.
    pub report: esp4ml::trace::SpanReport,
}

/// The espspan verdict report (`report` artifact of the `spans`
/// workload, enveloped as kind `espspan-report`).
#[derive(Debug, Clone, Serialize)]
pub struct EspspanReport {
    /// Workspace version that produced the report.
    pub version: String,
    /// Labels of the spanned configurations.
    pub configs: Vec<String>,
    /// Frames per run.
    pub frames: u64,
    /// Canonical engine name.
    pub engine: String,
    /// Per-mode spanned runs.
    pub runs: Vec<SpannedRun>,
    /// Consistency violations (empty when `consistent`).
    pub violations: Vec<String>,
    /// Whether the span layer agrees with the simulator and profiler.
    pub consistent: bool,
}

/// Checks every run's span report against the attribution invariant
/// and the profile collector's limiting stage; returns the list of
/// violations. The span collector selects its critical path with an
/// embedded copy of the profiler's bottleneck code, so the stage check
/// guards that both collectors saw the same event stream, not two
/// independent analyses.
fn span_violations(runs: &[SpannedRun]) -> Vec<String> {
    let mut violations = Vec::new();
    for run in runs {
        if let Err(e) = run.report.check_attribution() {
            violations.push(format!(
                "{}: attribution invariant violated: {e}",
                run.label
            ));
        }
        if run.report.frames.is_empty() {
            violations.push(format!("{}: no frame span trees assembled", run.label));
        }
        match (&run.span_limiting_stage, &run.profile_limiting_stage) {
            (Some(s), Some(p)) if s != p => violations.push(format!(
                "{}: span critical path names stage \"{s}\" but the profiler's \
                 bottleneck report names \"{p}\"",
                run.label
            )),
            (None, Some(p)) => violations.push(format!(
                "{}: no critical path despite profiler bottleneck \"{p}\"",
                run.label
            )),
            _ => {}
        }
    }
    violations
}

/// One spanned run's row, from the fresh session that recorded it.
fn spanned_row(run: &AppRun, session: &TraceSession) -> Result<(SpannedRun, String), RequestError> {
    let report = session
        .span_reports()
        .first()
        .cloned()
        .ok_or_else(|| grid_error("spanned run produced no span report"))?;
    let text = report.render_text();
    let row = SpannedRun {
        label: format!("{} {}", run.label, run.mode.label()),
        mode: run.mode.label().to_string(),
        frames_per_second: run.metrics.frames_per_second(),
        span_limiting_stage: report
            .critical_path
            .as_ref()
            .map(|cp| cp.limiting_stage.clone()),
        profile_limiting_stage: session
            .profiles()
            .first()
            .and_then(|p| p.run.bottleneck.as_ref())
            .map(|b| b.limiting_stage.clone()),
        report,
    };
    Ok((row, text))
}

fn spans_response(
    req: &RunRequest,
    models: &TrainedModels,
    progress: Option<&dyn ProgressSink>,
) -> Result<RunResponse, RequestError> {
    // The spanned+profiled session feeds one event stream to both
    // collectors. The span collector's critical path is its own embedded
    // profile's bottleneck, built by the same code, so the agreement
    // check guards that both collectors saw the same stream.
    let (mut response, runs) = observed_points(
        req,
        models,
        progress,
        || TraceSession::spanned(None, true),
        spanned_row,
        span_violations,
    )?;
    let flame: String = runs.iter().map(|r| r.report.render_flame()).collect();
    let report = EspspanReport {
        version: env!("CARGO_PKG_VERSION").to_string(),
        configs: config_labels(req),
        frames: req.frames,
        engine: response.engine.clone(),
        runs,
        violations: response.verdict.violations.clone(),
        consistent: response.verdict.ok,
    };
    response.artifacts.insert("flame".into(), flame);
    response
        .artifacts
        .insert("report".into(), report_artifact("espspan-report", &report));
    Ok(response)
}

fn faults_response(
    req: &RunRequest,
    seeds: u64,
    models: &TrainedModels,
    progress: Option<&dyn ProgressSink>,
) -> Result<RunResponse, RequestError> {
    let seed_list: Vec<u64> = (1..=seeds).collect();
    let report = CampaignReport::generate(models, &seed_list, req.frames, req.soc_engine())?;
    // The campaign generator is a single call; progress is published
    // per case in the report's deterministic order once it returns.
    let mut tracker = ProgressTracker::new(progress, report.cases.len() as u64);
    for case in &report.cases {
        tracker.advance(
            format_args!("{} {} seed {}", case.config, case.mode, case.seed),
            report.frames,
            case.cycles,
        );
    }
    let violations: Vec<String> = report
        .cases
        .iter()
        .filter(|c| c.status == "failed")
        .map(|c| format!("unabsorbed fault: {} {} seed {}", c.config, c.mode, c.seed))
        .collect();
    let campaign = report.to_json().map_err(grid_error)?;
    let mut response = RunResponse::new(req, &[], violations, report.to_string());
    response.artifacts.insert("campaign".into(), campaign);
    Ok(response)
}

// ---------------------------------------------------------------------------
// espcheck lint targets
// ---------------------------------------------------------------------------

/// One linted target and its findings.
#[derive(Debug, Serialize)]
pub struct LintTarget {
    /// What was linted.
    pub name: String,
    /// Error findings.
    pub errors: usize,
    /// Warning findings.
    pub warnings: usize,
    /// The typed diagnostics.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintTarget {
    /// Packages a lint report under a target name.
    pub fn new(name: impl Into<String>, report: Report) -> LintTarget {
        LintTarget {
            name: name.into(),
            errors: report.error_count(),
            warnings: report.warning_count(),
            diagnostics: report.diagnostics,
        }
    }
}

/// The espcheck verdict report (`report` artifact of the `check`
/// workload, enveloped as kind `espcheck-report`).
#[derive(Debug, Serialize)]
pub struct EspcheckReport {
    /// Workspace version that produced the report.
    pub version: String,
    /// Linted targets with their findings.
    pub targets: Vec<LintTarget>,
    /// Error findings across all targets.
    pub total_errors: usize,
    /// Warning findings across all targets.
    pub total_warnings: usize,
    /// Whether no target had errors (warnings keep the lint clean).
    pub clean: bool,
}

impl EspcheckReport {
    /// Folds lint targets into the report.
    pub fn from_targets(targets: Vec<LintTarget>) -> EspcheckReport {
        let total_errors: usize = targets.iter().map(|t| t.errors).sum();
        let total_warnings: usize = targets.iter().map(|t| t.warnings).sum();
        EspcheckReport {
            version: env!("CARGO_PKG_VERSION").to_string(),
            total_errors,
            total_warnings,
            clean: total_errors == 0,
            targets,
        }
    }

    /// Renders the per-target `ok`/`FAIL` lines plus the totals line —
    /// the espcheck stdout format.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for target in &self.targets {
            if target.diagnostics.is_empty() {
                let _ = writeln!(out, "ok   {}", target.name);
            } else {
                let _ = writeln!(out, "FAIL {}", target.name);
                for diag in &target.diagnostics {
                    let _ = writeln!(out, "  {diag}");
                }
            }
        }
        let _ = writeln!(
            out,
            "espcheck: {} error(s), {} warning(s) across {} target(s)",
            self.total_errors,
            self.total_warnings,
            self.targets.len()
        );
        out
    }

    /// The enveloped JSON artifact (kind `espcheck-report`).
    pub fn to_json(&self) -> String {
        report_artifact("espcheck-report", self)
    }
}

/// Lints the built-in SoC-1 floorplan and every Fig. 7 application
/// mapping onto its SoC's configuration — the espcheck default target set.
pub fn lint_builtins() -> Vec<LintTarget> {
    let mut targets = vec![LintTarget::new(
        "builtin soc1 floorplan",
        lint_config(&SocConfigFile::soc1()),
    )];
    for app in CaseApp::all_fig7_configs() {
        let name = format!("fig7 {} ({:?})", app.label(), app.soc_id());
        let report = lint_all(&app.soc_id().config(), &app.dataflow());
        targets.push(LintTarget::new(name, report));
    }
    targets
}

fn check_response(
    req: &RunRequest,
    progress: Option<&dyn ProgressSink>,
) -> Result<RunResponse, RequestError> {
    let targets = match &req.soc_config {
        Some(config) => vec![LintTarget::new("request soc_config", lint_config(config))],
        None => lint_builtins(),
    };
    // Lint targets simulate nothing, so frames/cycles stay zero.
    let mut tracker = ProgressTracker::new(progress, targets.len() as u64);
    for target in &targets {
        tracker.advance(&target.name, 0, 0);
    }
    let report = EspcheckReport::from_targets(targets);
    let violations: Vec<String> = report
        .targets
        .iter()
        .flat_map(|t| t.diagnostics.iter())
        .filter(|d| d.severity == esp4ml_check::Severity::Error)
        .map(|d| d.to_string())
        .collect();
    let mut response = RunResponse::new(req, &[], violations, report.render_text());
    response.artifacts.insert("report".into(), report.to_json());
    Ok(response)
}

// ---------------------------------------------------------------------------
// deployment validation
// ---------------------------------------------------------------------------

/// The espdeploy verdict report (`report` artifact of the `deployment`
/// workload, enveloped as kind `espdeploy-report`). An admitted
/// deployment is re-analyzed for its structured bandwidth picture, then
/// every tenant is run solo through the simulator to check that the
/// static demand model over-approximates measured traffic.
#[derive(Debug, Clone, Serialize)]
pub struct EspdeployReport {
    /// Workspace version that produced the report.
    pub version: String,
    /// Deployment name.
    pub deployment: String,
    /// Tenant names, in declaration order.
    pub tenants: Vec<String>,
    /// Canonical engine name.
    pub engine: String,
    /// Warnings that survived admission (errors cannot reach here).
    pub diagnostics: Vec<Diagnostic>,
    /// The static per-link utilization and per-tenant slowdown bounds.
    pub bandwidth: Option<esp4ml_check::bw::BandwidthAnalysis>,
    /// The static-versus-simulated conservativeness validation.
    pub validation: deploy::DeploymentValidation,
    /// Whether the static model dominated the simulator everywhere.
    pub conservative: bool,
}

fn deployment_response(
    req: &RunRequest,
    models: &TrainedModels,
    progress: Option<&dyn ProgressSink>,
) -> Result<RunResponse, RequestError> {
    let deployment = req.required_deployment().map_err(RequestError::Invalid)?;
    let engine = req.soc_engine();
    let analysis = deploy::lint_deployment(deployment);
    let validation = deploy::validate_against_simulator(deployment, models, req.frames, engine)?;
    let mut tracker = ProgressTracker::new(progress, validation.tenants.len() as u64);
    for t in &validation.tenants {
        tracker.advance(&t.tenant, t.frames, t.cycles);
    }
    let mut violations = Vec::new();
    for t in &validation.tenants {
        if !t.conservative {
            violations.push(format!(
                "tenant {}: measured link traffic exceeds the static demand model",
                t.tenant
            ));
        }
    }
    if !validation.bounds_conservative {
        violations.push(
            "a measured slowdown bound exceeds its static counterpart; \
             the static model is not an over-approximation"
                .to_string(),
        );
    }
    let conservative = validation.conservative();
    let mut summary = format!(
        "deployment {}: {} tenant(s) admitted; static demand model {} \
         the simulator over {} frame(s) per tenant ({})\n",
        deployment.name,
        deployment.tenants.len(),
        if conservative {
            "dominates"
        } else {
            "UNDERESTIMATES"
        },
        validation.frames,
        validation.engine,
    );
    if let Some(bw) = &analysis.bandwidth {
        for bound in &bw.tenants {
            summary.push_str(&format!(
                "  tenant {}: worst-case slowdown bound {:.3}x\n",
                bound.name, bound.slowdown_bound
            ));
        }
    }
    let report = EspdeployReport {
        version: env!("CARGO_PKG_VERSION").to_string(),
        deployment: deployment.name.clone(),
        tenants: deployment.tenants.iter().map(|t| t.name.clone()).collect(),
        engine: engine.name().to_string(),
        diagnostics: analysis.report.diagnostics.clone(),
        bandwidth: analysis.bandwidth,
        validation,
        conservative,
    };
    let mut response = RunResponse::new(req, &[], violations, summary);
    response.artifacts.insert(
        "report".into(),
        report_artifact("espdeploy-report", &report),
    );
    Ok(response)
}

// ---------------------------------------------------------------------------
// CLI bridge
// ---------------------------------------------------------------------------

impl crate::HarnessArgs {
    /// Builds the [`RunRequest`] these command-line options describe
    /// for `workload` — the bridge that makes every binary a thin
    /// client of [`execute`]. Loads the `--faults` plan file inline.
    ///
    /// # Errors
    ///
    /// File or JSON failures loading the fault plan, as a printable
    /// message (a usage error: exit 2).
    pub fn to_request(&self, workload: WorkloadKind) -> Result<RunRequest, String> {
        let configs = if self.all {
            (0..workload.config_space().len()).collect()
        } else {
            self.configs.clone()
        };
        Ok(RunRequest {
            configs,
            modes: self.modes.iter().map(|m| m.label().to_string()).collect(),
            frames: self.frames,
            engine: self.engine.name().to_string(),
            jobs: self.jobs,
            sanitize: self.sanitize,
            fault_plan: self.fault_plan()?,
            observe: ObserveOpts {
                trace: self.trace.is_some(),
                profile: self.profile.is_some(),
                spans: self.spans.is_some(),
                sample_every: self.sample_every,
            },
            ..RunRequest::new(workload)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(workload: WorkloadKind) -> RunRequest {
        let mut r = RunRequest::new(workload);
        r.frames = 2;
        r
    }

    #[test]
    fn normalization_resolves_engine_aliases_and_defaults() {
        let mut r = req(WorkloadKind::Profile);
        r.engine = "event-driven".into();
        let n = r.normalized();
        assert_eq!(n.engine, "event");
        assert_eq!(n.configs, vec![3]);
        assert_eq!(n.modes, vec!["pipe".to_string(), "p2p".to_string()]);
        let r2 = req(WorkloadKind::Fig7);
        assert_eq!(r2.normalized().engine, "event");
        assert!(r2.normalized().configs.is_empty(), "figures keep empty=all");
    }

    #[test]
    fn validation_rejects_bad_requests() {
        let mut r = req(WorkloadKind::Fig7);
        r.schema_version = 99;
        assert!(r.validate().unwrap_err().contains("schema_version"));

        let mut r = req(WorkloadKind::Fig7);
        r.engine = "warp".into();
        assert!(r.validate().unwrap_err().contains("unknown engine"));

        let mut r = req(WorkloadKind::Fig7);
        r.frames = 0;
        assert!(r.validate().unwrap_err().contains("frames"));

        let mut r = req(WorkloadKind::Fig7);
        r.configs = vec![999];
        assert!(r.validate().unwrap_err().contains("out of range"));

        let mut r = req(WorkloadKind::Fig7);
        r.modes = vec!["pipe".into()];
        assert!(r.validate().unwrap_err().contains("fixed by the fig7 grid"));

        let mut r = req(WorkloadKind::Faults { seeds: 0 });
        assert!(r.validate().unwrap_err().contains("seeds"));
        r = req(WorkloadKind::Faults { seeds: 2 });
        assert!(r.validate().is_ok());

        let mut r = req(WorkloadKind::Fig7);
        r.sanitize = true;
        r.observe.trace = true;
        assert!(r.validate().unwrap_err().contains("sanitize"));

        let mut r = req(WorkloadKind::Fig7);
        r.observe.sample_every = Some(100);
        assert!(r.validate().unwrap_err().contains("requires trace"));

        // espprof/espspan attach their own observers and take no
        // sanitizer or fault plan.
        for workload in [WorkloadKind::Profile, WorkloadKind::Spans] {
            let mut r = req(workload);
            r.sanitize = true;
            assert!(r.validate().unwrap_err().contains("not meaningful"));
            let mut r = req(workload);
            r.fault_plan = Some(FaultPlan::new(0));
            assert!(r.validate().unwrap_err().contains("not meaningful"));
            let mut r = req(workload);
            r.observe.spans = true;
            assert!(r.validate().unwrap_err().contains("not meaningful"));
        }

        // check ignores frames entirely.
        let mut r = RunRequest::new(WorkloadKind::Check);
        r.frames = 0;
        assert!(r.validate().is_ok());
    }

    #[test]
    fn cache_key_ignores_jobs_and_engine_alias() {
        let a = req(WorkloadKind::Fig7);
        let mut b = a.clone();
        b.jobs = 7;
        b.fork_prefix = true;
        assert_eq!(a.cache_key(), b.cache_key());
        let mut c = a.clone();
        c.engine = "event-driven".into();
        assert_eq!(a.cache_key(), c.cache_key());
        let mut d = a.clone();
        d.engine = "naive".into();
        assert_ne!(a.cache_key(), d.cache_key(), "engine is part of the key");
        let mut e = a.clone();
        e.frames = 3;
        assert_ne!(a.cache_key(), e.cache_key());
    }

    #[test]
    fn canonical_json_sorts_keys_recursively() {
        use serde::Map;
        let mut inner = Map::new();
        inner.insert("zeta".into(), Value::from(1u64));
        inner.insert("alpha".into(), Value::from(2u64));
        let mut outer = Map::new();
        outer.insert("b".into(), Value::Object(inner));
        outer.insert("a".into(), Value::from("x"));
        let text = canonical_json(&Value::Object(outer));
        assert_eq!(text, r#"{"a":"x","b":{"alpha":2,"zeta":1}}"#);
    }

    #[test]
    fn admission_flags_broken_config_before_simulation() {
        let broken = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../configs/broken_dup_tile.json"
        ))
        .expect("seeded broken config");
        let mut r = req(WorkloadKind::Fig7);
        r.soc_config = Some(SocConfigFile::from_json(&broken).expect("config parses"));
        let report = admission(&r);
        assert!(report.has_errors());
        let codes: Vec<&str> = report.diagnostics.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"E0101"), "{codes:?}");
        let models = TrainedModels::untrained();
        match execute(&r, &models) {
            Err(RequestError::Rejected(rep)) => assert!(rep.has_errors()),
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn admission_lints_fault_plans_against_the_selected_grid() {
        use esp4ml_fault::FaultSpec;
        let mut r = req(WorkloadKind::Fig7);
        r.fault_plan = Some(FaultPlan::new(1).with(FaultSpec::transient_hang("no-such-device", 0)));
        let report = admission(&r);
        assert!(report.has_errors(), "unknown device must be an E06xx error");
    }

    #[test]
    fn execute_runs_a_single_fig8_point() {
        let mut r = req(WorkloadKind::Fig8);
        r.configs = vec![0];
        let models = TrainedModels::untrained();
        let resp = execute(&r, &models).expect("runs");
        assert_eq!(resp.runs.len(), 1);
        assert!(resp.verdict.ok);
        assert!(resp.artifacts.contains_key("metrics"));
        assert!(
            !resp.artifacts.contains_key("figure"),
            "subset runs skip figure assembly"
        );
        let metrics = resp.artifacts.get("metrics").unwrap();
        let value = serde_json::parse_value(metrics).unwrap();
        let payload =
            esp4ml::trace::schema::open_envelope(value, "run-metrics").expect("enveloped");
        assert_eq!(payload.as_array().unwrap().len(), 1);
    }

    #[test]
    fn execute_is_deterministic_across_engines_and_calls() {
        let mut r = req(WorkloadKind::Fig8);
        r.configs = vec![0];
        let models = TrainedModels::untrained();
        let a = execute(&r, &models).expect("runs");
        let b = execute(&r, &models).expect("runs");
        assert_eq!(
            a.to_json(),
            b.to_json(),
            "identical requests, identical bytes"
        );
        let mut naive = r.clone();
        naive.engine = "naive".into();
        let c = execute(&naive, &models).expect("runs");
        assert_eq!(
            a.runs[0].metrics, c.runs[0].metrics,
            "engines agree on metrics"
        );
    }

    /// `fork_prefix` is accepted and ignored: setting it changes neither
    /// the runs nor the metrics artifact bytes.
    #[test]
    fn fork_prefix_is_accepted_and_ignored() {
        let mut cold = req(WorkloadKind::Fig8);
        cold.configs = vec![0, 1];
        let mut forked = cold.clone();
        forked.fork_prefix = true;
        let models = TrainedModels::untrained();
        let a = execute(&cold, &models).expect("runs");
        let b = execute(&forked, &models).expect("runs");
        assert_eq!(a.runs, b.runs);
        assert_eq!(a.artifacts.get("metrics"), b.artifacts.get("metrics"));
        assert!(a.artifacts.contains_key("metrics"));
    }

    /// The progress line sequence for a request, as published bytes.
    fn progress_lines(r: &RunRequest, models: &TrainedModels) -> Vec<String> {
        let sink = CollectingSink::new();
        execute_with_progress(r, models, Some(&sink)).expect("runs");
        sink.snapshots()
            .iter()
            .map(Progress::to_json_line)
            .collect()
    }

    #[test]
    fn progress_snapshots_are_monotonic_and_end_at_totals() {
        let r = req(WorkloadKind::Fig8);
        let models = TrainedModels::untrained();
        let sink = CollectingSink::new();
        execute_with_progress(&r, &models, Some(&sink)).expect("runs");
        let snaps = sink.snapshots();
        assert_eq!(snaps.len(), 6, "one snapshot per fig8 grid point");
        for (i, s) in snaps.iter().enumerate() {
            assert_eq!(s.points_done, i as u64 + 1);
            assert_eq!(s.points_total, 6);
            assert_eq!(s.frames_done, (i as u64 + 1) * r.frames);
            if i > 0 {
                assert!(s.cycles > snaps[i - 1].cycles, "cycles accumulate");
            }
        }
        let last = snaps.last().unwrap();
        assert!(last.is_final());
        assert!(!snaps[0].is_final());
    }

    #[test]
    fn progress_sequence_is_byte_identical_across_engines_and_jobs() {
        let models = TrainedModels::untrained();
        let mut r = req(WorkloadKind::Fig8);
        r.jobs = 1;
        let serial = progress_lines(&r, &models);
        r.jobs = 4;
        let parallel = progress_lines(&r, &models);
        assert_eq!(serial, parallel, "parallel publishes in grid order");
        r.engine = "naive".into();
        let naive = progress_lines(&r, &models);
        assert_eq!(serial, naive, "engines publish identical snapshots");
    }

    #[test]
    fn progress_covers_every_workload_kind() {
        let models = TrainedModels::untrained();
        for workload in [
            WorkloadKind::Profile,
            WorkloadKind::Spans,
            WorkloadKind::Faults { seeds: 1 },
            WorkloadKind::Check,
        ] {
            let r = req(workload);
            let sink = CollectingSink::new();
            execute_with_progress(&r, &models, Some(&sink)).expect("runs");
            let snaps = sink.snapshots();
            assert!(!snaps.is_empty(), "{workload:?} publishes progress");
            let last = snaps.last().unwrap();
            assert!(last.is_final(), "{workload:?} ends at totals");
            assert!(
                snaps.iter().all(|s| s.points_total == last.points_total),
                "{workload:?} totals are stable"
            );
        }
    }

    /// A two-tenant deployment of disjoint soc1 pipelines.
    fn feasible_deployment() -> Deployment {
        let tenant = |name: &str, stages: &[&[&str]]| esp4ml::deploy::TenantSpec {
            name: name.to_string(),
            stages: stages
                .iter()
                .map(|s| s.iter().map(|d| d.to_string()).collect())
                .collect(),
            mode: "p2p".to_string(),
            frame_rate_hz: 30.0,
            routing: esp4ml_check::cdg::Routing::Xy,
            shared_devices: Vec::new(),
        };
        Deployment {
            name: "smoke".to_string(),
            soc: SocConfigFile::soc1(),
            tenants: vec![
                tenant("vision", &[&["nv0"], &["cl0"]]),
                tenant("denoise", &[&["denoiser"], &["cl_de"]]),
            ],
        }
    }

    #[test]
    fn deployment_workload_requires_and_gates_the_attachment() {
        let r = req(WorkloadKind::Deployment);
        assert!(r.validate().unwrap_err().contains("deployment attachment"));
        let mut r = req(WorkloadKind::Fig7);
        r.deployment = Some(feasible_deployment());
        assert!(r.validate().unwrap_err().contains("not meaningful"));
        let mut r = req(WorkloadKind::Deployment);
        r.deployment = Some(feasible_deployment());
        assert!(r.validate().is_ok());
        r.soc_config = Some(SocConfigFile::soc1());
        assert!(r.validate().unwrap_err().contains("soc_config"));
    }

    #[test]
    fn deployment_admission_rejects_lease_conflicts_before_simulating() {
        let mut d = feasible_deployment();
        // Both tenants now claim cl0 without declaring it shared.
        d.tenants[1].stages[1] = vec!["cl0".to_string()];
        let mut r = req(WorkloadKind::Deployment);
        r.deployment = Some(d);
        let report = admission(&r);
        let codes: Vec<&str> = report.diagnostics.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"E0701"), "{codes:?}");
        let models = TrainedModels::untrained();
        match execute(&r, &models) {
            Err(RequestError::Rejected(rep)) => assert!(rep.has_errors()),
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn deployment_workload_validates_conservatively_and_publishes_progress() {
        let mut r = req(WorkloadKind::Deployment);
        r.deployment = Some(feasible_deployment());
        let models = TrainedModels::untrained();
        let sink = CollectingSink::new();
        let resp = execute_with_progress(&r, &models, Some(&sink)).expect("runs");
        assert!(resp.verdict.ok, "{:?}", resp.verdict.violations);
        assert!(resp.artifacts.contains_key("report"));
        let value = serde_json::parse_value(resp.artifacts.get("report").unwrap()).unwrap();
        let payload =
            esp4ml::trace::schema::open_envelope(value, "espdeploy-report").expect("enveloped");
        assert_eq!(payload["conservative"], Value::from(true));
        let snaps = sink.snapshots();
        assert_eq!(snaps.len(), 2, "one snapshot per tenant");
        assert!(snaps.last().unwrap().is_final());
    }

    #[test]
    fn check_workload_reports_on_inline_config() {
        let mut r = RunRequest::new(WorkloadKind::Check);
        let broken = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../configs/broken_dup_tile.json"
        ))
        .expect("seeded broken config");
        r.soc_config = Some(SocConfigFile::from_json(&broken).expect("config parses"));
        let models = TrainedModels::untrained();
        // A broken lint subject is NOT an admission rejection for check:
        // reporting on it is the job.
        let resp = execute(&r, &models).expect("check runs");
        assert!(!resp.verdict.ok);
        assert!(resp.verdict.violations.iter().any(|v| v.contains("E0101")));
        assert!(resp.artifacts.contains_key("report"));
    }
}
