//! Experiment drivers regenerating every table and figure of the paper.
//!
//! * [`Table1`] — resource utilization, power and frames/s for the three
//!   application columns (paper Table I).
//! * [`Fig7`] — energy efficiency (frames/J) of base/pipe/p2p execution
//!   across the five accelerator configurations, against the i7 and
//!   Jetson baselines (paper Fig. 7).
//! * [`Fig8`] — DRAM accesses with and without p2p communication (paper
//!   Fig. 8).
//!
//! The same drivers back the `esp4ml-bench` binaries and the integration
//! tests, so the printed artifacts and the asserted behaviours cannot
//! drift apart.

use crate::apps::{argmax, decode_values, encode_image, CaseApp, InputFrames, TrainedModels};
use crate::faults::CAMPAIGN_WATCHDOG_CYCLES;
use crate::flow::Esp4mlFlow;
use crate::observe::TraceSession;
use esp4ml_baseline::{Platform, SoftwareApp, Workload};
use esp4ml_check::Report;
use esp4ml_fault::FaultPlan;
use esp4ml_runtime::{
    Dataflow, EspRuntime, ExecMode, RecoveryPolicy, RunMetrics, RunSpec, RuntimeError,
};
use esp4ml_soc::{Soc, SocEngine};
use esp4ml_trace::{TileCoord, TraceEvent};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Seed used for experiment input data (fixed for reproducibility).
const DATA_SEED: u64 = 0xE5F4;

/// Errors from experiment execution.
#[derive(Debug)]
#[non_exhaustive]
pub enum ExperimentError {
    /// SoC construction failed.
    Build(crate::apps::BuildError),
    /// Runtime execution failed.
    Run(RuntimeError),
    /// Grid assembly was handed results that don't match the grid.
    Grid(String),
    /// The runtime sanitizer found invariant violations during a run.
    Sanitizer {
        /// Which run violated invariants.
        label: String,
        /// The violations, as typed diagnostics.
        report: Report,
    },
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::Build(e) => write!(f, "build failed: {e}"),
            ExperimentError::Run(e) => write!(f, "run failed: {e}"),
            ExperimentError::Grid(msg) => write!(f, "grid assembly failed: {msg}"),
            ExperimentError::Sanitizer { label, report } => write!(
                f,
                "sanitizer found {} violation(s) in {label}:\n{report}",
                report.error_count()
            ),
        }
    }
}

impl Error for ExperimentError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExperimentError::Build(e) => Some(e),
            ExperimentError::Run(e) => Some(e),
            ExperimentError::Grid(_) => None,
            ExperimentError::Sanitizer { .. } => None,
        }
    }
}

impl From<crate::apps::BuildError> for ExperimentError {
    fn from(e: crate::apps::BuildError) -> Self {
        ExperimentError::Build(e)
    }
}

impl From<RuntimeError> for ExperimentError {
    fn from(e: RuntimeError) -> Self {
        ExperimentError::Run(e)
    }
}

/// One independent unit of experiment work: an SoC configuration paired
/// with an execution mode.
///
/// The figure/table drivers enumerate their work as a flat `Vec<GridPoint>`
/// ([`Fig7::grid`], [`Fig8::grid`], [`Table1::grid`]), each point runs in
/// isolation (its own SoC, its own runtime — nothing shared), and the
/// matching `assemble` function folds the per-point [`AppRun`]s — **in
/// grid order** — back into the figure. This is what lets the
/// `esp4ml-bench` harness scatter points across worker threads and still
/// collect deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridPoint {
    /// The SoC configuration to build and load.
    pub app: CaseApp,
    /// The execution mode to run the dataflow in.
    pub mode: ExecMode,
}

impl GridPoint {
    /// Human label ("2NV+2Cl p2p") for progress reporting.
    pub fn label(&self) -> String {
        format!("{} {}", self.app.label(), self.mode.label())
    }
}

/// What a run arms besides plain simulation.
///
/// One enum rather than two flags, because the sanitizer and fault
/// injection cannot be combined: injected faults deliberately break the
/// invariants the sanitizer audits.
#[derive(Debug, Clone, Copy, Default)]
pub enum RunKind<'a> {
    /// Plain simulation.
    #[default]
    Plain,
    /// The runtime sanitizer audits credit/flit conservation, wormhole
    /// framing, plane discipline and DMA byte accounting throughout the
    /// run: at every tick under [`SocEngine::Naive`], additionally at
    /// every fast-forward boundary under [`SocEngine::EventDriven`] (the
    /// verdicts are identical either way). A violation fails the run with
    /// [`ExperimentError::Sanitizer`]; the clean verdict lands in
    /// [`AppRun::sanitizer`].
    Sanitized,
    /// The [`FaultPlan`] is installed on the SoC, the
    /// [`CAMPAIGN_WATCHDOG_CYCLES`] watchdog and the default
    /// [`RecoveryPolicy`] are armed on the [`RunSpec`], and an
    /// unrecoverable pipeline degrades to the processor-tile software
    /// path instead of failing (flagged on [`AppRun::software_fallback`]).
    Faulted(&'a FaultPlan),
}

/// How to run: the simulation engine, an optional observability session
/// and the [`RunKind`].
///
/// With a session, events flow into the session's tracer (each run opens
/// with a `RunStart` marker naming it) and the run's counter series and
/// NoC summary are collected into the session, plus a
/// [`ProfileReport`](crate::ProfileReport) and a span report when the
/// session profiles ([`TraceSession::profiled`]) or assembles spans
/// ([`TraceSession::spanned`]). Observation composes with every
/// [`RunKind`].
#[derive(Debug, Default)]
pub struct RunOptions<'a> {
    /// [`SocEngine::Naive`] as the cycle-exact oracle,
    /// [`SocEngine::EventDriven`] for fast-forward simulation.
    pub engine: SocEngine,
    /// Where the run's events and reports go, when observed.
    pub session: Option<&'a mut TraceSession>,
    /// Plain, sanitized or faulted.
    pub kind: RunKind<'a>,
}

impl<'a> RunOptions<'a> {
    /// A plain, unobserved run under `engine`.
    pub fn new(engine: SocEngine) -> Self {
        RunOptions {
            engine,
            session: None,
            kind: RunKind::Plain,
        }
    }

    /// A sanitized run under `engine` ([`RunKind::Sanitized`]).
    pub fn sanitized(engine: SocEngine) -> Self {
        RunOptions {
            kind: RunKind::Sanitized,
            ..Self::new(engine)
        }
    }

    /// A run under `engine` with injected faults ([`RunKind::Faulted`]).
    pub fn faulted(engine: SocEngine, faults: &'a FaultPlan) -> Self {
        RunOptions {
            kind: RunKind::Faulted(faults),
            ..Self::new(engine)
        }
    }

    /// The same run, observed through `session`.
    pub fn traced(self, session: &'a mut TraceSession) -> Self {
        RunOptions {
            session: Some(session),
            ..self
        }
    }
}

/// One measured execution of a case-study application on its SoC.
#[derive(Debug, Clone)]
pub struct AppRun {
    /// Which application configuration ran.
    pub label: String,
    /// Execution mode.
    pub mode: ExecMode,
    /// Runtime metrics (cycles, DRAM accesses, throughput).
    pub metrics: RunMetrics,
    /// SoC average dynamic power in watts (whole SoC, as the paper
    /// conservatively reports).
    pub watts: f64,
    /// Predicted class per frame.
    pub predictions: Vec<usize>,
    /// Ground-truth label per frame.
    pub labels: Vec<usize>,
    /// The sanitizer's verdict when the run was sanitized (`None` when
    /// the sanitizer was off). An attached report never carries errors —
    /// those abort the run with [`ExperimentError::Sanitizer`] — but may
    /// carry warnings.
    pub sanitizer: Option<Report>,
    /// Whether the run degraded to the processor-tile software path
    /// after the hardware pipeline proved unrecoverable (only possible
    /// under [`RunKind::Faulted`]). When set, `metrics` and `watts` come
    /// from the Ariane platform model, not the accelerator pipeline.
    pub software_fallback: bool,
}

impl AppRun {
    /// Builds the SoC, loads the inputs, runs the dataflow in `mode` and
    /// collects predictions.
    ///
    /// The load/config phase builds the SoC, sets the engine, arms the
    /// sanitizer (for [`RunKind::Sanitized`]) and the session's tracer,
    /// prices the power, boots the runtime, `esp_alloc`s the buffers and
    /// writes every input frame; it simulates zero cycles. The run then
    /// opens the observed run, installs the fault plan, runs the
    /// dataflow (when faulted, under the campaign watchdog and the
    /// default recovery policy), falls back to software when a faulted
    /// pipeline proved unrecoverable, checks the sanitizer verdict,
    /// closes the observed run and reads the predictions back.
    ///
    /// # Errors
    ///
    /// Build failures, runtime failures that recovery (when armed) could
    /// not absorb, or [`ExperimentError::Sanitizer`] when a sanitized run
    /// violated an invariant.
    pub fn execute(
        app: &CaseApp,
        models: &TrainedModels,
        frames: u64,
        mode: ExecMode,
        opts: RunOptions<'_>,
    ) -> Result<AppRun, ExperimentError> {
        let RunOptions {
            engine,
            session,
            kind,
        } = opts;
        let mut soc = app.build_soc(models)?;
        soc.set_engine(engine);
        if matches!(kind, RunKind::Sanitized) {
            soc.enable_sanitizer();
        }
        if let Some(every) = session.as_deref().and_then(TraceSession::sample_every) {
            soc.enable_counter_sampling(every);
        }
        let watts = Esp4mlFlow::new().estimate_power(&soc).total_watts();
        let mut rt = EspRuntime::new(soc)?;
        if let Some(s) = session.as_deref() {
            // Installs on the SoC too; the runtime's own handle carries
            // the ioctl and retry/failover records.
            rt.set_tracer(s.tracer().clone());
        }
        let dataflow = app.dataflow();
        let buf = rt.prepare(&dataflow, frames)?;
        let inputs = models.input_frames(app, DATA_SEED, frames);
        for (f, image) in (0..).zip(inputs.images()) {
            rt.write_frame(&buf, f, &encode_image(image))?;
        }

        let run_label = format!("{} {}", app.label(), mode.label());
        if let Some(s) = session.as_deref() {
            s.open_run(run_label.clone(), stage_groups(&dataflow), rt.soc());
        }
        let mut spec = RunSpec::new(&dataflow).mode(mode);
        let faults = match kind {
            RunKind::Faulted(plan) => Some(plan),
            RunKind::Plain | RunKind::Sanitized => None,
        };
        if let Some(plan) = faults {
            if !plan.is_empty() {
                rt.soc_mut().install_fault_plan(plan);
            }
            spec = spec
                .watchdog_cycles(CAMPAIGN_WATCHDOG_CYCLES)
                .recover(RecoveryPolicy::default());
        }
        let hardware = match rt.run(&spec, &buf) {
            Ok(metrics) => Some(metrics),
            Err(RuntimeError::Timeout { .. }) if faults.is_some() => {
                // Graceful degradation: the hardware pipeline is
                // unrecoverable (retries and spares exhausted), so the
                // application reruns on the processor tile in software.
                let proc = rt.soc().primary_proc();
                let from = app.label();
                rt.soc()
                    .tracer()
                    .emit(rt.soc().cycle(), TileCoord::new(proc.x, proc.y), || {
                        TraceEvent::FailedOver {
                            from,
                            to: "software".to_string(),
                        }
                    });
                None
            }
            Err(e) => return Err(e.into()),
        };
        let sanitizer = match rt.soc().sanitizer_report() {
            Some(report) if report.has_errors() => {
                return Err(ExperimentError::Sanitizer {
                    label: run_label,
                    report,
                });
            }
            verdict => verdict,
        };
        // Close the observed run where the simulation stopped (run
        // completion or the fallback), before prediction readback, which
        // simulates no cycles.
        if let Some(s) = session {
            s.close_run(run_label, rt.soc_mut());
        }
        let Some(metrics) = hardware else {
            return Ok(software_fallback(app, models, mode, &inputs, rt.soc()));
        };
        let mut predictions = Vec::with_capacity(frames as usize);
        for f in 0..frames {
            let logits = decode_values(&rt.read_frame(&buf, f)?);
            predictions.push(argmax(&logits));
        }
        Ok(AppRun {
            label: app.label(),
            mode,
            metrics,
            watts,
            predictions,
            labels: inputs.labels().to_vec(),
            sanitizer,
            software_fallback: false,
        })
    }

    /// Classification accuracy of the run against ground truth.
    pub fn accuracy(&self) -> f64 {
        if self.labels.is_empty() {
            return 0.0;
        }
        let correct = self
            .predictions
            .iter()
            .zip(&self.labels)
            .filter(|(p, l)| p == l)
            .count();
        correct as f64 / self.labels.len() as f64
    }

    /// Energy efficiency in frames per joule.
    pub fn frames_per_joule(&self) -> f64 {
        self.metrics.frames_per_joule(self.watts)
    }
}

/// Derives profiler stage groups `(stage name, member instances)` from a
/// dataflow, in pipeline order. Multi-instance stages are named by their
/// kernel prefix (instance digits stripped); single-instance stages keep
/// the device name.
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

/// The graceful-degradation path: reruns the application on the Ariane
/// processor tile in software (float models, no accelerators) and
/// reports metrics through the honest [`Platform::ariane`]
/// performance/power model. Cycles are modeled at the SoC clock so
/// throughput stays comparable with the hardware runs it replaces.
fn software_fallback(
    app: &CaseApp,
    models: &TrainedModels,
    mode: ExecMode,
    inputs: &InputFrames,
    soc: &Soc,
) -> AppRun {
    let sw = SoftwareApp::new(
        Some(models.classifier().clone()),
        Some(models.denoiser().clone()),
    );
    let frames = inputs.labels().len() as u64;
    let predictions = inputs
        .images()
        .iter()
        .map(|image| match app {
            CaseApp::NightVisionClassifier { .. } => sw.night_vision_classify(image),
            CaseApp::DenoiserClassifier => sw.denoise_classify(image),
            CaseApp::MultiTileClassifier => sw.classify(image),
        })
        .collect();
    let ariane = Platform::ariane();
    let (_, workload) = Workload::table1_apps()
        .into_iter()
        .find(|(name, _)| *name == app.app_name())
        .expect("every case app has a Table I workload");
    let clock_hz = soc.clock_hz();
    let metrics = RunMetrics {
        frames,
        cycles: (frames as f64 * ariane.frame_seconds(&workload) * clock_hz).ceil() as u64,
        clock_hz,
        faults_injected: soc.faults_injected(),
        ..RunMetrics::default()
    };
    AppRun {
        label: app.label(),
        mode,
        metrics,
        watts: ariane.average_watts(&workload),
        predictions,
        labels: inputs.labels().to_vec(),
        sanitizer: None,
        software_fallback: true,
    }
}

/// One column of Table I.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1Column {
    /// Application name.
    pub app: String,
    /// LUT utilization (percent of the target device).
    pub lut_pct: f64,
    /// FF utilization.
    pub ff_pct: f64,
    /// BRAM utilization.
    pub bram_pct: f64,
    /// Whole-SoC dynamic power in watts.
    pub power_watts: f64,
    /// ESP4ML frames/s (best configuration, p2p pipeline).
    pub fps_esp4ml: f64,
    /// Intel i7-8700K frames/s (software baseline model).
    pub fps_i7: f64,
    /// Jetson TX1 frames/s (software baseline model).
    pub fps_jetson: f64,
}

/// Table I: summary of results using the best-case configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1 {
    /// The three application columns.
    pub columns: Vec<Table1Column>,
}

impl Table1 {
    /// The best-case configuration per column, as the paper's caption
    /// states.
    pub fn best_configs() -> [CaseApp; 3] {
        [
            CaseApp::NightVisionClassifier { nv: 4, cl: 4 },
            CaseApp::DenoiserClassifier,
            CaseApp::MultiTileClassifier,
        ]
    }

    /// The experiment grid: each best-case configuration in p2p mode.
    pub fn grid() -> Vec<GridPoint> {
        Self::best_configs()
            .iter()
            .map(|&app| GridPoint {
                app,
                mode: ExecMode::P2p,
            })
            .collect()
    }

    /// Folds per-point runs — in [`Table1::grid`] order — into the table.
    /// Utilization and power come from rebuilding each SoC (deterministic
    /// and cheap; no simulation).
    ///
    /// # Errors
    ///
    /// [`ExperimentError::Grid`] when `runs` doesn't match the grid;
    /// build failures.
    pub fn assemble(models: &TrainedModels, runs: &[AppRun]) -> Result<Table1, ExperimentError> {
        let grid = Self::grid();
        if runs.len() != grid.len() {
            return Err(ExperimentError::Grid(format!(
                "table1 expects {} runs, got {}",
                grid.len(),
                runs.len()
            )));
        }
        let flow = Esp4mlFlow::new();
        let i7 = Platform::intel_i7_8700k();
        let tx1 = Platform::jetson_tx1();
        let workloads = Workload::table1_apps();
        let mut columns = Vec::new();
        for ((point, run), (_, workload)) in grid.iter().zip(runs).zip(workloads.iter()) {
            let soc = point.app.build_soc(models)?;
            let util = flow.utilization(&soc);
            let power = flow.estimate_power(&soc).total_watts();
            columns.push(Table1Column {
                app: point.app.app_name().to_string(),
                lut_pct: util.lut_pct,
                ff_pct: util.ff_pct,
                bram_pct: util.bram_pct,
                power_watts: power,
                fps_esp4ml: run.metrics.frames_per_second(),
                fps_i7: i7.frames_per_second(workload),
                fps_jetson: tx1.frames_per_second(workload),
            });
        }
        Ok(Table1 { columns })
    }
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "TABLE I — SUMMARY OF RESULTS (BEST-CASE CONFIGURATION)")?;
        write!(f, "{:<18}", "")?;
        for c in &self.columns {
            write!(f, "{:>24}", c.app.replace(" & ", "&"))?;
        }
        writeln!(f)?;
        let row = |f: &mut fmt::Formatter<'_>, name: &str, vals: Vec<String>| -> fmt::Result {
            write!(f, "{name:<18}")?;
            for v in vals {
                write!(f, "{v:>24}")?;
            }
            writeln!(f)
        };
        row(
            f,
            "LUTS",
            self.columns
                .iter()
                .map(|c| format!("{:.0}%", c.lut_pct))
                .collect(),
        )?;
        row(
            f,
            "FFS",
            self.columns
                .iter()
                .map(|c| format!("{:.0}%", c.ff_pct))
                .collect(),
        )?;
        row(
            f,
            "BRAMS",
            self.columns
                .iter()
                .map(|c| format!("{:.0}%", c.bram_pct))
                .collect(),
        )?;
        row(
            f,
            "POWER (W)",
            self.columns
                .iter()
                .map(|c| format!("{:.2}", c.power_watts))
                .collect(),
        )?;
        row(
            f,
            "FRAMES/S ESP4ML",
            self.columns
                .iter()
                .map(|c| format!("{:.0}", c.fps_esp4ml))
                .collect(),
        )?;
        row(
            f,
            "FRAMES/S INTEL I7",
            self.columns
                .iter()
                .map(|c| format!("{:.0}", c.fps_i7))
                .collect(),
        )?;
        row(
            f,
            "FRAMES/S JETSON",
            self.columns
                .iter()
                .map(|c| format!("{:.0}", c.fps_jetson))
                .collect(),
        )
    }
}

/// One bar of Fig. 7: an execution mode of one accelerator configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig7Bar {
    /// Configuration label ("4NV+1Cl", …).
    pub config: String,
    /// Execution mode label ("base", "pipe", "p2p").
    pub mode: String,
    /// Absolute energy efficiency in frames/J.
    pub frames_per_joule: f64,
    /// Throughput in frames/s (context for the bar).
    pub frames_per_second: f64,
}

/// One cluster of Fig. 7: an application with its configurations and the
/// two baseline lines.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig7Cluster {
    /// Application name.
    pub app: String,
    /// Bars, in (config, mode) order.
    pub bars: Vec<Fig7Bar>,
    /// The i7 horizontal line (frames/J).
    pub i7_line: f64,
    /// The Jetson horizontal line (frames/J).
    pub jetson_line: f64,
}

/// Fig. 7: energy efficiency of ESP4ML execution modes vs CPU/GPU.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig7 {
    /// The three application clusters.
    pub clusters: Vec<Fig7Cluster>,
}

impl Fig7 {
    /// The experiment grid: every accelerator configuration in every
    /// execution mode, configuration-major.
    pub fn grid() -> Vec<GridPoint> {
        CaseApp::all_fig7_configs()
            .into_iter()
            .flat_map(|app| {
                ExecMode::ALL
                    .into_iter()
                    .map(move |mode| GridPoint { app, mode })
            })
            .collect()
    }

    /// Folds per-point runs — in [`Fig7::grid`] order — into the figure.
    ///
    /// # Errors
    ///
    /// [`ExperimentError::Grid`] when `runs` doesn't match the grid.
    pub fn assemble(runs: &[AppRun]) -> Result<Fig7, ExperimentError> {
        let grid = Self::grid();
        if runs.len() != grid.len() {
            return Err(ExperimentError::Grid(format!(
                "fig7 expects {} runs, got {}",
                grid.len(),
                runs.len()
            )));
        }
        let i7 = Platform::intel_i7_8700k();
        let tx1 = Platform::jetson_tx1();
        let mut clusters: Vec<Fig7Cluster> = Workload::table1_apps()
            .iter()
            .map(|(name, w)| Fig7Cluster {
                app: name.to_string(),
                bars: Vec::new(),
                i7_line: i7.frames_per_joule(w),
                jetson_line: tx1.frames_per_joule(w),
            })
            .collect();
        for (point, run) in grid.iter().zip(runs) {
            let cluster = clusters
                .iter_mut()
                .find(|c| c.app == point.app.app_name())
                .ok_or_else(|| {
                    ExperimentError::Grid(format!("no fig7 cluster for {}", point.app.app_name()))
                })?;
            cluster.bars.push(Fig7Bar {
                config: point.app.label(),
                mode: point.mode.label().to_string(),
                frames_per_joule: run.frames_per_joule(),
                frames_per_second: run.metrics.frames_per_second(),
            });
        }
        Ok(Fig7 { clusters })
    }
}

impl fmt::Display for Fig7 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "FIG. 7 — ENERGY EFFICIENCY (frames/J), ESP4ML base/pipe/p2p vs baselines"
        )?;
        for c in &self.clusters {
            writeln!(f, "\n[{}]", c.app)?;
            writeln!(
                f,
                "  baseline lines: i7 8700K = {:.1} f/J, Jetson TX1 = {:.1} f/J",
                c.i7_line, c.jetson_line
            )?;
            for bar in &c.bars {
                writeln!(
                    f,
                    "  {:>10} {:>5}: {:>10.1} f/J  ({:>9.0} f/s)  [{:+.1}x vs i7, {:+.1}x vs Jetson]",
                    bar.config,
                    bar.mode,
                    bar.frames_per_joule,
                    bar.frames_per_second,
                    bar.frames_per_joule / c.i7_line,
                    bar.frames_per_joule / c.jetson_line,
                )?;
            }
        }
        Ok(())
    }
}

/// One pair of Fig. 8 bars: DRAM accesses without and with p2p.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig8Row {
    /// Application name.
    pub app: String,
    /// Configuration label.
    pub config: String,
    /// DRAM word accesses without p2p (pipelined through memory).
    pub accesses_no_p2p: u64,
    /// DRAM word accesses with p2p.
    pub accesses_p2p: u64,
}

impl Fig8Row {
    /// The p2p bar normalized to the no-p2p bar (percent).
    pub fn p2p_pct(&self) -> f64 {
        if self.accesses_no_p2p == 0 {
            return 0.0;
        }
        100.0 * self.accesses_p2p as f64 / self.accesses_no_p2p as f64
    }

    /// The reduction factor (no-p2p / p2p).
    pub fn reduction(&self) -> f64 {
        if self.accesses_p2p == 0 {
            return 0.0;
        }
        self.accesses_no_p2p as f64 / self.accesses_p2p as f64
    }
}

/// Fig. 8: relative number of DRAM accesses with and without p2p.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig8 {
    /// One row per application.
    pub rows: Vec<Fig8Row>,
}

impl Fig8 {
    /// The experiment grid: every best-case configuration, first
    /// pipelined through memory, then over p2p.
    pub fn grid() -> Vec<GridPoint> {
        Table1::best_configs()
            .iter()
            .flat_map(|&app| {
                [ExecMode::Pipe, ExecMode::P2p]
                    .into_iter()
                    .map(move |mode| GridPoint { app, mode })
            })
            .collect()
    }

    /// Folds per-point runs — in [`Fig8::grid`] order — into the figure.
    ///
    /// # Errors
    ///
    /// [`ExperimentError::Grid`] when `runs` doesn't match the grid.
    pub fn assemble(runs: &[AppRun]) -> Result<Fig8, ExperimentError> {
        let grid = Self::grid();
        if runs.len() != grid.len() {
            return Err(ExperimentError::Grid(format!(
                "fig8 expects {} runs, got {}",
                grid.len(),
                runs.len()
            )));
        }
        let rows = grid
            .chunks(2)
            .zip(runs.chunks(2))
            .map(|(points, pair)| Fig8Row {
                app: points[0].app.app_name().to_string(),
                config: points[0].app.label(),
                accesses_no_p2p: pair[0].metrics.dram_accesses,
                accesses_p2p: pair[1].metrics.dram_accesses,
            })
            .collect();
        Ok(Fig8 { rows })
    }
}

impl fmt::Display for Fig8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "FIG. 8 — DRAM ACCESSES, no-p2p vs p2p (normalized)")?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:<26} ({:>9}): no-p2p 100% ({} words) | p2p {:>5.1}% ({} words) | {:.2}x reduction",
                r.app,
                r.config,
                r.accesses_no_p2p,
                r.p2p_pct(),
                r.accesses_p2p,
                r.reduction(),
            )?;
        }
        Ok(())
    }
}

/// The application-level accuracy experiment: how much classification
/// accuracy the Night-Vision and Denoiser pre-processing stages recover,
/// in float software and on the fixed-point SoC pipelines.
///
/// The paper motivates both pipelines qualitatively (dark/noisy street
/// images are "significantly more laborious"); this report quantifies the
/// mechanism end to end, including the HLS4ML quantization and the real
/// accelerator datapath.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AccuracyReport {
    /// Samples evaluated per row.
    pub n: u64,
    /// Float classifier on clean images.
    pub clean_float: f64,
    /// Float classifier applied directly to darkened images.
    pub dark_direct_float: f64,
    /// Float Night-Vision + classifier on darkened images.
    pub dark_nv_float: f64,
    /// The on-SoC fixed-point NV + classifier p2p pipeline.
    pub dark_soc_fixed: f64,
    /// Float classifier applied directly to noisy images.
    pub noisy_direct_float: f64,
    /// Float denoiser + classifier on noisy images.
    pub noisy_denoised_float: f64,
    /// The on-SoC fixed-point denoiser + classifier p2p pipeline.
    pub noisy_soc_fixed: f64,
}

impl AccuracyReport {
    /// Generates the report over `n` samples (the SoC rows simulate `n`
    /// frames each).
    ///
    /// # Errors
    ///
    /// Build or runtime failures.
    pub fn generate(models: &TrainedModels, n: u64) -> Result<AccuracyReport, ExperimentError> {
        use esp4ml_baseline::SoftwareApp;
        use esp4ml_nn::Matrix;

        let app_sw = SoftwareApp::new(
            Some(models.classifier().clone()),
            Some(models.denoiser().clone()),
        );
        let classify_float = |image: &[f32]| -> usize {
            let x = Matrix::from_vec(1, image.len(), image.to_vec());
            models.classifier().predict_classes(&x)[0]
        };

        // The exact frame sequences the SoC runs see.
        let nv_app = CaseApp::NightVisionClassifier { nv: 4, cl: 4 };
        let de_app = CaseApp::DenoiserClassifier;
        let nv_frames = models.input_frames(&nv_app, DATA_SEED, n);
        let de_frames = models.input_frames(&de_app, DATA_SEED, n);

        let mut hits = [0u64; 5]; // clean, dark-direct, dark-nv, noisy-direct, noisy-denoised
        for (dark, &label_nv) in nv_frames.images().iter().zip(nv_frames.labels()) {
            // The clean image is the darkened one un-scaled (darken is a
            // pure multiplication by 0.25).
            let clean: Vec<f32> = dark.iter().map(|&v| (v / 0.25).min(1.0)).collect();
            if classify_float(&clean) == label_nv {
                hits[0] += 1;
            }
            if classify_float(dark) == label_nv {
                hits[1] += 1;
            }
            if app_sw.night_vision_classify(dark) == label_nv {
                hits[2] += 1;
            }
        }
        for (noisy, &label_de) in de_frames.images().iter().zip(de_frames.labels()) {
            if classify_float(noisy) == label_de {
                hits[3] += 1;
            }
            if app_sw.denoise_classify(noisy) == label_de {
                hits[4] += 1;
            }
        }
        let frac = |h: u64| h as f64 / n as f64;

        let soc_nv = AppRun::execute(&nv_app, models, n, ExecMode::P2p, RunOptions::default())?;
        let soc_de = AppRun::execute(&de_app, models, n, ExecMode::P2p, RunOptions::default())?;

        Ok(AccuracyReport {
            n,
            clean_float: frac(hits[0]),
            dark_direct_float: frac(hits[1]),
            dark_nv_float: frac(hits[2]),
            dark_soc_fixed: soc_nv.accuracy(),
            noisy_direct_float: frac(hits[3]),
            noisy_denoised_float: frac(hits[4]),
            noisy_soc_fixed: soc_de.accuracy(),
        })
    }
}

impl fmt::Display for AccuracyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "APPLICATION ACCURACY over {} samples", self.n)?;
        let pct = |v: f64| format!("{:.1}%", 100.0 * v);
        writeln!(
            f,
            "  clean images, float classifier:              {:>7}",
            pct(self.clean_float)
        )?;
        writeln!(
            f,
            "  darkened, float classifier (no NV):          {:>7}",
            pct(self.dark_direct_float)
        )?;
        writeln!(
            f,
            "  darkened, float NV + classifier:             {:>7}",
            pct(self.dark_nv_float)
        )?;
        writeln!(
            f,
            "  darkened, on-SoC fixed NV + classifier:      {:>7}",
            pct(self.dark_soc_fixed)
        )?;
        writeln!(
            f,
            "  noisy, float classifier (no denoiser):       {:>7}",
            pct(self.noisy_direct_float)
        )?;
        writeln!(
            f,
            "  noisy, float denoiser + classifier:          {:>7}",
            pct(self.noisy_denoised_float)
        )?;
        writeln!(
            f,
            "  noisy, on-SoC fixed denoiser + classifier:   {:>7}",
            pct(self.noisy_soc_fixed)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn models() -> TrainedModels {
        TrainedModels::untrained()
    }

    #[test]
    fn app_run_denoiser_classifier_p2p() {
        let run = AppRun::execute(
            &CaseApp::DenoiserClassifier,
            &models(),
            3,
            ExecMode::P2p,
            RunOptions::default(),
        )
        .unwrap();
        assert_eq!(run.metrics.frames, 3);
        assert_eq!(run.predictions.len(), 3);
        assert!(run.metrics.frames_per_second() > 0.0);
        assert!(run.watts > 0.2);
        assert!(run.predictions.iter().all(|&p| p < 10));
    }

    #[test]
    fn app_run_multi_tile_all_modes_agree() {
        let m = models();
        let mut preds = Vec::new();
        for mode in ExecMode::ALL {
            let run = AppRun::execute(
                &CaseApp::MultiTileClassifier,
                &m,
                3,
                mode,
                RunOptions::default(),
            )
            .unwrap();
            preds.push(run.predictions.clone());
        }
        assert_eq!(preds[0], preds[1]);
        assert_eq!(preds[1], preds[2]);
    }

    #[test]
    fn fig8_shows_reduction_for_denoiser() {
        let m = models();
        let run = |mode| {
            AppRun::execute(
                &CaseApp::DenoiserClassifier,
                &m,
                3,
                mode,
                RunOptions::default(),
            )
            .unwrap()
        };
        let (no_p2p, p2p) = (run(ExecMode::Pipe), run(ExecMode::P2p));
        let row = Fig8Row {
            app: "x".into(),
            config: "y".into(),
            accesses_no_p2p: no_p2p.metrics.dram_accesses,
            accesses_p2p: p2p.metrics.dram_accesses,
        };
        assert!(
            row.reduction() > 2.0 && row.reduction() < 3.5,
            "reduction {:.2} outside the paper's 2-3x band",
            row.reduction()
        );
    }

    #[test]
    fn profiled_session_collects_report() {
        let mut session = TraceSession::profiled(None);
        let run = AppRun::execute(
            &CaseApp::DenoiserClassifier,
            &models(),
            3,
            ExecMode::P2p,
            RunOptions::default().traced(&mut session),
        )
        .unwrap();
        assert_eq!(session.profiles().len(), 1);
        let report = &session.profiles()[0];
        assert_eq!(report.run.frames, 3);
        assert_eq!(report.run.pipeline.count(), 3);
        // Two pipeline stages, named after their kernels.
        let names: Vec<&str> = report.run.stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["denoiser", "cl_de"]);
        let b = report.run.bottleneck.as_ref().expect("bottleneck report");
        assert!(names.contains(&b.limiting_stage.as_str()));
        // The stage bound can never exceed the observed period.
        assert!(b.bound_cycles_per_frame <= b.observed_cycles_per_frame);
        assert!(b.speedup_ceiling >= 1.0);
        // Every simulated cycle of each instance is attributed.
        for acc in report.run.accels.values() {
            assert_eq!(acc.breakdown.total(), report.run.cycles());
        }
        // p2p traffic shows up on the DMA planes of the heatmap.
        assert!(report.heatmap.total_flits() > 0);
        assert_eq!(run.metrics.frames, 3);
        assert!(session.profiles_json().contains("denoiser"));
        assert!(session.profile_summary().contains("bottleneck"));
    }

    #[test]
    fn multi_tile_stages_stay_distinct() {
        let mut session = TraceSession::profiled(None);
        AppRun::execute(
            &CaseApp::MultiTileClassifier,
            &models(),
            2,
            ExecMode::Pipe,
            RunOptions::default().traced(&mut session),
        )
        .unwrap();
        let report = &session.profiles()[0];
        // Five sequential single-instance stages must not be merged.
        let names: Vec<&str> = report.run.stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["cls_l0", "cls_l1", "cls_l2", "cls_l3", "cls_l4"]);
        assert_eq!(report.run.frames, 2);
    }

    #[test]
    fn night_vision_pipeline_runs_p2p() {
        let run = AppRun::execute(
            &CaseApp::NightVisionClassifier { nv: 2, cl: 2 },
            &models(),
            4,
            ExecMode::P2p,
            RunOptions::default(),
        )
        .unwrap();
        assert_eq!(run.metrics.frames, 4);
        // p2p carries the NV output directly: DRAM sees input + labels only.
        let expected = 4 * 256 + 4 * 3;
        assert_eq!(run.metrics.dram_accesses, expected);
    }
}

#[cfg(test)]
mod cache_tests {
    use super::*;
    use esp4ml_fault::{FaultKind, FaultSpec};
    use esp4ml_soc::EngineCounters;

    const FRAMES: u64 = 2;

    /// Everything `points` return, as text, in order.
    fn run_all(points: &[GridPoint], models: &TrainedModels, opts: &RunKind<'_>) -> Vec<String> {
        points
            .iter()
            .map(|p| {
                let opts = RunOptions {
                    kind: *opts,
                    ..RunOptions::default()
                };
                let run = AppRun::execute(&p.app, models, FRAMES, p.mode, opts).expect("runs");
                format!("{run:?}")
            })
            .collect()
    }

    /// The engine counters of one plain point run by hand.
    fn counters(p: &GridPoint, models: &TrainedModels) -> EngineCounters {
        let mut rt = EspRuntime::new(p.app.build_soc(models).expect("builds")).expect("boots");
        let dataflow = p.app.dataflow();
        let buf = rt.prepare(&dataflow, FRAMES).expect("fits");
        let inputs = models.input_frames(&p.app, DATA_SEED, FRAMES);
        for (f, image) in (0..).zip(inputs.images()) {
            rt.write_frame(&buf, f, &encode_image(image))
                .expect("writes");
        }
        rt.run(&RunSpec::new(&dataflow).mode(p.mode), &buf)
            .expect("runs");
        rt.soc().engine_counters()
    }

    #[test]
    fn a_second_grid_on_warm_models_only_hits_the_caches() {
        let grid = Fig7::grid();
        let models = TrainedModels::untrained();
        let first = run_all(&grid, &models, &RunKind::Plain);
        let warm = models.cache_counts();
        assert_eq!(warm.frame_misses, 3, "one frame set per input kind");
        assert!(warm.kernel_memo_hits > 0, "copies share their memo");
        let second = run_all(&grid, &models, &RunKind::Plain);
        let after = models.cache_counts();
        assert_eq!(second, first, "warm caches change no byte");
        assert_eq!(after.kernel_memo_misses, warm.kernel_memo_misses);
        assert_eq!(
            after.kernel_memo_hits - warm.kernel_memo_hits,
            warm.kernel_memo_hits + warm.kernel_memo_misses,
            "every memoized invocation hits"
        );
        assert_eq!(after.frame_misses, warm.frame_misses);
        assert_eq!(after.frame_hits - warm.frame_hits, grid.len() as u64);
        let cold = TrainedModels::untrained();
        assert_eq!(run_all(&grid, &cold, &RunKind::Plain), first);
        for p in &grid {
            let label = p.label();
            assert_eq!(counters(p, &models), counters(p, &cold), "{label}");
        }
    }

    #[test]
    fn concurrent_executes_from_one_models_agree() {
        let grid: Vec<GridPoint> = Fig7::grid().into_iter().step_by(2).collect();
        let models = TrainedModels::untrained();
        let [a, b] = std::thread::scope(|s| {
            let workers = [0, 1].map(|_| s.spawn(|| run_all(&grid, &models, &RunKind::Plain)));
            workers.map(|w| w.join().expect("no panic"))
        });
        assert_eq!(a, b);
        assert_eq!(
            a,
            run_all(&grid, &TrainedModels::untrained(), &RunKind::Plain)
        );
    }

    /// Corrupted payloads reach the kernels as inputs no clean run sees;
    /// they miss the memo, and the faulted results equal those of cold
    /// models.
    #[test]
    fn corrupted_inputs_miss_the_memo_and_change_nothing() {
        let plan = FaultPlan::new(0).with(FaultSpec::new(FaultKind::NocCorrupt {
            plane: 4,
            from_packet: 0,
            count: 64,
            xor_mask: 0x00ff_00ff_00ff_00ff,
        }));
        let grid: Vec<GridPoint> = Fig7::grid()
            .into_iter()
            .filter(|p| p.mode == ExecMode::P2p)
            .collect();
        let models = TrainedModels::untrained();
        run_all(&grid, &models, &RunKind::Plain);
        let clean = models.cache_counts();
        let faulted = run_all(&grid, &models, &RunKind::Faulted(&plan));
        assert!(
            models.cache_counts().kernel_memo_misses > clean.kernel_memo_misses,
            "a corrupted input is a new key"
        );
        let cold = TrainedModels::untrained();
        assert_eq!(faulted, run_all(&grid, &cold, &RunKind::Faulted(&plan)));
    }
}
