//! The one command-line parser behind every harness binary.
//!
//! fig7/fig8/table1/espprof/espspan/espfault/espcheck/accuracy/training/
//! sim_speed all parse the same [`HarnessArgs`] through [`parse`],
//! differing only in the [`HarnessSpec`] naming which [`Flag`]s they
//! accept and what their defaults are. One flag therefore has one spelling, one help
//! line, and one error message everywhere — `--engine` cannot drift
//! between binaries — and every binary answers `--help`.

use crate::parallel;
use esp4ml_fault::FaultPlan;
use esp4ml_runtime::ExecMode;
use esp4ml_soc::SocEngine;
use std::path::PathBuf;

/// Every option any harness binary understands. A binary opts into a
/// subset via its [`HarnessSpec`]; the flag's token, value placeholder
/// and help line are shared, so the `--help` text and error messages
/// are identical wherever the flag appears.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    /// `--frames N`
    Frames,
    /// `--samples N`
    Samples,
    /// `--epochs N`
    Epochs,
    /// `--trace PATH`
    Trace,
    /// `--profile PATH`
    Profile,
    /// `--spans PATH`
    Spans,
    /// `--sample-every CYCLES`
    SampleEvery,
    /// `--engine naive|event`
    Engine,
    /// `--jobs N`
    Jobs,
    /// `--sanitize`
    Sanitize,
    /// `--faults PLAN.json`
    Faults,
    /// `--config IDX` (a Fig. 7 configuration index, repeatable)
    Config,
    /// `--config PATH` (a configuration file to lint, repeatable)
    ConfigPath,
    /// `--all`
    All,
    /// `--mode base|pipe|p2p` (repeatable)
    Mode,
    /// `--seeds N`
    Seeds,
    /// `--json PATH`
    Json,
    /// `--flame PATH`
    Flame,
    /// `--metrics PATH`
    Metrics,
    /// `--out PATH`
    Out,
    /// `--progress`
    Progress,
    /// `--deployment DEPLOY.json`
    Deployment,
    /// `--explain CODE`
    Explain,
}

impl Flag {
    /// The command-line token.
    pub fn token(self) -> &'static str {
        match self {
            Flag::Frames => "--frames",
            Flag::Samples => "--samples",
            Flag::Epochs => "--epochs",
            Flag::Trace => "--trace",
            Flag::Profile => "--profile",
            Flag::Spans => "--spans",
            Flag::SampleEvery => "--sample-every",
            Flag::Engine => "--engine",
            Flag::Jobs => "--jobs",
            Flag::Sanitize => "--sanitize",
            Flag::Faults => "--faults",
            Flag::Config | Flag::ConfigPath => "--config",
            Flag::All => "--all",
            Flag::Mode => "--mode",
            Flag::Seeds => "--seeds",
            Flag::Json => "--json",
            Flag::Flame => "--flame",
            Flag::Metrics => "--metrics",
            Flag::Out => "--out",
            Flag::Progress => "--progress",
            Flag::Deployment => "--deployment",
            Flag::Explain => "--explain",
        }
    }

    /// Placeholder for the flag's value (`None` for boolean switches).
    pub fn value_name(self) -> Option<&'static str> {
        match self {
            Flag::Frames | Flag::Samples | Flag::Epochs | Flag::Jobs | Flag::Seeds => Some("N"),
            Flag::SampleEvery => Some("CYCLES"),
            Flag::Engine => Some("naive|event"),
            Flag::Mode => Some("base|pipe|p2p"),
            Flag::Config => Some("IDX"),
            Flag::Faults => Some("PLAN.json"),
            Flag::Deployment => Some("DEPLOY.json"),
            Flag::Explain => Some("CODE"),
            Flag::Trace
            | Flag::Profile
            | Flag::Spans
            | Flag::ConfigPath
            | Flag::Json
            | Flag::Flame
            | Flag::Metrics
            | Flag::Out => Some("PATH"),
            Flag::Sanitize | Flag::All | Flag::Progress => None,
        }
    }

    /// One-line description for `--help`.
    pub fn help(self) -> &'static str {
        match self {
            Flag::Frames => "simulated frames per measurement point",
            Flag::Samples => "training samples",
            Flag::Epochs => "training epochs",
            Flag::Trace => "write a Chrome trace_event JSON of every run",
            Flag::Profile => "profile every run online and write the report JSON",
            Flag::Spans => "assemble frame-level span trees and write the report JSON",
            Flag::SampleEvery => "with --trace, sample the SoC counters every CYCLES cycles",
            Flag::Engine => "simulation engine",
            Flag::Jobs => "worker threads for grid execution",
            Flag::Sanitize => "audit every run with the runtime invariant sanitizer",
            Flag::Faults => "install the fault plan on every run's SoC (recovery armed)",
            Flag::Config => "configuration/grid-point index to run (repeatable; default: all)",
            Flag::ConfigPath => "lint the configuration file instead of the built-ins (repeatable)",
            Flag::All => "sweep every Fig. 7 configuration",
            Flag::Mode => "execution mode to run (repeatable; default: pipe and p2p)",
            Flag::Seeds => "number of campaign seeds to sweep",
            Flag::Json => "write the machine-readable report JSON",
            Flag::Flame => "write folded flame stacks",
            Flag::Metrics => "write the enveloped run-metrics artifact JSON",
            Flag::Out => "write the enveloped report JSON",
            Flag::Progress => "print one progress JSON line to stderr per completed unit",
            Flag::Deployment => "statically analyze a multi-tenant deployment file (E07xx)",
            Flag::Explain => "print the documentation for a stable diagnostic code and exit",
        }
    }

    /// `--frames N` / `--sanitize` — the form used in usage listings.
    fn usage_form(self) -> String {
        match self.value_name() {
            Some(v) => format!("{} {v}", self.token()),
            None => self.token().to_string(),
        }
    }
}

/// The flag set of the figure/table harnesses (`fig7`, `fig8`). They
/// run untrained weights, as the job server does, so their artifacts
/// match the server's byte for byte.
pub const FIGURE_FLAGS: &[Flag] = &[
    Flag::Frames,
    Flag::Trace,
    Flag::Profile,
    Flag::Spans,
    Flag::SampleEvery,
    Flag::Engine,
    Flag::Jobs,
    Flag::Sanitize,
    Flag::Faults,
    Flag::Config,
    Flag::Metrics,
    Flag::Progress,
];

/// `table1` — the figure set minus `--faults` (the table's platform
/// comparison is meaningless under injected faults).
pub const TABLE_FLAGS: &[Flag] = &[
    Flag::Frames,
    Flag::Trace,
    Flag::Profile,
    Flag::Spans,
    Flag::SampleEvery,
    Flag::Engine,
    Flag::Jobs,
    Flag::Sanitize,
    Flag::Config,
    Flag::Metrics,
    Flag::Progress,
];

/// `espprof` — one configuration across execution modes, profiled.
pub const ESPPROF_FLAGS: &[Flag] = &[
    Flag::Frames,
    Flag::Config,
    Flag::Mode,
    Flag::Engine,
    Flag::Json,
    Flag::Metrics,
    Flag::Progress,
];

/// `espspan` — configurations across execution modes, span-assembled.
pub const ESPSPAN_FLAGS: &[Flag] = &[
    Flag::Frames,
    Flag::Config,
    Flag::All,
    Flag::Mode,
    Flag::Engine,
    Flag::Json,
    Flag::Flame,
    Flag::Metrics,
    Flag::Progress,
];

/// `espfault` — seeded fault-injection campaigns.
pub const ESPFAULT_FLAGS: &[Flag] = &[
    Flag::Frames,
    Flag::Seeds,
    Flag::Engine,
    Flag::Json,
    Flag::Progress,
];

/// `espcheck` — the static linter (no simulation flags at all).
pub const ESPCHECK_FLAGS: &[Flag] = &[
    Flag::ConfigPath,
    Flag::Deployment,
    Flag::Explain,
    Flag::Json,
];

/// `sim_speed` — engine and parallel timings of whole grids.
pub const SIM_SPEED_FLAGS: &[Flag] = &[Flag::Frames, Flag::Jobs, Flag::Out];

/// `accuracy`/`training` — training-budget flags only.
pub const TRAINING_FLAGS: &[Flag] = &[Flag::Frames, Flag::Samples, Flag::Epochs];

/// What one binary accepts: its name, a one-line description, the
/// [`Flag`]s it understands, and the [`HarnessArgs`] it starts from.
#[derive(Debug, Clone)]
pub struct HarnessSpec {
    /// Binary name for the usage line.
    pub binary: &'static str,
    /// One-line description printed by `--help`.
    pub about: &'static str,
    /// Accepted flags, in help/usage order.
    pub flags: &'static [Flag],
    /// Starting values (per-binary defaults differ, e.g. `--frames`).
    pub defaults: HarnessArgs,
}

impl HarnessSpec {
    /// Builds a spec with the workspace-wide [`HarnessArgs::default`]s.
    pub fn new(binary: &'static str, about: &'static str, flags: &'static [Flag]) -> HarnessSpec {
        HarnessSpec {
            binary,
            about,
            flags,
            defaults: HarnessArgs::default(),
        }
    }

    /// Adjusts the starting [`HarnessArgs`] (e.g. `espprof` defaults to
    /// 8 frames where the figures default to 64).
    pub fn with_defaults(mut self, tweak: impl FnOnce(&mut HarnessArgs)) -> HarnessSpec {
        tweak(&mut self.defaults);
        self
    }

    fn supported(&self) -> String {
        self.flags
            .iter()
            .map(|f| f.usage_form())
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Renders the `--help` text.
    pub fn render_help(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "usage: {} [options]\n\n{}\n\noptions:\n",
            self.binary, self.about
        );
        for flag in self.flags {
            let default = self.default_note(*flag);
            let _ = writeln!(
                out,
                "  {:<24} {}{}",
                flag.usage_form(),
                flag.help(),
                default
                    .map(|d| format!(" (default: {d})"))
                    .unwrap_or_default(),
            );
        }
        let _ = writeln!(out, "  {:<24} print this help", "--help");
        out
    }

    /// The default shown in `--help` for value-taking flags whose
    /// starting value is meaningful.
    fn default_note(&self, flag: Flag) -> Option<String> {
        match flag {
            Flag::Frames => Some(self.defaults.frames.to_string()),
            Flag::Samples => Some(self.defaults.samples.to_string()),
            Flag::Epochs => Some(self.defaults.epochs.to_string()),
            Flag::Jobs => Some(self.defaults.jobs.to_string()),
            Flag::Seeds => Some(self.defaults.seeds.to_string()),
            Flag::Engine => Some(self.defaults.engine.name().to_string()),
            _ => None,
        }
    }
}

/// Why parsing stopped without producing a [`HarnessArgs`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// `--help` was requested; the payload is the rendered help text.
    Help(String),
    /// A usage error; the payload is the message for stderr.
    Usage(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Help(text) | CliError::Usage(text) => f.write_str(text),
        }
    }
}

impl std::error::Error for CliError {}

/// Terminates the process per the harness exit-status contract: help
/// goes to stdout with status 0, usage errors to stderr with status 2.
pub fn exit_on_error(err: CliError) -> ! {
    match err {
        CliError::Help(text) => {
            println!("{text}");
            std::process::exit(0);
        }
        CliError::Usage(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    }
}

/// Command-line options shared by the harness binaries. Which fields a
/// given binary can actually set is governed by its [`HarnessSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessArgs {
    /// Frames to simulate per measurement point.
    pub frames: u64,
    /// Training samples.
    pub samples: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Where to write the Chrome trace JSON, when tracing is on.
    pub trace: Option<PathBuf>,
    /// Where to write the profile report JSON, when profiling is on.
    pub profile: Option<PathBuf>,
    /// Where to write the span-report JSON, when span assembly is on
    /// (a Perfetto flow-linked span trace lands next to it).
    pub spans: Option<PathBuf>,
    /// Counter sampling period in cycles (requires `trace`).
    pub sample_every: Option<u64>,
    /// Simulation engine driving every run.
    pub engine: SocEngine,
    /// Worker threads for grid execution (ignored when tracing).
    pub jobs: usize,
    /// Run every grid point with the runtime invariant sanitizer armed;
    /// any violation fails the harness with the typed diagnostics.
    pub sanitize: bool,
    /// Fault plan JSON to install on every run's SoC, with the
    /// watchdog/retry/failover recovery layer armed.
    pub faults: Option<PathBuf>,
    /// Fig. 7 configuration indices (`--config IDX`, repeatable).
    pub configs: Vec<usize>,
    /// Configuration files to lint (`--config PATH`, repeatable).
    pub config_paths: Vec<PathBuf>,
    /// Sweep every Fig. 7 configuration (`--all`).
    pub all: bool,
    /// Execution modes to run (`--mode`, repeatable).
    pub modes: Vec<ExecMode>,
    /// Campaign seeds to sweep (`--seeds N`).
    pub seeds: u64,
    /// Where to write the machine-readable report JSON (`--json`).
    pub json: Option<PathBuf>,
    /// Where to write folded flame stacks (`--flame`).
    pub flame: Option<PathBuf>,
    /// Where to write the enveloped run-metrics artifact (`--metrics`).
    pub metrics: Option<PathBuf>,
    /// Where to write a binary's enveloped report (`--out`).
    pub out: Option<PathBuf>,
    /// Print one progress JSON line to stderr per completed unit
    /// (`--progress`).
    pub progress: bool,
    /// Deployment files to analyze (`--deployment`, repeatable).
    pub deployments: Vec<PathBuf>,
    /// Diagnostic code to document and exit (`--explain CODE`).
    pub explain: Option<String>,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        HarnessArgs {
            frames: 64,
            samples: 6000,
            epochs: 30,
            trace: None,
            profile: None,
            spans: None,
            sample_every: None,
            engine: SocEngine::default(),
            jobs: parallel::default_jobs(),
            sanitize: false,
            faults: None,
            configs: Vec::new(),
            config_paths: Vec::new(),
            all: false,
            modes: Vec::new(),
            seeds: 2,
            json: None,
            flame: None,
            metrics: None,
            out: None,
            progress: false,
            deployments: Vec::new(),
            explain: None,
        }
    }
}

/// Parses `std::env::args`-style options against a binary's spec.
/// Unknown options are rejected with a message listing the supported
/// ones; `--help`/`-h` short-circuits with the rendered help text.
///
/// # Errors
///
/// [`CliError::Help`] on a help request, [`CliError::Usage`] otherwise.
pub fn parse(
    spec: &HarnessSpec,
    args: impl Iterator<Item = String>,
) -> Result<HarnessArgs, CliError> {
    parse_inner(spec, args).map_err(|e| match e {
        HelpOrMsg::Help => CliError::Help(spec.render_help()),
        HelpOrMsg::Msg(m) => CliError::Usage(m),
    })
}

enum HelpOrMsg {
    Help,
    Msg(String),
}

impl From<String> for HelpOrMsg {
    fn from(m: String) -> Self {
        HelpOrMsg::Msg(m)
    }
}

fn parse_inner(
    spec: &HarnessSpec,
    args: impl Iterator<Item = String>,
) -> Result<HarnessArgs, HelpOrMsg> {
    let mut out = spec.defaults.clone();
    let mut it = args;
    while let Some(arg) = it.next() {
        if arg == "--help" || arg == "-h" {
            return Err(HelpOrMsg::Help);
        }
        let Some(&flag) = spec.flags.iter().find(|f| f.token() == arg) else {
            return Err(format!("unknown option {arg}; supported: {}", spec.supported()).into());
        };
        let mut value = || -> Result<String, String> {
            it.next()
                .ok_or_else(|| format!("{} needs a value", flag.token()))
        };
        let mut number = || -> Result<u64, String> {
            value()?
                .parse::<u64>()
                .map_err(|e| format!("{}: {e}", flag.token()))
        };
        match flag {
            Flag::Frames => out.frames = number()?,
            Flag::Samples => out.samples = number()? as usize,
            Flag::Epochs => out.epochs = number()? as usize,
            Flag::Trace => out.trace = Some(PathBuf::from(value()?)),
            Flag::Profile => out.profile = Some(PathBuf::from(value()?)),
            Flag::Spans => out.spans = Some(PathBuf::from(value()?)),
            Flag::SampleEvery => out.sample_every = Some(number()?),
            Flag::Engine => {
                out.engine = match value()?.as_str() {
                    "naive" => SocEngine::Naive,
                    "event" | "event-driven" => SocEngine::EventDriven,
                    other => return Err(format!("--engine: unknown engine {other}").into()),
                }
            }
            Flag::Jobs => out.jobs = number()? as usize,
            Flag::Sanitize => out.sanitize = true,
            Flag::Faults => out.faults = Some(PathBuf::from(value()?)),
            Flag::Config => out.configs.push(number()? as usize),
            Flag::ConfigPath => out.config_paths.push(PathBuf::from(value()?)),
            Flag::All => out.all = true,
            Flag::Mode => {
                let v = value()?;
                let mode = ExecMode::from_label(&v).ok_or(format!("--mode: unknown mode {v}"))?;
                out.modes.push(mode);
            }
            Flag::Seeds => out.seeds = number()?,
            Flag::Json => out.json = Some(PathBuf::from(value()?)),
            Flag::Flame => out.flame = Some(PathBuf::from(value()?)),
            Flag::Metrics => out.metrics = Some(PathBuf::from(value()?)),
            Flag::Out => out.out = Some(PathBuf::from(value()?)),
            Flag::Progress => out.progress = true,
            Flag::Deployment => out.deployments.push(PathBuf::from(value()?)),
            Flag::Explain => out.explain = Some(value()?),
        }
    }
    validate(spec, &out)?;
    Ok(out)
}

/// Cross-flag rules, applied only where the spec accepts the flags
/// involved (so `espcheck` never complains about `--frames`).
fn validate(spec: &HarnessSpec, out: &HarnessArgs) -> Result<(), String> {
    let has = |f: Flag| spec.flags.contains(&f);
    if has(Flag::Frames) && out.frames == 0 {
        return Err("--frames must be at least 1".into());
    }
    if has(Flag::SampleEvery) {
        if out.sample_every == Some(0) {
            return Err("--sample-every must be at least 1".into());
        }
        if out.sample_every.is_some() && out.trace.is_none() {
            return Err("--sample-every requires --trace".into());
        }
    }
    if has(Flag::Jobs) && out.jobs == 0 {
        return Err("--jobs must be at least 1".into());
    }
    if has(Flag::Seeds) && out.seeds == 0 {
        return Err("--seeds must be at least 1".into());
    }
    if has(Flag::Sanitize)
        && out.sanitize
        && (out.trace.is_some() || out.profile.is_some() || out.spans.is_some())
    {
        return Err(
            "--sanitize cannot be combined with --trace/--profile/--spans; \
             run them separately"
                .into(),
        );
    }
    if has(Flag::Faults)
        && out.faults.is_some()
        && (out.trace.is_some() || out.profile.is_some() || out.spans.is_some() || out.sanitize)
    {
        return Err(
            "--faults cannot be combined with --trace/--profile/--spans/--sanitize; \
             injected faults deliberately break the invariants those audit"
                .into(),
        );
    }
    if has(Flag::All) && out.all && !out.configs.is_empty() {
        return Err("--all and --config are mutually exclusive".into());
    }
    Ok(())
}

impl HarnessArgs {
    /// Loads the `--faults` plan file (`None` when the flag was not
    /// given). The campaign watchdog and recovery policy are armed by
    /// the run itself, so the server and the CLI can never disagree on
    /// them.
    ///
    /// # Errors
    ///
    /// File or JSON failures, as a printable message.
    pub fn fault_plan(&self) -> Result<Option<FaultPlan>, String> {
        let Some(path) = &self.faults else {
            return Ok(None);
        };
        let json = std::fs::read_to_string(path)
            .map_err(|e| format!("--faults {}: {e}", path.display()))?;
        let plan = FaultPlan::from_json(&json)
            .map_err(|e| format!("--faults {}: not a fault plan: {e}", path.display()))?;
        Ok(Some(plan))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_spec(spec: &HarnessSpec, v: &[&str]) -> Result<HarnessArgs, CliError> {
        parse(spec, v.iter().map(|s| s.to_string()))
    }

    fn parse_figure(v: &[&str]) -> Result<HarnessArgs, CliError> {
        parse_spec(&HarnessSpec::new("fig7", "f", FIGURE_FLAGS), v)
    }

    #[test]
    fn defaults() {
        let a = parse_figure(&[]).unwrap();
        assert_eq!(a.frames, 64);
        assert_eq!((a.samples, a.epochs), (6000, 30));
    }

    #[test]
    fn overrides() {
        let a = parse_figure(&["--frames", "8"]).unwrap();
        assert_eq!(a.frames, 8);
        let spec = HarnessSpec::new("training", "t", TRAINING_FLAGS);
        let a = parse_spec(&spec, &["--samples", "100", "--epochs", "2"]).unwrap();
        assert_eq!((a.samples, a.epochs), (100, 2));
    }

    #[test]
    fn rejects_unknown_and_invalid() {
        assert!(parse_figure(&["--bogus"]).is_err());
        assert!(parse_figure(&["--frames"]).is_err());
        assert!(parse_figure(&["--frames", "abc"]).is_err());
        assert!(parse_figure(&["--frames", "0"]).is_err());
        // `--fork-prefix` is not an option: every grid point runs cold.
        assert!(parse_figure(&["--fork-prefix"]).is_err());
        // The figures run untrained weights, as the job server does;
        // only `accuracy` and `training` train.
        for flag in [&["--train"][..], &["--samples", "100"], &["--epochs", "2"]] {
            assert!(parse_figure(flag).is_err(), "{flag:?}");
        }
        assert!(parse_figure(&["--no-train"]).is_err());
    }

    #[test]
    fn unknown_option_lists_the_specs_flags_only() {
        let spec = HarnessSpec::new("espfault", "", ESPFAULT_FLAGS);
        let err = parse_spec(&spec, &["--bogus"]).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unknown option --bogus"), "{msg}");
        assert!(msg.contains("--seeds N"), "{msg}");
        assert!(!msg.contains("--sanitize"), "{msg}");
    }

    #[test]
    fn sanitize_option() {
        let a = parse_figure(&["--sanitize"]).unwrap();
        assert!(a.sanitize);
        assert!(!parse_figure(&[]).unwrap().sanitize);
        assert!(parse_figure(&["--sanitize", "--trace", "/tmp/t.json"]).is_err());
        assert!(parse_figure(&["--sanitize", "--profile", "/tmp/p.json"]).is_err());
    }

    #[test]
    fn engine_and_jobs_options() {
        let a = parse_figure(&["--engine", "naive", "--jobs", "3"]).unwrap();
        assert_eq!(a.engine, SocEngine::Naive);
        assert_eq!(a.jobs, 3);
        let a = parse_figure(&["--engine", "event"]).unwrap();
        assert_eq!(a.engine, SocEngine::EventDriven);
        assert!(parse_figure(&["--engine", "warp"]).is_err());
        assert!(parse_figure(&["--jobs", "0"]).is_err());
    }

    #[test]
    fn faults_option() {
        let a = parse_figure(&["--faults", "/tmp/plan.json"]).unwrap();
        assert_eq!(
            a.faults.as_deref(),
            Some(std::path::Path::new("/tmp/plan.json"))
        );
        assert!(parse_figure(&[]).unwrap().faults.is_none());
        assert!(parse_figure(&["--faults"]).is_err());
        assert!(parse_figure(&["--faults", "p.json", "--sanitize"]).is_err());
        assert!(parse_figure(&["--faults", "p.json", "--trace", "/tmp/t.json"]).is_err());
        assert!(parse_figure(&["--faults", "p.json", "--profile", "/tmp/p.json"]).is_err());
    }

    #[test]
    fn fault_config_loads_a_plan_file() {
        use esp4ml_fault::FaultSpec;
        let dir = std::env::temp_dir().join("esp4ml_bench_faults_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plan.json");
        let plan = FaultPlan::new(9).with(FaultSpec::transient_hang("nv0", 0));
        std::fs::write(&path, plan.to_json().unwrap()).unwrap();
        let args = parse_figure(&["--faults", path.to_str().unwrap()]).unwrap();
        assert_eq!(args.fault_plan().unwrap(), Some(plan));
        std::fs::write(&path, "not json").unwrap();
        assert!(args.fault_plan().is_err());
        assert!(parse_figure(&[]).unwrap().fault_plan().unwrap().is_none());
    }

    #[test]
    fn profile_option() {
        let a = parse_figure(&["--profile", "/tmp/p.json"]).unwrap();
        assert_eq!(
            a.profile.as_deref(),
            Some(std::path::Path::new("/tmp/p.json"))
        );
        assert!(a.trace.is_none());
        assert!(parse_figure(&["--profile"]).is_err());
    }

    #[test]
    fn spans_option() {
        let a = parse_figure(&["--spans", "/tmp/s.json"]).unwrap();
        assert_eq!(
            a.spans.as_deref(),
            Some(std::path::Path::new("/tmp/s.json"))
        );
        assert!(parse_figure(&[]).unwrap().spans.is_none());
        assert!(parse_figure(&["--spans"]).is_err());
        // Spans compose with trace and profile...
        assert!(parse_figure(&["--spans", "s.json", "--trace", "t.json"]).is_ok());
        assert!(parse_figure(&["--spans", "s.json", "--profile", "p.json"]).is_ok());
        // ...but not with the sanitizer or fault injection.
        assert!(parse_figure(&["--spans", "s.json", "--sanitize"]).is_err());
        assert!(parse_figure(&["--spans", "s.json", "--faults", "f.json"]).is_err());
    }

    #[test]
    fn trace_options() {
        let a = parse_figure(&["--trace", "/tmp/t.json", "--sample-every", "500"]).unwrap();
        assert_eq!(
            a.trace.as_deref(),
            Some(std::path::Path::new("/tmp/t.json"))
        );
        assert_eq!(a.sample_every, Some(500));
        assert!(parse_figure(&["--trace"]).is_err());
        assert!(
            parse_figure(&["--sample-every", "100"]).is_err(),
            "needs --trace"
        );
        assert!(parse_figure(&["--trace", "/tmp/t.json", "--sample-every", "0"]).is_err());
    }

    #[test]
    fn metrics_option() {
        let a = parse_figure(&["--metrics", "/tmp/m.json"]).unwrap();
        assert_eq!(
            a.metrics.as_deref(),
            Some(std::path::Path::new("/tmp/m.json"))
        );
        assert!(parse_figure(&["--metrics"]).is_err());
    }

    #[test]
    fn help_is_a_distinct_outcome() {
        let spec = HarnessSpec::new("fig7", "Regenerates Fig. 7.", FIGURE_FLAGS);
        match parse_spec(&spec, &["--help"]) {
            Err(CliError::Help(text)) => {
                assert!(text.starts_with("usage: fig7 [options]"), "{text}");
                assert!(text.contains("--frames N"), "{text}");
                assert!(text.contains("(default: 64)"), "{text}");
                assert!(text.contains("--help"), "{text}");
            }
            other => panic!("expected help, got {other:?}"),
        }
        assert!(matches!(parse_spec(&spec, &["-h"]), Err(CliError::Help(_))));
    }

    #[test]
    fn help_lines_are_identical_across_binaries() {
        let fig = HarnessSpec::new("fig7", "a", FIGURE_FLAGS).render_help();
        let prof = HarnessSpec::new("espprof", "b", ESPPROF_FLAGS)
            .with_defaults(|d| d.frames = 8)
            .render_help();
        // The shared flags render the same help line everywhere.
        let line = |help: &str, token: &str| -> String {
            help.lines()
                .find(|l| l.trim_start().starts_with(token))
                .unwrap_or_default()
                .trim_start()
                .to_string()
        };
        assert_eq!(line(&fig, "--engine"), line(&prof, "--engine"));
        assert_eq!(line(&fig, "--metrics"), line(&prof, "--metrics"));
    }

    #[test]
    fn spec_gates_flags_and_defaults() {
        let spec = HarnessSpec::new("espprof", "p", ESPPROF_FLAGS).with_defaults(|d| d.frames = 8);
        let a = parse_spec(&spec, &[]).unwrap();
        assert_eq!(a.frames, 8);
        // Figure-only flags are unknown here.
        assert!(parse_spec(&spec, &["--trace", "/tmp/t.json"]).is_err());
        // Repeatable --config and --mode accumulate.
        let a = parse_spec(&spec, &["--config", "1", "--config", "4", "--mode", "base"]).unwrap();
        assert_eq!(a.configs, vec![1, 4]);
        assert_eq!(a.modes, vec![ExecMode::Base]);
        assert!(parse_spec(&spec, &["--mode", "warp"]).is_err());
    }

    #[test]
    fn sim_speed_spec_takes_out() {
        let spec = HarnessSpec::new("sim_speed", "s", SIM_SPEED_FLAGS);
        let a = parse_spec(&spec, &["--frames", "16", "--out", "b.json", "--jobs", "3"]).unwrap();
        assert_eq!((a.frames, a.jobs), (16, 3));
        assert_eq!(a.out, Some(PathBuf::from("b.json")));
        assert!(parse_spec(&spec, &["--out"]).is_err());
        assert!(parse_spec(&spec, &["--sanitize"]).is_err());
        assert!(matches!(
            parse_spec(&spec, &["--help"]),
            Err(CliError::Help(_))
        ));
    }

    #[test]
    fn all_excludes_config() {
        let spec = HarnessSpec::new("espspan", "s", ESPSPAN_FLAGS);
        assert!(parse_spec(&spec, &["--all"]).is_ok());
        let err = parse_spec(&spec, &["--all", "--config", "1"]).unwrap_err();
        assert_eq!(err.to_string(), "--all and --config are mutually exclusive");
    }

    #[test]
    fn seeds_validation_only_where_accepted() {
        let spec =
            HarnessSpec::new("espfault", "f", ESPFAULT_FLAGS).with_defaults(|d| d.frames = 3);
        assert!(parse_spec(&spec, &["--seeds", "0"]).is_err());
        let a = parse_spec(&spec, &["--seeds", "5"]).unwrap();
        assert_eq!(a.seeds, 5);
    }

    #[test]
    fn espcheck_spec_takes_config_paths() {
        let spec = HarnessSpec::new("espcheck", "c", ESPCHECK_FLAGS);
        let a = parse_spec(&spec, &["--config", "a.json", "--config", "b.json"]).unwrap();
        assert_eq!(
            a.config_paths,
            vec![PathBuf::from("a.json"), PathBuf::from("b.json")]
        );
        assert!(a.configs.is_empty());
        assert!(parse_spec(&spec, &["--frames", "4"]).is_err());
        // Linting is one pass with no units to report progress on.
        assert!(parse_spec(&spec, &["--progress"]).is_err());
    }

    #[test]
    fn espcheck_spec_takes_deployment_and_explain() {
        let spec = HarnessSpec::new("espcheck", "c", ESPCHECK_FLAGS);
        let a = parse_spec(&spec, &["--deployment", "d.json", "--deployment", "e.json"]).unwrap();
        assert_eq!(
            a.deployments,
            vec![PathBuf::from("d.json"), PathBuf::from("e.json")]
        );
        let a = parse_spec(&spec, &["--explain", "E0703"]).unwrap();
        assert_eq!(a.explain.as_deref(), Some("E0703"));
        assert!(parse_spec(&spec, &["--explain"]).is_err());
        // Figure harnesses do not take deployment flags.
        let fig = HarnessSpec::new("fig7", "f", FIGURE_FLAGS);
        assert!(parse_spec(&fig, &["--deployment", "d.json"]).is_err());
    }
}
