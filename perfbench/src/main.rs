//! `perfbench`: the benchmark that performance changes to this
//! repository are judged by.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench --selftest [--seed N]
//! perfbench --write-goldens
//! ```
//!
//! Run it from the repository root; `perfbench/run.py` builds it and
//! passes its arguments on. The workloads are `fig7_sweep`,
//! `fig8_observed` and `serve_mix`; `BENCHMARK.json` records why each
//! was chosen. An untraced run (`--trace 0`) measures the end-to-end
//! metrics for `--seconds`. A traced run (`--trace 1`) wraps the calls
//! into each layer's public functions in spans, keeps them in memory,
//! writes them to `.bench_out/<workload>.trace.json` at the end, and
//! reports the per-layer metrics. Every run checks its outputs against
//! `perfbench/goldens/`. The last stdout line is one JSON record with
//! the keys `correct`, `attempted`, `failed` and `metrics`.
//!
//! `--write-goldens` regenerates the goldens from the library's serial,
//! unobserved runs; do that only when simulated behaviour is meant to
//! change. `--selftest` checks the `serve_mix` request generator.

mod calib;
mod grid;
mod layers;
mod serve_mix;
mod spans;
mod util;

use serde_json::{json, Value};
use std::process::ExitCode;
use std::time::Instant;

/// The goldens, relative to the repository root.
pub const GOLDEN_DIR: &str = "perfbench/goldens";
/// Where traced runs write their span logs.
pub const TRACE_DIR: &str = ".bench_out";
/// Set-up runs this many times per run; its median is reported.
const SETUP_REPS: usize = 5;
/// The largest share by which a call-by-call replay may differ from the
/// library call it stands for before the run warns: the end-to-end bound.
pub const REPLAY_TOLERANCE: f64 = 0.25;

const WORKLOADS: [&str; 3] = ["fig7_sweep", "fig8_observed", "serve_mix"];

const USAGE: &str = "usage: perfbench --workload fig7_sweep|fig8_observed|serve_mix \
                     --seed N --seconds S --trace 0|1\n       \
                     perfbench --selftest [--seed N]\n       \
                     perfbench --write-goldens";

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The `metrics` object of a record: name → `{value, unit}`.
pub fn metrics_json<'a>(metrics: impl Iterator<Item = &'a Metric>) -> Value {
    Value::Object(
        metrics
            .map(|m| (m.name.clone(), json!({"value": m.value, "unit": m.unit})))
            .collect(),
    )
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: workload executes, client requests, traced
    /// passes.
    pub attempted: u64,
    /// Operations that failed, were refused, or returned wrong output.
    pub failed: u64,
    /// Every failed check; any makes the run incorrect.
    pub problems: Vec<String>,
    /// The record's metrics: the end-to-end set untraced, the per-layer
    /// set traced. Both sets are the same for every workload.
    pub record: Vec<Metric>,
    /// Workload-specific metrics, printed but kept out of the record.
    pub extra: Vec<Metric>,
}

impl Outcome {
    pub fn record(&mut self, name: &str, value: f64, unit: &'static str) {
        let name = name.to_string();
        self.record.push(Metric { name, value, unit });
    }

    pub fn extra(&mut self, name: &str, value: f64, unit: &'static str) {
        let name = name.to_string();
        self.extra.push(Metric { name, value, unit });
    }

    /// Counts one operation with the problems its checks found; returns
    /// whether it passed.
    pub fn operation(&mut self, problems: Vec<String>) -> bool {
        self.attempted += 1;
        if problems.is_empty() {
            return true;
        }
        self.failed += 1;
        self.problems.extend(problems);
        false
    }

    /// Prints every metric by name and unit, the failed checks, and the
    /// record as the last line.
    fn print(&self) {
        for m in &self.record {
            println!("{:<28} {:>22} {}", m.name, m.value, m.unit);
        }
        for m in &self.extra {
            println!(
                "{:<28} {:>22} {} (not in the record)",
                m.name, m.value, m.unit
            );
        }
        let error_rate = util::ratio(self.failed as f64, self.attempted as f64);
        println!(
            "{:<28} {:>22} ratio ({} of {} operations failed)",
            "error_rate", error_rate, self.failed, self.attempted
        );
        for problem in &self.problems {
            eprintln!("check failed: {problem}");
        }
        let record = json!({
            "correct": self.problems.is_empty() && self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics_json(self.record.iter()),
        });
        println!(
            "{}",
            serde_json::to_string(&record).expect("a Value always serializes")
        );
    }
}

/// Runs a workload's set-up `SETUP_REPS` times and returns the median
/// seconds it took and the last result. The first repetition is timed
/// from `started`, so it also holds the process's own start.
pub fn timed_setup<T>(
    started: Instant,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut seconds = Vec::with_capacity(SETUP_REPS);
    let mut ready = None;
    for rep in 0..SETUP_REPS {
        // The previous repetition's result goes before the clock starts.
        drop(ready.take());
        let begin = if rep == 0 { started } else { Instant::now() };
        ready = Some(setup()?);
        seconds.push(begin.elapsed().as_secs_f64());
    }
    let ready = ready.expect("set-up ran at least once");
    Ok((util::median(&seconds), ready))
}

/// A measured run's arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// When `main` began: the first set-up is timed from here.
    pub started: Instant,
}

enum Command {
    Run(Args),
    Selftest(u64),
    WriteGoldens,
}

fn parse(started: Instant) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut mode = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--selftest" | "--write-goldens" => mode = Some(flag.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    match mode.as_deref() {
        Some("--write-goldens") => Ok(Command::WriteGoldens),
        Some(_) => Ok(Command::Selftest(seed)),
        None => {
            let workload = workload.ok_or("--workload is required")?;
            if !WORKLOADS.contains(&workload.as_str()) {
                return Err(format!("unknown workload {workload}"));
            }
            if !(seconds.is_finite() && seconds > 0.0) {
                return Err(format!("--seconds must be positive, not {seconds}"));
            }
            Ok(Command::Run(Args {
                workload,
                seed,
                seconds,
                trace,
                started,
            }))
        }
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let command = match parse(started) {
        Ok(command) => command,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match command {
        Command::WriteGoldens => grid::write_goldens().and_then(|()| serve_mix::write_goldens()),
        Command::Selftest(seed) => {
            println!("serve_mix seed {seed}: {}", serve_mix::shares(seed));
            let problems = serve_mix::selftest(seed);
            for problem in &problems {
                eprintln!("self-test failed: {problem}");
            }
            if problems.is_empty() {
                println!("serve_mix generator self-test passed for seed {seed}");
                Ok(())
            } else {
                Err("the serve_mix generator self-test failed".to_string())
            }
        }
        Command::Run(args) => match args.workload.as_str() {
            "fig7_sweep" => grid::run(grid::Grid::Fig7Sweep, &args),
            "fig8_observed" => grid::run(grid::Grid::Fig8Observed, &args),
            _ => serve_mix::run(&args),
        }
        .map(|outcome| outcome.print()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::FAILURE
        }
    }
}
