//! Measures simulation speed: the naive cycle-by-cycle engine vs the
//! event-driven fast-forward engine, and serial vs the parallel grid
//! driver — and verifies along the way that both engines and the
//! parallel driver produce **identical** run metrics on every grid point
//! (cycle-exactness is a hard invariant, not a statistical claim).
//!
//! ```text
//! cargo run --release -p esp4ml-bench --bin sim_speed -- --frames 16 --out BENCH_sim_speed.json
//! ```
//!
//! The JSON artifact is committed at the repo root and refreshed by the
//! CI bench-baseline job, so speedup regressions show up in review.

use esp4ml::apps::TrainedModels;
use esp4ml::experiments::{AppRun, Fig7, GridPoint, Table1};
use esp4ml_bench::cli::{self, HarnessSpec, SIM_SPEED_FLAGS};
use esp4ml_bench::parallel;
use esp4ml_soc::SocEngine;
use serde::Serialize;
use std::path::PathBuf;
use std::time::Instant;

#[derive(Debug, Serialize)]
struct GridReport {
    grid: String,
    engine: String,
    points: usize,
    frames: u64,
    simulated_cycles: u64,
    naive_serial_secs: f64,
    event_serial_secs: f64,
    event_parallel_secs: f64,
    parallel_jobs: usize,
    event_vs_naive_speedup: f64,
    parallel_vs_serial_speedup: f64,
    cycle_exact: bool,
}

#[derive(Debug, Serialize)]
struct Report {
    version: String,
    frames: u64,
    grids: Vec<GridReport>,
}

fn measure(
    name: &str,
    points: &[GridPoint],
    models: &TrainedModels,
    frames: u64,
    jobs: usize,
) -> Result<GridReport, Box<dyn std::error::Error>> {
    let time = |engine: SocEngine,
                jobs: usize|
     -> Result<(Vec<AppRun>, f64), Box<dyn std::error::Error>> {
        let start = Instant::now();
        let runs = parallel::run_grid(
            points, models, frames, engine, jobs, false, None, false, None,
        )?;
        Ok((runs, start.elapsed().as_secs_f64()))
    };
    // `run_grid` clamps the pool to the grid size; report the worker
    // count that actually ran so the JSON artifact is honest.
    let jobs = jobs.min(points.len());
    // Every leg shares `models`. An untimed pass fills its compile,
    // kernel memo and frame caches, so that no timed leg pays for them
    // alone.
    time(SocEngine::EventDriven, 1)?;
    let (naive, naive_serial_secs) = time(SocEngine::Naive, 1)?;
    let (event, event_serial_secs) = time(SocEngine::EventDriven, 1)?;
    let (par, event_parallel_secs) = time(SocEngine::EventDriven, jobs)?;
    let cycle_exact = naive
        .iter()
        .zip(&event)
        .zip(&par)
        .all(|((n, e), p)| n.metrics == e.metrics && e.metrics == p.metrics);
    let simulated_cycles = naive.iter().map(|r| r.metrics.cycles).sum();
    Ok(GridReport {
        grid: name.to_string(),
        engine: "event-driven".to_string(),
        points: points.len(),
        frames,
        simulated_cycles,
        naive_serial_secs,
        event_serial_secs,
        event_parallel_secs,
        parallel_jobs: jobs,
        event_vs_naive_speedup: naive_serial_secs / event_serial_secs.max(f64::EPSILON),
        parallel_vs_serial_speedup: event_serial_secs / event_parallel_secs.max(f64::EPSILON),
        cycle_exact,
    })
}

fn main() {
    let spec = HarnessSpec::new(
        "sim_speed",
        "time whole grids (naive vs event-driven, serial vs parallel); \
         the report goes to BENCH_sim_speed.json unless --out is given",
        SIM_SPEED_FLAGS,
    )
    // The parallel leg must actually exercise the pool: on a single-core
    // box `default_jobs()` is 1, which silently degenerated the
    // "parallel" measurement into a second serial run.
    .with_defaults(|d| {
        d.frames = 16;
        d.jobs = parallel::default_jobs().max(2);
    });
    let args =
        cli::parse(&spec, std::env::args().skip(1)).unwrap_or_else(|e| cli::exit_on_error(e));
    let (frames, jobs) = (args.frames, args.jobs);
    let out = args
        .out
        .unwrap_or_else(|| PathBuf::from("BENCH_sim_speed.json"));
    let models = TrainedModels::untrained();
    let grids: [(&str, Vec<GridPoint>); 2] = [("table1", Table1::grid()), ("fig7", Fig7::grid())];
    let mut report = Report {
        version: env!("CARGO_PKG_VERSION").to_string(),
        frames,
        grids: Vec::new(),
    };
    for (name, points) in &grids {
        eprintln!("measuring {name} grid ({} points)...", points.len());
        match measure(name, points, &models, frames, jobs) {
            Ok(g) => {
                println!(
                    "{:<8} {:>2} points: naive {:.2}s | event {:.2}s ({:.1}x) | \
                     parallel x{} {:.2}s ({:.1}x) | cycle-exact: {}",
                    g.grid,
                    g.points,
                    g.naive_serial_secs,
                    g.event_serial_secs,
                    g.event_vs_naive_speedup,
                    g.parallel_jobs,
                    g.event_parallel_secs,
                    g.parallel_vs_serial_speedup,
                    g.cycle_exact,
                );
                report.grids.push(g);
            }
            Err(e) => {
                eprintln!("{name} failed: {e}");
                std::process::exit(1);
            }
        }
    }
    if report.grids.iter().any(|g| !g.cycle_exact) {
        eprintln!("FAIL: engines diverged — the event-driven engine is not cycle-exact");
        std::process::exit(1);
    }
    match serde_json::to_value(&report) {
        Ok(payload) => {
            let json = esp4ml::trace::schema::envelope_json("sim-speed", payload);
            if let Err(e) = std::fs::write(&out, json + "\n") {
                eprintln!("failed to write {}: {e}", out.display());
                std::process::exit(1);
            }
            println!("wrote {}", out.display());
        }
        Err(e) => {
            eprintln!("failed to serialize report: {e}");
            std::process::exit(1);
        }
    }
}
