//! Parallel execution of experiment grids across OS threads.
//!
//! Every [`GridPoint`] of a figure/table is an independent simulation —
//! its own SoC, its own runtime, nothing shared but the (read-only)
//! trained models — so the harness can scatter points across a scoped
//! thread pool. Workers steal the next un-run point from a shared
//! atomic cursor; results land in index-addressed slots, so collection order is
//! the grid order regardless of which worker finished when, and the
//! assembled figure is bit-identical to a serial run.
//!
//! Tracing stays serial by design: a [`esp4ml::TraceSession`] interleaves
//! events from every run into one timeline, which only makes sense when
//! the runs execute one after another.

use crate::request::{ProgressSink, ProgressTracker};
use esp4ml::apps::TrainedModels;
use esp4ml::experiments::{AppRun, ExperimentError, GridPoint, RunKind, RunOptions};
use esp4ml_fault::FaultPlan;
use esp4ml_soc::SocEngine;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A sensible worker count: the machine's available parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs every grid point under `engine` on up to `jobs` worker threads
/// and returns the runs **in grid order**.
///
/// Every point runs as a cold [`AppRun::execute`] on its own freshly
/// loaded SoC, and workers steal the next point from a shared cursor.
/// `jobs <= 1` is the one-worker case of the same loop, run on the
/// calling thread: the serial oracle the other settings are checked
/// against.
///
/// `_fork_prefix` is ignored: every point runs cold. It stays only
/// because the benchmark harness (`perfbench/src/grid.rs`) still passes
/// it.
///
/// With `sanitize` set, every point runs under the full runtime
/// invariant sanitizer ([`RunKind::Sanitized`]); the first violated
/// invariant fails the grid with its typed diagnostics.
///
/// With `faults` set, every point installs the fault plan on its SoC
/// and arms the watchdog/retry/failover recovery layer
/// ([`RunKind::Faulted`]): every worker injects the same plan, so the
/// grid stays deterministic.
///
/// With `progress` set, one cumulative [`Progress`](crate::request::Progress)
/// snapshot is published per grid point **in grid order**, regardless of
/// worker scheduling: workers only publish the contiguous prefix of
/// finished slots through one `ProgressTracker`, so the snapshot sequence
/// is byte-identical to a serial run.
///
/// # Errors
///
/// [`ExperimentError::Grid`] up front when both `sanitize` and `faults`
/// are set (as [`crate::request::RunRequest::validate`] refuses them);
/// otherwise the first (in grid order) point that failed to build or run,
/// or whose sanitizer found violations.
#[allow(clippy::too_many_arguments)] // mirrors the RunRequest field set
pub fn run_grid(
    points: &[GridPoint],
    models: &TrainedModels,
    frames: u64,
    engine: SocEngine,
    jobs: usize,
    sanitize: bool,
    faults: Option<&FaultPlan>,
    _fork_prefix: bool,
    progress: Option<&dyn ProgressSink>,
) -> Result<Vec<AppRun>, ExperimentError> {
    let kind = match (sanitize, faults) {
        (true, Some(_)) => {
            return Err(ExperimentError::Grid(
                "faults cannot be combined with sanitize; injected faults deliberately \
                 break the invariants the sanitizer audits"
                    .into(),
            ))
        }
        (true, None) => RunKind::Sanitized,
        (false, Some(plan)) => RunKind::Faulted(plan),
        (false, None) => RunKind::Plain,
    };
    let slots: Vec<Mutex<Option<Result<AppRun, ExperimentError>>>> =
        points.iter().map(|_| Mutex::new(None)).collect();
    // The first slot not yet published, and the progress accumulator.
    // Whoever fills a slot advances the contiguous finished prefix, so
    // snapshots always come out in grid order.
    let publisher = Mutex::new((0, ProgressTracker::new(progress, points.len() as u64)));
    let finish = |i: usize, result: Result<AppRun, ExperimentError>| {
        *slots[i].lock().expect("slot lock") = Some(result);
        let mut publisher = publisher.lock().expect("publisher lock");
        let (next, tracker) = &mut *publisher;
        while let Some(slot) = slots.get(*next) {
            match slot.lock().expect("slot lock").as_ref() {
                Some(Ok(run)) => tracker.advance_run(run),
                // A failed point fails the whole grid; stop publishing
                // rather than skip past the error.
                Some(Err(_)) | None => break,
            }
            *next += 1;
        }
    };
    let cursor = AtomicUsize::new(0);
    let worker = || loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(point) = points.get(i) else { break };
        let opts = RunOptions {
            engine,
            session: None,
            kind,
        };
        let run = AppRun::execute(&point.app, models, frames, point.mode, opts);
        finish(i, run);
    };
    let workers = jobs.min(points.len()).max(1);
    if workers == 1 {
        worker();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(worker);
            }
        });
    }
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock")
                .expect("every point ran, so every slot is filled")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp4ml::experiments::Fig8;
    use esp4ml_runtime::ExecMode;

    /// Points scattered across workers reproduce the serial run point
    /// for point: plain, sanitized, and under a recoverable fault plan.
    #[test]
    fn parallel_matches_serial_on_fig8_grid() {
        use esp4ml_fault::FaultSpec;

        let models = TrainedModels::untrained();
        let grid = Fig8::grid();
        // A transient denoiser hang (retried) and a permanent classifier
        // hang (failed over to a spare instance).
        let faults = FaultPlan::new(0)
            .with(FaultSpec::transient_hang("denoiser", 0))
            .with(FaultSpec::permanent_hang("cl0"));
        for (sanitize, faults) in [(false, None), (true, None), (false, Some(&faults))] {
            let run = |jobs| {
                let engine = SocEngine::EventDriven;
                run_grid(
                    &grid, &models, 2, engine, jobs, sanitize, faults, false, None,
                )
                .unwrap()
            };
            let serial = run(1);
            if sanitize {
                assert!(serial
                    .iter()
                    .all(|r| r.sanitizer.as_ref().is_some_and(|v| v.is_clean())));
            }
            if faults.is_some() {
                assert!(serial.iter().any(|r| r.metrics.retries > 0));
                assert!(serial.iter().any(|r| r.metrics.failovers > 0));
            }
            let parallel = run(4);
            assert_eq!(serial.len(), parallel.len());
            for (s, p) in serial.iter().zip(&parallel) {
                let what = format!("{} {:?} sanitize={sanitize}", s.label, s.mode);
                assert_eq!(s.label, p.label, "{what}");
                assert_eq!(s.mode, p.mode, "{what}");
                assert_eq!(s.metrics, p.metrics, "{what}");
                assert_eq!(s.predictions, p.predictions, "{what}");
                assert_eq!(s.watts, p.watts, "{what}");
                assert_eq!(s.software_fallback, p.software_fallback, "{what}");
                assert_eq!(s.sanitizer, p.sanitizer, "{what}");
            }
            let fig_s = Fig8::assemble(&serial).unwrap();
            let fig_p = Fig8::assemble(&parallel).unwrap();
            for (a, b) in fig_s.rows.iter().zip(&fig_p.rows) {
                assert_eq!(a.accesses_no_p2p, b.accesses_no_p2p);
                assert_eq!(a.accesses_p2p, b.accesses_p2p);
            }
        }
    }

    #[test]
    fn sanitize_with_faults_is_rejected_up_front() {
        let models = TrainedModels::untrained();
        let grid = Fig8::grid();
        let faults = FaultPlan::default();
        let err = run_grid(
            &grid,
            &models,
            2,
            SocEngine::EventDriven,
            1,
            true,
            Some(&faults),
            false,
            None,
        )
        .unwrap_err();
        match err {
            ExperimentError::Grid(msg) => {
                assert!(
                    msg.contains("faults cannot be combined with sanitize"),
                    "{msg}"
                )
            }
            other => panic!("expected a grid error, got {other}"),
        }
    }

    #[test]
    fn grid_point_labels_are_stable() {
        let grid = Fig8::grid();
        assert_eq!(grid.len(), 6);
        assert!(grid.iter().step_by(2).all(|p| p.mode == ExecMode::Pipe));
        assert!(grid
            .iter()
            .skip(1)
            .step_by(2)
            .all(|p| p.mode == ExecMode::P2p));
    }
}
