//! Parallel execution of experiment grids across OS threads.
//!
//! Every [`GridPoint`] of a figure/table is an independent simulation —
//! its own SoC, its own runtime, nothing shared but the (read-only)
//! trained models — so the harness can scatter points across a scoped
//! thread pool. Workers steal the next un-run work unit (a point, or a
//! group of points sharing a config prefix) from a shared atomic cursor;
//! results land in index-addressed slots, so collection order is
//! the grid order regardless of which worker finished when, and the
//! assembled figure is bit-identical to a serial run.
//!
//! Tracing stays serial by design: a [`esp4ml::TraceSession`] interleaves
//! events from every run into one timeline, which only makes sense when
//! the runs execute one after another.

use crate::request::{ProgressSink, ProgressTracker};
use esp4ml::apps::TrainedModels;
use esp4ml::experiments::{AppRun, ExperimentError, GridPoint, PreparedApp, RunKind, RunOptions};
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
/// The work units are prefix groups. Without `fork_prefix` every point
/// is its own group and runs as a cold [`AppRun::execute`]; with it,
/// points sharing a config-prefix key ([`GridPoint::prefix_key`]) form
/// one group, which executes its load/config phase once through a
/// [`PreparedApp`] and forks the warm snapshot across its modes (a group
/// of one runs cold, with no snapshot). Forked runs are byte-identical
/// to cold starts (the snapshot contract), so results, figures and
/// progress snapshots do not change, only the wall clock does. Workers
/// steal whole groups from a shared cursor. `jobs <= 1` is the
/// one-worker case of the same loop, run on the calling thread; with
/// cold starts it is the serial oracle the other settings are checked
/// against.
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
    fork_prefix: bool,
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
    let opts = || RunOptions {
        engine,
        session: None,
        kind,
    };
    // Work units as grid indices: singletons for cold starts, prefix
    // groups in first-appearance order when forking.
    let groups: Vec<Vec<usize>> = if fork_prefix {
        let mut keys: Vec<String> = Vec::new();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for (i, p) in points.iter().enumerate() {
            let key = p.prefix_key();
            match keys.iter().position(|k| *k == key) {
                Some(g) => groups[g].push(i),
                None => {
                    keys.push(key);
                    groups.push(vec![i]);
                }
            }
        }
        groups
    } else {
        (0..points.len()).map(|i| vec![i]).collect()
    };
    let exec_group = |group: &[usize]| -> Vec<(usize, Result<AppRun, ExperimentError>)> {
        let first = &points[group[0]];
        if let [i] = *group {
            return vec![(
                i,
                AppRun::execute(&first.app, models, frames, first.mode, opts()),
            )];
        }
        let mut prepared = match PreparedApp::load(&first.app, models, frames, opts()) {
            Ok(p) => p,
            Err(e) => {
                // The shared prefix failed: the real error lands in the
                // group's first (lowest) slot — the one grid-order
                // collection surfaces — with placeholders behind it.
                let mut out = vec![(group[0], Err(e))];
                out.extend(group[1..].iter().map(|&i| {
                    let label = points[i].label();
                    let msg = format!("shared config prefix failed to load for {label}");
                    (i, Err(ExperimentError::Grid(msg)))
                }));
                return out;
            }
        };
        group
            .iter()
            .map(|&i| (i, prepared.run(points[i].mode, None)))
            .collect()
    };
    let slots: Vec<Mutex<Option<Result<AppRun, ExperimentError>>>> =
        points.iter().map(|_| Mutex::new(None)).collect();
    // The first slot not yet published, and the progress accumulator.
    // Whoever fills a slot advances the contiguous finished prefix, so
    // snapshots always come out in grid order.
    let publisher = Mutex::new((0, ProgressTracker::new(progress, points.len() as u64)));
    let finish_group = |results: Vec<(usize, Result<AppRun, ExperimentError>)>| {
        for (i, result) in results {
            *slots[i].lock().expect("slot lock") = Some(result);
        }
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
        let g = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(group) = groups.get(g) else { break };
        finish_group(exec_group(group));
    };
    let workers = jobs.min(groups.len()).max(1);
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
                .expect("every group ran, so every slot is filled")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp4ml::experiments::Fig8;
    use esp4ml_runtime::ExecMode;

    #[test]
    fn parallel_matches_serial_on_fig8_grid() {
        let models = TrainedModels::untrained();
        let grid = Fig8::grid();
        let serial = run_grid(
            &grid,
            &models,
            2,
            SocEngine::EventDriven,
            1,
            false,
            None,
            false,
            None,
        )
        .unwrap();
        let parallel = run_grid(
            &grid,
            &models,
            2,
            SocEngine::EventDriven,
            4,
            false,
            None,
            false,
            None,
        )
        .unwrap();
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.label, p.label);
            assert_eq!(s.mode, p.mode);
            assert_eq!(s.metrics, p.metrics, "{} {:?}", s.label, s.mode);
            assert_eq!(s.predictions, p.predictions);
        }
        let fig_s = Fig8::assemble(&serial).unwrap();
        let fig_p = Fig8::assemble(&parallel).unwrap();
        for (a, b) in fig_s.rows.iter().zip(&fig_p.rows) {
            assert_eq!(a.accesses_no_p2p, b.accesses_no_p2p);
            assert_eq!(a.accesses_p2p, b.accesses_p2p);
        }
    }

    /// Prefix-forked grids — serial and with groups scattered across
    /// workers — reproduce the cold-start oracle run for run: plain,
    /// sanitized, and under a recoverable fault plan.
    #[test]
    fn forked_grid_matches_cold_start_oracle() {
        use esp4ml_fault::FaultSpec;

        let models = TrainedModels::untrained();
        let grid = Fig8::grid();
        // A transient denoiser hang (retried) and a permanent classifier
        // hang (failed over to a spare instance).
        let faults = FaultPlan::new(0)
            .with(FaultSpec::transient_hang("denoiser", 0))
            .with(FaultSpec::permanent_hang("cl0"));
        for (sanitize, faults) in [(false, None), (true, None), (false, Some(&faults))] {
            let run = |jobs, fork_prefix| {
                let engine = SocEngine::EventDriven;
                run_grid(
                    &grid,
                    &models,
                    2,
                    engine,
                    jobs,
                    sanitize,
                    faults,
                    fork_prefix,
                    None,
                )
                .unwrap()
            };
            let cold = run(1, false);
            if sanitize {
                assert!(cold
                    .iter()
                    .all(|r| r.sanitizer.as_ref().is_some_and(|v| v.is_clean())));
            }
            if faults.is_some() {
                assert!(cold.iter().any(|r| r.metrics.retries > 0));
                assert!(cold.iter().any(|r| r.metrics.failovers > 0));
            }
            for jobs in [1, 4] {
                let forked = run(jobs, true);
                assert_eq!(cold.len(), forked.len());
                for (c, f) in cold.iter().zip(&forked) {
                    let what = format!("{} {:?} jobs={jobs} sanitize={sanitize}", c.label, c.mode);
                    assert_eq!(c.label, f.label, "{what}");
                    assert_eq!(c.mode, f.mode, "{what}");
                    assert_eq!(c.metrics, f.metrics, "{what}");
                    assert_eq!(c.predictions, f.predictions, "{what}");
                    assert_eq!(c.watts, f.watts, "{what}");
                    assert_eq!(c.software_fallback, f.software_fallback, "{what}");
                    assert_eq!(c.sanitizer, f.sanitizer, "{what}");
                }
            }
        }
    }

    #[test]
    fn sanitize_with_faults_is_rejected_up_front() {
        let models = TrainedModels::untrained();
        let grid = Fig8::grid();
        let faults = FaultPlan::default();
        for fork_prefix in [false, true] {
            let err = run_grid(
                &grid,
                &models,
                2,
                SocEngine::EventDriven,
                1,
                true,
                Some(&faults),
                fork_prefix,
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
