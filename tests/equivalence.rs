//! Cycle-exactness equivalence suite: the event-driven fast-forward
//! engine must be indistinguishable from the naive cycle-by-cycle engine
//! on every workload of the evaluation — same metrics, same cycle counts,
//! same outputs. The naive engine is the oracle; any divergence is a bug
//! in a `progress`/`advance` implementation, never a tolerance issue.

use esp4ml::apps::TrainedModels;
use esp4ml::experiments::{AppRun, Fig7, Fig8, GridPoint, RunOptions, Table1};
use esp4ml::soc::SocEngine;
use esp4ml::TraceSession;
use esp4ml_runtime::ExecMode;
use proptest::prelude::*;

fn assert_engines_agree(point: &GridPoint, models: &TrainedModels, frames: u64) {
    let run = |engine| {
        AppRun::execute(
            &point.app,
            models,
            frames,
            point.mode,
            RunOptions::new(engine),
        )
    };
    let naive =
        run(SocEngine::Naive).unwrap_or_else(|e| panic!("{} naive failed: {e}", point.label()));
    let event = run(SocEngine::EventDriven)
        .unwrap_or_else(|e| panic!("{} event-driven failed: {e}", point.label()));
    assert_eq!(
        naive.metrics,
        event.metrics,
        "{} @ {frames} frames: metrics diverged between engines",
        point.label()
    );
    assert_eq!(
        naive.predictions,
        event.predictions,
        "{} @ {frames} frames: outputs diverged between engines",
        point.label()
    );
}

/// Every Fig. 7 grid point — all five accelerator configurations of all
/// three application clusters, in all three execution modes. The Table I
/// and Fig. 8 grids are subsets of this one (best configs × p2p, best
/// configs × {pipe, p2p}), so this single sweep covers every workload of
/// the evaluation.
#[test]
fn engines_agree_on_every_fig7_grid_point() {
    let models = TrainedModels::untrained();
    let fig7 = Fig7::grid();
    for point in &fig7 {
        assert_engines_agree(point, &models, 2);
    }
    // Sanity: the claimed subset relationships actually hold.
    for point in Table1::grid().iter().chain(Fig8::grid().iter()) {
        assert!(
            fig7.contains(point),
            "{} not covered by the fig7 sweep",
            point.label()
        );
    }
}

/// Runs `point` with the online profiler attached and returns the
/// serialized profile report list.
fn profile_json(
    point: &GridPoint,
    models: &TrainedModels,
    frames: u64,
    engine: SocEngine,
) -> String {
    let mut session = TraceSession::profiled(None);
    let opts = RunOptions::new(engine).traced(&mut session);
    AppRun::execute(&point.app, models, frames, point.mode, opts)
        .unwrap_or_else(|e| panic!("{} profiled run failed: {e}", point.label()));
    serde_json::to_string(session.profiles()).expect("profile serialization")
}

/// The profiler consumes the trace stream online, so it is only
/// engine-safe if both engines emit identical event streams. Prove it
/// end-to-end: on every Fig. 7 grid point the full profile report —
/// frame-latency histograms, per-stage time-in-state breakdowns,
/// bottleneck analysis, and the per-link NoC heatmap — must serialize
/// byte-identically under both engines.
#[test]
fn engines_agree_on_profile_reports() {
    let models = TrainedModels::untrained();
    for point in &Fig7::grid() {
        let naive = profile_json(point, &models, 2, SocEngine::Naive);
        let event = profile_json(point, &models, 2, SocEngine::EventDriven);
        assert!(
            !naive.is_empty() && naive != "[]",
            "{}: profiled run produced no report",
            point.label()
        );
        assert_eq!(
            naive,
            event,
            "{}: profile reports diverged between engines",
            point.label()
        );
    }
}

/// Runs `point` with the span collector (and its agreement profiler)
/// attached and returns the serialized span report list.
fn span_json(point: &GridPoint, models: &TrainedModels, frames: u64, engine: SocEngine) -> String {
    let mut session = TraceSession::spanned(None, true);
    let opts = RunOptions::new(engine).traced(&mut session);
    AppRun::execute(&point.app, models, frames, point.mode, opts)
        .unwrap_or_else(|e| panic!("{} spanned run failed: {e}", point.label()));
    serde_json::to_string(session.span_reports()).expect("span serialization")
}

/// The span assembler is event-derived exactly like the profiler, so
/// its reports — per-frame span trees, critical links, and the
/// aggregated critical path — must also serialize byte-identically
/// under both engines on every Fig. 7 grid point.
#[test]
fn engines_agree_on_span_reports() {
    let models = TrainedModels::untrained();
    for point in &Fig7::grid() {
        let naive = span_json(point, &models, 2, SocEngine::Naive);
        let event = span_json(point, &models, 2, SocEngine::EventDriven);
        assert!(
            !naive.is_empty() && naive != "[]",
            "{}: spanned run produced no report",
            point.label()
        );
        assert_eq!(
            naive,
            event,
            "{}: span reports diverged between engines",
            point.label()
        );
    }
}

/// The collectors observe one stream independently, so which of them a
/// session chains must not change what each reports. On every Fig. 8
/// point, span reports are byte-identical with and without the profiler
/// beside the span collector, and profile reports are byte-identical
/// with and without the span collector beside the profiler.
#[test]
fn collector_combinations_agree_on_every_fig8_point() {
    let models = TrainedModels::untrained();
    let run = |point: &GridPoint, mut session: TraceSession| {
        let opts = RunOptions::new(SocEngine::EventDriven).traced(&mut session);
        AppRun::execute(&point.app, &models, 2, point.mode, opts)
            .unwrap_or_else(|e| panic!("{} observed run failed: {e}", point.label()));
        (
            serde_json::to_string(session.span_reports()).expect("span serialization"),
            serde_json::to_string(session.profiles()).expect("profile serialization"),
        )
    };
    for point in &Fig8::grid() {
        let (spans_only, _) = run(point, TraceSession::spanned(None, false));
        let (_, profile_only) = run(point, TraceSession::profiled(None));
        let (spans, profiles) = run(point, TraceSession::spanned(None, true));
        assert!(spans != "[]" && profiles != "[]", "{}", point.label());
        assert_eq!(spans_only, spans, "{}: span reports differ", point.label());
        assert_eq!(
            profile_only,
            profiles,
            "{}: profile reports differ",
            point.label()
        );
    }
}

/// On every Fig. 7 grid point the aggregated critical path must name
/// the same limiting stage as the profiler's bottleneck report — the
/// agreement `espspan` checks at runtime. The span collector embeds the
/// profiler's `RunAccum` and takes its critical path from that
/// accumulator's bottleneck, so this guards that both collectors saw
/// the same event stream, not two independent derivations.
#[test]
fn span_critical_path_matches_profiler_on_every_fig7_point() {
    let models = TrainedModels::untrained();
    for point in &Fig7::grid() {
        let mut session = TraceSession::spanned(None, true);
        AppRun::execute(
            &point.app,
            &models,
            2,
            point.mode,
            RunOptions::new(SocEngine::EventDriven).traced(&mut session),
        )
        .unwrap_or_else(|e| panic!("{} spanned run failed: {e}", point.label()));
        let report = session.span_reports().first().expect("span report");
        let bottleneck = session
            .profiles()
            .first()
            .and_then(|p| p.run.bottleneck.as_ref())
            .unwrap_or_else(|| panic!("{}: no bottleneck report", point.label()));
        let cp = report
            .critical_path
            .as_ref()
            .unwrap_or_else(|| panic!("{}: no critical path", point.label()));
        assert_eq!(
            cp.limiting_stage,
            bottleneck.limiting_stage,
            "{}: critical path disagrees with the profiler",
            point.label()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random (configuration, mode, frame count) points: the engines must
    /// agree off the figure grids too, including frame counts that don't
    /// divide evenly across multi-instance stages.
    #[test]
    fn engines_agree_on_random_points(
        config in 0usize..5,
        mode_idx in 0usize..3,
        frames in 1u64..6,
    ) {
        let models = TrainedModels::untrained();
        let app = esp4ml::CaseApp::all_fig7_configs()[config];
        let mode = ExecMode::ALL[mode_idx];
        assert_engines_agree(&GridPoint { app, mode }, &models, frames);
    }

    /// The attribution invariant — every cycle of a frame's end-to-end
    /// latency lands in exactly one span — must hold on arbitrary
    /// (configuration, mode, frame count) points of the Fig. 7 space,
    /// under both engines.
    #[test]
    fn span_attribution_is_exact_on_fig7_points(
        config in 0usize..5,
        mode_idx in 0usize..3,
        frames in 1u64..6,
    ) {
        let models = TrainedModels::untrained();
        let app = esp4ml::CaseApp::all_fig7_configs()[config];
        let mode = ExecMode::ALL[mode_idx];
        let point = GridPoint { app, mode };
        for engine in [SocEngine::Naive, SocEngine::EventDriven] {
            let mut session = TraceSession::spanned(None, false);
            let opts = RunOptions::new(engine).traced(&mut session);
            AppRun::execute(&app, &models, frames, mode, opts)
                .unwrap_or_else(|e| panic!("{} spanned run failed: {e}", point.label()));
            let report = session.span_reports().first().expect("span report");
            prop_assert_eq!(
                report.frames.len() as u64,
                frames,
                "{}: expected one span tree per frame",
                point.label()
            );
            if let Err(e) = report.check_attribution() {
                panic!("{} ({engine:?}): {e}", point.label());
            }
        }
    }
}
