//! Integration tests of the fault-injection and fault-tolerance layer:
//! seeded campaigns are byte-identical under both simulation engines,
//! Fig. 7 pipelines survive injected hangs through retry/failover, and
//! the whole machinery is zero-cost when no faults are configured.

use esp4ml::apps::{CaseApp, TrainedModels};
use esp4ml::experiments::{AppRun, RunOptions};
use esp4ml::faults::CampaignReport;
use esp4ml::runtime::ExecMode;
use esp4ml::trace::SpanKind;
use esp4ml::TraceSession;
use esp4ml_fault::{FaultPlan, FaultSpec};
use esp4ml_soc::SocEngine;

fn models() -> TrainedModels {
    TrainedModels::untrained()
}

fn faulted(plan: &FaultPlan) -> RunOptions<'_> {
    RunOptions::faulted(SocEngine::EventDriven, plan)
}

/// The acceptance scenario of the fault-tolerance work: a Fig. 7
/// three-stage pipeline (input → NV → classifier) with a permanently
/// hung classifier completes via retry + failover to the spare
/// classifier instance, with the degraded throughput visible in the
/// metrics.
#[test]
fn fig7_pipeline_survives_permanent_hang_via_failover() {
    let m = models();
    let app = CaseApp::NightVisionClassifier { nv: 2, cl: 2 };
    let healthy = AppRun::execute(&app, &m, 3, ExecMode::Pipe, RunOptions::default()).unwrap();
    let plan = FaultPlan::new(0).with(FaultSpec::permanent_hang("cl0"));
    let run = AppRun::execute(&app, &m, 3, ExecMode::Pipe, faulted(&plan)).unwrap();
    assert!(!run.software_fallback, "spares should absorb the hang");
    assert!(run.metrics.retries >= 1, "{:?}", run.metrics);
    assert!(run.metrics.failovers >= 1, "{:?}", run.metrics);
    assert!(run.metrics.faults_injected >= 1, "{:?}", run.metrics);
    // Same answers as the healthy pipeline, honestly slower.
    assert_eq!(run.predictions, healthy.predictions);
    assert!(
        run.metrics.frames_per_second() < healthy.metrics.frames_per_second(),
        "recovered run must report degraded throughput ({} vs {} f/s)",
        run.metrics.frames_per_second(),
        healthy.metrics.frames_per_second(),
    );
}

/// A pipeline stage with no spare (the lone denoiser) degrades to the
/// processor-tile software path instead of failing, and reports the
/// much lower software throughput.
#[test]
fn denoiser_hang_degrades_to_software_fallback() {
    let m = models();
    let app = CaseApp::DenoiserClassifier;
    let healthy = AppRun::execute(&app, &m, 3, ExecMode::Pipe, RunOptions::default()).unwrap();
    let plan = FaultPlan::new(0).with(FaultSpec::permanent_hang("denoiser"));
    let run = AppRun::execute(&app, &m, 3, ExecMode::Pipe, faulted(&plan)).unwrap();
    assert!(run.software_fallback);
    assert_eq!(run.metrics.frames, 3);
    assert_eq!(run.predictions.len(), 3);
    assert!(run.metrics.faults_injected >= 1);
    assert!(
        run.metrics.frames_per_second() < healthy.metrics.frames_per_second() / 10.0,
        "software fallback must be honestly slow ({} vs {} f/s)",
        run.metrics.frames_per_second(),
        healthy.metrics.frames_per_second(),
    );
}

/// A traced run that degrades to software still closes its observed
/// run: the session holds its profile, span report and NoC summary.
#[test]
fn traced_software_fallback_is_recorded() {
    let m = models();
    let app = CaseApp::DenoiserClassifier;
    let plan = FaultPlan::new(0).with(FaultSpec::permanent_hang("denoiser"));
    let mut session = TraceSession::spanned(None, true);
    let opts = faulted(&plan).traced(&mut session);
    let run = AppRun::execute(&app, &m, 3, ExecMode::Pipe, opts).unwrap();
    assert!(run.software_fallback);
    assert_eq!(session.span_reports().len(), 1);
    assert_eq!(session.profiles().len(), 1);
    assert_eq!(session.noc_stats().len(), 1);
}

/// A transient hang heals with retries alone — no failover, correct
/// output.
#[test]
fn transient_hang_recovers_with_retries_only() {
    let m = models();
    let app = CaseApp::DenoiserClassifier;
    let healthy = AppRun::execute(&app, &m, 3, ExecMode::P2p, RunOptions::default()).unwrap();
    let plan = FaultPlan::new(0).with(FaultSpec::transient_hang("denoiser", 0));
    let run = AppRun::execute(&app, &m, 3, ExecMode::P2p, faulted(&plan)).unwrap();
    assert!(!run.software_fallback);
    assert!(run.metrics.retries >= 1);
    assert_eq!(run.metrics.failovers, 0);
    assert_eq!(run.predictions, healthy.predictions);
}

/// The same seeded campaign produces a byte-identical JSON artifact
/// under the naive oracle and the event-driven engine: every fault
/// trigger counts architectural events, never engine artifacts.
#[test]
fn campaign_json_is_byte_identical_across_engines() {
    let m = models();
    let seeds = [1];
    let naive = CampaignReport::generate(&m, &seeds, 3, SocEngine::Naive).unwrap();
    let event = CampaignReport::generate(&m, &seeds, 3, SocEngine::EventDriven).unwrap();
    assert_eq!(
        naive.to_json().unwrap(),
        event.to_json().unwrap(),
        "campaign must be engine-independent"
    );
    // The campaign exercises the recovery machinery, not just clean runs.
    assert!(!naive.cases.is_empty());
    assert!(
        naive
            .cases
            .iter()
            .any(|c| c.status == "recovered" || c.status == "degraded"),
        "expected at least one recovery across the sweep:\n{naive}"
    );
    assert!(
        naive.cases.iter().all(|c| c.status != "failed"),
        "recovery must absorb every injected fault:\n{naive}"
    );
}

/// Recovery cycles are not lost by the span layer: retry backoff
/// windows land in [`SpanKind::Retry`] spans, failovers appear as
/// marker spans, and the attribution invariant (every latency cycle in
/// exactly one span) survives both — the degraded frames are exactly
/// as long as their spans say.
#[test]
fn recovery_cycles_appear_as_retry_and_failover_spans() {
    let m = models();

    // Transient hang: heals with retries alone, so the stretched
    // frame's extra latency must be visible as Retry-attributed cycles.
    let app = CaseApp::DenoiserClassifier;
    let plan = FaultPlan::new(0).with(FaultSpec::transient_hang("denoiser", 0));
    let mut session = TraceSession::spanned(None, false);
    let run = AppRun::execute(
        &app,
        &m,
        3,
        ExecMode::P2p,
        faulted(&plan).traced(&mut session),
    )
    .unwrap();
    assert!(run.metrics.retries >= 1, "{:?}", run.metrics);
    let report = session.span_reports().first().expect("span report");
    report
        .check_attribution()
        .expect("attribution must stay exact under retries");
    let retry_cycles: u64 = report
        .frames
        .iter()
        .flat_map(|f| &f.stages)
        .flat_map(|s| &s.spans)
        .filter(|s| s.kind == SpanKind::Retry)
        .map(|s| s.cycles())
        .sum();
    assert!(
        retry_cycles > 0,
        "retry backoff must be attributed as Retry spans:\n{}",
        report.render_text()
    );

    // Permanent hang: retry exhaustion remaps the stage to the spare
    // classifier — the remap must leave a Failover marker in the tree
    // without breaking attribution.
    let app = CaseApp::NightVisionClassifier { nv: 2, cl: 2 };
    let plan = FaultPlan::new(0).with(FaultSpec::permanent_hang("cl0"));
    let mut session = TraceSession::spanned(None, false);
    let run = AppRun::execute(
        &app,
        &m,
        3,
        ExecMode::Pipe,
        faulted(&plan).traced(&mut session),
    )
    .unwrap();
    assert!(run.metrics.failovers >= 1, "{:?}", run.metrics);
    let report = session.span_reports().first().expect("span report");
    report
        .check_attribution()
        .expect("attribution must stay exact under failover");
    let failover_markers = report
        .frames
        .iter()
        .flat_map(|f| &f.stages)
        .flat_map(|s| &s.spans)
        .filter(|s| s.kind == SpanKind::Failover)
        .count();
    assert!(
        failover_markers >= 1,
        "failover must appear as a marker span:\n{}",
        report.render_text()
    );
}

/// A traced faulted run logs the same events and span reports under
/// both engines. The watchdog's socket reset stamps its phase change
/// with the last executed cycle, which a fast-forwarded span must leave
/// where naive ticks would.
#[test]
fn traced_faulted_runs_are_identical_across_engines() {
    let m = models();
    let cases = [
        (
            CaseApp::DenoiserClassifier,
            ExecMode::Pipe,
            FaultSpec::short_output("denoiser", 0, 4),
        ),
        (
            CaseApp::DenoiserClassifier,
            ExecMode::P2p,
            FaultSpec::short_output("denoiser", 0, 4),
        ),
        (
            CaseApp::DenoiserClassifier,
            ExecMode::P2p,
            FaultSpec::transient_hang("denoiser", 0),
        ),
        (
            CaseApp::NightVisionClassifier { nv: 2, cl: 2 },
            ExecMode::P2p,
            FaultSpec::short_output("nv0", 0, 4),
        ),
    ];
    for (app, mode, spec) in cases {
        let plan = FaultPlan::new(0).with(spec.clone());
        let traced = |engine: SocEngine| {
            let mut session = TraceSession::spanned(None, true);
            let opts = RunOptions::faulted(engine, &plan).traced(&mut session);
            let run = AppRun::execute(&app, &m, 3, mode, opts).unwrap();
            let events = session.tracer().drain();
            (run.metrics, events, session.span_reports_json())
        };
        let (naive_metrics, naive_events, naive_spans) = traced(SocEngine::Naive);
        let (event_metrics, event_events, event_spans) = traced(SocEngine::EventDriven);
        let case = format!("{} {mode:?} {spec:?}", app.label());
        assert!(naive_metrics.faults_injected >= 1, "{case}");
        assert_eq!(naive_metrics, event_metrics, "{case}");
        for (i, (a, b)) in naive_events.iter().zip(&event_events).enumerate() {
            assert_eq!(a, b, "{case}: trace event {i} differs");
        }
        assert_eq!(naive_events.len(), event_events.len(), "{case}");
        assert_eq!(naive_spans, event_spans, "{case}: span reports differ");
    }
}

/// A faulted run with an empty plan arms the watchdog and recovery
/// layer but injects nothing; that machinery must be invisible: metrics
/// identical to a plain run.
#[test]
fn no_faults_is_zero_cost() {
    let m = models();
    for mode in [ExecMode::Pipe, ExecMode::P2p] {
        let plain = AppRun::execute(
            &CaseApp::DenoiserClassifier,
            &m,
            3,
            mode,
            RunOptions::default(),
        )
        .unwrap();
        let armed = AppRun::execute(
            &CaseApp::DenoiserClassifier,
            &m,
            3,
            mode,
            faulted(&FaultPlan::default()),
        )
        .unwrap();
        assert_eq!(plain.metrics, armed.metrics, "{mode:?}");
        assert_eq!(plain.predictions, armed.predictions, "{mode:?}");
        assert!(!armed.software_fallback);
    }
}
