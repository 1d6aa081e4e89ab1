//! Runtime-sanitizer integration tests: the full Fig. 7 grid runs clean
//! under the invariant sanitizer, and both simulation engines return
//! byte-identical verdicts.

use esp4ml::experiments::{AppRun, Fig7, RunOptions};
use esp4ml::TrainedModels;
use esp4ml_soc::SocEngine;

/// Every Fig. 7 grid point, sanitized, on both engines: the runs
/// complete (no invariant fires on a healthy SoC) and the attached
/// verdicts serialize byte-identically across engines.
#[test]
fn fig7_grid_sanitized_clean_and_engine_identical() {
    let models = TrainedModels::untrained();
    for point in Fig7::grid() {
        let run = |engine| {
            AppRun::execute(
                &point.app,
                &models,
                2,
                point.mode,
                RunOptions::sanitized(engine),
            )
        };
        let naive =
            run(SocEngine::Naive).unwrap_or_else(|e| panic!("{} naive: {e}", point.label()));
        let event =
            run(SocEngine::EventDriven).unwrap_or_else(|e| panic!("{} event: {e}", point.label()));
        let nv = naive.sanitizer.as_ref().expect("sanitized run has verdict");
        let ev = event.sanitizer.as_ref().expect("sanitized run has verdict");
        assert!(nv.is_clean(), "{}: {nv}", point.label());
        assert_eq!(
            serde_json::to_string(nv).unwrap(),
            serde_json::to_string(ev).unwrap(),
            "{}: sanitizer verdicts differ between engines",
            point.label()
        );
        // Sanitizing must not perturb the simulation itself.
        assert_eq!(naive.metrics, event.metrics, "{}", point.label());
        assert_eq!(naive.predictions, event.predictions, "{}", point.label());
    }
}

/// A sanitized run produces the same metrics as an unsanitized one —
/// the audits observe, they don't interfere.
#[test]
fn sanitizer_does_not_perturb_results() {
    use esp4ml::apps::CaseApp;
    use esp4ml::runtime::ExecMode;

    let models = TrainedModels::untrained();
    let app = CaseApp::DenoiserClassifier;
    let run = |opts| AppRun::execute(&app, &models, 3, ExecMode::P2p, opts);
    let plain = run(RunOptions::new(SocEngine::EventDriven)).expect("plain run");
    let sanitized = run(RunOptions::sanitized(SocEngine::EventDriven)).expect("sanitized run");
    assert_eq!(plain.metrics, sanitized.metrics);
    assert_eq!(plain.predictions, sanitized.predictions);
    assert!(plain.sanitizer.is_none());
    assert!(sanitized.sanitizer.expect("verdict").is_clean());
}
