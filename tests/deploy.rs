//! End-to-end validation of the multi-tenant deployment analyzer.
//!
//! The seeded `configs/deploy_ok.json` must be admitted with zero
//! findings and its static bandwidth model must *dominate* the
//! cycle-level simulator — on every DMA-plane link and on every
//! per-tenant slowdown bound, under both simulation engines. The
//! seeded `configs/deploy_conflict.json` must be refuted with the
//! full `E07xx` family.

use esp4ml::apps::TrainedModels;
use esp4ml::deploy::{lint_deployment, validate_against_simulator, Deployment};
use esp4ml::soc::SocEngine;

fn load(name: &str) -> Deployment {
    let path = format!("{}/configs/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).expect("seeded deployment file");
    Deployment::from_json(&text).expect("deployment parses")
}

#[test]
fn seeded_ok_deployment_is_admitted_clean() {
    let d = load("deploy_ok.json");
    let analysis = lint_deployment(&d);
    assert!(
        analysis.report.is_clean(),
        "deploy_ok.json must lint clean:\n{}",
        analysis.report
    );
    let bw = analysis.bandwidth.expect("bandwidth analysis present");
    assert_eq!(bw.tenants.len(), 3);
    for bound in &bw.tenants {
        assert!(
            bound.slowdown_bound.is_finite() && bound.slowdown_bound >= 1.0,
            "feasible deployment has a finite slowdown bound >= 1: {bound:?}"
        );
    }
}

#[test]
fn seeded_conflict_deployment_is_refuted_with_every_e07xx() {
    let d = load("deploy_conflict.json");
    let analysis = lint_deployment(&d);
    let codes: Vec<&str> = analysis
        .report
        .diagnostics
        .iter()
        .map(|diag| diag.code)
        .collect();
    for expected in ["E0701", "E0702", "E0703", "E0704", "W0706"] {
        assert!(
            codes.contains(&expected),
            "deploy_conflict.json must trip {expected}; got {codes:?}"
        );
    }
    assert!(analysis.report.has_errors());
}

/// The soundness claim behind `E0704`/the slowdown bounds: the static
/// per-frame demand model over-approximates what the simulator actually
/// moves, so the statically-computed worst-case slowdown bound
/// dominates the bound recomputed from measured traffic — for every
/// tenant, on every link, under either engine.
fn assert_conservative(engine: SocEngine) {
    let d = load("deploy_ok.json");
    let frames = 4;
    let validation = validate_against_simulator(&d, &TrainedModels::untrained(), frames, engine)
        .expect("tenants simulate");
    assert_eq!(validation.tenants.len(), d.tenants.len());
    for tenant in &validation.tenants {
        for link in &tenant.links {
            assert!(
                tenant.frames as f64 * link.static_flits_per_frame + 1e-9
                    >= link.measured_flits as f64,
                "tenant {} plane {} link {:?}: static {}/frame x {} frames \
                 under-approximates measured {} flits",
                tenant.tenant,
                link.plane,
                link.link,
                link.static_flits_per_frame,
                tenant.frames,
                link.measured_flits
            );
        }
        assert!(tenant.conservative, "tenant {} link check", tenant.tenant);
    }
    for (stat, meas) in validation
        .static_bounds
        .iter()
        .zip(&validation.measured_bounds)
    {
        assert_eq!(stat.name, meas.name);
        assert!(
            stat.slowdown_bound + 1e-9 >= meas.slowdown_bound,
            "tenant {}: static bound {} < measured bound {}",
            stat.name,
            stat.slowdown_bound,
            meas.slowdown_bound
        );
    }
    assert!(validation.conservative());
}

#[test]
fn static_bounds_dominate_the_naive_engine() {
    assert_conservative(SocEngine::Naive);
}

#[test]
fn static_bounds_dominate_the_event_engine() {
    assert_conservative(SocEngine::EventDriven);
}
