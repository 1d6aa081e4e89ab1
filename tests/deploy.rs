//! End-to-end validation of the multi-tenant deployment analyzer.
//!
//! The seeded `configs/deploy_ok.json` and `configs/deploy_split.json`
//! must be admitted with zero findings and their static bandwidth model
//! must *dominate* the cycle-level simulator — on every DMA-plane link
//! and on every per-tenant slowdown bound, under both simulation
//! engines. The seeded `configs/deploy_conflict.json` must be refuted
//! with the full `E07xx` family.

use esp4ml::apps::{TrainedModels, CLASSIFIER_REUSE};
use esp4ml::deploy::{
    lint_deployment, validate_against_simulator, Deployment, DeploymentValidation, TenantSpec,
};
use esp4ml::soc::SocEngine;
use esp4ml::soc_config::{MlModelRef, SocConfigFile, TileSpec, TileSpecKind};
use esp4ml_check::cdg::Routing;
use esp4ml_check::codes;

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
fn assert_conservative(d: &Deployment, engine: SocEngine) -> DeploymentValidation {
    let frames = 4;
    let validation = validate_against_simulator(d, &TrainedModels::untrained(), frames, engine)
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
    validation
}

/// On one memory tile, with one instance per stage, the static model
/// prices exactly the packets the tiles send: per link and per bound.
fn assert_exact(validation: &DeploymentValidation) {
    for tenant in &validation.tenants {
        for link in &tenant.links {
            assert_eq!(
                link.static_flits_per_frame * tenant.frames as f64,
                link.measured_flits as f64,
                "tenant {} plane {} link {:?}",
                tenant.tenant,
                link.plane,
                link.link
            );
        }
    }
    for (stat, meas) in validation
        .static_bounds
        .iter()
        .zip(&validation.measured_bounds)
    {
        assert!(
            (stat.slowdown_bound - meas.slowdown_bound).abs() <= 1e-9,
            "tenant {}: static bound {} != measured bound {}",
            stat.name,
            stat.slowdown_bound,
            meas.slowdown_bound
        );
    }
}

#[test]
fn static_bounds_dominate_the_naive_engine() {
    let validation = assert_conservative(&load("deploy_ok.json"), SocEngine::Naive);
    assert_exact(&validation);
}

#[test]
fn static_bounds_dominate_the_event_engine() {
    let validation = assert_conservative(&load("deploy_ok.json"), SocEngine::EventDriven);
    assert_exact(&validation);
}

/// Two memory tiles in row 0, every accelerator in row 1: frames are
/// interleaved across both memories in 512-word blocks, and a base and
/// a p2p tenant share the mesh.
fn two_memory_deployment() -> Deployment {
    let nv = |x, name: &str| TileSpec::new(x, 1, TileSpecKind::NightVision { name: name.into() });
    let classifier = |x, name: &str| {
        let kind = TileSpecKind::MlModel {
            name: name.into(),
            model: MlModelRef::Classifier,
            reuse: CLASSIFIER_REUSE.to_vec(),
        };
        TileSpec::new(x, 1, kind)
    };
    let tenant = |name: &str, stages: [&str; 2], mode: &str| TenantSpec {
        name: name.into(),
        stages: stages.iter().map(|d| vec![d.to_string()]).collect(),
        mode: mode.into(),
        frame_rate_hz: 30.0,
        routing: Routing::Xy,
        shared_devices: Vec::new(),
    };
    let soc = SocConfigFile {
        name: "two-memories".into(),
        cols: 4,
        rows: 2,
        clock_mhz: 78.0,
        tiles: vec![
            TileSpec::new(0, 0, TileSpecKind::Memory),
            TileSpec::new(1, 0, TileSpecKind::Processor),
            TileSpec::new(2, 0, TileSpecKind::Auxiliary),
            TileSpec::new(3, 0, TileSpecKind::Memory),
            nv(0, "nv0"),
            classifier(1, "cl0"),
            nv(2, "nv1"),
            classifier(3, "cl1"),
        ],
    };
    Deployment {
        name: "two-memories".into(),
        soc,
        tenants: vec![
            tenant("staged", ["nv0", "cl0"], "base"),
            tenant("streamed", ["nv1", "cl1"], "p2p"),
        ],
    }
}

fn assert_two_memories_dominated(engine: SocEngine) {
    let d = two_memory_deployment();
    let analysis = lint_deployment(&d);
    assert!(analysis.report.is_clean(), "{}", analysis.report);
    let validation = assert_conservative(&d, engine);
    // Every requester sits in row 1, so a dma-req link entering a
    // row-0 memory tile from below carries only that tile's requests.
    for memory in [(0u8, 0u8), (3, 0)] {
        let served = validation.tenants.iter().any(|t| {
            t.links.iter().any(|l| {
                l.plane == "dma-req" && l.link == ((memory.0, 1), memory) && l.measured_flits > 0
            })
        });
        assert!(served, "no measured request reached memory tile {memory:?}");
    }
}

#[test]
fn static_bounds_dominate_two_memory_tiles_naive() {
    assert_two_memories_dominated(SocEngine::Naive);
}

#[test]
fn static_bounds_dominate_two_memory_tiles_event() {
    assert_two_memories_dominated(SocEngine::EventDriven);
}

#[test]
fn an_unknown_mode_is_one_e0705() {
    let mut d = load("deploy_ok.json");
    d.tenants.retain(|t| t.name == "classify");
    d.tenants[0].mode = "warp".into();
    let report = lint_deployment(&d).report;
    let found: Vec<&str> = report.diagnostics.iter().map(|diag| diag.code).collect();
    assert_eq!(found, [codes::DEPLOYMENT_MALFORMED], "{report}");
}

/// SoC-2's five-tile split classifier as one tenant, in `mode`.
fn split_classifier(mode: &str) -> Deployment {
    let mut d = load("deploy_split.json");
    assert_eq!(
        d.soc,
        SocConfigFile::soc2(),
        "deploy_split.json carries SoC-2"
    );
    d.tenants[0].mode = mode.into();
    d
}

/// Every layer tile of SoC-2 has a statically known shape, so the split
/// classifier is admitted and priced exactly: one instance per stage on
/// one memory tile.
#[test]
fn split_classifier_is_admitted_and_priced_exactly() {
    for mode in ["p2p", "pipe"] {
        let d = split_classifier(mode);
        let analysis = lint_deployment(&d);
        assert!(analysis.report.is_clean(), "{mode}: {}", analysis.report);
        for engine in [SocEngine::Naive, SocEngine::EventDriven] {
            assert_exact(&assert_conservative(&d, engine));
        }
    }
}

/// Four Night-Vision instances feeding four classifiers over p2p on
/// SoC-1. Each classifier pulls only from its namesake, so the analyzer
/// charges no link the simulator leaves unused. Each instance is charged
/// the full per-frame payload although it serves one frame in four, so
/// over four frames the static total is four times the measured one.
#[test]
fn four_wide_p2p_charges_only_used_links() {
    let nv: Vec<String> = (0..4).map(|i| format!("nv{i}")).collect();
    let cl: Vec<String> = (0..4).map(|i| format!("cl{i}")).collect();
    let d = Deployment {
        name: "four-wide".into(),
        soc: SocConfigFile::soc1(),
        tenants: vec![TenantSpec {
            name: "vision".into(),
            stages: vec![nv, cl],
            mode: "p2p".into(),
            frame_rate_hz: 30.0,
            routing: Routing::Xy,
            shared_devices: Vec::new(),
        }],
    };
    assert!(lint_deployment(&d).report.is_clean());
    let validation = assert_conservative(&d, SocEngine::EventDriven);
    let [tenant] = &validation.tenants[..] else {
        panic!("one tenant");
    };
    let (mut charged, mut measured) = (0.0, 0);
    for link in &tenant.links {
        assert!(
            link.measured_flits > 0,
            "plane {} link {:?} is charged {} flits/frame but never used",
            link.plane,
            link.link,
            link.static_flits_per_frame
        );
        charged += link.static_flits_per_frame * tenant.frames as f64;
        measured += link.measured_flits;
    }
    assert_eq!(charged, 4.0 * measured as f64);
}
