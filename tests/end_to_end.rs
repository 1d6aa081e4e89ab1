//! End-to-end integration tests: the full design flow from models to SoC
//! execution, across crates.

use esp4ml::apps::{CaseApp, TrainedModels};
use esp4ml::experiments::{AppRun, RunOptions};
use esp4ml::runtime::ExecMode;

fn models() -> TrainedModels {
    TrainedModels::untrained()
}

#[test]
fn every_case_app_runs_in_every_mode() {
    let m = models();
    for app in CaseApp::all_fig7_configs() {
        for mode in ExecMode::ALL {
            let run = AppRun::execute(&app, &m, 4, mode, RunOptions::default())
                .unwrap_or_else(|e| panic!("{} {}: {e}", app.label(), mode.label()));
            assert_eq!(run.metrics.frames, 4, "{} {}", app.label(), mode.label());
            assert!(run.metrics.cycles > 0);
            assert!(run.predictions.iter().all(|&p| p < 10));
        }
    }
}

#[test]
fn predictions_are_mode_invariant() {
    // The communication mode must never change the computed result.
    let m = models();
    for app in [
        CaseApp::NightVisionClassifier { nv: 4, cl: 4 },
        CaseApp::DenoiserClassifier,
        CaseApp::MultiTileClassifier,
    ] {
        let base =
            AppRun::execute(&app, &m, 5, ExecMode::Base, RunOptions::default()).expect("base");
        let pipe =
            AppRun::execute(&app, &m, 5, ExecMode::Pipe, RunOptions::default()).expect("pipe");
        let p2p = AppRun::execute(&app, &m, 5, ExecMode::P2p, RunOptions::default()).expect("p2p");
        assert_eq!(base.predictions, pipe.predictions, "{}", app.label());
        assert_eq!(pipe.predictions, p2p.predictions, "{}", app.label());
    }
}

#[test]
fn pipe_not_slower_base_and_p2p_not_slower_pipe() {
    let m = models();
    for app in [
        CaseApp::NightVisionClassifier { nv: 4, cl: 4 },
        CaseApp::MultiTileClassifier,
    ] {
        let base =
            AppRun::execute(&app, &m, 8, ExecMode::Base, RunOptions::default()).expect("base");
        let pipe =
            AppRun::execute(&app, &m, 8, ExecMode::Pipe, RunOptions::default()).expect("pipe");
        let p2p = AppRun::execute(&app, &m, 8, ExecMode::P2p, RunOptions::default()).expect("p2p");
        assert!(
            pipe.metrics.cycles < base.metrics.cycles,
            "{}: pipe {} !< base {}",
            app.label(),
            pipe.metrics.cycles,
            base.metrics.cycles
        );
        assert!(
            p2p.metrics.cycles <= pipe.metrics.cycles,
            "{}: p2p {} !<= pipe {}",
            app.label(),
            p2p.metrics.cycles,
            pipe.metrics.cycles
        );
    }
}

#[test]
fn p2p_dram_reduction_is_in_the_paper_band() {
    // Fig. 8: reductions between 2x and 3x for the evaluated apps.
    let m = models();
    for (app, lo, hi) in [
        (CaseApp::NightVisionClassifier { nv: 4, cl: 4 }, 2.5, 3.2),
        (CaseApp::DenoiserClassifier, 2.5, 3.2),
        (CaseApp::MultiTileClassifier, 1.7, 2.2),
    ] {
        let pipe =
            AppRun::execute(&app, &m, 6, ExecMode::Pipe, RunOptions::default()).expect("pipe");
        let p2p = AppRun::execute(&app, &m, 6, ExecMode::P2p, RunOptions::default()).expect("p2p");
        let reduction = pipe.metrics.dram_accesses as f64 / p2p.metrics.dram_accesses as f64;
        assert!(
            (lo..=hi).contains(&reduction),
            "{}: reduction {reduction:.2} outside [{lo}, {hi}]",
            app.label()
        );
    }
}

#[test]
fn esp4ml_beats_baselines_in_frames_per_joule() {
    use esp4ml::baseline::{Platform, Workload};
    let m = models();
    let i7 = Platform::intel_i7_8700k();
    let tx1 = Platform::jetson_tx1();
    let cases: [(CaseApp, Workload); 3] = [
        (
            CaseApp::NightVisionClassifier { nv: 4, cl: 4 },
            Workload::night_vision().then(Workload::classifier()),
        ),
        (
            CaseApp::DenoiserClassifier,
            Workload::denoiser().then(Workload::classifier()),
        ),
        (CaseApp::MultiTileClassifier, Workload::classifier()),
    ];
    for (app, workload) in cases {
        let run =
            AppRun::execute(&app, &m, 8, ExecMode::P2p, RunOptions::default()).expect("p2p run");
        let fpj = run.frames_per_joule();
        assert!(
            fpj > i7.frames_per_joule(&workload),
            "{}: {fpj:.0} f/J does not beat the i7 line",
            app.label()
        );
        assert!(
            fpj > tx1.frames_per_joule(&workload),
            "{}: {fpj:.0} f/J does not beat the Jetson line",
            app.label()
        );
    }
}

#[test]
fn nv_instance_scaling_increases_throughput() {
    // The Fig. 7 left cluster story: adding NV instances to feed the
    // classifier raises pipeline throughput.
    let m = models();
    let fps = |nv: usize, cl: usize| {
        AppRun::execute(
            &CaseApp::NightVisionClassifier { nv, cl },
            &m,
            8,
            ExecMode::P2p,
            RunOptions::default(),
        )
        .expect("run")
        .metrics
        .frames_per_second()
    };
    let one = fps(1, 1);
    let four_one = fps(4, 1);
    let four_four = fps(4, 4);
    assert!(
        four_one > 2.0 * one,
        "4NV+1Cl {four_one:.0} vs 1NV+1Cl {one:.0}"
    );
    assert!(four_four >= four_one * 0.95, "4NV+4Cl should not regress");
}

#[test]
fn balance_advisor_suggests_the_papers_configuration() {
    // Probe the real SoC-1 kernels and let the §V balancing rule pick the
    // stage widths: the Night-Vision kernel is ~6x slower than the
    // classifier, so the advisor lands on the paper's 4NV+1Cl shape.
    use esp4ml::runtime::balance::suggest_stage_widths;
    let m = models();
    let soc = esp4ml::apps::SocId::Soc1.config().build(&m).expect("soc1");
    let ii = |name: &str| {
        let coord = soc.accel_by_name(name).expect(name);
        soc.accel(coord).expect(name).kernel().initiation_interval()
    };
    let (nv, cl) = (ii("nv0"), ii("cl0"));
    assert!(nv > cl);
    let widths = suggest_stage_widths(&[nv, cl], 4);
    assert_eq!(widths, vec![4, 1], "IIs {nv} / {cl}");
}
