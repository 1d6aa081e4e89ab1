//! Integration tests of the `esp4ml-check` front end: the static linter
//! over configurations/dataflows and the fault-injection hooks that
//! prove the runtime sanitizer actually fires.

use esp4ml::apps::CaseApp;
use esp4ml::check::{lint_all, lint_config};
use esp4ml::soc_config::{MlModelRef, SocConfigFile, TileSpec, TileSpecKind};
use esp4ml::TrainedModels;
use esp4ml_check::codes;
use proptest::prelude::*;

/// The five Fig. 7 applications that map onto the SoC-1 floorplan.
fn soc1_apps() -> Vec<CaseApp> {
    CaseApp::all_fig7_configs()
        .into_iter()
        .filter(|a| !matches!(a, CaseApp::MultiTileClassifier))
        .collect()
}

#[test]
fn clean_builtin_configs_produce_zero_findings() {
    let cfg = SocConfigFile::soc1();
    assert!(lint_config(&cfg).is_clean());
    for app in soc1_apps() {
        let report = lint_all(&cfg, &app.dataflow());
        assert!(report.is_clean(), "{}: {report}", app.label());
    }
}

#[test]
fn diagnostic_codes_are_stable() {
    // These literals are the published contract: CI and downstream
    // tooling match on them, so renames are breaking changes.
    assert_eq!(codes::DUPLICATE_TILE, "E0101");
    assert_eq!(codes::MISSING_REQUIRED_TILE, "E0103");
    assert_eq!(codes::EMPTY_STAGE, "E0202");
    assert_eq!(codes::UNMAPPED_DEVICE, "E0301");
    assert_eq!(codes::PLM_OVERFLOW, "E0304");
    assert_eq!(codes::CREDIT_CONSERVATION, "E0401");
    assert_eq!(codes::DMA_ACCOUNTING, "E0404");
    assert_eq!(codes::DEADLOCK, "E0501");
}

#[test]
fn committed_example_configs_match_the_linter() {
    let clean = std::fs::read_to_string("configs/soc1.json").expect("configs/soc1.json");
    let clean = SocConfigFile::from_json(&clean).expect("clean config parses");
    assert!(lint_config(&clean).is_clean());

    let broken =
        std::fs::read_to_string("configs/broken_dup_tile.json").expect("broken config file");
    let broken = SocConfigFile::from_json(&broken).expect("broken config still parses");
    let report = lint_config(&broken);
    let codes_found: Vec<&str> = report.diagnostics.iter().map(|d| d.code).collect();
    assert!(codes_found.contains(&codes::DUPLICATE_TILE), "{report}");
    assert!(codes_found.contains(&codes::PLM_OVERFLOW), "{report}");
}

/// The corruption kinds the proptest below applies to a clean pair.
#[derive(Debug, Clone)]
enum Corruption {
    /// Remove the accelerator tile a dataflow stage maps to (`E0301`).
    DropDevice(usize),
    /// Empty one stage of the dataflow (`E0202`).
    DropStageDevices(usize),
    /// Add a second tile claiming an existing device name (`E0104`).
    DuplicateDevice(usize),
    /// Shrink a declared PLM budget below the model footprint (`E0304`).
    ShrinkPlm(usize, u64),
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any of the corruption kinds applied to any clean (config,
    /// dataflow) pair yields at least one *error* diagnostic — the
    /// linter never waves a broken input through.
    #[test]
    fn corrupted_configs_always_produce_an_error(
        app_idx in 0usize..4,
        kind in 0usize..4,
        idx in 0usize..16,
        words in 1u64..512,
    ) {
        let corruption = match kind {
            0 => Corruption::DropDevice(idx),
            1 => Corruption::DropStageDevices(idx),
            2 => Corruption::DuplicateDevice(idx),
            _ => Corruption::ShrinkPlm(idx, words),
        };
        let apps = soc1_apps();
        let app = &apps[app_idx % apps.len()];
        let mut cfg = SocConfigFile::soc1();
        let mut dataflow = app.dataflow();
        // Indices select among the accelerator tiles / dataflow devices,
        // wrapping so every random draw lands on a real target.
        let accel_idx = |cfg: &SocConfigFile, i: usize| {
            let accels: Vec<usize> = cfg
                .tiles
                .iter()
                .enumerate()
                .filter(|(_, t)| {
                    matches!(
                        t.kind,
                        TileSpecKind::NightVision { .. } | TileSpecKind::MlModel { .. }
                    )
                })
                .map(|(i, _)| i)
                .collect();
            accels[i % accels.len()]
        };
        match corruption {
            Corruption::DropDevice(i) => {
                // Drop a device the dataflow actually uses.
                let stage = i % dataflow.stages.len();
                let dev = dataflow.stages[stage].devices[i % dataflow.stages[stage].devices.len()]
                    .clone();
                cfg.tiles.retain(|t| match &t.kind {
                    TileSpecKind::NightVision { name } | TileSpecKind::MlModel { name, .. } => {
                        *name != dev
                    }
                    _ => true,
                });
            }
            Corruption::DropStageDevices(i) => {
                let stage = i % dataflow.stages.len();
                dataflow.stages[stage].devices.clear();
            }
            Corruption::DuplicateDevice(i) => {
                let src = accel_idx(&cfg, i);
                let name = match &cfg.tiles[src].kind {
                    TileSpecKind::NightVision { name } | TileSpecKind::MlModel { name, .. } => {
                        name.clone()
                    }
                    _ => unreachable!(),
                };
                cfg.tiles.push(TileSpec::new(
                    4,
                    2,
                    TileSpecKind::MlModel {
                        name,
                        model: MlModelRef::Classifier,
                        reuse: vec![64],
                    },
                ));
            }
            Corruption::ShrinkPlm(i, words) => {
                let idx = accel_idx(&cfg, i);
                // Every built-in model needs >= 515 words of PLM, so any
                // budget below that must be flagged.
                cfg.tiles[idx].plm_words = Some(words.min(514));
            }
        }
        let report = lint_all(&cfg, &dataflow);
        prop_assert!(
            report.has_errors(),
            "corruption {corruption:?} on {} produced no error:\n{report}",
            app.label()
        );
    }
}

#[test]
fn sanitizer_catches_a_deliberately_leaked_credit() {
    // Fault injection through the public API: steal one credit from a
    // router port and let the conservation audit notice.
    use esp4ml::noc::{Coord, Plane};

    let models = TrainedModels::untrained();
    let mut soc = SocConfigFile::soc1().build(&models).expect("soc1 builds");
    soc.enable_sanitizer();
    soc.fault_leak_credit(Coord::new(1, 0), Plane::DmaReq);
    soc.run_cycles(5);
    let report = soc.sanitizer_report().expect("sanitizer armed");
    assert!(report.has_errors());
    assert_eq!(report.diagnostics[0].code, codes::CREDIT_CONSERVATION);
}
