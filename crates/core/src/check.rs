//! Static SoC/dataflow linting: the `esp4ml-check` front end.
//!
//! This module lints the *declarative* inputs of the flow — a
//! [`SocConfigFile`] floorplan, a [`Dataflow`], and their combination —
//! before anything is built or simulated, emitting typed
//! [`Diagnostic`]s with stable codes:
//!
//! * `E0101`–`E0104` — floorplan structure: duplicate or out-of-bounds
//!   tiles, missing processor/memory tiles, duplicate device names.
//! * `E0201`–`E0206` — dataflow structure (delegated to
//!   [`Dataflow::lint`]).
//! * `E0301` — a dataflow stage mapped to a device the floorplan does
//!   not provide.
//! * `E0304` / `W0305` — a declared PLM budget too small for the
//!   model's buffer footprint / a per-invocation working set larger
//!   than the socket TLB's reach.
//!
//! No single-dataflow route check exists: the simulator routes in
//! dimension order (XY), and XY routes on a mesh never close a
//! channel-dependency cycle (Dally & Seitz), so `E0302` is retired.
//! Cycles only appear when routing disciplines mix across tenants,
//! which [`crate::deploy`] checks as `E0703` over the same transfer
//! schedule the runtime issues ([`esp4ml_runtime::ExecMode::instance_io`]).
//!
//! The runtime half of the checker — credit/flit conservation, wormhole
//! framing, DMA accounting, deadlock diagnosis — lives behind
//! [`esp4ml_soc::Soc::enable_sanitizer`].

use crate::soc_config::{MlModelRef, SocConfigFile, TileSpecKind};
use esp4ml_check::{codes, Diagnostic, Report};
use esp4ml_hls::FixedSpec;
use esp4ml_mem::PageTable;
use esp4ml_nn::{SVHN_CLASSIFIER_WIDTHS, SVHN_DENOISER_WIDTHS};
use esp4ml_noc::Coord;
use esp4ml_runtime::Dataflow;
use esp4ml_soc::{words_for, SOCKET_TLB_REACH_WORDS};
use esp4ml_vision::svhn::IMG_PIXELS;
use std::collections::BTreeMap;

/// One accelerator device as the linter sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceView {
    /// Device name (the driver-registry key).
    pub name: String,
    /// Tile coordinate.
    pub coord: Coord,
    /// Input words per frame, when the model shape is known statically:
    /// the values packed as the socket packs them.
    pub in_words: Option<u64>,
    /// Output words per frame, when known statically.
    pub out_words: Option<u64>,
    /// Declared PLM budget in words, when the configuration declares one.
    pub plm_words: Option<u64>,
}

impl DeviceView {
    /// The PLM buffer footprint in words: a double-buffered input PLM
    /// (two ping-pong halves) plus the output buffer. `None` when the
    /// model shape is unknown.
    pub fn plm_footprint_words(&self) -> Option<u64> {
        Some(2 * self.in_words? + self.out_words?)
    }
}

/// A floorplan reduced to what the linter needs: tile placement and
/// the statically-known device shapes, extracted from a declarative
/// [`SocConfigFile`].
#[derive(Debug, Clone, Default)]
pub struct FloorplanView {
    /// Processor tile coordinates.
    pub processors: Vec<Coord>,
    /// Memory tile coordinates.
    pub memories: Vec<Coord>,
    /// Accelerator devices.
    pub devices: Vec<DeviceView>,
}

impl FloorplanView {
    /// Extracts the linter's view from a configuration file.
    pub fn from_config(config: &SocConfigFile) -> FloorplanView {
        let mut view = FloorplanView::default();
        // Every built-in accelerator computes at the hls4ml default
        // precision.
        let words = |values| words_for(values as u64, FixedSpec::HLS4ML_DEFAULT.total_bits());
        let ends = |widths: &[usize]| Some((widths[0], widths[widths.len() - 1]));
        for tile in &config.tiles {
            let coord = Coord::new(tile.x, tile.y);
            // The device name and its statically known (input, output)
            // values per frame.
            let (name, shape) = match &tile.kind {
                TileSpecKind::Processor => {
                    view.processors.push(coord);
                    continue;
                }
                TileSpecKind::Memory => {
                    view.memories.push(coord);
                    continue;
                }
                TileSpecKind::Auxiliary => continue,
                TileSpecKind::NightVision { name } => (name, Some((IMG_PIXELS, IMG_PIXELS))),
                TileSpecKind::MlModel { name, model, .. } => match model {
                    MlModelRef::Classifier => (name, ends(&SVHN_CLASSIFIER_WIDTHS)),
                    MlModelRef::Denoiser => (name, ends(&SVHN_DENOISER_WIDTHS)),
                    MlModelRef::ClassifierLayer { layer } => {
                        let widths = SVHN_CLASSIFIER_WIDTHS.windows(2).nth(*layer);
                        (name, widths.map(|w| (w[0], w[1])))
                    }
                    MlModelRef::Files { .. } => (name, None),
                },
            };
            view.devices.push(DeviceView {
                name: name.clone(),
                coord,
                in_words: shape.map(|(i, _)| words(i)),
                out_words: shape.map(|(_, o)| words(o)),
                plm_words: tile.plm_words,
            });
        }
        view
    }

    /// Looks up a device by name.
    pub fn device(&self, name: &str) -> Option<&DeviceView> {
        self.devices.iter().find(|d| d.name == name)
    }
}

/// Lints a configuration file's floorplan structure and memory budgets.
pub fn lint_config(config: &SocConfigFile) -> Report {
    let mut report = Report::new();
    let mut occupied: BTreeMap<(u8, u8), usize> = BTreeMap::new();
    let mut names: BTreeMap<&str, usize> = BTreeMap::new();
    for tile in &config.tiles {
        if (tile.x as usize) >= config.cols || (tile.y as usize) >= config.rows {
            report.push(
                Diagnostic::error(
                    codes::TILE_OUT_OF_BOUNDS,
                    format!("tile({},{})", tile.x, tile.y),
                    format!(
                        "tile({},{}) lies outside the {}x{} mesh",
                        tile.x, tile.y, config.cols, config.rows
                    ),
                )
                .with_hint("grow the mesh or move the tile inside the grid"),
            );
        }
        *occupied.entry((tile.x, tile.y)).or_insert(0) += 1;
        let name = match &tile.kind {
            TileSpecKind::NightVision { name } | TileSpecKind::MlModel { name, .. } => {
                Some(name.as_str())
            }
            _ => None,
        };
        if let Some(n) = name {
            *names.entry(n).or_insert(0) += 1;
        }
    }
    for ((x, y), count) in occupied {
        if count > 1 {
            report.push(
                Diagnostic::error(
                    codes::DUPLICATE_TILE,
                    format!("tile({x},{y})"),
                    format!("{count} tiles placed at ({x},{y})"),
                )
                .with_hint("every grid position holds at most one tile"),
            );
        }
    }
    for (name, count) in names {
        if count > 1 {
            report.push(
                Diagnostic::error(
                    codes::DUPLICATE_DEVICE_NAME,
                    format!("device {name}"),
                    format!("device name {name} is used by {count} tiles"),
                )
                .with_hint("the runtime probes devices by name; names must be unique"),
            );
        }
    }
    let view = FloorplanView::from_config(config);
    for (kind, found) in [
        ("processor", !view.processors.is_empty()),
        ("memory", !view.memories.is_empty()),
    ] {
        if !found {
            report.push(
                Diagnostic::error(
                    codes::MISSING_REQUIRED_TILE,
                    "floorplan",
                    format!("the floorplan has no {kind} tile"),
                )
                .with_hint("every ESP SoC needs at least one processor and one memory tile"),
            );
        }
    }
    for dev in &view.devices {
        if let (Some(budget), Some(footprint)) = (dev.plm_words, dev.plm_footprint_words()) {
            if footprint > budget {
                report.push(
                    Diagnostic::error(
                        codes::PLM_OVERFLOW,
                        format!("device {}", dev.name),
                        format!(
                            "PLM footprint of {footprint} words (double-buffered input + \
                             output) exceeds the declared budget of {budget} words"
                        ),
                    )
                    .with_hint("raise plm_words or reduce the model's frame size"),
                );
            }
        }
        if let (Some(inp), Some(out)) = (dev.in_words, dev.out_words) {
            let working_set = 2 * inp + 2 * out;
            if working_set > SOCKET_TLB_REACH_WORDS {
                report.push(
                    Diagnostic::warning(
                        codes::TLB_PRESSURE,
                        format!("device {}", dev.name),
                        format!(
                            "per-invocation working set of {working_set} words exceeds the \
                             socket TLB reach of {SOCKET_TLB_REACH_WORDS} words ({} pages); \
                             expect page-walk thrashing",
                            SOCKET_TLB_REACH_WORDS / PageTable::DEFAULT_PAGE_WORDS
                        ),
                    )
                    .with_hint("shrink the frame size or split the model across tiles"),
                );
            }
        }
    }
    report.normalize();
    report
}

/// Lints a dataflow's structure (wraps [`Dataflow::lint`]).
pub fn lint_dataflow(dataflow: &Dataflow) -> Report {
    let mut report = Report::new();
    for diag in dataflow.lint() {
        report.push(diag);
    }
    report.normalize();
    report
}

/// Lints the mapping of a dataflow onto a floorplan: every stage device
/// must exist (`E0301`).
pub fn lint_mapping(view: &FloorplanView, dataflow: &Dataflow) -> Report {
    let mut report = Report::new();
    for name in dataflow.stages.iter().flat_map(|stage| &stage.devices) {
        if view.device(name).is_none() {
            report.push(
                Diagnostic::error(
                    codes::UNMAPPED_DEVICE,
                    format!("device {name}"),
                    format!(
                        "dataflow references device {name}, which the floorplan does not provide"
                    ),
                )
                .with_hint("add the accelerator tile or fix the device name"),
            );
        }
    }
    report.normalize();
    report
}

/// Full static lint of a configuration + dataflow pair: floorplan
/// structure, dataflow structure, and the mapping between them.
pub fn lint_all(config: &SocConfigFile, dataflow: &Dataflow) -> Report {
    let mut report = lint_config(config);
    report.merge(lint_dataflow(dataflow));
    report.merge(lint_mapping(&FloorplanView::from_config(config), dataflow));
    report.normalize();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::CaseApp;
    use crate::soc_config::TileSpec;

    fn codes_of(report: &Report) -> Vec<&'static str> {
        report.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn soc1_config_is_clean() {
        let report = lint_config(&SocConfigFile::soc1());
        assert!(report.is_clean(), "unexpected findings:\n{report}");
    }

    #[test]
    fn every_fig7_app_lints_clean_against_its_soc() {
        for app in CaseApp::all_fig7_configs() {
            let report = lint_all(&app.soc_id().config(), &app.dataflow());
            assert!(report.is_clean(), "{}: {report}", app.label());
        }
    }

    #[test]
    fn duplicate_tile_is_flagged() {
        let mut cfg = SocConfigFile::soc1();
        cfg.tiles.push(TileSpec::new(0, 0, TileSpecKind::Auxiliary));
        let report = lint_config(&cfg);
        assert!(codes_of(&report).contains(&codes::DUPLICATE_TILE));
        assert!(report.has_errors());
    }

    #[test]
    fn out_of_bounds_tile_is_flagged() {
        let mut cfg = SocConfigFile::soc1();
        cfg.tiles[0].x = 9;
        let report = lint_config(&cfg);
        assert!(codes_of(&report).contains(&codes::TILE_OUT_OF_BOUNDS));
    }

    #[test]
    fn missing_memory_is_flagged() {
        let mut cfg = SocConfigFile::soc1();
        cfg.tiles
            .retain(|t| !matches!(t.kind, TileSpecKind::Memory));
        let report = lint_config(&cfg);
        assert!(codes_of(&report).contains(&codes::MISSING_REQUIRED_TILE));
    }

    #[test]
    fn duplicate_device_name_is_flagged() {
        let mut cfg = SocConfigFile::soc1();
        cfg.tiles.push(TileSpec::new(
            4,
            2,
            TileSpecKind::NightVision { name: "nv0".into() },
        ));
        let report = lint_config(&cfg);
        assert!(codes_of(&report).contains(&codes::DUPLICATE_DEVICE_NAME));
    }

    #[test]
    fn shrunk_plm_budget_is_flagged() {
        let mut cfg = SocConfigFile::soc1();
        // The denoiser needs 2*256 + 256 = 768 words of PLM.
        let denoiser = cfg
            .tiles
            .iter_mut()
            .find(|t| matches!(&t.kind, TileSpecKind::MlModel { name, .. } if name == "denoiser"))
            .expect("denoiser tile");
        denoiser.plm_words = Some(512);
        let report = lint_config(&cfg);
        assert_eq!(codes_of(&report), vec![codes::PLM_OVERFLOW]);
        // A sufficient budget passes.
        let denoiser = cfg
            .tiles
            .iter_mut()
            .find(|t| matches!(&t.kind, TileSpecKind::MlModel { name, .. } if name == "denoiser"))
            .expect("denoiser tile");
        denoiser.plm_words = Some(768);
        assert!(lint_config(&cfg).is_clean());
    }

    #[test]
    fn unmapped_device_is_flagged() {
        let view = FloorplanView::from_config(&SocConfigFile::soc1());
        let df = Dataflow::linear(&[&["nv0"], &["ghost"]]);
        let report = lint_mapping(&view, &df);
        assert_eq!(codes_of(&report), vec![codes::UNMAPPED_DEVICE]);
        assert!(report.diagnostics[0].message.contains("ghost"));
    }

    #[test]
    fn mapped_fan_in_lints_clean() {
        let view = FloorplanView::from_config(&SocConfigFile::soc1());
        let df = Dataflow::linear(&[&["nv0", "nv1", "nv2", "nv3"], &["cl0"]]);
        assert!(lint_mapping(&view, &df).is_clean());
    }

    /// The static shapes are the ones the built SoC's devices report,
    /// split-classifier layers included.
    #[test]
    fn static_shapes_match_the_built_devices() {
        let models = crate::apps::TrainedModels::untrained();
        for config in [SocConfigFile::soc1(), SocConfigFile::soc2()] {
            let view = FloorplanView::from_config(&config);
            let soc = config.build(&models).unwrap();
            assert_eq!(view.devices.len(), soc.accel_coords().len());
            for dev in &view.devices {
                let coord = soc.accel_by_name(&dev.name).expect("device is built");
                let built = soc.accel(coord).unwrap().kernel();
                let words = |values| Some(words_for(values, built.data_bits()));
                assert_eq!(dev.in_words, words(built.input_values()), "{}", dev.name);
                assert_eq!(dev.out_words, words(built.output_values()), "{}", dev.name);
            }
        }
    }
}
