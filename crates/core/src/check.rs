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
//! * `E0302` — the p2p traffic pattern's XY routes close a cycle in the
//!   channel-dependency graph (wormhole deadlock risk). XY routing on a
//!   mesh is provably deadlock-free, so this is a safety net that fires
//!   only for custom routing tables or corrupted route sets.
//! * `E0304` / `W0305` — a declared PLM budget too small for the
//!   model's buffer footprint / a per-invocation working set larger
//!   than the socket TLB's reach.
//!
//! The runtime half of the checker — credit/flit conservation, wormhole
//! framing, DMA accounting, deadlock diagnosis — lives behind
//! [`esp4ml_soc::Soc::enable_sanitizer`].

use crate::soc_config::{MlModelRef, SocConfigFile, TileSpecKind};
use esp4ml_check::{cdg, codes, Diagnostic, Report};
use esp4ml_hls::FixedSpec;
use esp4ml_mem::PageTable;
use esp4ml_noc::Coord;
use esp4ml_runtime::Dataflow;
use esp4ml_soc::{words_for, SOCKET_TLB_REACH_WORDS};
use std::collections::{BTreeMap, BTreeSet};

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

/// A floorplan reduced to what the linter needs: grid size, tile
/// placement and the statically-known device shapes, extracted from a
/// declarative [`SocConfigFile`].
#[derive(Debug, Clone, Default)]
pub struct FloorplanView {
    /// Mesh columns.
    pub cols: usize,
    /// Mesh rows.
    pub rows: usize,
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
        let mut view = FloorplanView {
            cols: config.cols,
            rows: config.rows,
            ..FloorplanView::default()
        };
        // Every built-in accelerator computes at the hls4ml default
        // precision.
        let words = |values| words_for(values, FixedSpec::HLS4ML_DEFAULT.total_bits());
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
                TileSpecKind::NightVision { name } => (name, Some((1024, 1024))),
                TileSpecKind::MlModel { name, model, .. } => match model {
                    MlModelRef::Classifier => (name, Some((1024, 10))),
                    MlModelRef::Denoiser => (name, Some((1024, 1024))),
                    MlModelRef::ClassifierLayer { .. } | MlModelRef::Files { .. } => (name, None),
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
/// must exist (`E0301`), and the XY routes of the resulting traffic
/// pattern must not close a channel-dependency cycle (`E0302`).
pub fn lint_mapping(view: &FloorplanView, dataflow: &Dataflow) -> Report {
    let mut report = Report::new();
    let mut known = BTreeSet::new();
    for stage in &dataflow.stages {
        for name in &stage.devices {
            match view.device(name) {
                Some(_) => {
                    known.insert(name.as_str());
                }
                None => report.push(
                    Diagnostic::error(
                        codes::UNMAPPED_DEVICE,
                        format!("device {name}"),
                        format!("dataflow references device {name}, which the floorplan does not provide"),
                    )
                    .with_hint("add the accelerator tile or fix the device name"),
                ),
            }
        }
    }

    // Channel-dependency analysis of the p2p traffic pattern. Planes are
    // physically decoupled, so each gets its own dependency graph:
    // P2pLoadReq flows (consumer -> producer) ride the DMA-request
    // plane, DmaData replies (producer -> consumer) the DMA-response
    // plane; first-stage loads and last-stage stores add accelerator <->
    // memory flows on the same two planes.
    let coord_of = |name: &str| view.device(name).map(|d| d.coord);
    let mut req_flows: Vec<(Coord, Coord)> = Vec::new();
    let mut rsp_flows: Vec<(Coord, Coord)> = Vec::new();
    for w in dataflow.stages.windows(2) {
        for consumer in &w[1].devices {
            for producer in &w[0].devices {
                if let (Some(c), Some(p)) = (coord_of(consumer), coord_of(producer)) {
                    req_flows.push((c, p));
                    rsp_flows.push((p, c));
                }
            }
        }
    }
    if let (Some(first), Some(last)) = (dataflow.stages.first(), dataflow.stages.last()) {
        for name in first.devices.iter().chain(&last.devices) {
            if let Some(a) = coord_of(name) {
                for &m in &view.memories {
                    req_flows.push((a, m));
                    rsp_flows.push((m, a));
                }
            }
        }
    }
    for (plane, flows) in [("dma-req", req_flows), ("dma-rsp", rsp_flows)] {
        let routes = cdg::xy_routes(
            &flows
                .iter()
                .map(|&(s, d)| ((s.x, s.y), (d.x, d.y)))
                .collect::<Vec<_>>(),
        );
        if let Some(cycle) = cdg::find_cycle(&routes) {
            let links: Vec<String> = cycle.iter().map(cdg::render_link).collect();
            report.push(
                Diagnostic::error(
                    codes::CDG_CYCLE,
                    format!("plane {plane}"),
                    format!(
                        "the traffic pattern's routes close a channel-dependency cycle: {}",
                        links.join(" -> ")
                    ),
                )
                .with_hint("wormhole deadlock risk; restore XY routing or break the cycle"),
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
    fn xy_mapping_has_no_cdg_cycle() {
        let view = FloorplanView::from_config(&SocConfigFile::soc1());
        let df = Dataflow::linear(&[&["nv0", "nv1", "nv2", "nv3"], &["cl0"]]);
        assert!(lint_mapping(&view, &df).is_clean());
    }
}
