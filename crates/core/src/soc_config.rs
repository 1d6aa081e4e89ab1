//! Declarative SoC configuration files: the `.esp_config` analog.
//!
//! The ESP graphical configuration interface lets designers "pick the
//! location of each accelerator in the SoC"; the resulting configuration
//! drives SoC generation. This module provides the same capability as a
//! JSON document: a floorplan of typed tiles that [`SocConfigFile::build`]
//! turns into a running [`Soc`], compiling ML accelerators on the way.
//! The paper's two SoC instances are configs too ([`SocConfigFile::soc1`],
//! [`SocConfigFile::soc2`]), so every SoC is built by the same code.
//!
//! # Example
//!
//! ```
//! use esp4ml::soc_config::{SocConfigFile, TileSpec, TileSpecKind, MlModelRef};
//! use esp4ml::apps::TrainedModels;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let json = r#"{
//!   "name": "demo", "cols": 2, "rows": 2, "clock_mhz": 78.0,
//!   "tiles": [
//!     { "x": 0, "y": 0, "kind": { "type": "processor" } },
//!     { "x": 1, "y": 0, "kind": { "type": "memory" } },
//!     { "x": 0, "y": 1, "kind": { "type": "night_vision", "name": "nv0" } }
//!   ]
//! }"#;
//! let config = SocConfigFile::from_json(json)?;
//! let soc = config.build(&TrainedModels::untrained())?;
//! assert!(soc.accel_by_name("nv0").is_some());
//! # Ok(())
//! # }
//! ```

use crate::apps::{
    BuildError, BuiltinNet, TrainedModels, CLASSIFIER_REUSE, DENOISER_REUSE, MULTI_TILE_REUSE,
};
use crate::flow::Esp4mlFlow;
use esp4ml_hls4ml::Hls4mlCompiler;
use esp4ml_noc::Coord;
use esp4ml_soc::{NnKernel, Soc, SocBuilder};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// Which trained model an ML accelerator tile hosts.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(tag = "source", rename_all = "snake_case")]
pub enum MlModelRef {
    /// The SVHN digit classifier from the in-memory [`TrainedModels`].
    Classifier,
    /// The denoising autoencoder from the in-memory [`TrainedModels`].
    Denoiser,
    /// Dense layer `layer` of the classifier: the classifier is compiled
    /// whole with the tile's reuse factors and split with
    /// `split_layers()` (SoC-2's multi-tile classifier).
    ClassifierLayer {
        /// Zero-based dense-layer index.
        layer: usize,
    },
    /// A serialized `(model.json, weights)` pair on disk.
    Files {
        /// Path to the topology JSON.
        topology: PathBuf,
        /// Path to the binary weight blob.
        weights: PathBuf,
    },
}

/// What a configured tile contains.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum TileSpecKind {
    /// Processor tile (Ariane).
    Processor,
    /// Memory tile (default DRAM configuration).
    Memory,
    /// Auxiliary tile.
    Auxiliary,
    /// A Night-Vision accelerator (SystemC/Stratus path).
    NightVision {
        /// Device name.
        name: String,
    },
    /// An HLS4ML-compiled ML accelerator.
    MlModel {
        /// Device name.
        name: String,
        /// Which model to compile.
        model: MlModelRef,
        /// Per-layer reuse factors (empty = global 64).
        #[serde(default)]
        reuse: Vec<u64>,
    },
}

/// One placed tile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TileSpec {
    /// Column.
    pub x: u8,
    /// Row.
    pub y: u8,
    /// Contents.
    pub kind: TileSpecKind,
    /// Declared PLM budget of an accelerator tile, in 64-bit words
    /// (`None` = unconstrained). `esp4ml-check` verifies the model's
    /// buffer footprint fits (`E0304`).
    #[serde(default)]
    pub plm_words: Option<u64>,
}

impl TileSpec {
    /// A tile at `(x, y)` with no declared PLM budget.
    pub fn new(x: u8, y: u8, kind: TileSpecKind) -> Self {
        TileSpec {
            x,
            y,
            kind,
            plm_words: None,
        }
    }
}

/// A complete SoC configuration document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SocConfigFile {
    /// Design name.
    pub name: String,
    /// Mesh columns.
    pub cols: usize,
    /// Mesh rows.
    pub rows: usize,
    /// Clock frequency in MHz.
    pub clock_mhz: f64,
    /// Placed tiles.
    pub tiles: Vec<TileSpec>,
}

impl SocConfigFile {
    /// Parses a configuration from JSON.
    ///
    /// # Errors
    ///
    /// Malformed JSON.
    pub fn from_json(json: &str) -> Result<SocConfigFile, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Renders the configuration as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("config serializes")
    }

    /// Builds the SoC: compiles every ML accelerator, instantiates the
    /// Night-Vision kernels and assembles the floorplan.
    ///
    /// Each built-in network compiles once per `(model, reuse)` key and
    /// per [`TrainedModels`]: the first build that needs it compiles it,
    /// and later builds from the same models (or a clone) reuse it. Every
    /// tile hosting it deploys a renamed copy sharing the weights and the
    /// result memo of the whole network or of its layer. Whole
    /// classifier and denoiser copies share a kind, so the runtime can
    /// fail over between them; a layer part keeps its name as its kind.
    /// `Files` tiles compile on every build and keep no memo.
    ///
    /// # Errors
    ///
    /// Compilation failures (including model-file loading), a classifier
    /// layer index past the network's depth, and floorplan violations.
    pub fn build(&self, models: &TrainedModels) -> Result<Soc, BuildError> {
        let flow = Esp4mlFlow::new();
        let mut b = SocBuilder::new(self.cols, self.rows).clock_mhz(self.clock_mhz);
        for tile in &self.tiles {
            let coord = Coord::new(tile.x, tile.y);
            b = match &tile.kind {
                TileSpecKind::Processor => b.processor(coord),
                TileSpecKind::Memory => b.memory(coord),
                TileSpecKind::Auxiliary => b.auxiliary(coord),
                TileSpecKind::NightVision { name } => {
                    b.accelerator(coord, Box::new(flow.vision_accelerator(name)))
                }
                TileSpecKind::MlModel {
                    name,
                    model: MlModelRef::Files { topology, weights },
                    reuse,
                } => {
                    let cfg = flow.hls4ml_config(name, reuse);
                    let nn = Hls4mlCompiler::compile_files(topology, weights, &cfg)?;
                    b.accelerator(coord, Box::new(NnKernel::new(nn)))
                }
                TileSpecKind::MlModel { name, model, reuse } => {
                    let net = match model {
                        MlModelRef::Denoiser => BuiltinNet::Denoiser,
                        _ => BuiltinNet::Classifier,
                    };
                    let compiled = models.compiled(net, reuse)?;
                    let kernel = match model {
                        MlModelRef::ClassifierLayer { layer } => compiled
                            .part(*layer, name)
                            .ok_or_else(|| BuildError::MissingLayer {
                                tile: name.clone(),
                                layer: *layer,
                                layers: compiled.network().layers().len(),
                            })?,
                        _ => compiled.whole(name).with_kind(net.kind()),
                    };
                    b.accelerator(coord, Box::new(kernel))
                }
            };
        }
        Ok(b.build()?)
    }

    /// The canonical SoC-1 configuration: one Ariane processor tile, one
    /// memory tile, one auxiliary tile, four Night-Vision accelerators, five
    /// classifier copies and the denoiser on a 5×3 mesh — ten
    /// accelerators, matching "up to ten" in §VI.
    pub fn soc1() -> SocConfigFile {
        let mut tiles = vec![
            TileSpec::new(0, 0, TileSpecKind::Processor),
            TileSpec::new(1, 0, TileSpecKind::Memory),
            TileSpec::new(2, 0, TileSpecKind::Auxiliary),
        ];
        for (i, (x, y)) in [(3u8, 0u8), (4, 0), (0, 1), (1, 1)].into_iter().enumerate() {
            tiles.push(TileSpec::new(
                x,
                y,
                TileSpecKind::NightVision {
                    name: format!("nv{i}"),
                },
            ));
        }
        // Each Night-Vision instance has its classifier nearby (p2p pairs).
        for (i, (x, y)) in [(2u8, 1u8), (3, 1), (4, 1), (0, 2)].into_iter().enumerate() {
            tiles.push(TileSpec::new(
                x,
                y,
                ml(&format!("cl{i}"), MlModelRef::Classifier, &CLASSIFIER_REUSE),
            ));
        }
        tiles.push(TileSpec::new(
            1,
            2,
            ml("denoiser", MlModelRef::Denoiser, &DENOISER_REUSE),
        ));
        // The denoiser pipeline has its own downstream classifier tile
        // (Fig. 6 maps the De→Cl chain onto dedicated tiles).
        tiles.push(TileSpec::new(
            2,
            2,
            ml("cl_de", MlModelRef::Classifier, &CLASSIFIER_REUSE),
        ));
        SocConfigFile {
            name: "esp4ml-soc1".into(),
            cols: 5,
            rows: 3,
            clock_mhz: 78.0,
            tiles,
        }
    }

    /// The canonical SoC-2 configuration: the classifier partitioned
    /// across five accelerator tiles (`cls_l0`..`cls_l4`, one dense layer
    /// each) on a 3×3 mesh.
    pub fn soc2() -> SocConfigFile {
        let mut tiles = vec![
            TileSpec::new(0, 0, TileSpecKind::Processor),
            TileSpec::new(1, 0, TileSpecKind::Memory),
            TileSpec::new(1, 2, TileSpecKind::Auxiliary),
        ];
        for (layer, (x, y)) in [(2u8, 0u8), (0, 1), (1, 1), (2, 1), (0, 2)]
            .into_iter()
            .enumerate()
        {
            tiles.push(TileSpec::new(
                x,
                y,
                ml(
                    &format!("cls_l{layer}"),
                    MlModelRef::ClassifierLayer { layer },
                    &MULTI_TILE_REUSE,
                ),
            ));
        }
        SocConfigFile {
            name: "esp4ml-soc2".into(),
            cols: 3,
            rows: 3,
            clock_mhz: 78.0,
            tiles,
        }
    }
}

fn ml(name: &str, model: MlModelRef, reuse: &[u64]) -> TileSpecKind {
    TileSpecKind::MlModel {
        name: name.to_string(),
        model,
        reuse: reuse.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::{CLASSIFIER_KIND, DENOISER_KIND};
    use esp4ml_runtime::DeviceRegistry;

    #[test]
    fn json_roundtrip() {
        for cfg in [SocConfigFile::soc1(), SocConfigFile::soc2()] {
            let back = SocConfigFile::from_json(&cfg.to_json()).expect("parses");
            assert_eq!(back, cfg);
        }
    }

    #[test]
    fn builtin_tiles_probe_with_their_kinds() {
        // Device kinds decide failover: whole classifier copies are
        // interchangeable, layer parts are not.
        let models = TrainedModels::untrained();
        let soc1 = DeviceRegistry::probe(&SocConfigFile::soc1().build(&models).expect("builds"));
        for name in ["cl0", "cl1", "cl2", "cl3", "cl_de"] {
            assert_eq!(soc1.lookup(name).expect(name).kind, CLASSIFIER_KIND);
        }
        assert_eq!(
            soc1.lookup("denoiser").expect("denoiser").kind,
            DENOISER_KIND
        );
        let soc2 = DeviceRegistry::probe(&SocConfigFile::soc2().build(&models).expect("builds"));
        for layer in 0..5 {
            let name = format!("cls_l{layer}");
            assert_eq!(soc2.lookup(&name).expect("layer tile").kind, name);
        }
    }

    #[test]
    fn missing_classifier_layer_is_a_typed_error() {
        let mut cfg = SocConfigFile::soc2();
        cfg.tiles.push(TileSpec::new(
            2,
            2,
            ml(
                "cls_l9",
                MlModelRef::ClassifierLayer { layer: 9 },
                &MULTI_TILE_REUSE,
            ),
        ));
        match cfg.build(&TrainedModels::untrained()) {
            Err(BuildError::MissingLayer {
                tile,
                layer,
                layers,
            }) => {
                assert_eq!((tile.as_str(), layer, layers), ("cls_l9", 9, 5));
            }
            other => panic!("expected MissingLayer, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn bad_floorplan_is_rejected_at_build() {
        let mut cfg = SocConfigFile::soc1();
        cfg.tiles.push(TileSpec::new(0, 0, TileSpecKind::Auxiliary));
        assert!(cfg.build(&TrainedModels::untrained()).is_err());
    }

    #[test]
    fn malformed_json_rejected() {
        assert!(SocConfigFile::from_json("{not json").is_err());
        assert!(SocConfigFile::from_json("{}").is_err());
    }
}
