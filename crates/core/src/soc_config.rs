//! Declarative SoC configuration files: the `.esp_config` analog.
//!
//! The ESP graphical configuration interface lets designers "pick the
//! location of each accelerator in the SoC"; the resulting configuration
//! drives SoC generation. This module provides the same capability as a
//! JSON document: a floorplan of typed tiles that [`SocConfigFile::build`]
//! turns into a running [`Soc`], compiling ML accelerators on the way.
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

use crate::apps::{BuildError, TrainedModels, CLASSIFIER_KIND, DENOISER_KIND};
use crate::flow::Esp4mlFlow;
use esp4ml_hls4ml::{Hls4mlCompiler, Hls4mlConfig};
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
    /// # Errors
    ///
    /// Compilation failures (including model-file loading) and floorplan
    /// violations.
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
                TileSpecKind::MlModel { name, model, reuse } => {
                    // Built-in models get the kinds `build_soc1` gives them,
                    // so config-built copies can fail over between each other.
                    let kernel = match model {
                        MlModelRef::Classifier => flow
                            .ml_accelerator(&models.classifier, name, &normalize(reuse))?
                            .with_kind(CLASSIFIER_KIND),
                        MlModelRef::Denoiser => flow
                            .ml_accelerator(&models.denoiser, name, &normalize(reuse))?
                            .with_kind(DENOISER_KIND),
                        MlModelRef::Files { topology, weights } => {
                            let cfg = if reuse.is_empty() {
                                Hls4mlConfig::with_reuse(64).named(name)
                            } else {
                                Hls4mlConfig::with_reuse(reuse.iter().copied().max().unwrap_or(64))
                                    .named(name)
                                    .with_per_layer_reuse(reuse.clone())
                            };
                            NnKernel::new(Hls4mlCompiler::compile_files(topology, weights, &cfg)?)
                        }
                    };
                    b.accelerator(coord, Box::new(kernel))
                }
            };
        }
        Ok(b.build()?)
    }

    /// The canonical SoC-1 configuration (Night-Vision ×4, classifier ×5,
    /// denoiser), equivalent to [`crate::apps::build_soc1`].
    pub fn soc1() -> SocConfigFile {
        let ml = |name: &str, model: MlModelRef, reuse: &[u64]| TileSpecKind::MlModel {
            name: name.to_string(),
            model,
            reuse: reuse.to_vec(),
        };
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
        for (i, (x, y)) in [(2u8, 1u8), (3, 1), (4, 1), (0, 2)].into_iter().enumerate() {
            tiles.push(TileSpec::new(
                x,
                y,
                ml(
                    &format!("cl{i}"),
                    MlModelRef::Classifier,
                    &crate::apps::CLASSIFIER_REUSE,
                ),
            ));
        }
        tiles.push(TileSpec::new(
            1,
            2,
            ml(
                "denoiser",
                MlModelRef::Denoiser,
                &crate::apps::DENOISER_REUSE,
            ),
        ));
        tiles.push(TileSpec::new(
            2,
            2,
            ml(
                "cl_de",
                MlModelRef::Classifier,
                &crate::apps::CLASSIFIER_REUSE,
            ),
        ));
        SocConfigFile {
            name: "esp4ml-soc1".into(),
            cols: 5,
            rows: 3,
            clock_mhz: 78.0,
            tiles,
        }
    }
}

fn normalize(reuse: &[u64]) -> Vec<u64> {
    if reuse.is_empty() {
        vec![64]
    } else {
        reuse.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp4ml_runtime::DeviceRegistry;

    #[test]
    fn json_roundtrip() {
        let cfg = SocConfigFile::soc1();
        let json = cfg.to_json();
        let back = SocConfigFile::from_json(&json).expect("parses");
        assert_eq!(back, cfg);
    }

    #[test]
    fn soc1_config_builds_equivalent_floorplan() {
        let models = TrainedModels::untrained();
        let from_config = SocConfigFile::soc1().build(&models).expect("builds");
        let direct = crate::apps::build_soc1(&models).expect("builds");
        let mut a = from_config.accel_coords();
        let mut b = direct.accel_coords();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        for name in ["nv0", "cl3", "denoiser", "cl_de"] {
            assert_eq!(from_config.accel_by_name(name), direct.accel_by_name(name));
        }
        // Device kinds decide failover: a config-built SoC-1 must treat
        // its classifier copies as interchangeable exactly as `build_soc1`.
        assert_eq!(
            DeviceRegistry::probe(&from_config).devices(),
            DeviceRegistry::probe(&direct).devices()
        );
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
