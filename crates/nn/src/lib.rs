//! Minimal neural-network substrate: the Keras analog of the ESP4ML flow.
//!
//! The paper trains its two ML models (an MLP digit classifier and a
//! denoising autoencoder) in Keras and hands them to HLS4ML as a JSON
//! topology plus an HDF5 weight file. This crate reproduces that front end
//! in pure Rust:
//!
//! * [`Matrix`] — a small row-major `f32` matrix with the handful of BLAS
//!   kernels dense training needs.
//! * [`Sequential`] — a feed-forward model built from [`LayerSpec`]s
//!   (Dense with activation, Dropout, GaussianNoise — exactly the layers
//!   the paper's two networks use).
//! * [`Trainer`] — mini-batch SGD/Adam with cross-entropy or MSE loss.
//! * [`ModelFile`] — JSON topology + little-endian binary weights (the
//!   `model.json` / `model.h5` analog consumed by the HLS4ML compiler
//!   crate).
//!
//! # Example
//!
//! ```
//! use esp4ml_nn::{Sequential, LayerSpec, Activation, Matrix};
//!
//! let mut model = Sequential::new(4);
//! model.push(LayerSpec::dense(8, Activation::Relu));
//! model.push(LayerSpec::dense(3, Activation::Softmax));
//! let x = Matrix::zeros(1, 4);
//! let y = model.forward(&x);
//! assert_eq!(y.cols(), 3);
//! let sum: f32 = y.row(0).iter().sum();
//! assert!((sum - 1.0).abs() < 1e-5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activation;
mod data;
mod layer;
mod loss;
mod matrix;
mod metrics;
mod model;
mod optimizer;
mod serialize;
mod train;

pub use activation::Activation;
pub use data::Dataset;
pub use layer::{DenseLayer, LayerSpec};
pub use loss::Loss;
pub use matrix::Matrix;
pub use metrics::ConfusionMatrix;
pub use model::{Sequential, SVHN_CLASSIFIER_WIDTHS, SVHN_DENOISER_WIDTHS};
pub use optimizer::{Optimizer, OptimizerKind};
pub use serialize::{ModelFile, SerializeError};
pub use train::{accuracy, reconstruction_error, TrainConfig, TrainReport, Trainer};
