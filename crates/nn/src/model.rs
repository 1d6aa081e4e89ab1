//! Sequential feed-forward models.

use crate::layer::NoiseLayer;
use crate::{Activation, DenseLayer, LayerSpec, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Everything recorded during a training-mode forward pass.
#[derive(Debug, Clone)]
pub(crate) struct TrainTrace {
    /// Input to dense layer `i` (after any preceding noise layer).
    pub(crate) inputs: Vec<Matrix>,
    /// Post-activation output of dense layer `i` (before following noise).
    pub(crate) outputs: Vec<Matrix>,
    /// Final network output.
    pub(crate) output: Matrix,
    /// Per noise-spec mask, in spec order (`Some` only for dropout).
    pub(crate) masks: Vec<Option<Matrix>>,
}

/// A Keras-style sequential model.
///
/// Layers are appended with [`Sequential::push`]; dense weights are
/// materialized immediately with Glorot initialization from the model's
/// deterministic seed, so a freshly built model is ready for both
/// [`Sequential::forward`] and training.
///
/// Dropout and Gaussian-noise layers are active only during training, as in
/// Keras; inference skips them.
#[derive(Debug, Clone)]
pub struct Sequential {
    input_dim: usize,
    specs: Vec<LayerSpec>,
    pub(crate) dense: Vec<DenseLayer>,
    /// Index into `dense` for each spec that is trainable.
    rng: StdRng,
}

impl Sequential {
    /// Creates an empty model with the given input dimension and the
    /// default seed (42).
    pub fn new(input_dim: usize) -> Self {
        Sequential::with_seed(input_dim, 42)
    }

    /// Creates an empty model with an explicit weight-initialization seed.
    pub fn with_seed(input_dim: usize, seed: u64) -> Self {
        Sequential {
            input_dim,
            specs: Vec::new(),
            dense: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Appends a layer, materializing weights for dense layers.
    ///
    /// # Panics
    ///
    /// Panics if a dense layer has zero units or a dropout rate is outside
    /// `[0, 1)`.
    pub fn push(&mut self, spec: LayerSpec) {
        match spec {
            LayerSpec::Dense { units, activation } => {
                assert!(units > 0, "dense layer needs at least one unit");
                let n_in = self.output_dim();
                self.dense
                    .push(DenseLayer::init_for(n_in, units, activation, &mut self.rng));
            }
            LayerSpec::Dropout { rate } => {
                assert!((0.0..1.0).contains(&rate), "dropout rate must be in [0, 1)");
            }
            LayerSpec::GaussianNoise { stddev } => {
                assert!(stddev >= 0.0, "noise stddev must be non-negative");
            }
        }
        self.specs.push(spec);
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Current output dimension (input dimension if no dense layer yet).
    pub fn output_dim(&self) -> usize {
        self.dense.last().map_or(self.input_dim, |l| l.n_out())
    }

    /// The layer specifications in order.
    pub fn specs(&self) -> &[LayerSpec] {
        &self.specs
    }

    /// The materialized dense layers in order.
    pub fn dense_layers(&self) -> &[DenseLayer] {
        &self.dense
    }

    /// Mutable access to the dense layers (used by the trainer and by
    /// weight loading).
    pub fn dense_layers_mut(&mut self) -> &mut [DenseLayer] {
        &mut self.dense
    }

    /// Total trainable parameters.
    pub fn param_count(&self) -> usize {
        self.dense.iter().map(DenseLayer::param_count).sum()
    }

    /// The dimensions of the network as `[input, hidden..., output]` — the
    /// "1024x256x128x64x32x10" notation of the paper.
    pub fn dims(&self) -> Vec<usize> {
        let mut dims = vec![self.input_dim];
        dims.extend(self.dense.iter().map(|l| l.n_out()));
        dims
    }

    /// Inference forward pass on a batch (`[batch x input_dim]`).
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != input_dim`.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.input_dim, "input dimension mismatch");
        let mut a = x.clone();
        for layer in &self.dense {
            a = layer.forward(&a);
        }
        a
    }

    /// Predicted class index per row (argmax over the output).
    pub fn predict_classes(&self, x: &Matrix) -> Vec<usize> {
        let y = self.forward(x);
        (0..y.rows())
            .map(|r| {
                y.row(r)
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
                    .map(|(i, _)| i)
                    .expect("non-empty output")
            })
            .collect()
    }

    /// Training-mode forward pass, recording everything backprop needs.
    pub(crate) fn forward_training(&self, x: &Matrix, rng: &mut StdRng) -> TrainTrace {
        let mut trace = TrainTrace {
            inputs: Vec::with_capacity(self.dense.len()),
            outputs: Vec::with_capacity(self.dense.len()),
            output: Matrix::zeros(0, 0),
            masks: Vec::new(),
        };
        let mut a = x.clone();
        let mut dense_idx = 0;
        for spec in &self.specs {
            match *spec {
                LayerSpec::Dense { .. } => {
                    trace.inputs.push(a.clone());
                    a = self.dense[dense_idx].forward(&a);
                    trace.outputs.push(a.clone());
                    dense_idx += 1;
                }
                LayerSpec::Dropout { rate } => {
                    let mask = NoiseLayer::Dropout { rate }.apply_training(&mut a, rng);
                    trace.masks.push(mask);
                }
                LayerSpec::GaussianNoise { stddev } => {
                    NoiseLayer::Gaussian { stddev }.apply_training(&mut a, rng);
                    trace.masks.push(None);
                }
            }
        }
        trace.output = a;
        trace
    }

    /// Builds the paper's MLP classifier: [`SVHN_CLASSIFIER_WIDTHS`]
    /// with ReLU hidden layers, dropout 0.2, softmax output.
    pub fn svhn_classifier() -> Self {
        let [input, hidden @ .., output] = SVHN_CLASSIFIER_WIDTHS;
        let mut m = Sequential::new(input);
        for units in hidden {
            m.push(LayerSpec::dense(units, Activation::Relu));
            m.push(LayerSpec::Dropout { rate: 0.2 });
        }
        m.push(LayerSpec::dense(output, Activation::Softmax));
        m
    }

    /// Builds the paper's denoising autoencoder: [`SVHN_DENOISER_WIDTHS`]
    /// with a compression factor of 8 at the bottleneck, Gaussian noise
    /// at the input during training, sigmoid reconstruction output.
    pub fn svhn_denoiser() -> Self {
        let [input, hidden @ .., output] = SVHN_DENOISER_WIDTHS;
        let mut m = Sequential::new(input);
        m.push(LayerSpec::GaussianNoise { stddev: 0.1 });
        for units in hidden {
            m.push(LayerSpec::dense(units, Activation::Relu));
        }
        m.push(LayerSpec::dense(output, Activation::Sigmoid));
        m
    }
}

/// Layer widths of the paper's SVHN classifier, input first:
/// 1024×256×128×64×32×10.
pub const SVHN_CLASSIFIER_WIDTHS: [usize; 6] = [1024, 256, 128, 64, 32, 10];

/// Layer widths of the paper's SVHN denoising autoencoder, input first:
/// 1024×256×128×1024.
pub const SVHN_DENOISER_WIDTHS: [usize; 4] = [1024, 256, 128, 1024];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_track_topology() {
        let m = Sequential::svhn_classifier();
        assert_eq!(m.dims(), vec![1024, 256, 128, 64, 32, 10]);
        assert_eq!(m.output_dim(), 10);
        // 1024*256+256 + 256*128+128 + 128*64+64 + 64*32+32 + 32*10+10
        assert_eq!(m.param_count(), 305_472 + 490);
    }

    #[test]
    fn denoiser_dims_match_paper() {
        let m = Sequential::svhn_denoiser();
        assert_eq!(m.dims(), vec![1024, 256, 128, 1024]);
        // Compression factor at the bottleneck: 1024 / 128 = 8.
        assert_eq!(1024 / *m.dims().iter().min().expect("dims"), 8);
    }

    #[test]
    fn forward_is_deterministic_for_same_seed() {
        let build = || {
            let mut m = Sequential::with_seed(4, 7);
            m.push(LayerSpec::dense(8, Activation::Relu));
            m.push(LayerSpec::dense(2, Activation::Softmax));
            m
        };
        let x = Matrix::from_vec(1, 4, vec![0.1, 0.2, 0.3, 0.4]);
        assert_eq!(build().forward(&x), build().forward(&x));
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Sequential::with_seed(4, 1);
        a.push(LayerSpec::dense(4, Activation::Linear));
        let mut b = Sequential::with_seed(4, 2);
        b.push(LayerSpec::dense(4, Activation::Linear));
        assert_ne!(
            a.dense_layers()[0].weights.as_slice(),
            b.dense_layers()[0].weights.as_slice()
        );
    }

    #[test]
    fn predict_classes_argmax() {
        let mut m = Sequential::new(2);
        m.push(LayerSpec::dense(2, Activation::Linear));
        // Force identity-ish weights.
        let l = &mut m.dense_layers_mut()[0];
        l.weights = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        l.bias = vec![0.0, 0.0];
        let x = Matrix::from_vec(2, 2, vec![3.0, 1.0, 0.0, 2.0]);
        assert_eq!(m.predict_classes(&x), vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "input dimension mismatch")]
    fn forward_rejects_wrong_width() {
        let mut m = Sequential::new(4);
        m.push(LayerSpec::dense(2, Activation::Linear));
        m.forward(&Matrix::zeros(1, 3));
    }

    #[test]
    #[should_panic(expected = "dropout rate")]
    fn invalid_dropout_rejected() {
        let mut m = Sequential::new(4);
        m.push(LayerSpec::Dropout { rate: 1.5 });
    }

    #[test]
    fn training_forward_returns_layer_inputs() {
        use rand::SeedableRng;
        let m = Sequential::svhn_denoiser();
        let x = Matrix::zeros(2, 1024);
        let mut rng = StdRng::seed_from_u64(0);
        let trace = m.forward_training(&x, &mut rng);
        assert_eq!(trace.inputs.len(), 3);
        assert_eq!(trace.outputs.len(), 3);
        assert_eq!(trace.output.cols(), 1024);
        assert_eq!(trace.masks.len(), 1); // the noise layer
                                          // Gaussian noise must have perturbed the first dense input.
        assert!(trace.inputs[0].norm() > 0.0);
    }
}
