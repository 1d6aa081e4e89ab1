//! The compiled fixed-point accelerator: behavioural model + HLS report.

use esp4ml_hls::{DenseLayerHls, FixedSpec, HlsEstimate, Resources};
use esp4ml_nn::Activation;
use std::sync::Arc;

/// One quantized dense layer of a compiled network.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedDense {
    n_in: usize,
    n_out: usize,
    /// Output-major `n_out x n_in` weights as raw fixed-point values: row
    /// `j` holds every weight feeding output `j`. [`FixedSpec`] widths are
    /// at most 32 bits, so every raw value fits an `i32`. Clones share
    /// the array.
    weights: Arc<[i32]>,
    /// Raw fixed-point biases.
    bias: Vec<i64>,
    activation: Activation,
    spec: FixedSpec,
    reuse: u64,
}

impl QuantizedDense {
    /// Quantizes a float layer whose weights are row-major `n_in x n_out`.
    pub(crate) fn quantize(
        weights: &[f32],
        bias: &[f32],
        n_in: usize,
        n_out: usize,
        activation: Activation,
        spec: FixedSpec,
        reuse: u64,
    ) -> Self {
        assert_eq!(weights.len(), n_in * n_out, "weight count mismatch");
        let mut raw = vec![0i32; n_in * n_out];
        for i in 0..n_in {
            for j in 0..n_out {
                let w = spec.quantize(weights[i * n_out + j] as f64);
                raw[j * n_in + i] = i32::try_from(w).expect("widths are at most 32 bits");
            }
        }
        QuantizedDense {
            n_in,
            n_out,
            weights: raw.into(),
            bias: bias.iter().map(|&b| spec.quantize(b as f64)).collect(),
            activation,
            spec,
            reuse,
        }
    }

    /// Input dimension.
    pub fn n_in(&self) -> usize {
        self.n_in
    }

    /// Output dimension.
    pub fn n_out(&self) -> usize {
        self.n_out
    }

    /// Activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Effective reuse factor (after clamping to the op count).
    pub fn reuse(&self) -> u64 {
        self.reuse
    }

    /// The fixed-point format.
    pub fn spec(&self) -> FixedSpec {
        self.spec
    }

    /// The HLS scheduling model of this layer.
    pub fn hls_model(&self) -> DenseLayerHls {
        DenseLayerHls::new(self.n_in as u64, self.n_out as u64, self.reuse, self.spec)
    }

    /// Terms per `i64` partial sum of a dot product. Weights and inputs
    /// lie in `[min_raw, max_raw]`, so for a `b`-bit format each product
    /// is at most `2^(2b-2)` in magnitude and `2^(62-2(b-1))` of them sum
    /// to at most `2^62`, which no `i64` overflows.
    fn chunk_len(&self) -> usize {
        let shift = 62 - 2 * (self.spec.total_bits() - 1);
        usize::try_from(1u64 << shift).unwrap_or(usize::MAX)
    }

    /// Fixed-point forward pass on raw values.
    ///
    /// The multiply-accumulate is exact (as the HLS datapath is with a
    /// wide accumulator): each output is a contiguous dot product over
    /// its weight row, summed in `i64` chunks that cannot overflow (see
    /// `chunk_len`) and added into an `i128` accumulator. The result is
    /// rescaled, saturated and activated in the layer's own format.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != n_in`, or if an input lies outside
    /// `[spec.min_raw(), spec.max_raw()]`.
    pub fn forward_fixed(&self, input: &[i64]) -> Vec<i64> {
        assert_eq!(input.len(), self.n_in, "input width mismatch");
        let (lo, hi) = (self.spec.min_raw(), self.spec.max_raw());
        let x: Vec<i32> = input
            .iter()
            .map(|&v| {
                assert!((lo..=hi).contains(&v), "input {v} outside [{lo}, {hi}]");
                v as i32
            })
            .collect();
        let chunk = self.chunk_len();
        (0..self.n_out)
            .map(|j| {
                let row = &self.weights[j * self.n_in..(j + 1) * self.n_in];
                let mut acc = (self.bias[j] as i128) << self.spec.frac_bits();
                for (w, x) in row.chunks(chunk).zip(x.chunks(chunk)) {
                    let sum: i64 = w.iter().zip(x).map(|(&w, &x)| w as i64 * x as i64).sum();
                    acc += sum as i128;
                }
                self.finish(acc)
            })
            .collect()
    }

    /// Rescales a full-precision accumulator, saturates it into the
    /// layer's format and applies the activation.
    fn finish(&self, acc: i128) -> i64 {
        let (lo, hi) = (self.spec.min_raw(), self.spec.max_raw());
        let raw = (acc >> self.spec.frac_bits()).clamp(lo as i128, hi as i128) as i64;
        self.apply_activation(raw)
    }

    fn apply_activation(&self, raw: i64) -> i64 {
        match self.activation {
            Activation::Linear => raw,
            // Softmax is monotone; HLS4ML computes it with a LUT only when
            // calibrated probabilities are needed. For argmax-consuming
            // pipelines the logits pass through unchanged, which preserves
            // the classification decision exactly.
            Activation::Softmax => raw,
            Activation::Relu => raw.max(0),
            Activation::Sigmoid => {
                // Piecewise LUT evaluation, as HLS4ML generates: the float
                // sigmoid of the dequantized value, re-quantized.
                let x = self.spec.dequantize(raw);
                self.spec.quantize(1.0 / (1.0 + (-x).exp()))
            }
            Activation::Tanh => {
                let x = self.spec.dequantize(raw);
                self.spec.quantize(x.tanh())
            }
        }
    }
}

/// A compiled neural-network accelerator: the output of the HLS4ML stage.
///
/// Functionally it is a fixed-point inference engine; architecturally it
/// carries the per-layer HLS reports that the SoC integration flow uses for
/// floorplanning (resources) and that the simulator uses for timing
/// (latency, initiation interval).
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledNn {
    name: String,
    layers: Vec<QuantizedDense>,
    spec: FixedSpec,
}

impl CompiledNn {
    pub(crate) fn new(name: String, layers: Vec<QuantizedDense>, spec: FixedSpec) -> Self {
        assert!(!layers.is_empty(), "compiled network needs layers");
        CompiledNn { name, layers, spec }
    }

    /// The IP name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The same network deployed under another IP name. The copy shares
    /// this network's weights, so a SoC hosting several instances of one
    /// accelerator holds its weights once.
    pub fn renamed(&self, name: &str) -> CompiledNn {
        CompiledNn {
            name: name.to_string(),
            layers: self.layers.clone(),
            spec: self.spec,
        }
    }

    /// The fixed-point format.
    pub fn spec(&self) -> FixedSpec {
        self.spec
    }

    /// The quantized layers.
    pub fn layers(&self) -> &[QuantizedDense] {
        &self.layers
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.layers.first().expect("non-empty").n_in()
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        self.layers.last().expect("non-empty").n_out()
    }

    /// Fixed-point inference on raw values.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != input_dim()`, or if an input lies outside
    /// `[spec().min_raw(), spec().max_raw()]`.
    pub fn infer_fixed(&self, input: &[i64]) -> Vec<i64> {
        let mut a = input.to_vec();
        for layer in &self.layers {
            a = layer.forward_fixed(&a);
        }
        a
    }

    /// Float-in/float-out inference (quantizes the input, dequantizes the
    /// output) — the view the application software has of the accelerator.
    pub fn infer(&self, input: &[f32]) -> Vec<f32> {
        let raw: Vec<i64> = input
            .iter()
            .map(|&v| self.spec.quantize(v as f64))
            .collect();
        self.infer_fixed(&raw)
            .into_iter()
            .map(|r| self.spec.dequantize(r) as f32)
            .collect()
    }

    /// Argmax class of a single input (classifier convenience).
    pub fn classify(&self, input: &[f32]) -> usize {
        let out = self.infer(input);
        out.iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite outputs"))
            .map(|(i, _)| i)
            .expect("non-empty output")
    }

    /// Per-layer HLS reports.
    pub fn layer_estimates(&self) -> Vec<HlsEstimate> {
        self.layers
            .iter()
            .map(|l| l.hls_model().estimate())
            .collect()
    }

    /// End-to-end latency: the layers run as an HLS dataflow pipeline, so
    /// one invocation takes the sum of layer latencies.
    pub fn latency(&self) -> u64 {
        self.layer_estimates().iter().map(|e| e.latency).sum()
    }

    /// Initiation interval: the slowest dataflow stage dominates.
    pub fn initiation_interval(&self) -> u64 {
        self.layer_estimates()
            .iter()
            .map(|e| e.initiation_interval)
            .max()
            .expect("non-empty")
    }

    /// Total resource usage.
    pub fn resources(&self) -> Resources {
        self.layer_estimates().iter().map(|e| e.resources).sum()
    }

    /// The aggregate HLS report.
    pub fn estimate(&self) -> HlsEstimate {
        HlsEstimate {
            latency: self.latency(),
            initiation_interval: self.initiation_interval(),
            resources: self.resources(),
        }
    }

    /// Splits the network into one single-layer accelerator per dense
    /// layer — the paper's *multi-tile (partitioned) classifier*, where the
    /// computation is distributed across five accelerator tiles that
    /// communicate over the NoC. The parts share this network's weights.
    pub fn split_layers(&self) -> Vec<CompiledNn> {
        self.layers
            .iter()
            .enumerate()
            .map(|(i, l)| CompiledNn {
                name: format!("{}_l{}", self.name, i),
                layers: vec![l.clone()],
                spec: self.spec,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const ACTIVATIONS: [Activation; 5] = [
        Activation::Linear,
        Activation::Relu,
        Activation::Sigmoid,
        Activation::Tanh,
        Activation::Softmax,
    ];

    /// The strided loop the contiguous datapath replaced, kept as an
    /// oracle: row-major `n_in x n_out` weights, every product in `i128`.
    fn reference_forward(l: &QuantizedDense, input: &[i64]) -> Vec<i64> {
        let (n_in, n_out) = (l.n_in, l.n_out);
        let mut row_major = vec![0i64; n_in * n_out];
        for j in 0..n_out {
            for i in 0..n_in {
                row_major[i * n_out + j] = i64::from(l.weights[j * n_in + i]);
            }
        }
        (0..n_out)
            .map(|j| {
                let mut acc: i128 = (l.bias[j] as i128) << l.spec.frac_bits();
                for (i, &x) in input.iter().enumerate() {
                    acc += x as i128 * row_major[i * n_out + j] as i128;
                }
                l.finish(acc)
            })
            .collect()
    }

    /// A layer from raw output-major weights.
    fn raw_layer(
        spec: FixedSpec,
        n_in: usize,
        weights: &[i64],
        bias: &[i64],
        activation: Activation,
    ) -> QuantizedDense {
        QuantizedDense {
            n_in,
            n_out: bias.len(),
            weights: weights.iter().map(|&w| w as i32).collect(),
            bias: bias.to_vec(),
            activation,
            spec,
            reuse: 1,
        }
    }

    /// A random layer (8/16/24/32-bit spec, up to 1,024 inputs, any
    /// activation) and an input for it. Raw values hit both ends of the
    /// range a third of the time each.
    struct LayerAndInput;

    impl Strategy for LayerAndInput {
        type Value = (QuantizedDense, Vec<i64>);

        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let bits = [8u32, 16, 24, 32][(0..4usize).sample(rng)];
            let spec = FixedSpec::new(bits, (1..=bits).sample(rng)).expect("valid widths");
            let (n_in, n_out) = ((1..=1024usize).sample(rng), (1..=4usize).sample(rng));
            let activation = ACTIVATIONS[(0..ACTIVATIONS.len()).sample(rng)];
            let (lo, hi) = (spec.min_raw(), spec.max_raw());
            let mut raw = |n: usize| -> Vec<i64> {
                (0..n)
                    .map(|_| match (0..3u8).sample(rng) {
                        0 => lo,
                        1 => hi,
                        _ => (lo..=hi).sample(rng),
                    })
                    .collect()
            };
            let (w, b, x) = (raw(n_in * n_out), raw(n_out), raw(n_in));
            (raw_layer(spec, n_in, &w, &b, activation), x)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn contiguous_datapath_matches_the_strided_oracle((l, x) in LayerAndInput) {
            prop_assert_eq!(l.forward_fixed(&x), reference_forward(&l, &x));
        }
    }

    #[test]
    fn chunk_covers_a_whole_row_at_16_bits_and_one_term_at_32() {
        let l = |bits| {
            raw_layer(
                FixedSpec::new(bits, 1).unwrap(),
                0,
                &[],
                &[],
                Activation::Linear,
            )
        };
        assert!(l(16).chunk_len() >= 1 << 32);
        assert_eq!(l(32).chunk_len(), 1);
        assert_eq!(l(1).chunk_len(), 1 << 62);
    }

    #[test]
    fn extreme_row_at_32_bits_needs_the_wide_accumulator() {
        // min_raw * min_raw = 2^62 per term; 1,024 terms sum to 2^72,
        // which only the i128 accumulator holds.
        for int_bits in [1, 16, 32] {
            let spec = FixedSpec::new(32, int_bits).unwrap();
            let n = 1024;
            let lo = spec.min_raw();
            let l = raw_layer(spec, n, &vec![lo; n], &[0], Activation::Linear);
            let x = vec![lo; n];
            assert_eq!(l.forward_fixed(&x), reference_forward(&l, &x));
            assert_eq!(
                l.forward_fixed(&x),
                vec![spec.max_raw()],
                "ap_fixed<32, {int_bits}>"
            );
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_input_panics() {
        let spec = FixedSpec::HLS4ML_DEFAULT;
        let l = identity_layer(2, spec);
        l.forward_fixed(&[0, spec.max_raw() + 1]);
    }

    #[test]
    fn renamed_and_split_copies_share_weights() {
        let spec = FixedSpec::HLS4ML_DEFAULT;
        let nn = CompiledNn::new("t".into(), vec![identity_layer(3, spec)], spec);
        let copy = nn.renamed("u");
        assert_eq!(copy.name(), "u");
        assert_eq!(copy.layers(), nn.layers());
        let part = &nn.split_layers()[0];
        for other in [&copy, part] {
            assert!(Arc::ptr_eq(&nn.layers[0].weights, &other.layers[0].weights));
        }
    }

    fn identity_layer(n: usize, spec: FixedSpec) -> QuantizedDense {
        let mut w = vec![0.0f32; n * n];
        for i in 0..n {
            w[i * n + i] = 1.0;
        }
        QuantizedDense::quantize(&w, &vec![0.0; n], n, n, Activation::Linear, spec, 1)
    }

    #[test]
    fn identity_layer_passes_values() {
        let spec = FixedSpec::HLS4ML_DEFAULT;
        let l = identity_layer(4, spec);
        let x: Vec<i64> = [1.0, -2.0, 0.5, 3.25]
            .iter()
            .map(|&v| spec.quantize(v))
            .collect();
        assert_eq!(l.forward_fixed(&x), x);
    }

    #[test]
    fn relu_layer_clamps() {
        let spec = FixedSpec::HLS4ML_DEFAULT;
        let mut l = identity_layer(2, spec);
        l.activation = Activation::Relu;
        let x = vec![spec.quantize(-1.0), spec.quantize(2.0)];
        assert_eq!(l.forward_fixed(&x), vec![0, spec.quantize(2.0)]);
    }

    #[test]
    fn sigmoid_layer_matches_float_sigmoid() {
        let spec = FixedSpec::HLS4ML_DEFAULT;
        let mut l = identity_layer(1, spec);
        l.activation = Activation::Sigmoid;
        let y = l.forward_fixed(&[spec.quantize(0.0)]);
        assert!((spec.dequantize(y[0]) - 0.5).abs() < spec.resolution() * 2.0);
    }

    #[test]
    fn tanh_layer_matches_float_tanh() {
        let spec = FixedSpec::HLS4ML_DEFAULT;
        let mut l = identity_layer(1, spec);
        l.activation = Activation::Tanh;
        for v in [-2.0f64, -0.5, 0.0, 0.5, 2.0] {
            let y = l.forward_fixed(&[spec.quantize(v)]);
            let got = spec.dequantize(y[0]);
            assert!(
                (got - v.tanh()).abs() < 4.0 * spec.resolution(),
                "tanh({v}) = {got}"
            );
        }
    }

    #[test]
    fn accumulator_does_not_overflow_on_wide_layers() {
        let spec = FixedSpec::HLS4ML_DEFAULT;
        let n = 1024;
        let w = vec![0.03f32; n]; // single output neuron
        let l = QuantizedDense::quantize(&w, &[0.0], n, 1, Activation::Linear, spec, 1);
        let x = vec![spec.quantize(1.0); n];
        let y = l.forward_fixed(&x);
        // True sum 1024 * 0.03 ≈ 30.72, near the top of ap_fixed<16,6>.
        let v = spec.dequantize(y[0]);
        assert!((v - 30.72).abs() < 0.5, "got {v}");
    }

    #[test]
    fn saturation_on_overflowing_sum() {
        let spec = FixedSpec::HLS4ML_DEFAULT;
        let n = 64;
        let w = vec![1.0f32; n];
        let l = QuantizedDense::quantize(&w, &[0.0], n, 1, Activation::Linear, spec, 1);
        let x = vec![spec.quantize(1.0); n];
        // True sum is 64, above the ap_fixed<16,6> max of ~32: must saturate.
        assert_eq!(l.forward_fixed(&x)[0], spec.max_raw());
    }

    #[test]
    fn split_layers_composes_to_same_function() {
        let spec = FixedSpec::HLS4ML_DEFAULT;
        let l1 = identity_layer(3, spec);
        let mut l2 = identity_layer(3, spec);
        l2.activation = Activation::Relu;
        let nn = CompiledNn::new("t".into(), vec![l1, l2], spec);
        let parts = nn.split_layers();
        assert_eq!(parts.len(), 2);
        let x = vec![0.5f32, -0.25, 1.0];
        let direct = nn.infer(&x);
        let mut staged = x.clone();
        for p in &parts {
            staged = p.infer(&staged);
        }
        assert_eq!(direct, staged);
    }

    #[test]
    fn pipeline_ii_is_max_layer_ii() {
        let spec = FixedSpec::HLS4ML_DEFAULT;
        let a = QuantizedDense::quantize(
            &vec![0.0; 16 * 8],
            &[0.0; 8],
            16,
            8,
            Activation::Relu,
            spec,
            32,
        );
        let b =
            QuantizedDense::quantize(&[0.0; 8 * 4], &[0.0; 4], 8, 4, Activation::Softmax, spec, 8);
        let nn = CompiledNn::new("t".into(), vec![a, b], spec);
        assert_eq!(nn.initiation_interval(), 32);
        assert_eq!(
            nn.latency(),
            nn.layer_estimates().iter().map(|e| e.latency).sum::<u64>()
        );
    }
}
