//! The compiled fixed-point accelerator: behavioural model + HLS report.

use esp4ml_hls::{DenseLayerHls, FixedSpec, HlsEstimate, Resources};
use esp4ml_nn::Activation;
use std::ops::{Add, Mul};
use std::sync::Arc;

/// Independent accumulator lanes per dot product. Element `k` of a row
/// feeds lane `k % LANES`, so the lanes carry no dependency on each other
/// and the optimiser keeps them in vector registers.
const LANES: usize = 16;

/// A raw fixed-point storage type and the accumulator lane its products
/// are summed in. One product of two stored values always fits a lane.
trait Raw: Copy + Into<i64> {
    /// The lane accumulator type.
    type Lane: Copy
        + Default
        + Add<Output = Self::Lane>
        + Mul<Output = Self::Lane>
        + From<Self>
        + Into<i128>;

    /// The largest value a lane holds.
    const LANE_MAX: i128;

    /// Narrows a raw value already known to lie in the format.
    fn narrow(raw: i64) -> Self;

    /// This type's view of a layer's weights.
    fn stored(weights: &Weights) -> &[Self];
}

impl Raw for i16 {
    type Lane = i32;
    const LANE_MAX: i128 = i32::MAX as i128;

    fn narrow(raw: i64) -> Self {
        raw as i16
    }

    fn stored(weights: &Weights) -> &[Self] {
        match weights {
            Weights::I16(w) => w,
            Weights::I32(_) => unreachable!("a network's layers share one format"),
        }
    }
}

impl Raw for i32 {
    type Lane = i64;
    const LANE_MAX: i128 = i64::MAX as i128;

    fn narrow(raw: i64) -> Self {
        raw as i32
    }

    fn stored(weights: &Weights) -> &[Self] {
        match weights {
            Weights::I32(w) => w,
            Weights::I16(_) => unreachable!("a network's layers share one format"),
        }
    }
}

/// Output-major `n_out x n_in` raw weights in the narrowest signed type
/// the format allows: `i16` up to 16 bits, `i32` above ([`FixedSpec`]
/// widths are at most 32 bits). Row `j` holds every weight feeding output
/// `j`. Clones share the array.
#[derive(Debug, Clone, PartialEq)]
enum Weights {
    I16(Arc<[i16]>),
    I32(Arc<[i32]>),
}

/// Stores `(index, raw value)` pairs into a new `len`-element array,
/// written in place (no staging copy).
fn scatter<T: Raw>(len: usize, raw: impl Iterator<Item = (usize, i64)>) -> Arc<[T]> {
    let mut array: Arc<[T]> = std::iter::repeat_n(T::narrow(0), len).collect();
    let slots = Arc::get_mut(&mut array).expect("a new array is unshared");
    for (k, v) in raw {
        slots[k] = T::narrow(v);
    }
    array
}

/// Narrows raw inputs to the storage type.
///
/// # Panics
///
/// Panics if an input lies outside `[spec.min_raw(), spec.max_raw()]`.
fn narrow_input<T: Raw>(spec: FixedSpec, input: &[i64]) -> Vec<T> {
    let (lo, hi) = (spec.min_raw(), spec.max_raw());
    input
        .iter()
        .map(|&v| {
            assert!((lo..=hi).contains(&v), "input {v} outside [{lo}, {hi}]");
            T::narrow(v)
        })
        .collect()
}

fn widen<T: Raw>(values: Vec<T>) -> Vec<i64> {
    values.into_iter().map(Into::into).collect()
}

/// The exact dot product of `w` and `x`. Each chunk of `terms * LANES`
/// elements feeds at most `terms` products to each lane; the chunk's lane
/// sums are then added into the `i128` total. `terms` must keep
/// `terms * max|w| * max|x|` within [`Raw::LANE_MAX`].
fn dot<T: Raw>(w: &[T], x: &[T], terms: usize) -> i128 {
    let chunk = terms.saturating_mul(LANES);
    let mut total = 0i128;
    for (w, x) in w.chunks(chunk).zip(x.chunks(chunk)) {
        let mut lanes = [T::Lane::default(); LANES];
        let (w_blocks, w_tail) = w.as_chunks::<LANES>();
        let (x_blocks, x_tail) = x.as_chunks::<LANES>();
        accumulate::<T>(&mut lanes, w_blocks, x_blocks);
        for (lane, (&w, &x)) in lanes.iter_mut().zip(w_tail.iter().zip(x_tail)) {
            *lane = *lane + T::Lane::from(w) * T::Lane::from(x);
        }
        total += lanes.into_iter().map(Into::into).sum::<i128>();
    }
    total
}

/// Adds `w[b][k] * x[b][k]` over every block `b` into lane `k`. Kept out
/// of line: inlined into [`dot`], the optimiser splits the lane array into
/// scalars and no longer vectorizes the loop (about 3x slower on x86-64).
#[inline(never)]
fn accumulate<T: Raw>(lanes: &mut [T::Lane; LANES], w: &[[T; LANES]], x: &[[T; LANES]]) {
    for (w, x) in w.iter().zip(x) {
        for k in 0..LANES {
            lanes[k] = lanes[k] + T::Lane::from(w[k]) * T::Lane::from(x[k]);
        }
    }
}

/// One quantized dense layer of a compiled network.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedDense {
    n_in: usize,
    n_out: usize,
    weights: Weights,
    /// Products each accumulator lane sums before it is flushed; see
    /// [`QuantizedDense::lane_terms`].
    terms: usize,
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
        // Read in order: float weight `k` links input `k / n_out` to
        // output `k % n_out`.
        let raw = weights.iter().enumerate().map(|(k, &w)| {
            let (i, j) = (k / n_out, k % n_out);
            (j * n_in + i, spec.quantize(w as f64))
        });
        let bias = bias.iter().map(|&b| spec.quantize(b as f64)).collect();
        Self::from_raw(n_in, raw, bias, activation, spec, reuse)
    }

    /// A layer from `(output-major index, raw value)` weight pairs, one
    /// for each of the `n_in * bias.len()` weights, each within the
    /// format.
    fn from_raw(
        n_in: usize,
        raw: impl Iterator<Item = (usize, i64)>,
        bias: Vec<i64>,
        activation: Activation,
        spec: FixedSpec,
        reuse: u64,
    ) -> Self {
        let n_out = bias.len();
        let (weights, terms) = if spec.total_bits() <= 16 {
            let w = scatter::<i16>(n_in * n_out, raw);
            let terms = Self::lane_terms(&w, spec);
            (Weights::I16(w), terms)
        } else {
            let w = scatter::<i32>(n_in * n_out, raw);
            let terms = Self::lane_terms(&w, spec);
            (Weights::I32(w), terms)
        };
        QuantizedDense {
            n_in,
            n_out,
            weights,
            terms,
            bias,
            activation,
            spec,
            reuse,
        }
    }

    /// Products one accumulator lane may sum without overflow. An input
    /// lies in `[-2^(b-1), 2^(b-1) - 1]` for a `b`-bit format, so one
    /// product is at most `max|w| * 2^(b-1)` in magnitude and
    /// `LANE_MAX / (max|w| * 2^(b-1))` of them (at least one: a single
    /// product always fits) stay within the lane.
    fn lane_terms<T: Raw>(weights: &[T], spec: FixedSpec) -> usize {
        let max_w = weights
            .iter()
            .map(|&w| Into::<i64>::into(w).unsigned_abs())
            .max()
            .unwrap_or(0);
        let product = i128::from(max_w) << (spec.total_bits() - 1);
        T::LANE_MAX
            .checked_div(product)
            .map_or(usize::MAX, |t| usize::try_from(t).unwrap_or(usize::MAX))
            .max(1)
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

    /// Fixed-point forward pass on raw values.
    ///
    /// The multiply-accumulate is exact (as the HLS datapath is with a
    /// wide accumulator): each output is a contiguous dot product over
    /// its weight row, summed in lanes that cannot overflow (see
    /// `lane_terms`) and flushed into an `i128` accumulator. The result
    /// is rescaled, saturated and activated in the layer's own format.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != n_in`, or if an input lies outside
    /// `[spec.min_raw(), spec.max_raw()]`.
    pub fn forward_fixed(&self, input: &[i64]) -> Vec<i64> {
        assert_eq!(input.len(), self.n_in, "input width mismatch");
        match &self.weights {
            Weights::I16(w) => widen(self.forward(w, &narrow_input(self.spec, input))),
            Weights::I32(w) => widen(self.forward(w, &narrow_input(self.spec, input))),
        }
    }

    /// The forward pass on narrow values already within the format; the
    /// outputs are too, since [`QuantizedDense::finish`] saturates them.
    fn forward<T: Raw>(&self, weights: &[T], x: &[T]) -> Vec<T> {
        debug_assert_eq!(x.len(), self.n_in, "input width mismatch");
        (0..self.n_out)
            .map(|j| {
                let row = &weights[j * self.n_in..(j + 1) * self.n_in];
                let bias = (self.bias[j] as i128) << self.spec.frac_bits();
                T::narrow(self.finish(bias + dot(row, x, self.terms)))
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
        assert!(
            layers.iter().all(|l| l.spec == spec),
            "a network's layers share one format"
        );
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
        assert_eq!(input.len(), self.input_dim(), "input width mismatch");
        match self.layers[0].weights {
            Weights::I16(_) => self.infer_as::<i16>(input),
            Weights::I32(_) => self.infer_as::<i32>(input),
        }
    }

    /// [`CompiledNn::infer_fixed`] with `T` storage: the input range is
    /// checked once, and each layer hands its saturated narrow outputs to
    /// the next.
    fn infer_as<T: Raw>(&self, input: &[i64]) -> Vec<i64> {
        let mut a = narrow_input::<T>(self.spec, input);
        for layer in &self.layers {
            a = layer.forward(T::stored(&layer.weights), &a);
        }
        widen(a)
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
        let weights = raw_weights(l);
        let mut row_major = vec![0i64; n_in * n_out];
        for j in 0..n_out {
            for i in 0..n_in {
                row_major[i * n_out + j] = weights[j * n_in + i];
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

    /// A layer's output-major weights, widened.
    fn raw_weights(l: &QuantizedDense) -> Vec<i64> {
        match &l.weights {
            Weights::I16(w) => widen(w.to_vec()),
            Weights::I32(w) => widen(w.to_vec()),
        }
    }

    /// A layer from raw output-major weights.
    fn raw_layer(
        spec: FixedSpec,
        n_in: usize,
        weights: &[i64],
        bias: &[i64],
        activation: Activation,
    ) -> QuantizedDense {
        assert_eq!(weights.len(), n_in * bias.len());
        let raw = weights.iter().copied().enumerate();
        QuantizedDense::from_raw(n_in, raw, bias.to_vec(), activation, spec, 1)
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

    /// A layer on which every accumulator lane reaches its overflow
    /// bound: weights drawn from `{-m, +m}`, inputs from `{lo, hi}`, and
    /// at least one full chunk of `terms * LANES` inputs. `m` is large
    /// enough that a chunk spans at most a few thousand inputs. A third
    /// of the layers are all `-m` against all-`lo` inputs, and a third all
    /// `+m`, so every lane lands exactly on `+bound` or `-bound`.
    struct LaneBound;

    impl Strategy for LaneBound {
        type Value = (QuantizedDense, Vec<i64>);

        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let bits = [12u32, 15, 16, 28, 31, 32][(0..6usize).sample(rng)];
            let spec = FixedSpec::new(bits, (1..=bits).sample(rng)).expect("valid widths");
            let (lo, hi) = (spec.min_raw(), spec.max_raw());
            let m = ((hi + 1) / 64..=hi).sample(rng);
            let pattern = (0..3u8).sample(rng);
            let probe = raw_layer(spec, 1, &[m], &[0], Activation::Linear);
            let chunk = probe.terms * LANES;
            let n_in = chunk * (1..=2usize).sample(rng) + (0..chunk).sample(rng);
            let n_out = (1..=2usize).sample(rng);
            let w: Vec<i64> = (0..n_in * n_out)
                .map(|_| match pattern {
                    0 => -m,
                    1 => m,
                    _ => [-m, m][(0..2usize).sample(rng)],
                })
                .collect();
            let x: Vec<i64> = (0..n_in)
                .map(|_| match pattern {
                    0 | 1 => lo,
                    _ => [lo, hi][(0..2usize).sample(rng)],
                })
                .collect();
            let l = raw_layer(spec, n_in, &w, &vec![0; n_out], Activation::Linear);
            assert_eq!(l.terms, probe.terms, "terms follow max|w| alone");
            (l, x)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn lanes_at_their_bound_match_the_strided_oracle((l, x) in LaneBound) {
            prop_assert_eq!(l.forward_fixed(&x), reference_forward(&l, &x));
        }
    }

    #[test]
    fn lane_terms_follow_the_largest_weight() {
        let terms = |bits, w: &[i64]| {
            let spec = FixedSpec::new(bits, 1).unwrap();
            raw_layer(spec, w.len(), w, &[0], Activation::Linear).terms
        };
        // One extreme weight allows one product per lane at the widest
        // format of each storage type: 2^15 * 2^15 = 2^30 of i32::MAX,
        // and 2^31 * 2^31 = 2^62 of i64::MAX.
        assert_eq!(terms(16, &[-(1 << 15), 0]), 1);
        assert_eq!(terms(32, &[-(1 << 31), 0]), 1);
        // The bound scales with the largest |w|, whatever its sign.
        assert_eq!(terms(16, &[3, -100]), (i32::MAX / (100 << 15)) as usize);
        assert_eq!(terms(16, &[1]), (i32::MAX >> 15) as usize);
        assert_eq!(terms(24, &[1000]), (i64::MAX / (1000 << 23)) as usize);
        assert_eq!(terms(8, &[-128]), (i32::MAX / (128 << 7)) as usize);
        // All-zero weights never overflow.
        assert_eq!(terms(16, &[0, 0]), usize::MAX);
    }

    #[test]
    fn weights_are_stored_in_the_narrowest_type() {
        for (bits, narrow) in [(1, true), (8, true), (16, true), (17, false), (32, false)] {
            let l = raw_layer(
                FixedSpec::new(bits, 1).unwrap(),
                1,
                &[0],
                &[0],
                Activation::Linear,
            );
            assert_eq!(matches!(l.weights, Weights::I16(_)), narrow, "{bits} bits");
        }
    }

    #[test]
    fn untrained_svhn_input_layer_sums_hundreds_of_terms_per_lane() {
        let nn = crate::Hls4mlCompiler::compile(
            &esp4ml_nn::Sequential::svhn_classifier(),
            &crate::Hls4mlConfig::with_reuse(1024),
        )
        .unwrap();
        let l = &nn.layers()[0];
        assert_eq!((l.n_in, l.spec.total_bits()), (1024, 16));
        // max|w| = 232 raw: 2^31 / (232 * 2^15) = 282 terms, so each
        // 1,024-input row is one chunk of 16 lanes, flushed once.
        assert_eq!(l.terms, 282);
        assert!(l.terms * LANES >= l.n_in);
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
            match (&nn.layers[0].weights, &other.layers[0].weights) {
                (Weights::I16(a), Weights::I16(b)) => assert!(Arc::ptr_eq(a, b)),
                _ => panic!("16-bit weights are stored as i16"),
            }
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
