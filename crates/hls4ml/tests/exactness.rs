//! Exactness golden for the fixed-point inference datapath.
//!
//! The paper's two networks (the untrained SVHN classifier and denoiser)
//! and the five single-layer parts of the split classifier, compiled with
//! the production per-layer reuse factors, run on seeded full-range
//! inputs plus all-`min_raw` and all-`max_raw` frames, which drive every
//! accumulator to its extremes and every output into saturation. Every
//! output value is folded into one FNV-1a digest and pinned. A host-side
//! rewrite of the multiply-accumulate loop must leave the digest
//! untouched; any change to rounding, saturation or activation moves it.

use esp4ml_hls4ml::{CompiledNn, Hls4mlCompiler, Hls4mlConfig};
use esp4ml_nn::Sequential;

/// The per-layer reuse factors `esp4ml_core::apps` deploys: the SoC-1
/// classifier, the denoiser and the SoC-2 split classifier.
const CLASSIFIER_REUSE: [u64; 5] = [1024, 512, 256, 128, 32];
const DENOISER_REUSE: [u64; 3] = [4096, 1024, 8192];
const MULTI_TILE_REUSE: [u64; 5] = [2048, 1024, 512, 256, 64];

/// Seeded frames per network (besides the two extreme frames).
const RANDOM_FRAMES: usize = 6;

/// xorshift64*: a tiny deterministic generator, so the golden does not
/// depend on any external RNG's stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn compile(model: &Sequential, name: &str, reuse: &[u64]) -> CompiledNn {
    let config = Hls4mlConfig::with_reuse(reuse.iter().copied().max().expect("reuse list"))
        .named(name)
        .with_per_layer_reuse(reuse.to_vec());
    Hls4mlCompiler::compile(model, &config).expect("compiles")
}

/// The frames a network is fed: all-`min_raw`, all-`max_raw`, then
/// seeded values spread over the whole representable range.
fn frames(nn: &CompiledNn, rng: &mut Rng) -> Vec<Vec<i64>> {
    let (n, spec) = (nn.input_dim(), nn.spec());
    let (lo, hi) = (spec.min_raw(), spec.max_raw());
    let span = (hi - lo + 1) as u64;
    let mut out = vec![vec![lo; n], vec![hi; n]];
    for _ in 0..RANDOM_FRAMES {
        out.push((0..n).map(|_| lo + (rng.next() % span) as i64).collect());
    }
    out
}

/// Runs every frame through `nn` and folds the outputs into `fnv`;
/// returns the number of output values folded.
fn fold(nn: &CompiledNn, rng: &mut Rng, fnv: &mut Fnv) -> usize {
    let mut values = 0;
    fnv.write(nn.name().as_bytes());
    for frame in frames(nn, rng) {
        let out = nn.infer_fixed(&frame);
        assert_eq!(out.len(), nn.output_dim());
        for v in &out {
            assert!((nn.spec().min_raw()..=nn.spec().max_raw()).contains(v));
            fnv.write(&v.to_le_bytes());
        }
        values += out.len();
    }
    values
}

#[test]
fn paper_networks_infer_the_pinned_outputs() {
    let classifier = Sequential::svhn_classifier();
    let cl = compile(&classifier, "cl", &CLASSIFIER_REUSE);
    let de = compile(&Sequential::svhn_denoiser(), "denoiser", &DENOISER_REUSE);
    let split = compile(&classifier, "cls", &MULTI_TILE_REUSE).split_layers();
    assert_eq!(split.len(), 5);

    let mut rng = Rng(0x5eed_0fe5_b4a1);
    let mut fnv = Fnv::new();
    let mut values = 0;
    for nn in [&cl, &de].into_iter().chain(&split) {
        values += fold(nn, &mut rng, &mut fnv);
    }
    assert_eq!(
        values,
        (2 + RANDOM_FRAMES) * (10 + 1024 + 256 + 128 + 64 + 32 + 10)
    );
    assert_eq!(
        fnv.0, 0x94e1_2d49_ac5c_50a4,
        "kernel exactness digest moved"
    );
}
