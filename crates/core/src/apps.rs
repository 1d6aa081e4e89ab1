//! The paper's two SoC instances and four case-study applications (Fig. 6).

use crate::flow::Esp4mlFlow;
use crate::soc_config::SocConfigFile;
use esp4ml_hls::FixedSpec;
use esp4ml_hls4ml::{CompileError, CompiledNn};
use esp4ml_nn::{accuracy, reconstruction_error, Sequential, TrainConfig, Trainer};
use esp4ml_runtime::Dataflow;
use esp4ml_soc::{CacheCount, KernelMemo, NnKernel, Soc, SocError};
use esp4ml_vision::SvhnGenerator;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Per-layer reuse factors of the single-tile classifier (SoC-1). Chosen,
/// as the paper does with the `hls4ml tuning` step, so four classifier
/// copies sustain the Night-Vision pipeline throughput.
pub const CLASSIFIER_REUSE: [u64; 5] = [1024, 512, 256, 128, 32];
/// Per-layer reuse factors of the denoising autoencoder (SoC-1).
pub const DENOISER_REUSE: [u64; 3] = [4096, 1024, 8192];
/// Device kind of every SoC-1 classifier tile: all copies run the same
/// compiled network, so the runtime can fail over between them.
pub const CLASSIFIER_KIND: &str = "svhn_classifier";
/// Device kind of the SoC-1 denoiser tile.
pub const DENOISER_KIND: &str = "svhn_denoiser";
/// Per-layer reuse factors of the multi-tile (split) classifier (SoC-2).
pub const MULTI_TILE_REUSE: [u64; 5] = [2048, 1024, 512, 256, 64];

/// Errors raised while building a case-study SoC.
#[derive(Debug)]
#[non_exhaustive]
pub enum BuildError {
    /// HLS4ML compilation failed.
    Compile(CompileError),
    /// SoC integration failed.
    Soc(SocError),
    /// A tile hosts a classifier layer the network does not have.
    MissingLayer {
        /// Device name of the tile.
        tile: String,
        /// The requested dense-layer index.
        layer: usize,
        /// Dense layers the classifier has.
        layers: usize,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Compile(e) => write!(f, "accelerator compilation failed: {e}"),
            BuildError::Soc(e) => write!(f, "soc integration failed: {e}"),
            BuildError::MissingLayer {
                tile,
                layer,
                layers,
            } => write!(
                f,
                "tile {tile} hosts classifier layer {layer}, but the classifier has {layers} layers"
            ),
        }
    }
}

impl Error for BuildError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BuildError::Compile(e) => Some(e),
            BuildError::Soc(e) => Some(e),
            BuildError::MissingLayer { .. } => None,
        }
    }
}

impl From<CompileError> for BuildError {
    fn from(e: CompileError) -> Self {
        BuildError::Compile(e)
    }
}

impl From<SocError> for BuildError {
    fn from(e: SocError) -> Self {
        BuildError::Soc(e)
    }
}

/// The two Keras-trained models of the evaluation, plus their quality
/// metrics when training was actually run.
///
/// The models also hold what every run computes the same way, so that
/// each value is computed once per models and shared by all its clones
/// (grid workers, server jobs):
///
/// * **Compiled networks.** Each built-in network compiles once per
///   per-layer reuse vector, the first time a SoC build asks for it, and
///   every later build reuses that compile (see [`SocConfigFile::build`]).
///   The reuse is sound because the networks are private and cannot
///   change once the models exist. At most eight compiles are kept; the
///   least recently used goes first.
/// * **Kernel results.** Each compile carries a [`KernelMemo`] for the
///   whole network and one for each of its layer parts, shared by every
///   tile that deploys it. A network's output is a function of its input
///   values, and its latency comes from the HLS reports, so a hit moves
///   no cycle. Each memo holds up to 1,024 inputs.
/// * **Input frames.** The seeded images and labels a run writes, per
///   input kind and seed. The generator is sequential, so the first `n`
///   frames of a set answer every run of up to `n` frames. At most eight
///   sets of up to 1,024 frames are kept.
///
/// [`TrainedModels::cache_counts`] reports the hits and misses of the
/// last two.
#[derive(Debug, Clone)]
pub struct TrainedModels {
    classifier: Sequential,
    denoiser: Sequential,
    /// Test accuracy of the classifier, if trained (paper: 92 %).
    pub classifier_accuracy: Option<f64>,
    /// Relative reconstruction error of the denoiser, if trained
    /// (paper: 3.1 %).
    pub denoiser_error: Option<f64>,
    compiled: Arc<CompiledCache>,
    frames: Arc<FrameCache>,
}

/// Hits and misses of the caches a [`TrainedModels`] and its clones
/// share, counted since the models were made. Host-side counts: they say
/// how much work the caches saved and never enter a simulated result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounts {
    /// Accelerator invocations answered from a kernel result memo.
    pub kernel_memo_hits: u64,
    /// Accelerator invocations that ran the network.
    pub kernel_memo_misses: u64,
    /// Runs whose input frames came from the frame cache.
    pub frame_hits: u64,
    /// Runs that generated their input frames.
    pub frame_misses: u64,
}

impl TrainedModels {
    /// The paper's architectures with freshly initialized weights — fast
    /// to build, functionally complete (useful for architecture-level
    /// experiments where prediction quality is irrelevant).
    pub fn untrained() -> Self {
        Self::new(Sequential::svhn_classifier(), Sequential::svhn_denoiser())
    }

    /// Trains both models on the synthetic SVHN-like dataset.
    ///
    /// `samples` controls dataset size and `epochs` the training length;
    /// the defaults used by the benchmark harness (a few thousand samples,
    /// ~10 epochs) reach classifier accuracies in the high-80s/low-90s on
    /// the synthetic task, comparable in spirit to the paper's 92 % on
    /// real SVHN.
    pub fn train(samples: usize, epochs: usize, seed: u64) -> Self {
        let mut gen = SvhnGenerator::new(seed);
        let class_data = gen.classification_dataset(samples);
        let (train_c, test_c) = class_data.split(0.2);
        let mut classifier = Sequential::svhn_classifier();
        Trainer::new(TrainConfig::classifier(epochs)).fit(&mut classifier, &train_c);
        let classifier_accuracy = Some(accuracy(&classifier, &test_c));

        let noise = 0.1;
        let den_data = gen.denoising_dataset(samples.min(2000), noise);
        let (train_d, test_d) = den_data.split(0.2);
        let mut denoiser = Sequential::svhn_denoiser();
        Trainer::new(TrainConfig::autoencoder(epochs)).fit(&mut denoiser, &train_d);
        let denoiser_error = Some(reconstruction_error(&denoiser, &test_d));

        TrainedModels {
            classifier_accuracy,
            denoiser_error,
            ..Self::new(classifier, denoiser)
        }
    }

    fn new(classifier: Sequential, denoiser: Sequential) -> Self {
        TrainedModels {
            classifier,
            denoiser,
            classifier_accuracy: None,
            denoiser_error: None,
            compiled: Arc::default(),
            frames: Arc::default(),
        }
    }

    /// The MLP digit classifier (1024×256×128×64×32×10, dropout 0.2).
    pub fn classifier(&self) -> &Sequential {
        &self.classifier
    }

    /// The denoising autoencoder (1024×256×128×1024).
    pub fn denoiser(&self) -> &Sequential {
        &self.denoiser
    }

    /// The hits and misses of the kernel result memos and the frame
    /// cache so far.
    pub fn cache_counts(&self) -> CacheCounts {
        let memo = &self.compiled.memo_count;
        CacheCounts {
            kernel_memo_hits: memo.hits(),
            kernel_memo_misses: memo.misses(),
            frame_hits: self.frames.count.hits(),
            frame_misses: self.frames.count.misses(),
        }
    }

    /// The built-in network `net` compiled with `reuse`, named after its
    /// kind — the value `compile_ml(network, kind, reuse)` returns — with
    /// its layer parts and their memos, taken from the cache when an
    /// earlier build compiled it. The lock is not held while compiling,
    /// so two racing builds may both compile one key; the first insert
    /// wins and both builds use it. Failed compiles are not cached.
    pub(crate) fn compiled(
        &self,
        net: BuiltinNet,
        reuse: &[u64],
    ) -> Result<Arc<Compiled>, CompileError> {
        let key = (net, reuse.to_vec());
        if let Some(compiled) = self.compiled.lru.get(&key) {
            return Ok(compiled);
        }
        let network = match net {
            BuiltinNet::Classifier => &self.classifier,
            BuiltinNet::Denoiser => &self.denoiser,
        };
        let nn = Esp4mlFlow::new().compile_ml(network, net.kind(), reuse)?;
        self.compiled.compiles.fetch_add(1, Ordering::Relaxed);
        let compiled = Compiled::new(nn, &self.compiled.memo_count);
        Ok(self.compiled.lru.insert(key, Arc::new(compiled), |_| false))
    }

    /// The first `count` input frames of `app` from the generator seeded
    /// with `seed`, and their labels: the frames [`CaseApp::input_frame`]
    /// makes, in order. A run of more frames than the cache holds for
    /// that input kind and seed generates them all again and keeps them
    /// when there are at most [`FRAME_LIMIT`].
    pub(crate) fn input_frames(&self, app: &CaseApp, seed: u64, count: u64) -> InputFrames {
        let count = count as usize;
        let key = (app.input_kind(), seed);
        let cached = self.frames.lru.get(&key);
        if let Some(set) = cached.filter(|s| s.labels.len() >= count) {
            self.frames.count.record(true);
            return InputFrames { set, count };
        }
        self.frames.count.record(false);
        let set = Arc::new(SeededFrames::generate(key.0, seed, count));
        if count <= FRAME_LIMIT {
            let longer = |cached: &Arc<SeededFrames>| cached.labels.len() < count;
            self.frames.lru.insert(key, Arc::clone(&set), longer);
        }
        InputFrames { set, count }
    }
}

/// A network [`TrainedModels`] holds, as a SoC configuration names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BuiltinNet {
    Classifier,
    Denoiser,
}

impl BuiltinNet {
    /// The device kind whole copies of the network deploy with.
    pub(crate) fn kind(self) -> &'static str {
        match self {
            BuiltinNet::Classifier => CLASSIFIER_KIND,
            BuiltinNet::Denoiser => DENOISER_KIND,
        }
    }
}

/// Compiles kept per [`TrainedModels`]. Each SoC build asks for at most
/// a few keys, but a server's user-supplied configs can name any reuse
/// vector, so the bound is what keeps its memory flat.
const COMPILED_CAPACITY: usize = 8;

/// Inputs each kernel result memo holds. A Fig. 7 grid of 64 frames
/// stores at most 128 per network, and a full memo keeps serving hits.
const MEMO_CAPACITY: usize = 1_024;

/// `(input kind, seed)` frame sets kept per [`TrainedModels`]. The
/// experiments use one seed, so three entries are in use.
const FRAME_CAPACITY: usize = 8;

/// Frames a cached frame set holds at most; longer runs generate their
/// frames and keep none.
const FRAME_LIMIT: usize = 1_024;

type CompileKey = (BuiltinNet, Vec<u64>);

/// A built-in network compiled with one reuse vector, and its single-layer
/// parts ([`CompiledNn::split_layers`]), each with its result memo.
#[derive(Debug)]
pub(crate) struct Compiled {
    nn: CompiledNn,
    memo: Arc<KernelMemo>,
    parts: Vec<(CompiledNn, Arc<KernelMemo>)>,
}

impl Compiled {
    fn new(nn: CompiledNn, count: &Arc<CacheCount>) -> Compiled {
        let memo = || Arc::new(KernelMemo::new(MEMO_CAPACITY, Arc::clone(count)));
        Compiled {
            parts: nn.split_layers().into_iter().map(|p| (p, memo())).collect(),
            memo: memo(),
            nn,
        }
    }

    /// The compiled whole network.
    pub(crate) fn network(&self) -> &CompiledNn {
        &self.nn
    }

    /// A copy of the whole network deployed as `name`.
    pub(crate) fn whole(&self, name: &str) -> NnKernel {
        NnKernel::new(self.nn.renamed(name)).with_memo(Arc::clone(&self.memo))
    }

    /// A copy of dense layer `layer` deployed as `name`, if the network
    /// has that layer.
    pub(crate) fn part(&self, layer: usize, name: &str) -> Option<NnKernel> {
        let (part, memo) = self.parts.get(layer)?;
        Some(NnKernel::new(part.renamed(name)).with_memo(Arc::clone(memo)))
    }
}

/// The compiled built-in networks, and the hits and misses of their
/// memos.
#[derive(Debug)]
struct CompiledCache {
    lru: Lru<CompileKey, Arc<Compiled>>,
    /// Successful compiles so far (read by the tests).
    compiles: AtomicUsize,
    memo_count: Arc<CacheCount>,
}

impl Default for CompiledCache {
    fn default() -> Self {
        CompiledCache {
            lru: Lru::new(COMPILED_CAPACITY),
            compiles: AtomicUsize::new(0),
            memo_count: Arc::default(),
        }
    }
}

/// How a case application's input frames look.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum InputKind {
    /// Darkened, for Night-Vision.
    Dark,
    /// Noisy, for the denoiser.
    Noisy,
    /// Clean, for the plain classifier.
    Clean,
}

/// The first frames one seeded generator makes for one input kind.
#[derive(Debug)]
struct SeededFrames {
    images: Vec<Vec<f32>>,
    labels: Vec<usize>,
}

impl SeededFrames {
    fn generate(kind: InputKind, seed: u64, count: usize) -> SeededFrames {
        let mut gen = SvhnGenerator::new(seed);
        let (images, labels) = (0..count).map(|_| kind.frame(&mut gen)).unzip();
        SeededFrames { images, labels }
    }
}

/// The first frames of a cached frame set.
#[derive(Debug)]
pub(crate) struct InputFrames {
    set: Arc<SeededFrames>,
    count: usize,
}

impl InputFrames {
    /// One `[0, 1]` image per frame, in order.
    pub(crate) fn images(&self) -> &[Vec<f32>] {
        &self.set.images[..self.count]
    }

    /// The ground-truth label of each frame.
    pub(crate) fn labels(&self) -> &[usize] {
        &self.set.labels[..self.count]
    }
}

/// The seeded frame sets, and the hits and misses of their lookups.
#[derive(Debug)]
struct FrameCache {
    lru: Lru<(InputKind, u64), Arc<SeededFrames>>,
    count: CacheCount,
}

impl Default for FrameCache {
    fn default() -> Self {
        FrameCache {
            lru: Lru::new(FRAME_CAPACITY),
            count: CacheCount::default(),
        }
    }
}

/// A map of at most `capacity` entries behind a lock, least recently
/// used first; a full map drops that entry to make room.
#[derive(Debug)]
struct Lru<K, V> {
    entries: Mutex<Vec<(K, V)>>,
    capacity: usize,
}

impl<K: PartialEq, V: Clone> Lru<K, V> {
    fn new(capacity: usize) -> Self {
        Lru {
            entries: Mutex::default(),
            capacity,
        }
    }

    fn entries(&self) -> MutexGuard<'_, Vec<(K, V)>> {
        // Every update leaves the list valid (at worst an entry is
        // missing, which costs a recompute), so a panic while the lock
        // was held leaves nothing to repair.
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn get(&self, key: &K) -> Option<V> {
        let mut entries = self.entries();
        let i = entries.iter().position(|(k, _)| k == key)?;
        entries[i..].rotate_left(1);
        entries.last().map(|(_, v)| v.clone())
    }

    /// Stores `value` as most recently used and returns it, unless a
    /// racing caller stored `key` first and `replaces` that value says
    /// no; then the stored value is returned.
    fn insert(&self, key: K, value: V, replaces: impl FnOnce(&V) -> bool) -> V {
        let mut entries = self.entries();
        if let Some(i) = entries.iter().position(|(k, _)| *k == key) {
            if !replaces(&entries[i].1) {
                return entries[i].1.clone();
            }
            entries.remove(i);
        } else if entries.len() == self.capacity {
            entries.remove(0);
        }
        entries.push((key, value.clone()));
        value
    }
}

/// The case-study applications of Fig. 6, with their accelerator
/// configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseApp {
    /// Night-Vision preprocessing feeding the digit classifier, with `nv`
    /// Night-Vision instances and `cl` classifier instances (the paper
    /// evaluates 1NV+1Cl, 4NV+1Cl and 4NV+4Cl).
    NightVisionClassifier {
        /// Night-Vision instances (1..=4).
        nv: usize,
        /// Classifier instances (1, or equal to `nv`).
        cl: usize,
    },
    /// The denoising autoencoder feeding the classifier (1De+1Cl).
    DenoiserClassifier,
    /// The classifier partitioned across five accelerator tiles
    /// ("1Cl split").
    MultiTileClassifier,
}

impl CaseApp {
    /// The three Fig. 7 cluster representatives in paper order, expanded
    /// to every evaluated configuration.
    pub fn all_fig7_configs() -> Vec<CaseApp> {
        vec![
            CaseApp::NightVisionClassifier { nv: 1, cl: 1 },
            CaseApp::NightVisionClassifier { nv: 4, cl: 1 },
            CaseApp::NightVisionClassifier { nv: 4, cl: 4 },
            CaseApp::DenoiserClassifier,
            CaseApp::MultiTileClassifier,
        ]
    }

    /// The configuration label used in Fig. 7 ("4NV+1Cl", "1De+1Cl", …).
    pub fn label(&self) -> String {
        match self {
            CaseApp::NightVisionClassifier { nv, cl } => format!("{nv}NV+{cl}Cl"),
            CaseApp::DenoiserClassifier => "1De+1Cl".to_string(),
            CaseApp::MultiTileClassifier => "1Cl split".to_string(),
        }
    }

    /// The application (cluster) name as in Table I / Fig. 7.
    pub fn app_name(&self) -> &'static str {
        match self {
            CaseApp::NightVisionClassifier { .. } => "NightVision & Classifier",
            CaseApp::DenoiserClassifier => "Denoiser & Classifier",
            CaseApp::MultiTileClassifier => "Multi-tile Classifier",
        }
    }

    /// Which SoC instance hosts the application.
    pub fn soc_id(&self) -> SocId {
        match self {
            CaseApp::MultiTileClassifier => SocId::Soc2,
            _ => SocId::Soc1,
        }
    }

    /// Builds the hosting SoC instance from its configuration.
    ///
    /// # Errors
    ///
    /// Compilation or integration failures.
    pub fn build_soc(&self, models: &TrainedModels) -> Result<Soc, BuildError> {
        self.soc_id().config().build(models)
    }

    /// The user-level dataflow of the application (device names only; the
    /// floorplan stays hidden, as the paper's runtime guarantees).
    pub fn dataflow(&self) -> Dataflow {
        match *self {
            CaseApp::NightVisionClassifier { nv, cl } => {
                let nvs: Vec<String> = (0..nv).map(|i| format!("nv{i}")).collect();
                let cls: Vec<String> = (0..cl).map(|i| format!("cl{i}")).collect();
                Dataflow {
                    stages: vec![
                        esp4ml_runtime::StageSpec::new(nvs),
                        esp4ml_runtime::StageSpec::new(cls),
                    ],
                }
            }
            CaseApp::DenoiserClassifier => Dataflow::linear(&[&["denoiser"], &["cl_de"]]),
            CaseApp::MultiTileClassifier => Dataflow::linear(&[
                &["cls_l0"],
                &["cls_l1"],
                &["cls_l2"],
                &["cls_l3"],
                &["cls_l4"],
            ]),
        }
    }

    /// Generates one input frame (image) for this application plus its
    /// ground-truth label: darkened images for Night-Vision, noisy images
    /// for the denoiser, clean images for the plain classifier.
    pub fn input_frame(&self, gen: &mut SvhnGenerator) -> (Vec<f32>, usize) {
        self.input_kind().frame(gen)
    }

    pub(crate) fn input_kind(&self) -> InputKind {
        match self {
            CaseApp::NightVisionClassifier { .. } => InputKind::Dark,
            CaseApp::DenoiserClassifier => InputKind::Noisy,
            CaseApp::MultiTileClassifier => InputKind::Clean,
        }
    }
}

impl InputKind {
    fn frame(self, gen: &mut SvhnGenerator) -> (Vec<f32>, usize) {
        let sample = gen.sample();
        let image = match self {
            InputKind::Dark => SvhnGenerator::darken(&sample.image, 0.25),
            InputKind::Noisy => gen.add_noise(&sample.image, 0.1),
            InputKind::Clean => sample.image,
        };
        (image, sample.label)
    }
}

/// Which of the two evaluated SoC instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocId {
    /// Hosts Night-Vision ×4, classifier ×4 and the denoiser.
    Soc1,
    /// Hosts the five-tile split classifier.
    Soc2,
}

impl SocId {
    /// The instance's floorplan, the one description it is built and
    /// linted from.
    pub fn config(self) -> SocConfigFile {
        match self {
            SocId::Soc1 => SocConfigFile::soc1(),
            SocId::Soc2 => SocConfigFile::soc2(),
        }
    }
}

/// Encodes a `[0, 1]` float image into the 16-bit fixed-point wire values
/// the accelerators exchange.
pub fn encode_image(image: &[f32]) -> Vec<u64> {
    let spec = FixedSpec::HLS4ML_DEFAULT;
    image
        .iter()
        .map(|&v| (spec.quantize(v as f64) as u64) & 0xffff)
        .collect()
}

/// Decodes 16-bit fixed-point wire values back to floats.
pub fn decode_values(values: &[u64]) -> Vec<f32> {
    let spec = FixedSpec::HLS4ML_DEFAULT;
    values
        .iter()
        .map(|&v| {
            let signed = ((v << 48) as i64) >> 48;
            spec.dequantize(signed) as f32
        })
        .collect()
}

/// Argmax of decoded logits.
pub fn argmax(values: &[f32]) -> usize {
    values
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
        .map(|(i, _)| i)
        .expect("non-empty logits")
}

impl CaseApp {
    /// Renders the application's dataflow and SoC mapping as text — the
    /// Fig. 6 analog.
    pub fn describe(&self) -> String {
        let df = self.dataflow();
        let mut out = format!(
            "{} ({}) on {:?}\n",
            self.app_name(),
            self.label(),
            self.soc_id()
        );
        let arrow = "\n      │\n      ▼\n";
        let stages: Vec<String> = df
            .stages
            .iter()
            .map(|s| format!("  [ {} ]", s.devices.join(" | ")))
            .collect();
        out.push_str("  [ input frames (DRAM) ]");
        out.push_str(arrow);
        out.push_str(&stages.join(arrow));
        out.push_str(arrow);
        out.push_str("  [ labels / output (DRAM) ]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soc1_hosts_ten_accelerators() {
        let soc = SocId::Soc1
            .config()
            .build(&TrainedModels::untrained())
            .unwrap();
        assert_eq!(soc.accel_coords().len(), 10);
        assert!(soc.accel_by_name("nv3").is_some());
        assert!(soc.accel_by_name("cl0").is_some());
        assert!(soc.accel_by_name("denoiser").is_some());
    }

    #[test]
    fn soc2_hosts_five_layer_tiles() {
        let soc = SocId::Soc2
            .config()
            .build(&TrainedModels::untrained())
            .unwrap();
        assert_eq!(soc.accel_coords().len(), 5);
        for i in 0..5 {
            assert!(soc.accel_by_name(&format!("cls_l{i}")).is_some(), "l{i}");
        }
    }

    #[test]
    fn dataflows_validate() {
        for app in CaseApp::all_fig7_configs() {
            assert!(app.dataflow().validate().is_ok(), "{}", app.label());
        }
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(
            CaseApp::NightVisionClassifier { nv: 4, cl: 1 }.label(),
            "4NV+1Cl"
        );
        assert_eq!(CaseApp::DenoiserClassifier.label(), "1De+1Cl");
        assert_eq!(CaseApp::MultiTileClassifier.label(), "1Cl split");
    }

    #[test]
    fn encode_decode_roundtrip() {
        let img = vec![0.0f32, 0.25, 0.5, 1.0];
        let decoded = decode_values(&encode_image(&img));
        for (a, b) in img.iter().zip(&decoded) {
            assert!((a - b).abs() < 1.0 / 1024.0 + 1e-6);
        }
    }

    #[test]
    fn argmax_picks_largest() {
        assert_eq!(argmax(&[0.1, 0.9, 0.3]), 1);
    }

    #[test]
    fn input_frames_match_app_character() {
        let mut gen = SvhnGenerator::new(1);
        let (dark, _) = CaseApp::NightVisionClassifier { nv: 1, cl: 1 }.input_frame(&mut gen);
        let mean: f32 = dark.iter().sum::<f32>() / dark.len() as f32;
        assert!(mean < 0.2, "darkened mean {mean}");
        let (clean, label) = CaseApp::MultiTileClassifier.input_frame(&mut gen);
        assert!(label < 10);
        let mean_clean: f32 = clean.iter().sum::<f32>() / clean.len() as f32;
        assert!(mean_clean > mean);
    }

    #[test]
    fn untrained_models_have_paper_dims() {
        let m = TrainedModels::untrained();
        assert_eq!(m.classifier().dims(), vec![1024, 256, 128, 64, 32, 10]);
        assert_eq!(m.denoiser().dims(), vec![1024, 256, 128, 1024]);
        assert!(m.classifier_accuracy.is_none());
    }
}

#[cfg(test)]
mod describe_tests {
    use super::*;

    #[test]
    fn describe_lists_every_stage_device() {
        let app = CaseApp::NightVisionClassifier { nv: 4, cl: 1 };
        let text = app.describe();
        for dev in ["nv0", "nv1", "nv2", "nv3", "cl0"] {
            assert!(text.contains(dev), "missing {dev} in:\n{text}");
        }
        assert!(text.contains("Soc1"));
    }

    #[test]
    fn describe_multi_tile_shows_five_stages() {
        let text = CaseApp::MultiTileClassifier.describe();
        assert_eq!(text.matches("cls_l").count(), 5);
    }
}

#[cfg(test)]
mod compile_cache_tests {
    use super::*;

    /// Everything a build fixes about a SoC: its initial state, its area
    /// and each accelerator's interface, timing and resources.
    fn fingerprint(soc: &Soc) -> (esp4ml_soc::SocSnapshot, String) {
        let accels: Vec<String> = soc
            .accel_coords()
            .into_iter()
            .map(|c| {
                let k = soc.accel(c).expect("accelerator").kernel();
                format!(
                    "{c:?} {} {} {}->{} ii {} {:?}",
                    k.name(),
                    k.kind(),
                    k.input_values(),
                    k.output_values(),
                    k.initiation_interval(),
                    k.resources()
                )
            })
            .collect();
        (soc.snapshot(), format!("{:?} {accels:?}", soc.resources()))
    }

    fn cached(models: &TrainedModels) -> usize {
        models.compiled.lru.entries().len()
    }

    fn compiles(models: &TrainedModels) -> usize {
        models.compiled.compiles.load(Ordering::Relaxed)
    }

    /// The same weights with an empty compile cache.
    fn cold(models: &TrainedModels) -> TrainedModels {
        TrainedModels::new(models.classifier.clone(), models.denoiser.clone())
    }

    /// A 2×2 SoC with one classifier tile compiled with `reuse`.
    fn one_classifier(reuse: &[u64]) -> SocConfigFile {
        use crate::soc_config::{MlModelRef, TileSpec, TileSpecKind};
        SocConfigFile {
            name: "one-classifier".into(),
            cols: 2,
            rows: 2,
            clock_mhz: 78.0,
            tiles: vec![
                TileSpec::new(0, 0, TileSpecKind::Processor),
                TileSpec::new(1, 0, TileSpecKind::Memory),
                TileSpec::new(
                    0,
                    1,
                    TileSpecKind::MlModel {
                        name: "cl".into(),
                        model: MlModelRef::Classifier,
                        reuse: reuse.to_vec(),
                    },
                ),
            ],
        }
    }

    #[test]
    fn warm_builds_equal_builds_from_fresh_models() {
        let models = TrainedModels::untrained();
        for id in [SocId::Soc1, SocId::Soc2] {
            let first = id.config().build(&models).expect("builds");
            let warm = id.config().build(&models).expect("builds");
            let fresh = id
                .config()
                .build(&TrainedModels::untrained())
                .expect("builds");
            assert_eq!(fingerprint(&warm), fingerprint(&fresh), "{id:?}");
            assert_eq!(fingerprint(&first), fingerprint(&fresh), "{id:?}");
        }
        let flow = Esp4mlFlow::new();
        for (net, reuse) in [
            (BuiltinNet::Classifier, &CLASSIFIER_REUSE[..]),
            (BuiltinNet::Denoiser, &DENOISER_REUSE[..]),
            (BuiltinNet::Classifier, &MULTI_TILE_REUSE[..]),
        ] {
            let network = match net {
                BuiltinNet::Classifier => models.classifier(),
                BuiltinNet::Denoiser => models.denoiser(),
            };
            let fresh = flow
                .compile_ml(network, net.kind(), reuse)
                .expect("compiles");
            let cached = models.compiled(net, reuse).expect("cached");
            assert_eq!(*cached.network(), fresh);
        }
    }

    #[test]
    fn each_network_compiles_once_per_models() {
        let models = TrainedModels::untrained();
        assert_eq!(compiles(&models), 0, "construction compiles nothing");
        for id in [SocId::Soc1, SocId::Soc2, SocId::Soc1] {
            id.config().build(&models).expect("builds");
        }
        // SoC-1's classifier and denoiser, SoC-2's classifier.
        assert_eq!(compiles(&models), 3);
        SocId::Soc2.config().build(&models.clone()).expect("builds");
        assert_eq!(compiles(&models), 3, "clones share the compiles");
    }

    #[test]
    fn cache_keeps_the_most_recently_used_keys_up_to_its_bound() {
        let models = TrainedModels::untrained();
        let build = |k: u64| one_classifier(&[64 * k; 5]).build(&models);
        let keys = COMPILED_CAPACITY as u64 + 3;
        for k in 1..=keys {
            let warm = build(k).expect("builds");
            let cold = one_classifier(&[64 * k; 5])
                .build(&cold(&models))
                .expect("builds");
            assert_eq!(fingerprint(&warm), fingerprint(&cold), "reuse {}", 64 * k);
            assert!(cached(&models) <= COMPILED_CAPACITY);
            if k == COMPILED_CAPACITY as u64 {
                // A hit makes the oldest key the most recently used.
                build(1).expect("builds");
            }
        }
        assert_eq!(cached(&models), COMPILED_CAPACITY);
        assert_eq!(compiles(&models), keys as usize);
        // Key 1 survived the overflow, key 2 was the least recently used.
        build(1).expect("builds");
        assert_eq!(compiles(&models), keys as usize);
        build(2).expect("builds");
        assert_eq!(compiles(&models), keys as usize + 1);
        assert_eq!(cached(&models), COMPILED_CAPACITY);
    }

    #[test]
    fn concurrent_builds_from_one_models_agree() {
        let models = TrainedModels::untrained();
        let [a, b] = std::thread::scope(|s| {
            let workers =
                [0, 1].map(|_| s.spawn(|| SocId::Soc1.config().build(&models).expect("builds")));
            workers.map(|w| fingerprint(&w.join().expect("no panic")))
        });
        assert_eq!(a, b);
        let after = SocId::Soc1.config().build(&models).expect("builds");
        assert_eq!(fingerprint(&after), a);
        assert_eq!(cached(&models), 2, "one entry per key despite the race");
    }

    #[test]
    fn an_empty_reuse_list_means_64_on_every_layer() {
        let models = TrainedModels::untrained();
        let empty = one_classifier(&[]).build(&models).expect("builds");
        let explicit = one_classifier(&[64; 5]).build(&models).expect("builds");
        assert_eq!(fingerprint(&empty), fingerprint(&explicit));
        let net = |reuse: &[u64]| {
            let nn = models
                .compiled(BuiltinNet::Classifier, reuse)
                .expect("cached");
            let nn = nn.network();
            (nn.resources(), nn.latency(), nn.initiation_interval())
        };
        assert_eq!(net(&[]), net(&[64; 5]));
    }

    #[test]
    fn failed_compiles_are_errors_every_time_and_never_cached() {
        let models = TrainedModels::untrained();
        for reuse in [&[0u64; 5][..], &[64, 64]] {
            for _ in 0..2 {
                match one_classifier(reuse).build(&models) {
                    Err(BuildError::Compile(_)) => {}
                    other => panic!("{reuse:?}: expected Compile, got {:?}", other.map(|_| ())),
                }
            }
        }
        assert_eq!((cached(&models), compiles(&models)), (0, 0));
    }

    #[test]
    fn a_poisoned_cache_still_serves_builds() {
        let models = TrainedModels::untrained();
        let poisoner = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = models.compiled.lru.entries.lock();
                panic!("poisoning the compile cache on purpose");
            })
            .join()
        });
        assert!(poisoner.is_err());
        assert!(models.compiled.lru.entries.is_poisoned());
        let soc = SocId::Soc2.config().build(&models).expect("builds");
        assert_eq!(soc.accel_coords().len(), 5);
        assert_eq!(cached(&models), 1);
    }
}

#[cfg(test)]
mod frame_cache_tests {
    use super::*;

    #[test]
    fn frame_sets_are_prefixes_of_one_generator_and_bounded() {
        let models = TrainedModels::untrained();
        let app = CaseApp::DenoiserClassifier;
        let long = models.input_frames(&app, 7, 5);
        let short = models.input_frames(&app, 7, 3);
        let mut gen = SvhnGenerator::new(7);
        let fresh: Vec<_> = (0..5).map(|_| app.input_frame(&mut gen)).collect();
        for (frames, n) in [(&long, 5), (&short, 3)] {
            let got: Vec<_> = frames
                .images()
                .iter()
                .cloned()
                .zip(frames.labels().iter().copied())
                .collect();
            assert_eq!(got, fresh[..n]);
        }
        let counts = models.cache_counts();
        assert_eq!((counts.frame_hits, counts.frame_misses), (1, 1));
        for seed in 0..10 {
            models.input_frames(&app, seed, 1);
        }
        assert_eq!(models.frames.lru.entries().len(), FRAME_CAPACITY);
    }
}
