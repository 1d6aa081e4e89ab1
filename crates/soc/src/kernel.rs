//! Accelerator kernels: the COMPUTE stage plugged into the tile wrapper.

use esp4ml_hls::Resources;
use esp4ml_hls4ml::CompiledNn;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A behavioural accelerator kernel: a pure function from one frame's
/// input values to its output values, with a latency fixed by its HLS
/// schedule.
///
/// A kernel declares its per-invocation I/O sizes in *values* (not NoC
/// words) and its data width in bits; the socket wrapper handles packing
/// values into 64-bit words for DMA and p2p transport — that is the
/// "unpacking" the paper's LOAD function performs. Timing never reads
/// the data: the socket charges [`AcceleratorKernel::latency`] datapath
/// cycles per invocation, whatever `compute` returns.
pub trait AcceleratorKernel: Send {
    /// Kernel name (for driver discovery and reports).
    fn name(&self) -> &str;

    /// Device kind: the interchangeability class used by the runtime's
    /// failover remap. Two devices of the same kind (and I/O shape) run
    /// the same computation, so one can substitute for the other when it
    /// breaks. Defaults to the instance name, i.e. nothing is
    /// interchangeable unless a kernel opts in.
    fn kind(&self) -> &str {
        self.name()
    }

    /// Input values consumed per invocation.
    fn input_values(&self) -> u64;

    /// Output values produced per invocation.
    fn output_values(&self) -> u64;

    /// Width of one value in bits (values are packed `64 / data_bits` per
    /// NoC word). Must divide 64.
    fn data_bits(&self) -> u32 {
        16
    }

    /// Processes one invocation.
    ///
    /// `input` has exactly [`AcceleratorKernel::input_values`] elements;
    /// the result must have exactly [`AcceleratorKernel::output_values`]
    /// elements (one logical value each; the wrapper packs them into
    /// 64-bit NoC words).
    fn compute(&self, input: &[u64]) -> Vec<u64>;

    /// Datapath cycles of one invocation, as the HLS report declares it.
    fn latency(&self) -> u64;

    /// Steady-state initiation interval (cycles/invocation) of the compute
    /// datapath, used for reporting.
    fn initiation_interval(&self) -> u64;

    /// Post-synthesis resource usage of the kernel (without the socket).
    fn resources(&self) -> Resources;
}

impl fmt::Debug for dyn AcceleratorKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AcceleratorKernel({})", self.name())
    }
}

/// Packs logical values into 64-bit NoC words.
///
/// # Panics
///
/// Panics unless `data_bits` divides 64.
pub(crate) fn pack_values(values: &[u64], data_bits: u32) -> Vec<u64> {
    assert!(64 % data_bits == 0, "data width must divide 64");
    let per_word = (64 / data_bits) as usize;
    let mask = if data_bits == 64 {
        u64::MAX
    } else {
        (1u64 << data_bits) - 1
    };
    values
        .chunks(per_word)
        .map(|chunk| {
            let mut word = 0u64;
            for (i, &v) in chunk.iter().enumerate() {
                word |= (v & mask) << (i as u32 * data_bits);
            }
            word
        })
        .collect()
}

/// Unpacks 64-bit NoC words into `count` logical values.
///
/// # Panics
///
/// Panics unless `data_bits` divides 64 or if `words` is too short.
pub(crate) fn unpack_values(words: &[u64], count: usize, data_bits: u32) -> Vec<u64> {
    assert!(64 % data_bits == 0, "data width must divide 64");
    let per_word = (64 / data_bits) as usize;
    assert!(
        words.len() * per_word >= count,
        "not enough words to unpack {count} values"
    );
    let mask = if data_bits == 64 {
        u64::MAX
    } else {
        (1u64 << data_bits) - 1
    };
    (0..count)
        .map(|i| (words[i / per_word] >> ((i % per_word) as u32 * data_bits)) & mask)
        .collect()
}

/// Number of 64-bit words needed for `values` values of `data_bits` bits,
/// packed `64 / data_bits` to a word as the socket packs them.
pub fn words_for(values: u64, data_bits: u32) -> u64 {
    let per_word = (64 / data_bits) as u64;
    values.div_ceil(per_word)
}

/// A trivial kernel that multiplies every input value by a constant — used
/// by unit tests and the quickstart example.
#[derive(Debug, Clone)]
pub struct ScaleKernel {
    name: String,
    kind: Option<String>,
    values: u64,
    factor: u64,
    cycles_per_value: u64,
}

impl ScaleKernel {
    /// Creates a kernel processing `values` values per invocation,
    /// multiplying each by `factor`.
    pub fn new(name: &str, values: u64, factor: u64) -> Self {
        ScaleKernel {
            name: name.to_string(),
            kind: None,
            values,
            factor,
            cycles_per_value: 1,
        }
    }

    /// Sets the modelled compute cost per value (builder style), to mimic
    /// heavier kernels in tests and examples.
    pub fn with_cycles_per_value(mut self, cycles: u64) -> Self {
        self.cycles_per_value = cycles;
        self
    }

    /// Declares the interchangeability class (builder style): instances
    /// sharing a kind can substitute for each other under failover.
    pub fn with_kind(mut self, kind: &str) -> Self {
        self.kind = Some(kind.to_string());
        self
    }
}

impl AcceleratorKernel for ScaleKernel {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> &str {
        self.kind.as_deref().unwrap_or(&self.name)
    }

    fn input_values(&self) -> u64 {
        self.values
    }

    fn output_values(&self) -> u64 {
        self.values
    }

    fn compute(&self, input: &[u64]) -> Vec<u64> {
        input.iter().map(|&v| (v * self.factor) & 0xffff).collect()
    }

    fn latency(&self) -> u64 {
        self.values * self.cycles_per_value
    }

    fn initiation_interval(&self) -> u64 {
        self.latency()
    }

    fn resources(&self) -> Resources {
        Resources::new(500, 700, 2, 1)
    }
}

/// Hits and misses of a host-side cache, counted across threads. Several
/// caches may share one count.
#[derive(Debug, Default)]
pub struct CacheCount {
    hits: AtomicU64,
    misses: AtomicU64,
}

impl CacheCount {
    /// Lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to compute.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Counts one lookup.
    pub fn record(&self, hit: bool) {
        let counter = if hit { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// The results of one pure kernel, shared by every copy of it: a map
/// from a complete input to its output values, both stored at 16 bits.
///
/// A memo is exact for a kernel whose output is a function of its input
/// values alone, as every [`NnKernel`] is. It holds at most `capacity`
/// inputs; a full memo keeps what it has and stores nothing more. An
/// input or output with a value wider than 16 bits is computed and
/// never stored. The lock is not held while computing, so two racing
/// copies may both compute one input; their results are equal.
pub struct KernelMemo {
    entries: Mutex<Results>,
    capacity: usize,
    count: Arc<CacheCount>,
}

impl KernelMemo {
    /// An empty memo holding up to `capacity` inputs, counting its hits
    /// and misses in `count`.
    pub fn new(capacity: usize, count: Arc<CacheCount>) -> Self {
        KernelMemo {
            entries: Mutex::default(),
            capacity,
            count,
        }
    }

    /// Stored inputs.
    pub fn len(&self) -> usize {
        self.entries().len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn entries(&self) -> MutexGuard<'_, Results> {
        // Every update is one insert, so a panic while the lock was held
        // leaves nothing to repair.
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The stored output for `input`, or `compute(input)`, stored.
    pub fn get_or_compute(
        &self,
        input: &[u64],
        compute: impl FnOnce(&[u64]) -> Vec<u64>,
    ) -> Vec<u64> {
        let Some(key) = narrow(input) else {
            return compute(input);
        };
        if let Some(out) = self.entries().get(&key) {
            self.count.record(true);
            return out.iter().map(|&v| u64::from(v)).collect();
        }
        self.count.record(false);
        let out = compute(input);
        if let Some(stored) = narrow(&out) {
            let mut entries = self.entries();
            if entries.len() < self.capacity {
                entries.entry(key).or_insert(stored);
            }
        }
        out
    }
}

impl fmt::Debug for KernelMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KernelMemo")
            .field("entries", &self.len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

/// Output values by input values, both at 16 bits.
type Results = HashMap<Box<[u16]>, Box<[u16]>>;

/// `values` at 16 bits, or `None` when one is wider.
fn narrow(values: &[u64]) -> Option<Box<[u16]>> {
    values.iter().map(|&v| u16::try_from(v).ok()).collect()
}

/// Adapter exposing a compiled HLS4ML network as an accelerator kernel.
///
/// Values on the NoC are the raw fixed-point words of the network's
/// [`esp4ml_hls::FixedSpec`], reinterpreted as unsigned `data_bits`-bit
/// fields (two's complement).
#[derive(Debug, Clone)]
pub struct NnKernel {
    nn: CompiledNn,
    kind: Option<String>,
    /// [`CompiledNn::latency`], summed from the layer reports once.
    latency: u64,
    memo: Option<Arc<KernelMemo>>,
}

impl NnKernel {
    /// Wraps a compiled network.
    pub fn new(nn: CompiledNn) -> Self {
        let latency = nn.latency();
        NnKernel {
            nn,
            kind: None,
            latency,
            memo: None,
        }
    }

    /// Declares the interchangeability class (builder style): copies of
    /// the same compiled network deployed under different instance names
    /// (e.g. `cl0`..`cl3`) share a kind so the runtime can fail over
    /// between them.
    pub fn with_kind(mut self, kind: &str) -> Self {
        self.kind = Some(kind.to_string());
        self
    }

    /// Looks results up in `memo` (builder style), which every copy of
    /// this network may share and no other network may use. The latency
    /// is declared apart from the values, so a hit moves no cycle.
    pub fn with_memo(mut self, memo: Arc<KernelMemo>) -> Self {
        self.memo = Some(memo);
        self
    }

    /// The wrapped network.
    pub fn network(&self) -> &CompiledNn {
        &self.nn
    }

    fn infer(&self, input: &[u64]) -> Vec<u64> {
        let raw: Vec<i64> = input.iter().map(|&v| self.to_signed(v)).collect();
        let out = self.nn.infer_fixed(&raw);
        out.into_iter().map(|v| self.to_unsigned(v)).collect()
    }

    fn to_signed(&self, v: u64) -> i64 {
        let bits = self.nn.spec().total_bits();
        let shift = 64 - bits;
        ((v << shift) as i64) >> shift
    }

    fn to_unsigned(&self, v: i64) -> u64 {
        let bits = self.nn.spec().total_bits();
        (v as u64) & ((1u64 << bits) - 1)
    }
}

impl AcceleratorKernel for NnKernel {
    fn name(&self) -> &str {
        self.nn.name()
    }

    fn kind(&self) -> &str {
        self.kind.as_deref().unwrap_or_else(|| self.nn.name())
    }

    fn input_values(&self) -> u64 {
        self.nn.input_dim() as u64
    }

    fn output_values(&self) -> u64 {
        self.nn.output_dim() as u64
    }

    fn data_bits(&self) -> u32 {
        self.nn.spec().total_bits()
    }

    fn compute(&self, input: &[u64]) -> Vec<u64> {
        match &self.memo {
            Some(memo) => memo.get_or_compute(input, |input| self.infer(input)),
            None => self.infer(input),
        }
    }

    fn latency(&self) -> u64 {
        self.latency
    }

    fn initiation_interval(&self) -> u64 {
        self.nn.initiation_interval()
    }

    fn resources(&self) -> Resources {
        self.nn.resources()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip_16bit() {
        let values: Vec<u64> = (0..10).map(|i| i * 1000 + 7).collect();
        let words = pack_values(&values, 16);
        assert_eq!(words.len(), 3); // ceil(10/4)
        assert_eq!(unpack_values(&words, 10, 16), values);
    }

    #[test]
    fn pack_unpack_roundtrip_other_widths() {
        for bits in [8u32, 16, 32, 64] {
            let mask = if bits == 64 {
                u64::MAX
            } else {
                (1u64 << bits) - 1
            };
            let values: Vec<u64> = (0..7).map(|i| (i * 0x0123_4567) & mask).collect();
            let words = pack_values(&values, bits);
            assert_eq!(unpack_values(&words, 7, bits), values, "width {bits}");
        }
    }

    #[test]
    fn words_for_rounds_up() {
        assert_eq!(words_for(1024, 16), 256);
        assert_eq!(words_for(10, 16), 3);
        assert_eq!(words_for(1, 64), 1);
        assert_eq!(words_for(0, 16), 0);
    }

    #[test]
    fn kind_defaults_to_name_until_overridden() {
        let k = ScaleKernel::new("x3", 4, 3);
        assert_eq!(k.kind(), "x3");
        let k = k.with_kind("scaler");
        assert_eq!(k.kind(), "scaler");
        assert_eq!(k.name(), "x3");
    }

    #[test]
    fn scale_kernel_multiplies() {
        let k = ScaleKernel::new("x3", 4, 3);
        assert_eq!(k.compute(&[1, 2, 3, 4]), vec![3, 6, 9, 12]);
        assert_eq!(k.latency(), 4);
        assert_eq!(k.input_values(), 4);
    }

    /// A one-layer 4→4 network.
    fn small_nn() -> CompiledNn {
        use esp4ml_hls4ml::{Hls4mlCompiler, Hls4mlConfig};
        use esp4ml_nn::{Activation, LayerSpec, Sequential};
        let mut m = Sequential::with_seed(4, 17);
        m.push(LayerSpec::dense(4, Activation::Relu));
        Hls4mlCompiler::compile(&m, &Hls4mlConfig::with_reuse(4)).unwrap()
    }

    #[test]
    fn memoized_copies_return_what_the_network_computes() {
        let nn = small_nn();
        let count = Arc::new(CacheCount::default());
        let memo = Arc::new(KernelMemo::new(8, Arc::clone(&count)));
        let plain = NnKernel::new(nn.clone());
        let a = NnKernel::new(nn.renamed("a")).with_memo(Arc::clone(&memo));
        let b = NnKernel::new(nn.renamed("b")).with_memo(Arc::clone(&memo));
        let inputs = [[1u64, 2, 3, 4], [0xffff, 0x8000, 7, 0], [1, 2, 3, 4]];
        for input in inputs {
            let want = plain.compute(&input);
            assert_eq!(a.compute(&input), want);
            assert_eq!(b.compute(&input), want, "a copy reads the shared memo");
        }
        assert_eq!(a.latency(), nn.latency());
        assert_eq!(memo.len(), 2);
        assert_eq!((count.hits(), count.misses()), (4, 2));
    }

    #[test]
    fn a_full_memo_stores_nothing_more_and_still_computes() {
        let nn = small_nn();
        let count = Arc::new(CacheCount::default());
        let memo = Arc::new(KernelMemo::new(2, Arc::clone(&count)));
        let plain = NnKernel::new(nn.clone());
        let k = NnKernel::new(nn).with_memo(Arc::clone(&memo));
        for round in 0..2 {
            for v in 0..5u64 {
                let input = [v, v + 1, v + 2, v + 3];
                assert_eq!(k.compute(&input), plain.compute(&input), "{round} {v}");
            }
        }
        assert_eq!(memo.len(), 2, "the bound holds");
        // The first two inputs hit in the second round, the other three
        // miss both times.
        assert_eq!((count.hits(), count.misses()), (2, 8));
    }

    #[test]
    fn values_wider_than_16_bits_bypass_the_memo() {
        let count = Arc::new(CacheCount::default());
        let memo = KernelMemo::new(8, Arc::clone(&count));
        let wide = [1u64 << 16, 0];
        for _ in 0..2 {
            assert_eq!(memo.get_or_compute(&wide, |v| v.to_vec()), wide);
            assert_eq!(memo.get_or_compute(&[1, 2], |_| vec![1 << 20]), [1 << 20]);
        }
        assert!(memo.is_empty());
        assert_eq!((count.hits(), count.misses()), (0, 2));
    }

    #[test]
    fn a_poisoned_memo_still_serves() {
        let memo = KernelMemo::new(8, Arc::default());
        assert_eq!(memo.get_or_compute(&[1], |_| vec![2]), [2]);
        let poisoner = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = memo.entries.lock();
                panic!("poisoning the memo on purpose");
            })
            .join()
        });
        assert!(poisoner.is_err());
        assert!(memo.entries.is_poisoned());
        assert_eq!(memo.get_or_compute(&[1], |_| unreachable!("a hit")), [2]);
        assert_eq!(memo.get_or_compute(&[3], |_| vec![4]), [4]);
        assert_eq!(memo.len(), 2);
    }

    #[test]
    fn nn_kernel_sign_roundtrip() {
        use esp4ml_hls4ml::{Hls4mlCompiler, Hls4mlConfig};
        use esp4ml_nn::{Activation, LayerSpec, Sequential};
        let mut m = Sequential::with_seed(4, 17);
        m.push(LayerSpec::dense(4, Activation::Linear));
        let nn = Hls4mlCompiler::compile(&m, &Hls4mlConfig::with_reuse(4)).unwrap();
        let spec = nn.spec();
        let k = NnKernel::new(nn.clone());
        // Feed a negative fixed-point value through the NoC encoding.
        let raw_in: Vec<i64> = vec![spec.quantize(-1.5), 0, 0, 0];
        let wire: Vec<u64> = raw_in.iter().map(|&v| (v as u64) & 0xffff).collect();
        let out = k.compute(&wire);
        let direct = nn.infer_fixed(&raw_in);
        let back: Vec<i64> = out.iter().map(|&v| ((v << 48) as i64) >> 48).collect();
        assert_eq!(back, direct);
    }
}
