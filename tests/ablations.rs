//! The design-choice ablations of DESIGN.md ("Key design choices"),
//! pinned to exact numbers. Each case rebuilds its floorplan, runs it
//! under both engines, requires identical results from the two, and
//! asserts the cycles, off-chip words and flit-hops that EXPERIMENTS.md
//! ("Ablations") quotes. The reuse sweep is static and pins the HLS4ML
//! estimate instead.
//!
//! Besides the paper's p2p claim, the cases hold the engines'
//! naive-versus-event checks of a DVFS-divided consumer, a
//! double-buffered batch and two interleaved memory tiles.

use esp4ml::hls4ml::{Hls4mlCompiler, Hls4mlConfig};
use esp4ml::mem::{CacheConfig, DramConfig};
use esp4ml::nn::Sequential;
use esp4ml::noc::Coord;
use esp4ml::runtime::{Dataflow, EspRuntime, ExecMode, RunMetrics, RunSpec};
use esp4ml::soc::{AccelConfig, AccelStats, ScaleKernel, Soc, SocBuilder, SocEngine, SocStats};

/// Runs `case` under the naive and the event-driven engine, asserts the
/// two results are equal, and returns it.
fn on_both_engines<T: PartialEq + std::fmt::Debug>(
    label: &str,
    case: impl Fn(SocEngine) -> T,
) -> T {
    let naive = case(SocEngine::Naive);
    let event = case(SocEngine::EventDriven);
    assert_eq!(naive, event, "{label}: the engines diverged");
    event
}

/// What a hand-driven batch leaves behind.
#[derive(Debug, PartialEq)]
struct Batch {
    /// Cycles from the first start to idle.
    cycles: u64,
    stats: SocStats,
    accels: Vec<AccelStats>,
    /// The 16-bit values of each requested output region.
    outputs: Vec<Vec<u64>>,
}

/// Starts `accels` in order, runs `soc` to idle, and reads back each
/// `(word address, value count)` output region.
fn run_batch(mut soc: Soc, accels: &[Coord], outputs: &[(u64, usize)]) -> Batch {
    let start = soc.cycle();
    for &c in accels {
        soc.start_accel(c).expect("start");
    }
    assert!(soc.run_until_idle(100_000_000).is_idle());
    Batch {
        cycles: soc.cycle() - start,
        stats: soc.stats(),
        accels: accels
            .iter()
            .map(|&c| *soc.accel(c).expect("accelerator tile").stats())
            .collect(),
        outputs: outputs
            .iter()
            .map(|&(addr, n)| soc.dram_read_values(addr, n, 16).expect("output"))
            .collect(),
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum MemOrg {
    NonCoherent,
    LlcCoherent,
    P2p,
}

/// Two scale stages on a 3×2 mesh, 8 frames of 1,024 16-bit values,
/// through the runtime: pipelined over non-coherent DMA, over
/// LLC-coherent DMA, or p2p.
fn coherence(org: MemOrg, engine: SocEngine) -> (RunMetrics, Vec<Vec<u64>>) {
    const FRAMES: u64 = 8;
    let mut b = SocBuilder::new(3, 2)
        .engine(engine)
        .processor(Coord::new(0, 0));
    b = match org {
        MemOrg::LlcCoherent => b.memory_llc(
            Coord::new(1, 0),
            DramConfig::default(),
            CacheConfig::default(),
        ),
        MemOrg::NonCoherent | MemOrg::P2p => b.memory(Coord::new(1, 0)),
    };
    let soc = b
        .accelerator(
            Coord::new(0, 1),
            Box::new(ScaleKernel::new("a", 1024, 2).with_cycles_per_value(2)),
        )
        .accelerator(
            Coord::new(1, 1),
            Box::new(ScaleKernel::new("b", 1024, 3).with_cycles_per_value(2)),
        )
        .build()
        .expect("valid floorplan");
    let mut rt = EspRuntime::new(soc).expect("runtime boots");
    let df = Dataflow::linear(&[&["a"], &["b"]]);
    let buf = rt.prepare(&df, FRAMES).expect("buffers fit");
    for f in 0..FRAMES {
        rt.write_frame(&buf, f, &vec![f + 1; 1024]).expect("write");
    }
    let mode = if org == MemOrg::P2p {
        ExecMode::P2p
    } else {
        ExecMode::Pipe
    };
    let metrics = rt
        .run(&RunSpec::new(&df).mode(mode), &buf)
        .expect("run succeeds");
    let outputs = (0..FRAMES)
        .map(|f| rt.read_frame(&buf, f).expect("read back"))
        .collect();
    (metrics, outputs)
}

/// P2p against non-coherent and LLC-coherent DMA (the paper's reference
/// [12]): p2p takes the fewest cycles, off-chip words and flit-hops. The
/// LLC filters a quarter of the off-chip words but pays fill and
/// writeback latency, so it is the slowest of the three.
#[test]
fn coherence_models_against_p2p() {
    let mut outputs = Vec::new();
    for (org, cycles, words, hops) in [
        (MemOrg::NonCoherent, 29_189, 8_192, 13_560),
        (MemOrg::LlcCoherent, 34_475, 6_144, 13_560),
        (MemOrg::P2p, 24_518, 4_096, 8_561),
    ] {
        let (m, out) = on_both_engines(&format!("{org:?}"), |e| coherence(org, e));
        assert_eq!(
            (m.cycles, m.dram_accesses, m.noc_flit_hops),
            (cycles, words, hops),
            "{org:?}"
        );
        outputs.push(out);
    }
    assert!(outputs.windows(2).all(|w| w[0] == w[1]), "outputs differ");
    assert_eq!(outputs[0][0], vec![6; 1024], "frame 0 is (0 + 1) × 2 × 3");
}

/// A DMA-bound 16-frame batch on one accelerator, with and without the
/// input-PLM ping-pong buffer.
fn dbuf(double_buffer: bool, engine: SocEngine) -> Batch {
    const FRAMES: u64 = 16;
    let accel = Coord::new(0, 1);
    let mut soc = SocBuilder::new(2, 2)
        .engine(engine)
        .processor(Coord::new(0, 0))
        .memory(Coord::new(1, 0))
        .accelerator(
            accel,
            Box::new(ScaleKernel::new("a", 1024, 2).with_cycles_per_value(1)),
        )
        .build()
        .expect("valid floorplan");
    for f in 0..FRAMES {
        soc.dram_write_values(f * 256, &vec![3; 1024], 16)
            .expect("init");
    }
    soc.map_contiguous(accel, 0, 1 << 20).expect("map");
    let mut cfg = AccelConfig::dma_to_dma(0, 1 << 18, FRAMES);
    if double_buffer {
        cfg = cfg.with_double_buffer();
    }
    soc.configure_accel(accel, &cfg).expect("configure");
    run_batch(soc, &[accel], &[(1 << 18, FRAMES as usize * 1024)])
}

/// Overlapping frame `k+1`'s LOAD with frame `k`'s COMPUTE/STORE saves a
/// quarter of the cycles and leaves the output bit-identical.
#[test]
fn double_buffering_overlaps_load_with_compute() {
    let single = on_both_engines("single buffer", |e| dbuf(false, e));
    let double = on_both_engines("double buffer", |e| dbuf(true, e));
    assert_eq!((single.cycles, double.cycles), (31_861, 23_903));
    assert_eq!(single.outputs, double.outputs);
    assert!(single.outputs[0].iter().all(|&v| v == 6));
}

/// A slow producer (8 cycles per value) streams p2p into a fast consumer
/// (1 cycle per value) whose datapath clock is divided by `divider`.
fn dvfs(divider: u64, engine: SocEngine) -> Batch {
    const FRAMES: u64 = 8;
    let (p, c) = (Coord::new(0, 1), Coord::new(1, 1));
    let mut soc = SocBuilder::new(3, 2)
        .engine(engine)
        .processor(Coord::new(0, 0))
        .memory(Coord::new(1, 0))
        .accelerator(
            p,
            Box::new(ScaleKernel::new("slow", 1024, 2).with_cycles_per_value(8)),
        )
        .accelerator(
            c,
            Box::new(ScaleKernel::new("fast", 1024, 3).with_cycles_per_value(1)),
        )
        .build()
        .expect("valid floorplan");
    for f in 0..FRAMES {
        soc.dram_write_values(f * 256, &vec![1; 1024], 16)
            .expect("init");
    }
    for t in [p, c] {
        soc.map_contiguous(t, 0, 1 << 20).expect("map");
    }
    soc.configure_accel(p, &AccelConfig::dma_to_p2p(0, FRAMES))
        .expect("configure");
    soc.configure_accel(
        c,
        &AccelConfig::p2p_to_dma(vec![p], 100_000, FRAMES).with_dvfs_divider(divider),
    )
    .expect("configure");
    run_batch(soc, &[p, c], &[(100_000, FRAMES as usize * 1024)])
}

/// Slowing the fast stage of a producer-bound pipeline costs little
/// throughput: +1.4% cycles at f/2, +4.3% at f/4, +11.4% at f/8.
#[test]
fn dvfs_on_the_fast_stage_costs_little_throughput() {
    let full = on_both_engines("f/1", |e| dvfs(1, e));
    assert_eq!(full.cycles, 71_655);
    for (divider, cycles) in [(2, 72_679), (4, 74_727), (8, 79_845)] {
        let scaled = on_both_engines(&format!("f/{divider}"), |e| dvfs(divider, e));
        assert_eq!(scaled.cycles, cycles, "f/{divider}");
        assert_eq!(scaled.outputs, full.outputs, "f/{divider}");
    }
    assert!(full.outputs[0].iter().all(|&v| v == 6));
}

/// Two independent DMA accelerators, 8 frames of 2,048 values each, on
/// one memory tile or block-interleaved across two.
fn interleave(mem_tiles: usize, engine: SocEngine) -> Batch {
    const FRAMES: u64 = 8;
    let (a, b) = (Coord::new(0, 1), Coord::new(1, 1));
    let mut builder = SocBuilder::new(3, 2)
        .engine(engine)
        .processor(Coord::new(0, 0))
        .memory(Coord::new(1, 0));
    if mem_tiles == 2 {
        builder = builder.memory(Coord::new(2, 0));
    }
    let mut soc = builder
        .accelerator(
            a,
            Box::new(ScaleKernel::new("a", 2048, 2).with_cycles_per_value(0)),
        )
        .accelerator(
            b,
            Box::new(ScaleKernel::new("b", 2048, 3).with_cycles_per_value(0)),
        )
        .build()
        .expect("valid floorplan");
    for f in 0..FRAMES {
        soc.dram_write_values(f * 512, &vec![5; 2048], 16)
            .expect("init");
        soc.dram_write_values((f + 64) * 512, &vec![9; 2048], 16)
            .expect("init");
    }
    for t in [a, b] {
        soc.map_contiguous(t, 0, 1 << 20).expect("map");
    }
    soc.configure_accel(a, &AccelConfig::dma_to_dma(0, 256 * 512, FRAMES))
        .expect("configure");
    soc.configure_accel(b, &AccelConfig::dma_to_dma(64 * 512, 320 * 512, FRAMES))
        .expect("configure");
    let n = FRAMES as usize * 2048;
    run_batch(soc, &[a, b], &[(256 * 512, n), (320 * 512, n)])
}

/// Striping the address space over a second memory tile cuts the batch
/// by ~30% with the same off-chip word count.
#[test]
fn a_second_memory_tile_shortens_a_memory_bound_batch() {
    let one = on_both_engines("one memory tile", |e| interleave(1, e));
    let two = on_both_engines("two memory tiles", |e| interleave(2, e));
    assert_eq!((one.cycles, two.cycles), (21_135, 14_819));
    assert_eq!(
        (one.stats.dram_accesses(), two.stats.dram_accesses()),
        (16_384, 16_384)
    );
    assert_eq!(one.outputs, two.outputs);
    assert!(one.outputs[0].iter().all(|&v| v == 10));
    assert!(one.outputs[1].iter().all(|&v| v == 27));
}

/// The HLS4ML reuse factor R over the SVHN classifier: II is R, while
/// DSPs fall about fourfold per fourfold R and latency grows with it.
#[test]
fn reuse_factor_trades_ii_for_dsps() {
    let model = Sequential::svhn_classifier();
    let sweep: Vec<(u64, u64, u64)> = [16, 64, 256, 1024, 4096]
        .into_iter()
        .map(|reuse| {
            let nn = Hls4mlCompiler::compile(&model, &Hls4mlConfig::with_reuse(reuse))
                .expect("compiles");
            let est = nn.estimate();
            assert_eq!(est.initiation_interval, reuse, "II at R={reuse}");
            (reuse, est.latency, est.resources.dsps)
        })
        .collect();
    assert_eq!(
        sweep,
        [
            (16, 146, 19_092),
            (64, 386, 4_773),
            (256, 1_346, 1_194),
            (1024, 4_482, 299),
            (4096, 14_722, 76),
        ]
    );
}
