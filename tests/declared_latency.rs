//! The declared-latency contract: the socket charges every frame
//! exactly the kernel's declared `latency()` datapath cycles, each
//! `divider` NoC-clock ticks long under per-tile DVFS, whatever values
//! the kernel computes.

use esp4ml::apps::{TrainedModels, CLASSIFIER_REUSE};
use esp4ml::noc::Coord;
use esp4ml::soc::{AccelConfig, AcceleratorKernel, NnKernel, ScaleKernel, SocBuilder, SocEngine};
use esp4ml::vision::NightVisionKernel;
use esp4ml::Esp4mlFlow;

const FRAMES: u64 = 3;

/// `AccelStats::compute_cycles` of a `FRAMES`-frame DMA batch on
/// `kernel` at DVFS `divider`.
fn compute_cycles(kernel: Box<dyn AcceleratorKernel>, divider: u64, engine: SocEngine) -> u64 {
    let accel = Coord::new(0, 1);
    let (values, bits) = (kernel.input_values() * FRAMES, kernel.data_bits());
    let mut soc = SocBuilder::new(2, 2)
        .engine(engine)
        .processor(Coord::new(0, 0))
        .memory(Coord::new(1, 0))
        .accelerator(accel, kernel)
        .build()
        .expect("valid floorplan");
    let input: Vec<u64> = (0..values).map(|v| v * 7 % 1000).collect();
    soc.dram_write_values(0, &input, bits).expect("init");
    soc.map_contiguous(accel, 0, 1 << 20).expect("map");
    let cfg = AccelConfig::dma_to_dma(0, 1 << 18, FRAMES).with_dvfs_divider(divider);
    soc.configure_accel(accel, &cfg).expect("configure");
    soc.start_accel(accel).expect("start");
    assert!(soc.run_until_idle(100_000_000).is_idle());
    let stats = soc.accel(accel).expect("accelerator tile").stats();
    assert_eq!(stats.frames_done, FRAMES);
    stats.compute_cycles
}

#[test]
fn compute_cycles_are_frames_times_declared_latency_times_divider() {
    let models = TrainedModels::untrained();
    let classifier = Esp4mlFlow::new()
        .compile_ml(models.classifier(), "cls", &CLASSIFIER_REUSE)
        .expect("compiles");
    let night_vision = NightVisionKernel::new("nv");
    let hls_sum: u64 = night_vision.hls_models().iter().map(|m| m.latency()).sum();
    assert_eq!(night_vision.latency(), hls_sum);
    let kernel = |i| -> Box<dyn AcceleratorKernel> {
        match i {
            0 => Box::new(ScaleKernel::new("scale", 64, 3).with_cycles_per_value(5)),
            1 => Box::new(NnKernel::new(classifier.clone())),
            _ => Box::new(night_vision.clone()),
        }
    };
    for i in 0..3 {
        let (name, latency) = (kernel(i).name().to_string(), kernel(i).latency());
        assert!(latency > 1, "{name} declares a latency");
        for divider in [1, 3] {
            for engine in [SocEngine::Naive, SocEngine::EventDriven] {
                assert_eq!(
                    compute_cycles(kernel(i), divider, engine),
                    FRAMES * latency * divider,
                    "{name} at divider {divider} under {engine:?}"
                );
            }
        }
    }
}
