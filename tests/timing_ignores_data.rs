//! Timing never reads data. Every accelerator's latency comes from its
//! HLS schedule, never from the values it computes, so scrambling every
//! output value of every accelerator must leave each cycle, flit and
//! DRAM word of a run where it was. That makes the kernel result memo on
//! `TrainedModels` exact (a hit cannot move anything but values), and it
//! is why the figure binaries may run untrained weights.

use esp4ml::apps::{encode_image, CaseApp, TrainedModels};
use esp4ml::experiments::{AppRun, Fig7, GridPoint, RunOptions};
use esp4ml::hls::Resources;
use esp4ml::noc::{Coord, NocStats};
use esp4ml::runtime::{EspRuntime, RunMetrics, RunSpec};
use esp4ml::soc::{
    AccelStats, AcceleratorKernel, EngineCounters, NnKernel, Soc, SocBuilder, SocEngine, SocStats,
};
use esp4ml::soc_config::{MlModelRef, TileSpecKind};
use esp4ml::vision::SvhnGenerator;
use esp4ml::Esp4mlFlow;

const FRAMES: u64 = 2;

/// A kernel whose every output value is scrambled, at the wrapped
/// kernel's latency.
struct Scrambled(Box<dyn AcceleratorKernel>);

impl AcceleratorKernel for Scrambled {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn kind(&self) -> &str {
        self.0.kind()
    }

    fn input_values(&self) -> u64 {
        self.0.input_values()
    }

    fn output_values(&self) -> u64 {
        self.0.output_values()
    }

    fn data_bits(&self) -> u32 {
        self.0.data_bits()
    }

    fn compute(&self, input: &[u64]) -> Vec<u64> {
        let mask = (1u64 << self.data_bits()) - 1;
        (0u64..)
            .zip(self.0.compute(input))
            .map(|(i, v)| (!v ^ i.wrapping_mul(0x9e37_79b9)) & mask)
            .collect()
    }

    fn latency(&self) -> u64 {
        self.0.latency()
    }

    fn initiation_interval(&self) -> u64 {
        self.0.initiation_interval()
    }

    fn resources(&self) -> Resources {
        self.0.resources()
    }
}

/// The SoC hosting `app`, tile for tile as its configuration builds it,
/// with every accelerator wrapped in [`Scrambled`] when `scramble`.
fn build(app: &CaseApp, models: &TrainedModels, scramble: bool, engine: SocEngine) -> Soc {
    let cfg = app.soc_id().config();
    let flow = Esp4mlFlow::new();
    let mut b = SocBuilder::new(cfg.cols, cfg.rows)
        .clock_mhz(cfg.clock_mhz)
        .engine(engine);
    for tile in &cfg.tiles {
        let coord = Coord::new(tile.x, tile.y);
        let kernel: Box<dyn AcceleratorKernel> = match &tile.kind {
            TileSpecKind::Processor => {
                b = b.processor(coord);
                continue;
            }
            TileSpecKind::Memory => {
                b = b.memory(coord);
                continue;
            }
            TileSpecKind::Auxiliary => {
                b = b.auxiliary(coord);
                continue;
            }
            TileSpecKind::NightVision { name } => Box::new(flow.vision_accelerator(name)),
            TileSpecKind::MlModel { name, model, reuse } => {
                let network = match model {
                    MlModelRef::Denoiser => models.denoiser(),
                    _ => models.classifier(),
                };
                let nn = flow.compile_ml(network, name, reuse).expect("compiles");
                match model {
                    MlModelRef::ClassifierLayer { layer } => {
                        Box::new(NnKernel::new(nn.split_layers()[*layer].renamed(name)))
                    }
                    _ => Box::new(NnKernel::new(nn)),
                }
            }
        };
        let kernel = if scramble {
            Box::new(Scrambled(kernel))
        } else {
            kernel
        };
        b = b.accelerator(coord, kernel);
    }
    b.build().expect("valid floorplan")
}

/// Everything about a run that timing decides.
#[derive(Debug, PartialEq)]
struct Timing {
    metrics: RunMetrics,
    stats: SocStats,
    accels: Vec<(String, AccelStats)>,
    noc: NocStats,
    engine: EngineCounters,
}

/// Runs `p` on a SoC from [`build`] and returns its timing and the
/// values of every output frame.
fn run(
    p: &GridPoint,
    models: &TrainedModels,
    scramble: bool,
    engine: SocEngine,
) -> (Timing, Vec<Vec<u64>>) {
    let soc = build(&p.app, models, scramble, engine);
    let mut rt = EspRuntime::new(soc).expect("runtime boots");
    let dataflow = p.app.dataflow();
    let buf = rt.prepare(&dataflow, FRAMES).expect("buffers fit");
    let mut gen = SvhnGenerator::new(1);
    for f in 0..FRAMES {
        let (image, _) = p.app.input_frame(&mut gen);
        rt.write_frame(&buf, f, &encode_image(&image))
            .expect("write");
    }
    let metrics = rt
        .run(&RunSpec::new(&dataflow).mode(p.mode), &buf)
        .expect("run succeeds");
    let outputs = (0..FRAMES)
        .map(|f| rt.read_frame(&buf, f).expect("read back"))
        .collect();
    let soc = rt.soc();
    let accels = soc
        .accel_coords()
        .into_iter()
        .map(|c| {
            let tile = soc.accel(c).expect("accelerator tile");
            (tile.kernel_name().to_string(), *tile.stats())
        })
        .collect();
    let timing = Timing {
        metrics,
        stats: soc.stats(),
        accels,
        noc: soc.noc_stats().clone(),
        engine: soc.engine_counters(),
    };
    (timing, outputs)
}

/// Base, pipe and p2p of one Night-Vision configuration (SoC-1) and of
/// the split classifier (SoC-2).
fn points() -> Vec<GridPoint> {
    Fig7::grid()
        .into_iter()
        .filter(|p| match p.app {
            CaseApp::NightVisionClassifier { nv, cl } => (nv, cl) == (4, 1),
            CaseApp::DenoiserClassifier => false,
            CaseApp::MultiTileClassifier => true,
        })
        .collect()
}

#[test]
fn scrambled_output_values_move_no_cycle_flit_or_dram_word() {
    let models = TrainedModels::untrained();
    let points = points();
    assert_eq!(points.len(), 6);
    for p in &points {
        let label = p.label();
        for engine in [SocEngine::Naive, SocEngine::EventDriven] {
            let (plain, plain_out) = run(p, &models, false, engine);
            let (scrambled, scrambled_out) = run(p, &models, true, engine);
            assert_ne!(
                scrambled_out, plain_out,
                "{label}: the scramble reached DRAM"
            );
            assert_eq!(scrambled, plain, "{label} {engine:?}: timing read data");
        }
    }
}

/// The hand-built SoC is the one the experiments run: same timing on
/// other input frames (timing reads no data either way).
#[test]
fn hand_built_socs_time_like_the_experiments() {
    let models = TrainedModels::untrained();
    for p in &points() {
        let (plain, _) = run(p, &models, false, SocEngine::EventDriven);
        let run =
            AppRun::execute(&p.app, &models, FRAMES, p.mode, RunOptions::default()).expect("runs");
        assert_eq!(plain.metrics, run.metrics, "{}", p.label());
    }
}
