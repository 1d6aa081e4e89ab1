//! The ESP4ML design flow: model → accelerator → SoC (Fig. 3).

use esp4ml_hls::{FpgaDevice, PowerEstimate, PowerModel};
use esp4ml_hls4ml::{
    AcceleratorDescriptor, CompileError, CompiledNn, Hls4mlCompiler, Hls4mlConfig,
};
use esp4ml_nn::Sequential;
use esp4ml_soc::Soc;
use esp4ml_vision::NightVisionKernel;

/// The front door of the ESP4ML flow.
///
/// `Esp4mlFlow` packages the two accelerator design paths of the paper's
/// Fig. 3 — the HLS4ML path for ML kernels (left) and the SystemC/Stratus
/// path for generic kernels (right) — plus the reporting glue (power,
/// utilization) used by the evaluation.
#[derive(Debug, Clone)]
pub struct Esp4mlFlow {
    /// Target FPGA device for utilization reporting.
    pub device: FpgaDevice,
    /// Power model (the Vivado power-report analog).
    pub power: PowerModel,
}

impl Esp4mlFlow {
    /// A flow targeting the paper's Ultrascale+ class device.
    pub fn new() -> Self {
        Esp4mlFlow {
            device: FpgaDevice::xcvu9p(),
            power: PowerModel::default(),
        }
    }

    /// The ML path: compiles a trained model into an accelerator network
    /// with per-layer reuse factors. [`esp4ml_soc::NnKernel::new`] readies
    /// it for an ESP tile; [`CompiledNn::split_layers`] splits it across
    /// tiles.
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`] from the HLS4ML stage.
    pub fn compile_ml(
        &self,
        model: &Sequential,
        name: &str,
        per_layer_reuse: &[u64],
    ) -> Result<CompiledNn, CompileError> {
        Hls4mlCompiler::compile(model, &self.hls4ml_config(name, per_layer_reuse))
    }

    /// The HLS4ML configuration of an accelerator named `name` with one
    /// reuse factor per dense layer; an empty list means a reuse factor
    /// of 64 on every layer.
    pub fn hls4ml_config(&self, name: &str, per_layer_reuse: &[u64]) -> Hls4mlConfig {
        let global = per_layer_reuse.iter().copied().max().unwrap_or(64);
        Hls4mlConfig {
            per_layer_reuse: (!per_layer_reuse.is_empty()).then(|| per_layer_reuse.to_vec()),
            ..Hls4mlConfig::with_reuse(global).named(name)
        }
    }

    /// The generic-kernel path: the Night-Vision accelerator designed in
    /// SystemC and synthesized with Stratus HLS.
    pub fn vision_accelerator(&self, name: &str) -> NightVisionKernel {
        NightVisionKernel::new(name)
    }

    /// The integration descriptor (`acc.xml` analog) for a compiled
    /// network.
    pub fn descriptor(&self, nn: &CompiledNn) -> AcceleratorDescriptor {
        AcceleratorDescriptor::for_nn(nn)
    }

    /// Vivado-style dynamic power estimate for a built SoC.
    pub fn estimate_power(&self, soc: &Soc) -> PowerEstimate {
        self.power
            .estimate(soc.resources(), soc.clock_hz() / 1.0e6, 1.0)
    }

    /// Utilization of a built SoC against the flow's target device, as
    /// percentages (the Table I resource rows).
    pub fn utilization(&self, soc: &Soc) -> esp4ml_hls::Utilization {
        soc.resources().utilization(&self.device)
    }
}

impl Default for Esp4mlFlow {
    fn default() -> Self {
        Esp4mlFlow::new()
    }
}

/// Automatic reuse-factor selection (the `hls4ml tuning` arrow of Fig. 3).
impl Esp4mlFlow {
    /// Chooses per-layer reuse factors so every dense layer meets the
    /// initiation-interval target `target_ii` (cycles/inference): each
    /// layer gets the *largest* reuse factor (fewest multipliers) that
    /// still reaches the target, clamped to its multiplication count.
    ///
    /// # Panics
    ///
    /// Panics if `target_ii` is zero.
    pub fn tune_reuse(&self, model: &Sequential, target_ii: u64) -> Vec<u64> {
        assert!(target_ii > 0, "target II must be positive");
        model
            .dense_layers()
            .iter()
            .map(|l| {
                let ops = (l.n_in() * l.n_out()) as u64;
                target_ii.min(ops).max(1)
            })
            .collect()
    }

    /// Compiles a model with reuse factors tuned for a frames-per-second
    /// target at the flow's SoC clock: the full `hls4ml tuning` loop.
    ///
    /// The cycle budget per frame is `clock / target_fps`, split evenly
    /// across the dense layers (the wrapper runs them as a dataflow chain,
    /// so one frame costs roughly the *sum* of layer IIs).
    ///
    /// # Errors
    ///
    /// Propagates compilation failures.
    ///
    /// # Panics
    ///
    /// Panics if `target_fps` or `clock_hz` is not positive.
    pub fn compile_ml_for_fps(
        &self,
        model: &Sequential,
        name: &str,
        target_fps: f64,
        clock_hz: f64,
    ) -> Result<CompiledNn, CompileError> {
        assert!(
            target_fps > 0.0 && clock_hz > 0.0,
            "targets must be positive"
        );
        let budget = (clock_hz / target_fps) as u64;
        let layers = model.dense_layers().len().max(1) as u64;
        let per_layer = (budget / layers).max(1);
        let reuse = self.tune_reuse(model, per_layer);
        self.compile_ml(model, name, &reuse)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp4ml_nn::{Activation, LayerSpec};
    use esp4ml_soc::{AcceleratorKernel, NnKernel};

    fn tiny_model() -> Sequential {
        let mut m = Sequential::with_seed(16, 4);
        m.push(LayerSpec::dense(8, Activation::Relu));
        m.push(LayerSpec::dense(4, Activation::Softmax));
        m
    }

    #[test]
    fn ml_path_produces_kernel() {
        let flow = Esp4mlFlow::new();
        let k = NnKernel::new(flow.compile_ml(&tiny_model(), "clf", &[16, 8]).unwrap());
        assert_eq!(k.name(), "clf");
        assert_eq!(k.input_values(), 16);
        assert_eq!(k.output_values(), 4);
    }

    #[test]
    fn split_path_matches_monolithic() {
        let flow = Esp4mlFlow::new();
        let nn = flow.compile_ml(&tiny_model(), "clf", &[16, 8]).unwrap();
        let parts = nn.split_layers();
        assert_eq!(parts.len(), 2);
        let x = vec![0.25f32; 16];
        let whole = nn.infer(&x);
        let mut staged = x;
        for p in &parts {
            staged = p.infer(&staged);
        }
        assert_eq!(whole, staged);
    }

    #[test]
    fn vision_path_produces_kernel() {
        let flow = Esp4mlFlow::new();
        let k = flow.vision_accelerator("nv");
        assert_eq!(k.input_values(), 1024);
    }

    #[test]
    fn descriptor_has_p2p_register() {
        let flow = Esp4mlFlow::new();
        let nn = flow.compile_ml(&tiny_model(), "clf", &[16, 8]).unwrap();
        let d = flow.descriptor(&nn);
        assert!(d.registers.iter().any(|r| r.name == "P2P_REG"));
    }
}

#[cfg(test)]
mod tuning_tests {
    use super::*;
    use esp4ml_nn::Sequential;

    #[test]
    fn tuned_layers_meet_the_ii_target() {
        let flow = Esp4mlFlow::new();
        let model = Sequential::svhn_classifier();
        let reuse = flow.tune_reuse(&model, 2048);
        let nn = flow.compile_ml(&model, "t", &reuse).expect("compiles");
        assert!(nn.initiation_interval() <= 2048);
        // Small layers are fully folded (reuse = ops), not over-parallel.
        assert_eq!(*reuse.last().expect("layers"), 320); // 32x10 layer
    }

    #[test]
    fn fps_tuning_brackets_the_target() {
        let flow = Esp4mlFlow::new();
        let model = Sequential::svhn_classifier();
        let clock = 78.0e6;
        for fps in [5_000.0f64, 20_000.0, 60_000.0] {
            let nn = flow
                .compile_ml_for_fps(&model, "t", fps, clock)
                .expect("compiles");
            let achieved = clock / nn.latency() as f64;
            assert!(
                achieved >= fps * 0.8,
                "target {fps} f/s, achieved {achieved:.0} (latency {})",
                nn.latency()
            );
        }
    }

    #[test]
    fn faster_targets_cost_more_dsps() {
        let flow = Esp4mlFlow::new();
        let model = Sequential::svhn_classifier();
        let slow = flow
            .compile_ml_for_fps(&model, "s", 2_000.0, 78.0e6)
            .expect("compiles");
        let fast = flow
            .compile_ml_for_fps(&model, "f", 50_000.0, 78.0e6)
            .expect("compiles");
        assert!(fast.resources().dsps > slow.resources().dsps);
    }
}
