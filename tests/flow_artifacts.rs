//! Integration tests of the design-flow artifacts: model files, compiler
//! outputs, descriptors, utilization and power reports.

use esp4ml::apps::{SocId, TrainedModels, CLASSIFIER_REUSE};
use esp4ml::flow::Esp4mlFlow;
use esp4ml::hls4ml::{Hls4mlCompiler, Hls4mlConfig};
use esp4ml::nn::{Activation, LayerSpec, ModelFile, Sequential};

#[test]
fn file_based_flow_matches_in_memory_flow() {
    let mut model = Sequential::with_seed(32, 5);
    model.push(LayerSpec::dense(16, Activation::Relu));
    model.push(LayerSpec::Dropout { rate: 0.2 });
    model.push(LayerSpec::dense(10, Activation::Softmax));

    let dir = std::env::temp_dir().join("esp4ml_flow_artifacts");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let topo = dir.join("m.json");
    let weights = dir.join("m.espw");
    ModelFile::save(&model, &topo, &weights).expect("save");

    let cfg = Hls4mlConfig::with_reuse(32).named("m");
    let from_files = Hls4mlCompiler::compile_files(&topo, &weights, &cfg).expect("files");
    let in_memory = Hls4mlCompiler::compile(&model, &cfg).expect("memory");
    let x = vec![0.3f32; 32];
    assert_eq!(from_files.infer(&x), in_memory.infer(&x));
    assert_eq!(from_files.estimate(), in_memory.estimate());
}

#[test]
fn descriptors_for_every_soc1_accelerator() {
    let models = TrainedModels::untrained();
    let flow = Esp4mlFlow::new();
    let nn = flow
        .compile_ml(models.classifier(), "cl", &CLASSIFIER_REUSE)
        .expect("compile");
    let desc = flow.descriptor(&nn);
    assert_eq!(desc.input_words, 1024);
    assert_eq!(desc.output_words, 10);
    let xml = desc.to_xml();
    assert!(xml.contains("LOCATION_REG"));
    assert!(xml.contains("P2P_REG"));
}

#[test]
fn soc_reports_fit_the_target_device() {
    let models = TrainedModels::untrained();
    let flow = Esp4mlFlow::new();
    let soc1 = SocId::Soc1.config().build(&models).expect("soc1");
    let soc2 = SocId::Soc2.config().build(&models).expect("soc2");
    // Both SoCs must fit the paper's Ultrascale+ class device.
    assert!(soc1.resources().fits(&flow.device), "SoC-1 does not fit");
    assert!(soc2.resources().fits(&flow.device), "SoC-2 does not fit");
    // SoC-1 is the bigger design on every axis the paper reports.
    let u1 = flow.utilization(&soc1);
    let u2 = flow.utilization(&soc2);
    assert!(u1.lut_pct > u2.lut_pct);
    assert!(u1.bram_pct > u2.bram_pct);
    // Power ordering matches Table I (1.70 W vs 0.98 W).
    let p1 = flow.estimate_power(&soc1).total_watts();
    let p2 = flow.estimate_power(&soc2).total_watts();
    assert!(p1 > p2);
    assert!(p1 > 1.0 && p1 < 2.5, "SoC-1 power {p1:.2} W");
    assert!(p2 > 0.5 && p2 < 1.5, "SoC-2 power {p2:.2} W");
}

#[test]
fn utilization_tracks_paper_bands() {
    // Table I reproduction bands (generous: the resource model is
    // analytic): SoC-1 LUTs ~48%, SoC-2 ~19%.
    let models = TrainedModels::untrained();
    let flow = Esp4mlFlow::new();
    let u1 = flow.utilization(&SocId::Soc1.config().build(&models).expect("soc1"));
    let u2 = flow.utilization(&SocId::Soc2.config().build(&models).expect("soc2"));
    assert!(
        (40.0..=56.0).contains(&u1.lut_pct),
        "SoC-1 LUT {:.0}%",
        u1.lut_pct
    );
    assert!(
        (15.0..=27.0).contains(&u2.lut_pct),
        "SoC-2 LUT {:.0}%",
        u2.lut_pct
    );
    assert!(
        (45.0..=65.0).contains(&u1.bram_pct),
        "SoC-1 BRAM {:.0}%",
        u1.bram_pct
    );
}

#[test]
fn reuse_factor_trades_throughput_for_area() {
    // The central HLS4ML knob, end to end through the flow.
    let models = TrainedModels::untrained();
    let flow = Esp4mlFlow::new();
    let fast = flow
        .compile_ml(models.classifier(), "f", &[256, 128, 64, 32, 16])
        .expect("fast");
    let slow = flow
        .compile_ml(models.classifier(), "s", &[4096, 2048, 1024, 512, 64])
        .expect("slow");
    assert!(fast.latency() < slow.latency());
    assert!(fast.resources().dsps > slow.resources().dsps);
    // Identical function regardless of the schedule.
    let x = vec![0.2f32; 1024];
    assert_eq!(fast.infer(&x), slow.infer(&x));
}
