//! The multi-tile (partitioned) classifier: the paper's SoC-2, where the
//! five layers of the MLP run on five accelerator tiles chained by p2p
//! communication, plus a comparison against the single-tile version.
//!
//! ```text
//! cargo run --release --example multi_tile
//! ```

use esp4ml::apps::{TrainedModels, CLASSIFIER_REUSE, MULTI_TILE_REUSE};
use esp4ml::experiments::{AppRun, RunOptions};
use esp4ml::flow::Esp4mlFlow;
use esp4ml::runtime::{ExecMode, RunSpec};
use esp4ml::CaseApp;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let models = TrainedModels::untrained();
    let flow = Esp4mlFlow::new();

    // Show the layer partitioning the paper distributes over five tiles.
    let whole = flow.compile_ml(models.classifier(), "cls", &MULTI_TILE_REUSE)?;
    println!("partitioning the 1024x256x128x64x32x10 classifier:");
    for (i, (part, est)) in whole
        .split_layers()
        .iter()
        .zip(whole.layer_estimates())
        .enumerate()
    {
        println!(
            "  tile {i}: {:>4} -> {:>4} values | II {:>5} cycles | {}",
            part.input_dim(),
            part.output_dim(),
            est.initiation_interval,
            est.resources
        );
    }
    let single = flow.compile_ml(models.classifier(), "cls1", &CLASSIFIER_REUSE)?;
    println!(
        "\nmonolithic accelerator for comparison: latency {} cycles, {}",
        single.latency(),
        single.resources()
    );

    // Functional equivalence: the split pipeline computes the same logits.
    let x = vec![0.4f32; 1024];
    let direct = whole.infer(&x);
    let mut staged = x;
    for part in whole.split_layers() {
        staged = part.infer(&staged);
    }
    assert_eq!(direct, staged);
    println!("split pipeline verified equivalent to the monolithic network");

    // Run SoC-2 in the three modes.
    println!("\nSoC-2 execution (32 frames):");
    for mode in ExecMode::ALL {
        let run = AppRun::execute(
            &CaseApp::MultiTileClassifier,
            &models,
            32,
            mode,
            RunOptions::default(),
        )?;
        println!(
            "  {:>4}: {:>7.0} frames/s  {:>8.0} frames/J  {:>6} DRAM accesses",
            mode.label(),
            run.metrics.frames_per_second(),
            run.frames_per_joule(),
            run.metrics.dram_accesses,
        );
    }
    println!(
        "\nshape to observe (paper Fig. 7/8, right cluster): the p2p pipeline\n\
         keeps every intermediate activation on-chip — DRAM sees only the input\n\
         images and the 10-logit outputs."
    );

    // NoC congestion heatmap of one p2p run (forwarded flits per router).
    let soc = CaseApp::MultiTileClassifier.build_soc(&models)?;
    let mut rt = esp4ml::runtime::EspRuntime::new(soc)?;
    let df = CaseApp::MultiTileClassifier.dataflow();
    let buf = rt.prepare(&df, 8)?;
    for f in 0..8 {
        rt.write_frame(&buf, f, &vec![512; 1024])?;
    }
    rt.run(&RunSpec::new(&df).mode(ExecMode::P2p), &buf)?;
    println!();
    print!("{}", rt.soc().noc_heatmap().render_ascii());
    Ok(())
}
