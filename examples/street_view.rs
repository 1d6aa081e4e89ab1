//! The paper's flagship application: Night-Vision preprocessing feeding
//! the digit classifier on SoC-1, executed in all three modes (serial,
//! pipelined, p2p pipeline), on darkened street-view-like images.
//!
//! ```text
//! cargo run --release --example street_view
//! ```

use esp4ml::apps::{CaseApp, TrainedModels};
use esp4ml::experiments::{AppRun, RunOptions};
use esp4ml::runtime::{ExecMode, RunSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Architecture study: untrained weights keep this example fast; run
    // the `training` harness binary for the accuracy experiment.
    let models = TrainedModels::untrained();
    let frames = 32;

    println!("Night-Vision & Classifier on SoC-1 ({frames} darkened frames)\n");
    for app in [
        CaseApp::NightVisionClassifier { nv: 1, cl: 1 },
        CaseApp::NightVisionClassifier { nv: 4, cl: 1 },
        CaseApp::NightVisionClassifier { nv: 4, cl: 4 },
    ] {
        println!("configuration {}:", app.label());
        for mode in ExecMode::ALL {
            let run = AppRun::execute(&app, &models, frames, mode, RunOptions::default())?;
            println!(
                "  {:>4}: {:>7.0} frames/s  {:>8.0} frames/J  {:>6} DRAM accesses",
                mode.label(),
                run.metrics.frames_per_second(),
                run.frames_per_joule(),
                run.metrics.dram_accesses,
            );
        }
    }
    println!(
        "\nshape to observe (paper Fig. 7, left cluster): pipe ≫ base once 4 NV\n\
         instances feed the pipeline; p2p matches pipe throughput while cutting\n\
         DRAM accesses ~3x (the energy story of Fig. 8)."
    );

    // Per-device hardware counters (the ESP monitors view) for one run.
    use esp4ml::runtime::EspRuntime;
    let app = CaseApp::NightVisionClassifier { nv: 4, cl: 4 };
    println!("\nper-device monitors for one {} p2p run:", app.label());
    let soc = app.build_soc(&models)?;
    let mut rt = EspRuntime::new(soc)?;
    let df = app.dataflow();
    let buf = rt.prepare(&df, frames)?;
    let mut gen = esp4ml::vision::SvhnGenerator::new(42);
    for f in 0..frames {
        let (img, _) = app.input_frame(&mut gen);
        rt.write_frame(&buf, f, &esp4ml::apps::encode_image(&img))?;
    }
    rt.run(&RunSpec::new(&df).mode(ExecMode::P2p), &buf)?;
    println!(
        "  {:<6} {:>7} {:>9} {:>9} {:>9} {:>10} {:>10}",
        "device", "frames", "load cyc", "comp cyc", "store cyc", "dma words", "p2p words"
    );
    for dev in ["nv0", "nv1", "nv2", "nv3", "cl0", "cl1", "cl2", "cl3"] {
        let s = rt.device_stats(dev).expect("probed device");
        println!(
            "  {:<6} {:>7} {:>9} {:>9} {:>9} {:>10} {:>10}",
            dev,
            s.frames_done,
            s.load_cycles,
            s.compute_cycles,
            s.store_cycles,
            s.dma_words_loaded + s.dma_words_stored,
            s.p2p_words_sent,
        );
    }
    Ok(())
}
