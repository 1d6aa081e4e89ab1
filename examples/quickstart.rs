//! Quickstart: build a small ESP SoC, run one accelerator over DMA, then
//! chain two accelerators with the ESP4ML p2p service and compare DRAM
//! traffic.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use esp4ml::noc::Coord;
use esp4ml::runtime::{Dataflow, EspRuntime, ExecMode, RunSpec};
use esp4ml::soc::{ScaleKernel, SocBuilder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Floorplan: a 3x2 mesh with one Ariane-style processor tile, one
    //    memory tile and two accelerator tiles (the `.esp_config` step).
    let soc = SocBuilder::new(3, 2)
        .processor(Coord::new(0, 0))
        .memory(Coord::new(1, 0))
        .accelerator(
            Coord::new(0, 1),
            Box::new(ScaleKernel::new("double", 64, 2)),
        )
        .accelerator(
            Coord::new(1, 1),
            Box::new(ScaleKernel::new("triple", 64, 3)),
        )
        .build()?;
    println!("SoC built: {} accelerators, clocked at {} MHz", 2, 78);

    // 2. List the accelerators, then boot the runtime, which maps device
    //    names to NoC coordinates on the SoC itself (`Soc::accel_by_name`).
    for coord in soc.accel_coords() {
        let kernel = soc.accel(coord)?.kernel();
        println!(
            "probed device '{}' at tile {} ({} values in / {} out)",
            kernel.name(),
            coord,
            kernel.input_values(),
            kernel.output_values()
        );
    }
    let mut rt = EspRuntime::new(soc)?;

    // 3. Describe the application as a dataflow of device names — the
    //    program never sees the floorplan.
    let dataflow = Dataflow::linear(&[&["double"], &["triple"]]);
    let frames = 16;
    let buf = rt.prepare(&dataflow, frames)?;
    for f in 0..frames {
        let values: Vec<u64> = (0..64).map(|i| i + f).collect();
        rt.write_frame(&buf, f, &values)?;
    }

    // 4. Run the same pipeline through memory and with p2p communication.
    let pipe = rt.run(&RunSpec::new(&dataflow).mode(ExecMode::Pipe), &buf)?;
    let p2p = rt.run(&RunSpec::new(&dataflow).mode(ExecMode::P2p), &buf)?;

    let out = rt.read_frame(&buf, 0)?;
    assert_eq!(out[1], 6, "0th frame, value 1: 1 * 2 * 3");
    println!("\nframe 0 output (first 8 values): {:?}", &out[..8]);
    println!(
        "pipe: {:>7.0} frames/s, {:>6} DRAM word accesses",
        pipe.frames_per_second(),
        pipe.dram_accesses
    );
    println!(
        "p2p : {:>7.0} frames/s, {:>6} DRAM word accesses ({:.1}x fewer)",
        p2p.frames_per_second(),
        p2p.dram_accesses,
        pipe.dram_accesses as f64 / p2p.dram_accesses as f64
    );
    rt.esp_cleanup();
    Ok(())
}
