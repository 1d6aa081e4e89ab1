//! SoC generation from a configuration file — the command-line analog of
//! the ESP graphical configuration interface.
//!
//! ```text
//! # print the canonical SoC-1 configuration
//! cargo run --release -p esp4ml-bench --bin socgen -- --emit-soc1
//!
//! # build an SoC from a configuration and report floorplan/utilization
//! cargo run --release -p esp4ml-bench --bin socgen -- path/to/soc.json
//! ```

use esp4ml::apps::TrainedModels;
use esp4ml::flow::Esp4mlFlow;
use esp4ml::noc::Coord;
use esp4ml::soc::TileKind;
use esp4ml::soc_config::SocConfigFile;

const USAGE: &str = "usage: socgen <config.json> | socgen --emit-soc1";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    if args.iter().any(|a| a == "--emit-soc1") {
        println!("{}", SocConfigFile::soc1().to_json());
        return;
    }
    let Some(path) = args.first() else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let json = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let config = match SocConfigFile::from_json(&json) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("invalid configuration: {e}");
            std::process::exit(1);
        }
    };
    let models = TrainedModels::untrained();
    let soc = match config.build(&models) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("build failed: {e}");
            std::process::exit(1);
        }
    };

    println!(
        "design '{}': {}x{} mesh @ {} MHz",
        config.name, config.cols, config.rows, config.clock_mhz
    );
    println!("\nfloorplan:");
    for y in 0..config.rows as u8 {
        let mut row = String::new();
        for x in 0..config.cols as u8 {
            let cell = match soc.tile_kind(Coord::new(x, y)) {
                TileKind::Processor => "CPU ",
                TileKind::Memory => "MEM ",
                TileKind::Auxiliary => "AUX ",
                TileKind::Accelerator => "ACC ",
                TileKind::Empty => " .  ",
            };
            row.push_str(&format!("[{cell}] "));
        }
        println!("  {row}");
    }
    println!("\naccelerators:");
    for coord in soc.accel_coords() {
        let tile = soc.accel(coord).expect("accelerator");
        println!(
            "  {:<12} at {}  ({} values in / {} out, {})",
            tile.kernel_name(),
            coord,
            tile.kernel().input_values(),
            tile.kernel().output_values(),
            tile.kernel().resources(),
        );
    }
    let flow = Esp4mlFlow::new();
    let util = flow.utilization(&soc);
    let power = flow.estimate_power(&soc);
    println!("\ntarget device: {}", flow.device.name);
    println!("utilization:   {util}");
    println!("dynamic power: {:.2} W", power.total_watts());
    println!(
        "fits device:   {}",
        if soc.resources().fits(&flow.device) {
            "yes"
        } else {
            "NO"
        }
    );
}
