//! The application-level accuracy experiment: how much classification
//! accuracy the Night-Vision and Denoiser stages recover on dark/noisy
//! images, in float software and on the fixed-point SoC pipelines.
//!
//! ```text
//! cargo run --release -p esp4ml-bench --bin accuracy -- --samples 6000 --epochs 30 --frames 200
//! ```

use esp4ml::apps::TrainedModels;
use esp4ml::experiments::AccuracyReport;
use esp4ml_bench::cli::{self, HarnessSpec, TRAINING_FLAGS};

fn main() {
    let spec = HarnessSpec::new(
        "accuracy",
        "accuracy recovered by the vision pipelines on dark/noisy frames",
        TRAINING_FLAGS,
    );
    let args =
        cli::parse(&spec, std::env::args().skip(1)).unwrap_or_else(|e| cli::exit_on_error(e));
    eprintln!(
        "training models on {} synthetic samples for {} epochs...",
        args.samples, args.epochs
    );
    let models = TrainedModels::train(args.samples, args.epochs, 1);
    if let Some(acc) = models.classifier_accuracy {
        eprintln!("classifier test accuracy: {:.1}% (paper: 92%)", 100.0 * acc);
    }
    if let Some(err) = models.denoiser_error {
        eprintln!(
            "denoiser reconstruction error: {:.1}% (paper: 3.1%)",
            100.0 * err
        );
    }
    match AccuracyReport::generate(&models, args.frames) {
        Ok(report) => println!("{report}"),
        Err(e) => {
            eprintln!("accuracy experiment failed: {e}");
            std::process::exit(1);
        }
    }
}
