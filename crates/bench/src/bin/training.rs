//! Reproduces the §VI model-quality results: the classifier's accuracy
//! (paper: 92 % on SVHN) and the denoiser's reconstruction error (paper:
//! 3.1 %), on the synthetic SVHN-like dataset, plus the accuracy retained
//! after HLS4ML 16-bit fixed-point quantization.
//!
//! ```text
//! cargo run --release -p esp4ml-bench --bin training -- --samples 4000 --epochs 15
//! ```

use esp4ml::apps::TrainedModels;
use esp4ml::apps::{CLASSIFIER_REUSE, DENOISER_REUSE};
use esp4ml::flow::Esp4mlFlow;
use esp4ml_bench::cli::{self, HarnessSpec, TRAINING_FLAGS};
use esp4ml_nn::Matrix;
use esp4ml_vision::SvhnGenerator;

fn main() {
    let spec = HarnessSpec::new(
        "training",
        "§VI model quality: classifier accuracy and denoiser error",
        TRAINING_FLAGS,
    );
    let args =
        cli::parse(&spec, std::env::args().skip(1)).unwrap_or_else(|e| cli::exit_on_error(e));
    eprintln!(
        "training models on {} synthetic samples for {} epochs...",
        args.samples, args.epochs
    );
    let models = TrainedModels::train(args.samples, args.epochs, 1);

    println!("MODEL QUALITY (synthetic SVHN-like dataset)");
    println!(
        "  classifier accuracy (float):     {:>6.1}%   (paper, real SVHN: 92%)",
        100.0 * models.classifier_accuracy.unwrap_or(0.0)
    );
    println!(
        "  denoiser reconstruction error:   {:>6.1}%   (paper, real SVHN: 3.1%)",
        100.0 * models.denoiser_error.unwrap_or(0.0)
    );

    // Quantization fidelity: agreement between the float classifier and
    // the HLS4ML 16-bit fixed-point accelerator.
    let flow = Esp4mlFlow::new();
    let nn = flow
        .compile_ml(models.classifier(), "clf", &CLASSIFIER_REUSE)
        .expect("classifier compiles");
    let _den = flow
        .compile_ml(models.denoiser(), "den", &DENOISER_REUSE)
        .expect("denoiser compiles");
    let mut gen = SvhnGenerator::new(999);
    let n = 250;
    let mut agree = 0;
    let mut correct_fixed = 0;
    for _ in 0..n {
        let s = gen.sample();
        let x = Matrix::from_vec(1, s.image.len(), s.image.clone());
        let float_pred = models.classifier().predict_classes(&x)[0];
        let fixed_pred = nn.classify(&s.image);
        if float_pred == fixed_pred {
            agree += 1;
        }
        if fixed_pred == s.label {
            correct_fixed += 1;
        }
    }
    println!(
        "  fixed-point vs float agreement:  {:>6.1}%   over {n} fresh samples",
        100.0 * agree as f64 / n as f64
    );
    println!(
        "  fixed-point accelerator accuracy:{:>6.1}%",
        100.0 * correct_fixed as f64 / n as f64
    );
}
