//! Criterion bench for the Fig. 8 measurement path: DRAM-access counting
//! with and without p2p on the Denoiser + Classifier application.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use esp4ml::apps::{CaseApp, TrainedModels};
use esp4ml::experiments::{AppRun, RunOptions};
use esp4ml_runtime::ExecMode;

fn bench_fig8(c: &mut Criterion) {
    let models = TrainedModels::untrained();
    let app = CaseApp::DenoiserClassifier;
    let mut group = c.benchmark_group("fig8_dram");
    group.sample_size(10);
    for (label, mode) in [("no-p2p", ExecMode::Pipe), ("p2p", ExecMode::P2p)] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &mode, |b, &mode| {
            b.iter(|| {
                let run = AppRun::execute(&app, &models, 4, mode, RunOptions::default())
                    .expect("run succeeds");
                run.metrics.dram_accesses
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig8);
criterion_main!(benches);
