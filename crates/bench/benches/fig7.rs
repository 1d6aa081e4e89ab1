//! Criterion bench for the Fig. 7 measurement path: the three execution
//! modes (base, pipe, p2p) of the Night-Vision + Classifier application.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use esp4ml::apps::{CaseApp, TrainedModels};
use esp4ml::experiments::{AppRun, RunOptions};
use esp4ml_runtime::ExecMode;

fn bench_fig7_modes(c: &mut Criterion) {
    let models = TrainedModels::untrained();
    let app = CaseApp::NightVisionClassifier { nv: 2, cl: 2 };
    let mut group = c.benchmark_group("fig7_modes");
    group.sample_size(10);
    for mode in ExecMode::ALL {
        group.bench_with_input(
            BenchmarkId::from_parameter(mode.label()),
            &mode,
            |b, &mode| {
                b.iter(|| {
                    AppRun::execute(&app, &models, 4, mode, RunOptions::default())
                        .expect("run succeeds")
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_fig7_modes);
criterion_main!(benches);
