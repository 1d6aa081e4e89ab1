//! Criterion bench for the Table I measurement path: the p2p execution of
//! each best-case application configuration.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use esp4ml::apps::TrainedModels;
use esp4ml::experiments::{AppRun, RunOptions, Table1};
use esp4ml_runtime::ExecMode;

fn bench_table1(c: &mut Criterion) {
    let models = TrainedModels::untrained();
    let mut group = c.benchmark_group("table1");
    group.sample_size(10);
    for app in Table1::best_configs() {
        group.bench_with_input(BenchmarkId::from_parameter(app.label()), &app, |b, app| {
            b.iter(|| {
                AppRun::execute(app, &models, 4, ExecMode::P2p, RunOptions::default())
                    .expect("run succeeds")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_table1);
criterion_main!(benches);
