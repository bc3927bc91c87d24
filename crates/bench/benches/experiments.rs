//! One Criterion benchmark per paper artifact: Figure 4, Figure 5,
//! Figure 6 and Table I, each at a reduced (smoke) scale so the bench
//! suite finishes in minutes. The printable full-scale tables come from
//! `cr-spectre campaign --artifact fig4|fig5|fig6|table1`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cr_spectre_core::campaign::{fig4, fig5, fig6, table1, CampaignConfig};

fn smoke() -> CampaignConfig {
    CampaignConfig { samples_per_class: 100, attempts: 2, ..CampaignConfig::default() }
}

fn bench_fig4(c: &mut Criterion) {
    let mut group = c.benchmark_group("experiments");
    group.sample_size(10);
    group.bench_function("fig4_feature_sizes", |b| {
        let cfg = smoke();
        b.iter(|| black_box(fig4(&cfg)))
    });
    group.finish();
}

fn bench_fig5(c: &mut Criterion) {
    let mut group = c.benchmark_group("experiments");
    group.sample_size(10);
    group.bench_function("fig5_offline_hid", |b| {
        let cfg = smoke();
        b.iter(|| black_box(fig5(&cfg)))
    });
    group.finish();
}

fn bench_fig6(c: &mut Criterion) {
    let mut group = c.benchmark_group("experiments");
    group.sample_size(10);
    group.bench_function("fig6_online_hid", |b| {
        let cfg = smoke();
        b.iter(|| black_box(fig6(&cfg)))
    });
    group.finish();
}

fn bench_table1(c: &mut Criterion) {
    let mut group = c.benchmark_group("experiments");
    group.sample_size(10);
    group.bench_function("table1_ipc_overhead", |b| {
        let cfg = smoke();
        b.iter(|| black_box(table1(&cfg, 1)))
    });
    group.finish();
}

/// The headline of the parallel campaign engine: the same `fig5` smoke
/// run at 1 worker vs as many as the host offers (at least 4, so the
/// scaling path is exercised even on small machines). Results are
/// bit-identical at both settings — the engine's determinism contract —
/// so the ratio of the two means is pure wall-clock speedup.
fn bench_fig5_thread_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5_thread_scaling");
    group.sample_size(10);
    let parallel = cr_spectre_core::parallel::default_threads().max(4);
    for threads in [1, parallel] {
        group.bench_function(&format!("threads_{threads}"), |b| {
            let cfg = CampaignConfig { threads, ..smoke() };
            b.iter(|| black_box(fig5(&cfg)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_fig4,
    bench_fig5,
    bench_fig5_thread_scaling,
    bench_fig6,
    bench_table1
);
criterion_main!(benches);
