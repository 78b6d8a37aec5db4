//! Criterion bench for the Figure 2 ρ computations (E3).
//!
//! The ρ formulas are closed-form, so this bench mainly guards against regressions in
//! the evaluation cost of the full Figure 2 grid and provides a stable target for the
//! `figure2` binary's data generation.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ips_lsh::rho::{
    figure2_series, rho_data_dependent, rho_l2_alsh, rho_mh_alsh, rho_simple_alsh, L2AlshParams,
};

fn bench_single_formulas(c: &mut Criterion) {
    let mut group = c.benchmark_group("rho_formulas");
    group.bench_function("data_dependent", |b| {
        b.iter(|| rho_data_dependent(black_box(0.5), black_box(0.7), black_box(1.0)).unwrap())
    });
    group.bench_function("simple_alsh", |b| {
        b.iter(|| rho_simple_alsh(black_box(0.5), black_box(0.7), black_box(1.0)).unwrap())
    });
    group.bench_function("mh_alsh", |b| {
        b.iter(|| rho_mh_alsh(black_box(0.5), black_box(0.7)).unwrap())
    });
    group.bench_function("l2_alsh", |b| {
        b.iter(|| rho_l2_alsh(black_box(0.5), black_box(0.7), L2AlshParams::default()).unwrap())
    });
    group.finish();
}

fn bench_figure2_grid(c: &mut Criterion) {
    let s_grid: Vec<f64> = (1..=99).map(|i| i as f64 / 100.0).collect();
    c.bench_function("figure2_full_grid", |b| {
        b.iter(|| {
            for &ap in &[0.5, 0.7, 0.83, 0.9] {
                black_box(figure2_series(ap, &s_grid).unwrap());
            }
        })
    });
}

criterion_group!(benches, bench_single_formulas, bench_figure2_grid);
criterion_main!(benches);
