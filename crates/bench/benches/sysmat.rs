//! System-matrix build benchmark: the staged lane build, which gathers
//! each block's per-view channel offsets into flat arrays and evaluates
//! the branchless cumulative in one straight-line pass.

use criterion::{criterion_group, criterion_main, Criterion};
use ct_core::geometry::Geometry;
use ct_core::sysmat::SystemMatrix;
use std::hint::black_box;

fn bench_sysmat_build(c: &mut Criterion) {
    let g = Geometry::test_scale();
    let mut group = c.benchmark_group("sysmat_build");
    group.sample_size(10);
    group.bench_function("compute_test_scale", |b| b.iter(|| black_box(SystemMatrix::compute(&g))));
    group.finish();
}

criterion_group!(benches, bench_sysmat_build);
criterion_main!(benches);
