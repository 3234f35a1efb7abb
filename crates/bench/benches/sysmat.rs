//! System-matrix build benchmark: the one build path at test scale, on
//! one and two worker threads. Each voxel range writes its columns in
//! place in the final arrays, evaluating a fixed number of candidate
//! channels per (voxel, view) in straight-line passes and finding each
//! run from a bitmask; the gaps between ranges close in range order.

use criterion::{criterion_group, criterion_main, Criterion};
use ct_core::geometry::Geometry;
use ct_core::sysmat::SystemMatrix;
use std::hint::black_box;

fn bench_sysmat_build(c: &mut Criterion) {
    let g = Geometry::test_scale();
    let mut group = c.benchmark_group("sysmat_build");
    group.sample_size(10);
    for threads in [1usize, 2] {
        group.bench_function(&format!("compute_test_scale_threads{threads}"), |b| {
            b.iter(|| black_box(SystemMatrix::compute_parallel(&g, threads)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sysmat_build);
criterion_main!(benches);
