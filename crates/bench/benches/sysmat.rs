//! System-matrix benchmarks: the one build path at test scale, on one
//! and two worker threads, and the forward projection of a dense FBP
//! start at test and harness scale.
//!
//! The build writes each voxel range's columns in place in the final
//! arrays, evaluating a fixed number of candidate channels per (voxel,
//! view) in straight-line passes and finding each run from a bitmask;
//! the gaps between ranges close in range order. The forward projection
//! adds a fixed window of candidate-count products per (voxel, view),
//! masking the lanes past the run to `+0.0`.

use criterion::{criterion_group, criterion_main, Criterion};
use ct_core::fbp;
use ct_core::geometry::Geometry;
use ct_core::phantom::Phantom;
use ct_core::project::{scan, NoiseModel};
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

fn bench_forward(c: &mut Criterion) {
    let mut group = c.benchmark_group("sysmat_forward");
    group.sample_size(10);
    for (name, g) in [("test", Geometry::test_scale()), ("harness", Geometry::harness_scale())] {
        // Every voxel of an FBP start is nonzero, so none is skipped.
        let a = SystemMatrix::compute(&g);
        let truth = Phantom::baggage(0).render(g.grid, 2);
        let s = scan(&a, &truth, Some(NoiseModel::default_dose()), 42);
        let x0 = fbp::reconstruct(&g, &s.y);
        group.bench_function(&format!("forward_fbp_start_{name}_scale"), |b| {
            b.iter(|| black_box(a.forward(black_box(&x0))))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sysmat_build, bench_forward);
criterion_main!(benches);
