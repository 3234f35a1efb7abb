//! FBP benchmarks: ramp filter at test scale, back projection at test
//! and harness scale. The filter's mirrored-kernel sliding dot reduces
//! through the canonical 8-lane tree; the backprojector makes three
//! passes over an image row per view and adds each view's lerp into its
//! lane of a lane-major accumulator, reduced by the same tree.

use criterion::{criterion_group, criterion_main, Criterion};
use ct_core::fbp;
use ct_core::geometry::Geometry;
use ct_core::phantom::Phantom;
use ct_core::sinogram::Sinogram;
use ct_core::sysmat::SystemMatrix;
use std::hint::black_box;

/// A noiseless Shepp-Logan scan of `g`.
fn shepp_logan_scan(g: &Geometry) -> Sinogram {
    SystemMatrix::compute(g).forward(&Phantom::shepp_logan().render(g.grid, 2))
}

fn bench_fbp(c: &mut Criterion) {
    let g = Geometry::test_scale();
    let y = shepp_logan_scan(&g);
    let filtered = fbp::filter(&g, &y);
    let h = Geometry::harness_scale();
    let filtered_h = fbp::filter(&h, &shepp_logan_scan(&h));

    let mut group = c.benchmark_group("fbp");
    group.sample_size(10);
    group.bench_function("filter_test_scale", |b| b.iter(|| black_box(fbp::filter(&g, &y))));
    group.bench_function("backproject_test_scale", |b| {
        b.iter(|| black_box(fbp::backproject(&g, &filtered)))
    });
    group.bench_function("backproject_harness_scale", |b| {
        b.iter(|| black_box(fbp::backproject(&h, &filtered_h)))
    });
    group.finish();
}

criterion_group!(benches, bench_fbp);
criterion_main!(benches);
