//! FBP benchmarks: ramp filter and back projection. The filter's
//! mirrored-kernel sliding dot and the backprojector's staged lerp both
//! reduce through the canonical 8-lane tree.

use criterion::{criterion_group, criterion_main, Criterion};
use ct_core::fbp;
use ct_core::geometry::Geometry;
use ct_core::phantom::Phantom;
use ct_core::sysmat::SystemMatrix;
use std::hint::black_box;

fn bench_fbp(c: &mut Criterion) {
    let g = Geometry::test_scale();
    let a = SystemMatrix::compute(&g);
    let truth = Phantom::shepp_logan().render(g.grid, 2);
    let y = a.forward(&truth);
    let filtered = fbp::filter(&g, &y);

    let mut group = c.benchmark_group("fbp");
    group.sample_size(10);
    group.bench_function("filter_test_scale", |b| b.iter(|| black_box(fbp::filter(&g, &y))));
    group.bench_function("backproject_test_scale", |b| {
        b.iter(|| black_box(fbp::backproject(&g, &filtered)))
    });
    group.finish();
}

criterion_group!(benches, bench_fbp);
criterion_main!(benches);
