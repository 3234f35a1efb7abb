//! Plan benchmarks: the one-time per-SV plan build and the per-scan
//! driver build on a shared plan.

use criterion::{criterion_group, criterion_main, Criterion};
use ct_core::fbp;
use ct_core::geometry::Geometry;
use ct_core::image::Image;
use ct_core::phantom::Phantom;
use ct_core::project::{scan, NoiseModel, Scan};
use ct_core::sysmat::SystemMatrix;
use gpu_icd::{plan_config, GpuIcd, GpuOptions};
use mbir::prior::QggmrfPrior;
use std::hint::black_box;
use std::sync::Arc;
use supervoxel::{SvPlanSet, Tiling};

struct Setup {
    a: SystemMatrix,
    s: Scan,
    init: Image,
}

fn setup() -> Setup {
    let g = Geometry::test_scale();
    let a = SystemMatrix::compute(&g);
    let truth = Phantom::baggage(0).render(g.grid, 2);
    let s = scan(&a, &truth, Some(NoiseModel::default_dose()), 42);
    let init = fbp::reconstruct(&g, &s.y);
    Setup { a, s, init }
}

fn opts() -> GpuOptions {
    GpuOptions { sv_side: 8, threadblocks_per_sv: 12, svs_per_batch: 16, ..Default::default() }
}

/// The one-time cost being amortized: building every SV's plan
/// (shapes, chunk tallies, quantized columns), serial vs all cores.
fn bench_sv_plan_build(c: &mut Criterion) {
    let su = setup();
    let tiling = Tiling::new(su.init.grid(), opts().sv_side);
    let config = plan_config(&opts());
    let mut group = c.benchmark_group("sv_plan_build");
    group.sample_size(10);
    for threads in [1usize, mbir_parallel::available().max(2)] {
        group.bench_function(&format!("build_64_threads{threads}"), |b| {
            b.iter(|| black_box(SvPlanSet::build(&su.a, &tiling, config, threads)))
        });
    }
    group.finish();
}

/// What each scan pays on top of the shared plan: `GpuIcd::with_plan`.
/// The plan holds everything scan-invariant, so this is the forward
/// projection of the initial image and little else; per-scan work
/// creeping back into the driver shows up here.
fn bench_driver_build(c: &mut Criterion) {
    let su = setup();
    let prior = QggmrfPrior::standard(0.002);
    let tiling = Tiling::new(su.init.grid(), opts().sv_side);
    let plan = Arc::new(SvPlanSet::build(&su.a, &tiling, plan_config(&opts()), 0));
    let mut group = c.benchmark_group("driver_build");
    group.sample_size(10);
    group.bench_function("with_plan_64", |b| {
        b.iter(|| {
            black_box(GpuIcd::with_plan(
                &su.a,
                &su.s.y,
                &su.s.weights,
                &prior,
                su.init.clone(),
                opts(),
                plan.clone(),
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_sv_plan_build, bench_driver_build);
criterion_main!(benches);
