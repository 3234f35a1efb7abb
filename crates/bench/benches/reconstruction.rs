//! End-to-end reconstruction benchmarks: one full iteration/pass of
//! each algorithm at test scale (functional execution wall time).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ct_core::fbp;
use ct_core::geometry::Geometry;
use ct_core::image::Image;
use ct_core::phantom::Phantom;
use ct_core::project::{scan, NoiseModel, Scan};
use ct_core::sysmat::SystemMatrix;
use gpu_icd::{GpuIcd, GpuOptions};
use mbir::prior::QggmrfPrior;
use mbir::sequential::SequentialIcd;
use psv_icd::{PsvConfig, PsvIcd};
use std::hint::black_box;

struct Setup {
    g: Geometry,
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
    Setup { g, a, s, init }
}

fn bench_reconstruction(c: &mut Criterion) {
    let su = setup();
    let prior = QggmrfPrior::standard(0.002);

    let mut group = c.benchmark_group("iteration");
    group.sample_size(10);

    group.bench_function("sequential_icd_pass_64", |b| {
        b.iter_batched(
            || SequentialIcd::new(&su.a, &su.s.y, &su.s.weights, &prior, su.init.clone()),
            |mut icd| {
                icd.pass();
                black_box(icd.equits())
            },
            BatchSize::SmallInput,
        )
    });

    group.bench_function("psv_icd_iteration_64", |b| {
        b.iter_batched(
            || {
                PsvIcd::new(
                    &su.a,
                    &su.s.y,
                    &su.s.weights,
                    &prior,
                    su.init.clone(),
                    PsvConfig { sv_side: 6, threads: 2 },
                )
            },
            |mut psv| black_box(psv.iteration()),
            BatchSize::SmallInput,
        )
    });

    group.bench_function("gpu_icd_iteration_64", |b| {
        let opts = GpuOptions {
            sv_side: 8,
            threadblocks_per_sv: 12,
            svs_per_batch: 16,
            ..Default::default()
        };
        b.iter_batched(
            || GpuIcd::new(&su.a, &su.s.y, &su.s.weights, &prior, su.init.clone(), opts),
            |mut gpu| black_box(gpu.iteration()),
            BatchSize::SmallInput,
        )
    });

    group.bench_function("system_matrix_build_64", |b| {
        b.iter(|| black_box(SystemMatrix::compute(&su.g)))
    });

    group.bench_function("nhicd_cycle_64", |b| {
        use mbir::nhicd::NhIcd;
        b.iter_batched(
            || NhIcd::new(&su.a, &su.s.y, &su.s.weights, &prior, su.init.clone()),
            |mut nh| {
                nh.cycle();
                black_box(nh.equits())
            },
            BatchSize::SmallInput,
        )
    });

    group.bench_function("volume_pass_3_slices_24", |b| {
        use ct_core::volume::Volume;
        use mbir::volume_icd::VolumeIcd;
        let tg = Geometry::tiny_scale();
        let ta = SystemMatrix::compute(&tg);
        let slices: Vec<_> = [0.4f32, 0.5, 0.6]
            .iter()
            .map(|&r| Phantom::water_cylinder(r).render(tg.grid, 1))
            .collect();
        let ys: Vec<_> = slices.iter().map(|s| ta.forward(s)).collect();
        let ws = vec![ct_core::sinogram::Sinogram::filled(&tg, 1.0); 3];
        b.iter_batched(
            || VolumeIcd::new(&ta, &ys, &ws, &prior, Volume::zeros(tg.grid, 3)),
            |mut icd| {
                icd.pass();
                black_box(icd.equits())
            },
            BatchSize::SmallInput,
        )
    });

    group.finish();
}

/// One GPU-ICD iteration at 1 vs. N host worker threads. The outputs
/// are bitwise identical (see tests/determinism_threads.rs); only
/// wall-clock changes, and only when the host actually has cores to
/// spare.
fn bench_host_parallel(c: &mut Criterion) {
    let su = setup();
    let prior = QggmrfPrior::standard(0.002);
    let mut group = c.benchmark_group("host_parallel");
    group.sample_size(10);

    for threads in [1usize, mbir_parallel::available().max(2)] {
        let opts = GpuOptions {
            sv_side: 8,
            threadblocks_per_sv: 12,
            svs_per_batch: 16,
            threads,
            ..Default::default()
        };
        group.bench_function(&format!("gpu_icd_iteration_64_threads{threads}"), |b| {
            b.iter_batched(
                || GpuIcd::new(&su.a, &su.s.y, &su.s.weights, &prior, su.init.clone(), opts),
                |mut gpu| black_box(gpu.iteration()),
                BatchSize::SmallInput,
            )
        });
        group.bench_function(&format!("system_matrix_build_64_threads{threads}"), |b| {
            b.iter(|| black_box(SystemMatrix::compute_parallel(&su.g, threads)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_reconstruction, bench_host_parallel);
criterion_main!(benches);
