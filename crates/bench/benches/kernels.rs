//! Micro-benchmarks of the computational kernels (real wall time on
//! this machine — these complement the modeled GPU/CPU times the
//! repro binaries report).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ct_core::fbp;
use ct_core::geometry::Geometry;
use ct_core::image::Image;
use ct_core::phantom::Phantom;
use ct_core::sinogram::Sinogram;
use ct_core::sysmat::SystemMatrix;
use mbir::prior::{Prior, QggmrfPrior, QuadraticPrior};
use mbir::update::{compute_thetas, update_voxel, SinogramPair};
use std::hint::black_box;
use supervoxel::chunks::chunk_column;
use supervoxel::quant::QuantizedColumn;
use supervoxel::svb::{Svb, SvbShape};
use supervoxel::tiling::Tiling;

fn setup() -> (Geometry, SystemMatrix, Sinogram, Sinogram) {
    let g = Geometry::test_scale();
    let a = SystemMatrix::compute(&g);
    let truth = Phantom::shepp_logan().render(g.grid, 1);
    let y = a.forward(&truth);
    let w = Sinogram::filled(&g, 1.0);
    (g, a, y, w)
}

fn bench_kernels(c: &mut Criterion) {
    let (g, a, y, w) = setup();
    let j = g.grid.index(32, 32);

    c.bench_function("theta_accumulation_sparse", |b| {
        let mut e = y.clone();
        let pair = SinogramPair { e: &mut e, w: &w };
        let col = a.column(j);
        b.iter(|| black_box(compute_thetas(&col, &pair)))
    });

    c.bench_function("voxel_update_full", |b| {
        let prior = QggmrfPrior::standard(0.002);
        b.iter_batched(
            || (Image::zeros(g.grid), y.clone()),
            |(mut img, mut e)| {
                let mut pair = SinogramPair { e: &mut e, w: &w };
                black_box(update_voxel(j, &mut img, &a.column(j), &mut pair, &prior))
            },
            BatchSize::SmallInput,
        )
    });

    c.bench_function("prior_surrogate_step", |b| {
        let prior = QggmrfPrior::standard(0.002);
        let neigh = [(0.01f32, 0.146), (0.02, 0.104), (0.0, 0.146), (0.015, 0.104)];
        b.iter(|| black_box(prior.step(0.012, -3.0, 900.0, &mut neigh.iter().copied())))
    });

    let tiling = Tiling::new(g.grid, 8);
    let shape = SvbShape::compute(&a, &tiling, tiling.len() / 2);
    c.bench_function("svb_gather", |b| b.iter(|| black_box(Svb::gather(&shape, &y, &w))));
    c.bench_function("svb_scatter_delta", |b| {
        let mut modified = Svb::gather(&shape, &y, &w);
        for c in modified.cells.iter_mut() {
            c[0] += 0.5;
        }
        modified.take_delta(&y);
        b.iter_batched(
            || y.clone(),
            |mut e| {
                modified.scatter_delta(&mut e);
                black_box(e)
            },
            BatchSize::SmallInput,
        )
    });

    c.bench_function("chunk_decomposition_w32", |b| {
        let col = a.column(j);
        b.iter(|| black_box(chunk_column(&col, 32)))
    });
    c.bench_function("quantize_column_u8", |b| {
        let col = a.column(j);
        b.iter(|| black_box(QuantizedColumn::quantize(&col)))
    });

    c.bench_function("qggmrf_prior_cost_64", |b| {
        let img = Phantom::shepp_logan().render(g.grid, 1);
        let p = QuadraticPrior { sigma: 0.01 };
        b.iter(|| black_box(p.cost(&img)))
    });

    c.bench_function("lasso_sweep_30_cols", |b| {
        use icd_opt::{LassoSolver, SparseMatrix};
        let mut triplets = Vec::new();
        for r in 0..200usize {
            for cix in 0..30usize {
                if (r * 31 + cix * 7) % 5 == 0 {
                    triplets.push((r, cix, ((r + cix) % 13) as f32 * 0.1 - 0.6));
                }
            }
        }
        let a = SparseMatrix::from_triplets(200, 30, &triplets);
        let y: Vec<f32> = (0..200).map(|i| (i as f32 * 0.37).sin()).collect();
        b.iter_batched(
            || LassoSolver::new(a.clone(), y.clone(), 0.1),
            |mut s| {
                s.sweep();
                std::hint::black_box(s.cost())
            },
            BatchSize::SmallInput,
        )
    });

    c.bench_function("fan_forward_24", |b| {
        let tg = Geometry::tiny_scale();
        let fan = ct_core::fanbeam::FanGeometry::covering(&tg, 80.0);
        let img = Phantom::water_cylinder(0.5).render(tg.grid, 1);
        b.iter(|| black_box(ct_core::fanbeam::fan_forward(&fan, &img)))
    });

    c.bench_function("fan_rebin_24", |b| {
        let tg = Geometry::tiny_scale();
        let fan = ct_core::fanbeam::FanGeometry::covering(&tg, 80.0);
        let img = Phantom::water_cylinder(0.5).render(tg.grid, 1);
        let sino = ct_core::fanbeam::fan_forward(&fan, &img);
        b.iter(|| black_box(ct_core::fanbeam::rebin_to_parallel(&fan, &sino, &tg)))
    });

    let mut group = c.benchmark_group("projection");
    group.sample_size(20);
    group.bench_function("forward_project_64", |b| {
        let img = Phantom::shepp_logan().render(g.grid, 1);
        b.iter(|| black_box(a.forward(&img)))
    });
    group.bench_function("fbp_reconstruct_64", |b| b.iter(|| black_box(fbp::reconstruct(&g, &y))));
    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
