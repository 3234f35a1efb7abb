//! The SV plan cache must be a pure wall-clock optimization: running
//! either driver with `plan_cache` on or off has to produce
//! bitwise-identical images, error sinograms, iteration reports, and
//! modeled seconds — at any host thread count. Every cached quantity
//! (quantized columns, chunk tallies, band geometry, voxel orders) is
//! byte-for-byte what the per-visit recomputation produces, so the
//! comparisons here are exact equality, not tolerances.
//!
//! A plan is also scan-independent: one set serves every scan of its
//! geometry under either SIMD backend, and a driver refuses a plan
//! built for another geometry.

use ct_core::fbp;
use ct_core::geometry::Geometry;
use ct_core::phantom::Phantom;
use ct_core::project::{scan, NoiseModel, Scan};
use ct_core::sysmat::SystemMatrix;
use gpu_icd::{plan_config, AMatrixMode, GpuIcd, GpuIterationReport, GpuOptions, Layout};
use mbir::prior::QggmrfPrior;
use mbir_simd::SimdBackend;
use psv_icd::{psv_plan_config, PsvConfig, PsvIcd, PsvIterationReport};
use std::sync::Arc;
use supervoxel::{SvPlanSet, Tiling};

struct Setup {
    a: SystemMatrix,
    scan: Scan,
    prior: QggmrfPrior,
    init: ct_core::image::Image,
}

fn setup() -> Setup {
    let geom = Geometry::tiny_scale();
    let a = SystemMatrix::compute(&geom);
    let truth = Phantom::baggage(5).render(geom.grid, 2);
    let s = scan(&a, &truth, Some(NoiseModel { i0: 1.0e5 }), 21);
    let prior = QggmrfPrior::standard(0.002);
    let init = fbp::reconstruct(&geom, &s.y);
    Setup { a, scan: s, prior, init }
}

fn run_gpu(
    s: &Setup,
    base: GpuOptions,
    plan_cache: bool,
    threads: usize,
    iters: usize,
) -> (GpuIcd<'_, QggmrfPrior>, Vec<GpuIterationReport>) {
    let opts = GpuOptions { plan_cache, threads, ..base };
    let mut gpu = GpuIcd::new(&s.a, &s.scan.y, &s.scan.weights, &s.prior, s.init.clone(), opts);
    let reports = (0..iters).map(|_| gpu.iteration()).collect();
    (gpu, reports)
}

fn assert_gpu_equivalent(s: &Setup, base: GpuOptions, label: &str) {
    for threads in [1usize, 8] {
        let (cached, rep_c) = run_gpu(s, base, true, threads, 5);
        let (fresh, rep_f) = run_gpu(s, base, false, threads, 5);
        assert_eq!(cached.image(), fresh.image(), "[{label}] image differs at {threads} threads");
        assert_eq!(
            cached.error().data(),
            fresh.error().data(),
            "[{label}] error sinogram differs at {threads} threads"
        );
        assert_eq!(rep_c, rep_f, "[{label}] iteration reports differ at {threads} threads");
        assert_eq!(
            cached.modeled_seconds(),
            fresh.modeled_seconds(),
            "[{label}] modeled seconds differ at {threads} threads"
        );
    }
}

fn small_opts() -> GpuOptions {
    GpuOptions { sv_side: 6, threadblocks_per_sv: 4, svs_per_batch: 4, ..Default::default() }
}

#[test]
fn gpu_cached_matches_uncached_default_config() {
    // The paper's tuned path: chunked layout + TextureU8 quantized A —
    // the configuration where the cache replaces the most per-visit
    // work (two quantizations + one chunking per update).
    let s = setup();
    assert_gpu_equivalent(&s, small_opts(), "chunked+u8");
}

#[test]
fn gpu_cached_matches_uncached_f32_chunked() {
    let s = setup();
    let base = GpuOptions { amatrix: AMatrixMode::GlobalF32, ..small_opts() };
    assert_gpu_equivalent(&s, base, "chunked+f32");
}

#[test]
fn gpu_cached_matches_uncached_naive_layout() {
    let s = setup();
    let base = GpuOptions { layout: Layout::Naive, ..small_opts() };
    assert_gpu_equivalent(&s, base, "naive");
}

#[test]
fn psv_cached_matches_uncached() {
    let s = setup();
    let run = |plan_cache: bool, threads: usize| {
        let config = PsvConfig { sv_side: 6, threads, plan_cache, ..Default::default() };
        let mut psv =
            PsvIcd::new(&s.a, &s.scan.y, &s.scan.weights, &s.prior, s.init.clone(), config);
        let reports: Vec<PsvIterationReport> = (0..5).map(|_| psv.iteration()).collect();
        (psv.image(), psv.error().data().to_vec(), reports, psv.modeled_seconds())
    };
    for threads in [1usize, 8] {
        let (img_c, err_c, rep_c, sec_c) = run(true, threads);
        let (img_f, err_f, rep_f, sec_f) = run(false, threads);
        assert_eq!(img_c, img_f, "psv image differs at {threads} threads");
        assert_eq!(err_c, err_f, "psv error sinogram differs at {threads} threads");
        assert_eq!(rep_c, rep_f, "psv iteration reports differ at {threads} threads");
        assert_eq!(sec_c, sec_f, "psv modeled seconds differ at {threads} threads");
    }
}

#[test]
fn prebuilt_plan_matches_internally_built() {
    // `with_plan` sharing one Arc across drivers is the intended way to
    // amortize the build; it must be indistinguishable from `new`.
    let s = setup();
    let opts = small_opts();
    let (gpu_new, rep_new) = run_gpu(&s, opts, true, 1, 4);
    let plan = std::sync::Arc::clone(gpu_new.plan());
    let mut gpu_shared =
        GpuIcd::with_plan(&s.a, &s.scan.y, &s.scan.weights, &s.prior, s.init.clone(), opts, plan);
    let rep_shared: Vec<GpuIterationReport> = (0..4).map(|_| gpu_shared.iteration()).collect();
    assert_eq!(gpu_new.image(), gpu_shared.image());
    assert_eq!(gpu_new.error().data(), gpu_shared.error().data());
    assert_eq!(rep_new, rep_shared);
}

/// Scans of one geometry that differ in everything a plan must not
/// depend on: the object, the photon noise, and so the weights.
fn scans(a: &SystemMatrix) -> Vec<(Scan, ct_core::image::Image)> {
    let g = *a.geometry();
    let phantoms = [Phantom::baggage(1), Phantom::water_cylinder(0.5), Phantom::shepp_logan()];
    phantoms
        .iter()
        .zip([11u64, 12, 13])
        .map(|(p, seed)| {
            let s = scan(a, &p.render(g.grid, 2), Some(NoiseModel { i0: 1.0e5 }), seed);
            let init = fbp::reconstruct(&g, &s.y);
            (s, init)
        })
        .collect()
}

#[test]
fn one_gpu_plan_serves_many_scans() {
    // A plan holds nothing scan-dependent: one set built up front must
    // reproduce, scan after scan and under either SIMD backend, what a
    // driver building its own plan computes.
    let s = setup();
    let base = small_opts();
    let tiling = Tiling::new(s.init.grid(), base.sv_side);
    let plan = Arc::new(SvPlanSet::build(&s.a, &tiling, plan_config(&base), 1));
    for simd in [SimdBackend::Scalar, SimdBackend::Lanes] {
        let opts = GpuOptions { simd, ..base };
        for (i, (sc, init)) in scans(&s.a).into_iter().enumerate() {
            let tag = format!("scan {i} under {simd}");
            let mut own = GpuIcd::new(&s.a, &sc.y, &sc.weights, &s.prior, init.clone(), opts);
            let mut shared =
                GpuIcd::with_plan(&s.a, &sc.y, &sc.weights, &s.prior, init, opts, plan.clone());
            let rep_own: Vec<GpuIterationReport> = (0..4).map(|_| own.iteration()).collect();
            let rep_shared: Vec<GpuIterationReport> = (0..4).map(|_| shared.iteration()).collect();
            assert_eq!(own.image(), shared.image(), "[{tag}] image differs");
            assert_eq!(own.error().data(), shared.error().data(), "[{tag}] error differs");
            assert_eq!(rep_own, rep_shared, "[{tag}] iteration reports differ");
            assert_eq!(
                own.modeled_seconds().to_bits(),
                shared.modeled_seconds().to_bits(),
                "[{tag}] modeled seconds differ"
            );
        }
    }
}

#[test]
fn one_psv_plan_serves_many_scans() {
    let s = setup();
    let base = PsvConfig { sv_side: 6, threads: 2, ..Default::default() };
    let tiling = Tiling::new(s.init.grid(), base.sv_side);
    let plan = Arc::new(SvPlanSet::build(&s.a, &tiling, psv_plan_config(), 1));
    for simd in [SimdBackend::Scalar, SimdBackend::Lanes] {
        let config = PsvConfig { simd, ..base };
        for (i, (sc, init)) in scans(&s.a).into_iter().enumerate() {
            let tag = format!("scan {i} under {simd}");
            let mut own = PsvIcd::new(&s.a, &sc.y, &sc.weights, &s.prior, init.clone(), config);
            let mut shared =
                PsvIcd::with_plan(&s.a, &sc.y, &sc.weights, &s.prior, init, config, plan.clone());
            let rep_own: Vec<PsvIterationReport> = (0..4).map(|_| own.iteration()).collect();
            let rep_shared: Vec<PsvIterationReport> = (0..4).map(|_| shared.iteration()).collect();
            assert_eq!(own.image(), shared.image(), "[{tag}] image differs");
            assert_eq!(own.error().data(), shared.error().data(), "[{tag}] error differs");
            assert_eq!(rep_own, rep_shared, "[{tag}] iteration reports differ");
            assert_eq!(
                own.modeled_seconds().to_bits(),
                shared.modeled_seconds().to_bits(),
                "[{tag}] modeled seconds differ"
            );
        }
    }
}

/// A system matrix and scan on the tiny grid, but with `views` views
/// and `channels` channels.
fn other_geometry(views: usize, channels: usize) -> (SystemMatrix, Scan) {
    let tiny = Geometry::tiny_scale();
    let g = Geometry::new(views, channels, tiny.channel_spacing, tiny.grid);
    let a = SystemMatrix::compute(&g);
    let s = scan(&a, &Phantom::baggage(5).render(g.grid, 2), None, 21);
    (a, s)
}

fn gpu_with_foreign_plan(views: usize, channels: usize) {
    let s = setup();
    let opts = small_opts();
    let tiling = Tiling::new(s.init.grid(), opts.sv_side);
    let plan = Arc::new(SvPlanSet::build(&s.a, &tiling, plan_config(&opts), 1));
    let (a, sc) = other_geometry(views, channels);
    let init = ct_core::image::Image::zeros(a.geometry().grid);
    GpuIcd::with_plan(&a, &sc.y, &sc.weights, &s.prior, init, opts, plan);
}

fn psv_with_foreign_plan(views: usize, channels: usize) {
    let s = setup();
    let config = PsvConfig { sv_side: 6, ..Default::default() };
    let tiling = Tiling::new(s.init.grid(), config.sv_side);
    let plan = Arc::new(SvPlanSet::build(&s.a, &tiling, psv_plan_config(), 1));
    let (a, sc) = other_geometry(views, channels);
    let init = ct_core::image::Image::zeros(a.geometry().grid);
    PsvIcd::with_plan(&a, &sc.y, &sc.weights, &s.prior, init, config, plan);
}

// Without the geometry check, a same-grid plan with more channels runs
// to a worse image without complaint, and one with more views indexes
// past its quantized columns.

#[test]
#[should_panic(expected = "plan built for a different geometry")]
fn gpu_rejects_a_plan_built_for_more_channels() {
    let tiny = Geometry::tiny_scale();
    gpu_with_foreign_plan(tiny.num_views, tiny.num_channels + 8);
}

#[test]
#[should_panic(expected = "plan built for a different geometry")]
fn gpu_rejects_a_plan_built_for_more_views() {
    let tiny = Geometry::tiny_scale();
    gpu_with_foreign_plan(2 * tiny.num_views, tiny.num_channels);
}

#[test]
#[should_panic(expected = "plan built for a different geometry")]
fn psv_rejects_a_plan_built_for_more_channels() {
    let tiny = Geometry::tiny_scale();
    psv_with_foreign_plan(tiny.num_views, tiny.num_channels + 8);
}

#[test]
#[should_panic(expected = "plan built for a different geometry")]
fn psv_rejects_a_plan_built_for_more_views() {
    let tiny = Geometry::tiny_scale();
    psv_with_foreign_plan(2 * tiny.num_views, tiny.num_channels);
}
