//! The SV plan is built once per geometry and is the only source of
//! every iteration-invariant quantity a voxel visit reads (quantized
//! columns, chunk tallies, band offsets). A plan holds nothing
//! scan-dependent: one set serves every scan of its geometry, bitwise
//! equal to a driver that builds its own, and a driver refuses a plan built for another geometry or another
//! SV side. The comparisons here are exact equality, not tolerances.

use ct_core::fbp;
use ct_core::geometry::Geometry;
use ct_core::phantom::Phantom;
use ct_core::project::{scan, NoiseModel, Scan};
use ct_core::sysmat::SystemMatrix;
use gpu_icd::{plan_config, GpuIcd, GpuIterationReport, GpuOptions};
use mbir::prior::QggmrfPrior;
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

fn small_opts() -> GpuOptions {
    GpuOptions { sv_side: 6, threadblocks_per_sv: 4, svs_per_batch: 4, ..Default::default() }
}

#[test]
fn prebuilt_plan_matches_internally_built() {
    // `with_plan` sharing one Arc across drivers is the intended way to
    // amortize the build; it must be indistinguishable from `new`.
    let s = setup();
    let opts = small_opts();
    let one = GpuOptions { threads: 1, ..opts };
    let mut gpu_new = GpuIcd::new(&s.a, &s.scan.y, &s.scan.weights, &s.prior, s.init.clone(), one);
    let rep_new: Vec<GpuIterationReport> = (0..4).map(|_| gpu_new.iteration()).collect();
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
    // reproduce, scan after scan, what a driver building its own plan
    // computes.
    let s = setup();
    let opts = small_opts();
    let tiling = Tiling::new(s.init.grid(), opts.sv_side);
    let plan = Arc::new(SvPlanSet::build(&s.a, &tiling, plan_config(&opts), 1));
    for (i, (sc, init)) in scans(&s.a).into_iter().enumerate() {
        let tag = format!("scan {i}");
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

#[test]
fn one_psv_plan_serves_many_scans() {
    let s = setup();
    let config = PsvConfig { sv_side: 6, threads: 2 };
    let tiling = Tiling::new(s.init.grid(), config.sv_side);
    let plan = Arc::new(SvPlanSet::build(&s.a, &tiling, psv_plan_config(), 1));
    for (i, (sc, init)) in scans(&s.a).into_iter().enumerate() {
        let tag = format!("scan {i}");
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

// On the 24x24 tiny grid, SV sides 6 and 7 both tile 16 SVs, so a
// plan's SV count cannot tell them apart; its recorded side can.

#[test]
#[should_panic(expected = "plan built for different tiling")]
fn gpu_rejects_a_plan_built_for_another_sv_side() {
    let s = setup();
    let opts = small_opts();
    let tiling = Tiling::new(s.init.grid(), opts.sv_side);
    assert_eq!(Tiling::new(s.init.grid(), 7).len(), tiling.len());
    let plan = Arc::new(SvPlanSet::build(&s.a, &tiling, plan_config(&opts), 1));
    let seven = GpuOptions { sv_side: 7, ..opts };
    GpuIcd::with_plan(&s.a, &s.scan.y, &s.scan.weights, &s.prior, s.init.clone(), seven, plan);
}

#[test]
#[should_panic(expected = "plan built for different tiling")]
fn psv_rejects_a_plan_built_for_another_sv_side() {
    let s = setup();
    let config = PsvConfig { sv_side: 6, ..Default::default() };
    let tiling = Tiling::new(s.init.grid(), config.sv_side);
    assert_eq!(Tiling::new(s.init.grid(), 7).len(), tiling.len());
    let plan = Arc::new(SvPlanSet::build(&s.a, &tiling, psv_plan_config(), 1));
    let seven = PsvConfig { sv_side: 7, ..config };
    PsvIcd::with_plan(&s.a, &s.scan.y, &s.scan.weights, &s.prior, s.init.clone(), seven, plan);
}
