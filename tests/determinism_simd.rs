//! SIMD-backend determinism: the lane backend must be a pure
//! wall-clock optimization, exactly like host thread count (PR 1) and
//! device count (PR 4). Reconstructing with the scalar or the 8-lane
//! backend — at any thread or device count — has to produce bitwise
//! identical images, error sinograms, modeled seconds, and iteration
//! reports. The canonical 8-lane reduction order (every backend sums
//! lane partials with the same tree) makes this exact, not
//! approximate.

use ct_core::fbp;
use ct_core::geometry::Geometry;
use ct_core::phantom::Phantom;
use ct_core::project::{scan, NoiseModel, Scan};
use ct_core::sysmat::SystemMatrix;
use gpu_icd::{GpuIcd, GpuIterationReport, GpuOptions};
use mbir::prior::QggmrfPrior;
use mbir_simd::SimdBackend;
use psv_icd::{PsvConfig, PsvIcd};

struct Setup {
    a: SystemMatrix,
    scan: Scan,
    prior: QggmrfPrior,
    init: ct_core::image::Image,
}

fn setup() -> Setup {
    let geom = Geometry::tiny_scale();
    let a = SystemMatrix::compute(&geom);
    let truth = Phantom::baggage(3).render(geom.grid, 2);
    let s = scan(&a, &truth, Some(NoiseModel { i0: 1.0e5 }), 13);
    let prior = QggmrfPrior::standard(0.002);
    let init = fbp::reconstruct(&geom, &s.y);
    Setup { a, scan: s, prior, init }
}

fn run_gpu(
    s: &Setup,
    simd: SimdBackend,
    threads: usize,
    devices: usize,
    iters: usize,
) -> (GpuIcd<'_, QggmrfPrior>, Vec<GpuIterationReport>) {
    let opts = GpuOptions {
        sv_side: 6,
        threadblocks_per_sv: 4,
        svs_per_batch: 4,
        threads,
        devices,
        simd,
        ..Default::default()
    };
    let mut gpu = GpuIcd::new(&s.a, &s.scan.y, &s.scan.weights, &s.prior, s.init.clone(), opts);
    let reports = (0..iters).map(|_| gpu.iteration()).collect();
    (gpu, reports)
}

#[test]
fn gpu_driver_is_bitwise_identical_across_simd_backends() {
    // The full cross: backend x thread count x device count. At every
    // (threads, devices) point the two backends must agree on
    // EVERYTHING — reports, modeled time, image, error — and every
    // combination must reproduce the reference image and error
    // sinogram bit for bit. (Modeled seconds legitimately vary with
    // the device count: a fleet pays interconnect exchange time.)
    let s = setup();
    let (gpu_ref, _) = run_gpu(&s, SimdBackend::Scalar, 1, 1, 6);
    for (threads, devices) in [(1, 1), (8, 1), (1, 2), (8, 2)] {
        let (gpu_s, reports_s) = run_gpu(&s, SimdBackend::Scalar, threads, devices, 6);
        let (gpu_l, reports_l) = run_gpu(&s, SimdBackend::Lanes, threads, devices, 6);
        let tag = format!("{threads} threads x {devices} devices");
        assert_eq!(reports_s, reports_l, "iteration reports differ across backends at {tag}");
        assert_eq!(gpu_s.image(), gpu_l.image(), "image differs across backends at {tag}");
        assert_eq!(gpu_s.error(), gpu_l.error(), "error differs across backends at {tag}");
        assert_eq!(
            gpu_s.modeled_seconds(),
            gpu_l.modeled_seconds(),
            "modeled seconds differ across backends at {tag}"
        );
        assert_eq!(gpu_ref.image(), gpu_l.image(), "image differs from reference at {tag}");
        assert_eq!(gpu_ref.error(), gpu_l.error(), "error differs from reference at {tag}");
    }
}

#[test]
fn gpu_modeled_time_is_identical_across_simd_backends() {
    // The backend changes host wall-clock only, never the modeled GPU
    // timeline or the kernel counters.
    let s = setup();
    let (gpu_s, _) = run_gpu(&s, SimdBackend::Scalar, 8, 1, 4);
    let (gpu_l, _) = run_gpu(&s, SimdBackend::Lanes, 8, 1, 4);
    assert_eq!(gpu_s.modeled_seconds(), gpu_l.modeled_seconds());
    assert_eq!(gpu_s.stats(), gpu_l.stats());
    assert_eq!(gpu_s.equits(), gpu_l.equits());
}

#[test]
fn psv_driver_is_bitwise_identical_across_simd_backends() {
    let s = setup();
    let run = |simd: SimdBackend| {
        let mut psv = PsvIcd::new(
            &s.a,
            &s.scan.y,
            &s.scan.weights,
            &s.prior,
            s.init.clone(),
            PsvConfig { sv_side: 6, threads: 4, simd, ..Default::default() },
        );
        for _ in 0..6 {
            psv.iteration();
        }
        (psv.image().clone(), psv.modeled_seconds())
    };
    let (img_s, t_s) = run(SimdBackend::Scalar);
    let (img_l, t_l) = run(SimdBackend::Lanes);
    assert_eq!(img_s, img_l);
    assert_eq!(t_s, t_l);
}

#[test]
fn projection_paths_are_identical_across_simd_backends() {
    // Sysmat build, forward/back projection, and FBP take the backend
    // from the process-wide setting; flipping it must not change a
    // single bit of any of them.
    let geom = Geometry::tiny_scale();
    let truth = Phantom::shepp_logan().render(geom.grid, 2);
    let run = |simd: SimdBackend| {
        mbir_simd::set_backend(simd);
        let a = SystemMatrix::compute(&geom);
        let y = a.forward(&truth);
        let b = a.back(&y);
        let r = fbp::reconstruct(&geom, &y);
        mbir_simd::set_backend(SimdBackend::Auto);
        (a, y, b, r)
    };
    let (a_s, y_s, b_s, r_s) = run(SimdBackend::Scalar);
    let (a_l, y_l, b_l, r_l) = run(SimdBackend::Lanes);
    assert_eq!(a_s.nnz(), a_l.nnz());
    assert_eq!(y_s, y_l);
    assert_eq!(b_s, b_l);
    assert_eq!(r_s, r_l);
}
