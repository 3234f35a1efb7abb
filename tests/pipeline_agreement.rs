//! Cross-crate integration: the three reconstruction algorithms
//! (sequential ICD, PSV-ICD, GPU-ICD) run the full pipeline end to end
//! and agree with each other.

use ct_core::fbp;
use ct_core::geometry::Geometry;
use ct_core::hu::rmse_hu;
use ct_core::phantom::Phantom;
use ct_core::project::{scan, NoiseModel, Scan};
use ct_core::sysmat::SystemMatrix;
use gpu_icd::{GpuIcd, GpuOptions};
use mbir::prior::QggmrfPrior;
use mbir::sequential::{golden_image, SequentialIcd};
use mbir::stopping::{self, BoundaryAction, Stop};
use psv_icd::{PsvConfig, PsvIcd};

struct Setup {
    geom: Geometry,
    a: SystemMatrix,
    scan: Scan,
    prior: QggmrfPrior,
    init: ct_core::image::Image,
    golden: ct_core::image::Image,
}

fn setup(phantom: Phantom, seed: u64) -> Setup {
    let geom = Geometry::tiny_scale();
    let a = SystemMatrix::compute(&geom);
    let truth = phantom.render(geom.grid, 2);
    let s = scan(&a, &truth, Some(NoiseModel { i0: 1.0e5 }), seed);
    let prior = QggmrfPrior::standard(0.002);
    let init = fbp::reconstruct(&geom, &s.y);
    let golden = golden_image(&a, &s.y, &s.weights, &prior, init.clone(), 40.0);
    Setup { geom, a, scan: s, prior, init, golden }
}

fn gpu_opts() -> GpuOptions {
    GpuOptions { sv_side: 6, threadblocks_per_sv: 4, svs_per_batch: 4, ..Default::default() }
}

#[test]
fn all_three_algorithms_converge_and_agree() {
    let s = setup(Phantom::water_cylinder(0.55), 7);

    let mut seq = SequentialIcd::new(&s.a, &s.scan.y, &s.scan.weights, &s.prior, s.init.clone());
    let stop = Stop::Golden { image: &s.golden, hu: 10.0 };
    let out = stopping::run(&mut seq, stop, 30, |_, _| BoundaryAction::Continue);
    let seq_rmse = out.trace.last().unwrap().rmse_hu;
    assert!(seq_rmse < 10.0, "sequential rmse {seq_rmse}");

    let mut psv = PsvIcd::new(
        &s.a,
        &s.scan.y,
        &s.scan.weights,
        &s.prior,
        s.init.clone(),
        PsvConfig { sv_side: 6, threads: 2 },
    );
    stopping::run(&mut psv, stop, 80, |_, _| BoundaryAction::Continue);
    let psv_rmse = rmse_hu(psv.image(), &s.golden);
    assert!(psv_rmse < 10.0, "psv rmse {psv_rmse}");

    let mut gpu =
        GpuIcd::new(&s.a, &s.scan.y, &s.scan.weights, &s.prior, s.init.clone(), gpu_opts());
    stopping::run(&mut gpu, stop, 120, |_, _| BoundaryAction::Continue);
    let gpu_rmse = rmse_hu(gpu.image(), &s.golden);
    assert!(gpu_rmse < 10.0, "gpu rmse {gpu_rmse}");

    // All three land in the same 20 HU neighbourhood of each other.
    assert!(rmse_hu(seq.image(), psv.image()) < 20.0);
    assert!(rmse_hu(seq.image(), gpu.image()) < 20.0);
    assert!(rmse_hu(psv.image(), gpu.image()) < 20.0);
}

#[test]
fn error_sinogram_invariants_hold_across_algorithms() {
    let s = setup(Phantom::baggage(5), 9);

    let mut psv = PsvIcd::new(
        &s.a,
        &s.scan.y,
        &s.scan.weights,
        &s.prior,
        s.init.clone(),
        PsvConfig { sv_side: 6, threads: 3 },
    );
    for _ in 0..3 {
        psv.iteration();
    }
    let ax = s.a.forward(psv.image());
    for i in 0..s.scan.y.data().len() {
        let expect = s.scan.y.data()[i] - ax.data()[i];
        assert!((psv.error().data()[i] - expect).abs() < 5e-3, "psv e drift at {i}");
    }

    let mut gpu =
        GpuIcd::new(&s.a, &s.scan.y, &s.scan.weights, &s.prior, s.init.clone(), gpu_opts());
    for _ in 0..3 {
        gpu.iteration();
    }
    let ax = s.a.forward(gpu.image());
    for i in 0..s.scan.y.data().len() {
        let expect = s.scan.y.data()[i] - ax.data()[i];
        assert!((gpu.error().data()[i] - expect).abs() < 5e-3, "gpu e drift at {i}");
    }
}

#[test]
fn mbir_beats_fbp_on_noisy_baggage() {
    // The image-quality claim that motivates MBIR in the first place.
    let geom = Geometry::tiny_scale();
    let a = SystemMatrix::compute(&geom);
    let truth = Phantom::baggage(2).render(geom.grid, 2);
    let s = scan(&a, &truth, Some(NoiseModel { i0: 2.0e3 }), 3);
    let prior = QggmrfPrior::standard(0.002);
    let fbp_img = fbp::reconstruct(&geom, &s.y);
    let mut gpu = GpuIcd::new(&a, &s.y, &s.weights, &prior, fbp_img.clone(), gpu_opts());
    for _ in 0..30 {
        gpu.iteration();
    }
    let fbp_err = rmse_hu(&fbp_img, &truth);
    let mbir_err = rmse_hu(gpu.image(), &truth);
    assert!(mbir_err < fbp_err, "mbir {mbir_err} HU vs fbp {fbp_err} HU");
}

#[test]
fn reconstruction_is_deterministic_end_to_end() {
    let run = || {
        let s = setup(Phantom::baggage(1), 4);
        let mut gpu =
            GpuIcd::new(&s.a, &s.scan.y, &s.scan.weights, &s.prior, s.init.clone(), gpu_opts());
        for _ in 0..5 {
            gpu.iteration();
        }
        (gpu.image().clone(), gpu.modeled_seconds())
    };
    let (img1, t1) = run();
    let (img2, t2) = run();
    assert_eq!(img1, img2);
    assert_eq!(t1, t2);
    let _ = setup(Phantom::baggage(1), 4).geom;
}

#[test]
fn positivity_holds_in_all_reconstructions() {
    let s = setup(Phantom::baggage(8), 11);
    let mut gpu =
        GpuIcd::new(&s.a, &s.scan.y, &s.scan.weights, &s.prior, s.init.clone(), gpu_opts());
    for _ in 0..8 {
        gpu.iteration();
    }
    // FBP init can be negative; after a few ICD sweeps positivity has
    // been enforced everywhere the algorithm visited. Voxels never
    // visited (zero-skip) stay at their init value, so check only that
    // the reconstruction is overwhelmingly nonnegative and no new
    // negative values appeared.
    let neg_init = s.init.data().iter().filter(|&&v| v < 0.0).count();
    let neg_now = gpu.image().data().iter().filter(|&&v| v < 0.0).count();
    assert!(neg_now <= neg_init, "negatives grew: {neg_init} -> {neg_now}");
}
