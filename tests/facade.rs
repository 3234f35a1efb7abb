//! Integration tests for the high-level facade and the golden-free
//! stopping rules.

use ct_core::geometry::Geometry;
use ct_core::hu::rmse_hu;
use ct_core::phantom::Phantom;
use ct_core::project::{scan, NoiseModel};
use ct_core::sysmat::SystemMatrix;
use mbir::stopping::StopRule;
use mbir_gpu_repro::recon::{Algorithm, Reconstructor};

fn measurement() -> (Geometry, ct_core::sinogram::Sinogram, ct_core::image::Image) {
    let geom = Geometry::tiny_scale();
    let a = SystemMatrix::compute(&geom);
    let truth = Phantom::water_cylinder(0.55).render(geom.grid, 2);
    let s = scan(&a, &truth, Some(NoiseModel::default_dose()), 3);
    (geom, s.y, truth)
}

#[test]
fn facade_runs_every_algorithm() {
    let (geom, y, truth) = measurement();
    let mut results = Vec::new();
    for algo in [Algorithm::Fbp, Algorithm::SequentialIcd, Algorithm::PsvIcd, Algorithm::GpuIcd] {
        let r =
            Reconstructor::new(geom).algorithm(algo).max_passes(40).run(&y).expect("valid input");
        let err = rmse_hu(&r.image, &truth);
        assert!(err < 600.0, "{algo:?} rmse {err}");
        results.push((algo, err, r));
    }
    // Every MBIR variant beats FBP on this noisy scan.
    let fbp_err = results[0].1;
    for (algo, err, _) in &results[1..] {
        assert!(*err < fbp_err, "{algo:?} ({err}) should beat FBP ({fbp_err})");
    }
    // MBIR variants agree among themselves.
    let seq = &results[1].2.image;
    for (algo, _, r) in &results[2..] {
        let d = rmse_hu(seq, &r.image);
        assert!(d < 25.0, "{algo:?} differs from sequential by {d} HU");
    }
}

#[test]
fn mean_update_rule_stops_early_and_converged() {
    let (geom, y, _) = measurement();
    let tight = Reconstructor::new(geom)
        .algorithm(Algorithm::SequentialIcd)
        .stop(StopRule::MeanUpdate { hu: 0.05 })
        .max_passes(60)
        .run(&y)
        .expect("valid input");
    let loose = Reconstructor::new(geom)
        .algorithm(Algorithm::SequentialIcd)
        .stop(StopRule::MeanUpdate { hu: 5.0 })
        .max_passes(60)
        .run(&y)
        .expect("valid input");
    assert!(loose.equits < tight.equits, "loose {} tight {}", loose.equits, tight.equits);
    // The tight rule's endpoint is close to the loose one's continuation.
    let d = rmse_hu(&tight.image, &loose.image);
    assert!(d < 40.0, "stopping rules diverged by {d} HU");
}

#[test]
fn max_equits_budget_is_respected() {
    let (geom, y, _) = measurement();
    let r = Reconstructor::new(geom)
        .algorithm(Algorithm::GpuIcd)
        .stop(StopRule::MaxEquits { equits: 3.0 })
        .max_passes(500)
        .run(&y)
        .expect("valid input");
    assert!(r.equits >= 3.0, "budget not reached: {}", r.equits);
    assert!(r.equits < 5.0, "budget badly overshot: {}", r.equits);
}

#[test]
fn cost_plateau_rule_terminates() {
    let (geom, y, _) = measurement();
    let r = Reconstructor::new(geom)
        .algorithm(Algorithm::SequentialIcd)
        .stop(StopRule::CostPlateau { tol: 1e-4 })
        .max_passes(100)
        .run(&y)
        .expect("valid input");
    assert!(r.equits > 1.0 && r.equits < 60.0, "equits {}", r.equits);
}

#[test]
fn cost_plateau_judges_every_algorithm_by_its_map_cost() {
    // A tighter tolerance must cost more work on every ICD driver; a
    // rule fed a constant cost would stop each at its second iteration.
    let (geom, y, _) = measurement();
    for algo in [Algorithm::SequentialIcd, Algorithm::PsvIcd, Algorithm::GpuIcd] {
        let run = |tol: f64, passes: usize| {
            let stop = StopRule::CostPlateau { tol };
            Reconstructor::new(geom)
                .algorithm(algo)
                .stop(stop)
                .max_passes(passes)
                .run(&y)
                .expect("valid input")
        };
        let (loose, tight) = (run(1e-2, 200), run(1e-12, 200));
        assert!(loose.converged && tight.converged, "{algo:?} hit the pass budget");
        assert!(
            tight.equits > loose.equits,
            "{algo:?}: tol 1e-12 took {} equits, tol 1e-2 took {}",
            tight.equits,
            loose.equits
        );
        // One pass can never show a plateau: the budget ends the run.
        assert!(!run(1e-2, 1).converged, "{algo:?} claimed a plateau after one pass");
    }
}

#[test]
fn gpu_options_override_applies() {
    let (geom, y, _) = measurement();
    let opts = gpu_icd::GpuOptions {
        sv_side: 6,
        threadblocks_per_sv: 2,
        svs_per_batch: 4,
        ..Default::default()
    };
    let r = Reconstructor::new(geom)
        .algorithm(Algorithm::GpuIcd)
        .gpu_options(opts)
        .max_passes(40)
        .run(&y)
        .expect("valid input");
    assert!(r.modeled_seconds > 0.0);
}

#[test]
fn an_explicit_sv_side_wins_over_gpu_options_in_either_order() {
    let (geom, y, _) = measurement();
    let scale = gpu_icd::Scale::for_grid(geom.grid);
    let side6 = gpu_icd::GpuOptions { sv_side: 6, ..gpu_icd::gpu_options_for(scale) };
    let side4 = Reconstructor::new(geom).sv_side(4).run(&y).expect("valid input");
    for r in [
        Reconstructor::new(geom).sv_side(4).gpu_options(side6),
        Reconstructor::new(geom).gpu_options(side6).sv_side(4),
    ] {
        let r = r.run(&y).expect("valid input");
        assert_eq!(r.image, side4.image);
        assert_eq!(r.modeled_seconds.to_bits(), side4.modeled_seconds.to_bits());
    }
    let side6 = Reconstructor::new(geom).gpu_options(side6).run(&y).expect("valid input");
    assert_ne!(side6.modeled_seconds.to_bits(), side4.modeled_seconds.to_bits());
}

#[test]
fn a_sinogram_of_another_geometry_is_an_error() {
    let (_, y, _) = measurement();
    let err = Reconstructor::new(Geometry::test_scale()).run(&y).unwrap_err().to_string();
    assert!(err.contains("sinogram has 24x40") && err.contains("geometry has 96x96"), "{err}");
}

#[test]
fn a_dose_that_is_not_positive_is_an_error() {
    let (geom, y, _) = measurement();
    let err = Reconstructor::new(geom).dose(-2.0e4).run(&y).unwrap_err().to_string();
    assert!(err.contains("i0 = -20000 is not finite and positive"), "{err}");
}

#[test]
fn a_sigma_that_is_not_positive_is_an_error() {
    let (geom, y, _) = measurement();
    let err = Reconstructor::new(geom).sigma(0.0).run(&y).unwrap_err().to_string();
    assert!(err.contains("sigma = 0 is not finite and positive"), "{err}");
}

#[test]
fn gpu_options_out_of_range_are_usage_errors_naming_the_field() {
    use gpu_icd::{GpuOptions, Layout, MbirError};
    let (geom, y, _) = measurement();
    let preset = gpu_icd::gpu_options_for(gpu_icd::Scale::Tiny);
    let rows = [
        (GpuOptions { sv_side: 1, ..preset }, "sv_side must be at least 2, got 1"),
        (GpuOptions { fraction: 0.0, ..preset }, "fraction must be finite and in (0, 1], got 0"),
        (GpuOptions { threadblocks_per_sv: 0, ..preset }, "threadblocks_per_sv must be at least 1"),
        (GpuOptions { threads_per_block: 0, ..preset }, "threads_per_block must be in 1..=1024"),
        (GpuOptions { svs_per_batch: 0, ..preset }, "svs_per_batch must be at least 1, got 0"),
        (
            GpuOptions { layout: Layout::Chunked { width: 0 }, ..preset },
            "layout chunk width must be at least 1, got 0",
        ),
        (GpuOptions { amatrix_bits: 0, ..preset }, "amatrix_bits must be in 1..=8, got 0"),
        (GpuOptions { devices: 0, ..preset }, "devices must be at least 1, got 0"),
    ];
    for (opts, needle) in rows {
        match Reconstructor::new(geom).gpu_options(opts).run(&y) {
            Err(MbirError::Usage(msg)) => assert!(msg.contains(needle), "{msg} lacks {needle:?}"),
            other => panic!("{needle}: expected a usage error, got {other:?}"),
        }
    }
    let psv = Reconstructor::new(geom).algorithm(Algorithm::PsvIcd).sv_side(1).run(&y);
    match psv {
        Err(MbirError::Usage(msg)) => assert!(msg.contains("sv_side must be at least 2"), "{msg}"),
        other => panic!("PSV sv_side 1: expected a usage error, got {other:?}"),
    }
}
