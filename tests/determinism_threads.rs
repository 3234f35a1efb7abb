//! Host-thread determinism: the parallel execution engine must be a
//! pure wall-clock optimization. Running the GPU-ICD driver with 1 or
//! 8 host worker threads has to produce bitwise-identical images,
//! error sinograms, modeled seconds, and per-iteration counters —
//! the checkerboard guarantee (disjoint write sets, frozen cross-SV
//! neighbour reads) plus SV-id-ordered commit make this exact, not
//! approximate.

use ct_core::fbp;
use ct_core::geometry::Geometry;
use ct_core::phantom::Phantom;
use ct_core::project::{scan, NoiseModel, Scan};
use ct_core::sysmat::SystemMatrix;
use gpu_icd::{GpuIcd, GpuIterationReport, GpuOptions};
use mbir::prior::QggmrfPrior;
use mbir_telemetry::RecordingSink;
use psv_icd::{PsvConfig, PsvIcd};
use std::sync::Arc;

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

/// A profiled GPU-ICD run of `iters` iterations on `threads` workers.
fn run_gpu(
    s: &Setup,
    threads: usize,
    iters: usize,
) -> (GpuIcd<'_, QggmrfPrior>, Vec<GpuIterationReport>, Arc<RecordingSink>) {
    let opts = GpuOptions {
        sv_side: 6,
        threadblocks_per_sv: 4,
        svs_per_batch: 4,
        threads,
        ..Default::default()
    };
    let mut gpu = GpuIcd::new(&s.a, &s.scan.y, &s.scan.weights, &s.prior, s.init.clone(), opts);
    let sink = Arc::new(RecordingSink::new());
    gpu.set_profile_sink(sink.clone());
    let reports = (0..iters).map(|_| gpu.iteration()).collect();
    (gpu, reports, sink)
}

#[test]
fn gpu_driver_is_bitwise_identical_across_thread_counts() {
    let s = setup();
    let (gpu1, reports1, _) = run_gpu(&s, 1, 6);
    for threads in [2usize, 8] {
        let (gpun, reportsn, _) = run_gpu(&s, threads, 6);
        assert_eq!(gpu1.image(), gpun.image(), "image differs at {threads} threads");
        assert_eq!(gpu1.error(), gpun.error(), "error sinogram differs at {threads} threads");
        assert_eq!(reports1, reportsn, "iteration reports differ at {threads} threads");
        assert_eq!(
            gpu1.modeled_seconds(),
            gpun.modeled_seconds(),
            "modeled seconds differ at {threads} threads"
        );
    }
}

#[test]
fn gpu_counters_and_stats_match_across_thread_counts() {
    let s = setup();
    let (gpu1, _, sink1) = run_gpu(&s, 1, 4);
    let (gpu8, _, sink8) = run_gpu(&s, 8, 4);
    assert_eq!(gpu1.stats(), gpu8.stats());
    assert_eq!(gpu1.equits(), gpu8.equits());
    // Every kernel class: same launches, and the same seconds and bytes
    // bit for bit.
    let (r1, r8) = (sink1.report("gpu-icd"), sink8.report("gpu-icd"));
    assert_eq!(r1.kernels.len(), 3);
    let bits = |k: &mbir_telemetry::KernelClassAgg| {
        let sums = [k.seconds, k.l2_bytes, k.tex_bytes, k.dram_bytes, k.shared_bytes];
        (k.kernel.clone(), k.launches, sums.map(f64::to_bits))
    };
    let kernels =
        |r: &mbir_telemetry::ProfileReport| r.kernels.iter().map(bits).collect::<Vec<_>>();
    assert_eq!(kernels(&r1), kernels(&r8));
}

#[test]
fn psv_driver_is_bitwise_identical_across_thread_counts() {
    let s = setup();
    let run = |threads: usize| {
        let mut psv = PsvIcd::new(
            &s.a,
            &s.scan.y,
            &s.scan.weights,
            &s.prior,
            s.init.clone(),
            PsvConfig { sv_side: 6, threads },
        );
        for _ in 0..6 {
            psv.iteration();
        }
        (psv.image().clone(), psv.modeled_seconds())
    };
    let (img1, t1) = run(1);
    let (img8, t8) = run(8);
    assert_eq!(img1, img8);
    assert_eq!(t1, t8);
}

#[test]
fn projection_paths_are_identical_across_thread_counts() {
    // forward/back/FBP take their worker count from the process-wide
    // setting; their partitioning is fixed, so pinning different
    // counts must not change a single bit.
    let geom = Geometry::tiny_scale();
    let a = SystemMatrix::compute(&geom);
    let truth = Phantom::shepp_logan().render(geom.grid, 2);
    let run = |threads: usize| {
        mbir_parallel::set_threads(threads);
        let y = a.forward(&truth);
        let b = a.back(&y);
        let r = fbp::reconstruct(&geom, &y);
        mbir_parallel::set_threads(0);
        (y, b, r)
    };
    let (y1, b1, r1) = run(1);
    let (y8, b8, r8) = run(8);
    assert_eq!(y1, y8);
    assert_eq!(b1, b8);
    assert_eq!(r1, r8);
}
