//! Measures the SIMD lane backend on the three hot paths it rewrites:
//! GPU-ICD iterations, the system-matrix build, and FBP — scalar vs
//! 8-lane backend, with the outputs verified bitwise identical inline
//! (the backends share one canonical lane-reduction order, so the
//! delta is pure wall-clock).
//!
//! ```text
//! cargo run --release -p mbir-bench --bin repro_simd -- --scale test
//! ```

use ct_core::fbp;
use ct_core::phantom::Phantom;
use ct_core::sysmat::SystemMatrix;
use gpu_icd::{Args, GpuIcd, GpuOptions, MbirError};
use mbir_bench::{gpu_options_for, Pipeline};
use mbir_simd::SimdBackend;
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct PathReport {
    scalar_s: f64,
    lanes_s: f64,
    speedup: f64,
    bitwise_identical: bool,
}

#[derive(Serialize)]
struct Report {
    host_cores: usize,
    scale: String,
    iterations: usize,
    threads: usize,
    gpu_iteration: PathReport,
    sysmat_build: PathReport,
    fbp: PathReport,
}

/// Best-of-N wall-clock of `f`, returning (seconds, last result).
fn best_of<T>(n: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..n {
        let t0 = Instant::now();
        let r = f();
        best = best.min(t0.elapsed().as_secs_f64());
        out = Some(r);
    }
    (best, out.unwrap())
}

fn path(label: &str, scalar_s: f64, lanes_s: f64, identical: bool) -> PathReport {
    let speedup = scalar_s / lanes_s;
    println!("{label:>24} {scalar_s:>10.4} {lanes_s:>10.4} {speedup:>8.2}X  identical={identical}");
    assert!(identical, "{label}: lane backend changed results — bitwise contract broken");
    PathReport { scalar_s, lanes_s, speedup, bitwise_identical: identical }
}

fn main() -> Result<(), MbirError> {
    let args = Args::capture(&["scale", "iters", "threads", "reps"])?;
    let scale = args.scale()?;
    let iters: usize = args.get_or("iters", 10)?;
    let threads: usize = args.get_or("threads", 1)?;
    let reps: usize = args.get_or("reps", 3)?;
    mbir_parallel::set_threads(threads);
    let p = Pipeline::build(scale, &Phantom::baggage(0), 42, None);
    let base = gpu_options_for(scale);

    println!("SIMD lane backend, scalar vs lanes ({scale:?}, {threads} host thread(s)):");
    println!("{:>24} {:>10} {:>10} {:>9}", "path", "scalar(s)", "lanes(s)", "speedup");
    println!("{:-<72}", "");

    // GPU-ICD iterations. The driver is rebuilt per run so each
    // measures iteration-only work on identical starting state.
    let run_gpu = |simd: SimdBackend| {
        let opts = GpuOptions { simd, threads, ..base };
        let mut gpu = GpuIcd::new(&p.a, &p.scan.y, &p.scan.weights, &p.prior, p.init.clone(), opts);
        let t0 = Instant::now();
        for _ in 0..iters {
            gpu.iteration();
        }
        (t0.elapsed().as_secs_f64(), gpu.image().clone(), gpu.error().clone())
    };
    run_gpu(SimdBackend::Lanes); // warm-up: first-touch page faults
    let (gs, gsi, gse) = (0..reps)
        .map(|_| run_gpu(SimdBackend::Scalar))
        .fold((f64::INFINITY, None, None), |(b, _, _), (t, i, e)| (b.min(t), Some(i), Some(e)));
    let (gl, gli, gle) = (0..reps)
        .map(|_| run_gpu(SimdBackend::Lanes))
        .fold((f64::INFINITY, None, None), |(b, _, _), (t, i, e)| (b.min(t), Some(i), Some(e)));
    let gpu_iteration = path("gpu_icd_iteration", gs, gl, gsi == gli && gse == gle);

    // System-matrix build.
    mbir_simd::set_backend(SimdBackend::Scalar);
    let (ss, sa) = best_of(reps, || SystemMatrix::compute(&p.geom));
    mbir_simd::set_backend(SimdBackend::Lanes);
    let (sl, la) = best_of(reps, || SystemMatrix::compute(&p.geom));
    let sysmat_build = path("sysmat_build", ss, sl, sa.forward(&p.init) == la.forward(&p.init));

    // FBP (ramp filter + back projection).
    mbir_simd::set_backend(SimdBackend::Scalar);
    let (fs, fr) = best_of(reps, || fbp::reconstruct(&p.geom, &p.scan.y));
    mbir_simd::set_backend(SimdBackend::Lanes);
    let (fl, lr) = best_of(reps, || fbp::reconstruct(&p.geom, &p.scan.y));
    mbir_simd::set_backend(SimdBackend::Auto);
    let fbp_report = path("fbp_reconstruct", fs, fl, fr == lr);

    let report = Report {
        host_cores: mbir_parallel::available(),
        scale: format!("{scale:?}"),
        iterations: iters,
        threads,
        gpu_iteration,
        sysmat_build,
        fbp: fbp_report,
    };
    mbir_bench::write_json("BENCH_simd", &report)
}
