//! Measures the host-side parallel execution engine: wall-clock time
//! of GPU-ICD iterations, the system-matrix build, and FBP at 1, 2, 4
//! and 8 worker threads, verifying along the way that every thread
//! count produces bitwise-identical results.
//!
//! ```text
//! cargo run --release -p mbir-bench --bin repro_host_parallel -- --scale test
//! ```
//!
//! Speedups are bounded by the physical cores of the machine running
//! the benchmark (reported as `host_cores` in the JSON): on a 1-core
//! host every configuration necessarily measures ~1.0x, and the extra
//! worker threads only add scheduling overhead.

use ct_core::fbp;
use ct_core::phantom::Phantom;
use ct_core::sysmat::SystemMatrix;
use gpu_icd::{Args, GpuIcd, GpuOptions, MbirError};
use mbir_bench::{gpu_options_for, Pipeline};
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct Point {
    threads: usize,
    gpu_iterations_s: f64,
    sysmat_build_s: f64,
    fbp_s: f64,
    gpu_speedup_vs_1: f64,
    sysmat_speedup_vs_1: f64,
}

#[derive(Serialize)]
struct Report {
    host_cores: usize,
    scale: String,
    gpu_iterations: usize,
    bitwise_identical: bool,
    points: Vec<Point>,
}

fn main() -> Result<(), MbirError> {
    let args = Args::capture(&["scale", "iters"])?;
    let scale = args.scale()?;
    let iters: usize = args.get_or("iters", 10)?;
    let p = Pipeline::build(scale, &Phantom::baggage(0), 42, None);
    let base = gpu_options_for(scale);

    let run_gpu = |threads: usize| {
        let opts = GpuOptions { threads, ..base };
        let mut gpu = GpuIcd::new(&p.a, &p.scan.y, &p.scan.weights, &p.prior, p.init.clone(), opts);
        let t0 = Instant::now();
        for _ in 0..iters {
            gpu.iteration();
        }
        (t0.elapsed().as_secs_f64(), gpu.image().clone())
    };

    println!("Host execution engine: {} cores available", mbir_parallel::available());
    println!("{:-<64}", "");
    println!(
        "{:>8} {:>14} {:>14} {:>10} {:>8}",
        "threads", "gpu iters (s)", "sysmat (s)", "fbp (s)", "speedup"
    );

    let mut points = Vec::new();
    let mut reference = None;
    let mut identical = true;
    for threads in [1usize, 2, 4, 8] {
        let (gpu_s, img) = run_gpu(threads);
        match &reference {
            None => reference = Some(img),
            Some(r) => identical &= *r == img,
        }
        let t0 = Instant::now();
        let a2 = SystemMatrix::compute_parallel(&p.geom, threads);
        let sysmat_s = t0.elapsed().as_secs_f64();
        assert_eq!(a2.nnz(), p.a.nnz());

        mbir_parallel::set_threads(threads);
        let t0 = Instant::now();
        let r = fbp::reconstruct(&p.geom, &p.scan.y);
        let fbp_s = t0.elapsed().as_secs_f64();
        mbir_parallel::set_threads(0);
        identical &= r == p.init;

        let gpu1 = points.first().map_or(gpu_s, |f: &Point| f.gpu_iterations_s);
        let sm1 = points.first().map_or(sysmat_s, |f: &Point| f.sysmat_build_s);
        println!(
            "{threads:>8} {gpu_s:>14.4} {sysmat_s:>14.4} {fbp_s:>10.4} {:>7.2}X",
            gpu1 / gpu_s
        );
        points.push(Point {
            threads,
            gpu_iterations_s: gpu_s,
            sysmat_build_s: sysmat_s,
            fbp_s,
            gpu_speedup_vs_1: gpu1 / gpu_s,
            sysmat_speedup_vs_1: sm1 / sysmat_s,
        });
    }

    println!(
        "\nbitwise identical across thread counts: {identical} (speedup ceiling: {} cores)",
        mbir_parallel::available()
    );
    assert!(identical, "thread count changed results — determinism contract broken");
    let report = Report {
        host_cores: mbir_parallel::available(),
        scale: format!("{scale:?}"),
        gpu_iterations: iters,
        bitwise_identical: identical,
        points,
    };
    mbir_bench::write_json("BENCH_host_parallel", &report)
}
