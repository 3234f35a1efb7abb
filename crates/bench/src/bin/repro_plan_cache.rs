//! Measures the iteration-invariant SV plan cache: wall-clock time of
//! GPU-ICD iterations with the cache on vs off (results are bitwise
//! identical — verified inline), plus the one-time plan build cost
//! being amortized.
//!
//! ```text
//! cargo run --release -p mbir-bench --bin repro_plan_cache -- --scale test
//! ```
//!
//! The uncached driver re-quantizes and re-chunks every visited column
//! on every iteration; the cached driver reads it all from the plan
//! built once at setup. The speedup is host wall-clock only — modeled
//! GPU seconds are identical by construction.

use ct_core::phantom::Phantom;
use gpu_icd::{Args, GpuIcd, GpuOptions, MbirError};
use mbir_bench::{gpu_options_for, Pipeline};
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct Report {
    host_cores: usize,
    scale: String,
    iterations: usize,
    threads: usize,
    plan_build_s: f64,
    cached_s: f64,
    uncached_s: f64,
    speedup: f64,
    bitwise_identical: bool,
}

fn main() -> Result<(), MbirError> {
    let args = Args::capture(&["scale", "iters", "threads"])?;
    let scale = args.scale()?;
    let iters: usize = args.get_or("iters", 10)?;
    let threads: usize = args.get_or("threads", 1)?;
    let p = Pipeline::build(scale, &Phantom::baggage(0), 42, None);
    let base = gpu_options_for(scale);

    let run = |plan_cache: bool| {
        let opts = GpuOptions { plan_cache, threads, ..base };
        let t0 = Instant::now();
        let mut gpu = GpuIcd::new(&p.a, &p.scan.y, &p.scan.weights, &p.prior, p.init.clone(), opts);
        let setup_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        for _ in 0..iters {
            gpu.iteration();
        }
        (setup_s, t0.elapsed().as_secs_f64(), gpu.image().clone(), gpu.error().clone())
    };

    // Warm-up pass so neither measured run pays first-touch costs.
    run(true);

    let (plan_build_s, cached_s, cached_img, cached_err) = run(true);
    let (_, uncached_s, uncached_img, uncached_err) = run(false);
    let identical = cached_img == uncached_img && cached_err == uncached_err;
    let speedup = uncached_s / cached_s;

    println!("SV plan cache ({iters} GPU-ICD iterations, {threads} host thread(s)):");
    println!("{:-<64}", "");
    println!("{:>24} {:>12}", "plan build (s)", plan_build_s);
    println!("{:>24} {:>12.4}", "cached iters (s)", cached_s);
    println!("{:>24} {:>12.4}", "uncached iters (s)", uncached_s);
    println!("{:>24} {:>11.2}X", "speedup", speedup);
    println!("bitwise identical: {identical}");
    assert!(identical, "plan cache changed results — equivalence contract broken");

    let report = Report {
        host_cores: mbir_parallel::available(),
        scale: format!("{scale:?}"),
        iterations: iters,
        threads,
        plan_build_s,
        cached_s,
        uncached_s,
        speedup,
        bitwise_identical: identical,
    };
    mbir_bench::write_json("BENCH_plan_cache", &report)
}
