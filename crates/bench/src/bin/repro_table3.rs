//! Regenerates **Table 3**: slowdown when each GPU-specific
//! optimization is turned off.
//!
//! ```text
//! cargo run --release -p mbir-bench --bin repro_table3 -- --scale test
//! ```

use ct_core::phantom::Phantom;
use gpu_icd::{Args, GpuOptions, L2ReadWidth, MbirError, RegisterMode};
use mbir_bench::{gpu_options_for, run_gpu, Pipeline};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    optimization: &'static str,
    baseline_seconds: f64,
    disabled_seconds: f64,
    slowdown: f64,
    paper_slowdown: f64,
}

fn main() -> Result<(), MbirError> {
    let args = Args::capture(&["scale"])?;
    let scale = args.scale()?;
    let base_opts = gpu_options_for(scale);
    let p = Pipeline::build(scale, &Phantom::baggage(0), 42, None);

    let base = run_gpu(&p, base_opts, 300);
    eprintln!("baseline (all optimizations on): {:.5}s", base.seconds);

    let variants: Vec<(&'static str, GpuOptions, f64)> = vec![
        (
            "Reading Sinogram as double",
            GpuOptions { l2_read: L2ReadWidth::Float, ..base_opts },
            1.053,
        ),
        (
            "Placing Variables on the Shared Memory",
            GpuOptions { registers: RegisterMode::Regs44, ..base_opts },
            1.124,
        ),
        ("Exploiting Intra-SV Parallelism", GpuOptions { intra_sv: false, ..base_opts }, 6.251),
        ("Dynamic voxel distribution", GpuOptions { dynamic_voxels: false, ..base_opts }, 1.064),
        (
            "Setting threshold for batch sizes",
            GpuOptions { batch_threshold: false, ..base_opts },
            1.099,
        ),
    ];

    println!("Table 3: Impact of GPU-specific optimizations (turned off one at a time)");
    println!("{:-<86}", "");
    println!(
        "{:<42} {:>14} {:>12} {:>12}",
        "Optimization Turned Off", "slowdown", "paper", "time (s)"
    );
    let mut rows = Vec::new();
    for (name, opts, paper) in variants {
        let r = run_gpu(&p, opts, 400);
        let slowdown = r.seconds / base.seconds;
        println!("{name:<42} {slowdown:>13.3}X {paper:>11.3}X {:>12.5}", r.seconds);
        rows.push(Row {
            optimization: name,
            baseline_seconds: base.seconds,
            disabled_seconds: r.seconds,
            slowdown,
            paper_slowdown: paper,
        });
    }
    mbir_bench::write_json("table3", &rows)
}
