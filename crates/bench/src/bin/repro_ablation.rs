//! Ablation studies beyond the paper's tables — the design choices
//! DESIGN.md calls out:
//!
//! 1. **checkerboard off**: adjacent SVs share batches and their shared
//!    boundary voxels are updated from inconsistent error snapshots
//!    (the corruption Fig. 3's partition prevents);
//! 2. **SV selection fraction**: the paper raises PSV-ICD's 20% to 25%
//!    on the GPU to keep the four checkerboard groups populated;
//! 3. **A-matrix quantization bit width**: the paper picks 8 bits;
//!    fewer bits shrink the A stream but bias the fixed point.
//!
//! ```text
//! cargo run --release -p mbir-bench --bin repro_ablation -- --scale test
//! ```

use ct_core::phantom::Phantom;
use gpu_icd::{AMatrixMode, Args, GpuOptions, MbirError};
use mbir_bench::{gpu_options_for, run_gpu, Pipeline};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    study: &'static str,
    setting: String,
    seconds: f64,
    equits: f64,
    rmse_hu: f32,
    converged: bool,
}

fn main() -> Result<(), MbirError> {
    let args = Args::capture(&["scale"])?;
    let scale = args.scale()?;
    let base = gpu_options_for(scale);
    let p = Pipeline::build(scale, &Phantom::baggage(0), 42, None);
    let mut rows: Vec<Row> = Vec::new();
    let mut push = |study: &'static str, setting: String, r: &mbir_bench::RunResult| {
        println!(
            "{study:<22} {setting:<18} {:>10.5}s {:>7.2} eq {:>9.2} HU  conv={}",
            r.seconds, r.equits, r.rmse_hu, r.converged
        );
        rows.push(Row {
            study,
            setting,
            seconds: r.seconds,
            equits: r.equits,
            rmse_hu: r.rmse_hu,
            converged: r.converged,
        });
    };

    println!(
        "{:<22} {:<18} {:>11} {:>10} {:>12}",
        "study", "setting", "time", "equits", "final rmse"
    );
    println!("{:-<80}", "");

    // 1. Checkerboard partition.
    for (name, cb) in [("on (paper)", true), ("off", false)] {
        let r = run_gpu(&p, GpuOptions { checkerboard: cb, ..base }, 400);
        push("checkerboard", name.into(), &r);
    }

    // 2. Selection fraction.
    for frac in [0.15f32, 0.20, 0.25, 0.30] {
        let r = run_gpu(&p, GpuOptions { fraction: frac, ..base }, 400);
        push("selection-fraction", format!("{:.0}%", frac * 100.0), &r);
    }

    // 3. Quantization bit width (texture path).
    {
        let r = run_gpu(&p, GpuOptions { amatrix: AMatrixMode::TextureF32, ..base }, 400);
        push("amatrix-bits", "f32".into(), &r);
    }
    for bits in [8u32, 6, 4, 2] {
        let r = run_gpu(
            &p,
            GpuOptions { amatrix: AMatrixMode::TextureU8, amatrix_bits: bits, ..base },
            400,
        );
        push("amatrix-bits", format!("{bits}"), &r);
    }

    mbir_bench::write_json("ablation", &rows)
}
