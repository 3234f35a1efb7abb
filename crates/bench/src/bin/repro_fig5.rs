//! Regenerates **Fig. 5**: convergence (RMSE vs modeled time) of
//! PSV-ICD and GPU-ICD on a representative image.
//!
//! ```text
//! cargo run --release -p mbir-bench --bin repro_fig5 -- --scale test
//! ```

use ct_core::phantom::Phantom;
use gpu_icd::{Args, MbirError};
use mbir_bench::{gpu_options_for, run_gpu, run_psv, Pipeline};
use serde::Serialize;

#[derive(Serialize)]
struct Series {
    algo: String,
    seconds: Vec<f64>,
    rmse_hu: Vec<f32>,
}

fn main() -> Result<(), MbirError> {
    let args = Args::capture(&["scale"])?;
    let scale = args.scale()?;
    let (cpu_side, _) = scale.sv_sides();

    let p = Pipeline::build(scale, &Phantom::baggage(0), 42, None);
    let psv = run_psv(&p, cpu_side, 200);
    let gpu = run_gpu(&p, gpu_options_for(scale), 300);

    println!("Fig. 5: Convergence of PSV-ICD (CPU) and GPU-ICD");
    println!("{:-<64}", "");
    println!("{:<26} | GPU-ICD", "PSV-ICD (CPU)");
    println!("{:>12} {:>12} | {:>12} {:>12}", "time (s)", "RMSE (HU)", "time (s)", "RMSE (HU)");
    let n = psv.trace.points.len().max(gpu.trace.points.len());
    for i in 0..n {
        let left = psv
            .trace
            .points
            .get(i)
            .map(|pt| format!("{:>12.4} {:>12.2}", pt.seconds, pt.rmse_hu))
            .unwrap_or_else(|| format!("{:>12} {:>12}", "", ""));
        let right = gpu
            .trace
            .points
            .get(i)
            .map(|pt| format!("{:>12.5} {:>12.2}", pt.seconds, pt.rmse_hu))
            .unwrap_or_default();
        println!("{left} | {right}");
    }
    let psv_cross = psv.trace.crossing(10.0);
    let gpu_cross = gpu.trace.crossing(10.0);
    println!(
        "\n10 HU crossing: PSV at {:?}s, GPU at {:?}s",
        psv_cross.map(|c| c.seconds),
        gpu_cross.map(|c| c.seconds)
    );
    if let (Some(pc), Some(gc)) = (psv_cross, gpu_cross) {
        println!(
            "GPU reaches convergence {:.1}X sooner (paper: 'much more rapidly')",
            pc.seconds / gc.seconds
        );
    }

    let series = vec![
        Series {
            algo: "psv-icd".into(),
            seconds: psv.trace.points.iter().map(|p| p.seconds).collect(),
            rmse_hu: psv.trace.points.iter().map(|p| p.rmse_hu).collect(),
        },
        Series {
            algo: "gpu-icd".into(),
            seconds: gpu.trace.points.iter().map(|p| p.seconds).collect(),
            rmse_hu: gpu.trace.points.iter().map(|p| p.rmse_hu).collect(),
        },
    ];
    mbir_bench::write_json("fig5", &series)
}
