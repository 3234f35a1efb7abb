//! Regenerates **Table 1**: PSV-ICD vs GPU-ICD performance over a
//! suite of synthetic baggage phantoms (the substitution for the
//! paper's 3200 ALERT TO3 cases).
//!
//! ```text
//! cargo run --release -p mbir-bench --bin repro_table1 -- \
//!     --scale test --cases 12
//! ```

use ct_core::phantom::Phantom;
use gpu_icd::{Args, MbirError};
use mbir_bench::{
    geo_mean, gpu_options_for, mean, run_gpu, run_psv, run_sequential, std_dev, Pipeline,
};
use serde::Serialize;

#[derive(Serialize)]
struct CaseRecord {
    case: String,
    seq_seconds: f64,
    psv_seconds: f64,
    gpu_seconds: f64,
    seq_equits: f64,
    psv_equits: f64,
    gpu_equits: f64,
}

fn main() -> Result<(), MbirError> {
    let args = Args::capture(&["scale", "cases"])?;
    let scale = args.scale()?;
    let cases: usize = args.get_or("cases", 8)?;
    let (cpu_side, _) = scale.sv_sides();
    let gpu_opts = gpu_options_for(scale);

    eprintln!(
        "Table 1 repro: {cases} baggage cases at {scale:?} (SV sides: CPU {cpu_side}, GPU {})",
        gpu_opts.sv_side
    );

    let mut records = Vec::new();
    let mut shared_a = None;
    for (i, phantom) in Phantom::baggage_suite(cases).iter().enumerate() {
        let p = Pipeline::build(scale, phantom, 1000 + i as u64, shared_a.take());
        let seq = run_sequential(&p, 60);
        let psv = run_psv(&p, cpu_side, 200);
        let gpu = run_gpu(&p, gpu_opts, 300);
        eprintln!(
            "  case {i}: seq {:.3}s/{:.1}eq  psv {:.4}s/{:.1}eq  gpu {:.4}s/{:.1}eq  (conv: {}/{}/{})",
            seq.seconds, seq.equits, psv.seconds, psv.equits, gpu.seconds, gpu.equits,
            seq.converged, psv.converged, gpu.converged
        );
        records.push(CaseRecord {
            case: phantom.name().to_string(),
            seq_seconds: seq.seconds,
            psv_seconds: psv.seconds,
            gpu_seconds: gpu.seconds,
            seq_equits: seq.equits,
            psv_equits: psv.equits,
            gpu_equits: gpu.equits,
        });
        shared_a = Some(p.a);
    }

    let psv_times: Vec<f64> = records.iter().map(|r| r.psv_seconds).collect();
    let gpu_times: Vec<f64> = records.iter().map(|r| r.gpu_seconds).collect();
    let psv_speedups: Vec<f64> = records.iter().map(|r| r.seq_seconds / r.psv_seconds).collect();
    let gpu_speedups: Vec<f64> = records.iter().map(|r| r.seq_seconds / r.gpu_seconds).collect();
    let psv_equits = mean(&records.iter().map(|r| r.psv_equits).collect::<Vec<_>>());
    let gpu_equits = mean(&records.iter().map(|r| r.gpu_equits).collect::<Vec<_>>());
    let psv_tpe = mean(&psv_times) / psv_equits;
    let gpu_tpe = mean(&gpu_times) / gpu_equits;

    println!("\nTable 1: Comparison of PSV-ICD and GPU-ICD MBIR Performance");
    println!("{:-<100}", "");
    println!(
        "{:<14} {:>12} {:>18} {:>12} {:>8} {:>10} {:>12}",
        "", "Mean Exec(s)", "Speedup/SeqICD", "StdDev(s)", "SV Side", "Equits", "Time/Equit(s)"
    );
    println!(
        "{:<14} {:>12.4} {:>17.2}X {:>12.4} {:>8} {:>10.1} {:>12.4}",
        "PSV-ICD(CPU)",
        mean(&psv_times),
        geo_mean(&psv_speedups),
        std_dev(&psv_times),
        cpu_side,
        psv_equits,
        psv_tpe
    );
    println!(
        "{:<14} {:>12.4} {:>17.2}X {:>12.4} {:>8} {:>10.1} {:>12.4}",
        "GPU-ICD",
        mean(&gpu_times),
        geo_mean(&gpu_speedups),
        std_dev(&gpu_times),
        gpu_opts.sv_side,
        gpu_equits,
        gpu_tpe
    );
    println!(
        "\nGPU-ICD speedup over PSV-ICD (geomean): {:.2}X   (paper: 4.43X)",
        geo_mean(&records.iter().map(|r| r.psv_seconds / r.gpu_seconds).collect::<Vec<_>>())
    );
    println!("PSV time/equit over GPU time/equit: {:.2}X   (paper: 5.86X)", psv_tpe / gpu_tpe);
    println!(
        "Other GPU parameters: chunk width 32, {} threadblocks/SV, {} SVs/batch",
        gpu_opts.threadblocks_per_sv, gpu_opts.svs_per_batch
    );

    mbir_bench::write_json("table1", &records)
}
