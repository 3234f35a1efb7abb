//! Diagnostic: per-kernel modeled time and bandwidth breakdown of a
//! GPU-ICD run, plus the convergence trace.
//!
//! ```text
//! cargo run --release -p mbir-bench --bin kernel_breakdown -- --scale test
//! ```

use ct_core::phantom::Phantom;
use gpu_icd::{Args, MbirError};
use mbir_bench::{gpu_options_for, to_golden, Pipeline};
use mbir_telemetry::RecordingSink;
use std::sync::Arc;

fn main() -> Result<(), MbirError> {
    let args = Args::capture(&["scale", "seed"])?;
    let scale = args.scale()?;
    let p = Pipeline::build(scale, &Phantom::baggage(args.get_or("seed", 0u64)?), 1000, None);
    let opts = gpu_options_for(scale);
    let mut gpu = p.case.gpu(opts);
    let sink = Arc::new(RecordingSink::new());
    gpu.set_profile_sink(sink.clone());
    let trace = to_golden(&mut gpu, &p, 300).trace;

    println!(
        "total {:.5}s, {:.2} equits, final RMSE {:.2} HU",
        gpu.modeled_seconds(),
        gpu.equits(),
        trace.last().unwrap().rmse_hu
    );
    let report = sink.report("gpu-icd");
    let kernel = |name| report.kernel(name).unwrap_or_else(|| panic!("{name} spans recorded"));
    let (create, mbir, writeback) =
        (kernel("svb_create"), kernel("mbir_update"), kernel("error_writeback"));
    println!(
        "create:    {:.5}s x{:<4} (l2 {:>5.0} GB/s, dram {:>5.0} GB/s)",
        create.seconds, create.launches, create.l2_gbps, create.dram_gbps
    );
    println!(
        "mbir:      {:.5}s x{:<4} (l2 {:>5.0}, tex {:>5.0}, dram {:>5.0}, shared {:>5.0} GB/s)",
        mbir.seconds,
        mbir.launches,
        mbir.l2_gbps,
        mbir.tex_gbps,
        mbir.dram_gbps,
        mbir.shared_bytes / mbir.seconds / 1e9
    );
    println!("writeback: {:.5}s x{:<4}", writeback.seconds, writeback.launches);
    println!("\nconvergence trace (every 4th point):");
    for pt in trace.points.iter().step_by(4) {
        println!("  eq {:6.2}  t {:9.5}s  rmse {:9.3} HU", pt.equits, pt.seconds, pt.rmse_hu);
    }
    Ok(())
}
