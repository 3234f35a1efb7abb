//! Diagnostic: per-kernel modeled time and bandwidth breakdown of a
//! GPU-ICD run, plus the convergence trace.
//!
//! ```text
//! cargo run --release -p mbir-bench --bin kernel_breakdown -- --scale test
//! ```

use ct_core::phantom::Phantom;
use gpu_icd::{Args, MbirError};
use mbir_bench::{gpu_options_for, to_golden, Pipeline};

fn main() -> Result<(), MbirError> {
    let args = Args::capture(&["scale", "seed"])?;
    let scale = args.scale()?;
    let p = Pipeline::build(scale, &Phantom::baggage(args.get_or("seed", 0u64)?), 1000, None);
    let opts = gpu_options_for(scale);
    let mut gpu = p.case.gpu(opts);
    let trace = to_golden(&mut gpu, &p, 300).trace;

    println!(
        "total {:.5}s, {:.2} equits, final RMSE {:.2} HU",
        gpu.modeled_seconds(),
        gpu.equits(),
        trace.last().unwrap().rmse_hu
    );
    let rs = gpu.run_stats();
    println!(
        "create:    {:.5}s x{:<4} (l2 {:>5.0} GB/s, dram {:>5.0} GB/s)",
        rs.create.seconds,
        rs.create.launches,
        rs.create.l2_gbps(),
        rs.create.dram_gbps()
    );
    println!(
        "mbir:      {:.5}s x{:<4} (l2 {:>5.0}, tex {:>5.0}, dram {:>5.0}, shared {:>5.0} GB/s)",
        rs.mbir.seconds,
        rs.mbir.launches,
        rs.mbir.l2_gbps(),
        rs.mbir.tex_gbps(),
        rs.mbir.dram_gbps(),
        rs.mbir.shared_gbps()
    );
    println!("writeback: {:.5}s x{:<4}", rs.writeback.seconds, rs.writeback.launches);
    println!("\nconvergence trace (every 4th point):");
    for pt in trace.points.iter().step_by(4) {
        println!("  eq {:6.2}  t {:9.5}s  rmse {:9.3} HU", pt.equits, pt.seconds, pt.rmse_hu);
    }
    Ok(())
}
