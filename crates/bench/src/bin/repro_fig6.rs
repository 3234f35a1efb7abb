//! Regenerates **Fig. 6**: speedup of the transposed/zero-padded
//! (chunked) layout over the naive layout, across chunk widths.
//!
//! ```text
//! cargo run --release -p mbir-bench --bin repro_fig6 -- --scale test
//! ```

use ct_core::phantom::Phantom;
use gpu_icd::{Args, GpuOptions, Layout, MbirError};
use mbir_bench::{gpu_options_for, run_gpu, Pipeline};
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    chunk_width: u32,
    seconds: f64,
    speedup_over_naive: f64,
}

fn main() -> Result<(), MbirError> {
    let args = Args::capture(&["scale"])?;
    let scale = args.scale()?;
    let base = gpu_options_for(scale);

    let p = Pipeline::build(scale, &Phantom::baggage(0), 42, None);
    let naive = run_gpu(&p, GpuOptions { layout: Layout::Naive, ..base }, 300);
    eprintln!("naive layout: {:.5}s ({:.1} equits)", naive.seconds, naive.equits);

    println!("Fig. 6: Speedup of data-layout-transformed code vs default layout");
    println!("{:-<48}", "");
    println!("{:>12} {:>12} {:>12}", "chunk width", "time (s)", "speedup");
    let mut points = Vec::new();
    for width in [8u32, 16, 24, 32, 40, 48, 64] {
        let opts = GpuOptions { layout: Layout::Chunked { width }, ..base };
        let r = run_gpu(&p, opts, 300);
        let speedup = naive.seconds / r.seconds;
        println!("{width:>12} {:>12.5} {speedup:>11.2}X", r.seconds);
        points.push(Point { chunk_width: width, seconds: r.seconds, speedup_over_naive: speedup });
    }
    let best = points
        .iter()
        .max_by(|a, b| a.speedup_over_naive.partial_cmp(&b.speedup_over_naive).unwrap())
        .unwrap();
    println!(
        "\nBest width: {} at {:.2}X   (paper: width 32 at 2.1X)",
        best.chunk_width, best.speedup_over_naive
    );
    mbir_bench::write_json("fig6", &points)
}
