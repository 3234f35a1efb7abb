//! Regenerates **Fig. 7**: the four tuning-parameter sweeps.
//!
//! - panel a: SuperVoxel side length (time, equits, L2 throughput)
//! - panel b: threadblocks per SV (intra-SV parallelism)
//! - panel c: threads per threadblock (intra-voxel parallelism)
//! - panel d: SVs per kernel batch
//!
//! ```text
//! cargo run --release -p mbir-bench --bin repro_fig7 -- \
//!     --scale test --panel a
//! ```
//! Omit `--panel` to run all four.

use ct_core::phantom::Phantom;
use gpu_icd::{Args, GpuIcd, GpuOptions, MbirError};
use mbir_bench::{gpu_options_for, Pipeline, Scale};
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    panel: char,
    x: u64,
    seconds: f64,
    equits: f64,
    l2_gbps: f64,
    converged: bool,
}

fn run(p: &Pipeline, opts: GpuOptions) -> (f64, f64, f64, bool) {
    let mut gpu = GpuIcd::new(&p.a, &p.scan.y, &p.scan.weights, &p.prior, p.init.clone(), opts);
    let trace = gpu.run_to_rmse(&p.golden, 10.0, 400);
    let converged = trace.last().map(|pt| pt.rmse_hu < 10.0).unwrap_or(false);
    (gpu.modeled_seconds(), gpu.equits(), gpu.run_stats().mbir.l2_gbps(), converged)
}

fn main() -> Result<(), MbirError> {
    let args = Args::capture(&["scale", "panel"])?;
    let scale = args.scale()?;
    let panel = match args.get("panel")? {
        None => None,
        Some(p @ ("a" | "b" | "c" | "d")) => p.chars().next(),
        Some(p) => return Err(MbirError::Usage(format!("unknown --panel '{p}' (a, b, c, d)"))),
    };
    let base = gpu_options_for(scale);
    let p = Pipeline::build(scale, &Phantom::baggage(0), 42, None);
    let mut points: Vec<Point> = Vec::new();

    // Below paper scale, large SV sides leave so few SVs that the
    // batch threshold starves entire iterations (a real interaction,
    // but a confound for panels a and d); disable it there.
    let no_thresh = GpuOptions { batch_threshold: scale == Scale::Paper, ..base };

    if panel.is_none() || panel == Some('a') {
        println!("\nFig. 7a: SuperVoxel side length");
        println!("{:>8} {:>12} {:>8} {:>14}", "side", "time (s)", "equits", "L2 GB/s");
        let sides: &[usize] = match scale {
            Scale::Tiny => &[4, 6, 8, 12],
            Scale::Test => &[4, 6, 8, 12, 16, 21],
            _ => &[9, 17, 25, 33, 41, 49],
        };
        for &side in sides {
            let (s, e, l2, ok) = run(&p, GpuOptions { sv_side: side, ..no_thresh });
            println!(
                "{side:>8} {s:>12.5} {e:>8.1} {l2:>14.0}{}",
                if ok { "" } else { "  (did not converge)" }
            );
            points.push(Point {
                panel: 'a',
                x: side as u64,
                seconds: s,
                equits: e,
                l2_gbps: l2,
                converged: ok,
            });
        }
    }

    if panel.is_none() || panel == Some('b') {
        println!("\nFig. 7b: threadblocks per SV (intra-SV parallelism)");
        println!("{:>8} {:>12} {:>8}", "TB/SV", "time (s)", "equits");
        for &tb in &[1u32, 2, 4, 8, 16, 32, 40, 64] {
            let (s, e, l2, ok) = run(&p, GpuOptions { threadblocks_per_sv: tb, ..base });
            println!("{tb:>8} {s:>12.5} {e:>8.1}{}", if ok { "" } else { "  (did not converge)" });
            points.push(Point {
                panel: 'b',
                x: tb as u64,
                seconds: s,
                equits: e,
                l2_gbps: l2,
                converged: ok,
            });
        }
    }

    if panel.is_none() || panel == Some('c') {
        println!("\nFig. 7c: threads per threadblock (intra-voxel parallelism)");
        println!("{:>8} {:>12} {:>8}", "threads", "time (s)", "equits");
        for &t in &[64u32, 128, 192, 256, 384, 512] {
            let (s, e, l2, ok) = run(&p, GpuOptions { threads_per_block: t, ..base });
            println!("{t:>8} {s:>12.5} {e:>8.1}{}", if ok { "" } else { "  (did not converge)" });
            points.push(Point {
                panel: 'c',
                x: t as u64,
                seconds: s,
                equits: e,
                l2_gbps: l2,
                converged: ok,
            });
        }
    }

    if panel.is_none() || panel == Some('d') {
        println!("\nFig. 7d: SVs per kernel batch");
        println!("{:>8} {:>12} {:>8}", "batch", "time (s)", "equits");
        let batches: &[usize] = match scale {
            Scale::Tiny => &[1, 2, 4, 8],
            Scale::Test => &[2, 4, 8, 16, 32],
            _ => &[4, 8, 16, 32, 64, 128],
        };
        for &b in batches {
            let (s, e, l2, ok) = run(&p, GpuOptions { svs_per_batch: b, ..no_thresh });
            println!("{b:>8} {s:>12.5} {e:>8.1}{}", if ok { "" } else { "  (did not converge)" });
            points.push(Point {
                panel: 'd',
                x: b as u64,
                seconds: s,
                equits: e,
                l2_gbps: l2,
                converged: ok,
            });
        }
    }

    mbir_bench::write_json("fig7", &points)
}
