//! The paper's future work (Section 8): "build a model that
//! automatically selects input-specific high performing parameter
//! values". The simulated GPU makes this cheap: grid-search the tuning
//! space on the timing model for a specific input and report the best
//! configuration.
//!
//! ```text
//! cargo run --release --example autotune [seed]
//! ```

use ct_core::geometry::Geometry;
use ct_core::phantom::Phantom;
use ct_core::project::{scan, NoiseModel};
use gpu_icd::pipeline::{Case, Setup};
use gpu_icd::GpuOptions;
use mbir::stopping::{run, BoundaryAction, Stop};

fn main() {
    let seed: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(1);
    let geom = Geometry::test_scale();
    let setup = Setup::new(geom);
    let truth = Phantom::baggage(seed).render(geom.grid, 2);
    let s = scan(setup.a(), &truth, Some(NoiseModel::default_dose()), seed);
    let case = Case::new(setup, s.y, s.weights, 0.002);
    let golden = case.golden(40.0);

    let mut best: Option<(f64, GpuOptions)> = None;
    let mut tried = 0usize;
    println!("grid-searching (sv_side, tb/SV, svs/batch) on the simulated Titan X...");
    for sv_side in [6usize, 8, 12, 16] {
        for tb in [4u32, 8, 12, 24] {
            for batch in [8usize, 16, 32] {
                let opts = GpuOptions {
                    sv_side,
                    threadblocks_per_sv: tb,
                    svs_per_batch: batch,
                    ..Default::default()
                };
                let mut gpu = case.gpu(opts);
                let stop = Stop::Golden { image: &golden, hu: 10.0 };
                let out = run(&mut gpu, stop, 150, |_, _| BoundaryAction::Continue);
                tried += 1;
                if out.converged {
                    let t = gpu.modeled_seconds();
                    if best.as_ref().map(|(bt, _)| t < *bt).unwrap_or(true) {
                        println!(
                            "  new best: side {sv_side:>2}, tb {tb:>2}, batch {batch:>2} -> {:.3} ms ({:.1} equits)",
                            t * 1e3,
                            gpu.equits()
                        );
                        best = Some((t, opts));
                    }
                }
            }
        }
    }
    let (t, opts) = best.expect("at least one configuration converged");
    println!(
        "\nsearched {tried} configs; winner for baggage-{seed}: sv_side={}, tb/SV={}, svs/batch={} at {:.3} ms",
        opts.sv_side,
        opts.threadblocks_per_sv,
        opts.svs_per_batch,
        t * 1e3
    );
    println!("(the paper notes best values differ per image - exactly what this reproduces)");
}
