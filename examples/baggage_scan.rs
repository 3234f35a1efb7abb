//! Security-scan scenario: the paper's motivating domain (DHS ALERT
//! explosive-detection systems). Reconstructs a synthetic baggage
//! slice with all three algorithms and compares modeled wall-clock —
//! the "is MBIR fast enough for a checkpoint?" question.
//!
//! ```text
//! cargo run --release --example baggage_scan [seed]
//! ```

use ct_core::hu::{hu_from_mu, rmse_hu};
use ct_core::phantom::Phantom;
use ct_core::project::{scan, NoiseModel};
use gpu_icd::pipeline::{Case, Setup};
use gpu_icd::{gpu_options_for, psv_options_for, Scale};
use mbir::stopping::{run, BoundaryAction, Driver, Stop};

fn main() {
    let seed: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(3);
    let scale = Scale::Test;
    let geom = scale.geometry();
    let bag = Phantom::baggage(seed);
    let truth = bag.render(geom.grid, 2);
    println!(
        "scanning '{}' ({} shapes, {:.0}% air)",
        bag.name(),
        bag.shapes().len(),
        truth.zero_fraction() * 100.0
    );

    let setup = Setup::new(geom);
    let s = scan(setup.a(), &truth, Some(NoiseModel::default_dose()), seed);
    let case = Case::new(setup, s.y, s.weights, 0.002);
    let golden = case.golden(40.0);

    // Sequential ICD (single core).
    let mut seq = case.sequential();
    // Every driver runs to the paper's criterion through the same loop.
    let stop = Stop::Golden { image: &golden, hu: 10.0 };
    run(&mut seq, stop, 40, |_, _| BoundaryAction::Continue);
    let nnz = case.setup.a().nnz() as f64;
    let seq_entries = seq.stats().updates as f64 * nnz / geom.grid.num_voxels() as f64;
    let seq_time = psv_icd::CpuModel::paper_baseline().sequential_time(seq_entries);

    // PSV-ICD (16-core model).
    let mut psv = case.psv(psv_options_for(scale));
    run(&mut psv, stop, 200, |_, _| BoundaryAction::Continue);

    // GPU-ICD (simulated Titan X).
    let mut gpu = case.gpu(gpu_options_for(scale));
    run(&mut gpu, stop, 300, |_, _| BoundaryAction::Continue);

    println!(
        "\n{:<16} {:>14} {:>10} {:>14}",
        "algorithm", "modeled time", "equits", "RMSE vs golden"
    );
    println!(
        "{:<16} {:>12.1}ms {:>10.1} {:>11.2} HU",
        "sequential",
        seq_time * 1e3,
        seq.equits(),
        rmse_hu(seq.image(), &golden)
    );
    println!(
        "{:<16} {:>12.2}ms {:>10.1} {:>11.2} HU",
        "psv-icd (16c)",
        psv.modeled_seconds() * 1e3,
        psv.equits(),
        rmse_hu(psv.image(), &golden)
    );
    println!(
        "{:<16} {:>12.2}ms {:>10.1} {:>11.2} HU",
        "gpu-icd",
        gpu.modeled_seconds() * 1e3,
        gpu.equits(),
        rmse_hu(gpu.image(), &golden)
    );
    println!(
        "\nGPU speedup: {:.0}X over sequential, {:.2}X over 16-core CPU",
        seq_time / gpu.modeled_seconds(),
        psv.modeled_seconds() / gpu.modeled_seconds()
    );

    // Threat-like density report: anything above 2x water.
    let dense_voxels = gpu.image().data().iter().filter(|&&v| hu_from_mu(v) > 1000.0).count();
    println!("voxels above +1000 HU (dense objects): {dense_voxels}");
}
