//! Quickstart: reconstruct a phantom slice with GPU-ICD on the
//! simulated Titan X.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use ct_core::hu::rmse_hu;
use ct_core::phantom::Phantom;
use ct_core::project::{scan, NoiseModel};
use gpu_icd::pipeline::{Case, Setup};
use gpu_icd::{gpu_options_for, Scale};
use mbir::stopping::{run, BoundaryAction, Stop};
use mbir_telemetry::RecordingSink;
use std::sync::Arc;

fn main() {
    // 1. Describe the scanner: parallel-beam, 96 views over 180
    //    degrees, 96 detector channels, 64x64 image.
    let geom = Scale::Test.geometry();
    println!(
        "geometry: {} views x {} channels, {}x{} image",
        geom.num_views, geom.num_channels, geom.grid.nx, geom.grid.ny
    );

    // 2. One set-up per geometry: it computes the system matrix A (the
    //    scanner model) on first use and shares it across scans.
    let setup = Setup::new(geom);
    let a = setup.a();
    println!("system matrix: {} nonzeros ({:.1} MB)", a.nnz(), a.bytes() as f64 / 1e6);

    // 3. Simulate a noisy scan of a water cylinder.
    let truth = Phantom::water_cylinder(0.6).render(geom.grid, 2);
    let s = scan(a, &truth, Some(NoiseModel::default_dose()), 7);

    // 4. The case initializes with filtered back projection; reconstruct
    //    with GPU-ICD using the paper's tuned options (scaled to this
    //    grid).
    let case = Case::new(setup, s.y, s.weights, 0.002);
    let mut gpu = case.gpu(gpu_options_for(Scale::Test));
    // A recording sink keeps every kernel launch; its report sums them
    // per kernel.
    let sink = Arc::new(RecordingSink::new());
    gpu.set_profile_sink(sink.clone());

    // Converge to the paper's criterion: RMSE < 10 HU against a
    // 40-equit sequential golden image. `run` is the one loop every
    // ICD driver runs to its stop through; the hook sees each
    // iteration and could stop the run early.
    let golden = case.golden(40.0);
    let stop = Stop::Golden { image: &golden, hu: 10.0 };
    let out = run(&mut gpu, stop, 200, |_, _| BoundaryAction::Continue);

    println!("FBP init RMSE vs truth: {:.1} HU", rmse_hu(&case.init, &truth));
    println!(
        "GPU-ICD RMSE vs golden: {:.2} HU after {:.1} equits (converged: {})",
        out.trace.last().unwrap().rmse_hu,
        gpu.equits(),
        out.converged
    );
    println!("GPU-ICD RMSE vs truth:  {:.1} HU", rmse_hu(gpu.image(), &truth));
    println!("modeled Titan X time:   {:.2} ms", gpu.modeled_seconds() * 1e3);
    let report = sink.report("gpu-icd");
    let share =
        |name| 100.0 * report.kernel(name).map_or(0.0, |k| k.seconds) / gpu.modeled_seconds();
    println!(
        "kernel split: create {:.0}% / mbir {:.0}% / writeback {:.0}%",
        share("svb_create"),
        share("mbir_update"),
        share("error_writeback")
    );
}
