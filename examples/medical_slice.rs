//! Medical-imaging scenario: reconstruct the Shepp-Logan head phantom
//! and compare image quality of FBP vs MBIR at a reduced dose — the
//! "MBIR produces better images than FBP" claim of the paper's
//! introduction, with GPU-ICD making it fast.
//!
//! ```text
//! cargo run --release --example medical_slice
//! ```

use ct_core::hu::rmse_hu;
use ct_core::phantom::Phantom;
use ct_core::project::{scan, NoiseModel};
use gpu_icd::pipeline::{Case, Setup};
use gpu_icd::{gpu_options_for, Scale};

fn main() {
    let scale = Scale::Test;
    let geom = scale.geometry();
    let setup = Setup::new(geom);
    let truth = Phantom::shepp_logan().render(geom.grid, 2);

    println!(
        "{:<12} {:>16} {:>16} {:>14}",
        "dose (I0)", "FBP RMSE (HU)", "MBIR RMSE (HU)", "MBIR time"
    );
    for i0 in [5.0e2f32, 2.0e3, 2.0e4, 2.0e5] {
        let s = scan(setup.a(), &truth, Some(NoiseModel { i0 }), 11);
        let case = Case::new(setup.clone(), s.y, s.weights, 0.002);
        let mut gpu = case.gpu(gpu_options_for(scale));
        for _ in 0..20 {
            gpu.iteration();
        }

        println!(
            "{i0:<12.0} {:>16.1} {:>16.1} {:>11.2} ms",
            rmse_hu(&case.init, &truth),
            rmse_hu(gpu.image(), &truth),
            gpu.modeled_seconds() * 1e3
        );
    }
    println!("\nMBIR's statistical weighting suppresses noise that FBP passes straight");
    println!("through — the gap widens as dose drops (paper Section 1's motivation).");
}
