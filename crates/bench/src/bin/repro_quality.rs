//! Image-quality study (the paper's introduction claim, quantified):
//! MBIR vs FBP across dose on the contrast-disk QA phantom, reported
//! as CNR of the lowest-contrast insert, global SSIM vs truth, and
//! RMSE.
//!
//! ```text
//! cargo run --release -p mbir-bench --bin repro_quality -- --scale test
//! ```

use ct_core::fbp;
use ct_core::hu::rmse_hu;
use ct_core::image::Image;
use ct_core::metrics::{cnr_disc, ssim_global};
use ct_core::phantom::Phantom;
use ct_core::project::{scan, NoiseModel};
use ct_core::sysmat::SystemMatrix;
use gpu_icd::{Args, GpuIcd, MbirError};
use mbir::prior::QggmrfPrior;
use mbir::stopping::StopRule;
use mbir_bench::gpu_options_for;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    i0: f32,
    algo: &'static str,
    cnr_weakest: f32,
    ssim: f32,
    rmse_hu: f32,
}

fn main() -> Result<(), MbirError> {
    let args = Args::capture(&["scale"])?;
    let scale = args.scale()?;
    let geom = scale.geometry();
    let a = SystemMatrix::compute(&geom);
    let truth = Phantom::contrast_disks().render(geom.grid, 2);

    // The weakest insert (20 HU) sits at angle 3*pi/2 + 0.4 on radius
    // 0.45 of the half-extent.
    let half = geom.grid.nx as f32 / 2.0;
    let angle = 3.0f32 * std::f32::consts::FRAC_PI_2 + 0.4;
    let ccol = (half + 0.45 * half * angle.cos()) as usize;
    let crow = (half + 0.45 * half * angle.sin()) as usize;
    let radius = 0.12 * half * 0.7; // stay inside the insert

    println!("Image quality vs dose on the contrast-disk phantom (weakest insert: 20 HU)");
    println!("{:-<78}", "");
    println!(
        "{:>10} {:<8} {:>14} {:>10} {:>12}",
        "dose (I0)", "algo", "CNR (20 HU)", "SSIM", "RMSE (HU)"
    );
    let mut rows = Vec::new();
    for i0 in [1.0e3f32, 5.0e3, 2.0e4, 1.0e5] {
        let s = scan(&a, &truth, Some(NoiseModel { i0 }), 77);
        let fbp_img = fbp::reconstruct(&geom, &s.y);

        let prior = QggmrfPrior::standard(0.002);
        let mut gpu =
            GpuIcd::new(&a, &s.y, &s.weights, &prior, fbp_img.clone(), gpu_options_for(scale));
        gpu.run_until(StopRule::MeanUpdate { hu: 0.3 }, 100);

        for (algo, img) in [("fbp", &fbp_img), ("mbir", gpu.image())] {
            let row = Row {
                i0,
                algo,
                cnr_weakest: cnr_disc(img, crow, ccol, radius),
                ssim: ssim_global(img, &truth),
                rmse_hu: rmse_hu(img, &truth),
            };
            println!(
                "{:>10.0} {:<8} {:>14.2} {:>10.4} {:>12.1}",
                row.i0, row.algo, row.cnr_weakest, row.ssim, row.rmse_hu
            );
            rows.push(row);
        }
    }
    println!("\nMBIR's statistical weighting buys CNR and SSIM, most at low dose —");
    println!("the reason the paper calls its image quality 'state-of-the-art'.");
    let _ = Image::zeros(geom.grid);
    mbir_bench::write_json("quality", &rows)
}
