//! Shared harness for the `repro_*` binaries and criterion benches.
//!
//! Builds the full pipeline (phantom -> scan -> golden image) once per
//! test case and runs each of the three algorithms to the paper's
//! convergence criterion (RMSE < 10 HU against a 40-equit sequential
//! golden), reporting *modeled* execution times — the GPU times come
//! from the simulated Titan X, the CPU times from the 16-core Xeon
//! model (see DESIGN.md's substitution table).

#![warn(missing_docs)]

use ct_core::fbp;
use ct_core::geometry::Geometry;
use ct_core::hu::CONVERGENCE_HU;
use ct_core::image::Image;
use ct_core::phantom::Phantom;
use ct_core::project::{scan, NoiseModel, Scan};
use ct_core::sysmat::SystemMatrix;
use gpu_icd::{GpuIcd, GpuOptions, MbirError};
use mbir::convergence::ConvergenceTrace;
use mbir::prior::QggmrfPrior;
use mbir::sequential::{golden_image, IcdConfig, SequentialIcd};
use psv_icd::cpu_model::CpuModel;
use psv_icd::{PsvConfig, PsvIcd};
use serde::Serialize;

/// The scale presets live with the strict argument parser in
/// `gpu-icd`; re-exported here for the harness's existing callers.
pub use gpu_icd::{gpu_options_for, Scale};

/// One fully prepared test case.
pub struct Pipeline {
    /// Geometry used.
    pub geom: Geometry,
    /// System matrix.
    pub a: SystemMatrix,
    /// Noisy scan + weights + ground truth.
    pub scan: Scan,
    /// The prior shared by all algorithms.
    pub prior: QggmrfPrior,
    /// FBP initialization image.
    pub init: Image,
    /// 40-equit sequential golden image.
    pub golden: Image,
}

impl Pipeline {
    /// Build a pipeline for one phantom. The system matrix can be
    /// shared across cases of the same geometry via `reuse`.
    pub fn build(
        scale: Scale,
        phantom: &Phantom,
        seed: u64,
        reuse: Option<SystemMatrix>,
    ) -> Pipeline {
        let geom = scale.geometry();
        let a = reuse.unwrap_or_else(|| SystemMatrix::compute(&geom));
        let truth = phantom.render(geom.grid, 2);
        let s = scan(&a, &truth, Some(NoiseModel::default_dose()), seed);
        let prior = QggmrfPrior::standard(0.002);
        let init = fbp::reconstruct(&geom, &s.y);
        let golden = golden_image(&a, &s.y, &s.weights, &prior, init.clone(), 40.0);
        Pipeline { geom, a, scan: s, prior, init, golden }
    }
}

/// Outcome of running one algorithm on one case.
#[derive(Debug, Clone, Serialize)]
pub struct RunResult {
    /// Algorithm label.
    pub algo: String,
    /// Modeled seconds to convergence (<10 HU vs golden).
    pub seconds: f64,
    /// Equits of work used.
    pub equits: f64,
    /// Final RMSE (HU).
    pub rmse_hu: f32,
    /// Whether the convergence criterion was reached.
    pub converged: bool,
    /// RMSE trajectory (modeled seconds, equits).
    #[serde(skip)]
    pub trace: ConvergenceTrace,
}

impl RunResult {
    /// Modeled seconds per equit.
    pub fn time_per_equit(&self) -> f64 {
        if self.equits > 0.0 {
            self.seconds / self.equits
        } else {
            0.0
        }
    }
}

/// Run sequential ICD to convergence, modeling single-core time.
pub fn run_sequential(p: &Pipeline, max_passes: usize) -> RunResult {
    let model = CpuModel::paper_baseline();
    let mean_nnz = p.a.nnz() as f64 / p.geom.grid.num_voxels() as f64;
    let mut icd = SequentialIcd::new(
        &p.a,
        &p.scan.y,
        &p.scan.weights,
        &p.prior,
        p.init.clone(),
        IcdConfig::default(),
    );
    let mut trace = ConvergenceTrace::default();
    trace.record(0.0, 0.0, icd.image(), &p.golden);
    let mut rmse = ct_core::hu::rmse_hu(icd.image(), &p.golden);
    for _ in 0..max_passes {
        if rmse < CONVERGENCE_HU {
            break;
        }
        icd.pass();
        rmse = ct_core::hu::rmse_hu(icd.image(), &p.golden);
        let secs = model.sequential_time(icd.stats().updates as f64 * mean_nnz);
        trace.record(icd.equits(), secs, icd.image(), &p.golden);
    }
    let seconds = model.sequential_time(icd.stats().updates as f64 * mean_nnz);
    RunResult {
        algo: "sequential-icd".into(),
        seconds,
        equits: icd.equits(),
        rmse_hu: rmse,
        converged: rmse < CONVERGENCE_HU,
        trace,
    }
}

/// Run PSV-ICD to convergence, modeling 16-core time.
pub fn run_psv(p: &Pipeline, sv_side: usize, max_iters: usize) -> RunResult {
    let config = PsvConfig { sv_side, threads: 2, ..Default::default() };
    let mut psv = PsvIcd::new(&p.a, &p.scan.y, &p.scan.weights, &p.prior, p.init.clone(), config);
    let trace = psv.run_to_rmse(&p.golden, CONVERGENCE_HU, max_iters);
    let rmse = ct_core::hu::rmse_hu(&psv.image(), &p.golden);
    RunResult {
        algo: "psv-icd".into(),
        seconds: psv.modeled_seconds(),
        equits: psv.equits(),
        rmse_hu: rmse,
        converged: rmse < CONVERGENCE_HU,
        trace,
    }
}

/// Run GPU-ICD to convergence on the simulated Titan X.
pub fn run_gpu(p: &Pipeline, opts: GpuOptions, max_iters: usize) -> RunResult {
    let mut gpu = GpuIcd::new(&p.a, &p.scan.y, &p.scan.weights, &p.prior, p.init.clone(), opts);
    let trace = gpu.run_to_rmse(&p.golden, CONVERGENCE_HU, max_iters);
    let rmse = ct_core::hu::rmse_hu(gpu.image(), &p.golden);
    RunResult {
        algo: "gpu-icd".into(),
        seconds: gpu.modeled_seconds(),
        equits: gpu.equits(),
        rmse_hu: rmse,
        converged: rmse < CONVERGENCE_HU,
        trace,
    }
}

/// Geometric mean of a nonempty slice.
pub fn geo_mean(v: &[f64]) -> f64 {
    (v.iter().map(|x| x.max(1e-300).ln()).sum::<f64>() / v.len() as f64).exp()
}

/// Arithmetic mean.
pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// Sample standard deviation.
pub fn std_dev(v: &[f64]) -> f64 {
    if v.len() < 2 {
        return 0.0;
    }
    let m = mean(v);
    (v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (v.len() as f64 - 1.0)).sqrt()
}

/// Write `value` as pretty JSON to `results/<name>.json` (relative to
/// the working directory), creating the directory. Each failure is an
/// error naming the path it struck.
pub fn write_json<T: Serialize>(name: &str, value: &T) -> Result<(), MbirError> {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).map_err(|e| MbirError::io(dir, e))?;
    let path = dir.join(format!("{name}.json"));
    let text = serde_json::to_string_pretty(value)
        .map_err(|e| MbirError::InvalidData(format!("serializing {}: {e}", path.display())))?;
    std::fs::write(&path, text).map_err(|e| MbirError::io(&path, e))?;
    eprintln!("(wrote {})", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_helpers() {
        assert!((geo_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert!((std_dev(&[1.0, 3.0]) - std::f64::consts::SQRT_2).abs() < 1e-12);
        assert_eq!(std_dev(&[5.0]), 0.0);
    }

    #[test]
    fn tiny_pipeline_end_to_end() {
        let p = Pipeline::build(Scale::Tiny, &Phantom::water_cylinder(0.5), 3, None);
        let seq = run_sequential(&p, 30);
        assert!(seq.converged, "sequential rmse {}", seq.rmse_hu);
        let psv = run_psv(&p, 4, 60);
        assert!(psv.converged, "psv rmse {}", psv.rmse_hu);
        let gpu = run_gpu(&p, gpu_options_for(Scale::Tiny), 80);
        assert!(gpu.converged, "gpu rmse {}", gpu.rmse_hu);
        // At 24x24 nothing fills a GPU (launch overhead dominates), so
        // only the CPU ordering is asserted here; the GPU-beats-CPU
        // shape is asserted at test scale in the integration tests and
        // demonstrated by the Table 1 harness.
        assert!(psv.seconds < seq.seconds, "psv {} seq {}", psv.seconds, seq.seconds);
        assert!(gpu.seconds < 0.1, "gpu modeled {}", gpu.seconds);
    }
}
