//! High-level reconstruction facade: one builder call from sinogram to
//! image, wiring the right defaults for each algorithm — the API a
//! downstream user starts from before reaching for the per-crate
//! controls.
//!
//! ```no_run
//! use mbir_gpu_repro::recon::Reconstructor;
//! use mbir_gpu_repro::ct_core::{Geometry, Sinogram};
//!
//! let geom = Geometry::test_scale();
//! # let y = Sinogram::zeros(&geom);
//! let result = Reconstructor::new(geom)
//!     .algorithm(mbir_gpu_repro::recon::Algorithm::GpuIcd)
//!     .dose(2.0e4)
//!     .run(&y);
//! println!("done in {:.2} ms (modeled)", result.modeled_seconds * 1e3);
//! ```

use ct_core::fbp;
use ct_core::geometry::Geometry;
use ct_core::image::Image;
use ct_core::sinogram::Sinogram;
use ct_core::sysmat::SystemMatrix;
use gpu_icd::{GpuIcd, GpuOptions};
use mbir::prior::QggmrfPrior;
use mbir::sequential::{IcdConfig, SequentialIcd};
use mbir::stopping::{run, BoundaryAction, Driver, Stop, StopRule};
use psv_icd::{PsvConfig, PsvIcd};

/// Which reconstruction algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Filtered back projection (fast, noisy).
    Fbp,
    /// Single-core ICD MBIR.
    SequentialIcd,
    /// 16-core PSV-ICD MBIR (modeled CPU).
    PsvIcd,
    /// GPU-ICD MBIR on the simulated Titan X.
    GpuIcd,
}

/// Outcome of a reconstruction.
#[derive(Debug, Clone)]
pub struct ReconResult {
    /// The reconstructed image.
    pub image: Image,
    /// Equits of ICD work (0 for FBP).
    pub equits: f64,
    /// Modeled execution seconds on the algorithm's platform
    /// (0 for FBP and sequential wall-clock-less paths).
    pub modeled_seconds: f64,
    /// Whether the stopping rule fired within the pass budget (always
    /// true for FBP, a direct method).
    pub converged: bool,
}

/// Builder for a reconstruction run.
#[derive(Debug, Clone)]
pub struct Reconstructor {
    geom: Geometry,
    algorithm: Algorithm,
    sigma: f32,
    dose: f32,
    stop: StopRule,
    max_passes: usize,
    gpu_options: Option<GpuOptions>,
    sv_side: Option<usize>,
}

impl Reconstructor {
    /// Defaults: GPU-ICD, qGGMRF sigma 0.002, dose 2e4, stop when the
    /// mean update falls below 0.3 HU.
    pub fn new(geom: Geometry) -> Self {
        Reconstructor {
            geom,
            algorithm: Algorithm::GpuIcd,
            sigma: 0.002,
            dose: 2.0e4,
            stop: StopRule::MeanUpdate { hu: 0.3 },
            max_passes: 200,
            gpu_options: None,
            sv_side: None,
        }
    }

    /// Pick the algorithm.
    pub fn algorithm(mut self, a: Algorithm) -> Self {
        self.algorithm = a;
        self
    }

    /// qGGMRF regularization scale.
    pub fn sigma(mut self, sigma: f32) -> Self {
        self.sigma = sigma;
        self
    }

    /// Photon count used to derive the statistical weights
    /// `w = I0 exp(-y)` from the measurement.
    pub fn dose(mut self, i0: f32) -> Self {
        self.dose = i0;
        self
    }

    /// Stopping rule (golden-free).
    pub fn stop(mut self, rule: StopRule) -> Self {
        self.stop = rule;
        self
    }

    /// Pass/iteration budget.
    pub fn max_passes(mut self, n: usize) -> Self {
        self.max_passes = n;
        self
    }

    /// Override the GPU options entirely (GPU-ICD only).
    pub fn gpu_options(mut self, o: GpuOptions) -> Self {
        self.gpu_options = Some(o);
        self
    }

    /// Override the SV side (PSV-ICD / GPU-ICD).
    pub fn sv_side(mut self, side: usize) -> Self {
        self.sv_side = Some(side);
        self
    }

    /// SV sides scaled to the grid (mirrors the paper's 13/33 at 512).
    fn default_sides(&self) -> (usize, usize) {
        let n = self.geom.grid.nx;
        ((n / 40).clamp(4, 13), (n / 16).clamp(6, 33))
    }

    /// Run on a measurement sinogram.
    pub fn run(&self, y: &Sinogram) -> ReconResult {
        if self.algorithm == Algorithm::Fbp {
            return ReconResult {
                image: fbp::reconstruct(&self.geom, y),
                equits: 0.0,
                modeled_seconds: 0.0,
                converged: true,
            };
        }

        let a = SystemMatrix::compute(&self.geom);
        let mut w = Sinogram::zeros(&self.geom);
        for (wi, &yi) in w.data_mut().iter_mut().zip(y.data()) {
            *wi = self.dose * (-yi.max(0.0)).exp();
        }
        let prior = QggmrfPrior::standard(self.sigma);
        let init = fbp::reconstruct(&self.geom, y);
        let (cpu_side, gpu_side) = self.default_sides();

        match self.algorithm {
            Algorithm::Fbp => unreachable!(),
            Algorithm::SequentialIcd => {
                self.solve(SequentialIcd::new(&a, y, &w, &prior, init, IcdConfig::default()))
            }
            Algorithm::PsvIcd => {
                let side = self.sv_side.unwrap_or(cpu_side);
                let config = PsvConfig { sv_side: side, threads: 2, ..Default::default() };
                self.solve(PsvIcd::new(&a, y, &w, &prior, init, config))
            }
            Algorithm::GpuIcd => {
                let opts = self.gpu_options.unwrap_or(GpuOptions {
                    sv_side: self.sv_side.unwrap_or(gpu_side),
                    threadblocks_per_sv: 12,
                    svs_per_batch: 16,
                    // The batch threshold only pays off with hundreds
                    // of SVs (paper scale); on small grids it starves
                    // whole iterations, so the facade disables it.
                    batch_threshold: false,
                    ..Default::default()
                });
                self.solve(GpuIcd::new(&a, y, &w, &prior, init, opts))
            }
        }
    }

    /// Run `driver` until the stopping rule fires or the pass budget
    /// runs out.
    fn solve<D: Driver>(&self, mut driver: D) -> ReconResult {
        let stop = Stop::Rule(self.stop);
        let out = run(&mut driver, stop, self.max_passes, |_, _| BoundaryAction::Continue);
        let image = driver.image().into_owned();
        let equits = driver.stats().equits(image.grid().num_voxels());
        ReconResult { image, equits, modeled_seconds: driver.seconds(), converged: out.converged }
    }
}
