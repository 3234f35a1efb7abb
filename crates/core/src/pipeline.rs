//! One reconstruction pipeline: every front end sets a scan up here, at
//! one set of defaults.
//!
//! - [`Setup`] is what every scan of one geometry shares: the system
//!   matrix, computed on first use, and the SV plans, each built on
//!   first request and shared while anything holds it.
//! - [`Case`] is one measurement on a [`Setup`]: the sinogram, its
//!   statistical weights, the qGGMRF prior and the FBP start. It builds
//!   the golden image and every driver.
//! - [`Reconstructor`] is the facade: one builder call from sinogram to
//!   image, at the [`Scale::for_grid`] presets that `mbirctl` uses.

use crate::opts::check;
use crate::{gpu_options_for, plan_config, psv_options_for, GpuIcd, GpuOptions, MbirError, Scale};
use ct_core::fbp;
use ct_core::geometry::Geometry;
use ct_core::image::Image;
use ct_core::sinogram::Sinogram;
use ct_core::sysmat::SystemMatrix;
use mbir::prior::QggmrfPrior;
use mbir::sequential::{golden_image, SequentialIcd};
use mbir::stopping::{run, BoundaryAction, Driver, Stop, StopRule};
use psv_icd::{psv_plan_config, PsvConfig, PsvIcd};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use supervoxel::plan::{PlanConfig, SvPlanSet};
use supervoxel::tiling::Tiling;

/// What every scan of one geometry shares.
pub struct Setup {
    geom: Geometry,
    a: OnceLock<SystemMatrix>,
    /// Held weakly: a plan lives while a driver or a caller holds it,
    /// and no longer.
    plans: Mutex<Vec<Weak<SvPlanSet>>>,
}

impl Setup {
    /// An empty set-up for `geom`; nothing is computed until asked for.
    pub fn new(geom: Geometry) -> Arc<Setup> {
        Arc::new(Setup { geom, a: OnceLock::new(), plans: Mutex::default() })
    }

    /// The geometry every scan on this set-up has.
    pub fn geometry(&self) -> &Geometry {
        &self.geom
    }

    /// The system matrix, computed on first use.
    pub fn a(&self) -> &SystemMatrix {
        self.a.get_or_init(|| SystemMatrix::compute_parallel(&self.geom, 0))
    }

    /// The SV plans for `sv_side` under `config`. While any holder keeps
    /// one alive, every request for its key returns the same `Arc`.
    pub fn plan(&self, sv_side: usize, config: PlanConfig) -> Arc<SvPlanSet> {
        let mut plans = self.plans.lock().expect("a plan build panicked");
        plans.retain(|plan| plan.strong_count() > 0);
        let fits = |p: &Arc<SvPlanSet>| p.tiling().sv_side() == sv_side && p.config() == config;
        if let Some(plan) = plans.iter().filter_map(Weak::upgrade).find(fits) {
            return plan;
        }
        let tiling = Tiling::new(self.geom.grid, sv_side);
        let plan = Arc::new(SvPlanSet::build(self.a(), &tiling, config, 0));
        plans.push(Arc::downgrade(&plan));
        plan
    }
}

/// One measurement, set up on a shared [`Setup`].
pub struct Case {
    /// The geometry's shared system matrix and plans.
    pub setup: Arc<Setup>,
    /// The measurement.
    pub y: Sinogram,
    /// Its statistical (inverse-variance) weights.
    pub weights: Sinogram,
    /// The qGGMRF prior every driver uses.
    pub prior: QggmrfPrior,
    /// The FBP reconstruction every driver starts from.
    pub init: Image,
}

impl Case {
    /// A scan whose weights are known, such as a simulated one. `y` and
    /// `weights` must be shaped for the set-up's geometry.
    pub fn new(setup: Arc<Setup>, y: Sinogram, weights: Sinogram, sigma: f32) -> Case {
        let init = fbp::reconstruct(&setup.geom, &y);
        Case { setup, y, weights, prior: QggmrfPrior::standard(sigma), init }
    }

    /// A measurement alone, weighted `w = i0·exp(-max(y, 0))` (the usual
    /// move when raw counts are unavailable). Rejects a sinogram shaped
    /// for another geometry, and an `i0` or `sigma` that is not finite
    /// and positive.
    pub fn measured(
        setup: Arc<Setup>,
        y: Sinogram,
        i0: f32,
        sigma: f32,
    ) -> Result<Case, MbirError> {
        let got = format!("{}x{}", y.num_views(), y.num_channels());
        let want = format!("{}x{}", setup.geom.num_views, setup.geom.num_channels);
        if got != want {
            let msg = format!("sinogram has {got} views x channels; the geometry has {want}");
            return Err(MbirError::InvalidData(msg));
        }
        for (name, v) in [("i0", i0), ("sigma", sigma)] {
            if !(v.is_finite() && v > 0.0) {
                return Err(MbirError::Usage(format!("{name} = {v} is not finite and positive")));
            }
        }
        let mut weights = y.clone();
        for w in weights.data_mut() {
            *w = i0 * (-w.max(0.0)).exp();
        }
        Ok(Case::new(setup, y, weights, sigma))
    }

    /// Sequential ICD run for `equits` from the FBP start: the paper's
    /// golden image at 40.
    pub fn golden(&self, equits: f64) -> Image {
        let a = self.setup.a();
        golden_image(a, &self.y, &self.weights, &self.prior, self.init.clone(), equits)
    }

    /// A sequential ICD driver.
    pub fn sequential(&self) -> SequentialIcd<'_, QggmrfPrior> {
        let (a, init) = (self.setup.a(), self.init.clone());
        SequentialIcd::new(a, &self.y, &self.weights, &self.prior, init)
    }

    /// A PSV-ICD driver on the set-up's plan for `config.sv_side`.
    pub fn psv(&self, config: PsvConfig) -> PsvIcd<'_, QggmrfPrior> {
        let plan = self.setup.plan(config.sv_side, psv_plan_config());
        let (a, init) = (self.setup.a(), self.init.clone());
        PsvIcd::with_plan(a, &self.y, &self.weights, &self.prior, init, config, plan)
    }

    /// A GPU-ICD driver on the set-up's plan for `opts`.
    ///
    /// # Panics
    ///
    /// If `opts` is out of range ([`GpuOptions::validate`]).
    pub fn gpu(&self, opts: GpuOptions) -> GpuIcd<'_, QggmrfPrior> {
        opts.validate().unwrap_or_else(|e| panic!("{e}"));
        let plan = self.setup.plan(opts.sv_side, plan_config(&opts));
        let (a, init) = (self.setup.a(), self.init.clone());
        GpuIcd::with_plan(a, &self.y, &self.weights, &self.prior, init, opts, plan)
    }
}

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
    /// mean update falls below 0.3 HU, and the driver options of the
    /// geometry's [`Scale::for_grid`] preset ([`gpu_options_for`],
    /// [`psv_options_for`]).
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

    /// Override the GPU options entirely (GPU-ICD only), in place of
    /// the preset. An explicit [`Reconstructor::sv_side`] still wins,
    /// whichever setter is called first.
    pub fn gpu_options(mut self, o: GpuOptions) -> Self {
        self.gpu_options = Some(o);
        self
    }

    /// Override the SV side (PSV-ICD / GPU-ICD). It applies on top of
    /// the preset or of [`Reconstructor::gpu_options`], whichever
    /// setter is called first.
    pub fn sv_side(mut self, side: usize) -> Self {
        self.sv_side = Some(side);
        self
    }

    /// Run on a measurement sinogram. Driver options out of range
    /// ([`GpuOptions::validate`], or a PSV-ICD SV side below 2), a
    /// sinogram of another geometry, or a dose or sigma that is not
    /// finite and positive is an error, returned before anything is
    /// built.
    pub fn run(&self, y: &Sinogram) -> Result<ReconResult, MbirError> {
        let scale = Scale::for_grid(self.geom.grid);
        let psv = psv_options_for(scale);
        let gpu = self.gpu_options.unwrap_or_else(|| gpu_options_for(scale));
        let psv = PsvConfig { sv_side: self.sv_side.unwrap_or(psv.sv_side), ..psv };
        let gpu = GpuOptions { sv_side: self.sv_side.unwrap_or(gpu.sv_side), ..gpu };
        match self.algorithm {
            Algorithm::PsvIcd => check(psv.sv_side >= 2, "sv_side", "at least 2", psv.sv_side)?,
            Algorithm::GpuIcd => gpu.validate()?,
            Algorithm::Fbp | Algorithm::SequentialIcd => {}
        }
        let case = Case::measured(Setup::new(self.geom), y.clone(), self.dose, self.sigma)?;
        Ok(match self.algorithm {
            Algorithm::Fbp => {
                ReconResult { image: case.init, equits: 0.0, modeled_seconds: 0.0, converged: true }
            }
            Algorithm::SequentialIcd => self.solve(case.sequential()),
            Algorithm::PsvIcd => self.solve(case.psv(psv)),
            Algorithm::GpuIcd => self.solve(case.gpu(gpu)),
        })
    }

    /// Run `driver` until the stopping rule fires or the pass budget
    /// runs out.
    fn solve<D: Driver>(&self, mut driver: D) -> ReconResult {
        let stop = Stop::Rule(self.stop);
        let out = run(&mut driver, stop, self.max_passes, |_, _| BoundaryAction::Continue);
        let image = driver.image().clone();
        let equits = driver.stats().equits(image.grid().num_voxels());
        ReconResult { image, equits, modeled_seconds: driver.seconds(), converged: out.converged }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_plan_is_shared_while_held_and_freed_after() {
        let setup = Setup::new(Geometry::tiny_scale());
        let config = psv_plan_config();
        let first = setup.plan(4, config);
        assert!(Arc::ptr_eq(&first, &setup.plan(4, config)), "a held plan is shared");
        assert!(!Arc::ptr_eq(&first, &setup.plan(6, config)), "another side is another plan");
        let weak = Arc::downgrade(&first);
        drop(first);
        assert!(weak.upgrade().is_none(), "the set-up keeps no plan alive");
        let _held = setup.plan(6, config);
        assert_eq!(setup.plans.lock().unwrap().len(), 1, "dead entries are pruned");
    }

    #[test]
    fn a_measurement_is_checked_before_any_system_matrix_is_built() {
        let setup = Setup::new(Geometry::test_scale());
        let tiny = Sinogram::zeros(&Geometry::tiny_scale());
        let ok = Sinogram::zeros(setup.geometry());
        let cases = [
            (tiny, 2.0e4, 0.002, "sinogram has 24x40 views x channels; the geometry has 96x96"),
            (ok.clone(), -2.0e4, 0.002, "i0 = -20000 is not finite and positive"),
            (ok.clone(), f32::NAN, 0.002, "i0"),
            (ok.clone(), 2.0e4, 0.0, "sigma = 0 is not finite and positive"),
            (ok, 2.0e4, f32::INFINITY, "sigma"),
        ];
        for (y, i0, sigma, needle) in cases {
            let Err(e) = Case::measured(setup.clone(), y, i0, sigma) else {
                panic!("{needle}: accepted");
            };
            assert!(e.to_string().contains(needle), "{e} lacks {needle:?}");
        }
        assert!(setup.a.get().is_none(), "a rejected measurement built the system matrix");
    }
}
