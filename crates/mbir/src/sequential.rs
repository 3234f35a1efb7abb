//! Sequential ICD — the single-core reference the paper's speedups are
//! measured against ("the publicly available, single-core MBIR
//! implementation \[16\]"), and the producer of golden images.
//!
//! Voxels are visited in a randomized order (faster convergence,
//! paper Section 2), with zero-skipping and positivity always on. Work
//! is accounted in *equits*: one equit is `N` voxel updates where `N`
//! is the image's voxel count.

use crate::prior::Prior;
use crate::stopping::Driver;
use crate::update::{update_voxel, zero_skippable, SinogramPair};
use ct_core::image::Image;
use ct_core::sinogram::Sinogram;
use ct_core::sysmat::SystemMatrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Work counters for equit accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IcdStats {
    /// Voxel visits that performed the full update.
    pub updates: u64,
    /// Voxel visits skipped by zero-skipping.
    pub skipped: u64,
    /// Sum of `|delta|` over all updates (drives SV selection upstream).
    pub total_abs_delta: f64,
}

impl IcdStats {
    /// Equits represented by these counters for an image of `nvox`
    /// voxels.
    pub fn equits(&self, nvox: usize) -> f64 {
        self.updates as f64 / nvox as f64
    }
}

impl std::ops::AddAssign for IcdStats {
    fn add_assign(&mut self, pass: IcdStats) {
        self.updates += pass.updates;
        self.skipped += pass.skipped;
        self.total_abs_delta += pass.total_abs_delta;
    }
}

/// The sequential ICD reconstruction state.
pub struct SequentialIcd<'a, P: Prior> {
    a: &'a SystemMatrix,
    prior: &'a P,
    weights: &'a Sinogram,
    image: Image,
    error: Sinogram,
    stats: IcdStats,
    pass_count: u64,
}

impl<'a, P: Prior> SequentialIcd<'a, P> {
    /// Initialize from a measurement `y` and starting image `init`
    /// (often zeros or an FBP image); computes `e = y - A init`.
    ///
    /// # Panics
    ///
    /// If `y` or `weights` is not shaped for `a`'s geometry.
    pub fn new(
        a: &'a SystemMatrix,
        y: &Sinogram,
        weights: &'a Sinogram,
        prior: &'a P,
        init: Image,
    ) -> Self {
        weights.assert_shaped_for(a.geometry(), "weights");
        let error = a.residual(y, &init);
        SequentialIcd {
            a,
            prior,
            weights,
            image: init,
            error,
            stats: IcdStats::default(),
            pass_count: 0,
        }
    }

    /// One pass visiting every voxel once (in randomized order).
    /// Returns the pass's own counters.
    pub fn pass(&mut self) -> IcdStats {
        let nvox = self.image.grid().num_voxels();
        let mut order: Vec<u32> = (0..nvox as u32).collect();
        order.shuffle(&mut StdRng::seed_from_u64(self.pass_count.wrapping_mul(0x9e3779b9)));
        self.pass_count += 1;
        // Zero-skipping is suppressed on the first pass: from a zero
        // initial image it would otherwise skip every voxel and the
        // reconstruction could never start.
        let allow_skip = self.pass_count > 1;
        let mut pass_stats = IcdStats::default();
        for &j in &order {
            let j = j as usize;
            if allow_skip && zero_skippable(&self.image, j) {
                pass_stats.skipped += 1;
                continue;
            }
            let col = self.a.column(j);
            let mut pair = SinogramPair { e: &mut self.error, w: self.weights };
            let delta = update_voxel(j, &mut self.image, &col, &mut pair, self.prior);
            pass_stats.updates += 1;
            pass_stats.total_abs_delta += delta.abs() as f64;
        }
        self.stats += pass_stats;
        pass_stats
    }

    /// Run passes until at least `equits` of work has been done.
    pub fn run_equits(&mut self, equits: f64) {
        let nvox = self.image.grid().num_voxels();
        while self.stats.equits(nvox) < equits {
            let before = self.stats.updates;
            self.pass();
            if self.stats.updates == before {
                break; // fully zero-skipped image
            }
        }
    }

    /// Current reconstruction.
    pub fn image(&self) -> &Image {
        &self.image
    }

    /// Current error sinogram `e = y - A x`.
    pub fn error(&self) -> &Sinogram {
        &self.error
    }

    /// Equits of work done so far.
    pub fn equits(&self) -> f64 {
        self.stats.equits(self.image.grid().num_voxels())
    }

    /// Consume the driver, returning the reconstruction.
    pub fn into_image(self) -> Image {
        self.image
    }
}

/// One step is one pass.
impl<P: Prior> Driver for SequentialIcd<'_, P> {
    type Report = IcdStats;
    fn step(&mut self) -> IcdStats {
        self.pass()
    }
    fn stats(&self) -> IcdStats {
        self.stats
    }
    fn image(&self) -> &Image {
        &self.image
    }
    fn cost(&self) -> f64 {
        crate::convergence::cost(&self.image, &self.error, self.weights, self.prior)
    }
}

/// Produce a golden image by running sequential ICD for `equits`
/// equits (the paper uses 40, "by when it is known to converge").
pub fn golden_image<P: Prior>(
    a: &SystemMatrix,
    y: &Sinogram,
    weights: &Sinogram,
    prior: &P,
    init: Image,
    equits: f64,
) -> Image {
    let mut icd = SequentialIcd::new(a, y, weights, prior, init);
    icd.run_equits(equits);
    icd.into_image()
}

#[cfg(test)]
mod tests {
    use super::golden_image;
    use super::*;
    use crate::convergence::cost;
    use crate::prior::QggmrfPrior;
    use crate::stopping::{run, BoundaryAction, Stop};
    use ct_core::geometry::Geometry;
    use ct_core::hu::rmse_hu;
    use ct_core::phantom::Phantom;
    use ct_core::project::{scan, NoiseModel};

    fn setup() -> (Geometry, SystemMatrix, ct_core::project::Scan) {
        let g = Geometry::tiny_scale();
        let a = SystemMatrix::compute(&g);
        let truth = Phantom::water_cylinder(0.55).render(g.grid, 2);
        let s = scan(&a, &truth, Some(NoiseModel { i0: 1.0e5 }), 7);
        (g, a, s)
    }

    #[test]
    #[should_panic(expected = "weights is 24x48 (views x channels), but the geometry is 24x40")]
    fn weights_of_another_geometry_are_refused() {
        let (g, a, s) = setup();
        let prior = QggmrfPrior::standard(0.002);
        let w = Sinogram::from_vec(24, 48, vec![1.0; 24 * 48]);
        SequentialIcd::new(&a, &s.y, &w, &prior, Image::zeros(g.grid));
    }

    #[test]
    fn cost_decreases_monotonically() {
        let (g, a, s) = setup();
        let prior = QggmrfPrior::standard(0.002);
        let mut icd = SequentialIcd::new(&a, &s.y, &s.weights, &prior, Image::zeros(g.grid));
        let mut prev = cost(icd.image(), icd.error(), &s.weights, &prior);
        for _ in 0..4 {
            icd.pass();
            let c = cost(icd.image(), icd.error(), &s.weights, &prior);
            assert!(c <= prev + prev.abs() * 1e-6, "cost rose: {prev} -> {c}");
            prev = c;
        }
    }

    #[test]
    fn converges_to_golden_from_fbp_init() {
        // The paper's convergence criterion: RMSE < 10 HU against a
        // 40-equit golden image, reached within a handful of equits
        // when initialized from FBP.
        let (g, a, s) = setup();
        let prior = QggmrfPrior::standard(0.002);
        let init = ct_core::fbp::reconstruct(&g, &s.y);
        let golden = golden_image(&a, &s.y, &s.weights, &prior, init.clone(), 40.0);
        // The golden image itself must be anatomically accurate.
        assert!(rmse_hu(&golden, &s.ground_truth) < 60.0);
        let mut icd = SequentialIcd::new(&a, &s.y, &s.weights, &prior, init);
        let stop = Stop::Golden { image: &golden, hu: 10.0 };
        let out = run(&mut icd, stop, 12, |_, _| BoundaryAction::Continue);
        let rmse = out.trace.last().unwrap().rmse_hu;
        assert!(rmse < 10.0, "rmse {rmse} HU after {:.1} equits", icd.equits());
        assert!(icd.equits() < 10.0, "took {:.1} equits", icd.equits());
    }

    #[test]
    fn zero_skip_reduces_updates_on_sparse_images() {
        let (g, a, s) = setup();
        let prior = QggmrfPrior::standard(0.002);
        let mut with = SequentialIcd::new(&a, &s.y, &s.weights, &prior, Image::zeros(g.grid));
        let first = with.pass();
        // The first pass visits everything (skipping is suppressed).
        assert_eq!(first.skipped, 0);
        assert_eq!(first.updates, g.grid.num_voxels() as u64);
        // From the second pass on, far-from-object voxels (clipped to
        // zero by positivity) are skipped.
        let second = with.pass();
        assert!(second.skipped > 0, "no skips on second pass");
        assert!(second.updates < g.grid.num_voxels() as u64);
    }

    #[test]
    fn equits_accounting() {
        // Skipped visits are not work: only updates count.
        let (g, a, s) = setup();
        let prior = QggmrfPrior::standard(0.002);
        let n = g.grid.num_voxels() as u64;
        let mut icd = SequentialIcd::new(&a, &s.y, &s.weights, &prior, Image::zeros(g.grid));
        assert_eq!(icd.pass().updates, n);
        assert_eq!(icd.equits(), 1.0);
        let second = icd.pass();
        assert!(second.skipped > 0, "no skips on the second pass");
        assert_eq!(icd.equits(), (n + second.updates) as f64 / n as f64);
    }

    #[test]
    fn deterministic() {
        let (g, a, s) = setup();
        let prior = QggmrfPrior::standard(0.002);
        let run = || {
            let mut icd = SequentialIcd::new(&a, &s.y, &s.weights, &prior, Image::zeros(g.grid));
            icd.run_equits(2.0);
            icd.into_image()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn error_sinogram_invariant_after_passes() {
        let (g, a, s) = setup();
        let prior = QggmrfPrior::standard(0.002);
        let mut icd = SequentialIcd::new(&a, &s.y, &s.weights, &prior, Image::zeros(g.grid));
        icd.pass();
        icd.pass();
        let ax = a.forward(icd.image());
        for i in 0..s.y.data().len() {
            let expect = s.y.data()[i] - ax.data()[i];
            assert!((icd.error().data()[i] - expect).abs() < 2e-3);
        }
        let _ = g;
    }
}
