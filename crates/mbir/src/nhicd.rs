//! NH-ICD: spatially non-homogeneous ICD (Yu, Thibault, Bouman, Sauer,
//! Hsieh — the paper's reference \[10\]).
//!
//! Plain ICD spends equal effort everywhere; NH-ICD interleaves *full*
//! passes with several *partial* passes that revisit only the voxels
//! with the largest recent updates (the voxel selection criterion,
//! VSC). The paper's PSV-ICD/GPU-ICD SV-selection policies (top-20/25%
//! by update amount) are exactly this idea lifted to SuperVoxel
//! granularity — this module provides the voxel-granular original as a
//! baseline and extension.

use crate::prior::Prior;
use crate::sequential::IcdStats;
use crate::stopping::Driver;
use crate::update::{update_voxel, zero_skippable, SinogramPair};
use ct_core::image::Image;
use ct_core::sinogram::Sinogram;
use ct_core::sysmat::SystemMatrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Fraction of voxels revisited in each partial pass.
const FRACTION: f32 = 0.10;

/// Partial passes between full passes.
const PARTIALS_PER_FULL: u64 = 3;

/// The NH-ICD driver.
pub struct NhIcd<'a, P: Prior> {
    a: &'a SystemMatrix,
    prior: &'a P,
    weights: &'a Sinogram,
    image: Image,
    error: Sinogram,
    /// |delta| of each voxel's most recent update (the VSC).
    last_delta: Vec<f32>,
    stats: IcdStats,
    rounds: u64,
}

impl<'a, P: Prior> NhIcd<'a, P> {
    /// Initialize (computes `e = y - A init`).
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
        let n = init.grid().num_voxels();
        NhIcd {
            a,
            prior,
            weights,
            image: init,
            error,
            last_delta: vec![0.0; n],
            stats: IcdStats::default(),
            rounds: 0,
        }
    }

    fn visit(&mut self, j: usize, pass: &mut IcdStats) {
        let col = self.a.column(j);
        let mut pair = SinogramPair { e: &mut self.error, w: self.weights };
        let delta = update_voxel(j, &mut self.image, &col, &mut pair, self.prior);
        self.last_delta[j] = delta.abs();
        pass.updates += 1;
        pass.total_abs_delta += delta.abs() as f64;
    }

    /// One full pass (randomized order, zero-skipping after round 0).
    /// Returns the pass's own counters.
    pub fn full_pass(&mut self) -> IcdStats {
        self.rounds += 1;
        let n = self.image.grid().num_voxels();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.shuffle(&mut StdRng::seed_from_u64(self.rounds.wrapping_mul(0x9e3779b9)));
        let allow_skip = self.rounds > 1;
        let mut pass = IcdStats::default();
        for &j in &order {
            let j = j as usize;
            if allow_skip && zero_skippable(&self.image, j) {
                pass.skipped += 1;
                continue;
            }
            self.visit(j, &mut pass);
        }
        self.stats += pass;
        pass
    }

    /// One partial pass: revisit the top 10% of voxels by VSC.
    /// Returns the pass's own counters.
    pub fn partial_pass(&mut self) -> IcdStats {
        self.rounds += 1;
        let n = self.image.grid().num_voxels();
        let count = ((n as f32 * FRACTION).ceil() as usize).clamp(1, n);
        let mut ids: Vec<u32> = (0..n as u32).collect();
        ids.sort_by(|&a, &b| {
            self.last_delta[b as usize]
                .partial_cmp(&self.last_delta[a as usize])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        ids.truncate(count);
        ids.shuffle(&mut StdRng::seed_from_u64(self.rounds.wrapping_mul(0xc2b2ae35)));
        let mut pass = IcdStats::default();
        for &j in &ids {
            self.visit(j as usize, &mut pass);
        }
        self.stats += pass;
        pass
    }

    /// One NH-ICD *cycle*: a full pass followed by three partial
    /// passes.
    pub fn cycle(&mut self) {
        self.full_pass();
        for _ in 0..PARTIALS_PER_FULL {
            self.partial_pass();
        }
    }

    /// Current reconstruction.
    pub fn image(&self) -> &Image {
        &self.image
    }

    /// Equits of work so far.
    pub fn equits(&self) -> f64 {
        self.stats.equits(self.image.grid().num_voxels())
    }
}

/// One step is the next pass of the cycle: a full pass, then three
/// partial passes.
impl<P: Prior> Driver for NhIcd<'_, P> {
    type Report = IcdStats;
    fn step(&mut self) -> IcdStats {
        if self.rounds.is_multiple_of(1 + PARTIALS_PER_FULL) {
            self.full_pass()
        } else {
            self.partial_pass()
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prior::QggmrfPrior;
    use crate::sequential::{golden_image, SequentialIcd};
    use crate::stopping::{run, BoundaryAction, Stop};
    use ct_core::fbp;
    use ct_core::geometry::Geometry;
    use ct_core::phantom::Phantom;
    use ct_core::project::{scan, NoiseModel, Scan};

    fn setup() -> (Geometry, SystemMatrix, Scan) {
        let g = Geometry::tiny_scale();
        let a = SystemMatrix::compute(&g);
        // A baggage scene: sharp objects leave localized residuals —
        // NH-ICD's favourable case.
        let truth = Phantom::baggage(6).render(g.grid, 2);
        let s = scan(&a, &truth, Some(NoiseModel { i0: 1.0e5 }), 5);
        (g, a, s)
    }

    #[test]
    #[should_panic(expected = "weights is 24x48 (views x channels), but the geometry is 24x40")]
    fn weights_of_another_geometry_are_refused() {
        let (g, a, s) = setup();
        let prior = QggmrfPrior::standard(0.002);
        let w = Sinogram::from_vec(24, 48, vec![1.0; 24 * 48]);
        NhIcd::new(&a, &s.y, &w, &prior, Image::zeros(g.grid));
    }

    #[test]
    fn converges_to_golden() {
        let (g, a, s) = setup();
        let prior = QggmrfPrior::standard(0.002);
        let init = fbp::reconstruct(&g, &s.y);
        let golden = golden_image(&a, &s.y, &s.weights, &prior, init.clone(), 40.0);
        let mut nh = NhIcd::new(&a, &s.y, &s.weights, &prior, init);
        let stop = Stop::Golden { image: &golden, hu: 10.0 };
        let out = run(&mut nh, stop, 60, |_, _| BoundaryAction::Continue);
        let rmse = out.trace.last().unwrap().rmse_hu;
        assert!(rmse < 10.0, "rmse {rmse} after {:.1} equits", nh.equits());
    }

    #[test]
    fn uses_fewer_equits_than_plain_icd() {
        // The NH-ICD claim: focusing updates where they matter reaches
        // the same quality with less total work. Both drivers
        // zero-skip, as they always do.
        let (g, a, s) = setup();
        let prior = QggmrfPrior::standard(0.002);
        let init = fbp::reconstruct(&g, &s.y);
        let golden = golden_image(&a, &s.y, &s.weights, &prior, init.clone(), 40.0);

        let mut plain = SequentialIcd::new(&a, &s.y, &s.weights, &prior, init.clone());
        let stop = Stop::Golden { image: &golden, hu: 10.0 };
        run(&mut plain, stop, 60, |_, _| BoundaryAction::Continue);

        let mut nh = NhIcd::new(&a, &s.y, &s.weights, &prior, init);
        run(&mut nh, stop, 200, |_, _| BoundaryAction::Continue);

        assert!(
            nh.equits() < plain.equits() * 1.05,
            "nh {:.2} equits vs plain {:.2}",
            nh.equits(),
            plain.equits()
        );
    }

    #[test]
    fn partial_passes_cost_a_fraction() {
        let (g, a, s) = setup();
        let prior = QggmrfPrior::standard(0.002);
        let mut nh = NhIcd::new(&a, &s.y, &s.weights, &prior, Image::zeros(g.grid));
        // The first full pass skips nothing.
        nh.full_pass();
        let after_full = nh.stats().updates;
        nh.partial_pass();
        let partial = nh.stats().updates - after_full;
        let n = g.grid.num_voxels() as u64;
        assert_eq!(after_full, n);
        assert_eq!(partial, (n as f32 * 0.1).ceil() as u64);
    }

    #[test]
    fn partial_pass_targets_largest_updates() {
        let (g, a, s) = setup();
        let prior = QggmrfPrior::standard(0.002);
        let mut nh = NhIcd::new(&a, &s.y, &s.weights, &prior, Image::zeros(g.grid));
        nh.full_pass();
        // The threshold VSC of the selected set, from a snapshot taken
        // before the partial pass overwrites `last_delta`.
        let pre_vsc = nh.last_delta.clone();
        let mut deltas = pre_vsc.clone();
        deltas.sort_by(|p, q| q.partial_cmp(p).unwrap());
        let count = ((g.grid.num_voxels() as f32 * FRACTION).ceil()) as usize;
        let cutoff = deltas[count - 1];
        let before = nh.image().clone();
        nh.partial_pass();
        // Every voxel whose value changed was in the top-VSC set.
        let mut changed = 0usize;
        for (j, &vsc) in pre_vsc.iter().enumerate() {
            if nh.image().get(j) != before.get(j) {
                assert!(
                    vsc >= cutoff,
                    "voxel {j} changed but its VSC {vsc} is below the cutoff {cutoff}"
                );
                changed += 1;
            }
        }
        assert!(changed > 0, "the partial pass must move something");
    }

    #[test]
    fn error_invariant_holds() {
        let (_, a, s) = setup();
        let prior = QggmrfPrior::standard(0.002);
        let g = Geometry::tiny_scale();
        let mut nh = NhIcd::new(&a, &s.y, &s.weights, &prior, Image::zeros(g.grid));
        nh.cycle();
        let ax = a.forward(nh.image());
        for i in 0..s.y.data().len() {
            let expect = s.y.data()[i] - ax.data()[i];
            assert!((nh.error.data()[i] - expect).abs() < 2e-3);
        }
    }
}
