//! 3-D (multi-slice) ICD reconstruction.
//!
//! The full MBIR formulation the paper's slices come from: each axial
//! slice of a parallel-beam scan has its own sinogram, but the qGGMRF
//! prior couples voxels across slices through the 26-neighbourhood.
//! A voxel update is exactly Algorithm 1 with the neighbour sum taken
//! in 3-D.
//!
//! Two drivers:
//! - [`VolumeIcd::pass`]: sequential sweeps in randomized order;
//! - [`VolumeIcd::pass_slice_parallel`]: slices partitioned into
//!   even/odd *slabs* (a 1-D checkerboard); slices of one slab never
//!   neighbour each other, so worker threads update them concurrently
//!   with the same guarantees as PSV-ICD's SV checkerboard.

use crate::prior::Prior;
use crate::update::{compute_thetas, voxel_step, SinogramPair};
use ct_core::image::Image;
use ct_core::sinogram::Sinogram;
use ct_core::sysmat::SystemMatrix;
use ct_core::volume::Volume;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// 3-D ICD reconstruction state: one error sinogram per slice, one
/// shared volume.
pub struct VolumeIcd<'a, P: Prior> {
    a: &'a SystemMatrix,
    prior: &'a P,
    weights: &'a [Sinogram],
    volume: Volume,
    errors: Vec<Sinogram>,
    pass_count: u64,
    updates: u64,
}

impl<'a, P: Prior> VolumeIcd<'a, P> {
    /// Initialize from per-slice measurements `ys` and a starting
    /// volume.
    pub fn new(
        a: &'a SystemMatrix,
        ys: &[Sinogram],
        weights: &'a [Sinogram],
        prior: &'a P,
        init: Volume,
    ) -> Self {
        assert_eq!(ys.len(), init.nz(), "one sinogram per slice");
        assert_eq!(weights.len(), init.nz());
        let errors = ys.iter().enumerate().map(|(z, y)| a.residual(y, &init.slice(z))).collect();
        VolumeIcd { a, prior, weights, volume: init, errors, pass_count: 0, updates: 0 }
    }

    /// Current volume.
    pub fn volume(&self) -> &Volume {
        &self.volume
    }

    /// Per-slice error sinograms.
    pub fn errors(&self) -> &[Sinogram] {
        &self.errors
    }

    /// Equits of work (updates / total voxels).
    pub fn equits(&self) -> f64 {
        self.updates as f64 / self.volume.num_voxels() as f64
    }

    /// Update one voxel `(z, j)`; returns the applied delta.
    fn update_voxel(&mut self, z: usize, j: usize) -> f32 {
        let v = self.volume.get(z, j);
        let col = self.a.column(j);
        let th = {
            let pair = SinogramPair { e: &mut self.errors[z], w: &self.weights[z] };
            compute_thetas(&col, &pair)
        };
        let neigh = self.volume.neighbors26(z, j);
        let mut it =
            neigh.into_iter().map(|(zz, jj, class)| (self.volume.get(zz, jj), class.weight()));
        let delta = voxel_step(self.prior, v, th, &mut it);
        if delta != 0.0 {
            self.volume.set(z, j, v + delta);
            let mut pair = SinogramPair { e: &mut self.errors[z], w: &self.weights[z] };
            crate::update::apply_delta(&col, &mut pair, delta);
        }
        delta
    }

    /// One sequential pass over every voxel of every slice.
    pub fn pass(&mut self) {
        self.pass_count += 1;
        let n = self.volume.grid().num_voxels();
        let mut order: Vec<u32> = (0..(n * self.volume.nz()) as u32).collect();
        order.shuffle(&mut StdRng::seed_from_u64(self.pass_count.wrapping_mul(0x9e3779b9)));
        for lin in order {
            let z = lin as usize / n;
            let j = lin as usize % n;
            self.update_voxel(z, j);
            self.updates += 1;
        }
    }

    /// One pass with slice-level parallelism: even slices concurrently,
    /// then odd slices. Within a slab, each worker owns whole slices
    /// (its own error sinogram); prior reads into the frozen opposite
    /// slab are safe. `threads == 0` defers to the process-wide setting
    /// (`mbir_parallel::threads()`); any thread count produces the same
    /// volume bit for bit.
    pub fn pass_slice_parallel(&mut self, threads: usize) {
        self.pass_count += 1;
        let n = self.volume.grid().num_voxels();
        let nz = self.volume.nz();
        for parity in 0..2usize {
            let slab: Vec<usize> = (0..nz).filter(|z| z % 2 == parity).collect();
            let volume = &self.volume;
            let errors = &self.errors;
            let a = self.a;
            let prior = self.prior;
            let weights = self.weights;
            let pass = self.pass_count;
            let results: Vec<(usize, Image, Sinogram, u64)> =
                mbir_parallel::par_map(threads, slab.len(), |i| {
                    let z = slab[i];
                    let mut img = volume.slice(z);
                    let mut err = errors[z].clone();
                    let mut order: Vec<u32> = (0..n as u32).collect();
                    let mut rng = StdRng::seed_from_u64(
                        pass.wrapping_mul(97) ^ (z as u64).wrapping_mul(0x9e3779b9),
                    );
                    order.shuffle(&mut rng);
                    let mut updates = 0u64;
                    for &j in &order {
                        let j = j as usize;
                        let v = img.get(j);
                        let col = a.column(j);
                        let th = {
                            let pair = SinogramPair { e: &mut err, w: &weights[z] };
                            compute_thetas(&col, &pair)
                        };
                        // 3-D neighbours: in-slab reads come from
                        // this worker's own image; cross-slab reads
                        // from the frozen shared volume.
                        let mut neigh =
                            volume.neighbors26(z, j).into_iter().map(|(zz, jj, class)| {
                                let val = if zz == z { img.get(jj) } else { volume.get(zz, jj) };
                                (val, class.weight())
                            });
                        let delta = voxel_step(prior, v, th, &mut neigh);
                        if delta != 0.0 {
                            img.set(j, v + delta);
                            let mut pair = SinogramPair { e: &mut err, w: &weights[z] };
                            crate::update::apply_delta(&col, &mut pair, delta);
                        }
                        updates += 1;
                    }
                    (z, img, err, updates)
                });
            for (z, img, err, updates) in results {
                self.volume.set_slice(z, &img);
                self.errors[z] = err;
                self.updates += updates;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prior::QggmrfPrior;
    use ct_core::geometry::Geometry;
    use ct_core::phantom::Phantom;
    use ct_core::project::{scan, NoiseModel};

    fn setup() -> (Geometry, SystemMatrix, Vec<Sinogram>, Vec<Sinogram>, Volume) {
        let g = Geometry::tiny_scale();
        let a = SystemMatrix::compute(&g);
        // Three slices: a cylinder that changes radius along z.
        let slices: Vec<Image> = [0.35f32, 0.5, 0.6]
            .iter()
            .map(|&r| Phantom::water_cylinder(r).render(g.grid, 2))
            .collect();
        let mut ys = Vec::new();
        let mut ws = Vec::new();
        for (z, s) in slices.iter().enumerate() {
            let sc = scan(&a, s, Some(NoiseModel { i0: 1.0e5 }), 100 + z as u64);
            ys.push(sc.y);
            ws.push(sc.weights);
        }
        (g, a, ys, ws, Volume::from_slices(&slices))
    }

    #[test]
    fn volume_reconstruction_converges() {
        let (g, a, ys, ws, truth) = setup();
        let prior = QggmrfPrior::standard(0.002);
        let init = Volume::zeros(g.grid, 3);
        let mut icd = VolumeIcd::new(&a, &ys, &ws, &prior, init);
        for _ in 0..15 {
            icd.pass();
        }
        let to_hu = 1000.0 / ct_core::phantom::MU_WATER;
        let rmse = icd.volume().rmse(&truth) * to_hu;
        assert!(rmse < 300.0, "rmse {rmse} HU");
        // Slices differ (the radius varies along z).
        assert!(icd.volume().slice(0) != icd.volume().slice(2));
    }

    #[test]
    fn error_invariant_per_slice() {
        let (_, a, ys, ws, truth) = setup();
        let prior = QggmrfPrior::standard(0.002);
        let init = Volume::zeros(truth.grid(), 3);
        let mut icd = VolumeIcd::new(&a, &ys, &ws, &prior, init);
        icd.pass();
        for (z, y) in ys.iter().enumerate() {
            let ax = a.forward(&icd.volume().slice(z));
            for i in 0..y.data().len() {
                let expect = y.data()[i] - ax.data()[i];
                assert!((icd.errors()[z].data()[i] - expect).abs() < 2e-3);
            }
        }
    }

    #[test]
    fn slice_parallel_matches_itself_across_thread_counts() {
        let (g, a, ys, ws, _) = setup();
        let prior = QggmrfPrior::standard(0.002);
        let run = |threads: usize| {
            let mut icd = VolumeIcd::new(&a, &ys, &ws, &prior, Volume::zeros(g.grid, 3));
            for _ in 0..3 {
                icd.pass_slice_parallel(threads);
            }
            icd.volume().clone()
        };
        assert_eq!(run(1), run(3));
    }

    #[test]
    fn parallel_and_sequential_agree_closely() {
        let (g, a, ys, ws, _) = setup();
        let prior = QggmrfPrior::standard(0.002);
        // Start both near the optimum (FBP init, as the pipelines do);
        // different visit orders then keep them in the same small
        // neighbourhood of the shared (convex) fixed point.
        let init = Volume::from_slices(
            &ys.iter().map(|y| ct_core::fbp::reconstruct(&g, y)).collect::<Vec<_>>(),
        );
        let mut seq = VolumeIcd::new(&a, &ys, &ws, &prior, init.clone());
        let mut par = VolumeIcd::new(&a, &ys, &ws, &prior, init);
        for _ in 0..12 {
            seq.pass();
            par.pass_slice_parallel(2);
        }
        let to_hu = 1000.0 / ct_core::phantom::MU_WATER;
        let diff = seq.volume().rmse(par.volume()) * to_hu;
        assert!(diff < 15.0, "sequential vs slice-parallel differ by {diff} HU");
    }

    #[test]
    fn prior_couples_slices() {
        // With a strong prior, a slice reconstructed between two
        // brighter slices is pulled up relative to reconstructing it
        // alone — evidence the 3-D neighbourhood acts.
        let (g, a, _, _, _) = setup();
        let bright = Phantom::water_cylinder(0.5).render(g.grid, 1);
        let dark = Image::zeros(g.grid);
        let ys: Vec<Sinogram> = vec![a.forward(&bright), a.forward(&dark), a.forward(&bright)];
        let ws = vec![Sinogram::filled(&Geometry::tiny_scale(), 1.0); 3];
        let prior = QggmrfPrior { sigma: 0.02, ..QggmrfPrior::standard(0.02) };
        let mut icd = VolumeIcd::new(&a, &ys, &ws, &prior, Volume::zeros(g.grid, 3));
        for _ in 0..6 {
            icd.pass();
        }
        let center = g.grid.index(12, 12);
        let mid = icd.volume().get(1, center);
        assert!(mid > 0.0, "middle slice pulled up by the 3-D prior: {mid}");
    }

    #[test]
    fn equit_accounting() {
        let (g, a, ys, ws, _) = setup();
        let prior = QggmrfPrior::standard(0.002);
        let mut icd = VolumeIcd::new(&a, &ys, &ws, &prior, Volume::zeros(g.grid, 3));
        icd.pass();
        assert!((icd.equits() - 1.0).abs() < 1e-9);
        icd.pass_slice_parallel(2);
        assert!((icd.equits() - 2.0).abs() < 1e-9);
    }
}
