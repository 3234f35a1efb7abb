//! The one SuperVoxel update of PSV-ICD (paper Algorithm 2) and GPU-ICD
//! (Algorithm 3): Algorithm 1 over each SV's private buffer.
//!
//! [`sweep`] runs one batch of SVs: every SV gathers its band from one
//! error-sinogram snapshot, `visit_sv` updates its voxels against the
//! band on host workers, and the deltas scatter back in batch order.
//! The two drivers differ only in what they hand each visit
//! ([`Visit`]): the voxel-order seed and the in-flight depth.
//!
//! - Depth 0 commits each update before the next voxel's zero-skip
//!   test: sequential Gauss-Seidel within the SV, PSV-ICD's loop.
//! - Depth `d >= 1` is GPU-ICD's emulation of concurrent threadblocks:
//!   a voxel's theta pass misses the last `d - 1` updates and its
//!   zero-skip test the last `d`, the convergence drag the paper
//!   reports for intra-SV parallelism.
//!
//! SVs of one batch belong to one checkerboard group, so their write
//! sets are disjoint and every cross-SV neighbour read lands in an SV
//! frozen for the batch: any worker count gives bitwise-identical
//! images, error sinograms and tallies.

use crate::plan::{SvPlan, SvPlanSet};
use crate::svb::Svb;
use ct_core::image::{Image, SharedImage};
use ct_core::sinogram::Sinogram;
use ct_core::sysmat::SystemMatrix;
use mbir::prior::{clique_weight, Prior};
use mbir::update::voxel_step;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::VecDeque;

/// What the driver decides for one SV visit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Visit {
    /// Seed of the SV's shuffled voxel order.
    pub order_seed: u64,
    /// Updates pending commit at the next voxel's zero-skip test; the
    /// oldest lands before its theta pass. 0 is sequential
    /// Gauss-Seidel.
    pub in_flight: usize,
    /// Threadblocks the SV's voxels are split over, for the
    /// static-distribution tally ([`SvTally::max_block_share`]).
    pub blocks: usize,
    /// Whether zero-skipping applies (every iteration after the first).
    pub allow_skip: bool,
}

/// Counters for one SV's visit within a batch.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SvTally {
    /// SV id.
    pub sv: usize,
    /// Voxel updates performed.
    pub updates: u64,
    /// Voxel visits zero-skipped.
    pub skipped: u64,
    /// Sum of |delta| over updates (selection metric).
    pub abs_delta: f64,
    /// Sparse footprint entries processed (sum of column nnz).
    pub nnz: f64,
    /// Dense elements processed under the chunked layout (nnz plus
    /// padding); equals `nnz` for the naive layout.
    pub dense: f64,
    /// Chunk descriptors read (chunked layout) or per-view start
    /// look-ups (naive layout).
    pub descriptors: f64,
    /// Bytes of the SV's buffer in the active layout (one f32 plane).
    pub svb_bytes: f64,
    /// Mean band width of the SVB in channels (atomic-conflict model).
    pub band_width: f64,
    /// Fraction of the SV's entries carried by its heaviest block:
    /// `1/blocks` under dynamic distribution; larger under static
    /// distribution when zero-skipping skews the split (Table 3 row 4).
    pub max_block_share: f64,
}

/// Update one SV's voxels against its buffer `svb`, in the order
/// `visit.order_seed` shuffles, with `visit.in_flight` updates pending
/// commit at a time. Takes the shared image view so the SVs of a batch
/// can run on worker threads. Every iteration-invariant quantity (band
/// offsets, chunk tallies, quantized columns) comes from the SV's
/// [`SvPlan`].
///
/// A visit dequantizes its column once, into a buffer that its theta
/// gather reads and its commit carries. It reaches the band through
/// the plan's offsets alone, and reads `a.column(j)` only for the f32
/// entries when the plan holds no u8 codes.
fn visit_sv<P: Prior>(
    a: &SystemMatrix,
    image: &SharedImage<'_>,
    prior: &P,
    plan: &SvPlan,
    visit: Visit,
    svb: &mut Svb<'_>,
) -> SvTally {
    let vox = plan.voxels();
    // Shuffle indices into the plan's voxel list. Fisher-Yates is
    // element-type-independent, so this is the permutation shuffling
    // the voxel ids themselves would give.
    let mut order: Vec<u32> = (0..vox.len() as u32).collect();
    order.shuffle(&mut StdRng::seed_from_u64(visit.order_seed));

    let blocks = visit.blocks;
    let mut t = SvTally {
        sv: plan.sv,
        svb_bytes: plan.svb_bytes,
        band_width: plan.band_width,
        max_block_share: 1.0 / blocks as f64,
        ..Default::default()
    };

    // Static-distribution imbalance: blocks own contiguous ranges of
    // the voxel list; measure the heaviest block's update share.
    let mut static_updates = vec![0u64; blocks];
    let range_len = order.len().div_ceil(blocks);

    // Pending updates, oldest first. Each carries its visit's
    // dequantized column, and its commit hands the buffer back for a
    // later visit to refill.
    let mut fifo: VecDeque<(u32, f32, Vec<f32>)> = VecDeque::new();
    let mut spare: Vec<Vec<f32>> = Vec::new();
    let commit = |svb: &mut Svb<'_>, (oi, delta, buf): (u32, f32, Vec<f32>)| {
        if delta != 0.0 {
            let vp = &vox[oi as usize];
            image.set(vp.voxel, image.get(vp.voxel) + delta);
            let col = a.column(vp.voxel);
            svb.apply_delta(plan.entries(&col, &buf), plan.offsets(vp), delta);
        }
        buf
    };
    for (pos, &oi) in order.iter().enumerate() {
        let vp = &vox[oi as usize];
        let j = vp.voxel;
        if visit.allow_skip && image.zero_skippable(j) {
            t.skipped += 1;
            continue;
        }
        // The oldest pending update lands as this one starts.
        if fifo.len() >= visit.in_flight {
            spare.extend(fifo.pop_front().map(|p| commit(svb, p)));
        }
        let col = a.column(j);
        let mut buf = spare.pop().unwrap_or_default();
        plan.dequantize(vp, &mut buf);
        let th = svb.thetas(plan.entries(&col, &buf), plan.offsets(vp));
        let nb = image.neighbors8(j);
        let mut neigh = nb.iter().map(|(k, edge)| (image.get(k), clique_weight(edge)));
        let delta = voxel_step(prior, image.get(j), th, &mut neigh);
        t.updates += 1;
        t.abs_delta += delta.abs() as f64;
        t.nnz += vp.nnz as f64;
        t.dense += vp.dense as f64;
        t.descriptors += vp.descriptors as f64;
        static_updates[(pos / range_len.max(1)).min(blocks - 1)] += 1;
        fifo.push_back((oi, delta, buf));
        // At depth 0 the update lands before the next skip test.
        if fifo.len() > visit.in_flight {
            spare.extend(fifo.pop_front().map(|p| commit(svb, p)));
        }
    }
    for pending in fifo {
        commit(svb, pending);
    }

    if t.updates > 0 {
        let max_static = *static_updates.iter().max().unwrap() as f64;
        t.max_block_share = (max_static / t.updates as f64).max(1.0 / blocks as f64);
    }
    t
}

/// Update the SVs of `batch` (one checkerboard group) on `threads`
/// workers: each gathers its buffer from the current `error`, is
/// visited as `visit(sv, plan)` decides, and turns its buffer into the
/// delta against the same, still untouched, snapshot. The deltas then
/// scatter into `error` in batch order, each SV's sum of |delta| lands
/// in `update_amount[sv]`, and the tallies come back in batch order —
/// the fixed-order commit that keeps every result independent of
/// thread scheduling.
#[allow(clippy::too_many_arguments)]
pub fn sweep<P: Prior>(
    plans: &SvPlanSet,
    batch: &[usize],
    a: &SystemMatrix,
    prior: &P,
    image: &mut Image,
    error: &mut Sinogram,
    weights: &Sinogram,
    update_amount: &mut [f64],
    threads: usize,
    visit: impl Fn(usize, &SvPlan) -> Visit + Sync,
) -> Vec<SvTally> {
    let snapshot = &*error;
    let shared = image.as_shared();
    let visited = mbir_parallel::par_map(threads, batch.len(), |i| {
        let plan = plans.plan(batch[i]);
        let mut svb = Svb::gather(&plan.shape, snapshot, weights);
        let t = visit_sv(a, &shared, prior, plan, visit(batch[i], plan), &mut svb);
        svb.take_delta(snapshot);
        (svb, t)
    });
    visited
        .into_iter()
        .map(|(svb, t)| {
            svb.scatter_delta(error);
            update_amount[t.sv] = t.abs_delta;
            t
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanConfig;
    use crate::tiling::Tiling;
    use ct_core::geometry::Geometry;
    use ct_core::phantom::Phantom;
    use mbir::prior::QggmrfPrior;
    use mbir::update::{update_voxel, zero_skippable};

    /// An image, its error sinogram and per-SV skip counts.
    type Outcome = (Image, Sinogram, Vec<u64>);

    /// Every SV of a tiny plan, one after another, visited at `depth`
    /// and by the sequential reference (`mbir::update::update_voxel`
    /// over the same buffer, in the same order, with the same skip
    /// rule).
    fn visit_and_reference(depth: usize) -> (Outcome, Outcome) {
        let g = Geometry::tiny_scale();
        let a = SystemMatrix::compute(&g);
        let tiling = Tiling::new(g.grid, 4);
        let config = PlanConfig { chunk_width: None, quant_bits: None };
        let plans = SvPlanSet::build(&a, &tiling, config, 1);
        let prior = QggmrfPrior::standard(0.002);
        // The scan sees a Shepp-Logan head; the start image is a water
        // cylinder, zero outside it, so zero-skipping fires there.
        let y = a.forward(&Phantom::shepp_logan().render(g.grid, 2));
        let weights = Sinogram::filled(&g, 1.0);
        let start = Phantom::water_cylinder(0.5).render(g.grid, 1);
        let seed = |sv: usize| 77 ^ (sv as u64).wrapping_mul(0x9e3779b9);

        let (mut image, mut error) = (start.clone(), a.residual(&y, &start));
        let mut amount = vec![0.0; tiling.len()];
        let mut skips = Vec::new();
        for sv in 0..tiling.len() {
            let visit = |sv, _: &SvPlan| Visit {
                order_seed: seed(sv),
                in_flight: depth,
                blocks: 1,
                allow_skip: true,
            };
            let t = sweep(
                &plans,
                &[sv],
                &a,
                &prior,
                &mut image,
                &mut error,
                &weights,
                &mut amount,
                1,
                visit,
            );
            skips.push(t[0].skipped);
        }

        let (mut ref_image, mut ref_error) = (start.clone(), a.residual(&y, &start));
        let mut ref_skips = Vec::new();
        for sv in 0..tiling.len() {
            let plan = plans.plan(sv);
            let mut svb = Svb::gather(&plan.shape, &ref_error, &weights);
            let mut order: Vec<u32> = (0..plan.voxels().len() as u32).collect();
            order.shuffle(&mut StdRng::seed_from_u64(seed(sv)));
            let mut skipped = 0;
            for oi in order {
                let j = plan.voxels()[oi as usize].voxel;
                if zero_skippable(&ref_image, j) {
                    skipped += 1;
                    continue;
                }
                update_voxel(j, &mut ref_image, &a.column(j), &mut svb, &prior);
            }
            svb.take_delta(&ref_error);
            svb.scatter_delta(&mut ref_error);
            ref_skips.push(skipped);
        }
        ((image, error, skips), (ref_image, ref_error, ref_skips))
    }

    #[test]
    fn depth_zero_is_sequential_gauss_seidel_bit_for_bit() {
        let ((image, error, skips), (ref_image, ref_error, ref_skips)) = visit_and_reference(0);
        assert!(ref_skips.iter().sum::<u64>() > 0, "the start image must exercise zero-skipping");
        assert_eq!(skips, ref_skips);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(image.data()), bits(ref_image.data()));
        assert_eq!(bits(error.data()), bits(ref_error.data()));
    }

    #[test]
    fn depth_one_tests_zero_skips_before_the_previous_commit() {
        // One update in flight: the update itself sees every commit,
        // but the next voxel's zero-skip test runs before it lands.
        let ((image, _, skips), (ref_image, _, ref_skips)) = visit_and_reference(1);
        assert!(skips != ref_skips || image != ref_image);
    }
}
