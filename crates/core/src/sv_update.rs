//! GPU-ICD's MBIR update kernel (`MBIR_GPU_Kernel` of Algorithm 3),
//! executed functionally: one SV's voxel updates with `blocks_per_sv`
//! of them in flight. The driver fans the SVs of a batch out across
//! host workers and commits their tallies and buffers in SV order.

use crate::tally::SvTally;
use ct_core::image::SharedImage;
use ct_core::sysmat::SystemMatrix;
use mbir::prior::{clique_weight, Prior};
use mbir::update::voxel_step;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::VecDeque;
use supervoxel::plan::SvPlan;
use supervoxel::svb::Svb;

/// Update one SV's voxels in rounds of `rounds` concurrent updates, in
/// the order `seed` shuffles for `iter` (free function so the driver
/// can split its field borrows; takes the shared image view so batch
/// SVs can run on worker threads). Every
/// iteration-invariant quantity (band offsets, chunk tallies, quantized
/// columns) comes from the SV's [`SvPlan`].
///
/// A visit dequantizes its column once, into a buffer that its theta
/// gather reads and its delayed commit carries. It reaches the band
/// through the plan's offsets alone, and reads `a.column(j)` only for
/// the f32 entries when the plan holds no u8 codes.
#[allow(clippy::too_many_arguments)]
pub(crate) fn update_sv<P: Prior>(
    a: &SystemMatrix,
    image: &SharedImage<'_>,
    prior: &P,
    seed: u64,
    plan: &SvPlan,
    iter: u64,
    svb: &mut Svb<'_>,
    rounds: usize,
    allow_skip: bool,
) -> SvTally {
    let sv = plan.sv;
    let vox = plan.voxels();
    // Shuffle indices into the plan's voxel list. Fisher-Yates is
    // element-type-independent, so this yields the same permutation the
    // old driver got shuffling the voxel ids themselves.
    let mut order: Vec<u32> = (0..vox.len() as u32).collect();
    let mut rng =
        StdRng::seed_from_u64(seed ^ iter.wrapping_mul(131) ^ (sv as u64).wrapping_mul(0x9e3779b9));
    order.shuffle(&mut rng);

    let mut t = SvTally {
        sv,
        svb_bytes: plan.svb_bytes,
        band_width: plan.band_width,
        max_block_share: 1.0 / rounds as f64,
        ..Default::default()
    };

    // Static-distribution imbalance: blocks own contiguous ranges of
    // the voxel list; measure the heaviest block's update share.
    let mut static_updates = vec![0u64; rounds];
    let range_len = order.len().div_ceil(rounds);

    // Concurrency emulation: with `rounds` blocks in flight, a voxel's
    // theta pass misses the commits of the other in-flight updates —
    // on average half of them, since blocks progress in staggered
    // phases and atomics land as each block finishes. Model this as a
    // FIFO of delayed commits of depth `rounds / 2`: a voxel's update
    // becomes visible to updates starting that much later. Depth 1
    // degenerates to sequential Gauss-Seidel semantics.
    //
    // The depth is additionally capped at 1/16 of the SV's voxels: when
    // many blocks squeeze into a small SV, their atomic updates to the
    // narrow shared band contend and serialize (the contention the
    // paper reports for small SV sides), which throttles the *effective*
    // concurrency — without the cap the emulation over-penalizes
    // extreme block-to-voxel ratios that the hardware self-limits.
    //
    // Each delayed commit carries its visit's dequantized column, and
    // hands the buffer back for a later visit to refill.
    let window = (rounds / 2).clamp(1, (order.len() / 16).max(1));
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
        if allow_skip && image.zero_skippable(j) {
            t.skipped += 1;
            continue;
        }
        if fifo.len() >= window {
            spare.push(commit(svb, fifo.pop_front().expect("window >= 1")));
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
        static_updates[(pos / range_len.max(1)).min(rounds - 1)] += 1;
        fifo.push_back((oi, delta, buf));
    }
    for pending in fifo {
        commit(svb, pending);
    }

    if t.updates > 0 {
        let max_static = *static_updates.iter().max().unwrap() as f64;
        t.max_block_share = (max_static / t.updates as f64).max(1.0 / rounds as f64);
    }
    t
}
