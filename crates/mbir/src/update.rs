//! The single-voxel ICD update — the paper's Algorithm 1.
//!
//! A voxel visit accumulates `theta1 = -sum w A e` and
//! `theta2 = sum w A^2` over the voxel's sinogram footprint, solves the
//! 1-D prior subproblem for the step `delta`, and writes
//! `e -= A delta` back over the same footprint.
//!
//! The accumulation is generic over [`WeightedError`] so the exact same
//! update runs against the full error sinogram (sequential ICD), a
//! SuperVoxel buffer (PSV-ICD and GPU-ICD), or the transformed/padded
//! layouts of paper Section 4.1.

use crate::prior::{clique_weight, Prior};
use ct_core::image::Image;
use ct_core::sinogram::Sinogram;
use ct_core::sysmat::ColumnView;

/// The data-term coefficients of one voxel visit.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Thetas {
    /// `-sum_i sum_c w * A * e` (negative weighted correlation).
    pub theta1: f32,
    /// `sum_i sum_c w * A^2` (data-term curvature).
    pub theta2: f32,
}

/// Read/write access to co-indexed error and weight entries, addressed
/// by `(view, channel)` in detector coordinates.
pub trait WeightedError {
    /// `(e, w)` at `(view, channel)`.
    fn get(&self, view: usize, ch: usize) -> (f32, f32);

    /// `e -= amount` at `(view, channel)`.
    fn sub(&mut self, view: usize, ch: usize, amount: f32);
}

/// The plain pairing of the full error sinogram with the weight
/// sinogram (sequential ICD).
pub struct SinogramPair<'a> {
    /// Error sinogram `e = y - A x`, updated in place.
    pub e: &'a mut Sinogram,
    /// Weight sinogram `w` (read-only).
    pub w: &'a Sinogram,
}

impl WeightedError for SinogramPair<'_> {
    #[inline]
    fn get(&self, view: usize, ch: usize) -> (f32, f32) {
        (self.e.at(view, ch), self.w.at(view, ch))
    }

    #[inline]
    fn sub(&mut self, view: usize, ch: usize, amount: f32) {
        *self.e.at_mut(view, ch) -= amount;
    }
}

/// Accumulate `theta1`, `theta2` over a voxel's footprint
/// (steps 3-6 of Algorithm 1).
pub fn compute_thetas<E: WeightedError>(col: &ColumnView<'_>, ew: &E) -> Thetas {
    column_thetas(col, col.values_flat(), ew)
}

/// [`compute_thetas`] with the column's A entries supplied apart from
/// its runs: the f32 values, or a dequantized u8 copy in the same flat
/// order. This is the one scalar reference walk. It goes through the
/// raw CSR slices, free of per-view iterator construction, and entry
/// `k` of the flat stream lands in canonical lane `k % 8` of an
/// [`mbir_simd::ThetaAcc`]. The gather kernel every GPU-ICD and
/// PSV-ICD visit runs ([`mbir_simd::theta_gather`]) must — and does —
/// match it bitwise; sequential ICD, NH-ICD and `VolumeIcd` run this
/// walk itself.
pub fn column_thetas<E: WeightedError>(col: &ColumnView<'_>, a: &[f32], ew: &E) -> Thetas {
    let mut acc = mbir_simd::ThetaAcc::new();
    walk_runs(col, a, |view, ch, av| {
        let (e, w) = ew.get(view, ch);
        acc.push(av, e, w);
    });
    let (theta1, theta2) = acc.finish();
    Thetas { theta1, theta2 }
}

/// Scatter `e -= A * delta` over the voxel's footprint
/// (steps 9-11 of Algorithm 1).
pub fn apply_delta<E: WeightedError>(col: &ColumnView<'_>, ew: &mut E, delta: f32) {
    column_apply(col, col.values_flat(), ew, delta);
}

/// [`apply_delta`] with the A entries supplied apart from the runs,
/// as in [`column_thetas`].
pub fn column_apply<E: WeightedError>(col: &ColumnView<'_>, a: &[f32], ew: &mut E, delta: f32) {
    walk_runs(col, a, |view, ch, av| ew.sub(view, ch, av * delta));
}

/// Visit `(view, channel, A)` for every entry of a column in flat
/// order.
#[inline(always)]
fn walk_runs(col: &ColumnView<'_>, a: &[f32], mut f: impl FnMut(usize, usize, f32)) {
    assert_eq!(a.len(), col.nnz(), "A entries do not match the column's runs");
    let first = col.first_channels();
    let count = col.counts();
    let mut off = 0usize;
    for view in 0..first.len() {
        let n = count[view] as usize;
        let fc = first[view] as usize;
        for (k, &av) in a[off..off + n].iter().enumerate() {
            f(view, fc + k, av);
        }
        off += n;
    }
}

/// Whether voxel `j` can be zero-skipped: its value and all neighbour
/// values are exactly zero (paper Section 2).
pub fn zero_skippable(image: &Image, j: usize) -> bool {
    image.get(j) == 0.0 && image.neighbors8(j).iter().all(|(k, _)| image.get(k) == 0.0)
}

/// The 1-D solve of Algorithm 1 (steps 7-8): the prior's step for a
/// voxel at value `v` with data-term coefficients `th` and its
/// neighbours as `(value, clique weight)` pairs, clipped so the voxel
/// stays at or above zero (positivity, the standard MBIR constraint for
/// attenuation images). Every ICD driver solves through this one
/// function.
pub fn voxel_step<P: Prior>(
    prior: &P,
    v: f32,
    th: Thetas,
    neighbors: &mut dyn Iterator<Item = (f32, f32)>,
) -> f32 {
    let delta = prior.step(v, th.theta1, th.theta2, neighbors);
    if v + delta < 0.0 {
        -v
    } else {
        delta
    }
}

/// Perform one full voxel update (Algorithm 1): returns the applied
/// step `delta` (0 when the solve yields no movement).
pub fn update_voxel<E: WeightedError, P: Prior>(
    j: usize,
    image: &mut Image,
    col: &ColumnView<'_>,
    ew: &mut E,
    prior: &P,
) -> f32 {
    let v = image.get(j);
    let th = compute_thetas(col, ew);
    let nb = image.neighbors8(j);
    let mut neigh = nb.iter().map(|(k, edge)| (image.get(k), clique_weight(edge)));
    let delta = voxel_step(prior, v, th, &mut neigh);
    if delta != 0.0 {
        image.set(j, v + delta);
        apply_delta(col, ew, delta);
    }
    delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prior::QuadraticPrior;
    use ct_core::geometry::Geometry;
    use ct_core::phantom::Phantom;
    use ct_core::sysmat::SystemMatrix;

    fn setup() -> (Geometry, SystemMatrix, Image, Sinogram, Sinogram) {
        let g = Geometry::tiny_scale();
        let a = SystemMatrix::compute(&g);
        let truth = Phantom::water_cylinder(0.5).render(g.grid, 1);
        let y = a.forward(&truth);
        let w = Sinogram::filled(&g, 1.0);
        (g, a, truth, y, w)
    }

    #[test]
    fn thetas_zero_when_error_zero() {
        let (g, a, truth, y, w) = setup();
        // e = y - A x with x = truth gives exactly zero error.
        let mut e = a.residual(&y, &truth);
        let j = g.grid.index(12, 12);
        let pair = SinogramPair { e: &mut e, w: &w };
        let th = compute_thetas(&a.column(j), &pair);
        assert!(th.theta1.abs() < 1e-4);
        assert!(th.theta2 > 0.0);
    }

    #[test]
    fn theta2_is_weighted_column_norm() {
        let (g, a, _, _, w) = setup();
        let mut e = Sinogram::zeros(&g);
        let j = g.grid.index(10, 14);
        let pair = SinogramPair { e: &mut e, w: &w };
        let th = compute_thetas(&a.column(j), &pair);
        assert!((th.theta2 - a.column_norm_sq(j)).abs() / th.theta2 < 1e-5);
    }

    #[test]
    fn error_invariant_maintained() {
        // After any sequence of updates, e must equal y - A x exactly
        // (to float precision).
        let (g, a, _, y, w) = setup();
        let mut image = Image::zeros(g.grid);
        let mut e = y.clone();
        let prior = QuadraticPrior { sigma: 0.01 };
        {
            let mut pair = SinogramPair { e: &mut e, w: &w };
            for j in (0..g.grid.num_voxels()).step_by(3) {
                update_voxel(j, &mut image, &a.column(j), &mut pair, &prior);
            }
        }
        let ax = a.forward(&image);
        for i in 0..y.data().len() {
            let expect = y.data()[i] - ax.data()[i];
            assert!(
                (e.data()[i] - expect).abs() < 1e-3,
                "i={i}: e={} expect={}",
                e.data()[i],
                expect
            );
        }
    }

    #[test]
    fn update_reduces_cost() {
        let (g, a, _, y, w) = setup();
        let mut image = Image::zeros(g.grid);
        let mut e = y.clone();
        let prior = QuadraticPrior { sigma: 0.01 };
        let cost = |e: &Sinogram, img: &Image| -> f64 {
            let data: f64 = e
                .data()
                .iter()
                .zip(w.data())
                .map(|(&ei, &wi)| 0.5 * (wi as f64) * (ei as f64) * (ei as f64))
                .sum();
            data + prior.cost(img)
        };
        let before = cost(&e, &image);
        let j = g.grid.index(12, 12);
        let mut pair = SinogramPair { e: &mut e, w: &w };
        let delta = update_voxel(j, &mut image, &a.column(j), &mut pair, &prior);
        assert!(delta > 0.0); // the cylinder is positive there
        let after = cost(&e, &image);
        assert!(after < before, "before {before} after {after}");
    }

    #[test]
    fn positivity_clips_at_zero() {
        let (g, a, _, _, w) = setup();
        let mut image = Image::zeros(g.grid);
        // Negative measurements drive the unconstrained step negative.
        let mut e = Sinogram::filled(&g, -1.0);
        let prior = QuadraticPrior { sigma: 0.01 };
        let j = g.grid.index(12, 12);
        let mut pair = SinogramPair { e: &mut e, w: &w };
        let delta = update_voxel(j, &mut image, &a.column(j), &mut pair, &prior);
        assert_eq!(delta, 0.0);
        assert_eq!(image.get(j), 0.0);
    }

    #[test]
    fn voxel_step_clips_only_below_zero() {
        let prior = QuadraticPrior { sigma: 0.01 };
        let neigh = [(0.2f32, 0.1f32), (0.0, 0.07), (0.3, 0.1)];
        let step = |v: f32, theta1: f32| {
            let th = Thetas { theta1, theta2: 50.0 };
            voxel_step(&prior, v, th, &mut neigh.iter().copied())
        };
        let raw = |v: f32, theta1: f32| prior.step(v, theta1, 50.0, &mut neigh.iter().copied());
        // A large positive theta1 drives the step far below zero.
        let (v, pull) = (0.05f32, 1.0e4f32);
        assert!(v + raw(v, pull) < 0.0);
        assert_eq!(step(v, pull).to_bits(), (-v).to_bits());
        // An unclipped step is the prior's own, bit for bit.
        let push = -30.0f32;
        assert!(v + raw(v, push) >= 0.0);
        assert_eq!(step(v, push).to_bits(), raw(v, push).to_bits());
    }

    #[test]
    fn zero_skip_detection() {
        let (g, _, _, _, _) = setup();
        let mut image = Image::zeros(g.grid);
        assert!(zero_skippable(&image, g.grid.index(5, 5)));
        image.set(g.grid.index(5, 6), 0.5);
        assert!(!zero_skippable(&image, g.grid.index(5, 5)));
        assert!(!zero_skippable(&image, g.grid.index(5, 6)));
        assert!(zero_skippable(&image, g.grid.index(20, 20)));
    }
}
