//! Filtered back projection (FBP), the "direct method" the paper
//! contrasts MBIR against, and a convenient MBIR initializer.
//!
//! Classic Ram-Lak (ramp) filtering in the spatial domain followed by
//! linearly interpolated back projection. The discrete ramp kernel is
//! `h[0] = 1/(4 dc^2)`, `h[k] = -1/(pi k dc)^2` for odd `k`, zero for
//! even nonzero `k` (Kak & Slaney).

use crate::geometry::Geometry;
use crate::image::Image;
use crate::sinogram::Sinogram;

/// Reconstruct an image from `y` by filtered back projection.
pub fn reconstruct(geom: &Geometry, y: &Sinogram) -> Image {
    let filtered = filter(geom, y);
    backproject(geom, &filtered)
}

/// Apply the discrete ramp filter to every view.
///
/// Each output sample is a sliding-window dot of the mirrored full
/// kernel against the view row, reduced with the canonical 8-lane tree
/// ([`mbir_simd::dot`]). Zero taps (even nonzero `k`) participate in
/// the dot: a `hk * p` term of `+0.0` or `-0.0` added to a lane partial
/// never changes its value, and the partials start at `+0.0`, which no
/// mix of `±0.0` additions can flip to `-0.0` — so including them is
/// bit-safe and keeps the inner loop branch-free.
pub fn filter(geom: &Geometry, y: &Sinogram) -> Sinogram {
    let c = geom.num_channels;
    let dc = geom.channel_spacing;
    // Precompute h[k] * dc (the convolution carries a dc factor).
    let mut h = vec![0.0f32; c];
    h[0] = 1.0 / (4.0 * dc * dc);
    for (k, hk) in h.iter_mut().enumerate().skip(1).step_by(2) {
        let pk = std::f32::consts::PI * k as f32 * dc;
        *hk = -1.0 / (pk * pk);
    }
    // Mirror into the full kernel: hfull[k] = h[|k - (c-1)|], so that
    // out[i] = sum_j h[|i-j|] y[j] = dot(hfull[c-1-i ..], row).
    let mut hfull = vec![0.0f32; 2 * c - 1];
    for (k, hf) in hfull.iter_mut().enumerate() {
        *hf = h[k.abs_diff(c - 1)];
    }
    // Views are independent convolutions: each worker computes whole
    // output rows, so any thread count yields bitwise-identical
    // sinograms.
    let hfull = &hfull;
    let rows: Vec<Vec<f32>> = mbir_parallel::par_map(0, geom.num_views, |v| {
        let row = y.view(v);
        let mut orow = vec![0.0f32; c];
        for (i, o) in orow.iter_mut().enumerate() {
            let win = &hfull[c - 1 - i..2 * c - 1 - i];
            *o = mbir_simd::dot(win, row) * dc;
        }
        orow
    });
    let mut out = Sinogram::zeros(geom);
    for (v, row) in rows.iter().enumerate() {
        out.view_mut(v).copy_from_slice(row);
    }
    out
}

/// Back-project filtered views with linear interpolation.
///
/// Per pixel, the per-view interpolation endpoints `(a, b, frac)` are
/// staged into flat per-row buffers and reduced with the canonical
/// 8-lane lerp sum ([`mbir_simd::lerp_sum`]); views whose ray falls
/// outside the detector contribute an exact-zero `(0, 0, 0)` term —
/// lane partials are unchanged by `+0.0` adds, so the staged form
/// keeps every view's lane assignment while matching the historical
/// "skip out-of-range views" semantics.
pub fn backproject(geom: &Geometry, q: &Sinogram) -> Image {
    let mut img = Image::zeros(geom.grid);
    let scale = std::f32::consts::PI / geom.num_views as f32;
    let trig: Vec<(f32, f32)> = (0..geom.num_views)
        .map(|v| {
            let th = geom.angle(v);
            (th.cos(), th.sin())
        })
        .collect();
    // Image rows are independent gathers from the (read-only) filtered
    // sinogram — bitwise identical at any thread count.
    let trig = &trig;
    let rows: Vec<Vec<f32>> = mbir_parallel::par_map(0, geom.grid.ny, |row| {
        let yy = geom.grid.y_of(row);
        let nv = trig.len();
        let mut av = vec![0.0f32; nv];
        let mut bv = vec![0.0f32; nv];
        let mut fv = vec![0.0f32; nv];
        let mut out = vec![0.0f32; geom.grid.nx];
        for (col, o) in out.iter_mut().enumerate() {
            let xx = geom.grid.x_of(col);
            for (v, &(cv, sv)) in trig.iter().enumerate() {
                let t = xx * cv + yy * sv;
                let ch = geom.channel_of(t);
                if ch < 0.0 || ch > (geom.num_channels - 1) as f32 {
                    av[v] = 0.0;
                    bv[v] = 0.0;
                    fv[v] = 0.0;
                    continue;
                }
                let c0 = ch.floor() as usize;
                let row_q = q.view(v);
                let a = row_q[c0];
                av[v] = a;
                bv[v] = if c0 + 1 < geom.num_channels { row_q[c0 + 1] } else { a };
                fv[v] = ch - c0 as f32;
            }
            *o = mbir_simd::lerp_sum(&av, &bv, &fv) * scale;
        }
        out
    });
    for (row, vals) in rows.iter().enumerate() {
        for (col, &v) in vals.iter().enumerate() {
            img.set(geom.grid.index(row, col), v);
        }
    }
    img
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phantom::{Phantom, MU_WATER};
    use crate::sysmat::SystemMatrix;

    #[test]
    fn water_cylinder_recovers_center_value() {
        let g = Geometry::test_scale();
        let a = SystemMatrix::compute(&g);
        let truth = Phantom::water_cylinder(0.5).render(g.grid, 2);
        let y = a.forward(&truth);
        let rec = reconstruct(&g, &y);
        let center = rec.at(g.grid.ny / 2, g.grid.nx / 2);
        assert!((center - MU_WATER).abs() / MU_WATER < 0.2, "center {center} vs {MU_WATER}");
        // Air stays near zero (within 10% of water).
        assert!(rec.at(1, 1).abs() < 0.1 * MU_WATER, "corner {}", rec.at(1, 1));
    }

    #[test]
    fn fbp_is_linear() {
        let g = Geometry::tiny_scale();
        let a = SystemMatrix::compute(&g);
        let truth = Phantom::water_cylinder(0.4).render(g.grid, 1);
        let y = a.forward(&truth);
        let r1 = reconstruct(&g, &y);
        let mut y2 = y.clone();
        for v in y2.data_mut() {
            *v *= 2.0;
        }
        let r2 = reconstruct(&g, &y2);
        for (p, q) in r1.data().iter().zip(r2.data()) {
            assert!((q - 2.0 * p).abs() < 1e-4);
        }
    }

    #[test]
    fn filter_zeroes_dc() {
        // The ramp filter removes the mean: a constant sinogram view
        // filters to (approximately) zero away from the edges.
        let g = Geometry::test_scale();
        let y = Sinogram::filled(&g, 1.0);
        let f = filter(&g, &y);
        let mid = f.at(0, g.num_channels / 2);
        assert!(mid.abs() < 0.05, "mid {mid}");
    }

    #[test]
    fn fbp_beats_raw_backprojection() {
        let g = Geometry::test_scale();
        let a = SystemMatrix::compute(&g);
        let truth = Phantom::shepp_logan().render(g.grid, 2);
        let y = a.forward(&truth);
        let fbp = reconstruct(&g, &y);
        let raw = backproject(&g, &y);
        assert!(fbp.rmse(&truth) < raw.rmse(&truth));
    }
}
