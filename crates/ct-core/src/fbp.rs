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
/// Each pixel is the canonical 8-lane lerp sum ([`mbir_simd::lerp_sum`])
/// of its per-view terms `a + frac * (b - a)`, scaled: term `v` goes
/// into lane `v % 8`, and the lanes combine by the canonical tree
/// ([`mbir_simd::tree_reduce`]). A view whose ray falls outside the
/// detector contributes an exact-zero `(0, 0, 0)` term, whose `+0.0`
/// leaves its lane as it was — a lane starts at `+0.0` and no sum of
/// terms turns it to `-0.0` — which keeps the historical "skip
/// out-of-range views" semantics.
///
/// A row is computed with the views outermost, in three branch-free
/// passes over its pixels per view: the channel coordinate, its floor,
/// whether it lies on the detector and the cell it clamps to; the two
/// interpolation endpoints; and the lerp, added into the view's lane of
/// a lane-major accumulator. Every term is the same arithmetic on the
/// same values as the per-pixel form, and each lane adds its views'
/// terms in view order, so the bits are too.
pub fn backproject(geom: &Geometry, q: &Sinogram) -> Image {
    const LANES: usize = mbir_simd::LANES;
    let mut img = Image::zeros(geom.grid);
    let scale = std::f32::consts::PI / geom.num_views as f32;
    let trig: Vec<(f32, f32)> = (0..geom.num_views)
        .map(|v| {
            let th = geom.angle(v);
            (th.cos(), th.sin())
        })
        .collect();
    let nx = geom.grid.nx;
    let nch = geom.num_channels;
    let last = (nch - 1) as f32;
    let xs: Vec<f32> = (0..nx).map(|col| geom.grid.x_of(col)).collect();
    // Image rows are independent gathers from the (read-only) filtered
    // sinogram — bitwise identical at any thread count.
    let (trig, xs) = (&trig, &xs);
    let rows: Vec<Vec<f32>> = mbir_parallel::par_map(0, geom.grid.ny, |row| {
        let yy = geom.grid.y_of(row);
        let mut cell = vec![0u32; nx];
        let mut keep = vec![0u32; nx];
        let mut fv = vec![0.0f32; nx];
        let mut av = vec![0.0f32; nx];
        let mut bv = vec![0.0f32; nx];
        let mut acc = vec![0.0f32; LANES * nx];
        for (v, &(cv, sv)) in trig.iter().enumerate() {
            let ysv = yy * sv;
            for (col, &xx) in xs.iter().enumerate() {
                let ch = geom.channel_of(xx * cv + ysv);
                let valid = !(ch < 0.0 || ch > last);
                // In range the floor is a whole channel below 2^24, so
                // the i32 cast is exact; off the detector it is cell 0.
                let c0 = if valid { ch.floor() } else { 0.0 } as i32;
                cell[col] = c0 as u32;
                keep[col] = 0u32.wrapping_sub(valid as u32);
                fv[col] = if valid { ch - c0 as f32 } else { 0.0 };
            }
            let row_q = q.view(v);
            for col in 0..nx {
                let c0 = cell[col] as usize;
                let c1 = (c0 + 1).min(nch - 1);
                av[col] = f32::from_bits(row_q[c0].to_bits() & keep[col]);
                bv[col] = f32::from_bits(row_q[c1].to_bits() & keep[col]);
            }
            let lane = &mut acc[(v % LANES) * nx..(v % LANES + 1) * nx];
            for (((o, &a), &b), &f) in lane.iter_mut().zip(&av).zip(&bv).zip(&fv) {
                *o += a + f * (b - a);
            }
        }
        (0..nx)
            .map(|col| mbir_simd::tree_reduce(std::array::from_fn(|l| acc[l * nx + col])) * scale)
            .collect()
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
    use crate::geometry::ImageGrid;
    use crate::phantom::{Phantom, MU_WATER};
    use crate::sysmat::SystemMatrix;

    /// The reference backprojection: per pixel, stage every view's
    /// interpolation endpoints — `(0, 0, 0)` off the detector — and
    /// reduce them with the canonical lerp sum.
    fn backproject_staged(geom: &Geometry, q: &Sinogram) -> Image {
        let mut img = Image::zeros(geom.grid);
        let scale = std::f32::consts::PI / geom.num_views as f32;
        let nv = geom.num_views;
        let (mut av, mut bv, mut fv) = (vec![0.0f32; nv], vec![0.0f32; nv], vec![0.0f32; nv]);
        for row in 0..geom.grid.ny {
            let yy = geom.grid.y_of(row);
            for col in 0..geom.grid.nx {
                let xx = geom.grid.x_of(col);
                for v in 0..nv {
                    let th = geom.angle(v);
                    let t = xx * th.cos() + yy * th.sin();
                    let ch = geom.channel_of(t);
                    if ch < 0.0 || ch > (geom.num_channels - 1) as f32 {
                        (av[v], bv[v], fv[v]) = (0.0, 0.0, 0.0);
                        continue;
                    }
                    let c0 = ch.floor() as usize;
                    let row_q = q.view(v);
                    av[v] = row_q[c0];
                    bv[v] = if c0 + 1 < geom.num_channels { row_q[c0 + 1] } else { av[v] };
                    fv[v] = ch - c0 as f32;
                }
                img.set(geom.grid.index(row, col), mbir_simd::lerp_sum(&av, &bv, &fv) * scale);
            }
        }
        img
    }

    /// An image's bits, every NaN as one: Rust fixes no NaN's sign or
    /// payload, so two equal computations may differ there alone.
    fn image_bits(img: &Image) -> Vec<u32> {
        img.data().iter().map(|v| if v.is_nan() { f32::NAN } else { *v }.to_bits()).collect()
    }

    #[test]
    fn backprojection_matches_the_staged_lerp_sum_at_the_presets() {
        for g in [Geometry::tiny_scale(), Geometry::test_scale()] {
            let a = SystemMatrix::compute(&g);
            let y = a.forward(&Phantom::shepp_logan().render(g.grid, 2));
            let q = filter(&g, &y);
            assert_eq!(image_bits(&backproject(&g, &q)), image_bits(&backproject_staged(&g, &q)));
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The three-pass backprojection adds the staged lerp sum's
            /// bits on random geometries: 1-20 views (most not a
            /// multiple of 8), detectors from a few channels — so many
            /// rays leave it — to wider than the grid, and sinograms
            /// mixing exact zeros, `-0.0`, subnormals and negatives.
            /// In half the cases every 13th cell is infinite, which a
            /// ray off the detector must not read.
            #[test]
            fn backprojection_adds_the_staged_bits(
                views in 1usize..21,
                nx in 1usize..30,
                ny in 1usize..30,
                channels in 1usize..50,
                spacing in 0.3f32..3.0,
                seed in 0u64..1000,
            ) {
                let grid = ImageGrid { nx, ny, pixel_size: 1.0 };
                let g = Geometry {
                    num_views: views,
                    num_channels: channels,
                    channel_spacing: spacing,
                    grid,
                };
                let mut cells = crate::awkward_values(seed, views * channels);
                if seed % 2 == 0 {
                    for (i, c) in cells.iter_mut().enumerate().step_by(13) {
                        *c = if i % 2 == 0 { f32::INFINITY } else { f32::NEG_INFINITY };
                    }
                }
                let q = Sinogram::from_vec(views, channels, cells);
                let want = image_bits(&backproject_staged(&g, &q));
                prop_assert_eq!(image_bits(&backproject(&g, &q)), want);
            }
        }
    }

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
