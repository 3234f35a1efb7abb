//! SuperVoxel buffers (SVBs).
//!
//! An SVB is a per-SV copy of the sinogram band the SV's voxels touch:
//! for each view, the union of the member voxels' channel runs. Copying
//! it out of the global sinogram linearizes the sinusoidal access
//! pattern (PPoPP 2016, Fig. 2 of the paper). Both the error and the
//! weight sinograms are buffered.
//!
//! The host holds one layout: each view's band stored back to back with
//! no padding. The paper's transposed layout (Section 4.1, Fig. 4b:
//! "we make the SVB perfectly rectangular by zero-padding, and place
//! each row at an aligned address") changes only how the GPU coalesces
//! its reads, so it lives in the model: [`SvbShape::padded_width`] and
//! [`SvbShape::padded_len`] size the modeled rows, and the SV's plan
//! prices them ([`crate::SvPlan::svb_bytes`]).
//!
//! Each buffer cell holds one `(e, w)` pair, so a visit reads an
//! element's error and weight with one 8-byte load (the paper's
//! double-width L2 loads, §4.3). A voxel visit reaches its cells
//! through the offsets the SV's plan stores per element
//! ([`crate::lanes`]); the `(view, channel)` walk of
//! [`mbir::update::column_thetas`] over the same buffer is the
//! reference it equals bit for bit.

use crate::tiling::Tiling;
use ct_core::sinogram::Sinogram;
use ct_core::sysmat::SystemMatrix;
use mbir::update::{Thetas, WeightedError};

/// Floats per 32-byte alignment sector; padded row widths are rounded
/// up to this.
const ALIGN_F32: usize = 8;

/// The geometry-static footprint of one SV's band over the sinogram.
#[derive(Debug, Clone)]
pub struct SvbShape {
    /// Per view: first channel of the band.
    pub first: Vec<u32>,
    /// Per view: band width in channels (unpadded).
    pub width: Vec<u32>,
    /// Per view: offset of the view's band in the buffer (length
    /// `num_views + 1`).
    pub row_offset: Vec<u32>,
    /// Max band width over views, rounded up for row alignment: the row
    /// width of the modeled GPU's transposed buffer.
    pub padded_width: usize,
}

impl SvbShape {
    /// Compute the band of SV `sv` by scanning its member voxels' runs
    /// in the system matrix.
    pub fn compute(a: &SystemMatrix, tiling: &Tiling, sv: usize) -> SvbShape {
        let nviews = a.geometry().num_views;
        let mut first = vec![u32::MAX; nviews];
        let mut last = vec![0u32; nviews];
        for j in tiling.voxels(sv) {
            let col = a.column(j);
            for v in 0..nviews {
                let (fc, n) = col.run(v);
                if n == 0 {
                    continue;
                }
                first[v] = first[v].min(fc as u32);
                last[v] = last[v].max((fc + n) as u32);
            }
        }
        let mut width = vec![0u32; nviews];
        let mut max_w = 0usize;
        for v in 0..nviews {
            if first[v] == u32::MAX {
                first[v] = 0;
            } else {
                width[v] = last[v] - first[v];
                max_w = max_w.max(width[v] as usize);
            }
        }
        let mut row_offset = Vec::with_capacity(nviews + 1);
        let mut off = 0u32;
        row_offset.push(0);
        for &w in &width {
            off += w;
            row_offset.push(off);
        }
        let padded_width = max_w.div_ceil(ALIGN_F32) * ALIGN_F32;
        SvbShape { first, width, row_offset, padded_width }
    }

    /// Number of views.
    pub fn num_views(&self) -> usize {
        self.width.len()
    }

    /// Cells of the buffer: the band's cells, no padding.
    pub fn packed_len(&self) -> usize {
        *self.row_offset.last().unwrap() as usize
    }

    /// Cells of the modeled GPU's transposed buffer: every view's row
    /// zero-padded to [`SvbShape::padded_width`].
    pub fn padded_len(&self) -> usize {
        self.padded_width * self.num_views()
    }

    /// Buffer offset of `(view, channel)`; `channel` is absolute. The
    /// pure-shape form of [`Svb::index`], usable before any buffer is
    /// gathered (the plan precomputes these offsets once per voxel;
    /// see [`crate::lanes`]).
    #[inline]
    pub fn index_of(&self, view: usize, ch: usize) -> usize {
        let (fc, wd, base) = self.row(view);
        debug_assert!(ch - fc < wd, "channel {ch} outside band at view {view}");
        base + ch - fc
    }

    /// View `view`'s row: its first channel, its width, and where it
    /// starts in the buffer.
    #[inline]
    fn row(&self, view: usize) -> (usize, usize, usize) {
        (self.first[view] as usize, self.width[view] as usize, self.row_offset[view] as usize)
    }

    /// Per view, the buffer offset of absolute channel 0, wrapped so
    /// that `(view, ch)` in the band sits at
    /// `bases[view].wrapping_add(ch)` — [`SvbShape::index_of`] with the
    /// band's first channel folded out of the loop.
    pub fn row_bases(&self) -> Vec<u32> {
        (0..self.num_views()).map(|v| self.row_offset[v].wrapping_sub(self.first[v])).collect()
    }
}

/// An SVB instance: the buffered error and weight bands of one SV.
#[derive(Debug, Clone)]
pub struct Svb<'a> {
    shape: &'a SvbShape,
    /// Buffered `(e, w)` cells: the error and the weight of one band
    /// cell side by side.
    pub cells: Vec<[f32; 2]>,
}

impl<'a> Svb<'a> {
    /// Copy the SV's band out of the global sinograms (the paper's
    /// "create SVBs" kernel / PSV-ICD lines 11-12).
    pub fn gather(shape: &'a SvbShape, e: &Sinogram, w: &Sinogram) -> Svb<'a> {
        let mut cells = Vec::with_capacity(shape.packed_len());
        for v in 0..shape.num_views() {
            let (fc, wd, _) = shape.row(v);
            let band = e.view(v)[fc..fc + wd].iter().zip(&w.view(v)[fc..fc + wd]);
            cells.extend(band.map(|(&ev, &wv)| [ev, wv]));
        }
        Svb { shape, cells }
    }

    /// Buffer index of `(view, channel)`; `channel` is absolute.
    #[inline]
    pub fn index(&self, view: usize, ch: usize) -> usize {
        self.shape.index_of(view, ch)
    }

    /// Turn the buffered error into the SV's delta: the e half of every
    /// band cell becomes `new - old`, with `old` read from `e` — the
    /// error sinogram the band was gathered from, which nothing may
    /// have written since. Weights are left as they are.
    /// Workers call this on their own SV before the ordered
    /// [`Svb::scatter_delta`], so a batch writes each band once and
    /// never copies it.
    pub fn take_delta(&mut self, e: &Sinogram) {
        for v in 0..self.shape.num_views() {
            let (fc, wd, base) = self.shape.row(v);
            for (c, &old) in self.cells[base..base + wd].iter_mut().zip(&e.view(v)[fc..fc + wd]) {
                c[0] -= old;
            }
        }
    }

    /// Add the delta [`Svb::take_delta`] left in the band into the
    /// global error sinogram (PSV-ICD lines 16-19 / the GPU-ICD
    /// write-back kernel). Additive deltas commute across SVs that
    /// share boundary sinogram cells.
    ///
    /// Each cell adds `new - old`, rounded once: an untouched cell adds
    /// `x - x`, an exact `+0.0` under round-to-nearest, which leaves
    /// every value unchanged except a `-0.0` destination, which IEEE 754
    /// normalizes to `+0.0` (`(-0.0) + (+0.0) == +0.0`). That sign
    /// normalization is value-preserving and the same for every thread
    /// count and device count, so it cannot break the bitwise contract.
    pub fn scatter_delta(&self, e: &mut Sinogram) {
        for v in 0..self.shape.num_views() {
            let (fc, wd, base) = self.shape.row(v);
            for (d, c) in e.view_mut(v)[fc..fc + wd].iter_mut().zip(&self.cells[base..base + wd]) {
                *d += c[0];
            }
        }
    }

    /// Theta accumulation over one voxel visit (Algorithm 1 steps
    /// 3-6). `a` holds the column's A entries (the f32 column, or the
    /// plan's codes dequantized once for the visit) and `offsets` their
    /// cells in this band, from the SV's plan (see [`crate::lanes`]):
    /// the `(e, w)` cells are gathered through the offsets into the
    /// 8-wide kernel ([`mbir_simd::theta_gather`]).
    pub fn thetas(&self, a: &[f32], offsets: &[u16]) -> Thetas {
        let (theta1, theta2) = mbir_simd::theta_gather(a, offsets, &self.cells);
        Thetas { theta1, theta2 }
    }

    /// Scatter `e -= A * delta` over the voxel's footprint (Algorithm 1
    /// steps 9-11), through the same offsets as [`Svb::thetas`]
    /// ([`mbir_simd::scatter_sub`]).
    pub fn apply_delta(&mut self, a: &[f32], offsets: &[u16], delta: f32) {
        mbir_simd::scatter_sub(a, offsets, &mut self.cells, delta);
    }
}

impl WeightedError for Svb<'_> {
    #[inline]
    fn get(&self, view: usize, ch: usize) -> (f32, f32) {
        let [e, w] = self.cells[self.index(view, ch)];
        (e, w)
    }

    #[inline]
    fn sub(&mut self, view: usize, ch: usize, amount: f32) {
        let i = self.index(view, ch);
        self.cells[i][0] -= amount;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::QuantizedColumn;
    use ct_core::geometry::Geometry;
    use ct_core::image::Image;
    use ct_core::phantom::Phantom;
    use mbir::prior::QuadraticPrior;
    use mbir::update::{column_thetas, compute_thetas, update_voxel, SinogramPair};

    fn setup() -> (Geometry, SystemMatrix, Tiling, Sinogram, Sinogram) {
        let g = Geometry::tiny_scale();
        let a = SystemMatrix::compute(&g);
        let t = Tiling::new(g.grid, 8);
        let truth = Phantom::water_cylinder(0.6).render(g.grid, 1);
        let y = a.forward(&truth);
        let w = Sinogram::filled(&g, 1.0);
        (g, a, t, y, w)
    }

    #[test]
    fn band_covers_member_runs() {
        let (g, a, t, _, _) = setup();
        for sv in 0..t.len() {
            let shape = SvbShape::compute(&a, &t, sv);
            for j in t.voxels(sv) {
                let col = a.column(j);
                for v in 0..g.num_views {
                    let (fc, n) = col.run(v);
                    if n == 0 {
                        continue;
                    }
                    assert!(fc >= shape.first[v] as usize);
                    assert!(fc + n <= (shape.first[v] + shape.width[v]) as usize);
                }
            }
        }
    }

    #[test]
    fn padded_rows_are_aligned() {
        let (_, a, t, _, _) = setup();
        let shape = SvbShape::compute(&a, &t, 0);
        assert_eq!(shape.padded_width % ALIGN_F32, 0);
        assert!(shape.padded_len() >= shape.packed_len());
    }

    #[test]
    fn gather_roundtrips() {
        let (g, a, t, y, w) = setup();
        let shape = SvbShape::compute(&a, &t, 4);
        let svb = Svb::gather(&shape, &y, &w);
        assert_eq!(svb.cells.len(), shape.packed_len());
        for v in 0..g.num_views {
            for k in 0..shape.width[v] as usize {
                let ch = shape.first[v] as usize + k;
                let (e, wt) = svb.get(v, ch);
                assert_eq!(e, y.at(v, ch));
                assert_eq!(wt, w.at(v, ch));
            }
        }
    }

    #[test]
    fn thetas_match_global_sinogram() {
        let (_, a, t, y, w) = setup();
        let sv = 4;
        let shape = SvbShape::compute(&a, &t, sv);
        let svb = Svb::gather(&shape, &y, &w);
        let mut e = y.clone();
        let pair = SinogramPair { e: &mut e, w: &w };
        for j in t.voxels(sv) {
            let col = a.column(j);
            let th_global = compute_thetas(&col, &pair);
            let th_svb = compute_thetas(&col, &svb);
            assert!((th_global.theta1 - th_svb.theta1).abs() < 1e-4);
            assert!((th_global.theta2 - th_svb.theta2).abs() < 1e-4);
        }
    }

    #[test]
    fn scatter_delta_reproduces_direct_updates() {
        // Updating voxels through an SVB and scattering the delta must
        // produce the same global error sinogram as updating directly.
        let (g, a, t, y, w) = setup();
        let sv = 4;
        let prior = QuadraticPrior { sigma: 0.05 };
        let shape = SvbShape::compute(&a, &t, sv);

        // Path 1: direct updates on the global sinogram.
        let mut img1 = Image::zeros(g.grid);
        let mut e1 = y.clone();
        {
            let mut pair = SinogramPair { e: &mut e1, w: &w };
            for j in t.voxels(sv) {
                update_voxel(j, &mut img1, &a.column(j), &mut pair, &prior);
            }
        }

        // Path 2: through an SVB.
        let mut img2 = Image::zeros(g.grid);
        let mut e2 = y.clone();
        let mut svb = Svb::gather(&shape, &e2, &w);
        for j in t.voxels(sv) {
            update_voxel(j, &mut img2, &a.column(j), &mut svb, &prior);
        }
        svb.take_delta(&e2);
        svb.scatter_delta(&mut e2);

        assert_eq!(img1, img2);
        for i in 0..e1.data().len() {
            assert!((e1.data()[i] - e2.data()[i]).abs() < 1e-4);
        }
    }

    #[test]
    fn scatter_outside_band_untouched() {
        let (g, a, t, y, w) = setup();
        let shape = SvbShape::compute(&a, &t, 0);
        let mut modified = Svb::gather(&shape, &y, &w);
        for c in modified.cells.iter_mut() {
            c[0] += 1.0;
        }
        let mut e = y.clone();
        modified.take_delta(&y);
        modified.scatter_delta(&mut e);
        // Exactly the banded cells moved by +1.
        let mut changed = 0usize;
        for v in 0..g.num_views {
            for ch in 0..g.num_channels {
                let d = e.at(v, ch) - y.at(v, ch);
                if (shape.first[v] as usize..(shape.first[v] + shape.width[v]) as usize)
                    .contains(&ch)
                {
                    assert!((d - 1.0).abs() < 1e-6);
                    changed += 1;
                } else {
                    assert_eq!(d, 0.0);
                }
            }
        }
        assert_eq!(changed, shape.packed_len());
    }

    #[test]
    fn an_untouched_band_scatters_back_bit_for_bit_but_zero_signs() {
        // The delta of an untouched cell is `x - x = +0.0`, which leaves
        // every value's bits alone but turns a -0.0 into +0.0.
        let (g, a, t, y, w) = setup();
        let shape = SvbShape::compute(&a, &t, 0);
        let mut e = y.clone();
        let (v, ch) = (3, shape.first[3] as usize);
        *e.at_mut(v, ch) = -0.0;
        *e.at_mut(v, ch + 1) = f32::MIN_POSITIVE;
        let before = e.clone();
        let mut svb = Svb::gather(&shape, &e, &w);
        svb.take_delta(&e);
        let mut after = e.clone();
        svb.scatter_delta(&mut after);
        for view in 0..g.num_views {
            for c in 0..g.num_channels {
                let want = if (view, c) == (v, ch) { 0.0f32 } else { before.at(view, c) };
                assert_eq!(after.at(view, c).to_bits(), want.to_bits(), "({view}, {c})");
            }
        }
    }

    #[test]
    fn gathered_thetas_match_generic_walk() {
        // The gather through the plan's offsets must equal the generic
        // column_thetas walk bit for bit, for every SV, on f32 entries
        // and on u8 codes dequantized once.
        let (_, a, t, y, w) = setup();
        for sv in 0..t.len() {
            let shape = SvbShape::compute(&a, &t, sv);
            let svb = Svb::gather(&shape, &y, &w);
            let bases = shape.row_bases();
            for j in t.voxels(sv) {
                let col = a.column(j);
                let mut offsets = vec![0u16; col.nnz() + mbir_simd::LANES];
                crate::lanes::fill_offsets(&col, &bases, &mut offsets);
                offsets.truncate(col.nnz());
                let u8_entries = QuantizedColumn::quantize(&col).dequantize_all();
                for entries in [col.values_flat(), &u8_entries] {
                    let reference = column_thetas(&col, entries, &svb);
                    let got = svb.thetas(entries, &offsets);
                    let tag = format!("sv {sv} voxel {j}");
                    assert_eq!(got.theta1.to_bits(), reference.theta1.to_bits(), "{tag}");
                    assert_eq!(got.theta2.to_bits(), reference.theta2.to_bits(), "{tag}");
                }
            }
        }
    }

    #[test]
    fn svb_fits_l2_at_paper_scale_sides() {
        // Sanity for the paper's claim that SVBs fit the 3MB GPU L2.
        let (_, a, t, _, _) = setup();
        let shape = SvbShape::compute(&a, &t, t.len() / 2);
        assert!(4 * shape.padded_len() < 3 * 1024 * 1024);
    }
}
