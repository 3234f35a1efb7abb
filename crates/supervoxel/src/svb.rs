//! SuperVoxel buffers (SVBs).
//!
//! An SVB is a per-SV copy of the sinogram band the SV's voxels touch:
//! for each view, the union of the member voxels' channel runs. Copying
//! it out of the global sinogram linearizes the sinusoidal access
//! pattern (PPoPP 2016, Fig. 2 of the paper). Both the error and the
//! weight sinograms are buffered.
//!
//! Two layouts are supported, mirroring paper Section 4.1:
//!
//! - [`SvbLayout::SensorMajor`]: the original packed layout — each
//!   view's band stored back to back with no padding (rows start at
//!   arbitrary offsets; GPU accesses are uncoalesced).
//! - [`SvbLayout::Transposed`]: the transformed layout — one row per
//!   view, all rows padded to the same width and aligned to 32-byte
//!   boundaries ("we make the SVB perfectly rectangular by
//!   zero-padding, and place each row at an aligned address").
//!
//! A voxel visit reads and updates the buffer in one of two ways,
//! bitwise equal: the scalar reference walks the column's runs by
//! `(view, channel)`, and the lane backend reaches the same cells
//! through the offsets the SV's plan stores per element
//! ([`crate::lanes`]).

use crate::tiling::Tiling;
use ct_core::sinogram::Sinogram;
use ct_core::sysmat::{ColumnView, SystemMatrix};
use mbir::update::{Thetas, WeightedError};
use mbir_simd::{AColumn, SimdBackend};

/// Floats per 32-byte alignment sector; padded row widths are rounded
/// up to this.
const ALIGN_F32: usize = 8;

/// How an SVB lays out its `(view, channel)` band in memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SvbLayout {
    /// Packed per-view bands, no padding (the CPU/naive-GPU layout).
    SensorMajor,
    /// Rectangular, zero-padded, 32B-aligned rows (the transformed
    /// layout of paper Fig. 4b).
    Transposed,
}

/// The geometry-static footprint of one SV's band over the sinogram.
#[derive(Debug, Clone)]
pub struct SvbShape {
    /// Per view: first channel of the band.
    pub first: Vec<u32>,
    /// Per view: band width in channels (unpadded).
    pub width: Vec<u32>,
    /// Per view: offset of the view's band in the packed layout
    /// (length `num_views + 1`).
    pub row_offset: Vec<u32>,
    /// Max band width over views, rounded up for row alignment.
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

    /// Compute shapes for every SV of a tiling.
    pub fn compute_all(a: &SystemMatrix, tiling: &Tiling) -> Vec<SvbShape> {
        (0..tiling.len()).map(|sv| SvbShape::compute(a, tiling, sv)).collect()
    }

    /// Number of views.
    pub fn num_views(&self) -> usize {
        self.width.len()
    }

    /// Entries in the packed layout.
    pub fn packed_len(&self) -> usize {
        *self.row_offset.last().unwrap() as usize
    }

    /// Entries in the padded rectangular layout.
    pub fn padded_len(&self) -> usize {
        self.padded_width * self.num_views()
    }

    /// Buffer offset of `(view, channel)` in the given layout;
    /// `channel` is absolute. The pure-shape form of [`Svb::index`],
    /// usable before any buffer is gathered (the plan precomputes
    /// these offsets once per voxel; see [`crate::lanes`]).
    #[inline]
    pub fn index_of(&self, layout: SvbLayout, view: usize, ch: usize) -> usize {
        let rel = ch - self.first[view] as usize;
        debug_assert!(rel < self.width[view] as usize, "channel {ch} outside band at view {view}");
        match layout {
            SvbLayout::SensorMajor => self.row_offset[view] as usize + rel,
            SvbLayout::Transposed => view * self.padded_width + rel,
        }
    }

    /// Per view, the buffer offset of absolute channel 0 in the given
    /// layout, wrapped so that `(view, ch)` in the band sits at
    /// `bases[view].wrapping_add(ch)` — [`SvbShape::index_of`] with the
    /// layout and the band's first channel folded out of the loop.
    pub fn row_bases(&self, layout: SvbLayout) -> Vec<u32> {
        (0..self.num_views())
            .map(|v| {
                let row = match layout {
                    SvbLayout::SensorMajor => self.row_offset[v],
                    SvbLayout::Transposed => (v * self.padded_width) as u32,
                };
                row.wrapping_sub(self.first[v])
            })
            .collect()
    }

    /// Bytes of one f32 buffer in the given layout (the paper's SVB
    /// size; `e` and `w` double it).
    pub fn bytes(&self, layout: SvbLayout) -> usize {
        4 * match layout {
            SvbLayout::SensorMajor => self.packed_len(),
            SvbLayout::Transposed => self.padded_len(),
        }
    }
}

/// An SVB instance: buffered error and weight bands for one SV.
#[derive(Debug, Clone)]
pub struct Svb<'a> {
    shape: &'a SvbShape,
    layout: SvbLayout,
    /// Buffered error band (zero in padding).
    pub e: Vec<f32>,
    /// Buffered weight band (zero in padding).
    pub w: Vec<f32>,
}

impl<'a> Svb<'a> {
    /// Copy the SV's band out of the global sinograms (the paper's
    /// "create SVBs" kernel / PSV-ICD lines 11-12).
    pub fn gather(shape: &'a SvbShape, layout: SvbLayout, e: &Sinogram, w: &Sinogram) -> Svb<'a> {
        let len = match layout {
            SvbLayout::SensorMajor => shape.packed_len(),
            SvbLayout::Transposed => shape.padded_len(),
        };
        let mut be = vec![0.0f32; len];
        let mut bw = vec![0.0f32; len];
        for v in 0..shape.num_views() {
            let fc = shape.first[v] as usize;
            let wd = shape.width[v] as usize;
            let base = match layout {
                SvbLayout::SensorMajor => shape.row_offset[v] as usize,
                SvbLayout::Transposed => v * shape.padded_width,
            };
            let ev = e.view(v);
            let wv = w.view(v);
            be[base..base + wd].copy_from_slice(&ev[fc..fc + wd]);
            bw[base..base + wd].copy_from_slice(&wv[fc..fc + wd]);
        }
        Svb { shape, layout, e: be, w: bw }
    }

    /// The shape this buffer was gathered with.
    pub fn shape(&self) -> &SvbShape {
        self.shape
    }

    /// The layout in use.
    pub fn layout(&self) -> SvbLayout {
        self.layout
    }

    /// Buffer index of `(view, channel)`; `channel` is absolute.
    #[inline]
    pub fn index(&self, view: usize, ch: usize) -> usize {
        self.shape.index_of(self.layout, view, ch)
    }

    /// Add `self - orig` back into the global error sinogram (PSV-ICD
    /// lines 16-19 / the GPU-ICD write-back kernel). Additive deltas
    /// commute across SVs that share boundary sinogram cells.
    ///
    /// Scatters through [`mbir_simd::add_diff`] — one element-wise
    /// kernel shared by every backend (untouched cells add an exact
    /// `+0.0`; see `add_diff` for the zero-sign note), so the scatter
    /// is backend-invariant by construction and free to vectorize.
    pub fn scatter_delta(&self, orig: &Svb<'_>, e: &mut Sinogram) {
        assert_eq!(self.layout, orig.layout);
        for v in 0..self.shape.num_views() {
            let fc = self.shape.first[v] as usize;
            let wd = self.shape.width[v] as usize;
            let base = match self.layout {
                SvbLayout::SensorMajor => self.shape.row_offset[v] as usize,
                SvbLayout::Transposed => v * self.shape.padded_width,
            };
            let row = e.view_mut(v);
            mbir_simd::add_diff(
                &mut row[fc..fc + wd],
                &self.e[base..base + wd],
                &orig.e[base..base + wd],
            );
        }
    }

    /// Theta accumulation over one voxel visit (Algorithm 1 steps
    /// 3-6), backend-dispatched. `a` holds the column's A entries (f32,
    /// or u8 codes) and `offsets` their cells in this band, from the
    /// SV's plan (see [`crate::lanes`]). `Scalar` walks the column's
    /// runs element at a time ([`mbir::update::column_thetas`], the
    /// canonical reference); `Lanes` gathers `e` and `w` through the
    /// offsets into the 8-wide kernel ([`mbir_simd::theta_gather`]).
    /// Bitwise-identical results either way.
    pub fn thetas(
        &self,
        col: &ColumnView<'_>,
        a: AColumn<'_>,
        offsets: &[u32],
        backend: SimdBackend,
    ) -> Thetas {
        match mbir_simd::resolve(backend) {
            SimdBackend::Lanes => {
                let (theta1, theta2) = mbir_simd::theta_gather(a, offsets, &self.e, &self.w);
                Thetas { theta1, theta2 }
            }
            _ => mbir::update::column_thetas(col, a, self),
        }
    }

    /// Scatter `e -= A * delta` over the voxel's footprint (Algorithm 1
    /// steps 9-11), dispatched like [`Svb::thetas`]. The update is
    /// element-wise (no reduction), so both backends perform identical
    /// ops; `Lanes` addresses the cells through the plan's offsets.
    pub fn apply_delta(
        &mut self,
        col: &ColumnView<'_>,
        a: AColumn<'_>,
        offsets: &[u32],
        delta: f32,
        backend: SimdBackend,
    ) {
        match mbir_simd::resolve(backend) {
            SimdBackend::Lanes => mbir_simd::scatter_sub(a, offsets, &mut self.e, delta),
            _ => mbir::update::column_apply(col, a, self, delta),
        }
    }
}

impl WeightedError for Svb<'_> {
    #[inline]
    fn get(&self, view: usize, ch: usize) -> (f32, f32) {
        let i = self.index(view, ch);
        (self.e[i], self.w[i])
    }

    #[inline]
    fn sub(&mut self, view: usize, ch: usize, amount: f32) {
        let i = self.index(view, ch);
        self.e[i] -= amount;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_core::geometry::Geometry;
    use ct_core::image::Image;
    use ct_core::phantom::Phantom;
    use mbir::prior::QuadraticPrior;
    use mbir::update::{compute_thetas, update_voxel, SinogramPair};

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
    fn gather_roundtrips_both_layouts() {
        let (g, a, t, y, w) = setup();
        let shape = SvbShape::compute(&a, &t, 4);
        for layout in [SvbLayout::SensorMajor, SvbLayout::Transposed] {
            let svb = Svb::gather(&shape, layout, &y, &w);
            for v in 0..g.num_views {
                for k in 0..shape.width[v] as usize {
                    let ch = shape.first[v] as usize + k;
                    let (e, wt) = svb.get(v, ch);
                    assert_eq!(e, y.at(v, ch));
                    assert_eq!(wt, w.at(v, ch));
                }
            }
        }
    }

    #[test]
    fn thetas_match_global_sinogram() {
        let (_, a, t, y, w) = setup();
        let sv = 4;
        let shape = SvbShape::compute(&a, &t, sv);
        let svb = Svb::gather(&shape, SvbLayout::Transposed, &y, &w);
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
                update_voxel(j, &mut img1, &a.column(j), &mut pair, &prior, true);
            }
        }

        // Path 2: through an SVB.
        let mut img2 = Image::zeros(g.grid);
        let mut e2 = y.clone();
        let orig = Svb::gather(&shape, SvbLayout::Transposed, &e2, &w);
        let mut svb = orig.clone();
        for j in t.voxels(sv) {
            update_voxel(j, &mut img2, &a.column(j), &mut svb, &prior, true);
        }
        svb.scatter_delta(&orig, &mut e2);

        assert_eq!(img1, img2);
        for i in 0..e1.data().len() {
            assert!((e1.data()[i] - e2.data()[i]).abs() < 1e-4);
        }
    }

    #[test]
    fn scatter_outside_band_untouched() {
        let (g, a, t, y, w) = setup();
        let shape = SvbShape::compute(&a, &t, 0);
        let orig = Svb::gather(&shape, SvbLayout::SensorMajor, &y, &w);
        let mut modified = orig.clone();
        for v in modified.e.iter_mut() {
            *v += 1.0;
        }
        let mut e = y.clone();
        modified.scatter_delta(&orig, &mut e);
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
    fn thetas_dispatch_matches_generic_walk() {
        // The Scalar backend must be literally the generic
        // compute_thetas walk, and Lanes must equal it bitwise.
        let (_, a, t, y, w) = setup();
        let sv = 2;
        let shape = SvbShape::compute(&a, &t, sv);
        let svb = Svb::gather(&shape, SvbLayout::Transposed, &y, &w);
        let bases = shape.row_bases(SvbLayout::Transposed);
        for j in t.voxels(sv) {
            let col = a.column(j);
            let mut offsets = vec![0u32; col.nnz() + mbir_simd::LANES];
            crate::lanes::fill_offsets(&col, &bases, &mut offsets);
            offsets.truncate(col.nnz());
            let reference = compute_thetas(&col, &svb);
            for backend in [SimdBackend::Scalar, SimdBackend::Lanes] {
                let got = svb.thetas(&col, AColumn::F32(col.values_flat()), &offsets, backend);
                assert_eq!(got.theta1.to_bits(), reference.theta1.to_bits());
                assert_eq!(got.theta2.to_bits(), reference.theta2.to_bits());
            }
        }
    }

    #[test]
    fn svb_fits_l2_at_paper_scale_sides() {
        // Sanity for the paper's claim that SVBs fit the 3MB GPU L2.
        let (_, a, t, _, _) = setup();
        let shape = SvbShape::compute(&a, &t, t.len() / 2);
        assert!(shape.bytes(SvbLayout::Transposed) < 3 * 1024 * 1024);
    }
}
