//! The sparse system matrix `A`.
//!
//! `A` encodes the scanner geometry: entry `A[j][i,c]` is the mean
//! intersection length of voxel `j` with the rays of channel `c` at
//! view `i`. Following the paper, entries are stored **per voxel
//! column**, contiguous across all views ("all these A-matrix elements,
//! across all views, are placed in memory in a contiguous fashion,
//! using a sparse matrix format"), with a per-view starting channel and
//! a one-byte run count — the layout the naive GPU kernel reads and the
//! transformed layout of paper Section 4.1 is derived from.
//!
//! The build writes every array once, in its final buffer. Each voxel
//! range owns disjoint slices of the per-voxel arrays and of one value
//! buffer sized by a bound (every (voxel, view) pair at its most
//! candidates), so ranges build side by side; the gaps the bound leaves
//! between ranges are closed in range order afterwards. Within a range,
//! each view evaluates a fixed number of candidate channels per voxel in
//! one straight-line pass, and a bitmask over them locates each run.

use crate::footprint::Trapezoid;
use crate::geometry::Geometry;
use crate::image::Image;
use crate::sinogram::Sinogram;
use std::sync::Mutex;

/// Entries below `MIN_ENTRY` (mm) are dropped from the sparse storage.
const MIN_ENTRY: f32 = 1e-6;

/// Voxel-chunk granularity of the parallel forward projection: chunk
/// partials are reduced in chunk order, so a grid of at most this many
/// voxels (the tiny 24x24 and test 64x64 scales) is one chunk.
pub const FORWARD_CHUNK: usize = 4096;

/// Sparse system matrix in per-voxel column format.
#[derive(Debug, Clone)]
pub struct SystemMatrix {
    geom: Geometry,
    /// Per voxel: start of its entries in `values` (length `nvox + 1`).
    voxel_offset: Vec<u64>,
    /// Per `(voxel, view)`: first detector channel with a nonzero entry.
    first_channel: Vec<u16>,
    /// Per `(voxel, view)`: number of contiguous nonzero entries.
    count: Vec<u8>,
    /// All entries, voxel-major then view-major then channel-major.
    values: Vec<f32>,
}

/// One voxel range's disjoint share of the arrays under construction.
struct RangeOut<'a> {
    first_channel: &'a mut [u16],
    count: &'a mut [u8],
    /// The range's `voxel_offset[lo + 1..=hi]`, relative to `values`.
    ends: &'a mut [u64],
    /// The range's bound: room for every pair at its most candidates.
    values: &'a mut [f32],
}

impl SystemMatrix {
    /// The most candidate channels per (voxel, view) the build
    /// evaluates: one bit each of a `u64` run mask, so every run count
    /// also fits the `u8` it is stored as.
    pub const MAX_CANDIDATES: usize = 64;

    /// Candidate channels the build evaluates per (voxel, view): the
    /// most the walk's range `floor(channel_of(tc - hb)) ..=
    /// ceil(channel_of(tc + hb))` can hold at any view. A span `w`
    /// channels wide rounds out to at most `⌊w⌋ + 3` channels, so this
    /// is `⌊2·hb_max / spacing⌋ + 3`, 4 at every preset. The span first
    /// gains a margin for the rounding of the two `channel_of` calls,
    /// which moves the count only for a footprint a hair short of a
    /// whole number of channels.
    pub(crate) fn candidates(geom: &Geometry) -> usize {
        let hb_max = Self::per_view_traps(geom).iter().fold(0.0f32, |m, t| m.max(t.2.half_base));
        let spacing = geom.channel_spacing as f64;
        let width = 2.0 * hb_max as f64 / spacing;
        // Each call rounds three times; together they can widen the
        // span by at most 2^-24 * (6 (R + hb) / spacing + channels),
        // R the grid's bounding radius, and 2^-21 * reach covers that.
        let reach =
            (geom.grid.bounding_radius() + hb_max) as f64 / spacing + geom.num_channels as f64;
        (width + reach * 2f64.powi(-21)).floor() as usize + 3
    }

    /// [`Self::candidates`], refusing a geometry whose footprint spans
    /// more than the build handles ([`Self::MAX_CANDIDATES`]).
    ///
    /// # Panics
    ///
    /// If the footprint needs more candidates; the message names the
    /// pixel size and the channel spacing.
    pub(crate) fn checked_candidates(geom: &Geometry) -> usize {
        let kc = Self::candidates(geom);
        assert!(
            kc <= Self::MAX_CANDIDATES,
            "a voxel footprint spans up to {kc} candidate channels, more than the {} the \
             system-matrix build handles: pixel size {} mm against channel spacing {} mm",
            Self::MAX_CANDIDATES,
            geom.grid.pixel_size,
            geom.channel_spacing
        );
        kc
    }

    /// Compute the full system matrix for `geom` on one thread.
    ///
    /// Cost is `O(nvox * num_views)`; at the paper's 512x512/720-view
    /// scale this builds ~500M entries (~2 GB), matching the paper's
    /// observation that the A-matrix stream is the memory bottleneck.
    pub fn compute(geom: &Geometry) -> Self {
        Self::compute_parallel(geom, 1)
    }

    /// Compute the system matrix with `threads` worker threads
    /// (`threads == 0` defers to the process-wide setting,
    /// [`mbir_parallel::threads`]). The result is bit-identical at any
    /// thread count.
    ///
    /// The voxels split into `threads.min(nvox)` balanced ranges, none
    /// of them empty. Every array is allocated once at its final size
    /// (`values` at its bound, whose untouched pages cost no memory),
    /// and each range writes its own disjoint slices in place, its
    /// entries from the start of its bound. One in-order move per later
    /// range then closes the gaps, and `values` is cut to its length.
    /// The ranges build side by side and the moves are serial: on a
    /// two-vCPU host, two threads cut the harness build's wall time by
    /// about a quarter and raise its CPU time by about as much
    /// (EXPERIMENTS.md).
    pub fn compute_parallel(geom: &Geometry, threads: usize) -> Self {
        let kc = Self::checked_candidates(geom);
        let nvox = geom.grid.num_voxels();
        let nviews = geom.num_views;
        let parts = mbir_parallel::resolve(threads).clamp(1, nvox.max(1));
        let bound = |p: usize| p * nvox / parts;
        let per_voxel = nviews * kc;
        let mut voxel_offset = vec![0u64; nvox + 1];
        let mut first_channel = vec![0u16; nvox * nviews];
        let mut count = vec![0u8; nvox * nviews];
        let mut values = vec![0.0f32; nvox * per_voxel];

        let mut outs = Vec::with_capacity(parts);
        let (mut fc, mut ct) = (&mut first_channel[..], &mut count[..]);
        let (mut ends, mut vals) = (&mut voxel_offset[1..], &mut values[..]);
        for p in 0..parts {
            let n = bound(p + 1) - bound(p);
            let (fc_p, fc_rest) = std::mem::take(&mut fc).split_at_mut(n * nviews);
            let (ct_p, ct_rest) = std::mem::take(&mut ct).split_at_mut(n * nviews);
            let (ends_p, ends_rest) = std::mem::take(&mut ends).split_at_mut(n);
            let (vals_p, vals_rest) = std::mem::take(&mut vals).split_at_mut(n * per_voxel);
            (fc, ct, ends, vals) = (fc_rest, ct_rest, ends_rest, vals_rest);
            let out = RangeOut { first_channel: fc_p, count: ct_p, ends: ends_p, values: vals_p };
            outs.push(Mutex::new(Some(out)));
        }
        let per_view = Self::per_view_traps(geom);
        let lens = mbir_parallel::par_map(parts, parts, |p| {
            let out = outs[p].lock().expect("no range writer panicked").take();
            Self::write_range(geom, &per_view, kc, bound(p), out.expect("each range is built once"))
        });
        drop(outs);

        let mut len = lens[0];
        for (p, &n) in lens.iter().enumerate().skip(1) {
            values.copy_within(bound(p) * per_voxel..bound(p) * per_voxel + n, len);
            for o in &mut voxel_offset[bound(p) + 1..=bound(p + 1)] {
                *o += len as u64;
            }
            len += n;
        }
        values.truncate(len);
        values.shrink_to_fit();
        SystemMatrix { geom: *geom, voxel_offset, first_channel, count, values }
    }

    /// Per-view trig and footprints — voxel-independent.
    fn per_view_traps(geom: &Geometry) -> Vec<(f32, f32, Trapezoid)> {
        (0..geom.num_views)
            .map(|v| {
                let th = geom.angle(v);
                let (c, s) = (th.cos(), th.sin());
                (c, s, Trapezoid::from_cos_sin(c.abs(), s.abs(), geom.grid.pixel_size))
            })
            .collect()
    }

    /// Voxel block size of the build's view-outer staging. Big enough
    /// that one view's candidates fill the vector units, small enough
    /// that a block's staged views stay in L2.
    const LANE_BLOCK: usize = 64;

    /// Write the columns of voxels `lo..lo + out.ends.len()` into `out`
    /// and return how many entries they hold (`out.ends` counts from
    /// the start of `out.values`).
    ///
    /// Voxels go in blocks with the *view* loop outermost. At one view,
    /// every voxel of the block evaluates exactly `kc` candidate
    /// channels `c0 .. c0 + kc` from its walk's first channel `c0`,
    /// candidate-major, so the channel offsets and the integral pass are
    /// straight-line loops over `kc` full blocks with the view's
    /// trapezoid in registers ([`Trapezoid::cumulative_select`],
    /// bitwise-equal to the branchy form). A candidate past the walk's
    /// last channel is invalid.
    ///
    /// The walk keeps the streak of entries above `MIN_ENTRY` that
    /// starts at the first such channel, and stops at the first entry
    /// that is not above it (a NaN included) or at its last channel. So
    /// one bit per valid candidate above the threshold is all a run
    /// needs: the mask's trailing zeros are the run's start, and the
    /// trailing ones from there its length. Each run is stored with one
    /// `kc`-wide copy at the cursor, which then advances by the run's
    /// length; a pair advances it by at most `kc`, so the copy never
    /// passes the range's bound. The output bits and entry order are
    /// the walk's by construction (pinned against the branchy reference
    /// by this module's tests).
    fn write_range(
        geom: &Geometry,
        per_view: &[(f32, f32, Trapezoid)],
        kc: usize,
        lo: usize,
        out: RangeOut<'_>,
    ) -> usize {
        const BLOCK: usize = SystemMatrix::LANE_BLOCK;
        let nviews = geom.num_views;
        let n = out.ends.len();
        let half_c = geom.channel_spacing / 2.0;
        let spacing = geom.channel_spacing;
        let nch1 = geom.num_channels as f32 - 1.0;

        // Per-block staging, reused across blocks, view-major: the
        // entries of candidate k of voxel b at view v sit at
        // [(v * kc + k) * BLOCK + b] (one spare view of rows lets a
        // run's copy read `kc` rows from any start), with the voxel's
        // run mask and first candidate channel at [v * BLOCK + b].
        let mut entries = vec![0.0f32; (nviews + 1) * kc * BLOCK];
        let mut masks = vec![0u64; nviews * BLOCK];
        let mut c0s = vec![0.0f32; nviews * BLOCK];
        let mut xs = [0.0f32; BLOCK];
        let mut ys = [0.0f32; BLOCK];
        let mut tcs = [0.0f32; BLOCK];
        let mut valid = [0.0f32; BLOCK];

        let mut cursor = 0usize;
        for block_lo in (0..n).step_by(BLOCK) {
            let bn = (n - block_lo).min(BLOCK);
            for (b, x) in xs.iter_mut().take(bn).enumerate() {
                let (row, col) = geom.grid.row_col(lo + block_lo + b);
                *x = geom.grid.x_of(col);
                ys[b] = geom.grid.y_of(row);
            }

            let mut too_wide = false;
            for (v, &(cv, sv, trap)) in per_view.iter().enumerate() {
                let hb = trap.half_base;
                let c0v = &mut c0s[v * BLOCK..v * BLOCK + bn];
                // The walk's channel range, per voxel, kept in f32: its
                // ends are whole numbers, exact below 2^24, and a range
                // that is empty in the walk's isize arithmetic has a
                // count of zero or less here too.
                for b in 0..bn {
                    let tc = xs[b] * cv + ys[b] * sv;
                    let lo_ch = geom.channel_of(tc - hb);
                    let hi_ch = geom.channel_of(tc + hb);
                    let c0 = lo_ch.floor().max(0.0);
                    let c1 = hi_ch.ceil().min(nch1);
                    tcs[b] = tc;
                    c0v[b] = c0;
                    valid[b] = c1 - c0 + 1.0;
                    too_wide |= valid[b] > kc as f32;
                }
                // The canonical mean_over(t0, t0 + spacing) per
                // candidate, with cumulative() replaced by its
                // bitwise-equal select form; then the run masks. Channel
                // c0 + k is whole and below 2^24, so its f32 is exact and
                // channel_position gives channel_center's bits.
                let stage = &mut entries[v * kc * BLOCK..(v + 1) * kc * BLOCK];
                let mv = &mut masks[v * BLOCK..v * BLOCK + bn];
                mv.fill(0);
                for (k, row) in stage.chunks_exact_mut(BLOCK).enumerate() {
                    for b in 0..bn {
                        let a = geom.channel_position(c0v[b] + k as f32) - half_c - tcs[b];
                        let bb = a + spacing;
                        let w = bb - a;
                        let integral =
                            (trap.cumulative_select(bb) - trap.cumulative_select(a)).max(0.0);
                        let e = if w <= 0.0 { 0.0 } else { integral / w };
                        row[b] = e;
                    }
                }
                for (k, row) in stage.chunks_exact(BLOCK).enumerate() {
                    for b in 0..bn {
                        mv[b] |= ((row[b] > MIN_ENTRY && (k as f32) < valid[b]) as u64) << k;
                    }
                }
            }
            assert!(!too_wide, "a channel range exceeds the {kc} candidates of this geometry");

            // Voxel-major output: each (voxel, view) stores its run and
            // copies `kc` staged entries from the run's start.
            for b in 0..bn {
                let local = block_lo + b;
                for v in 0..nviews {
                    let m = masks[v * BLOCK + b];
                    // An empty mask starts "at" the last candidate, so the
                    // copy below stays inside the staged rows.
                    let start = (m | 1 << (kc - 1)).trailing_zeros() as usize;
                    let len = (!(m >> start)).trailing_zeros() as usize;
                    let idx = local * nviews + v;
                    let first = c0s[v * BLOCK + b] + start as f32;
                    out.first_channel[idx] = if len > 0 { first as u16 } else { 0 };
                    out.count[idx] = len as u8;
                    let src = entries[(v * kc + start) * BLOCK + b..].iter().step_by(BLOCK);
                    for (o, &e) in out.values[cursor..cursor + kc].iter_mut().zip(src) {
                        *o = e;
                    }
                    cursor += len;
                }
                out.ends[local] = cursor as u64;
            }
        }
        cursor
    }

    /// The geometry this matrix was built for.
    #[inline]
    pub fn geometry(&self) -> &Geometry {
        &self.geom
    }

    /// Column (all entries across views) of voxel `j`.
    #[inline]
    pub fn column(&self, j: usize) -> ColumnView<'_> {
        let nviews = self.geom.num_views;
        let v0 = self.voxel_offset[j] as usize;
        let v1 = self.voxel_offset[j + 1] as usize;
        ColumnView {
            first_channel: &self.first_channel[j * nviews..(j + 1) * nviews],
            count: &self.count[j * nviews..(j + 1) * nviews],
            values: &self.values[v0..v1],
        }
    }

    /// Total number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Mean entries per (voxel, view) pair — the "average channels per
    /// voxel per view" of the paper's intra-voxel parallelism estimate.
    pub fn mean_channels_per_view(&self) -> f32 {
        self.nnz() as f32 / (self.geom.grid.num_voxels() * self.geom.num_views) as f32
    }

    /// Resident bytes of the sparse storage: 4 per entry, 3 per
    /// (voxel, view) pair (a `u16` first channel and a `u8` run count)
    /// and 8 per voxel offset.
    pub fn bytes(&self) -> usize {
        self.values.len() * 4
            + self.first_channel.len() * 2
            + self.count.len()
            + self.voxel_offset.len() * 8
    }

    /// Forward projection `y = A x`.
    ///
    /// The grid splits into fixed `FORWARD_CHUNK`-voxel chunks whose
    /// partial sinograms are computed in parallel and reduced in chunk
    /// order — the partitioning depends only on the grid, never on the
    /// worker count, so the result is identical for any number of
    /// threads. The reduction starts from the first partial: every
    /// partial accumulates from `+0.0` and so never holds `-0.0`, which
    /// makes one chunk's sinogram its single-pass accumulation, bit for
    /// bit.
    pub fn forward(&self, image: &Image) -> Sinogram {
        assert_eq!(image.grid(), self.geom.grid);
        let nvox = self.geom.grid.num_voxels();
        let parts = mbir_parallel::par_map(0, nvox.div_ceil(FORWARD_CHUNK), |c| {
            let lo = c * FORWARD_CHUNK;
            let hi = ((c + 1) * FORWARD_CHUNK).min(nvox);
            let mut part = Sinogram::zeros(&self.geom);
            self.forward_range(image, lo, hi, &mut part);
            part
        });
        parts
            .into_iter()
            .reduce(|mut y, part| {
                for (o, &p) in y.data_mut().iter_mut().zip(part.data()) {
                    *o += p;
                }
                y
            })
            .unwrap_or_else(|| Sinogram::zeros(&self.geom))
    }

    /// The residual `e = y - A x`, the error sinogram every ICD driver
    /// starts from and keeps up to date.
    pub fn residual(&self, y: &Sinogram, x: &Image) -> Sinogram {
        let ax = self.forward(x);
        let mut e = y.clone();
        for (ev, axv) in e.data_mut().iter_mut().zip(ax.data()) {
            *ev -= axv;
        }
        e
    }

    /// Scatter the contributions of voxels `lo..hi` into `y`.
    fn forward_range(&self, image: &Image, lo: usize, hi: usize, y: &mut Sinogram) {
        for j in lo..hi {
            let xj = image.get(j);
            if xj == 0.0 {
                continue;
            }
            for seg in self.column(j).segments() {
                let row = y.view_mut(seg.view);
                for (k, &a) in seg.values.iter().enumerate() {
                    row[seg.first_channel + k] += a * xj;
                }
            }
        }
    }

    /// Back projection `A^T s` (used to verify adjointness and by FBP
    /// cross-checks). Voxels are independent gathers, so the parallel
    /// map is bitwise identical to the sequential loop at any thread
    /// count.
    pub fn back(&self, s: &Sinogram) -> Image {
        let nvox = self.geom.grid.num_voxels();
        let vals: Vec<f32> = mbir_parallel::par_map(0, nvox, |j| {
            let mut acc = 0.0f64;
            for seg in self.column(j).segments() {
                let row = s.view(seg.view);
                for (k, &a) in seg.values.iter().enumerate() {
                    acc += (a * row[seg.first_channel + k]) as f64;
                }
            }
            acc as f32
        });
        Image::from_vec(self.geom.grid, vals)
    }

    /// `sum_i sum_c A[j][i,c]^2` for voxel `j` (unweighted theta2).
    pub fn column_norm_sq(&self, j: usize) -> f32 {
        self.column(j).values_flat().iter().map(|&a| a * a).sum()
    }
}

/// Borrowed view of one voxel's column.
#[derive(Debug, Clone, Copy)]
pub struct ColumnView<'a> {
    first_channel: &'a [u16],
    count: &'a [u8],
    values: &'a [f32],
}

/// One view's contiguous run of entries within a column.
#[derive(Debug, Clone, Copy)]
pub struct Segment<'a> {
    /// View index.
    pub view: usize,
    /// First channel of the run.
    pub first_channel: usize,
    /// The entries for channels `first_channel ..`.
    pub values: &'a [f32],
}

impl<'a> ColumnView<'a> {
    /// Iterate the per-view runs in view order.
    pub fn segments(&self) -> impl Iterator<Item = Segment<'a>> + '_ {
        let mut off = 0usize;
        (0..self.first_channel.len()).map(move |v| {
            let n = self.count[v] as usize;
            let seg = Segment {
                view: v,
                first_channel: self.first_channel[v] as usize,
                values: &self.values[off..off + n],
            };
            off += n;
            seg
        })
    }

    /// Run description for one view: `(first_channel, count)`.
    #[inline]
    pub fn run(&self, view: usize) -> (usize, usize) {
        (self.first_channel[view] as usize, self.count[view] as usize)
    }

    /// Per-view first channels, one per view (raw CSR slice — lets hot
    /// loops walk runs without constructing `Segment`s).
    #[inline]
    pub fn first_channels(&self) -> &'a [u16] {
        self.first_channel
    }

    /// Per-view run lengths, co-indexed with [`Self::first_channels`].
    #[inline]
    pub fn counts(&self) -> &'a [u8] {
        self.count
    }

    /// All entries, flat across views.
    #[inline]
    pub fn values_flat(&self) -> &'a [f32] {
        self.values
    }

    /// Number of views.
    #[inline]
    pub fn num_views(&self) -> usize {
        self.first_channel.len()
    }

    /// Total entries in this column (the dot-product length of the
    /// paper's intra-voxel parallelism).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Largest entry (used for u8 quantization scaling).
    pub fn max_value(&self) -> f32 {
        self.values.iter().fold(0.0f32, |m, &v| m.max(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::ImageGrid;

    fn small() -> (Geometry, SystemMatrix) {
        let g = Geometry::tiny_scale();
        let a = SystemMatrix::compute(&g);
        (g, a)
    }

    #[test]
    fn entries_nonnegative_and_bounded() {
        let (g, a) = small();
        let max_len = g.grid.pixel_size * std::f32::consts::SQRT_2;
        for &v in &a.values {
            assert!(v >= 0.0 && v <= max_len + 1e-4);
        }
    }

    #[test]
    fn row_sums_match_path_length() {
        // Sum over channels of mean-length * channel width equals the
        // trapezoid area within the detector: for a voxel well inside
        // the FOV, sum_c A[c] * dc = pixel_size^2 for every view.
        let (g, a) = small();
        let j = g.grid.index(g.grid.ny / 2, g.grid.nx / 2);
        let col = a.column(j);
        for seg in col.segments() {
            let s: f32 = seg.values.iter().sum();
            assert!(
                (s * g.channel_spacing - g.grid.pixel_size * g.grid.pixel_size).abs() < 1e-3,
                "view {}: sum {}",
                seg.view,
                s
            );
        }
    }

    #[test]
    fn trace_is_sinusoidal() {
        // The first-channel trace of an off-center voxel follows
        // round(channel_of(x cos + y sin)) to within the footprint width.
        let (g, a) = small();
        let (row, col) = (4, 18);
        let j = g.grid.index(row, col);
        let x = g.grid.x_of(col);
        let y = g.grid.y_of(row);
        for seg in a.column(j).segments() {
            let tc = g.project_point(seg.view, x, y);
            let center_ch = g.channel_of(tc);
            assert!(
                (seg.first_channel as f32 - center_ch).abs() < 3.0,
                "view {}: first {} vs center {}",
                seg.view,
                seg.first_channel,
                center_ch
            );
        }
    }

    #[test]
    fn forward_of_zero_is_zero() {
        let (g, a) = small();
        let y = a.forward(&Image::zeros(g.grid));
        assert_eq!(y.max_abs(), 0.0);
    }

    #[test]
    fn residual_of_the_projected_image_is_zero() {
        let (g, a) = small();
        let mut img = Image::zeros(g.grid);
        img.set(g.grid.index(10, 12), 0.5);
        let y = a.forward(&img);
        assert_eq!(a.residual(&y, &img).max_abs(), 0.0);
        assert_eq!(a.residual(&y, &Image::zeros(g.grid)), y);
    }

    #[test]
    fn forward_linear_in_image() {
        let (g, a) = small();
        let mut img = Image::zeros(g.grid);
        img.set(g.grid.index(10, 12), 1.0);
        let y1 = a.forward(&img);
        img.set(g.grid.index(10, 12), 2.0);
        let y2 = a.forward(&img);
        for (b, d) in y1.data().iter().zip(y2.data()) {
            assert!((d - 2.0 * b).abs() < 1e-5);
        }
    }

    #[test]
    fn adjointness() {
        // <A x, s> == <x, A^T s> for random-ish x, s.
        let (g, a) = small();
        let mut img = Image::zeros(g.grid);
        for j in 0..g.grid.num_voxels() {
            img.set(j, ((j * 2654435761) % 97) as f32 / 97.0);
        }
        let mut s = Sinogram::zeros(&g);
        for i in 0..s.data().len() {
            s.data_mut()[i] = ((i * 40503) % 89) as f32 / 89.0;
        }
        let ax = a.forward(&img);
        let ats = a.back(&s);
        let lhs: f64 = ax.data().iter().zip(s.data()).map(|(&p, &q)| (p as f64) * (q as f64)).sum();
        let rhs: f64 =
            img.data().iter().zip(ats.data()).map(|(&p, &q)| (p as f64) * (q as f64)).sum();
        let scale = lhs.abs().max(rhs.abs()).max(1.0);
        assert!(((lhs - rhs) / scale).abs() < 1e-5, "lhs {lhs} rhs {rhs}");
    }

    #[test]
    fn column_norm_matches_flat_values() {
        let (g, a) = small();
        let j = g.grid.index(3, 3);
        let manual: f32 = a.column(j).values_flat().iter().map(|&v| v * v).sum();
        assert_eq!(manual, a.column_norm_sq(j));
    }

    #[test]
    fn segments_cover_all_values() {
        let (g, a) = small();
        for j in (0..g.grid.num_voxels()).step_by(37) {
            let col = a.column(j);
            let total: usize = col.segments().map(|s| s.values.len()).sum();
            assert_eq!(total, col.nnz());
        }
    }

    #[test]
    fn mean_channels_is_about_sqrt2_plus_one() {
        // With channel pitch == pixel size, the footprint spans between
        // 1 and ~2.41 channels, so the mean run length is ~2-3.
        let (_, a) = small();
        let m = a.mean_channels_per_view();
        assert!((1.5..=3.5).contains(&m), "mean {m}");
    }

    /// The reference build: the canonical per-channel walk — branchy
    /// [`Trapezoid::mean_over`] per candidate channel, pushing the run
    /// as it goes.
    fn compute_range_scalar(geom: &Geometry, lo: usize, hi: usize) -> SystemMatrix {
        let nviews = geom.num_views;
        let per_view = SystemMatrix::per_view_traps(geom);
        let n = hi - lo;
        let mut voxel_offset = Vec::with_capacity(n + 1);
        let mut first_channel = vec![0u16; n * nviews];
        let mut count = vec![0u8; n * nviews];
        let mut values = Vec::with_capacity(n * nviews * 3);
        voxel_offset.push(0u64);
        let half_c = geom.channel_spacing / 2.0;
        for (local, j) in (lo..hi).enumerate() {
            let (row, col) = geom.grid.row_col(j);
            let x = geom.grid.x_of(col);
            let y = geom.grid.y_of(row);
            for (v, &(cv, sv, trap)) in per_view.iter().enumerate() {
                let tc = x * cv + y * sv;
                let lo_ch = geom.channel_of(tc - trap.half_base);
                let hi_ch = geom.channel_of(tc + trap.half_base);
                let c0 = (lo_ch.floor().max(0.0)) as usize;
                let c1 = (hi_ch.ceil() as isize).min(geom.num_channels as isize - 1);
                let mut first = 0usize;
                let mut nrun = 0usize;
                if c1 >= c0 as isize {
                    for ch in c0..=(c1 as usize) {
                        let t0 = geom.channel_center(ch) - half_c - tc;
                        let a = trap.mean_over(t0, t0 + geom.channel_spacing);
                        if a > MIN_ENTRY {
                            if nrun == 0 {
                                first = ch;
                            }
                            values.push(a);
                            nrun += 1;
                        } else if nrun > 0 {
                            break;
                        }
                    }
                }
                let idx = local * nviews + v;
                first_channel[idx] = first as u16;
                count[idx] = u8::try_from(nrun).expect("a run fits its u8 count");
            }
            voxel_offset.push(values.len() as u64);
        }
        SystemMatrix { geom: *geom, voxel_offset, first_channel, count, values }
    }

    /// `got` holds `want`'s offsets, first channels, counts and entry
    /// bits.
    fn assert_same_bits(got: &SystemMatrix, want: &SystemMatrix, what: &str) {
        assert_eq!(got.voxel_offset, want.voxel_offset, "{what}: offsets");
        assert_eq!(got.first_channel, want.first_channel, "{what}: first channels");
        assert_eq!(got.count, want.count, "{what}: counts");
        let bits = |a: &SystemMatrix| a.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(want), "{what}: entry bits");
    }

    /// The fewest channels of pitch `spacing` that cover `grid`'s FOV,
    /// so corner voxels' runs are clipped at the detector edges.
    fn covering_channels(grid: ImageGrid, spacing: f32) -> usize {
        let mut nch = 1usize;
        while (nch as f32 * spacing / 2.0 + spacing) < grid.bounding_radius() {
            nch += 1;
        }
        nch
    }

    #[test]
    fn lane_build_is_bit_identical_to_scalar() {
        // The invariant for the build: the fixed-width branchless build
        // reproduces the branchy walk bit for bit, including a
        // detector-clipped geometry where corner runs are truncated.
        for g in [Geometry::tiny_scale(), Geometry::new(16, 36, 1.0, ImageGrid::square(24, 1.0))] {
            let scalar = compute_range_scalar(&g, 0, g.grid.num_voxels());
            assert_same_bits(&SystemMatrix::compute(&g), &scalar, "one thread");
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Every thread count builds the branchy walk's bits, on
            /// random small geometries whose detectors just cover the
            /// FOV: 1-40 views, pixel/spacing from 0.25 to 8, grids up
            /// to 40x40.
            #[test]
            fn every_thread_count_builds_the_reference_bits(
                views in 1usize..41,
                nx in 1usize..41,
                ny in 1usize..41,
                ratio in 0.25f32..8.0,
                spacing in 0.5f32..2.0,
            ) {
                let grid = ImageGrid { nx, ny, pixel_size: ratio * spacing };
                let g = Geometry::new(views, covering_channels(grid, spacing), spacing, grid);
                let want = compute_range_scalar(&g, 0, grid.num_voxels());
                for threads in 1..=5 {
                    let got = SystemMatrix::compute_parallel(&g, threads);
                    assert_same_bits(&got, &want, &format!("{g:?} on {threads} threads"));
                }
            }
        }
    }

    #[test]
    fn widest_accepted_footprint_builds_and_the_next_pixel_is_refused() {
        // On unit spacing, with a 45-degree view among four: bisect the
        // f32 pixel sizes for the largest one Geometry::new accepts.
        let geom = |pixel: f32| {
            let grid = ImageGrid::square(3, pixel);
            let nch = covering_channels(grid, 1.0);
            (Geometry { num_views: 4, num_channels: nch, channel_spacing: 1.0, grid }, nch)
        };
        let fits =
            |pixel: f32| SystemMatrix::candidates(&geom(pixel).0) <= SystemMatrix::MAX_CANDIDATES;
        let (mut lo, mut hi) = (1.0f32.to_bits(), 100.0f32.to_bits());
        assert!(fits(f32::from_bits(lo)) && !fits(f32::from_bits(hi)));
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if fits(f32::from_bits(mid)) {
                lo = mid;
            } else {
                hi = mid;
            }
        }

        let (widest, nch) = geom(f32::from_bits(lo));
        let g = Geometry::new(4, nch, 1.0, widest.grid);
        assert_eq!(SystemMatrix::candidates(&g), SystemMatrix::MAX_CANDIDATES);
        let want = compute_range_scalar(&g, 0, g.grid.num_voxels());
        assert!(want.count.iter().any(|&n| n as usize > SystemMatrix::MAX_CANDIDATES - 4));
        for threads in [1, 2] {
            assert_same_bits(&SystemMatrix::compute_parallel(&g, threads), &want, "widest");
        }

        let (refused, nch) = geom(f32::from_bits(hi));
        let err = std::panic::catch_unwind(|| Geometry::new(4, nch, 1.0, refused.grid))
            .expect_err("one f32 step wider is refused");
        let msg = err.downcast_ref::<String>().expect("a formatted message");
        assert!(msg.contains(&format!("pixel size {} mm", refused.grid.pixel_size)), "{msg}");
        assert!(msg.contains("channel spacing 1 mm"), "{msg}");
    }

    #[test]
    fn parallel_build_is_bit_identical() {
        let g = Geometry::tiny_scale();
        let seq = SystemMatrix::compute(&g);
        // 30 threads over 576 voxels: ceil-sized chunks would start the
        // last worker past the grid.
        for threads in [1usize, 2, 3, 5, 30] {
            let par = SystemMatrix::compute_parallel(&g, threads);
            assert_same_bits(&par, &seq, &format!("{threads} threads"));
        }
    }

    #[test]
    fn parallel_build_handles_uneven_splits() {
        // 24x24 = 576 voxels over 7 threads: ranges of 82 and 83 voxels.
        let g = Geometry::tiny_scale();
        let seq = SystemMatrix::compute(&g);
        let par = SystemMatrix::compute_parallel(&g, 7);
        assert_eq!(par.nnz(), seq.nnz());
        for j in (0..g.grid.num_voxels()).step_by(29) {
            assert_eq!(par.column(j).values_flat(), seq.column(j).values_flat());
        }
    }

    #[test]
    fn forward_chunked_matches_ordered_reduction() {
        // 72x72 = 5184 voxels exceeds FORWARD_CHUNK, exercising the
        // parallel chunked path on a cheap 8-view geometry.
        let g = Geometry::new(8, 110, 1.0, ImageGrid::square(72, 1.0));
        let a = SystemMatrix::compute(&g);
        let mut img = Image::zeros(g.grid);
        for j in 0..g.grid.num_voxels() {
            img.set(j, ((j * 2654435761) % 101) as f32 / 101.0);
        }
        let got = a.forward(&img);
        // Reference: the same fixed-chunk ordered reduction, run
        // sequentially — must match bitwise at any worker count.
        let nvox = g.grid.num_voxels();
        let mut want = Sinogram::zeros(&g);
        let mut lo = 0;
        while lo < nvox {
            let hi = (lo + FORWARD_CHUNK).min(nvox);
            let mut part = Sinogram::zeros(&g);
            a.forward_range(&img, lo, hi, &mut part);
            for (o, &p) in want.data_mut().iter_mut().zip(part.data()) {
                *o += p;
            }
            lo = hi;
        }
        assert_eq!(got.data(), want.data());
        // And the chunked sum stays numerically close to the unchunked
        // single pass (reassociation only at chunk boundaries).
        let mut seq = Sinogram::zeros(&g);
        a.forward_range(&img, 0, nvox, &mut seq);
        for (p, q) in got.data().iter().zip(seq.data()) {
            assert!((p - q).abs() <= 1e-4 * q.abs().max(1.0), "{p} vs {q}");
        }
    }

    #[test]
    fn back_parallel_matches_sequential_gather() {
        let (g, a) = small();
        let mut s = Sinogram::zeros(&g);
        for i in 0..s.data().len() {
            s.data_mut()[i] = ((i * 97) % 31) as f32 / 31.0;
        }
        let got = a.back(&s);
        for j in 0..g.grid.num_voxels() {
            let mut acc = 0.0f64;
            for seg in a.column(j).segments() {
                let row = s.view(seg.view);
                for (k, &v) in seg.values.iter().enumerate() {
                    acc += (v * row[seg.first_channel + k]) as f64;
                }
            }
            assert_eq!(got.get(j), acc as f32, "voxel {j}");
        }
    }

    #[test]
    fn detector_clipping_at_fov_edge() {
        // A geometry whose detector only just covers the FOV still
        // produces valid (possibly clipped) runs for corner voxels.
        let g = Geometry::new(16, 36, 1.0, ImageGrid::square(24, 1.0));
        let a = SystemMatrix::compute(&g);
        let j = g.grid.index(0, 0);
        for seg in a.column(j).segments() {
            assert!(seg.first_channel + seg.values.len() <= g.num_channels);
        }
    }
}
