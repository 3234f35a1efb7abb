//! The sparse system matrix `A`.
//!
//! `A` encodes the scanner geometry: entry `A[j][i,c]` is the mean
//! intersection length of voxel `j` with the rays of channel `c` at
//! view `i`. Following the paper, entries are stored **per voxel
//! column**, contiguous across all views ("all these A-matrix elements,
//! across all views, are placed in memory in a contiguous fashion,
//! using a sparse matrix format"), with a per-view starting channel —
//! the layout the naive GPU kernel reads and the transformed layout of
//! paper Section 4.1 is derived from.

use crate::footprint::Trapezoid;
use crate::geometry::Geometry;
use crate::image::Image;
use crate::sinogram::Sinogram;

/// Entries below `MIN_ENTRY` (mm) are dropped from the sparse storage.
const MIN_ENTRY: f32 = 1e-6;

/// Voxel-chunk granularity of the parallel forward projection. Grids
/// at or below this size (the tiny 24x24 and test 64x64 scales) take
/// the single-chunk sequential path, preserving the historical
/// bit-exact sinograms; larger grids reduce fixed chunks in order.
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
    count: Vec<u16>,
    /// All entries, voxel-major then view-major then channel-major.
    values: Vec<f32>,
}

impl SystemMatrix {
    /// Compute the full system matrix for `geom`.
    ///
    /// Cost is `O(nvox * num_views)`; at the paper's 512x512/720-view
    /// scale this builds ~500M entries (~2 GB), matching the paper's
    /// observation that the A-matrix stream is the memory bottleneck.
    pub fn compute(geom: &Geometry) -> Self {
        Self::compute_range(geom, 0, geom.grid.num_voxels())
    }

    /// Compute the system matrix with `threads` worker threads
    /// (voxel ranges are independent; results are bit-identical to
    /// [`SystemMatrix::compute`]). At the paper's 512x512/720-view
    /// scale the single-threaded build takes tens of seconds; this
    /// scales nearly linearly.
    /// `threads == 0` defers to the process-wide setting
    /// ([`mbir_parallel::threads`]).
    ///
    /// The voxels split into `threads.min(nvox)` balanced ranges, none
    /// of them empty, built by [`mbir_parallel::par_map`] and
    /// concatenated in order.
    pub fn compute_parallel(geom: &Geometry, threads: usize) -> Self {
        let nvox = geom.grid.num_voxels();
        let parts = mbir_parallel::resolve(threads).min(nvox);
        if parts <= 1 {
            return Self::compute(geom);
        }
        let bound = |p: usize| p * nvox / parts;
        let pieces: Vec<SystemMatrix> = mbir_parallel::par_map(parts, parts, |p| {
            Self::compute_range(geom, bound(p), bound(p + 1))
        });

        // Concatenate the per-range pieces.
        let nviews = geom.num_views;
        let mut voxel_offset = Vec::with_capacity(nvox + 1);
        let mut first_channel = Vec::with_capacity(nvox * nviews);
        let mut count = Vec::with_capacity(nvox * nviews);
        let mut values = Vec::with_capacity(pieces.iter().map(|p| p.values.len()).sum());
        voxel_offset.push(0u64);
        for piece in pieces {
            let base = values.len() as u64;
            voxel_offset.extend(piece.voxel_offset[1..].iter().map(|&o| o + base));
            first_channel.extend_from_slice(&piece.first_channel);
            count.extend_from_slice(&piece.count);
            values.extend_from_slice(&piece.values);
        }
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
    /// that one view's staged candidates (~3 per voxel) fill the vector
    /// units, small enough that the staging buffers stay in L1.
    const LANE_BLOCK: usize = 64;

    /// Compute the columns of voxels `lo..hi` only (offsets are local):
    /// process voxels in blocks with the *view* loop outermost. For one
    /// view, every candidate channel of the block shares the same
    /// trapezoid, so only the channel offset `t0` is staged — the
    /// footprint constants stay in registers and the integral pass over
    /// the view's staged range is a straight-line branchless loop
    /// ([`Trapezoid::cumulative_select`], bitwise-equal to the branchy
    /// form; the packed divides are where the lane throughput is).
    /// Per-view spans then drive a voxel-major run extraction with the
    /// threshold/break logic of the canonical per-channel walk, so the
    /// output bits and entry order are that walk's by construction
    /// (pinned by the test `lane_build_is_bit_identical_to_scalar`).
    fn compute_range(geom: &Geometry, lo: usize, hi: usize) -> Self {
        let nviews = geom.num_views;
        let per_view = Self::per_view_traps(geom);
        let n = hi - lo;
        let mut voxel_offset = Vec::with_capacity(n + 1);
        let mut first_channel = vec![0u16; n * nviews];
        let mut count = vec![0u16; n * nviews];
        let mut values = Vec::with_capacity(n * nviews * 3);
        voxel_offset.push(0u64);
        let half_c = geom.channel_spacing / 2.0;
        let spacing = geom.channel_spacing;

        const BLOCK: usize = SystemMatrix::LANE_BLOCK;
        // Per-block staging, reused across blocks: candidate channel
        // offsets (t0) and evaluated entries, view-major within the
        // block; spans[b * nviews + v] = (first candidate channel,
        // start, len) into them for voxel b of the block at view v.
        let mut t0s: Vec<f32> = Vec::with_capacity(BLOCK * nviews * 4);
        let mut entries: Vec<f32> = Vec::with_capacity(BLOCK * nviews * 4);
        let mut spans: Vec<(u32, u32, u32)> = vec![(0, 0, 0); BLOCK * nviews];
        let mut xs = [0.0f32; BLOCK];
        let mut ys = [0.0f32; BLOCK];
        let mut tcs = [0.0f32; BLOCK];
        let mut c0s = [0i32; BLOCK];
        let mut c1s = [0i32; BLOCK];

        let mut block_lo = lo;
        while block_lo < hi {
            let bn = (hi - block_lo).min(BLOCK);
            for (b, item) in xs.iter_mut().take(bn).enumerate() {
                let (row, col) = geom.grid.row_col(block_lo + b);
                *item = geom.grid.x_of(col);
                ys[b] = geom.grid.y_of(row);
            }

            t0s.clear();
            entries.clear();
            for (v, &(cv, sv, trap)) in per_view.iter().enumerate() {
                let vs_start = t0s.len();
                let hb = trap.half_base;
                let nch1 = geom.num_channels as i32 - 1;
                // Uniform per-voxel setup — no data-dependent control
                // flow, so the projections and channel-range clamps
                // pack across the block. The range clamps run in i32
                // (saturating casts agree with the reference walk's isize
                // path for every representable channel index).
                for b in 0..bn {
                    let tc = xs[b] * cv + ys[b] * sv;
                    let lo_ch = geom.channel_of(tc - hb);
                    let hi_ch = geom.channel_of(tc + hb);
                    tcs[b] = tc;
                    c0s[b] = (lo_ch.floor().max(0.0)) as i32;
                    c1s[b] = (hi_ch.ceil() as i32).min(nch1);
                }
                for b in 0..bn {
                    let tc = tcs[b];
                    let (c0, c1) = (c0s[b], c1s[b]);
                    let start = t0s.len();
                    if c1 >= c0 {
                        // Exclusive range: c0 >= 0 rules out overflow,
                        // and its TrustedLen extend skips the inclusive
                        // range's per-step exhaustion flag.
                        t0s.extend(
                            (c0..c1 + 1).map(|ch| geom.channel_center(ch as usize) - half_c - tc),
                        );
                    }
                    spans[b * nviews + v] = (c0 as u32, start as u32, (t0s.len() - start) as u32);
                }
                // Evaluate this view's staged range in one branchless
                // pass: the canonical mean_over(t0, t0 + spacing)
                // arithmetic with cumulative() replaced by its
                // bitwise-equal select form and the view's trapezoid
                // held in registers. Written through a pre-sized slice
                // (not push) so the loop stays free of capacity checks
                // and the lanes pack.
                entries.resize(t0s.len(), 0.0);
                for (o, &a) in entries[vs_start..].iter_mut().zip(&t0s[vs_start..]) {
                    let b = a + spacing;
                    let w = b - a;
                    let integral = (trap.cumulative_select(b) - trap.cumulative_select(a)).max(0.0);
                    let e = integral / w;
                    *o = if w <= 0.0 { 0.0 } else { e };
                }
            }

            // Voxel-major run extraction: the scalar walk keeps the
            // contiguous streak of above-threshold entries starting at
            // the first qualifying channel and stops at the first gap.
            // Locating the streak bounds first lets the entries land as
            // one slice copy instead of per-element pushes.
            for b in 0..bn {
                let local = block_lo - lo + b;
                for v in 0..nviews {
                    let (c0, start, len) = spans[b * nviews + v];
                    let evs = &entries[start as usize..(start + len) as usize];
                    let mut s = 0usize;
                    while s < evs.len() && evs[s] <= MIN_ENTRY {
                        s += 1;
                    }
                    let mut e = s;
                    while e < evs.len() && evs[e] > MIN_ENTRY {
                        e += 1;
                    }
                    let idx = local * nviews + v;
                    if e > s {
                        first_channel[idx] = (c0 as usize + s) as u16;
                        count[idx] = (e - s) as u16;
                        values.extend_from_slice(&evs[s..e]);
                    } else {
                        first_channel[idx] = 0;
                        count[idx] = 0;
                    }
                }
                voxel_offset.push(values.len() as u64);
            }
            block_lo += bn;
        }
        values.shrink_to_fit();
        SystemMatrix { geom: *geom, voxel_offset, first_channel, count, values }
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

    /// Approximate resident bytes of the sparse storage (float values).
    pub fn bytes(&self) -> usize {
        self.values.len() * 4
            + self.first_channel.len() * 2
            + self.count.len() * 2
            + self.voxel_offset.len() * 8
    }

    /// Forward projection `y = A x`.
    ///
    /// Grids up to [`FORWARD_CHUNK`] voxels (the tiny and test scales)
    /// run the historical single-pass accumulation. Larger grids split
    /// into fixed `FORWARD_CHUNK`-voxel chunks whose partial sinograms
    /// are computed in parallel and reduced in chunk order — the
    /// partitioning depends only on the grid, never on the worker
    /// count, so the result is identical for any number of threads.
    pub fn forward(&self, image: &Image) -> Sinogram {
        assert_eq!(image.grid(), self.geom.grid);
        let nvox = self.geom.grid.num_voxels();
        if nvox <= FORWARD_CHUNK {
            let mut y = Sinogram::zeros(&self.geom);
            self.forward_range(image, 0, nvox, &mut y);
            return y;
        }
        let nchunks = nvox.div_ceil(FORWARD_CHUNK);
        let parts: Vec<Sinogram> = mbir_parallel::par_map(0, nchunks, |c| {
            let lo = c * FORWARD_CHUNK;
            let hi = ((c + 1) * FORWARD_CHUNK).min(nvox);
            let mut part = Sinogram::zeros(&self.geom);
            self.forward_range(image, lo, hi, &mut part);
            part
        });
        // Ordered reduction: chunk partials are summed in chunk order,
        // so floating-point reassociation happens only at the fixed
        // chunk boundaries.
        let mut y = Sinogram::zeros(&self.geom);
        for part in &parts {
            for (o, &p) in y.data_mut().iter_mut().zip(part.data()) {
                *o += p;
            }
        }
        y
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
    count: &'a [u16],
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
    pub fn counts(&self) -> &'a [u16] {
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
        let mut count = vec![0u16; n * nviews];
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
                count[idx] = nrun as u16;
            }
            voxel_offset.push(values.len() as u64);
        }
        SystemMatrix { geom: *geom, voxel_offset, first_channel, count, values }
    }

    #[test]
    fn lane_build_is_bit_identical_to_scalar() {
        // The invariant for the build: the staged branchless build
        // reproduces the branchy walk bit for bit, including a
        // detector-clipped geometry where corner runs are truncated.
        for g in [Geometry::tiny_scale(), Geometry::new(16, 36, 1.0, ImageGrid::square(24, 1.0))] {
            let scalar = compute_range_scalar(&g, 0, g.grid.num_voxels());
            let lanes = SystemMatrix::compute_range(&g, 0, g.grid.num_voxels());
            assert_eq!(scalar.voxel_offset, lanes.voxel_offset);
            assert_eq!(scalar.first_channel, lanes.first_channel);
            assert_eq!(scalar.count, lanes.count);
            let sb: Vec<u32> = scalar.values.iter().map(|v| v.to_bits()).collect();
            let lb: Vec<u32> = lanes.values.iter().map(|v| v.to_bits()).collect();
            assert_eq!(sb, lb);
        }
    }

    #[test]
    fn parallel_build_is_bit_identical() {
        let g = Geometry::tiny_scale();
        let seq = SystemMatrix::compute(&g);
        // 30 threads over 576 voxels: ceil-sized chunks would start the
        // last worker past the grid.
        for threads in [1usize, 2, 3, 5, 30] {
            let par = SystemMatrix::compute_parallel(&g, threads);
            assert_eq!(par.voxel_offset, seq.voxel_offset, "{threads} threads");
            assert_eq!(par.first_channel, seq.first_channel);
            assert_eq!(par.count, seq.count);
            assert_eq!(par.values, seq.values);
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
