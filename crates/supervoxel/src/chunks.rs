//! The chunk decomposition of paper Section 4.1.
//!
//! In the transformed layout, each voxel's SVB data is split into
//! *chunks*: rectangular `(height views) x (chunk_width channels)`
//! windows chosen so that every covered view's channel run lies inside
//! the window. The A-matrix is zero-padded to the same rectangles so a
//! warp can read whole rows of the SVB and A chunks with perfectly
//! coalesced, element-by-element multiplies — padding entries are zero
//! in A and therefore never affect the result.

use ct_core::sysmat::ColumnView;

/// One rectangular chunk of a voxel's footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// First view covered.
    pub view0: u32,
    /// Number of consecutive views covered.
    pub height: u32,
    /// First (absolute) channel of the window.
    pub ch0: u32,
    /// Window width in channels (the tuning parameter of Fig. 6).
    pub width: u32,
}

impl Chunk {
    /// Dense elements in the chunk (`height * width`).
    pub fn len(&self) -> usize {
        self.height as usize * self.width as usize
    }

    /// Whether the chunk is empty (never produced by `chunk_column`).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Greedily decompose a voxel's column into chunks of the given width.
///
/// Views with empty runs (detector-clipped) break chunks. The window is
/// centered on the first covered view's run and extended downward
/// while subsequent runs stay inside it — the sinusoidal drift
/// eventually forces a new chunk.
pub fn chunk_column(col: &ColumnView<'_>, width: usize) -> Vec<Chunk> {
    chunks(col, width).collect()
}

/// The `(dense elements, chunk count)` tally of [`chunk_column`],
/// without materializing the chunks.
pub fn chunk_tally(col: &ColumnView<'_>, width: usize) -> (u64, u32) {
    chunks(col, width).fold((0, 0), |(dense, n), c| (dense + c.len() as u64, n + 1))
}

/// The chunk walk behind [`chunk_column`] and [`chunk_tally`].
fn chunks<'a>(col: &ColumnView<'a>, width: usize) -> impl Iterator<Item = Chunk> + 'a {
    assert!(width >= 1);
    let col = *col;
    let nviews = col.num_views();
    let mut v = 0usize;
    std::iter::from_fn(move || {
        while v < nviews && col.run(v).1 == 0 {
            v += 1;
        }
        if v == nviews {
            return None;
        }
        let (fc, n) = col.run(v);
        assert!(n <= width, "run of {n} channels cannot fit a chunk of width {width}");
        // Center the window on this first run, leaving slack on both
        // sides for the sinusoid to drift.
        let slack = width - n;
        let ch0 = fc.saturating_sub(slack / 2);
        let ch1 = ch0 + width;
        let view0 = v;
        let mut height = 0u32;
        while v < nviews {
            let (fc, n) = col.run(v);
            if n == 0 || fc < ch0 || fc + n > ch1 {
                break;
            }
            height += 1;
            v += 1;
        }
        Some(Chunk { view0: view0 as u32, height, ch0: ch0 as u32, width: width as u32 })
    })
}

/// A voxel column materialized in the padded chunk format: for each
/// chunk, a dense `height x width` block with A values at run positions
/// and zeros elsewhere.
#[derive(Debug, Clone)]
pub struct PaddedColumn {
    /// The chunk rectangles.
    pub chunks: Vec<Chunk>,
    /// Offset of each chunk's dense block in `values`
    /// (length `chunks.len() + 1`).
    pub chunk_offset: Vec<u32>,
    /// Dense zero-padded A values, chunk-major then row-major.
    pub values: Vec<f32>,
}

impl PaddedColumn {
    /// Build the padded representation of `col` with the given chunk
    /// width.
    pub fn build(col: &ColumnView<'_>, width: usize) -> PaddedColumn {
        let chunks = chunk_column(col, width);
        let total: usize = chunks.iter().map(|c| c.len()).sum();
        let mut values = vec![0.0f32; total];
        let mut chunk_offset = Vec::with_capacity(chunks.len() + 1);
        let mut off = 0usize;
        chunk_offset.push(0u32);
        for c in &chunks {
            for r in 0..c.height as usize {
                let view = c.view0 as usize + r;
                let (fc, n) = col.run(view);
                debug_assert!(n > 0);
                let seg_vals = segment_values(col, view);
                let row = &mut values[off + r * c.width as usize..off + (r + 1) * c.width as usize];
                let rel = fc - c.ch0 as usize;
                row[rel..rel + n].copy_from_slice(seg_vals);
            }
            off += c.len();
            chunk_offset.push(off as u32);
        }
        PaddedColumn { chunks, chunk_offset, values }
    }

    /// Dense elements stored (reads the GPU must perform).
    pub fn dense_len(&self) -> usize {
        self.values.len()
    }

    /// Inflation factor over the sparse storage: dense / nnz. The
    /// paper's Fig. 6 trade-off — larger widths read and compute more.
    pub fn padding_ratio(&self, col: &ColumnView<'_>) -> f32 {
        self.dense_len() as f32 / col.nnz() as f32
    }

    /// Iterate `(view, absolute_channel, a_value)` over all dense
    /// elements, including zero padding — exactly what the transformed
    /// GPU kernel reads.
    pub fn dense_iter(&self) -> impl Iterator<Item = (usize, usize, f32)> + '_ {
        self.chunks.iter().zip(self.chunk_offset.windows(2)).flat_map(move |(c, off)| {
            let base = off[0] as usize;
            (0..c.height as usize).flat_map(move |r| {
                let view = c.view0 as usize + r;
                (0..c.width as usize).map(move |k| {
                    (view, c.ch0 as usize + k, self.values[base + r * c.width as usize + k])
                })
            })
        })
    }
}

/// The values slice of one view's run (helper over `ColumnView`).
fn segment_values<'a>(col: &ColumnView<'a>, view: usize) -> &'a [f32] {
    // ColumnView exposes runs via segments(); index to the right one.
    // Runs are contiguous in flat storage, so compute the offset.
    let mut off = 0usize;
    for v in 0..view {
        off += col.run(v).1;
    }
    let n = col.run(view).1;
    &col.values_flat()[off..off + n]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_core::geometry::Geometry;
    use ct_core::sysmat::SystemMatrix;

    fn col_setup() -> (Geometry, SystemMatrix) {
        let g = Geometry::tiny_scale();
        let a = SystemMatrix::compute(&g);
        (g, a)
    }

    #[test]
    fn chunks_cover_every_nonempty_view_once() {
        let (g, a) = col_setup();
        for j in [0usize, 100, 300, g.grid.num_voxels() - 1] {
            let col = a.column(j);
            let chunks = chunk_column(&col, 8);
            let mut covered = vec![0usize; g.num_views];
            for c in &chunks {
                for r in 0..c.height as usize {
                    covered[c.view0 as usize + r] += 1;
                }
            }
            for (v, &cov) in covered.iter().enumerate() {
                let expect = usize::from(col.run(v).1 > 0);
                assert_eq!(cov, expect, "voxel {j} view {v}");
            }
        }
    }

    #[test]
    fn runs_fit_inside_their_chunk() {
        let (_, a) = col_setup();
        let col = a.column(150);
        for width in [4usize, 8, 16, 32] {
            for c in chunk_column(&col, width) {
                for r in 0..c.height as usize {
                    let (fc, n) = col.run(c.view0 as usize + r);
                    assert!(fc >= c.ch0 as usize);
                    assert!(fc + n <= (c.ch0 + c.width) as usize);
                }
            }
        }
    }

    #[test]
    fn tally_matches_materialized_chunks() {
        let (g, a) = col_setup();
        for j in [0usize, 77, 300, g.grid.num_voxels() - 1] {
            let col = a.column(j);
            for width in [4usize, 16, 32] {
                let chunks = chunk_column(&col, width);
                let dense = chunks.iter().map(|c| c.len() as u64).sum::<u64>();
                assert_eq!(chunk_tally(&col, width), (dense, chunks.len() as u32), "voxel {j}");
            }
        }
    }

    #[test]
    fn wider_chunks_mean_fewer_chunks() {
        let (_, a) = col_setup();
        let col = a.column(200);
        let n4 = chunk_column(&col, 4).len();
        let n16 = chunk_column(&col, 16).len();
        let n32 = chunk_column(&col, 32).len();
        assert!(n4 >= n16, "{n4} < {n16}");
        assert!(n16 >= n32, "{n16} < {n32}");
        assert!(n32 >= 1);
    }

    #[test]
    fn padded_values_match_sparse() {
        let (_, a) = col_setup();
        let col = a.column(250);
        let padded = PaddedColumn::build(&col, 8);
        // Sum of dense values equals sum of sparse values (padding is 0).
        let dense_sum: f32 = padded.values.iter().sum();
        let sparse_sum: f32 = col.values_flat().iter().sum();
        assert!((dense_sum - sparse_sum).abs() < 1e-4);
        // Nonzero count matches nnz.
        let nz = padded.values.iter().filter(|&&v| v != 0.0).count();
        assert_eq!(nz, col.values_flat().iter().filter(|&&v| v != 0.0).count());
    }

    #[test]
    fn dense_iter_positions_are_correct() {
        let (g, a) = col_setup();
        let col = a.column(77);
        let padded = PaddedColumn::build(&col, 8);
        // Rebuild a (view, channel) -> value map from the sparse column.
        let mut sparse = std::collections::HashMap::new();
        for seg in col.segments() {
            for (k, &v) in seg.values.iter().enumerate() {
                sparse.insert((seg.view, seg.first_channel + k), v);
            }
        }
        for (view, ch, v) in padded.dense_iter() {
            assert!(view < g.num_views);
            match sparse.get(&(view, ch)) {
                Some(&sv) => assert_eq!(v, sv),
                None => assert_eq!(v, 0.0, "padding at ({view},{ch}) must be zero"),
            }
        }
    }

    #[test]
    fn padding_ratio_grows_with_width() {
        let (_, a) = col_setup();
        let col = a.column(300);
        let r8 = PaddedColumn::build(&col, 8).padding_ratio(&col);
        let r32 = PaddedColumn::build(&col, 32).padding_ratio(&col);
        assert!(r8 >= 1.0);
        assert!(r32 > r8);
    }
}
