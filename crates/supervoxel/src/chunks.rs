//! The chunk decomposition of paper Section 4.1.
//!
//! In the transformed layout, each voxel's SVB data is split into
//! *chunks*: rectangular `(height views) x (chunk_width channels)`
//! windows chosen so that every covered view's channel run lies inside
//! the window. The GPU's A-matrix is zero-padded to the same rectangles
//! so a warp can read whole rows of the SVB and A chunks with perfectly
//! coalesced, element-by-element multiplies — padding entries are zero
//! in A and therefore never affect the result. The host never stores
//! padded chunks: the plan keeps each voxel's [`chunk_tally`], which
//! the work model prices.

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
    fn padding_ratio_grows_with_width() {
        let (_, a) = col_setup();
        let col = a.column(300);
        let ratio = |width| chunk_tally(&col, width).0 as f32 / col.nnz() as f32;
        let (r8, r32) = (ratio(8), ratio(32));
        assert!(r8 >= 1.0);
        assert!(r32 > r8);
    }
}
