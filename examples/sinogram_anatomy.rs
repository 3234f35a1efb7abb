//! Anatomy of the data structures behind the paper's figures:
//! the sinusoidal sinogram traces (Fig. 1b), the SuperVoxel buffer
//! band (Fig. 2), and the chunked layout transform (Fig. 4).
//!
//! ```text
//! cargo run --release --example sinogram_anatomy
//! ```

#![allow(clippy::needless_range_loop)]

use ct_core::geometry::Geometry;
use ct_core::sysmat::SystemMatrix;
use supervoxel::chunks::PaddedColumn;
use supervoxel::svb::SvbShape;
use supervoxel::tiling::Tiling;

fn main() {
    let geom = Geometry::tiny_scale();
    let a = SystemMatrix::compute(&geom);

    // --- Fig. 1b: two voxels' sinusoidal traces over the sinogram.
    let v1 = geom.grid.index(4, 18);
    let v2 = geom.grid.index(16, 6);
    println!("Sinogram traces of voxels V1 and V2 ('.'=V1, 'o'=V2), views top to bottom:");
    for view in (0..geom.num_views).step_by(2) {
        let mut row = vec![b' '; geom.num_channels];
        let (f1, n1) = a.column(v1).run(view);
        let (f2, n2) = a.column(v2).run(view);
        for c in f1..f1 + n1 {
            row[c] = b'.';
        }
        for c in f2..f2 + n2 {
            row[c] = if row[c] == b'.' { b'X' } else { b'o' };
        }
        println!("view {view:>3} |{}|", String::from_utf8_lossy(&row));
    }
    println!("('X' marks cells shared by both voxels - why concurrent updates need care)\n");

    // --- Fig. 2: the SVB band of one SuperVoxel.
    let tiling = Tiling::new(geom.grid, 8);
    let sv = tiling.len() / 2 + 1;
    let shape = SvbShape::compute(&a, &tiling, sv);
    println!("SuperVoxel {sv} band over the detector (one row per 2 views):");
    for view in (0..geom.num_views).step_by(2) {
        let mut row = vec![b' '; geom.num_channels];
        let f = shape.first[view] as usize;
        for c in f..f + shape.width[view] as usize {
            row[c] = b'#';
        }
        println!("view {view:>3} |{}|", String::from_utf8_lossy(&row));
    }
    println!(
        "packed SVB: {} entries; padded rectangular SVB: {} entries ({} B aligned rows)\n",
        shape.packed_len(),
        shape.padded_len(),
        4 * shape.padded_len()
    );

    // --- Fig. 4: chunk decomposition of one voxel's column.
    let j = geom.grid.index(10, 15);
    let col = a.column(j);
    for width in [8usize, 16, 32] {
        let padded = PaddedColumn::build(&col, width);
        println!(
            "voxel {j}: chunk width {width:>2} -> {:>2} chunks, {:>5} dense elements ({:.1}x padding over {} sparse)",
            padded.chunks.len(),
            padded.dense_len(),
            padded.padding_ratio(&col),
            col.nnz()
        );
    }
    println!("\nWider chunks mean fewer, better-coalesced reads but more zero padding -");
    println!("the Fig. 6 trade-off, optimal at the warp width (32).");
}
