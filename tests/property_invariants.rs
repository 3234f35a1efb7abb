//! Property-based integration tests (proptest) on the core invariants,
//! spanning crates with randomized inputs.

use ct_core::geometry::Geometry;
use ct_core::image::Image;
use ct_core::sinogram::Sinogram;
use ct_core::sysmat::SystemMatrix;
use gpu_sim::cache::{Cache, CacheConfig};
use gpu_sim::coalesce::{affine_transactions, transactions};
use mbir::prior::{QggmrfPrior, QuadraticPrior};
use mbir::update::{update_voxel, SinogramPair};
use mbir::Prior;
use proptest::prelude::*;
use std::sync::OnceLock;
use supervoxel::chunks::chunk_column;
use supervoxel::quant::QuantizedColumn;
use supervoxel::svb::{Svb, SvbShape};
use supervoxel::tiling::Tiling;

fn shared() -> &'static (Geometry, SystemMatrix) {
    static S: OnceLock<(Geometry, SystemMatrix)> = OnceLock::new();
    S.get_or_init(|| {
        let g = Geometry::tiny_scale();
        let a = SystemMatrix::compute(&g);
        (g, a)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// e = y - A x is maintained exactly under arbitrary update orders.
    #[test]
    fn error_invariant_under_random_update_sequences(
        voxels in prop::collection::vec(0usize..576, 1..40),
        fill in 0.0f32..0.05,
    ) {
        let (g, a) = shared();
        let mut image = Image::zeros(g.grid);
        let truth = Image::from_vec(g.grid, vec![fill; g.grid.num_voxels()]);
        let y = a.forward(&truth);
        let w = Sinogram::filled(g, 1.0);
        let mut e = y.clone();
        let prior = QuadraticPrior { sigma: 0.05 };
        {
            let mut pair = SinogramPair { e: &mut e, w: &w };
            for &j in &voxels {
                update_voxel(j, &mut image, &a.column(j), &mut pair, &prior);
            }
        }
        let ax = a.forward(&image);
        for i in 0..y.data().len() {
            let expect = y.data()[i] - ax.data()[i];
            prop_assert!((e.data()[i] - expect).abs() < 2e-3);
        }
    }

    /// Every ICD update is non-increasing in the exact MAP cost.
    #[test]
    fn single_update_never_raises_cost(
        j in 0usize..576,
        scale in 0.5f32..2.0,
    ) {
        let (g, a) = shared();
        let mut image = Image::zeros(g.grid);
        let truth = ct_core::phantom::Phantom::water_cylinder(0.5).render(g.grid, 1);
        let mut y = a.forward(&truth);
        for v in y.data_mut() { *v *= scale; }
        let w = Sinogram::filled(g, 1.0);
        let mut e = y.clone();
        let prior = QggmrfPrior::standard(0.002);
        let cost = |e: &Sinogram, img: &Image| -> f64 {
            let d: f64 = e.data().iter().map(|&v| 0.5 * (v as f64) * (v as f64)).sum();
            d + prior.cost(img)
        };
        let before = cost(&e, &image);
        let mut pair = SinogramPair { e: &mut e, w: &w };
        update_voxel(j, &mut image, &a.column(j), &mut pair, &prior);
        let after = cost(&e, &image);
        prop_assert!(after <= before + before.abs() * 1e-6, "{before} -> {after}");
    }

    /// SVB gather/scatter round-trips under random error contents for
    /// any SV.
    #[test]
    fn svb_roundtrip_random_contents(
        sv_pick in 0usize..16,
        bump in -5.0f32..5.0,
    ) {
        let (g, a) = shared();
        let tiling = Tiling::new(g.grid, 6);
        let sv = sv_pick % tiling.len();
        let shape = SvbShape::compute(a, &tiling, sv);
        let mut e = Sinogram::zeros(g);
        for (i, v) in e.data_mut().iter_mut().enumerate() {
            *v = (i % 17) as f32 * 0.1 - 0.8;
        }
        let mut modified = Svb::gather(&shape, &e, &e);
        for c in modified.cells.iter_mut() {
            c[0] += bump;
        }
        let mut e2 = e.clone();
        modified.take_delta(&e);
        modified.scatter_delta(&mut e2);
        // Banded cells moved by exactly bump; others untouched.
        for view in 0..g.num_views {
            for ch in 0..g.num_channels {
                let d = e2.at(view, ch) - e.at(view, ch);
                let inside = (shape.first[view]..shape.first[view] + shape.width[view])
                    .contains(&(ch as u32));
                if inside {
                    prop_assert!((d - bump).abs() < 1e-5);
                } else {
                    prop_assert_eq!(d, 0.0);
                }
            }
        }
    }

    /// Thetas over the padded chunk rectangles — A at its run
    /// positions, zero elsewhere, what the chunked GPU kernel reads —
    /// equal sparse thetas for any voxel and chunk width.
    #[test]
    fn padded_column_preserves_thetas(
        j in 0usize..576,
        width in 4usize..64,
    ) {
        let (g, a) = shared();
        let col = a.column(j);
        let runs: Vec<_> = col.segments().collect();
        let mut e = Sinogram::zeros(g);
        for (i, v) in e.data_mut().iter_mut().enumerate() {
            *v = ((i * 31) % 13) as f32 * 0.05;
        }
        let w = Sinogram::filled(g, 1.0);
        let pair = SinogramPair { e: &mut e.clone(), w: &w };
        let th = mbir::update::compute_thetas(&col, &pair);
        // Dense evaluation over every chunk cell: padding contributes
        // zero.
        let mut t1 = 0.0f32;
        let mut t2 = 0.0f32;
        for c in chunk_column(&col, width) {
            for run in &runs[c.view0 as usize..(c.view0 + c.height) as usize] {
                for ch in (c.ch0..c.ch0 + c.width).map(|ch| ch as usize) {
                    let k = ch.checked_sub(run.first_channel);
                    let av = k.and_then(|k| run.values.get(k)).copied().unwrap_or(0.0);
                    if ch < g.num_channels {
                        let (ev, wv) = (e.at(run.view, ch), w.at(run.view, ch));
                        t1 -= wv * av * ev;
                        t2 += wv * av * av;
                    }
                }
            }
        }
        prop_assert!((t1 - th.theta1).abs() <= 1e-3 + th.theta1.abs() * 1e-3);
        prop_assert!((t2 - th.theta2).abs() <= 1e-3 + th.theta2.abs() * 1e-3);
    }

    /// Quantized columns stay within the documented error bound.
    #[test]
    fn quantization_error_bound(j in 0usize..576) {
        let (_, a) = shared();
        let col = a.column(j);
        let q = QuantizedColumn::quantize(&col);
        for (k, &orig) in col.values_flat().iter().enumerate() {
            prop_assert!((q.dequant(k) - orig).abs() <= q.error_bound() + 1e-7);
        }
    }

    /// The exact coalescer and the affine fast path agree on affine
    /// patterns, and sector counts are within [1, lanes * spanned].
    #[test]
    fn coalescer_affine_agreement(
        base in 0u64..4096,
        stride in prop::sample::select(vec![1u32, 2, 4, 8, 12, 16, 32, 64, 128]),
        size in prop::sample::select(vec![1u32, 2, 4, 8]),
        lanes in 1u32..33,
    ) {
        let addrs: Vec<u64> = (0..lanes as u64).map(|i| base + i * stride as u64).collect();
        let exact = transactions(&addrs, size);
        let fast = affine_transactions(base, stride, size, lanes);
        prop_assert_eq!(exact, fast);
        prop_assert!(exact >= 1);
        prop_assert!(exact <= lanes * 2);
    }

    /// Cache invariants: hits + misses == accesses; a repeated access
    /// to a just-touched line always hits; hit rate in [0, 1].
    #[test]
    fn cache_invariants(addrs in prop::collection::vec(0u64..8192, 1..400)) {
        let mut c = Cache::new(CacheConfig { size_bytes: 512, line_bytes: 32, ways: 2 });
        for &a in &addrs {
            c.access(a);
            prop_assert!(c.access(a), "immediate re-access must hit");
        }
        let s = c.stats();
        prop_assert_eq!(s.hits + s.misses(), s.accesses);
        prop_assert!((0.0..=1.0).contains(&s.hit_rate()));
        prop_assert!(s.hits >= addrs.len() as u64, "at least the re-accesses hit");
    }

    /// Checkerboard groups never contain adjacent SVs, for any side.
    #[test]
    fn checkerboard_never_groups_neighbours(side in 2usize..12) {
        let (g, _) = shared();
        let tiling = Tiling::new(g.grid, side);
        let all: Vec<usize> = (0..tiling.len()).collect();
        let groups = supervoxel::checkerboard::checkerboard_groups(&tiling, &all);
        for group in &groups {
            for (i, &x) in group.iter().enumerate() {
                for &y in &group[i + 1..] {
                    prop_assert!(!tiling.adjacent(x, y));
                }
            }
        }
    }
}
