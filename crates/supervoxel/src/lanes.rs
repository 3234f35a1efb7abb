//! Plan-owned band offsets for the ICD lane walk.
//!
//! A voxel visit folds three streams per column element:
//! `theta1 -= w * A * e` and `theta2 += w * A * A`, then writes back
//! `e -= A * delta`. The scalar reference walk
//! ([`mbir::update::column_thetas`]) goes through the column run by run
//! and addresses the SV's buffered band through `(view, channel)`; at
//! ~2-3 channels per run, that per-view bookkeeping is where the time
//! goes. A GPU-ICD or PSV-ICD visit instead reads every element through
//! its flat offset in the band, so it is two branchless loops: gather
//! the `(e, w)` cell at each offset into the 8-wide theta kernel, then
//! scatter the committed step back through the same offsets
//! ([`mbir_simd::theta_gather`], [`mbir_simd::scatter_sub`]).
//!
//! The offsets depend only on the column's runs and the SV's band
//! shape — the geometry, never a scan — so [`fill_offsets`]
//! runs once per geometry, inside [`crate::SvPlan::build`]'s per-voxel
//! pass, and every scan of that geometry shares them. Each is a `u16`,
//! which reaches every cell of a packed band of up to 65 536 cells (the
//! plan refuses larger bands). Each SV stores its voxels' offsets back to
//! back in one array ([`crate::SvPlan::offsets`] slices out a voxel's),
//! keyed by the SV and not by voxel id: adjacent SVs share boundary
//! voxels, and a shared voxel's offsets are relative to the band of the
//! SV visiting it.
//!
//! Nothing scan-dependent is folded: the kernel forms `w * a` from the
//! band's weight entry at the visit, and A comes from the f32 column or
//! the plan's u8 codes, dequantized once per visit
//! ([`crate::SvPlan::dequantize`]). Rust parses `w * a * e` as
//! `(w * a) * e`, so the kernel's per-element trees are the scalar
//! walk's and the results are bitwise equal — pinned by the gather
//! proptests in `mbir-simd` and, over every SV of real plans, by this
//! module's tests.

use ct_core::sysmat::ColumnView;
use mbir_simd::LANES;

/// Write the offset of each element of `col`, in flat element order,
/// to the front of `out`, for a band whose per-view row bases are
/// `bases` (see [`crate::SvbShape::row_bases`]). The band must hold at
/// most 65 536 cells: offsets are the bases' wrapping sums taken mod
/// 2^16, exact for every cell of such a band.
///
/// A run's offsets are consecutive, so each run is
/// written with one fixed 8-wide store from its first cell (runs
/// average ~2-3 channels; longer ones finish element-wise). The next
/// run overwrites the overhang, so `out` must hold `col.nnz() + LANES`
/// slots, and the `LANES` past the column are left as slack for the
/// caller's next column or final truncation.
pub fn fill_offsets(col: &ColumnView<'_>, bases: &[u32], out: &mut [u16]) {
    let mut k = 0usize;
    for ((&fc, &n), &b) in col.first_channels().iter().zip(col.counts()).zip(bases) {
        let first = b.wrapping_add(fc as u32) as u16;
        let lane: &mut [u16; LANES] = out[k..].first_chunk_mut().expect("slack for one store");
        for (l, o) in lane.iter_mut().enumerate() {
            *o = first.wrapping_add(l as u16);
        }
        let n = n as usize;
        for i in LANES..n {
            out[k + i] = first.wrapping_add(i as u16);
        }
        k += n;
    }
}

#[cfg(test)]
mod tests {
    use crate::plan::{PlanConfig, SvPlanSet};
    use crate::svb::Svb;
    use crate::tiling::Tiling;
    use ct_core::geometry::Geometry;
    use ct_core::phantom::Phantom;
    use ct_core::sinogram::Sinogram;
    use ct_core::sysmat::SystemMatrix;
    use mbir::update::{column_apply, column_thetas};

    fn setup() -> (SystemMatrix, Tiling, Sinogram, Sinogram) {
        let g = Geometry::tiny_scale();
        let a = SystemMatrix::compute(&g);
        let t = Tiling::new(g.grid, 8);
        let truth = Phantom::water_cylinder(0.6).render(g.grid, 1);
        let y = a.forward(&truth);
        let mut w = Sinogram::filled(&g, 1.0);
        for v in 0..g.num_views {
            for (c, val) in w.view_mut(v).iter_mut().enumerate() {
                *val = 0.5 + ((v * 31 + c * 7) % 13) as f32 * 0.1;
            }
        }
        (a, t, y, w)
    }

    fn plan_for(
        a: &SystemMatrix,
        t: &Tiling,
        quant_bits: Option<u32>,
        threads: usize,
    ) -> SvPlanSet {
        SvPlanSet::build(a, t, PlanConfig { chunk_width: None, quant_bits }, threads)
    }

    #[test]
    fn offsets_equal_index_of_per_element() {
        let (a, t, _, _) = setup();
        let plan = plan_for(&a, &t, None, 1);
        for sp in plan.plans() {
            for vp in sp.voxels() {
                let col = a.column(vp.voxel);
                let mut expect = Vec::with_capacity(col.nnz());
                for seg in col.segments() {
                    for k in 0..seg.values.len() {
                        let i = sp.shape.index_of(seg.view, seg.first_channel + k);
                        expect.push(u16::try_from(i).expect("a band within u16 reach"));
                    }
                }
                assert_eq!(sp.offsets(vp), expect, "sv {} voxel {}", sp.sv, vp.voxel);
            }
        }
    }

    #[test]
    fn offsets_are_thread_count_invariant() {
        let (a, t, _, _) = setup();
        let p1 = plan_for(&a, &t, None, 1);
        let p4 = plan_for(&a, &t, None, 4);
        for (s1, s4) in p1.plans().iter().zip(p4.plans()) {
            assert_eq!(s1.band_offsets, s4.band_offsets, "sv {}", s1.sv);
        }
    }

    #[test]
    fn gathered_thetas_and_write_back_match_the_scalar_walk_bitwise() {
        // Every SV of a real plan, f32 and u8 plans: thetas and the
        // committed write-back through the offsets must equal the scalar
        // walk bit for bit, visit after visit, with both reading the one
        // dequantization pass of the visit.
        let (a, t, y, w) = setup();
        for quant_bits in [None, Some(8)] {
            let plan = plan_for(&a, &t, quant_bits, 1);
            let mut buf = Vec::new();
            for sp in plan.plans() {
                let mut lanes = Svb::gather(&sp.shape, &y, &w);
                let mut scalar = lanes.clone();
                for (step, vp) in sp.voxels().iter().enumerate() {
                    let col = a.column(vp.voxel);
                    sp.dequantize(vp, &mut buf);
                    let entries = sp.entries(&col, &buf);
                    let offsets = sp.offsets(vp);
                    let s = column_thetas(&col, entries, &scalar);
                    let l = lanes.thetas(entries, offsets);
                    let tag = format!("sv {} voxel {} {quant_bits:?}", sp.sv, vp.voxel);
                    assert_eq!(s.theta1.to_bits(), l.theta1.to_bits(), "{tag}");
                    assert_eq!(s.theta2.to_bits(), l.theta2.to_bits(), "{tag}");
                    let delta = 0.001 + (step % 5) as f32 * 1e-4;
                    column_apply(&col, entries, &mut scalar, delta);
                    lanes.apply_delta(entries, offsets, delta);
                    let bits = |svb: &Svb<'_>| -> Vec<[u32; 2]> {
                        svb.cells.iter().map(|[e, w]| [e.to_bits(), w.to_bits()]).collect()
                    };
                    assert_eq!(bits(&scalar), bits(&lanes), "{tag} write-back");
                }
            }
        }
    }
}
