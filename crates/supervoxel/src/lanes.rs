//! Plan-owned band offsets for the SIMD lane backend's ICD walk.
//!
//! A voxel visit folds three streams per column element:
//! `theta1 -= w * A * e` and `theta2 += w * A * A`, then writes back
//! `e -= A * delta`. The scalar reference walks the column run by run
//! and addresses the SV's buffered band through `(view, channel)`; at
//! ~2-3 channels per run, that per-view bookkeeping is where the time
//! goes. The lane backend instead reads every element through its flat
//! offset in the band, so a visit is two branchless loops: gather
//! `e[idx]` and `w[idx]` into the 8-wide theta kernel, then scatter
//! the committed step back through the same offsets
//! ([`mbir_simd::theta_gather`], [`mbir_simd::scatter_sub`]).
//!
//! The offsets depend only on the column's runs and the SV's band
//! shape and layout — the geometry, never a scan — so [`fill_offsets`]
//! runs once per geometry, inside [`crate::SvPlan::build`]'s per-voxel
//! pass, and every scan of that geometry shares them. Each SV stores
//! its voxels' offsets back to back in one array
//! ([`crate::SvPlan::offsets`] slices out a voxel's), keyed by the SV
//! and not by voxel id: adjacent SVs share boundary voxels, and a
//! shared voxel's offsets are relative to the band of the SV visiting
//! it.
//!
//! Nothing scan-dependent is folded: the kernel forms `w * a` from the
//! band's weight entry at the visit, and A comes from the f32 column or
//! the u8 codes dequantized inline. Rust parses `w * a * e` as
//! `(w * a) * e`, so the kernel's per-element trees are the scalar
//! walk's and the results are bitwise equal — pinned by the gather
//! proptests in `mbir-simd` and end to end by
//! `tests/determinism_simd.rs`.

use ct_core::sysmat::ColumnView;
use mbir_simd::LANES;

/// Write the offset of each element of `col`, in flat element order,
/// to the front of `out`, for a band whose per-view row bases are
/// `bases` (see [`crate::SvbShape::row_bases`]).
///
/// A run's offsets are consecutive in either layout, so each run is
/// written with one fixed 8-wide store from its first cell (runs
/// average ~2-3 channels; longer ones finish element-wise). The next
/// run overwrites the overhang, so `out` must hold `col.nnz() + LANES`
/// slots, and the `LANES` past the column are left as slack for the
/// caller's next column or final truncation.
pub fn fill_offsets(col: &ColumnView<'_>, bases: &[u32], out: &mut [u32]) {
    let mut k = 0usize;
    for ((&fc, &n), &b) in col.first_channels().iter().zip(col.counts()).zip(bases) {
        let first = b.wrapping_add(fc as u32);
        let lane: &mut [u32; LANES] = out[k..].first_chunk_mut().expect("slack for one store");
        for (l, o) in lane.iter_mut().enumerate() {
            *o = first.wrapping_add(l as u32);
        }
        let n = n as usize;
        for i in LANES..n {
            out[k + i] = first.wrapping_add(i as u32);
        }
        k += n;
    }
}

#[cfg(test)]
mod tests {
    use crate::plan::{PlanConfig, SvPlanSet};
    use crate::quant::QuantizedColumn;
    use crate::svb::{Svb, SvbLayout};
    use crate::tiling::Tiling;
    use ct_core::geometry::Geometry;
    use ct_core::phantom::Phantom;
    use ct_core::sinogram::Sinogram;
    use ct_core::sysmat::SystemMatrix;
    use mbir_simd::{AColumn, SimdBackend};

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

    fn plan_for(a: &SystemMatrix, t: &Tiling, layout: SvbLayout, threads: usize) -> SvPlanSet {
        SvPlanSet::build(a, t, PlanConfig { chunk_width: None, quant_bits: None, layout }, threads)
    }

    #[test]
    fn offsets_equal_index_of_per_element_in_both_layouts() {
        let (a, t, _, _) = setup();
        for layout in [SvbLayout::SensorMajor, SvbLayout::Transposed] {
            let plan = plan_for(&a, &t, layout, 1);
            for sp in plan.plans() {
                for vp in sp.voxels() {
                    let col = a.column(vp.voxel);
                    let mut expect = Vec::with_capacity(col.nnz());
                    for seg in col.segments() {
                        for k in 0..seg.values.len() {
                            let i = sp.shape.index_of(layout, seg.view, seg.first_channel + k);
                            expect.push(i as u32);
                        }
                    }
                    assert_eq!(
                        sp.offsets(vp),
                        expect,
                        "sv {} voxel {} {layout:?}",
                        sp.sv,
                        vp.voxel
                    );
                }
            }
        }
    }

    #[test]
    fn offsets_are_thread_count_invariant() {
        let (a, t, _, _) = setup();
        let p1 = plan_for(&a, &t, SvbLayout::Transposed, 1);
        let p4 = plan_for(&a, &t, SvbLayout::Transposed, 4);
        for (s1, s4) in p1.plans().iter().zip(p4.plans()) {
            assert_eq!(s1.band_offsets, s4.band_offsets, "sv {}", s1.sv);
        }
    }

    #[test]
    fn gathered_thetas_and_write_back_match_the_scalar_walk_bitwise() {
        // Every SV of a real plan, both layouts, f32 and u8 columns:
        // thetas and the committed write-back through the offsets must
        // equal the scalar walk bit for bit, visit after visit.
        let (a, t, y, w) = setup();
        for layout in [SvbLayout::SensorMajor, SvbLayout::Transposed] {
            let plan = plan_for(&a, &t, layout, 1);
            for sp in plan.plans() {
                let mut lanes = Svb::gather(&sp.shape, layout, &y, &w);
                let mut scalar = lanes.clone();
                for (step, vp) in sp.voxels().iter().enumerate() {
                    let col = a.column(vp.voxel);
                    let q = QuantizedColumn::quantize(&col);
                    let entries =
                        if step % 2 == 0 { AColumn::F32(col.values_flat()) } else { q.entries() };
                    let offsets = sp.offsets(vp);
                    let s = scalar.thetas(&col, entries, offsets, SimdBackend::Scalar);
                    let l = lanes.thetas(&col, entries, offsets, SimdBackend::Lanes);
                    let tag = format!("sv {} voxel {} {layout:?}", sp.sv, vp.voxel);
                    assert_eq!(s.theta1.to_bits(), l.theta1.to_bits(), "{tag}");
                    assert_eq!(s.theta2.to_bits(), l.theta2.to_bits(), "{tag}");
                    let delta = 0.001 + (step % 5) as f32 * 1e-4;
                    scalar.apply_delta(&col, entries, offsets, delta, SimdBackend::Scalar);
                    lanes.apply_delta(&col, entries, offsets, delta, SimdBackend::Lanes);
                    let sb: Vec<u32> = scalar.e.iter().map(|x| x.to_bits()).collect();
                    let lb: Vec<u32> = lanes.e.iter().map(|x| x.to_bits()).collect();
                    assert_eq!(sb, lb, "{tag} write-back");
                }
            }
        }
    }
}
