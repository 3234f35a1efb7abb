//! Iteration-invariant per-SV plans.
//!
//! The paper's central amortization (Sections 4.1/4.3) is a *one-time*
//! layout transform: the SVB band shapes, the chunk decomposition, the
//! `u8`-quantized A chunks, and the coalescing behaviour of the
//! transformed layout all depend only on the system matrix and the
//! tiling — never on the image — yet a naive driver re-derives them on
//! every voxel visit of every iteration. An [`SvPlanSet`] computes all
//! of it once at driver setup (in parallel, with the deterministic
//! `mbir-parallel` engine) and is then shared by reference across
//! iterations by both the GPU-ICD and PSV-ICD drivers.
//!
//! The plan is the only path: a voxel visit reads its chunk tallies,
//! its quantized column and its band offsets from the plan, never
//! re-deriving them.
//!
//! Each SV element is held at the width the kernel reads it: one `u16`
//! band offset and, in a quantized plan, one `u8` code, co-indexed in
//! two flat per-SV arrays — three bytes per element. A `u16` offset
//! reaches a band of at most 65 536 host cells, and [`SvPlan::build`]
//! refuses a larger one.
//!
//! The host buffers every band packed ([`crate::svb`]); the paper's
//! transposed, zero-padded layout is what a chunked plan prices for the
//! modeled GPU ([`SvPlan::svb_bytes`]).
//!
//! A plan depends on the geometry alone, never on a scan: the weights
//! and the measurement enter at visit time. One plan set therefore
//! serves every scan of its geometry, and it records that geometry and
//! its tiling so a driver can refuse a plan built for another.

use crate::chunks::chunk_tally;
use crate::lanes::fill_offsets;
use crate::quant::quantize_into;
use crate::svb::SvbShape;
use crate::tiling::Tiling;
use ct_core::geometry::Geometry;
use ct_core::sysmat::{ColumnView, SystemMatrix};
use mbir_simd::LANES;

/// The most cells a band may hold: its offsets are `u16`.
const MAX_BAND_CELLS: usize = 1 << 16;

/// The iteration-invariant knobs a plan set is specialized for —
/// derived from the driver's options at construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanConfig {
    /// Chunk decomposition width of the transformed layout, or `None`
    /// for the naive layout (no chunk tallies cached, and the modeled
    /// SVB is packed rather than padded).
    pub chunk_width: Option<usize>,
    /// A-matrix quantization bit width, or `None` to keep f32 columns
    /// (no quantized chunks cached).
    pub quant_bits: Option<u32>,
}

/// Everything about one voxel's column that iterations reuse.
#[derive(Debug, Clone)]
pub struct VoxelPlan {
    /// Linear image index of the voxel.
    pub voxel: usize,
    /// Column entries (dot-product length of one visit).
    pub nnz: u32,
    /// Dense elements the transformed kernel streams for this voxel:
    /// the summed chunk areas when chunking, else `nnz`.
    pub dense: u64,
    /// Chunk descriptors read per visit (chunk count when chunking,
    /// else the view count).
    pub descriptors: u32,
    /// Where this voxel's elements start in its SV's co-indexed
    /// [`SvPlan::band_offsets`] and [`SvPlan::codes`].
    pub start: u32,
    /// The column's dequantization scale (0 in a plan that keeps f32
    /// columns, and for a degenerate column).
    pub scale: f32,
}

/// One SuperVoxel's immutable plan.
#[derive(Debug, Clone)]
pub struct SvPlan {
    /// SV id within the tiling.
    pub sv: usize,
    /// The SV's band shape over the sinogram.
    pub shape: SvbShape,
    /// Per-voxel cached state, in `tiling.voxels(sv)` order.
    pub voxels: Vec<VoxelPlan>,
    /// Bytes of one f32 plane of the modeled GPU's SVB: the transposed,
    /// zero-padded plane (`4 * shape.padded_len()`) when chunking, else
    /// the packed one (`4 * shape.packed_len()`).
    pub svb_bytes: f64,
    /// Mean band width in channels over views.
    pub band_width: f64,
    /// The offset of every column element in this SV's buffered band,
    /// voxel after voxel in `voxels` order (see [`crate::lanes`]).
    /// Built for every plan: it depends only on the band shape.
    pub band_offsets: Vec<u16>,
    /// The u8 code of every column element, co-indexed with
    /// `band_offsets`; empty when the plan keeps f32 columns.
    pub codes: Vec<u8>,
    /// Quantization levels (`2^bits - 1`), when the plan holds codes.
    pub levels: Option<f32>,
}

impl SvPlan {
    /// Build the plan for one SV.
    ///
    /// # Panics
    ///
    /// If the SV's band holds more than 65 536 cells: its offsets
    /// would not fit `u16`.
    pub fn build(a: &SystemMatrix, tiling: &Tiling, sv: usize, config: PlanConfig) -> SvPlan {
        let shape = SvbShape::compute(a, tiling, sv);
        let nviews = shape.num_views();
        let modeled_cells =
            if config.chunk_width.is_some() { shape.padded_len() } else { shape.packed_len() };
        let svb_bytes = (4 * modeled_cells) as f64;
        let band_width = shape.width.iter().map(|&w| w as f64).sum::<f64>() / nviews.max(1) as f64;
        let band_cells = shape.packed_len();
        assert!(
            band_cells <= MAX_BAND_CELLS,
            "SV {sv}: its band holds {band_cells} cells, past the {MAX_BAND_CELLS} that u16 band \
             offsets reach; use a smaller SV side"
        );
        let bases = shape.row_bases();
        let elements: usize = tiling.voxels(sv).map(|j| a.column(j).nnz()).sum();
        assert!(u32::try_from(elements).is_ok(), "SV {sv} has {elements} elements, past u32");
        let mut band_offsets = vec![0u16; elements + LANES];
        let mut codes = vec![0u8; if config.quant_bits.is_some() { elements } else { 0 }];
        let mut start = 0usize;
        let voxels = tiling
            .voxels(sv)
            .map(|j| {
                let col = a.column(j);
                let nnz = col.nnz();
                fill_offsets(&col, &bases, &mut band_offsets[start..]);
                let scale = config.quant_bits.map_or(0.0, |bits| {
                    let out = &mut codes[start..start + nnz];
                    quantize_into(col.values_flat(), col.max_value(), bits, out).0
                });
                let (dense, descriptors) = match config.chunk_width {
                    Some(w) => chunk_tally(&col, w),
                    None => (nnz as u64, nviews as u32),
                };
                let vp = VoxelPlan {
                    voxel: j,
                    nnz: nnz as u32,
                    dense,
                    descriptors,
                    start: start as u32,
                    scale,
                };
                start += nnz;
                vp
            })
            .collect();
        band_offsets.truncate(elements);
        band_offsets.shrink_to_fit();
        let levels = config.quant_bits.map(|bits| ((1u32 << bits) - 1) as f32);
        SvPlan { sv, shape, voxels, svb_bytes, band_width, band_offsets, codes, levels }
    }

    /// One voxel's band offsets, in its column's flat element order.
    #[inline]
    pub fn offsets(&self, vp: &VoxelPlan) -> &[u16] {
        &self.band_offsets[vp.start as usize..][..vp.nnz as usize]
    }

    /// Dequantize one voxel's codes into `buf` in one contiguous pass
    /// ([`mbir_simd::dequantize`]); a plan that keeps f32 columns
    /// leaves `buf` as it is. A visit calls this once, and its theta
    /// gather and its commit both read the result through
    /// [`SvPlan::entries`].
    #[inline]
    pub fn dequantize(&self, vp: &VoxelPlan, buf: &mut Vec<f32>) {
        if let Some(levels) = self.levels {
            let codes = &self.codes[vp.start as usize..][..vp.nnz as usize];
            mbir_simd::dequantize(codes, vp.scale, levels, buf);
        }
    }

    /// The A entries a visit reads: `buf` as [`SvPlan::dequantize`]
    /// filled it when the plan holds codes, else the column's own f32
    /// values.
    #[inline]
    pub fn entries<'a>(&self, col: &ColumnView<'a>, buf: &'a [f32]) -> &'a [f32] {
        match self.levels {
            Some(_) => buf,
            None => col.values_flat(),
        }
    }

    /// Per-voxel plans, in `tiling.voxels(sv)` order.
    pub fn voxels(&self) -> &[VoxelPlan] {
        &self.voxels
    }
}

/// The full set of per-SV plans for one tiling — built once at driver
/// setup, shared by reference across iterations.
#[derive(Debug, Clone)]
pub struct SvPlanSet {
    config: PlanConfig,
    geometry: Geometry,
    tiling: Tiling,
    plans: Vec<SvPlan>,
}

impl SvPlanSet {
    /// Build every SV's plan in parallel on `threads` workers (0 = all
    /// available). `mbir_parallel::par_map` preserves SV order, so the
    /// result is identical at any thread count.
    pub fn build(a: &SystemMatrix, tiling: &Tiling, config: PlanConfig, threads: usize) -> Self {
        let plans = mbir_parallel::par_map(threads, tiling.len(), |sv| {
            SvPlan::build(a, tiling, sv, config)
        });
        SvPlanSet { config, geometry: *a.geometry(), tiling: tiling.clone(), plans }
    }

    /// The configuration the plans were specialized for.
    pub fn config(&self) -> PlanConfig {
        self.config
    }

    /// The geometry of the system matrix the plans were built from.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// The tiling the plans cover.
    pub fn tiling(&self) -> &Tiling {
        &self.tiling
    }

    /// All plans, indexed by SV id.
    pub fn plans(&self) -> &[SvPlan] {
        &self.plans
    }

    /// One SV's plan.
    pub fn plan(&self, sv: usize) -> &SvPlan {
        &self.plans[sv]
    }

    /// SV elements: every SV's column entries, a voxel shared by
    /// adjacent SVs counted once per SV (each holds its own offsets).
    pub fn elements(&self) -> usize {
        self.plans.iter().map(|p| p.band_offsets.len()).sum()
    }

    /// Approximate resident bytes of the cached state (diagnostics).
    pub fn bytes(&self) -> usize {
        self.plans
            .iter()
            .map(|p| {
                let shape =
                    4 * (p.shape.first.len() + p.shape.width.len()) + 4 * p.shape.row_offset.len();
                let vox = std::mem::size_of_val(p.voxels());
                shape + vox + 2 * p.band_offsets.capacity() + p.codes.capacity()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::QuantizedColumn;
    use ct_core::geometry::Geometry;

    fn setup() -> (Geometry, SystemMatrix, Tiling) {
        let g = Geometry::tiny_scale();
        let a = SystemMatrix::compute(&g);
        let t = Tiling::new(g.grid, 8);
        (g, a, t)
    }

    fn chunked_config() -> PlanConfig {
        PlanConfig { chunk_width: Some(16), quant_bits: Some(8) }
    }

    #[test]
    fn cached_tallies_match_fresh_recomputation() {
        let (_, a, t) = setup();
        let config = chunked_config();
        let set = SvPlanSet::build(&a, &t, config, 1);
        for sv in [0usize, t.len() / 2, t.len() - 1] {
            let plan = set.plan(sv);
            let fresh_shape = SvbShape::compute(&a, &t, sv);
            assert_eq!(plan.shape.first, fresh_shape.first);
            assert_eq!(plan.shape.width, fresh_shape.width);
            assert_eq!(plan.svb_bytes, (4 * fresh_shape.padded_len()) as f64);
            for (vp, j) in plan.voxels().iter().zip(t.voxels(sv)) {
                assert_eq!(vp.voxel, j);
                let col = a.column(j);
                assert_eq!(vp.nnz as usize, col.nnz());
                assert_eq!(plan.offsets(vp).len(), col.nnz());
                let chunks = crate::chunks::chunk_column(&col, 16);
                assert_eq!(vp.dense, chunks.iter().map(|c| c.len() as u64).sum::<u64>());
                assert_eq!(vp.descriptors as usize, chunks.len());
                let fresh_q = QuantizedColumn::quantize_bits(&col, 8);
                assert_eq!(plan.levels, Some(fresh_q.levels));
                assert_eq!(vp.scale, fresh_q.scale);
                assert_eq!(plan.codes[vp.start as usize..][..vp.nnz as usize], fresh_q.codes);
                let mut buf = Vec::new();
                plan.dequantize(vp, &mut buf);
                let deq: Vec<u32> = buf.iter().map(|v| v.to_bits()).collect();
                let fresh: Vec<u32> =
                    fresh_q.dequantize_all().iter().map(|v| v.to_bits()).collect();
                assert_eq!(deq, fresh);
                assert_eq!(plan.entries(&col, &buf).as_ptr(), buf.as_ptr());
            }
        }
    }

    #[test]
    fn parallel_build_is_deterministic() {
        let (_, a, t) = setup();
        let config = chunked_config();
        let s1 = SvPlanSet::build(&a, &t, config, 1);
        let s8 = SvPlanSet::build(&a, &t, config, 8);
        assert_eq!(s1.plans().len(), s8.plans().len());
        for (p1, p8) in s1.plans().iter().zip(s8.plans()) {
            assert_eq!(p1.sv, p8.sv);
            assert_eq!(p1.shape.first, p8.shape.first);
            assert_eq!(p1.svb_bytes, p8.svb_bytes);
            assert_eq!(p1.band_width, p8.band_width);
            assert_eq!(p1.band_offsets, p8.band_offsets);
            assert_eq!(p1.codes, p8.codes);
            for (v1, v8) in p1.voxels().iter().zip(p8.voxels()) {
                assert_eq!(v1.voxel, v8.voxel);
                assert_eq!(v1.dense, v8.dense);
                assert_eq!((v1.start, v1.scale.to_bits()), (v8.start, v8.scale.to_bits()));
            }
        }
    }

    #[test]
    fn naive_config_caches_view_tallies() {
        let (g, a, t) = setup();
        let set = SvPlanSet::build(&a, &t, PlanConfig { chunk_width: None, quant_bits: None }, 0);
        let plan = set.plan(1);
        // No chunk width (GPU naive, PSV-ICD): the modeled plane is packed.
        assert_eq!(plan.svb_bytes, (4 * plan.shape.packed_len()) as f64);
        assert!(plan.codes.is_empty() && plan.levels.is_none());
        for vp in plan.voxels() {
            assert_eq!(vp.dense, vp.nnz as u64);
            assert_eq!(vp.descriptors as usize, g.num_views);
            assert_eq!(vp.scale, 0.0);
            // An f32 plan reads the column itself; the buffer stays put.
            let col = a.column(vp.voxel);
            let mut buf = vec![7.0f32];
            plan.dequantize(vp, &mut buf);
            assert_eq!(buf, [7.0]);
            assert_eq!(plan.entries(&col, &buf).as_ptr(), col.values_flat().as_ptr());
        }
    }

    #[test]
    fn plan_bytes_accounts_quantized_columns() {
        let (_, a, t) = setup();
        let quant = SvPlanSet::build(&a, &t, chunked_config(), 0);
        let plain =
            SvPlanSet::build(&a, &t, PlanConfig { chunk_width: Some(16), quant_bits: None }, 0);
        assert!(quant.bytes() > plain.bytes());
    }

    #[test]
    fn plan_bytes_count_the_band_offsets() {
        // Each SV element costs a u16 offset, plus a u8 code when the
        // plan quantizes: at most 3 B on top of the shapes and the
        // per-voxel records.
        let (_, a, t) = setup();
        for (quant_bits, per_element) in [(None, 2), (Some(8), 3)] {
            let config = PlanConfig { chunk_width: None, quant_bits };
            let set = SvPlanSet::build(&a, &t, config, 0);
            let mut records = 0usize;
            let mut elements = 0usize;
            for p in set.plans() {
                assert_eq!(p.svb_bytes, (4 * p.shape.packed_len()) as f64, "sv {}", p.sv);
                records +=
                    4 * (p.shape.first.len() + p.shape.width.len() + p.shape.row_offset.len());
                records += std::mem::size_of_val(p.voxels());
                elements += p.voxels().iter().map(|v| v.nnz as usize).sum::<usize>();
            }
            assert!(elements > 0);
            assert_eq!(set.elements(), elements);
            assert!(
                set.bytes() >= records + per_element * elements,
                "{} < {records} + {per_element} * {elements}",
                set.bytes()
            );
            assert!(
                set.bytes() <= records + 3 * elements,
                "{} > {records} + 3 * {elements}",
                set.bytes()
            );
        }
    }

    #[test]
    #[should_panic(expected = "past the 65536 that u16 band offsets reach")]
    fn a_band_past_u16_offsets_is_refused() {
        // 4096 views over a 24^2 grid with one SV covering it: every
        // view's band spans the grid's shadow, far past 65 536 cells.
        let mut g = Geometry::tiny_scale();
        g.num_views = 4096;
        let a = SystemMatrix::compute(&g);
        let t = Tiling::new(g.grid, g.grid.nx);
        assert_eq!(t.len(), 1);
        SvPlan::build(&a, &t, 0, chunked_config());
    }

    #[test]
    fn plan_records_its_geometry() {
        let (g, a, t) = setup();
        assert_eq!(*SvPlanSet::build(&a, &t, chunked_config(), 0).geometry(), g);
    }
}
