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
//! A plan is purely a cache: every cached quantity is byte-for-byte
//! what the per-visit recomputation would produce, so cached and
//! uncached runs are bitwise identical (enforced by the
//! `plan_cache_equivalence` regression test).
//!
//! A plan depends on the geometry alone, never on a scan: the weights
//! and the measurement enter at visit time. One plan set therefore
//! serves every scan of its geometry, and it records that geometry so
//! a driver can refuse a plan built for another.

use crate::chunks::chunk_tally;
use crate::lanes::fill_offsets;
use crate::quant::QuantizedColumn;
use crate::svb::{SvbLayout, SvbShape};
use crate::tiling::Tiling;
use ct_core::geometry::Geometry;
use ct_core::sysmat::SystemMatrix;
use gpu_sim::coalesce::affine_transactions;
use mbir_simd::LANES;

/// The iteration-invariant knobs a plan set is specialized for —
/// derived from the driver's options at construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanConfig {
    /// Chunk decomposition width of the transformed layout, or `None`
    /// for the naive layout (no chunk tallies cached).
    pub chunk_width: Option<usize>,
    /// A-matrix quantization bit width, or `None` to keep f32 columns
    /// (no quantized chunks cached).
    pub quant_bits: Option<u32>,
    /// SVB layout the driver gathers with; fixes the cached byte sizes.
    pub layout: SvbLayout,
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
    /// The column quantized once, replacing the two per-visit
    /// `quantize_bits` calls (theta accumulation + write-back).
    pub quant: Option<QuantizedColumn>,
    /// Where this voxel's band offsets start in its SV's
    /// [`SvPlan::band_offsets`] (see [`SvPlan::offsets`]).
    pub offsets_start: u32,
}

/// Warp transaction counts for streaming one row of the transformed
/// per-SV data, precomputed from the closed-form coalescer. These are
/// properties of the padded layout alone — the whole point of the
/// transform is that they stay small and fixed across iterations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowTransactions {
    /// Transactions for one padded SVB error row read as f64 pairs.
    pub e_row: u32,
    /// Transactions for one padded SVB weight row read as f32.
    pub w_row: u32,
    /// Transactions for one A-chunk row (`chunk_width` lanes) at the
    /// quantized (u8) or full (f32) element width.
    pub a_row: u32,
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
    /// One f32 buffer's bytes in the configured layout
    /// (`shape.bytes(config.layout)`).
    pub svb_bytes: f64,
    /// Mean band width in channels over views.
    pub band_width: f64,
    /// Coalescing transaction counts of the SV's padded rows (only
    /// when chunking; the naive layout has no fixed row shape).
    pub row_tx: Option<RowTransactions>,
    /// The offset of every column element in this SV's buffered band,
    /// voxel after voxel in `voxels` order (see [`crate::lanes`]).
    /// Built for every plan: it depends only on the band shape and the
    /// layout.
    pub band_offsets: Vec<u32>,
}

impl SvPlan {
    /// Build the plan for one SV.
    pub fn build(a: &SystemMatrix, tiling: &Tiling, sv: usize, config: PlanConfig) -> SvPlan {
        let shape = SvbShape::compute(a, tiling, sv);
        let nviews = shape.num_views();
        let svb_bytes = shape.bytes(config.layout) as f64;
        let band_width = shape.width.iter().map(|&w| w as f64).sum::<f64>() / nviews.max(1) as f64;
        let band_len = shape.bytes(config.layout) / 4;
        assert!(
            u32::try_from(band_len).is_ok(),
            "SV {sv} band of {band_len} cells overflows u32 offsets"
        );
        let bases = shape.row_bases(config.layout);
        let elements: usize = tiling.voxels(sv).map(|j| a.column(j).nnz()).sum();
        assert!(u32::try_from(elements).is_ok(), "SV {sv} has {elements} elements, past u32");
        let mut band_offsets = vec![0u32; elements + LANES];
        let mut start = 0usize;
        let voxels = tiling
            .voxels(sv)
            .map(|j| {
                let col = a.column(j);
                fill_offsets(&col, &bases, &mut band_offsets[start..]);
                let offsets_start = start as u32;
                start += col.nnz();
                let (dense, descriptors) = match config.chunk_width {
                    Some(w) => chunk_tally(&col, w),
                    None => (col.nnz() as u64, nviews as u32),
                };
                VoxelPlan {
                    voxel: j,
                    nnz: col.nnz() as u32,
                    dense,
                    descriptors,
                    quant: config.quant_bits.map(|bits| QuantizedColumn::quantize_bits(&col, bits)),
                    offsets_start,
                }
            })
            .collect();
        band_offsets.truncate(elements);
        let row_tx = config.chunk_width.map(|w| {
            let a_bytes = if config.quant_bits.is_some() { 1 } else { 4 };
            RowTransactions {
                e_row: affine_transactions(0, 8, 8, (shape.padded_width / 2).max(1) as u32),
                w_row: affine_transactions(0, 4, 4, shape.padded_width.max(1) as u32),
                a_row: affine_transactions(0, a_bytes, a_bytes, w as u32),
            }
        });
        SvPlan { sv, shape, voxels, svb_bytes, band_width, row_tx, band_offsets }
    }

    /// One voxel's band offsets, in its column's flat element order.
    #[inline]
    pub fn offsets(&self, vp: &VoxelPlan) -> &[u32] {
        &self.band_offsets[vp.offsets_start as usize..][..vp.nnz as usize]
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

    /// Approximate resident bytes of the cached state (diagnostics).
    pub fn bytes(&self) -> usize {
        self.plans
            .iter()
            .map(|p| {
                let shape =
                    4 * (p.shape.first.len() + p.shape.width.len()) + 4 * p.shape.row_offset.len();
                let vox: usize = p
                    .voxels
                    .iter()
                    .map(|v| {
                        std::mem::size_of::<VoxelPlan>() + v.quant.as_ref().map_or(0, |q| q.bytes())
                    })
                    .sum();
                shape + vox + 4 * p.band_offsets.capacity()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_core::geometry::Geometry;
    use gpu_sim::coalesce::transactions;

    fn setup() -> (Geometry, SystemMatrix, Tiling) {
        let g = Geometry::tiny_scale();
        let a = SystemMatrix::compute(&g);
        let t = Tiling::new(g.grid, 8);
        (g, a, t)
    }

    fn chunked_config() -> PlanConfig {
        PlanConfig { chunk_width: Some(16), quant_bits: Some(8), layout: SvbLayout::Transposed }
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
            assert_eq!(plan.svb_bytes, fresh_shape.bytes(config.layout) as f64);
            for (vp, j) in plan.voxels().iter().zip(t.voxels(sv)) {
                assert_eq!(vp.voxel, j);
                let col = a.column(j);
                assert_eq!(vp.nnz as usize, col.nnz());
                assert_eq!(plan.offsets(vp).len(), col.nnz());
                let chunks = crate::chunks::chunk_column(&col, 16);
                assert_eq!(vp.dense, chunks.iter().map(|c| c.len() as u64).sum::<u64>());
                assert_eq!(vp.descriptors as usize, chunks.len());
                let q = vp.quant.as_ref().expect("quantized plan");
                let fresh_q = QuantizedColumn::quantize_bits(&col, 8);
                assert_eq!(q.scale, fresh_q.scale);
                assert_eq!(q.codes, fresh_q.codes);
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
            for (v1, v8) in p1.voxels().iter().zip(p8.voxels()) {
                assert_eq!(v1.voxel, v8.voxel);
                assert_eq!(v1.dense, v8.dense);
                assert_eq!(
                    v1.quant.as_ref().map(|q| &q.codes),
                    v8.quant.as_ref().map(|q| &q.codes)
                );
            }
        }
    }

    #[test]
    fn naive_config_caches_view_tallies() {
        let (g, a, t) = setup();
        let set = SvPlanSet::build(
            &a,
            &t,
            PlanConfig { chunk_width: None, quant_bits: None, layout: SvbLayout::SensorMajor },
            0,
        );
        let plan = set.plan(1);
        assert!(plan.row_tx.is_none());
        for vp in plan.voxels() {
            assert_eq!(vp.dense, vp.nnz as u64);
            assert_eq!(vp.descriptors as usize, g.num_views);
            assert!(vp.quant.is_none());
        }
    }

    #[test]
    fn row_transactions_match_materialized_addresses() {
        let (_, a, t) = setup();
        let set = SvPlanSet::build(&a, &t, chunked_config(), 0);
        for sv in [0usize, t.len() - 1] {
            let plan = set.plan(sv);
            let tx = plan.row_tx.expect("chunked plan has row transactions");
            let pw = plan.shape.padded_width;
            // e row: padded_width/2 lanes of f64 pairs.
            let e_addrs: Vec<u64> = (0..(pw / 2).max(1) as u64).map(|i| i * 8).collect();
            assert_eq!(tx.e_row, transactions(&e_addrs, 8));
            // w row: padded_width lanes of f32.
            let w_addrs: Vec<u64> = (0..pw.max(1) as u64).map(|i| i * 4).collect();
            assert_eq!(tx.w_row, transactions(&w_addrs, 4));
            // A chunk row: chunk_width lanes of u8.
            let a_addrs: Vec<u64> = (0..16u64).collect();
            assert_eq!(tx.a_row, transactions(&a_addrs, 1));
        }
    }

    #[test]
    fn plan_bytes_accounts_quantized_columns() {
        let (_, a, t) = setup();
        let quant = SvPlanSet::build(&a, &t, chunked_config(), 0);
        let plain = SvPlanSet::build(
            &a,
            &t,
            PlanConfig { chunk_width: Some(16), quant_bits: None, layout: SvbLayout::Transposed },
            0,
        );
        assert!(quant.bytes() > plain.bytes());
    }

    #[test]
    fn plan_bytes_count_the_band_offsets() {
        // Offsets are 4 B per column element, on top of the shapes and
        // the per-voxel records.
        let (_, a, t) = setup();
        let set = SvPlanSet::build(
            &a,
            &t,
            PlanConfig { chunk_width: None, quant_bits: None, layout: SvbLayout::SensorMajor },
            0,
        );
        let mut records = 0usize;
        let mut elements = 0usize;
        for p in set.plans() {
            records += 4 * (p.shape.first.len() + p.shape.width.len() + p.shape.row_offset.len());
            records += std::mem::size_of_val(p.voxels());
            elements += p.voxels().iter().map(|v| v.nnz as usize).sum::<usize>();
        }
        assert!(elements > 0);
        assert!(
            set.bytes() >= records + 4 * elements,
            "{} < {records} + 4 * {elements}",
            set.bytes()
        );
    }

    #[test]
    fn plan_records_its_geometry() {
        let (g, a, t) = setup();
        assert_eq!(*SvPlanSet::build(&a, &t, chunked_config(), 0).geometry(), g);
    }
}
