//! The one pricer of a GPU-ICD run: functional work tallies in,
//! modeled GPU seconds out.
//!
//! Every batch of Algorithm 3 runs three kernels — SVB create, MBIR
//! update, error write-back — and [`GpuWorkModel::batch`] builds a
//! [`gpu_sim::KernelProfile`] for each from the batch's per-SV
//! [`SvTally`]s and prices it on the timing model of the fleet's GPU
//! (the paper's Titan X in every preset). The model is built once per
//! run from the active [`GpuOptions`] and that GPU; the constants
//! below are its calibration and are documented in DESIGN.md. Every
//! optimization toggle changes exactly the quantity the paper
//! attributes to it:
//!
//! - **layout** (Fig. 6): the naive layout reads `nnz` entries at one
//!   32-byte sector each (fully uncoalesced) with ~8% warp efficiency
//!   (mean run ~2.7 of 32 lanes) and per-view start look-ups; the
//!   chunked layout reads `dense = nnz x padding` elements at full bus
//!   efficiency with per-chunk descriptors.
//! - **A-matrix mode** (Table 2): u8 quarters A bytes; the texture path
//!   takes A traffic off L2/DRAM at the paper's observed hit rates.
//! - **L2 read width** (Table 3.1): 32-bit SVB reads see half the L2
//!   bandwidth.
//! - **register mode** (Table 3.2): 44 regs lowers occupancy;
//!   compiler spilling adds L2 traffic at a 30% L1 hit rate; manual
//!   shared-memory placement adds shared traffic at full occupancy.
//! - **intra-SV parallelism** (Table 3.3): off means one block per SV
//!   — the GPU runs mostly empty.
//! - **dynamic voxel distribution** (Table 3.4): off skews per-block
//!   work by the zero-skip imbalance the driver measured.
//! - **SV side / batch size** (Fig. 7a/7d): total resident SVB bytes
//!   pressure the 3 MB L2; small SVs raise intra-SV atomic conflicts.

use crate::opts::{GpuOptions, L2ReadWidth, Layout, RegisterMode};
use gpu_sim::occupancy::BlockResources;
use gpu_sim::timing::{BlockWork, KernelProfile, TimingModel};
use gpu_sim::GpuSpec;
use mbir_telemetry::{LaunchCtx, ProfileSink};
use supervoxel::plan::SvPlan;
use supervoxel::sweep::SvTally;

/// Threads per block of the two copy kernels, SVB create and error
/// write-back.
const COPY_BLOCK_THREADS: u32 = 256;
/// FLOPs per processed element (dequant + 2 FMAs + addressing).
const FLOPS_PER_ENTRY: f64 = 8.0;
/// Warp efficiency of the naive layout (mean run / warp size).
const NAIVE_WARP_EFFICIENCY: f64 = 0.085;
/// Memory-system efficiency of the naive layout's scattered accesses
/// (transaction-issue bound; coalesced access is 1.0).
const NAIVE_MEM_EFFICIENCY: f64 = 0.25;
/// Texture hit rate for f32 A entries (paper Table 2: 41.78%).
pub const TEX_HIT_F32: f64 = 0.42;
/// Texture hit rate for u8 A entries (paper Table 2: 60.36%).
pub const TEX_HIT_U8: f64 = 0.60;
/// L1 hit rate of compiler register spills (paper: "remained poor
/// (30%)").
const SPILL_L1_HIT: f64 = 0.30;
/// Bytes of spill traffic per processed element.
const SPILL_BYTES_PER_ENTRY: f64 = 4.0;
/// Shared-memory bytes per thread per voxel for the tree reduction.
const REDUCTION_BYTES_PER_THREAD: f64 = 16.0;
/// Scale of intra-SV atomic conflicts (`blocks_active * run /
/// band_width`).
const CONFLICT_COEFF: f64 = 0.25;
/// Mean footprint run length in channels (conflict model input).
const MEAN_RUN: f64 = 2.7;
/// Warp instructions per 32-wide chunk-row slice (3 array loads, FMAs,
/// addressing, loop control).
const ROW_INSTRUCTIONS: f64 = 12.0;
/// Warp instructions per chunk descriptor: a dependent look-up of the
/// chunk's start location plus window setup — the cost that punishes
/// narrow chunks (paper Fig. 6's left side).
const CHUNK_INSTRUCTIONS: f64 = 400.0;
/// Warp instructions per voxel update for the tree reduction and the
/// surrogate solve.
const UPDATE_INSTRUCTIONS: f64 = 75.0;
/// Warp instructions per sparse entry in the naive layout (one thread
/// per entry with scattered addressing).
const NAIVE_ENTRY_INSTRUCTIONS: f64 = 0.6;

/// The GPU-ICD work model of one run: its GPU's timing model plus
/// every options-derived constant of the kernel profiles, hoisted once
/// per run — the analytic analogue of the paper's one-time layout
/// transform. Per batch, only the tally-dependent block work remains to
/// be filled in.
#[derive(Debug, Clone)]
pub struct GpuWorkModel {
    /// The machine timing model.
    pub(crate) timing: TimingModel,
    /// Detector channels (the write-back kernel's band overlap).
    num_channels: usize,
    chunked: bool,
    /// Chunk width in elements (1 for the naive layout).
    width: f64,
    /// Chunk rows start at sector-aligned addresses.
    aligned: bool,
    /// A-matrix bytes streamed per entry.
    a_bpe: f64,
    /// Texture hit rate of the A stream; `None` on the global path.
    tex_hit: Option<f64>,
    resources: BlockResources,
    blocks_per_sv: u32,
    dynamic_voxels: bool,
    registers: RegisterMode,
    l2_read_factor: f64,
}

impl GpuWorkModel {
    /// The model of a run under `opts` on `gpu` (the fleet's device),
    /// with a detector of `num_channels` channels.
    pub fn new(opts: &GpuOptions, num_channels: usize, gpu: GpuSpec) -> Self {
        // Quantized modes stream `amatrix_bits / 8` bytes per entry
        // (sub-byte widths pack; 8 bits = the paper's u8).
        let a_bpe = if opts.amatrix.quantized() {
            opts.amatrix_bits as f64 / 8.0
        } else {
            opts.amatrix.bytes_per_entry()
        };
        let tex_hit = if opts.amatrix.quantized() { TEX_HIT_U8 } else { TEX_HIT_F32 };

        // Per-thread shared memory: reduction partials plus (for the
        // paper's manual-spill mode) the relocated locals.
        let smem_per_thread = match opts.registers {
            RegisterMode::SharedMem32 => 8 + 32,
            _ => 8,
        };

        // Chunk geometry of the transformed layout. Rows of widths that
        // are a multiple of the warp size start at aligned addresses
        // (the paper: "widths that are multiples of warp size perform
        // better because they achieve aligned memory accesses");
        // other widths pay an extra sector per row and transaction
        // replays on the issue side.
        let (chunked, width, aligned) = match opts.layout {
            Layout::Chunked { width } => (true, width as f64, width % 32 == 0),
            Layout::Naive => (false, 1.0, true),
        };

        GpuWorkModel {
            timing: Self::timing_on(gpu),
            num_channels,
            chunked,
            width,
            aligned,
            a_bpe,
            tex_hit: opts.amatrix.uses_texture().then_some(tex_hit),
            resources: BlockResources {
                threads: opts.threads_per_block,
                regs_per_thread: opts.registers.regs_per_thread(),
                shared_mem: opts.threads_per_block * smem_per_thread,
            },
            blocks_per_sv: opts.threadblocks_per_sv,
            dynamic_voxels: opts.dynamic_voxels,
            registers: opts.registers,
            l2_read_factor: match opts.l2_read {
                L2ReadWidth::Double => 1.0,
                L2ReadWidth::Float => 0.5,
            },
        }
    }

    /// The timing model of `gpu`, saturating issue where this run's
    /// kernels do.
    fn timing_on(gpu: GpuSpec) -> TimingModel {
        let mut timing = TimingModel::new(gpu);
        // The MBIR kernel's warps stall on dependent descriptor and
        // address chains, so the issue pipe only saturates with deep
        // warp-level parallelism — near the same occupancy that hides
        // memory latency. (The gpu-sim default of 0.25 describes
        // ILP-rich streaming kernels; with it, a half-empty launch
        // would enjoy 3x the per-block issue rate while L2 bandwidth
        // stays flat, which the paper's small-batch measurements do
        // not show.)
        timing.compute_occupancy_sat = 0.6;
        timing
    }

    /// The device this model prices kernels on.
    pub(crate) fn gpu(&self) -> &GpuSpec {
        &self.timing.spec
    }

    /// The same run's model on another device: every options-derived
    /// constant kept, the timing model rebuilt for `gpu`. Refuses a
    /// `gpu` whose blocks hold fewer threads than this run's kernels
    /// launch.
    pub(crate) fn on(&self, gpu: GpuSpec) -> Result<Self, String> {
        let threads = self.resources.threads.max(COPY_BLOCK_THREADS);
        if threads > gpu.max_threads_per_block {
            return Err(format!(
                "the fleet's GPU ({}) runs at most {} threads per block; this run launches {threads}",
                gpu.name, gpu.max_threads_per_block
            ));
        }
        Ok(GpuWorkModel { timing: Self::timing_on(gpu), ..self.clone() })
    }

    /// L2 capacity-pressure factor: the working set of all SVBs in
    /// flight (e + w planes) against the L2 size. Consecutive blocks of
    /// one SV touch the same band rows, so roughly twice the L2's
    /// capacity stays effectively hot; beyond that, hit rate (and thus
    /// effective bandwidth) degrades proportionally (paper Fig. 7a's
    /// large-SV falloff).
    fn l2_pressure_factor(&self, resident_bytes: f64) -> f64 {
        let cap = 2.0 * self.timing.spec.l2_bytes as f64;
        (cap / resident_bytes.max(1.0)).min(1.0)
    }

    /// Modeled seconds of one batch of SVs: SVB create, then MBIR
    /// update, then error write-back, added in that order. With
    /// `spans`, each of the three launches also emits one
    /// [`mbir_telemetry::KernelSpan`] to the sink, tagged with the
    /// context's device, iteration and batch and laid out back-to-back
    /// from its `start_seconds` (the serial launch order of Algorithm
    /// 3). The sink only observes: the seconds are the same either way.
    pub fn batch(&self, svs: &[SvTally], spans: Option<(&dyn ProfileSink, LaunchCtx)>) -> f64 {
        let resident = 2.0 * svs.iter().map(|s| s.svb_bytes).sum::<f64>(); // e + w planes
        let l2f = self.l2_pressure_factor(resident);
        let count = svs.len() as u64;
        let mut start = spans.map_or(0.0, |(_, ctx)| ctx.start_seconds);
        let mut launch = |profile: KernelProfile, tex_hit_rate: f64| {
            let ctx = spans.map(|(_, ctx)| LaunchCtx {
                start_seconds: start,
                svs: count,
                tex_hit_rate,
                ..ctx
            });
            let t = self.timing.time_with(&profile, spans.map(|(sink, _)| sink).zip(ctx.as_ref()));
            start += t.seconds;
            t.seconds
        };
        let create = launch(self.create_profile(svs, l2f), 0.0);
        // Only the MBIR kernel reads through the texture path, and only
        // when the A-matrix mode asks for it.
        let mbir = launch(self.mbir_profile(svs, l2f), self.tex_hit.unwrap_or(0.0));
        let writeback = launch(self.writeback_profile(svs, l2f), 0.0);
        create + mbir + writeback
    }

    /// Modeled seconds of `plan`'s SV as a one-SV batch in which every
    /// voxel updates (no zero-skips) — the setup-time stand-in for
    /// per-iteration work, and the deterministic per-SV cost the fleet
    /// balances its shards by.
    pub fn sv_cost(&self, plan: &SvPlan) -> f64 {
        let mut t = SvTally {
            sv: plan.sv,
            updates: plan.voxels().len() as u64,
            svb_bytes: plan.svb_bytes,
            band_width: plan.band_width,
            max_block_share: 1.0 / self.blocks_per_sv as f64,
            ..Default::default()
        };
        for vp in plan.voxels() {
            t.nnz += vp.nnz as f64;
            t.dense += vp.dense as f64;
            t.descriptors += vp.descriptors as f64;
        }
        self.batch(&[t], None)
    }

    /// The SVB gather kernel: stream the bands out of the global
    /// sinograms (DRAM-resident at paper scale) into the SVBs (L2).
    fn create_profile(&self, svs: &[SvTally], l2f: f64) -> KernelProfile {
        // Copies parallelize trivially: 8 blocks per SV.
        let blocks = svs
            .iter()
            .flat_map(|sv| {
                // Read e+w packed bands from global, write both planes.
                let read = 2.0 * sv.svb_bytes / 8.0;
                let write = 2.0 * sv.svb_bytes / 8.0;
                std::iter::repeat_n(
                    BlockWork {
                        l2_bytes: read + write,
                        dram_bytes: read,
                        flops: 0.0,
                        ..Default::default()
                    },
                    8,
                )
            })
            .collect();
        KernelProfile {
            name: "svb_create".into(),
            resources: BlockResources {
                threads: COPY_BLOCK_THREADS,
                regs_per_thread: 24,
                shared_mem: 0,
            },
            blocks,
            l2_width_factor: l2f,
            warp_efficiency: 1.0,
            mem_efficiency: 1.0,
        }
    }

    /// The MBIR update kernel (three-level parallelism). All
    /// options-derived constants come from the model; only the per-SV
    /// tallies vary per batch.
    #[allow(clippy::field_reassign_with_default)]
    pub(crate) fn mbir_profile(&self, svs: &[SvTally], l2f: f64) -> KernelProfile {
        let (chunked, width, aligned, a_bpe) = (self.chunked, self.width, self.aligned, self.a_bpe);
        let align_issue = if aligned { 1.0 } else { 1.5 };
        let threads = self.resources.threads as f64;

        let mut blocks = Vec::new();
        for sv in svs {
            let b = self.blocks_per_sv as usize;
            // Elements processed (dense includes chunk padding).
            let elems = if chunked { sv.dense } else { sv.nnz };
            // Chunk rows: one per covered view.
            let rows = if chunked { sv.dense / width } else { sv.nnz };
            // A is read in the theta pass and again in the write-back
            // pass (Algorithm 1 reads it twice).
            let a_useful = 2.0 * elems * a_bpe;
            // Bus bytes: coalesced row reads when chunked (plus one
            // stray sector per misaligned row); one 32-byte sector per
            // entry when naive.
            let a_bus = if chunked {
                a_useful + if aligned { 0.0 } else { 2.0 * rows * 32.0 }
            } else {
                2.0 * elems * 32.0
            };
            // SVB e+w reads in the theta pass (e again as atomics in
            // the error pass, counted as atomics below).
            let svb_bus = if chunked {
                elems * 8.0 + if aligned { 0.0 } else { rows * 32.0 }
            } else {
                elems * 2.0 * 32.0
            };
            let desc_bytes = sv.descriptors * 16.0;

            let mut w = BlockWork::default();
            w.flops = elems * FLOPS_PER_ENTRY + sv.updates as f64 * threads;
            // Warp-instruction issue: the pipe that actually binds this
            // latency-heavy kernel on small widths. Chunked: a handful
            // of instructions per 32-wide row slice (3 loads, FMAs,
            // addressing) plus a dependent-descriptor cost per chunk
            // (the paper's per-chunk start-location look-up); naive:
            // one thread per sparse entry plus per-view look-ups.
            w.instructions = if chunked {
                rows * ROW_INSTRUCTIONS * (width / 32.0).max(1.0).ceil() * align_issue
                    + sv.descriptors * CHUNK_INSTRUCTIONS
                    + sv.updates as f64 * UPDATE_INSTRUCTIONS
            } else {
                sv.nnz * NAIVE_ENTRY_INSTRUCTIONS
                    + sv.descriptors * 8.0
                    + sv.updates as f64 * UPDATE_INSTRUCTIONS
            };
            w.l2_bytes = svb_bus + desc_bytes;
            if let Some(tex_hit) = self.tex_hit {
                w.tex_bytes = a_bus;
                w.dram_bytes += a_bus * (1.0 - tex_hit);
            } else {
                w.l2_bytes += a_bus;
                w.dram_bytes += a_bus; // A streams; far larger than L2.
            }
            match self.registers {
                RegisterMode::SharedMem32 => {
                    w.shared_bytes += elems * SPILL_BYTES_PER_ENTRY;
                }
                RegisterMode::CompilerSpill32 => {
                    w.l2_bytes += elems * SPILL_BYTES_PER_ENTRY * (1.0 - SPILL_L1_HIT);
                }
                RegisterMode::Regs44 => {}
            }
            w.shared_bytes += sv.updates as f64 * threads * REDUCTION_BYTES_PER_THREAD
                / self.blocks_per_sv as f64;
            // Error write-back within the SVB: one atomic per sparse
            // entry; conflicts grow as concurrent blocks squeeze into a
            // narrow band (paper Fig. 7a: small SVs contend more).
            w.atomics = sv.nnz;
            w.atomic_conflict = 1.0
                + CONFLICT_COEFF * (self.blocks_per_sv as f64 * MEAN_RUN / sv.band_width.max(1.0));

            // Split the SV's work over its blocks.
            let even = 1.0 / b as f64;
            for i in 0..b {
                let share = if self.dynamic_voxels {
                    even
                } else {
                    // Static distribution: the heaviest block carries
                    // `max_block_share` and, dispatched last, becomes
                    // the kernel's straggler; the rest split the
                    // remainder.
                    if i == b - 1 {
                        sv.max_block_share.max(even)
                    } else {
                        (1.0 - sv.max_block_share.max(even)) / (b as f64 - 1.0).max(1.0)
                    }
                };
                blocks.push(BlockWork {
                    flops: w.flops * share,
                    instructions: w.instructions * share,
                    l2_bytes: w.l2_bytes * share,
                    dram_bytes: w.dram_bytes * share,
                    tex_bytes: w.tex_bytes * share,
                    shared_bytes: w.shared_bytes * share,
                    atomics: w.atomics * share,
                    atomic_conflict: w.atomic_conflict,
                });
            }
        }

        KernelProfile {
            name: "mbir_update".into(),
            resources: self.resources,
            blocks,
            l2_width_factor: l2f * self.l2_read_factor,
            warp_efficiency: if chunked { 1.0 } else { NAIVE_WARP_EFFICIENCY },
            mem_efficiency: if chunked { 1.0 } else { NAIVE_MEM_EFFICIENCY },
        }
    }

    /// The error write-back kernel: atomically merge every SVB delta
    /// into the global sinogram.
    fn writeback_profile(&self, svs: &[SvTally], l2f: f64) -> KernelProfile {
        let nsv = svs.len().max(1);
        // Merges parallelize trivially: 8 blocks per SV.
        let blocks = svs
            .iter()
            .flat_map(|sv| {
                let entries = sv.svb_bytes / 4.0 / 8.0;
                // Bands of concurrently merging SVs overlap on shared
                // sinogram cells.
                let overlap = (nsv as f64 - 1.0) * sv.band_width / self.num_channels.max(1) as f64;
                std::iter::repeat_n(
                    BlockWork {
                        l2_bytes: sv.svb_bytes * 2.0 / 8.0,
                        dram_bytes: sv.svb_bytes / 8.0,
                        atomics: entries,
                        atomic_conflict: 1.0 + overlap.max(0.0),
                        ..Default::default()
                    },
                    8,
                )
            })
            .collect();
        KernelProfile {
            name: "error_writeback".into(),
            resources: BlockResources {
                threads: COPY_BLOCK_THREADS,
                regs_per_thread: 24,
                shared_mem: 0,
            },
            blocks,
            l2_width_factor: l2f * 0.5, // atomic adds cannot be double
            warp_efficiency: 1.0,
            mem_efficiency: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opts::AMatrixMode;

    /// Modeled seconds of `svs` under `opts`, unprofiled.
    fn seconds(svs: &[SvTally], opts: &GpuOptions) -> f64 {
        GpuWorkModel::new(opts, 1024, GpuSpec::titan_x_maxwell()).batch(svs, None)
    }

    fn paper_scale_batch(opts: &GpuOptions) -> Vec<SvTally> {
        // 32 SVs of side 33 at 512^2/720 views: ~1156 voxels each,
        // ~1944 sparse entries per voxel, ~11x padding at width 32.
        let per_sv = SvTally {
            sv: 0,
            updates: 1156,
            skipped: 0,
            abs_delta: 1.0,
            nnz: 1156.0 * 1944.0,
            dense: if matches!(opts.layout, Layout::Chunked { .. }) {
                1156.0 * 23040.0
            } else {
                1156.0 * 1944.0
            },
            descriptors: 1156.0 * 20.0,
            svb_bytes: 56.0 * 4.0 * 720.0,
            band_width: 50.0,
            max_block_share: 1.0 / opts.threadblocks_per_sv as f64,
        };
        vec![per_sv; 32]
    }

    #[test]
    fn default_batch_lands_near_paper_equit_rate() {
        // ~7 batches per equit at paper scale; the paper's time/equit
        // is 0.07 s, so a batch should cost ~5-20 ms.
        let opts = GpuOptions::default();
        let ms = seconds(&paper_scale_batch(&opts), &opts) * 1e3;
        assert!((2.0..40.0).contains(&ms), "batch {ms} ms");
    }

    #[test]
    fn chunked_beats_naive() {
        // Fig. 6: the transformed layout wins ~2.1x at width 32.
        let chunked = GpuOptions::default();
        let naive = GpuOptions { layout: Layout::Naive, ..Default::default() };
        let tc = seconds(&paper_scale_batch(&chunked), &chunked);
        let tn = seconds(&paper_scale_batch(&naive), &naive);
        let speedup = tn / tc;
        assert!((1.2..5.0).contains(&speedup), "speedup {speedup}");
    }

    #[test]
    fn table2_ordering() {
        // (Global,f32) slowest ... (Texture,u8) fastest.
        let mut times = Vec::new();
        for mode in [
            AMatrixMode::GlobalF32,
            AMatrixMode::TextureF32,
            AMatrixMode::GlobalU8,
            AMatrixMode::TextureU8,
        ] {
            let opts = GpuOptions { amatrix: mode, ..Default::default() };
            times.push(seconds(&paper_scale_batch(&opts), &opts));
        }
        assert!(times[0] > times[1], "tex f32 should beat global f32");
        assert!(times[1] > times[3], "u8 tex should beat f32 tex");
        assert!(times[2] > times[3], "tex u8 should beat global u8");
    }

    #[test]
    fn table3_toggles_all_slow_down() {
        let base_opts = GpuOptions::default();
        let base = seconds(&paper_scale_batch(&base_opts), &base_opts);
        // Float L2 reads.
        let o1 = GpuOptions { l2_read: L2ReadWidth::Float, ..Default::default() };
        assert!(seconds(&paper_scale_batch(&o1), &o1) > base);
        // Register modes.
        let o2 = GpuOptions { registers: RegisterMode::Regs44, ..Default::default() };
        assert!(seconds(&paper_scale_batch(&o2), &o2) > base);
        let o2b = GpuOptions { registers: RegisterMode::CompilerSpill32, ..Default::default() };
        assert!(seconds(&paper_scale_batch(&o2b), &o2b) > base);
        // Intra-SV parallelism off: one block per SV.
        let o3 = GpuOptions { threadblocks_per_sv: 1, ..Default::default() };
        let t3 = seconds(&paper_scale_batch(&o3), &o3);
        assert!(t3 > 3.0 * base, "intra-SV off only {}x", t3 / base);
        // Static voxel distribution with measured imbalance.
        let o4 = GpuOptions { dynamic_voxels: false, ..Default::default() };
        let mut t = paper_scale_batch(&o4);
        for sv in &mut t {
            sv.max_block_share = 3.0 / o4.threadblocks_per_sv as f64; // skewed
        }
        assert!(seconds(&t, &o4) > base);
    }

    #[test]
    fn l2_pressure_kicks_in_for_huge_svbs() {
        let m = GpuWorkModel::new(&GpuOptions::default(), 1024, GpuSpec::titan_x_maxwell());
        assert_eq!(m.l2_pressure_factor(1.0e6), 1.0);
        let f10 = m.l2_pressure_factor(10.0e6);
        let f20 = m.l2_pressure_factor(20.0e6);
        assert!(f10 < 1.0);
        assert!(f20 < f10, "pressure must be monotone: {f20} vs {f10}");
    }

    #[test]
    fn compiler_spill_beats_44_regs_slightly() {
        // The paper saw only ~6% improvement from maxrregcount alone.
        let o44 = GpuOptions { registers: RegisterMode::Regs44, ..Default::default() };
        let ospill = GpuOptions { registers: RegisterMode::CompilerSpill32, ..Default::default() };
        let t44 = seconds(&paper_scale_batch(&o44), &o44);
        let tspill = seconds(&paper_scale_batch(&ospill), &ospill);
        assert!(tspill < t44, "spill {tspill} vs 44regs {t44}");
    }
}
