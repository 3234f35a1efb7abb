//! Turning functional work tallies into GPU kernel profiles.
//!
//! Every batch of Algorithm 3 runs three kernels — SVB create, MBIR
//! update, error write-back — and this module builds a
//! [`gpu_sim::KernelProfile`] for each from the batch's [`BatchTally`]
//! and the active [`GpuOptions`]. The constants below are the model's
//! calibration and are documented in DESIGN.md; every optimization
//! toggle changes exactly the quantity the paper attributes to it:
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

use crate::opts::{GpuOptions, Layout, RegisterMode};
use crate::tally::BatchTally;
use gpu_sim::occupancy::BlockResources;
use gpu_sim::timing::{BlockWork, KernelProfile, KernelTiming, TimingModel};
use gpu_sim::GpuSpec;
use mbir_telemetry::{LaunchCtx, ProfileSink};

/// Modeled timings of one batch's three kernels.
#[derive(Debug, Clone, Copy)]
pub struct BatchTiming {
    /// SVB gather kernel.
    pub create: KernelTiming,
    /// The MBIR update kernel.
    pub mbir: KernelTiming,
    /// Error sinogram write-back kernel.
    pub writeback: KernelTiming,
}

impl BatchTiming {
    /// Total modeled seconds of the batch.
    pub fn seconds(&self) -> f64 {
        self.create.seconds + self.mbir.seconds + self.writeback.seconds
    }
}

/// The options-derived portion of the MBIR kernel profile, hoisted
/// once per run by [`GpuWorkModel::skeleton`]. Per batch, only the
/// tally-dependent block work remains to be filled in — the analytic
/// analogue of the paper's one-time layout transform.
#[derive(Debug, Clone)]
pub struct ProfileSkeleton {
    chunked: bool,
    a_bpe: f64,
    tex: bool,
    tex_hit: f64,
    resources: BlockResources,
    width: f64,
    aligned: bool,
    align_issue: f64,
    blocks_per_sv: u32,
    threads_per_block: u32,
    dynamic_voxels: bool,
    registers: RegisterMode,
    l2_read_factor: f64,
    warp_efficiency: f64,
    mem_efficiency: f64,
}

/// The GPU-ICD work model.
#[derive(Debug, Clone)]
pub struct GpuWorkModel {
    /// The machine timing model.
    pub timing: TimingModel,
    /// FLOPs per processed element (dequant + 2 FMAs + addressing).
    pub flops_per_entry: f64,
    /// Warp efficiency of the naive layout (mean run / warp size).
    pub naive_warp_efficiency: f64,
    /// Memory-system efficiency of the naive layout's scattered
    /// accesses (transaction-issue bound; coalesced access is 1.0).
    pub naive_mem_efficiency: f64,
    /// Texture hit rate for f32 A entries (paper Table 2: 41.78%).
    pub tex_hit_f32: f64,
    /// Texture hit rate for u8 A entries (paper Table 2: 60.36%).
    pub tex_hit_u8: f64,
    /// L1 hit rate of compiler register spills (paper: "remained poor
    /// (30%)").
    pub spill_l1_hit: f64,
    /// Bytes of spill traffic per processed element.
    pub spill_bytes_per_entry: f64,
    /// Shared-memory bytes per thread per voxel for the tree reduction.
    pub reduction_bytes_per_thread: f64,
    /// Scale of intra-SV atomic conflicts
    /// (`blocks_active * run / band_width`).
    pub conflict_coeff: f64,
    /// Mean footprint run length in channels (conflict model input).
    pub mean_run: f64,
    /// Warp instructions per 32-wide chunk-row slice (3 array loads,
    /// FMAs, addressing, loop control).
    pub row_instructions: f64,
    /// Warp instructions per chunk descriptor: a dependent look-up of
    /// the chunk's start location plus window setup — the cost that
    /// punishes narrow chunks (paper Fig. 6's left side).
    pub chunk_instructions: f64,
    /// Warp instructions per voxel update for the tree reduction and
    /// the surrogate solve.
    pub update_instructions: f64,
    /// Warp instructions per sparse entry in the naive layout (one
    /// thread per entry with scattered addressing).
    pub naive_entry_instructions: f64,
}

impl GpuWorkModel {
    /// Model for the given machine.
    pub fn new(spec: GpuSpec) -> Self {
        let mut timing = TimingModel::new(spec);
        // The MBIR kernel's warps stall on dependent descriptor and
        // address chains, so the issue pipe only saturates with deep
        // warp-level parallelism — near the same occupancy that hides
        // memory latency. (The gpu-sim default of 0.25 describes
        // ILP-rich streaming kernels; with it, a half-empty launch
        // would enjoy 3x the per-block issue rate while L2 bandwidth
        // stays flat, which the paper's small-batch measurements do
        // not show.)
        timing.compute_occupancy_sat = 0.6;
        GpuWorkModel {
            timing,
            flops_per_entry: 8.0,
            naive_warp_efficiency: 0.085,
            naive_mem_efficiency: 0.25,
            tex_hit_f32: 0.42,
            tex_hit_u8: 0.60,
            spill_l1_hit: 0.30,
            spill_bytes_per_entry: 4.0,
            reduction_bytes_per_thread: 16.0,
            conflict_coeff: 0.25,
            mean_run: 2.7,
            row_instructions: 12.0,
            chunk_instructions: 400.0,
            update_instructions: 75.0,
            naive_entry_instructions: 0.6,
        }
    }

    /// Model for the paper's Titan X.
    pub fn titan_x() -> Self {
        Self::new(GpuSpec::titan_x_maxwell())
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

    /// Hoist every options-derived field of the MBIR profile into a
    /// reusable skeleton; [`Self::batch`] fills in only the per-batch
    /// tallies.
    pub fn skeleton(&self, opts: &GpuOptions) -> ProfileSkeleton {
        let chunked = matches!(opts.layout, Layout::Chunked { .. });
        // Quantized modes stream `amatrix_bits / 8` bytes per entry
        // (sub-byte widths pack; 8 bits = the paper's u8).
        let a_bpe = if opts.amatrix.quantized() {
            opts.amatrix_bits as f64 / 8.0
        } else {
            opts.amatrix.bytes_per_entry()
        };
        let tex_hit = if opts.amatrix.quantized() { self.tex_hit_u8 } else { self.tex_hit_f32 };

        // Per-thread shared memory: reduction partials plus (for the
        // paper's manual-spill mode) the relocated locals.
        let smem_per_thread = match opts.registers {
            RegisterMode::SharedMem32 => 8 + 32,
            _ => 8,
        };
        let resources = BlockResources {
            threads: opts.threads_per_block,
            regs_per_thread: opts.registers.regs_per_thread(),
            shared_mem: opts.threads_per_block * smem_per_thread,
        };

        // Chunk geometry of the transformed layout. Rows of widths that
        // are a multiple of the warp size start at aligned addresses
        // (the paper: "widths that are multiples of warp size perform
        // better because they achieve aligned memory accesses");
        // other widths pay an extra sector per row and transaction
        // replays on the issue side.
        let (width, aligned) = match opts.layout {
            Layout::Chunked { width } => (width as f64, width % 32 == 0),
            Layout::Naive => (1.0, true),
        };
        let align_issue = if aligned { 1.0 } else { 1.5 };

        ProfileSkeleton {
            chunked,
            a_bpe,
            tex: opts.amatrix.uses_texture(),
            tex_hit,
            resources,
            width,
            aligned,
            align_issue,
            blocks_per_sv: opts.threadblocks_per_sv,
            threads_per_block: opts.threads_per_block,
            dynamic_voxels: opts.dynamic_voxels,
            registers: opts.registers,
            l2_read_factor: match opts.l2_read {
                crate::opts::L2ReadWidth::Double => 1.0,
                crate::opts::L2ReadWidth::Float => 0.5,
            },
            warp_efficiency: if chunked { 1.0 } else { self.naive_warp_efficiency },
            mem_efficiency: if chunked { 1.0 } else { self.naive_mem_efficiency },
        }
    }

    /// Model one batch's kernels from a prebuilt skeleton. With
    /// `spans`, each of the three launches also emits one
    /// [`mbir_telemetry::KernelSpan`] to the sink, tagged with the
    /// context's device, iteration and batch and laid out back-to-back
    /// from its `start_seconds` (create, then MBIR, then write-back: the
    /// serial launch order of Algorithm 3). The sink only observes: the
    /// returned timing is the same either way.
    pub fn batch(
        &self,
        skeleton: &ProfileSkeleton,
        tally: &BatchTally,
        num_channels: usize,
        spans: Option<(&dyn ProfileSink, LaunchCtx)>,
    ) -> BatchTiming {
        let nsv = tally.svs.len().max(1);
        let resident = 2.0 * tally.svb_bytes(); // e + w planes
        let l2f = self.l2_pressure_factor(resident);
        let svs = tally.svs.len() as u64;
        let mut start = spans.map_or(0.0, |(_, ctx)| ctx.start_seconds);
        let mut launch = |profile: KernelProfile, tex_hit_rate: f64| {
            let ctx =
                spans.map(|(_, ctx)| LaunchCtx { start_seconds: start, svs, tex_hit_rate, ..ctx });
            let t = self.timing.time_with(&profile, spans.map(|(sink, _)| sink).zip(ctx.as_ref()));
            start += t.seconds;
            t
        };
        let create = launch(self.create_profile(tally, l2f), 0.0);
        // Only the MBIR kernel reads through the texture path, and only
        // when the A-matrix mode asks for it.
        let mbir_hit = if skeleton.tex { skeleton.tex_hit } else { 0.0 };
        let mbir = launch(self.mbir_profile(tally, skeleton, l2f), mbir_hit);
        let writeback = launch(self.writeback_profile(tally, l2f, nsv, num_channels), 0.0);
        BatchTiming { create, mbir, writeback }
    }

    /// The SVB gather kernel: stream the bands out of the global
    /// sinograms (DRAM-resident at paper scale) into the SVBs (L2).
    fn create_profile(&self, tally: &BatchTally, l2f: f64) -> KernelProfile {
        // Copies parallelize trivially: 8 blocks per SV.
        let blocks = tally
            .svs
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
            resources: BlockResources { threads: 256, regs_per_thread: 24, shared_mem: 0 },
            blocks,
            l2_width_factor: l2f,
            warp_efficiency: 1.0,
            mem_efficiency: 1.0,
        }
    }

    /// Test/validation hook: the MBIR profile construction, exposed so
    /// the warp-IR trace of `crate::kernels` can be compared against it.
    pub fn mbir_profile_for_test(
        &self,
        tally: &BatchTally,
        opts: &GpuOptions,
        l2f: f64,
    ) -> KernelProfile {
        self.mbir_profile(tally, &self.skeleton(opts), l2f)
    }

    /// The MBIR update kernel (three-level parallelism). All
    /// options-derived constants come in through the skeleton; only the
    /// per-SV tallies vary per batch.
    #[allow(clippy::field_reassign_with_default)]
    fn mbir_profile(&self, tally: &BatchTally, sk: &ProfileSkeleton, l2f: f64) -> KernelProfile {
        let chunked = sk.chunked;
        let (a_bpe, tex, tex_hit) = (sk.a_bpe, sk.tex, sk.tex_hit);
        let (width, aligned, align_issue) = (sk.width, sk.aligned, sk.align_issue);

        let mut blocks = Vec::new();
        for sv in &tally.svs {
            let b = sk.blocks_per_sv as usize;
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
            w.flops =
                elems * self.flops_per_entry + sv.updates as f64 * sk.threads_per_block as f64;
            // Warp-instruction issue: the pipe that actually binds this
            // latency-heavy kernel on small widths. Chunked: a handful
            // of instructions per 32-wide row slice (3 loads, FMAs,
            // addressing) plus a dependent-descriptor cost per chunk
            // (the paper's per-chunk start-location look-up); naive:
            // one thread per sparse entry plus per-view look-ups.
            w.instructions = if chunked {
                rows * self.row_instructions * (width / 32.0).max(1.0).ceil() * align_issue
                    + sv.descriptors * self.chunk_instructions
                    + sv.updates as f64 * self.update_instructions
            } else {
                sv.nnz * self.naive_entry_instructions
                    + sv.descriptors * 8.0
                    + sv.updates as f64 * self.update_instructions
            };
            w.l2_bytes = svb_bus + desc_bytes;
            if tex {
                w.tex_bytes = a_bus;
                w.dram_bytes += a_bus * (1.0 - tex_hit);
            } else {
                w.l2_bytes += a_bus;
                w.dram_bytes += a_bus; // A streams; far larger than L2.
            }
            match sk.registers {
                RegisterMode::SharedMem32 => {
                    w.shared_bytes += elems * self.spill_bytes_per_entry;
                }
                RegisterMode::CompilerSpill32 => {
                    w.l2_bytes += elems * self.spill_bytes_per_entry * (1.0 - self.spill_l1_hit);
                }
                RegisterMode::Regs44 => {}
            }
            w.shared_bytes +=
                sv.updates as f64 * sk.threads_per_block as f64 * self.reduction_bytes_per_thread
                    / sk.blocks_per_sv as f64;
            // Error write-back within the SVB: one atomic per sparse
            // entry; conflicts grow as concurrent blocks squeeze into a
            // narrow band (paper Fig. 7a: small SVs contend more).
            w.atomics = sv.nnz;
            w.atomic_conflict = 1.0
                + self.conflict_coeff
                    * (sk.blocks_per_sv as f64 * self.mean_run / sv.band_width.max(1.0));

            // Split the SV's work over its blocks.
            let even = 1.0 / b as f64;
            for i in 0..b {
                let share = if sk.dynamic_voxels {
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
            resources: sk.resources,
            blocks,
            l2_width_factor: l2f * sk.l2_read_factor,
            warp_efficiency: sk.warp_efficiency,
            mem_efficiency: sk.mem_efficiency,
        }
    }

    /// The error write-back kernel: atomically merge every SVB delta
    /// into the global sinogram.
    fn writeback_profile(
        &self,
        tally: &BatchTally,
        l2f: f64,
        nsv: usize,
        num_channels: usize,
    ) -> KernelProfile {
        // Merges parallelize trivially: 8 blocks per SV.
        let blocks = tally
            .svs
            .iter()
            .flat_map(|sv| {
                let entries = sv.svb_bytes / 4.0 / 8.0;
                // Bands of concurrently merging SVs overlap on shared
                // sinogram cells.
                let overlap = (nsv as f64 - 1.0) * sv.band_width / num_channels.max(1) as f64;
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
            resources: BlockResources { threads: 256, regs_per_thread: 24, shared_mem: 0 },
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
    use crate::opts::{AMatrixMode, L2ReadWidth};
    use supervoxel::sweep::SvTally;

    /// Modeled seconds of `tally` under `opts`, unprofiled.
    fn seconds(m: &GpuWorkModel, tally: &BatchTally, opts: &GpuOptions) -> f64 {
        m.batch(&m.skeleton(opts), tally, 1024, None).seconds()
    }

    fn paper_scale_batch(opts: &GpuOptions) -> BatchTally {
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
        BatchTally { svs: vec![per_sv; 32] }
    }

    #[test]
    fn default_batch_lands_near_paper_equit_rate() {
        // ~7 batches per equit at paper scale; the paper's time/equit
        // is 0.07 s, so a batch should cost ~5-20 ms.
        let m = GpuWorkModel::titan_x();
        let opts = GpuOptions::default();
        let ms = seconds(&m, &paper_scale_batch(&opts), &opts) * 1e3;
        assert!((2.0..40.0).contains(&ms), "batch {ms} ms");
    }

    #[test]
    fn chunked_beats_naive() {
        // Fig. 6: the transformed layout wins ~2.1x at width 32.
        let m = GpuWorkModel::titan_x();
        let chunked = GpuOptions::default();
        let naive = GpuOptions { layout: Layout::Naive, ..Default::default() };
        let tc = seconds(&m, &paper_scale_batch(&chunked), &chunked);
        let tn = seconds(&m, &paper_scale_batch(&naive), &naive);
        let speedup = tn / tc;
        assert!((1.2..5.0).contains(&speedup), "speedup {speedup}");
    }

    #[test]
    fn table2_ordering() {
        // (Global,f32) slowest ... (Texture,u8) fastest.
        let m = GpuWorkModel::titan_x();
        let mut times = Vec::new();
        for mode in [
            AMatrixMode::GlobalF32,
            AMatrixMode::TextureF32,
            AMatrixMode::GlobalU8,
            AMatrixMode::TextureU8,
        ] {
            let opts = GpuOptions { amatrix: mode, ..Default::default() };
            times.push(seconds(&m, &paper_scale_batch(&opts), &opts));
        }
        assert!(times[0] > times[1], "tex f32 should beat global f32");
        assert!(times[1] > times[3], "u8 tex should beat f32 tex");
        assert!(times[2] > times[3], "tex u8 should beat global u8");
    }

    #[test]
    fn table3_toggles_all_slow_down() {
        let m = GpuWorkModel::titan_x();
        let base_opts = GpuOptions::default();
        let base = seconds(&m, &paper_scale_batch(&base_opts), &base_opts);
        // Float L2 reads.
        let o1 = GpuOptions { l2_read: L2ReadWidth::Float, ..Default::default() };
        assert!(seconds(&m, &paper_scale_batch(&o1), &o1) > base);
        // Register modes.
        let o2 = GpuOptions { registers: RegisterMode::Regs44, ..Default::default() };
        assert!(seconds(&m, &paper_scale_batch(&o2), &o2) > base);
        let o2b = GpuOptions { registers: RegisterMode::CompilerSpill32, ..Default::default() };
        assert!(seconds(&m, &paper_scale_batch(&o2b), &o2b) > base);
        // Intra-SV parallelism off: one block per SV.
        let o3 = GpuOptions { threadblocks_per_sv: 1, ..Default::default() };
        let t3 = seconds(&m, &paper_scale_batch(&o3), &o3);
        assert!(t3 > 3.0 * base, "intra-SV off only {}x", t3 / base);
        // Static voxel distribution with measured imbalance.
        let o4 = GpuOptions { dynamic_voxels: false, ..Default::default() };
        let mut t = paper_scale_batch(&o4);
        for sv in &mut t.svs {
            sv.max_block_share = 3.0 / o4.threadblocks_per_sv as f64; // skewed
        }
        assert!(seconds(&m, &t, &o4) > base);
    }

    #[test]
    fn l2_pressure_kicks_in_for_huge_svbs() {
        let m = GpuWorkModel::titan_x();
        assert_eq!(m.l2_pressure_factor(1.0e6), 1.0);
        let f10 = m.l2_pressure_factor(10.0e6);
        let f20 = m.l2_pressure_factor(20.0e6);
        assert!(f10 < 1.0);
        assert!(f20 < f10, "pressure must be monotone: {f20} vs {f10}");
    }

    #[test]
    fn compiler_spill_beats_44_regs_slightly() {
        // The paper saw only ~6% improvement from maxrregcount alone.
        let m = GpuWorkModel::titan_x();
        let o44 = GpuOptions { registers: RegisterMode::Regs44, ..Default::default() };
        let ospill = GpuOptions { registers: RegisterMode::CompilerSpill32, ..Default::default() };
        let t44 = seconds(&m, &paper_scale_batch(&o44), &o44);
        let tspill = seconds(&m, &paper_scale_batch(&ospill), &ospill);
        assert!(tspill < t44, "spill {tspill} vs 44regs {t44}");
    }
}
