//! GPU-ICD tuning parameters and optimization toggles.
//!
//! Defaults are the paper's tuned configuration (Table 1: SV side 33,
//! chunk width 32, 40 threadblocks per SV, 32 SVs per batch, 25% SV
//! fraction; Sections 4.2-4.3: shared-memory register spilling, u8
//! A-matrix via texture, double-width L2 reads). Zero-skipping and
//! positivity are always on, as in the paper's Algorithms 1-3.

use crate::error::MbirError;
use gpu_sim::GpuSpec;
use serde::{Deserialize, Serialize};
use std::fmt::Display;

/// Data layout used by the MBIR kernel (paper Section 4.1 / Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Layout {
    /// Sensor-major SVB and per-view sparse A runs — uncoalesced.
    Naive,
    /// Transposed, zero-padded SVB with chunked zero-padded A.
    Chunked {
        /// Chunk width in channels (32 is the paper's optimum).
        width: u32,
    },
}

/// Where the A-matrix is read from and at what precision
/// (paper Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AMatrixMode {
    /// Global memory, 4-byte floats.
    GlobalF32,
    /// Texture (unified L1) path, 4-byte floats.
    TextureF32,
    /// Global memory, quantized bytes.
    GlobalU8,
    /// Texture path, quantized bytes — the paper's best (Table 2).
    TextureU8,
}

impl AMatrixMode {
    /// Bytes per A entry in this mode.
    pub fn bytes_per_entry(self) -> f64 {
        match self {
            AMatrixMode::GlobalF32 | AMatrixMode::TextureF32 => 4.0,
            AMatrixMode::GlobalU8 | AMatrixMode::TextureU8 => 1.0,
        }
    }

    /// Whether reads go through the texture/L1 path.
    pub fn uses_texture(self) -> bool {
        matches!(self, AMatrixMode::TextureF32 | AMatrixMode::TextureU8)
    }

    /// Whether entries are quantized to u8 (affects numerics).
    pub fn quantized(self) -> bool {
        matches!(self, AMatrixMode::GlobalU8 | AMatrixMode::TextureU8)
    }
}

/// Width of SVB reads through L2 (paper Section 4.3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum L2ReadWidth {
    /// 32-bit accesses: ~50% of peak L2 bandwidth.
    Float,
    /// 64-bit accesses: full achievable L2 bandwidth.
    Double,
}

/// Register budget strategy of the MBIR kernel (paper Section 4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RegisterMode {
    /// Natural allocation: 44 registers/thread, occupancy-limited.
    Regs44,
    /// `maxrregcount 32`: compiler spills to L1/L2 (poor hit rate).
    CompilerSpill32,
    /// Manual placement of spilled locals in shared memory — the
    /// paper's choice.
    SharedMem32,
}

impl RegisterMode {
    /// Registers per thread under this mode.
    pub fn regs_per_thread(self) -> u32 {
        match self {
            RegisterMode::Regs44 => 44,
            _ => 32,
        }
    }
}

/// The full GPU-ICD configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpuOptions {
    /// SuperVoxel side (Fig. 7a; 33 tuned).
    pub sv_side: usize,
    /// Fraction of SVs updated per iteration (25%).
    pub fraction: f32,
    /// Threadblocks per SV = intra-SV parallelism degree (Fig. 7b);
    /// 1 turns intra-SV parallelism off (Table 3 row 3).
    pub threadblocks_per_sv: u32,
    /// Threads per threadblock = intra-voxel parallelism (Fig. 7c).
    pub threads_per_block: u32,
    /// Max SVs per kernel batch (Fig. 7d); at least 1.
    pub svs_per_batch: usize,
    /// Skip batches smaller than `svs_per_batch / 4` (Table 3 row 5).
    pub batch_threshold: bool,
    /// Dynamic (atomic-queue) voxel distribution across blocks
    /// (Table 3 row 4); `false` = static partitioning.
    pub dynamic_voxels: bool,
    /// Partition concurrent SVs into the four checkerboard groups
    /// (paper Fig. 3). `false` lets adjacent SVs share a batch — the
    /// boundary-voxel corruption the checkerboard exists to prevent
    /// (ablation only).
    pub checkerboard: bool,
    /// Data layout (Fig. 6).
    pub layout: Layout,
    /// A-matrix storage (Table 2).
    pub amatrix: AMatrixMode,
    /// Quantization bit width used when `amatrix` is a quantized mode
    /// (8 = the paper's u8; the bit-width ablation sweeps lower).
    pub amatrix_bits: u32,
    /// SVB read width through L2 (Table 3 row 1).
    pub l2_read: L2ReadWidth,
    /// Register strategy (Table 3 row 2).
    pub registers: RegisterMode,
    /// Host worker threads for per-SV batch execution (wall-clock
    /// only — results and modeled GPU seconds are bitwise identical at
    /// any value). 0 defers to the process-wide setting
    /// (`mbir_parallel::threads()`).
    pub threads: usize,
    /// Simulated devices the SV set is sharded across. Every count runs
    /// one pricing path; 1 is a fleet of one, whose loads, halos and
    /// exchanges are exact zeros. Functional results are bitwise
    /// identical at any count — only the modeled timeline changes,
    /// which above 1 prices per-device kernel spans plus the
    /// inter-device exchanges.
    pub devices: usize,
    /// RNG seed (voxel orders, random SV selection).
    pub seed: u64,
}

impl Default for GpuOptions {
    fn default() -> Self {
        GpuOptions {
            sv_side: 33,
            fraction: 0.25,
            threadblocks_per_sv: 40,
            threads_per_block: 256,
            svs_per_batch: 32,
            batch_threshold: true,
            dynamic_voxels: true,
            checkerboard: true,
            layout: Layout::Chunked { width: 32 },
            amatrix: AMatrixMode::TextureU8,
            amatrix_bits: 8,
            l2_read: L2ReadWidth::Double,
            registers: RegisterMode::SharedMem32,
            threads: 0,
            devices: 1,
            seed: 0,
        }
    }
}

/// A [`MbirError::Usage`] naming `field` and its `range` unless `ok`.
pub(crate) fn check(
    ok: bool,
    field: &str,
    range: &str,
    got: impl Display,
) -> Result<(), MbirError> {
    if ok {
        Ok(())
    } else {
        Err(MbirError::Usage(format!("{field} must be {range}, got {got}")))
    }
}

impl GpuOptions {
    /// Check every field against the range the driver runs, naming the
    /// first one outside it. [`crate::pipeline::Reconstructor::run`]
    /// returns this error before building anything, and
    /// [`crate::GpuIcd::with_plan`] panics with its message.
    pub fn validate(&self) -> Result<(), MbirError> {
        let max_threads = GpuSpec::titan_x_maxwell().max_threads_per_block;
        let (sv, f) = (self.sv_side, self.fraction);
        check(sv >= 2, "sv_side", "at least 2", sv)?;
        check(f.is_finite() && f > 0.0 && f <= 1.0, "fraction", "finite and in (0, 1]", f)?;
        let tb = self.threadblocks_per_sv;
        check(tb >= 1, "threadblocks_per_sv", "at least 1", tb)?;
        let tpb = self.threads_per_block;
        let threads = format!("in 1..={max_threads}");
        check((1..=max_threads).contains(&tpb), "threads_per_block", &threads, tpb)?;
        check(self.svs_per_batch >= 1, "svs_per_batch", "at least 1", self.svs_per_batch)?;
        if let Layout::Chunked { width } = self.layout {
            check(width >= 1, "layout chunk width", "at least 1", width)?;
        }
        check((1..=8).contains(&self.amatrix_bits), "amatrix_bits", "in 1..=8", self.amatrix_bits)?;
        check(self.devices >= 1, "devices", "at least 1", self.devices)
    }

    /// The minimum batch size launched when the threshold is on.
    pub fn batch_threshold_count(&self) -> usize {
        if self.batch_threshold {
            self.svs_per_batch / 4
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_table1() {
        let o = GpuOptions::default();
        assert_eq!(o.sv_side, 33);
        assert_eq!(o.threadblocks_per_sv, 40);
        assert_eq!(o.svs_per_batch, 32);
        assert_eq!(o.fraction, 0.25);
        assert_eq!(o.layout, Layout::Chunked { width: 32 });
        assert_eq!(o.amatrix, AMatrixMode::TextureU8);
        assert_eq!(o.registers.regs_per_thread(), 32);
        assert_eq!(o.batch_threshold_count(), 8);
    }

    #[test]
    fn the_defaults_and_every_preset_validate() {
        use crate::Scale;
        GpuOptions::default().validate().expect("defaults are in range");
        for scale in [Scale::Tiny, Scale::Test, Scale::Harness, Scale::Paper] {
            crate::gpu_options_for(scale).validate().expect("presets are in range");
        }
        let edges = GpuOptions {
            sv_side: 2,
            fraction: 1.0,
            threadblocks_per_sv: 1,
            threads_per_block: 1024,
            svs_per_batch: 1,
            layout: Layout::Chunked { width: 1 },
            amatrix_bits: 1,
            devices: 1,
            ..Default::default()
        };
        edges.validate().expect("every range is inclusive at its edges");
    }

    #[test]
    fn amatrix_mode_properties() {
        assert_eq!(AMatrixMode::TextureU8.bytes_per_entry(), 1.0);
        assert_eq!(AMatrixMode::GlobalF32.bytes_per_entry(), 4.0);
        assert!(AMatrixMode::TextureF32.uses_texture());
        assert!(!AMatrixMode::GlobalU8.uses_texture());
        assert!(AMatrixMode::GlobalU8.quantized());
        assert!(!AMatrixMode::TextureF32.quantized());
    }

    #[test]
    fn register_modes() {
        assert_eq!(RegisterMode::Regs44.regs_per_thread(), 44);
        assert_eq!(RegisterMode::CompilerSpill32.regs_per_thread(), 32);
        assert_eq!(RegisterMode::SharedMem32.regs_per_thread(), 32);
    }
}
