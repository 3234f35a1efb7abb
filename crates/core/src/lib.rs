//! GPU-ICD — the paper's contribution (PPoPP 2017, Algorithm 3): the
//! first GPU algorithm for ICD-based MBIR.
//!
//! GPU-ICD exploits all three levels of MBIR parallelism:
//!
//! 1. **intra-voxel** — the `theta1`/`theta2` dot products of a voxel
//!    update are reduced across the threads of one threadblock;
//! 2. **intra-SV** — multiple threadblocks per SuperVoxel update
//!    different voxels of the SV concurrently, pulling voxels from a
//!    dynamic (atomic-counter) queue and writing the error SVB with
//!    atomics;
//! 3. **inter-SV** — many SVs run per kernel batch, restricted to one
//!    checkerboard group so concurrent SVs never share boundary voxels.
//!
//! Plus the Section 4 optimizations: the transposed/zero-padded
//! SVB + chunked A-matrix layout for coalescing, register spilling to
//! shared memory for occupancy, `u8` A-matrix compression read through
//! the texture cache, and `double`-width L2 reads.
//!
//! Execution here is **functionally exact and deterministic**: the
//! concurrent schedule is emulated in rounds (all in-flight voxel
//! updates read the same SVB state, then commit), which reproduces the
//! convergence drag of intra-SV parallelism the paper reports. All
//! *performance* comes from the [`gpu_sim`] timing model fed by the
//! work tallies of the functional run.
//!
//! - [`opts`]: every tuning parameter and optimization toggle of the
//!   paper's Section 5 (Tables 2-3, Figs. 6-7).
//! - [`driver`]: Algorithm 3 — selection, checkerboarding, batching,
//!   the three kernels per batch (SVB create, MBIR update, error
//!   write-back).
//! - [`tally`]: work counters collected during functional execution.
//! - [`model`]: turning tallies into [`gpu_sim::KernelProfile`]s.
//! - [`fleet`]: sharding batches across `opts.devices` simulated
//!   devices (timing only — functional results never change).
//! - [`kernels`]: the MBIR kernel expressed in the `gpu-sim` warp IR,
//!   used to cross-validate the analytic model against a trace-driven
//!   execution.
//! - [`args`]: the scale presets and the strict command-line parser
//!   every binary shares.

#![warn(missing_docs)]

pub mod args;
pub mod checkpoint;
pub mod driver;
pub mod error;
pub mod fleet;
pub mod kernels;
pub mod model;
pub mod opts;
pub mod tally;

pub use args::{gpu_options_for, Args, Scale};
pub use checkpoint::Checkpoint;
pub use driver::{plan_config, BoundaryAction, GpuIcd, GpuIterationReport};
pub use error::MbirError;
pub use fleet::FleetState;
pub use model::{GpuWorkModel, ProfileSkeleton};
pub use opts::{AMatrixMode, GpuOptions, L2ReadWidth, Layout, RegisterMode};
pub use tally::{BatchTally, SvTally};
