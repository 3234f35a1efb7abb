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
//! concurrent schedule is emulated by a fixed window of voxel updates
//! in flight (a voxel's theta pass misses the commits still pending),
//! which reproduces the convergence drag of intra-SV parallelism the
//! paper reports. All *performance* comes from the [`gpu_sim`] timing
//! model fed by the work tallies of the functional run.
//!
//! - [`opts`]: every tuning parameter and optimization toggle of the
//!   paper's Section 5 (Tables 2-3, Figs. 6-7).
//! - [`driver`]: Algorithm 3 — selection, checkerboarding, batching,
//!   the three kernels per batch (SVB create, MBIR update, error
//!   write-back), fleet wiring, and checkpoint plumbing. Its MBIR
//!   update kernel is `supervoxel::sweep`, the SV update PSV-ICD
//!   runs too, with about `threadblocks_per_sv / 2` voxel updates in
//!   flight.
//! - [`model`]: the one pricer of a run, turning the sweep's per-SV
//!   work tallies into [`gpu_sim::KernelProfile`]s and modeled seconds.
//! - [`fleet`]: the run's one pricing path, which owns the model and
//!   shards batches across `opts.devices` simulated devices (timing
//!   only — functional results never change).
//! - [`kernels`]: the MBIR kernel expressed in the `gpu-sim` warp IR,
//!   used to cross-validate the analytic model against a trace-driven
//!   execution.
//! - [`args`]: the scale presets and the strict command-line parser
//!   every binary shares.
//! - [`pipeline`]: the one place every front end sets a scan up — the
//!   shared system matrix and plans, the weights, the FBP start, the
//!   golden image and every driver — plus the `Reconstructor` facade.

#![warn(missing_docs)]

pub mod args;
pub mod checkpoint;
pub mod driver;
pub mod error;
pub mod fleet;
pub mod kernels;
pub mod model;
pub mod opts;
pub mod pipeline;

pub use args::{gpu_options_for, psv_options_for, Args, Scale};
pub use checkpoint::Checkpoint;
pub use driver::{plan_config, GpuIcd, GpuIterationReport};
pub use error::MbirError;
pub use fleet::FleetState;
pub use mbir::stopping::BoundaryAction;
pub use model::GpuWorkModel;
pub use opts::{AMatrixMode, GpuOptions, L2ReadWidth, Layout, RegisterMode};
