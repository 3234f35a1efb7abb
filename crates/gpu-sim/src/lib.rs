//! A simulated Maxwell-class GPU.
//!
//! No GPU is attached to this machine (and Rust GPU kernel crates are
//! immature), so GPU-ICD runs against this transaction-level model of
//! an NVIDIA Titan X (Maxwell) — the hardware the paper evaluates on.
//! The model covers exactly the mechanisms the paper's results hinge
//! on:
//!
//! - [`spec`]: the machine description (24 SMMs x 128 cores @ 1127 MHz,
//!   96 KB shared memory and 64 K registers per SMM, 24 KB unified
//!   L1/texture cache, 3 MB L2, 336 GB/s DRAM).
//! - [`occupancy`](mod@occupancy): the CUDA occupancy calculation — how threads per
//!   block, registers per thread, and shared memory per block bound the
//!   number of resident warps (paper Section 4.2).
//! - [`coalesce`]: warp-level memory coalescing — how many 32-byte
//!   sectors a warp's 32 lane addresses touch (paper Section 4.1).
//! - [`cache`]: trace-driven set-associative LRU cache simulation used
//!   for the unified L1/texture path and L2 studies (paper Table 2).
//! - [`exec`]: block scheduling across SMMs and makespan under
//!   occupancy-limited concurrency (load imbalance: dynamic voxel
//!   distribution, batch thresholds — paper Table 3), a greedy list
//!   schedule kept in a binary heap of slots.
//! - [`timing`]: the kernel time roll-up from work/traffic tallies,
//!   with the latency-hiding-vs-occupancy factor and per-level
//!   achievable bandwidths (paper Section 5's bandwidth accounting).
//!
//! Functional reconstruction results never come from this crate — the
//! algorithms compute real voxel updates; this crate turns their
//! operation tallies into modeled execution times and bandwidth/hit
//! statistics.

#![warn(missing_docs)]

pub mod cache;
pub mod coalesce;
pub mod exec;
pub mod kernel;
pub mod occupancy;
pub mod spec;
pub mod timing;

pub use cache::{Cache, CacheConfig, CacheStats};
pub use coalesce::{affine_transactions, transactions};
pub use exec::{makespan, Dispatcher};
pub use kernel::{AddrPattern, Op, Space, TraceExecutor, TraceResult, WarpProgram};
pub use occupancy::{occupancy, BlockResources, Occupancy};
pub use spec::GpuSpec;
pub use timing::{KernelProfile, KernelTiming, TimingModel};
