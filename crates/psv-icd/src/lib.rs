//! PSV-ICD — the state-of-the-art multi-core CPU MBIR algorithm
//! (PPoPP 2016), the baseline the paper's GPU-ICD is compared against
//! (its Algorithm 2).
//!
//! Per outer iteration, a fraction of SuperVoxels is selected
//! (all / top-20% by update amount / random 20%), each selected SV's
//! sinogram band is copied into a private SuperVoxel buffer, the SV's
//! voxels are updated sequentially against the buffer, and the buffer
//! delta is merged back into the global error sinogram under a lock.
//!
//! - [`driver`]: the algorithm, executed with real threads. One
//!   deliberate deviation from the 2016 paper, documented in
//!   DESIGN.md: SVs run in checkerboard groups so concurrently updated
//!   SVs never share boundary voxels — Rust's aliasing rules reject
//!   PSV-ICD's "rare benign race" on boundary voxels, and the paper
//!   itself calls the collision probability negligible at CPU
//!   concurrency levels. Each group is one `supervoxel::sweep`, the SV
//!   update GPU-ICD runs too, here with no voxel update in flight: each
//!   SV's voxels are updated one at a time (sequential Gauss-Seidel).
//! - [`cpu_model`]: the analytic 16-core Xeon timing model used to
//!   report paper-comparable execution times (a host's few cores
//!   cannot show 16-core scaling; see DESIGN.md's substitution table).

#![warn(missing_docs)]

pub mod cpu_model;
pub mod driver;

pub use cpu_model::{CpuModel, CpuSpec, SvWork};
pub use driver::{psv_plan_config, PsvConfig, PsvIcd, PsvIterationReport};
