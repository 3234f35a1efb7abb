//! MBIR core: the statistical reconstruction machinery shared by the
//! sequential ICD baseline, PSV-ICD (CPU), and GPU-ICD.
//!
//! MBIR reconstructs `x` by minimizing the MAP cost
//!
//! ```text
//! f(x) = 1/2 ||y - A x||^2_W  +  sum_{cliques {i,j}} b_ij rho(x_i - x_j)
//! ```
//!
//! with Iterative Coordinate Descent: voxels are visited one at a time
//! and each visit solves the 1-D minimization in that voxel exactly
//! (to surrogate precision), maintaining the error sinogram
//! `e = y - A x` incrementally (the paper's Algorithm 1).
//!
//! - [`prior`]: the q-generalized Gaussian MRF (qGGMRF) and quadratic
//!   MRF priors with their half-quadratic surrogate solves.
//! - [`update`]: `theta1`/`theta2` accumulation and the single-voxel
//!   update, generic over where the error/weight data lives (the full
//!   sinogram here; SuperVoxel buffers in the `supervoxel` crate).
//! - [`sequential`]: the sequential ICD driver (random visit order,
//!   zero-skipping, equit accounting) used to produce golden images.
//! - [`convergence`]: cost evaluation and RMSE-in-HU tracking.
//! - [`stopping`]: the stop rules and [`stopping::run`], the one loop
//!   every 2-D ICD driver runs to its stop through.

#![warn(missing_docs)]

pub mod convergence;
pub mod nhicd;
pub mod prior;
pub mod sequential;
pub mod stopping;
pub mod update;
pub mod volume_icd;

pub use convergence::{cost, ConvergenceTrace};
pub use nhicd::NhIcd;
pub use prior::{Prior, QggmrfPrior, QuadraticPrior};
pub use sequential::{IcdStats, SequentialIcd};
pub use stopping::{StopRule, StopState};
pub use update::{
    apply_delta, compute_thetas, update_voxel, zero_skippable, SinogramPair, Thetas, WeightedError,
};
pub use volume_icd::VolumeIcd;
