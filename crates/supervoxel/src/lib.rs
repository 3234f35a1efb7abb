//! SuperVoxel machinery (PPoPP 2016's PSV-ICD data structures, plus the
//! GPU-oriented transformations of the PPoPP 2017 paper's Section 4).
//!
//! - [`tiling`]: partition the image into square SuperVoxels (SVs) with
//!   shared boundary voxels, and map voxels to SVs.
//! - [`svb`]: SuperVoxel buffers (SVBs) — per-SV packed copies of the
//!   error and weight sinogram bands, with gather/scatter against the
//!   global sinogram. The transposed, zero-padded layout of paper
//!   Fig. 4b is priced for the modeled GPU by the plan, not allocated.
//! - [`chunks`]: the per-voxel chunk decomposition of the transformed
//!   layout (rectangular `(views x chunk_width)` blocks with zero-padded
//!   A-matrix chunks) that produces coalesced accesses.
//! - [`quant`]: the paper's Section 4.3.1 A-matrix compression to
//!   `u8` with a per-voxel normalization scale.
//! - [`checkerboard`]: the 4-group checkerboard partition that keeps
//!   concurrently updated SVs from sharing boundary voxels.
//! - [`selection`]: the per-iteration SV working-set policies (all /
//!   top-f% by update amount / random f%).
//! - [`plan`]: geometry-invariant per-SV plans — shapes, chunk
//!   tallies, quantized columns and band offsets computed once per
//!   geometry and shared across iterations and scans.
//! - [`lanes`]: the per-element band offsets a voxel visit gathers
//!   through.
//! - [`sweep`]: the one SV update of PSV-ICD and GPU-ICD — a batch of
//!   SVs gathered from one error-sinogram snapshot, each visited at
//!   the driver's in-flight depth, their deltas scattered in batch
//!   order.

#![warn(missing_docs)]

pub mod checkerboard;
pub mod chunks;
pub mod lanes;
pub mod plan;
pub mod quant;
pub mod selection;
pub mod svb;
pub mod sweep;
pub mod tiling;

pub use checkerboard::checkerboard_groups;
pub use chunks::{chunk_column, chunk_tally, Chunk, PaddedColumn};
pub use plan::{PlanConfig, SvPlan, SvPlanSet, VoxelPlan};
pub use quant::QuantizedColumn;
pub use selection::{select_svs, Selection};
pub use svb::{Svb, SvbShape};
pub use sweep::{SvTally, Visit};
pub use tiling::{SuperVoxel, Tiling};
