//! CT substrate for the PPoPP 2017 GPU-ICD MBIR reproduction.
//!
//! This crate implements everything the MBIR algorithms sit on top of:
//!
//! - [`geometry`]: parallel-beam scanner geometry (views, channels,
//!   image grid), mirroring the paper's Imatron C-300 setup (720 views
//!   over 180 degrees, 1024 channels, 512x512 image at paper scale).
//! - [`footprint`]: the trapezoid footprint of a square voxel projected
//!   on the detector axis, the standard parallel-beam MBIR forward
//!   model, used to compute system-matrix entries.
//! - [`sysmat`]: the sparse system matrix `A` in the per-voxel column
//!   format the paper describes ("all A-matrix elements, across all
//!   views, placed in memory in a contiguous fashion").
//! - [`image`] / [`sinogram`]: dense 2-D containers for the image `x`
//!   and the measurement/error sinograms `y`, `e`.
//! - [`phantom`]: synthetic scenes (Shepp-Logan, water cylinder, and
//!   sparse "baggage-like" scenes substituting for the gated ALERT TO3
//!   security dataset).
//! - [`project`]: forward projection `y = A x` and the transmission
//!   noise model that yields the inverse-variance weight sinogram `w`.
//! - [`fbp`]: filtered back projection, the direct-method baseline the
//!   paper contrasts MBIR against (also used to initialize MBIR).
//! - [`hu`]: Hounsfield-unit conversions and the RMSE-in-HU convergence
//!   metric used throughout the paper's evaluation.

#![warn(missing_docs)]

pub mod fanbeam;
pub mod fbp;
pub mod footprint;
pub mod geometry;
pub mod hu;
pub mod image;
pub mod io;
pub mod metrics;
pub mod phantom;
pub mod project;
pub mod sinogram;
pub mod sysmat;
pub mod volume;

pub use fanbeam::{fan_forward, rebin_to_parallel, FanGeometry};
pub use footprint::Trapezoid;
pub use geometry::{Geometry, ImageGrid};
pub use image::{Image, SharedImage};
pub use phantom::Phantom;
pub use sinogram::Sinogram;
pub use sysmat::{ColumnView, SystemMatrix};
pub use volume::{NeighborClass, Volume};

/// `n` values that bit-exact kernels must carry through unchanged:
/// exact zeros, `-0.0`, subnormals of both signs and values in
/// `[-2, 2]`, drawn from a seeded xorshift.
#[cfg(test)]
pub(crate) fn awkward_values(seed: u64, n: usize) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            match s % 8 {
                0 => 0.0,
                1 => -0.0,
                2 => f32::from_bits((s >> 8) as u32 & 0x007f_ffff),
                3 => -f32::from_bits((s >> 8) as u32 & 0x007f_ffff),
                _ => ((s >> 16) % 4001) as f32 / 1000.0 - 2.0,
            }
        })
        .collect()
}
