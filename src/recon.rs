//! High-level reconstruction facade: one builder call from sinogram to
//! image, at the same presets `mbirctl` uses. It lives with the rest of
//! the set-up in [`gpu_icd::pipeline`]; this module re-exports it.
//!
//! ```no_run
//! use mbir_gpu_repro::recon::Reconstructor;
//! use mbir_gpu_repro::ct_core::{Geometry, Sinogram};
//!
//! let geom = Geometry::test_scale();
//! # let y = Sinogram::zeros(&geom);
//! let result = Reconstructor::new(geom)
//!     .algorithm(mbir_gpu_repro::recon::Algorithm::GpuIcd)
//!     .dose(2.0e4)
//!     .run(&y)?;
//! println!("done in {:.2} ms (modeled)", result.modeled_seconds * 1e3);
//! # Ok::<(), mbir_gpu_repro::gpu_icd::MbirError>(())
//! ```

pub use gpu_icd::pipeline::*;
