//! Scan simulation: forward projection plus the transmission noise
//! model that produces the weight sinogram `w`.
//!
//! In transmission CT the detector counts photons `I = I0 exp(-y)`
//! where `y` is the line integral. The log-domain measurement
//! `yhat = -ln(I / I0)` then has variance approximately
//! `exp(y) / I0`, so MBIR weights each ray by the inverse variance
//! `w = I0 exp(-y)` — the paper's "weighting matrix contains the
//! inverse variance of the scanner noise". Weights are kept
//! *unnormalized* (they carry the photon-count scale) so the
//! data/prior balance of the MAP cost is statistically meaningful;
//! noiseless scans use unit weights.

use crate::image::Image;
use crate::sinogram::Sinogram;
use crate::sysmat::SystemMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Photon-count noise model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    /// Unattenuated photon count per ray; higher is cleaner.
    pub i0: f32,
}

impl NoiseModel {
    /// A dose typical of the security scans the paper evaluates.
    pub fn default_dose() -> Self {
        NoiseModel { i0: 2.0e4 }
    }
}

/// A simulated acquisition: the measurement sinogram, the inverse
/// variance weights, and the ground-truth image it came from.
#[derive(Debug, Clone)]
pub struct Scan {
    /// Measured (noisy) line integrals `y`.
    pub y: Sinogram,
    /// Inverse-variance weights `w = i0·exp(-l)` of the noiseless line
    /// integrals `l` (all 1 for a noiseless scan).
    pub weights: Sinogram,
    /// The image the measurement was generated from.
    pub ground_truth: Image,
}

/// Simulate a scan of `truth` through `a`, optionally adding
/// transmission noise (Gaussian approximation of the photon
/// statistics). `seed` makes the scan deterministic.
pub fn scan(a: &SystemMatrix, truth: &Image, noise: Option<NoiseModel>, seed: u64) -> Scan {
    let clean = a.forward(truth);
    let mut y = clean.clone();
    let mut weights = Sinogram::filled(a.geometry(), 1.0);
    if let Some(nm) = noise {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = y.data().len();
        for i in 0..n {
            let line = clean.data()[i];
            let sigma = (line.exp() / nm.i0).sqrt();
            y.data_mut()[i] = line + sigma * standard_normal(&mut rng);
            // Inverse variance of the log-domain measurement.
            weights.data_mut()[i] = nm.i0 * (-line).exp();
        }
    }
    Scan { y, weights, ground_truth: truth.clone() }
}

/// One standard normal sample via Box-Muller (rand 0.9 ships no
/// distributions; this avoids an extra dependency).
pub fn standard_normal<R: Rng>(rng: &mut R) -> f32 {
    let u1: f32 = rng.random_range(f32::EPSILON..1.0);
    let u2: f32 = rng.random_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Geometry;
    use crate::phantom::Phantom;

    #[test]
    fn noiseless_scan_matches_forward() {
        let g = Geometry::tiny_scale();
        let a = SystemMatrix::compute(&g);
        let img = Phantom::water_cylinder(0.5).render(g.grid, 1);
        let s = scan(&a, &img, None, 0);
        assert_eq!(s.y, a.forward(&img));
        assert!(s.weights.data().iter().all(|&w| w == 1.0));
    }

    #[test]
    fn noise_is_deterministic_by_seed() {
        let g = Geometry::tiny_scale();
        let a = SystemMatrix::compute(&g);
        let img = Phantom::water_cylinder(0.5).render(g.grid, 1);
        let s1 = scan(&a, &img, Some(NoiseModel::default_dose()), 42);
        let s2 = scan(&a, &img, Some(NoiseModel::default_dose()), 42);
        let s3 = scan(&a, &img, Some(NoiseModel::default_dose()), 43);
        assert_eq!(s1.y, s2.y);
        assert!(s1.y != s3.y);
    }

    #[test]
    fn weights_decrease_with_attenuation() {
        let g = Geometry::tiny_scale();
        let a = SystemMatrix::compute(&g);
        let img = Phantom::water_cylinder(0.8).render(g.grid, 1);
        let s = scan(&a, &img, Some(NoiseModel::default_dose()), 0);
        // The central channel at view 0 passes through the cylinder;
        // an edge channel misses it.
        let center = s.weights.at(0, g.num_channels / 2);
        let edge = s.weights.at(0, 0);
        assert!(center < edge);
        // An unattenuated ray carries the full photon count as weight.
        let nm = NoiseModel::default_dose();
        assert!((edge - nm.i0).abs() / nm.i0 < 1e-5);
        assert!(s.weights.data().iter().all(|&w| w > 0.0 && w <= nm.i0 * 1.0001));
    }

    #[test]
    fn noise_magnitude_tracks_dose() {
        let g = Geometry::tiny_scale();
        let a = SystemMatrix::compute(&g);
        let img = Phantom::water_cylinder(0.5).render(g.grid, 1);
        let clean = a.forward(&img);
        let hi = scan(&a, &img, Some(NoiseModel { i0: 1.0e6 }), 1);
        let lo = scan(&a, &img, Some(NoiseModel { i0: 1.0e2 }), 1);
        let err_hi = hi.y.sub(&clean).rms();
        let err_lo = lo.y.sub(&clean).rms();
        assert!(err_hi < err_lo, "hi-dose {err_hi} vs lo-dose {err_lo}");
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(9);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean: f32 = samples.iter().sum::<f32>() / n as f32;
        let var: f32 = samples.iter().map(|&s| (s - mean) * (s - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
