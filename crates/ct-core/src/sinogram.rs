//! Dense sinogram container (`y`, the error sinogram `e`, and the
//! weight sinogram `w`), stored view-major: row = view, column =
//! detector channel. This matches the paper's Fig. 1b, where each view
//! angle contributes one column/row of measurements and a voxel's data
//! traces a sinusoid across views.

use crate::geometry::Geometry;
use serde::{Deserialize, Serialize};

/// A `num_views x num_channels` array of measurements.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sinogram {
    num_views: usize,
    num_channels: usize,
    data: Vec<f32>,
}

impl Sinogram {
    /// All-zero sinogram shaped for `geom`.
    pub fn zeros(geom: &Geometry) -> Self {
        Sinogram {
            num_views: geom.num_views,
            num_channels: geom.num_channels,
            data: vec![0.0; geom.num_views * geom.num_channels],
        }
    }

    /// All-`v` sinogram shaped for `geom`.
    pub fn filled(geom: &Geometry, v: f32) -> Self {
        Sinogram {
            num_views: geom.num_views,
            num_channels: geom.num_channels,
            data: vec![v; geom.num_views * geom.num_channels],
        }
    }

    /// Wrap existing view-major data.
    pub fn from_vec(num_views: usize, num_channels: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), num_views * num_channels);
        Sinogram { num_views, num_channels, data }
    }

    /// Number of views (rows).
    #[inline]
    pub fn num_views(&self) -> usize {
        self.num_views
    }

    /// Number of channels (columns).
    #[inline]
    pub fn num_channels(&self) -> usize {
        self.num_channels
    }

    /// Linear index of `(view, channel)`.
    #[inline]
    pub fn index(&self, view: usize, ch: usize) -> usize {
        debug_assert!(view < self.num_views && ch < self.num_channels);
        view * self.num_channels + ch
    }

    /// Value at `(view, channel)`.
    #[inline]
    pub fn at(&self, view: usize, ch: usize) -> f32 {
        self.data[self.index(view, ch)]
    }

    /// Mutable value at `(view, channel)`.
    #[inline]
    pub fn at_mut(&mut self, view: usize, ch: usize) -> &mut f32 {
        let i = self.index(view, ch);
        &mut self.data[i]
    }

    /// One view's row of channels.
    #[inline]
    pub fn view(&self, view: usize) -> &[f32] {
        &self.data[view * self.num_channels..(view + 1) * self.num_channels]
    }

    /// One view's row of channels, mutable.
    #[inline]
    pub fn view_mut(&mut self, view: usize) -> &mut [f32] {
        &mut self.data[view * self.num_channels..(view + 1) * self.num_channels]
    }

    /// Raw view-major data.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Raw view-major data, mutable.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Root-mean-square of all entries (used to track `||e||`).
    pub fn rms(&self) -> f32 {
        let n = self.data.len() as f64;
        let ss: f64 = self.data.iter().map(|&v| (v as f64) * (v as f64)).sum();
        ((ss / n) as f32).sqrt()
    }

    /// Elementwise `self - other`.
    pub fn sub(&self, other: &Sinogram) -> Sinogram {
        assert_eq!(self.num_views, other.num_views);
        assert_eq!(self.num_channels, other.num_channels);
        let data = self.data.iter().zip(&other.data).map(|(&a, &b)| a - b).collect();
        Sinogram { num_views: self.num_views, num_channels: self.num_channels, data }
    }

    /// Largest absolute entry.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }

    /// Panic unless this sinogram is shaped for `geom`, naming it
    /// `what` and both shapes. Element-wise sinogram arithmetic zips
    /// without a length check, so a mis-shaped input would otherwise be
    /// accepted silently.
    pub fn assert_shaped_for(&self, geom: &Geometry, what: &str) {
        assert!(
            self.num_views == geom.num_views && self.num_channels == geom.num_channels,
            "{what} is {}x{} (views x channels), but the geometry is {}x{}",
            self.num_views,
            self.num_channels,
            geom.num_views,
            geom.num_channels
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> Geometry {
        Geometry::tiny_scale()
    }

    #[test]
    fn shape_and_indexing() {
        let g = geom();
        let mut s = Sinogram::zeros(&g);
        assert_eq!(s.num_views(), g.num_views);
        assert_eq!(s.num_channels(), g.num_channels);
        *s.at_mut(3, 7) = 2.5;
        assert_eq!(s.at(3, 7), 2.5);
        assert_eq!(s.view(3)[7], 2.5);
    }

    #[test]
    fn view_rows_are_contiguous() {
        let g = geom();
        let mut s = Sinogram::zeros(&g);
        s.view_mut(1).fill(1.0);
        assert!(s.view(1).iter().all(|&v| v == 1.0));
        assert!(s.view(0).iter().all(|&v| v == 0.0));
        assert_eq!(s.data()[g.num_channels], 1.0);
    }

    #[test]
    fn rms_and_sub() {
        let g = geom();
        let a = Sinogram::filled(&g, 3.0);
        let b = Sinogram::filled(&g, 1.0);
        let d = a.sub(&b);
        assert!((d.rms() - 2.0).abs() < 1e-6);
        assert_eq!(d.max_abs(), 2.0);
    }
}
