//! Parallel-beam CT geometry.
//!
//! An X-ray source and detector array rotate around a stationary
//! object. For each of `num_views` uniformly spaced angles in
//! `[0, 180)` degrees, the detector records `num_channels` line
//! integrals. A voxel centered at `(x, y)` projects onto detector
//! coordinate `t = x cos(theta) + y sin(theta)` — this is what produces
//! the sinusoidal sinogram traces of the paper's Fig. 1b.

use serde::{Deserialize, Serialize};

/// A square, origin-centered reconstruction grid of `nx * ny` voxels
/// ("voxel" here is a 2-D slice pixel; the paper reconstructs slices).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ImageGrid {
    /// Number of columns (x direction).
    pub nx: usize,
    /// Number of rows (y direction).
    pub ny: usize,
    /// Voxel side length in millimeters.
    pub pixel_size: f32,
}

impl ImageGrid {
    /// A square grid with `n` voxels per side.
    pub fn square(n: usize, pixel_size: f32) -> Self {
        ImageGrid { nx: n, ny: n, pixel_size }
    }

    /// Total voxel count.
    #[inline]
    pub fn num_voxels(&self) -> usize {
        self.nx * self.ny
    }

    /// x-coordinate (mm) of the center of column `col`.
    #[inline]
    pub fn x_of(&self, col: usize) -> f32 {
        (col as f32 - (self.nx as f32 - 1.0) / 2.0) * self.pixel_size
    }

    /// y-coordinate (mm) of the center of row `row`.
    #[inline]
    pub fn y_of(&self, row: usize) -> f32 {
        (row as f32 - (self.ny as f32 - 1.0) / 2.0) * self.pixel_size
    }

    /// Linear (row-major) index of voxel `(row, col)`.
    #[inline]
    pub fn index(&self, row: usize, col: usize) -> usize {
        debug_assert!(row < self.ny && col < self.nx);
        row * self.nx + col
    }

    /// Inverse of [`ImageGrid::index`].
    #[inline]
    pub fn row_col(&self, idx: usize) -> (usize, usize) {
        (idx / self.nx, idx % self.nx)
    }

    /// Radius (mm) of the circle inscribing the whole grid (half the
    /// diagonal) — the field of view the detector must cover.
    pub fn bounding_radius(&self) -> f32 {
        let hx = self.nx as f32 * self.pixel_size / 2.0;
        let hy = self.ny as f32 * self.pixel_size / 2.0;
        (hx * hx + hy * hy).sqrt()
    }
}

/// Parallel-beam scanner geometry: view angles, detector channels, and
/// the reconstruction grid.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Geometry {
    /// Number of view angles, uniformly spaced over `[0, pi)`.
    pub num_views: usize,
    /// Number of detector channels per view.
    pub num_channels: usize,
    /// Detector channel pitch in millimeters.
    pub channel_spacing: f32,
    /// The reconstruction grid.
    pub grid: ImageGrid,
}

impl Geometry {
    /// Build a geometry, checking that the detector covers the grid's
    /// field of view (otherwise reconstructions are truncated) and that
    /// a voxel's footprint spans no more detector channels than the
    /// system-matrix build handles
    /// ([`SystemMatrix::MAX_CANDIDATES`](crate::sysmat::SystemMatrix::MAX_CANDIDATES)
    /// candidates, which every pixel up to 43 channel spacings wide
    /// meets; every preset has pixel size equal to spacing).
    ///
    /// # Panics
    ///
    /// If either check fails; the footprint message names the pixel
    /// size and the channel spacing.
    pub fn new(
        num_views: usize,
        num_channels: usize,
        channel_spacing: f32,
        grid: ImageGrid,
    ) -> Self {
        let g = Geometry { num_views, num_channels, channel_spacing, grid };
        assert!(num_views > 0 && num_channels > 0);
        assert!(
            g.detector_half_extent() + channel_spacing >= grid.bounding_radius(),
            "detector ({} ch x {} mm) does not cover the grid FOV (radius {} mm)",
            num_channels,
            channel_spacing,
            grid.bounding_radius()
        );
        crate::sysmat::SystemMatrix::checked_candidates(&g);
        g
    }

    /// The paper's evaluation scale: 512x512 image, 720 views over 180
    /// degrees, 1024 channels (ALERT TO3 / Imatron C-300 parameters).
    pub fn paper_scale() -> Self {
        Self::new(720, 1024, 1.0, ImageGrid::square(512, 1.0))
    }

    /// A reduced scale used by the repro harness so full sweeps run in
    /// minutes on a laptop: 256x256, 360 views, 512 channels.
    pub fn harness_scale() -> Self {
        Self::new(360, 512, 1.0, ImageGrid::square(256, 1.0))
    }

    /// A small scale for unit/integration tests: 64x64, 96 views,
    /// 96 channels.
    pub fn test_scale() -> Self {
        Self::new(96, 96, 1.0, ImageGrid::square(64, 1.0))
    }

    /// A tiny scale for property-based tests.
    pub fn tiny_scale() -> Self {
        Self::new(24, 40, 1.0, ImageGrid::square(24, 1.0))
    }

    /// View angle (radians) of view `v`: `v * pi / num_views`.
    #[inline]
    pub fn angle(&self, view: usize) -> f32 {
        view as f32 * std::f32::consts::PI / self.num_views as f32
    }

    /// Detector coordinate (mm) of the center of channel `ch`.
    #[inline]
    pub fn channel_center(&self, ch: usize) -> f32 {
        self.channel_position(ch as f32)
    }

    /// Detector coordinate (mm) of continuous channel coordinate `ch`,
    /// the inverse of [`Geometry::channel_of`]; at a whole channel it is
    /// [`Geometry::channel_center`].
    #[inline]
    pub(crate) fn channel_position(&self, ch: f32) -> f32 {
        (ch - (self.num_channels as f32 - 1.0) / 2.0) * self.channel_spacing
    }

    /// Distance (mm) from detector center to its outer edge.
    pub fn detector_half_extent(&self) -> f32 {
        self.num_channels as f32 * self.channel_spacing / 2.0
    }

    /// Projection of point `(x, y)` at view `v` onto the detector axis.
    #[inline]
    pub fn project_point(&self, view: usize, x: f32, y: f32) -> f32 {
        let th = self.angle(view);
        x * th.cos() + y * th.sin()
    }

    /// Continuous channel coordinate for detector position `t` (mm):
    /// the inverse of [`Geometry::channel_center`].
    #[inline]
    pub fn channel_of(&self, t: f32) -> f32 {
        t / self.channel_spacing + (self.num_channels as f32 - 1.0) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_coordinates_are_centered() {
        let g = ImageGrid::square(4, 2.0);
        // Centers at -3, -1, 1, 3 for pixel_size = 2.
        assert_eq!(g.x_of(0), -3.0);
        assert_eq!(g.x_of(3), 3.0);
        assert_eq!(g.y_of(1), -1.0);
        assert_eq!(g.x_of(0) + g.x_of(3), 0.0);
    }

    #[test]
    fn grid_index_roundtrip() {
        let g = ImageGrid::square(7, 1.0);
        for row in 0..7 {
            for col in 0..7 {
                assert_eq!(g.row_col(g.index(row, col)), (row, col));
            }
        }
    }

    #[test]
    fn angles_cover_half_circle() {
        let g = Geometry::test_scale();
        assert_eq!(g.angle(0), 0.0);
        let last = g.angle(g.num_views - 1);
        assert!(last < std::f32::consts::PI);
        assert!(last > std::f32::consts::PI * 0.9);
    }

    #[test]
    fn channel_center_inverts() {
        let g = Geometry::test_scale();
        for ch in [0usize, 1, 40, 95] {
            let t = g.channel_center(ch);
            assert!((g.channel_of(t) - ch as f32).abs() < 1e-4);
        }
    }

    #[test]
    fn detector_covers_fov_in_presets() {
        for g in [
            Geometry::paper_scale(),
            Geometry::harness_scale(),
            Geometry::test_scale(),
            Geometry::tiny_scale(),
        ] {
            assert!(g.detector_half_extent() + g.channel_spacing >= g.grid.bounding_radius());
        }
    }

    #[test]
    fn projection_of_center_is_zero() {
        let g = Geometry::test_scale();
        for v in 0..g.num_views {
            assert!(g.project_point(v, 0.0, 0.0).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic]
    fn undersized_detector_rejected() {
        Geometry::new(8, 4, 1.0, ImageGrid::square(64, 1.0));
    }
}
