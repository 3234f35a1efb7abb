//! Synthetic phantoms.
//!
//! The paper's evaluation uses 3200 baggage scans from the DHS ALERT
//! Task Order 3 dataset, which is access-gated. We substitute synthetic
//! scenes that preserve the properties the algorithms are sensitive to:
//! a mostly-air image (high zero-skipping rate), compact objects of
//! varying density, and the standard parallel-beam acquisition. Scenes
//! are built from rotated ellipses and rectangles in a normalized
//! `[-1, 1]` coordinate frame over the grid's half-extent.

use crate::geometry::ImageGrid;
use crate::image::Image;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Linear attenuation of water (1/mm) used for Hounsfield scaling.
pub const MU_WATER: f32 = 0.02;

/// A primitive shape contributing additively to the phantom.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// Rotated ellipse.
    Ellipse {
        /// Center x (normalized).
        cx: f32,
        /// Center y (normalized).
        cy: f32,
        /// Semi-axis along the unrotated x direction.
        a: f32,
        /// Semi-axis along the unrotated y direction.
        b: f32,
        /// Rotation, radians.
        phi: f32,
        /// Additive attenuation contribution (1/mm).
        value: f32,
    },
    /// Rotated rectangle.
    Rect {
        /// Center x (normalized).
        cx: f32,
        /// Center y (normalized).
        cy: f32,
        /// Half-extent along the unrotated x direction.
        hx: f32,
        /// Half-extent along the unrotated y direction.
        hy: f32,
        /// Rotation, radians.
        phi: f32,
        /// Additive attenuation contribution (1/mm).
        value: f32,
    },
}

impl Shape {
    /// Additive contribution of this shape at normalized point `(x, y)`.
    fn value_at(&self, x: f32, y: f32) -> f32 {
        match *self {
            Shape::Ellipse { cx, cy, a, b, phi, value } => {
                let (dx, dy) = rotate(x - cx, y - cy, -phi);
                let q = (dx / a).powi(2) + (dy / b).powi(2);
                if q <= 1.0 {
                    value
                } else {
                    0.0
                }
            }
            Shape::Rect { cx, cy, hx, hy, phi, value } => {
                let (dx, dy) = rotate(x - cx, y - cy, -phi);
                if dx.abs() <= hx && dy.abs() <= hy {
                    value
                } else {
                    0.0
                }
            }
        }
    }
}

#[inline]
fn rotate(x: f32, y: f32, phi: f32) -> (f32, f32) {
    let (s, c) = phi.sin_cos();
    (x * c - y * s, x * s + y * c)
}

/// A scene of additive shapes in normalized coordinates.
#[derive(Debug, Clone, Default)]
pub struct Phantom {
    shapes: Vec<Shape>,
    name: String,
}

impl Phantom {
    /// Empty scene with a display name.
    pub fn named(name: impl Into<String>) -> Self {
        Phantom { shapes: Vec::new(), name: name.into() }
    }

    /// Resolve a phantom spec, the grammar `mbirctl scan --phantom` and
    /// a serve job's `phantom` field share: `shepp-logan`, `water`, or
    /// `baggage[:seed]`.
    pub fn parse(spec: &str) -> Result<Phantom, String> {
        if let Some(seed) = spec.strip_prefix("baggage:") {
            let seed: u64 = seed.parse().map_err(|_| format!("bad baggage seed '{seed}'"))?;
            return Ok(Phantom::baggage(seed));
        }
        match spec {
            "shepp-logan" => Ok(Phantom::shepp_logan()),
            "water" => Ok(Phantom::water_cylinder(0.6)),
            "baggage" => Ok(Phantom::baggage(0)),
            other => Err(format!("unknown phantom '{other}' (shepp-logan, water, baggage[:seed])")),
        }
    }

    /// Display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Shapes in the scene.
    pub fn shapes(&self) -> &[Shape] {
        &self.shapes
    }

    /// Add a shape.
    pub fn push(&mut self, s: Shape) -> &mut Self {
        self.shapes.push(s);
        self
    }

    /// Render onto `grid` with `ss * ss` supersampling per voxel
    /// (`ss = 1` samples voxel centers; `ss = 2` antialiases edges).
    /// Negative accumulated values are clipped to zero (attenuation is
    /// nonnegative).
    pub fn render(&self, grid: ImageGrid, ss: usize) -> Image {
        assert!(ss >= 1);
        let mut img = Image::zeros(grid);
        // Normalize each axis by its own half-extent so shapes keep
        // their aspect on non-square grids.
        let half_x = grid.nx as f32 * grid.pixel_size / 2.0;
        let half_y = grid.ny as f32 * grid.pixel_size / 2.0;
        let sub = grid.pixel_size / ss as f32;
        for row in 0..grid.ny {
            for col in 0..grid.nx {
                let mut acc = 0.0f32;
                for sy in 0..ss {
                    for sx in 0..ss {
                        let x = (grid.x_of(col) - grid.pixel_size / 2.0 + (sx as f32 + 0.5) * sub)
                            / half_x;
                        let y = (grid.y_of(row) - grid.pixel_size / 2.0 + (sy as f32 + 0.5) * sub)
                            / half_y;
                        let mut v = 0.0f32;
                        for s in &self.shapes {
                            v += s.value_at(x, y);
                        }
                        acc += v.max(0.0);
                    }
                }
                img.set(grid.index(row, col), acc / (ss * ss) as f32);
            }
        }
        img
    }

    /// The (modified) Shepp-Logan head phantom, scaled so the skull has
    /// roughly twice water attenuation.
    pub fn shepp_logan() -> Self {
        // (value, a, b, cx, cy, phi_degrees), modified contrast.
        const E: [(f32, f32, f32, f32, f32, f32); 10] = [
            (1.0, 0.69, 0.92, 0.0, 0.0, 0.0),
            (-0.8, 0.6624, 0.874, 0.0, -0.0184, 0.0),
            (-0.2, 0.11, 0.31, 0.22, 0.0, -18.0),
            (-0.2, 0.16, 0.41, -0.22, 0.0, 18.0),
            (0.1, 0.21, 0.25, 0.0, 0.35, 0.0),
            (0.1, 0.046, 0.046, 0.0, 0.1, 0.0),
            (0.1, 0.046, 0.046, 0.0, -0.1, 0.0),
            (0.1, 0.046, 0.023, -0.08, -0.605, 0.0),
            (0.1, 0.023, 0.023, 0.0, -0.606, 0.0),
            (0.1, 0.023, 0.046, 0.06, -0.605, 0.0),
        ];
        let mut p = Phantom::named("shepp-logan");
        for &(v, a, b, cx, cy, deg) in &E {
            p.push(Shape::Ellipse {
                cx,
                cy,
                a,
                b,
                phi: deg.to_radians(),
                value: v * 2.0 * MU_WATER,
            });
        }
        p
    }

    /// A centered water cylinder of the given radius fraction.
    pub fn water_cylinder(radius: f32) -> Self {
        let mut p = Phantom::named("water-cylinder");
        p.push(Shape::Ellipse {
            cx: 0.0,
            cy: 0.0,
            a: radius,
            b: radius,
            phi: 0.0,
            value: MU_WATER,
        });
        p
    }

    /// A random sparse "baggage" scene: a thin-walled rectangular case
    /// containing a few objects of assorted density, surrounded by air.
    /// This is the substitution for an ALERT TO3 security scan; seeds
    /// index the suite deterministically.
    pub fn baggage(seed: u64) -> Self {
        let mut rng =
            StdRng::seed_from_u64(0x9e3779b97f4a7c15 ^ seed.wrapping_mul(0x2545f4914f6cdd1d));
        let mut p = Phantom::named(format!("baggage-{seed}"));

        // Case shell: outer rect minus inner rect (negative value on a
        // positive one leaves a thin dense wall).
        let hw = rng.random_range(0.45..0.68);
        let hh = rng.random_range(0.35..0.6);
        let phi = rng.random_range(-0.25..0.25f32);
        let wall = 0.035;
        let shell = rng.random_range(1.2f32..2.2) * MU_WATER;
        p.push(Shape::Rect { cx: 0.0, cy: 0.0, hx: hw, hy: hh, phi, value: shell });
        p.push(Shape::Rect { cx: 0.0, cy: 0.0, hx: hw - wall, hy: hh - wall, phi, value: -shell });

        // Contents: 3..=9 objects inside the case.
        let n = rng.random_range(3..=9);
        for _ in 0..n {
            let cx = rng.random_range(-(hw - 0.12)..(hw - 0.12));
            let cy = rng.random_range(-(hh - 0.12)..(hh - 0.12));
            let (cx, cy) = rotate(cx, cy, phi);
            let value = match rng.random_range(0..4) {
                0 => rng.random_range(0.2f32..0.6) * MU_WATER, // clothing/plastic
                1 => rng.random_range(0.8f32..1.3) * MU_WATER, // liquids
                2 => rng.random_range(1.4f32..2.5) * MU_WATER, // dense organics
                _ => rng.random_range(3.0f32..6.0) * MU_WATER, // metal-like
            };
            let rot = rng.random_range(0.0..std::f32::consts::PI);
            if rng.random_bool(0.55) {
                let a = rng.random_range(0.04..0.2);
                let b = rng.random_range(0.04..0.2);
                p.push(Shape::Ellipse { cx, cy, a, b, phi: rot, value });
            } else {
                let hx = rng.random_range(0.03..0.18);
                let hy = rng.random_range(0.03..0.18);
                p.push(Shape::Rect { cx, cy, hx, hy, phi: rot, value });
            }
        }
        p
    }

    /// A deterministic suite of `n` baggage phantoms (substitute for
    /// the paper's 3200-case test set).
    pub fn baggage_suite(n: usize) -> Vec<Phantom> {
        (0..n as u64).map(Phantom::baggage).collect()
    }

    /// A resolution phantom: vertical bar groups of decreasing pitch
    /// inside a water disc (QA for edge preservation / blur).
    pub fn resolution_bars() -> Self {
        let mut p = Phantom::named("resolution-bars");
        p.push(Shape::Ellipse { cx: 0.0, cy: 0.0, a: 0.85, b: 0.85, phi: 0.0, value: MU_WATER });
        // Four groups of 3 bars with shrinking width and spacing.
        let mut x = -0.6f32;
        for (g, &w) in [0.10f32, 0.06, 0.04, 0.025].iter().enumerate() {
            for k in 0..3 {
                p.push(Shape::Rect {
                    cx: x + k as f32 * 2.0 * w,
                    cy: -0.1 + 0.05 * g as f32,
                    hx: w / 2.0,
                    hy: 0.3,
                    phi: 0.0,
                    value: MU_WATER, // bars at 2x water
                });
            }
            x += 6.0 * w + 0.12;
        }
        p
    }

    /// A low-contrast detectability phantom: discs of decreasing
    /// contrast (200, 100, 50, 20 HU) in a water disc.
    pub fn contrast_disks() -> Self {
        let mut p = Phantom::named("contrast-disks");
        p.push(Shape::Ellipse { cx: 0.0, cy: 0.0, a: 0.85, b: 0.85, phi: 0.0, value: MU_WATER });
        for (k, &hu) in [200.0f32, 100.0, 50.0, 20.0].iter().enumerate() {
            let angle = k as f32 * std::f32::consts::FRAC_PI_2 + 0.4;
            p.push(Shape::Ellipse {
                cx: 0.45 * angle.cos(),
                cy: 0.45 * angle.sin(),
                a: 0.12,
                b: 0.12,
                phi: 0.0,
                value: MU_WATER * hu / 1000.0,
            });
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> ImageGrid {
        ImageGrid::square(64, 1.0)
    }

    #[test]
    fn spec_strings_resolve_or_name_the_bad_part() {
        assert_eq!(Phantom::parse("shepp-logan").unwrap().name(), Phantom::shepp_logan().name());
        assert_eq!(Phantom::parse("baggage").unwrap().name(), "baggage-0");
        assert_eq!(Phantom::parse("baggage:7").unwrap().name(), "baggage-7");
        assert!(Phantom::parse("water").is_ok());
        assert!(Phantom::parse("baggage:x").unwrap_err().contains("bad baggage seed 'x'"));
        assert!(Phantom::parse("cube").unwrap_err().contains("unknown phantom 'cube'"));
    }

    #[test]
    fn shepp_logan_renders_nonempty() {
        let img = Phantom::shepp_logan().render(grid(), 1);
        assert!(img.max_abs() > 0.0);
        // Head is surrounded by air.
        assert_eq!(img.at(0, 0), 0.0);
        assert_eq!(img.at(63, 63), 0.0);
        // Interior (brain) is less dense than skull.
        let center = img.at(32, 32);
        assert!(center > 0.0 && center < 2.0 * MU_WATER);
    }

    #[test]
    fn water_cylinder_value() {
        let img = Phantom::water_cylinder(0.5).render(grid(), 1);
        assert!((img.at(32, 32) - MU_WATER).abs() < 1e-6);
        assert_eq!(img.at(0, 32), 0.0);
    }

    #[test]
    fn baggage_is_sparse_and_deterministic() {
        let a = Phantom::baggage(7).render(grid(), 1);
        let b = Phantom::baggage(7).render(grid(), 1);
        assert_eq!(a, b);
        assert!(a.zero_fraction() > 0.3, "zero fraction {}", a.zero_fraction());
        assert!(a.max_abs() > MU_WATER);
    }

    #[test]
    fn baggage_suite_varies_by_seed() {
        let suite = Phantom::baggage_suite(4);
        let imgs: Vec<_> = suite.iter().map(|p| p.render(grid(), 1)).collect();
        assert!(imgs[0] != imgs[1]);
        assert!(imgs[2] != imgs[3]);
    }

    #[test]
    fn values_are_nonnegative_after_clip() {
        for seed in 0..8 {
            let img = Phantom::baggage(seed).render(grid(), 1);
            assert!(img.data().iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn supersampling_smooths_edges() {
        let p = Phantom::water_cylinder(0.5);
        let hard = p.render(grid(), 1);
        let soft = p.render(grid(), 4);
        // Same interior, but the supersampled edge has intermediate values.
        assert_eq!(hard.at(32, 32), soft.at(32, 32));
        let partial = soft.data().iter().filter(|&&v| v > 0.0 && v < MU_WATER).count();
        assert!(partial > 0);
    }

    #[test]
    fn resolution_bars_have_decreasing_pitch() {
        let img = Phantom::resolution_bars().render(ImageGrid::square(128, 1.0), 2);
        // Bars exceed the water background somewhere.
        assert!(img.max_abs() > 1.5 * MU_WATER);
        // Scene is inside the disc: corners are air.
        assert_eq!(img.at(0, 0), 0.0);
    }

    #[test]
    fn contrast_disks_span_contrasts() {
        let img = Phantom::contrast_disks().render(ImageGrid::square(128, 1.0), 2);
        // Values present: water (0.02) plus the four bumps up to +200 HU.
        let max = img.data().iter().cloned().fold(0.0f32, f32::max);
        assert!(max > MU_WATER * 1.15 && max < MU_WATER * 1.25, "max {max}");
        assert_eq!(img.at(0, 0), 0.0);
    }

    #[test]
    fn non_square_grid_preserves_shape_coverage() {
        // A centered disc of normalized radius 0.5 covers ~pi/16 of
        // any grid's area when each axis normalizes by its own extent.
        let p = Phantom::water_cylinder(0.5);
        let sq = p.render(ImageGrid::square(40, 1.0), 1);
        let wide = p.render(ImageGrid { nx: 80, ny: 40, pixel_size: 1.0 }, 1);
        let frac = |img: &Image| {
            img.data().iter().filter(|&&v| v > 0.0).count() as f32 / img.data().len() as f32
        };
        assert!((frac(&sq) - frac(&wide)).abs() < 0.03, "{} vs {}", frac(&sq), frac(&wide));
    }

    #[test]
    fn rotated_rect_membership() {
        let s = Shape::Rect {
            cx: 0.0,
            cy: 0.0,
            hx: 0.5,
            hy: 0.1,
            phi: std::f32::consts::FRAC_PI_2,
            value: 1.0,
        };
        // After a 90-degree rotation the long axis is vertical.
        assert_eq!(s.value_at(0.0, 0.4), 1.0);
        assert_eq!(s.value_at(0.4, 0.0), 0.0);
    }
}
