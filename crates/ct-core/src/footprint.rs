//! Trapezoid footprint of a square voxel in a parallel-beam geometry.
//!
//! The set of rays at angle `theta` passing through a square voxel of
//! side `d` forms, as a function of detector coordinate `u` (distance
//! from the voxel center's projection), a trapezoid: the intersection
//! length profile is the convolution of two box functions of widths
//! `d |cos theta|` and `d |sin theta|`. Its integral equals the voxel
//! area `d^2`, and its peak equals `d / max(|cos|, |sin|)`.
//!
//! A system-matrix entry `A[v][i,j]` is the *mean* intersection length
//! over channel `j`'s width at view `i`, i.e. the trapezoid integrated
//! over the channel interval and divided by the channel pitch. With the
//! image in units of 1/mm this makes `A x` a dimensionless line
//! integral, matching conventional MBIR formulations.

/// Intersection-length profile of a square voxel at one view angle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Trapezoid {
    /// Half-width of the support: `d (|cos| + |sin|) / 2`.
    pub half_base: f32,
    /// Half-width of the flat top: `d | |cos| - |sin| | / 2`.
    pub half_plateau: f32,
    /// Peak intersection length: `d / max(|cos|, |sin|)`.
    pub height: f32,
}

impl Trapezoid {
    /// Footprint of a voxel of side `pixel_size` at view angle `theta`.
    pub fn at_angle(theta: f32, pixel_size: f32) -> Self {
        let c = theta.cos().abs();
        let s = theta.sin().abs();
        Self::from_cos_sin(c, s, pixel_size)
    }

    /// Footprint from precomputed `|cos theta|`, `|sin theta|`.
    pub fn from_cos_sin(c: f32, s: f32, pixel_size: f32) -> Self {
        debug_assert!(c >= 0.0 && s >= 0.0);
        let m = c.max(s).max(1e-12);
        Trapezoid {
            half_base: pixel_size * (c + s) / 2.0,
            half_plateau: pixel_size * (c - s).abs() / 2.0,
            height: pixel_size / m,
        }
    }

    /// Total area under the profile; equals `pixel_size^2` exactly.
    pub fn area(&self) -> f32 {
        self.height * (self.half_base + self.half_plateau)
    }

    /// Cumulative integral `F(u) = integral_{-inf}^{u} f`.
    pub fn cumulative(&self, u: f32) -> f32 {
        let hb = self.half_base;
        let hp = self.half_plateau;
        let h = self.height;
        if u <= -hb {
            return 0.0;
        }
        if u >= hb {
            return self.area();
        }
        let ramp = hb - hp; // width of each sloped side (may be ~0)
        if u < -hp {
            // Rising ramp.
            let t = u + hb;
            h * t * t / (2.0 * ramp)
        } else if u <= hp {
            // Plateau.
            h * ramp / 2.0 + h * (u + hp)
        } else {
            // Falling ramp.
            let t = hb - u;
            self.area() - h * t * t / (2.0 * ramp)
        }
    }

    /// Branchless [`Trapezoid::cumulative`]: every branch's exact
    /// expression is computed and the right one selected, so the result
    /// is bitwise-identical to the branchy form (the proptest below
    /// pins this) while the straight-line body lets the system-matrix
    /// build vectorize across channels. A degenerate `ramp == 0`
    /// (axis-aligned view) makes the unselected ramp expressions
    /// inf/NaN, which is fine in Rust — they are discarded by the
    /// selects, exactly as the branchy form never evaluates them:
    /// interior `u` then satisfies `-hp <= u <= hp` (plateau selected),
    /// and exterior `u` hits the 0/area overrides.
    #[inline]
    pub fn cumulative_select(&self, u: f32) -> f32 {
        let hb = self.half_base;
        let hp = self.half_plateau;
        let h = self.height;
        let ramp = hb - hp;
        let tr = u + hb;
        let rising = h * tr * tr / (2.0 * ramp);
        let plateau = h * ramp / 2.0 + h * (u + hp);
        let tf = hb - u;
        let area = self.area();
        let falling = area - h * tf * tf / (2.0 * ramp);
        let mut f = if u < -hp {
            rising
        } else if u <= hp {
            plateau
        } else {
            falling
        };
        if u <= -hb {
            f = 0.0;
        }
        if u >= hb {
            f = area;
        }
        f
    }

    /// Integral of the profile over `[a, b]` (with `a <= b`).
    pub fn integral(&self, a: f32, b: f32) -> f32 {
        debug_assert!(a <= b);
        (self.cumulative(b) - self.cumulative(a)).max(0.0)
    }

    /// Mean intersection length over a channel `[a, b]` of width
    /// `b - a` — this is a system-matrix entry.
    pub fn mean_over(&self, a: f32, b: f32) -> f32 {
        let w = b - a;
        if w <= 0.0 {
            return 0.0;
        }
        self.integral(a, b) / w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f32::consts::PI;

    #[test]
    fn area_equals_pixel_area() {
        for k in 0..32 {
            let th = k as f32 * PI / 32.0;
            let t = Trapezoid::at_angle(th, 1.5);
            assert!((t.area() - 2.25).abs() < 1e-4, "theta={th}: area={}", t.area());
        }
    }

    #[test]
    fn axis_aligned_is_box() {
        let t = Trapezoid::at_angle(0.0, 1.0);
        assert!((t.half_base - 0.5).abs() < 1e-6);
        assert!((t.half_plateau - 0.5).abs() < 1e-6);
        assert!((t.height - 1.0).abs() < 1e-6);
        // The whole profile integrates to 1 and is flat.
        assert!((t.integral(-0.5, 0.0) - 0.5).abs() < 1e-5);
    }

    #[test]
    fn diagonal_is_triangle() {
        let t = Trapezoid::at_angle(PI / 4.0, 1.0);
        assert!(t.half_plateau.abs() < 1e-6);
        let sqrt2 = std::f32::consts::SQRT_2;
        assert!((t.half_base - sqrt2 / 2.0).abs() < 1e-5);
        assert!((t.height - sqrt2).abs() < 1e-5);
    }

    #[test]
    fn cumulative_is_monotone_and_bounded() {
        let t = Trapezoid::at_angle(0.3, 1.0);
        let mut prev = -1.0f32;
        for i in 0..=200 {
            let u = -1.0 + i as f32 * 0.01;
            let f = t.cumulative(u);
            assert!(f >= prev - 1e-6);
            assert!((0.0..=t.area() + 1e-6).contains(&f));
            prev = f;
        }
        assert_eq!(t.cumulative(-10.0), 0.0);
        assert!((t.cumulative(10.0) - t.area()).abs() < 1e-6);
    }

    #[test]
    fn integral_is_additive() {
        let t = Trapezoid::at_angle(1.1, 2.0);
        let whole = t.integral(-3.0, 3.0);
        let split = t.integral(-3.0, 0.2) + t.integral(0.2, 3.0);
        assert!((whole - split).abs() < 1e-5);
    }

    #[test]
    fn select_form_matches_branchy_at_edges() {
        // Exact boundary hits, including the degenerate axis-aligned
        // trapezoid (ramp == 0, where the unselected ramp expressions
        // are inf/NaN and must be discarded).
        for theta in [0.0f32, PI / 2.0, PI / 4.0, 0.3, 1.2] {
            let t = Trapezoid::at_angle(theta, 1.0);
            for u in [
                -t.half_base,
                -t.half_plateau,
                0.0,
                t.half_plateau,
                t.half_base,
                -t.half_base - 0.1,
                t.half_base + 0.1,
            ] {
                assert_eq!(
                    t.cumulative(u).to_bits(),
                    t.cumulative_select(u).to_bits(),
                    "theta={theta} u={u}"
                );
            }
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(1024))]

            #[test]
            fn select_form_is_bitwise_equal(
                theta in 0.0f32..std::f32::consts::PI,
                pixel in 0.1f32..5.0,
                u in -10.0f32..10.0,
            ) {
                let t = Trapezoid::at_angle(theta, pixel);
                prop_assert_eq!(t.cumulative(u).to_bits(), t.cumulative_select(u).to_bits());
            }
        }
    }

    #[test]
    fn symmetric_about_zero() {
        let t = Trapezoid::at_angle(0.7, 1.0);
        for i in 1..20 {
            let u = i as f32 * 0.05;
            let left = t.integral(-u, 0.0);
            let right = t.integral(0.0, u);
            assert!((left - right).abs() < 1e-5);
        }
    }
}
