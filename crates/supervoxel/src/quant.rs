//! A-matrix compression to `unsigned char` (paper Section 4.3.1).
//!
//! Each entry is normalized by the voxel column's maximum and mapped to
//! 8 bits with rounding:
//!
//! ```text
//! code = (u8)((A / max_A_of_voxel) * 255 + 0.5)
//! ```
//!
//! The per-voxel maximum is stored alongside and multiplied back before
//! use. This quarters the A-matrix stream (the dominant memory traffic)
//! at a quantization error bounded by `max_A / 510` per entry.

use ct_core::sysmat::ColumnView;
use mbir_simd::AColumn;

/// One voxel's column quantized to bytes.
#[derive(Debug, Clone)]
pub struct QuantizedColumn {
    /// The per-voxel normalization maximum.
    pub scale: f32,
    /// Quantization levels (`2^bits - 1`; 255 for the paper's u8).
    pub levels: f32,
    /// Quantized codes, in the same flat order as
    /// [`ColumnView::values_flat`].
    pub codes: Vec<u8>,
}

impl QuantizedColumn {
    /// Quantize a column to 8 bits (the paper's scheme).
    pub fn quantize(col: &ColumnView<'_>) -> QuantizedColumn {
        Self::quantize_bits(col, 8)
    }

    /// Quantize a column to `bits` in `1..=8` (levels stored in a byte;
    /// used by the bit-width ablation to show 8 bits is enough).
    pub fn quantize_bits(col: &ColumnView<'_>, bits: u32) -> QuantizedColumn {
        Self::from_values(col.values_flat(), col.max_value(), bits)
    }

    /// Quantize raw `values` against `scale` at `bits`, with the edge
    /// cases pinned down: a zero, negative, or non-finite scale
    /// quantizes everything to code 0 (and stores scale 0.0, so
    /// dequantization yields exactly 0.0 rather than NaN), and every
    /// code is explicitly clamped to `[0, levels]` so a value above
    /// `scale` cannot land outside the code range. A NaN entry stays
    /// NaN through the clamp and the saturating `as u8` maps it to 0. A scale large enough that `levels * scale`
    /// overflows f32 is degenerate too: the canonical dequantization
    /// multiplies before dividing (the order the SIMD paths pin
    /// bitwise), so such a scale would decode top codes to infinity.
    pub fn from_values(values: &[f32], scale: f32, bits: u32) -> QuantizedColumn {
        assert!((1..=8).contains(&bits));
        let levels = ((1u32 << bits) - 1) as f32;
        let overflows = (scale as f64) * (levels as f64) > f32::MAX as f64;
        if !(scale.is_finite() && scale > 0.0) || overflows {
            return QuantizedColumn { scale: 0.0, levels, codes: vec![0u8; values.len()] };
        }
        let codes =
            values.iter().map(|&a| ((a / scale) * levels + 0.5).clamp(0.0, levels) as u8).collect();
        QuantizedColumn { scale, levels, codes }
    }

    /// Dequantize entry `k` back to a float A value.
    #[inline]
    pub fn dequant(&self, k: usize) -> f32 {
        mbir_simd::dequant(self.codes[k], self.scale, self.levels)
    }

    /// The codes as the A entries an ICD visit reads.
    pub fn entries(&self) -> AColumn<'_> {
        AColumn::U8 { codes: &self.codes, scale: self.scale, levels: self.levels }
    }

    /// Dequantize the whole column.
    pub fn dequantize_all(&self) -> Vec<f32> {
        (0..self.codes.len()).map(|k| self.dequant(k)).collect()
    }

    /// Worst-case absolute error of this quantization (half a step).
    pub fn error_bound(&self) -> f32 {
        self.scale / (2.0 * self.levels)
    }

    /// Bytes of the quantized representation (codes + scale).
    pub fn bytes(&self) -> usize {
        self.codes.len() + 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_core::geometry::Geometry;
    use ct_core::sysmat::SystemMatrix;

    #[test]
    fn roundtrip_error_within_bound() {
        let g = Geometry::tiny_scale();
        let a = SystemMatrix::compute(&g);
        for j in (0..g.grid.num_voxels()).step_by(53) {
            let col = a.column(j);
            let q = QuantizedColumn::quantize(&col);
            let bound = q.error_bound() + 1e-7;
            for (k, &orig) in col.values_flat().iter().enumerate() {
                let err = (q.dequant(k) - orig).abs();
                assert!(err <= bound, "voxel {j} entry {k}: err {err} > bound {bound}");
            }
        }
    }

    #[test]
    fn max_maps_to_255() {
        let g = Geometry::tiny_scale();
        let a = SystemMatrix::compute(&g);
        let col = a.column(g.grid.num_voxels() / 2);
        let q = QuantizedColumn::quantize(&col);
        assert_eq!(*q.codes.iter().max().unwrap(), 255);
    }

    #[test]
    fn compression_is_4x_minus_scale() {
        let g = Geometry::tiny_scale();
        let a = SystemMatrix::compute(&g);
        let col = a.column(10);
        let q = QuantizedColumn::quantize(&col);
        assert_eq!(q.bytes(), col.nnz() + 4);
        assert!(q.bytes() * 3 < col.nnz() * 4);
    }

    #[test]
    fn zero_column_is_safe() {
        // A detector-clipped voxel with an all-zero column must not
        // divide by zero.
        let q = QuantizedColumn { scale: 0.0, levels: 255.0, codes: vec![0; 4] };
        assert_eq!(q.dequant(2), 0.0);
    }

    #[test]
    fn fewer_bits_mean_larger_error() {
        let g = Geometry::tiny_scale();
        let a = SystemMatrix::compute(&g);
        let col = a.column(g.grid.num_voxels() / 2);
        let mut prev_bound = 0.0f32;
        for bits in (2..=8).rev() {
            let q = QuantizedColumn::quantize_bits(&col, bits);
            let bound = q.error_bound() + 1e-7;
            assert!(bound > prev_bound, "bound must grow as bits shrink");
            prev_bound = q.error_bound();
            for (k, &orig) in col.values_flat().iter().enumerate() {
                assert!((q.dequant(k) - orig).abs() <= bound, "bits {bits} entry {k}");
            }
        }
    }

    #[test]
    fn max_code_matches_bit_width() {
        let g = Geometry::tiny_scale();
        let a = SystemMatrix::compute(&g);
        let col = a.column(g.grid.num_voxels() / 2);
        for bits in [2u32, 4, 6, 8] {
            let q = QuantizedColumn::quantize_bits(&col, bits);
            assert_eq!(*q.codes.iter().max().unwrap() as u32, (1 << bits) - 1);
        }
    }

    #[test]
    fn degenerate_scales_quantize_to_zero() {
        for scale in [0.0f32, -1.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let q = QuantizedColumn::from_values(&[0.5, 1.0, 2.0], scale, 8);
            assert!(q.codes.iter().all(|&c| c == 0), "scale {scale}");
            assert_eq!(q.scale, 0.0);
            assert_eq!(q.dequantize_all(), vec![0.0; 3], "scale {scale}");
        }
    }

    #[test]
    fn overflowing_scale_is_degenerate_not_infinite() {
        // Regression (found by fuzz_quantizer): a finite scale near
        // f32::MAX made the canonical dequantization `code * scale /
        // levels` overflow to inf at the multiply. Such scales now
        // join the degenerate bucket instead of decoding to infinity.
        for bits in [1u32, 3, 8] {
            let levels = ((1u32 << bits) - 1) as f32;
            let scale = 1.701_437_6e38_f32; // > f32::MAX / levels for bits >= 2
            let q = QuantizedColumn::from_values(&[scale, scale / 2.0], scale, bits);
            let deq = q.dequantize_all();
            assert!(deq.iter().all(|v| v.is_finite()), "bits {bits}: {deq:?}");
            if (scale as f64) * (levels as f64) > f32::MAX as f64 {
                assert_eq!(q.scale, 0.0, "bits {bits}");
            }
        }
        // A scale that fits stays exact: top code decodes finite.
        let q = QuantizedColumn::from_values(&[1.0], 1.0, 8);
        assert!(q.dequant(0).is_finite() && q.scale == 1.0);
    }

    #[test]
    fn out_of_range_values_clamp_into_the_code_range() {
        // Values above the scale (callers lying about the max) and NaN
        // entries must land on a valid code, not wrap.
        let q = QuantizedColumn::from_values(&[-3.0, 0.0, 5.0, 1e30, f32::NAN], 1.0, 4);
        assert_eq!(q.codes, vec![0, 0, 15, 15, 0]);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn roundtrip_bound_holds_for_arbitrary_columns(
                values in prop::collection::vec(0.0f32..1e4, 1..64),
                bits in 1u32..=8,
            ) {
                let scale = values.iter().cloned().fold(0.0f32, f32::max);
                let q = QuantizedColumn::from_values(&values, scale, bits);
                let bound = q.error_bound() + scale * 1e-6;
                for (k, &orig) in values.iter().enumerate() {
                    let err = (q.dequant(k) - orig).abs();
                    prop_assert!(
                        err <= bound,
                        "entry {} @ {} bits: err {} > bound {}",
                        k, bits, err, bound
                    );
                }
            }
        }
    }

    #[test]
    fn relative_error_small_for_large_entries() {
        let g = Geometry::tiny_scale();
        let a = SystemMatrix::compute(&g);
        let col = a.column(g.grid.num_voxels() / 2 + 3);
        let q = QuantizedColumn::quantize(&col);
        for (k, &orig) in col.values_flat().iter().enumerate() {
            if orig > 0.5 * q.scale {
                let rel = (q.dequant(k) - orig).abs() / orig;
                assert!(rel < 0.005, "rel err {rel}");
            }
        }
    }
}
