//! Fixed-width f32 lane kernels with one canonical arithmetic order.
//!
//! Every reduction in the reconstruction hot paths (theta accumulation
//! over a voxel's column, FBP filter dots, backprojection lerp sums) is
//! defined here in terms of a **canonical 8-lane reduction tree**:
//! element `k` of the input stream is added into partial accumulator
//! `k % 8`, and the eight partials are combined as
//!
//! ```text
//! ((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7))
//! ```
//!
//! The kernels process `chunks_exact(8)` with an autovectorized inner
//! loop, and per lane they perform *the same f32 additions in the same
//! order* as an element-at-a-time walk (lane `L` sees elements `L`,
//! `L+8`, `L+16`, …; tails continue the lane phase element-wise). f32
//! addition is deterministic and rustc never contracts separate mul/add
//! into an FMA, so a kernel's bits are fixed by that order at any input
//! length and any ISA width. Each kernel's unit tests pin it bitwise to
//! an element-at-a-time reference: [`ThetaAcc`] for the ICD gather,
//! and test-only scalar walks for the FBP dot and lerp sum.

/// Lane width of the canonical reduction tree. Fixed at 8 (one AVX
/// f32 register); changing it would change every reduction's bits.
pub const LANES: usize = 8;

/// Compatibility shim only: there is one lane path and no backend to
/// choose. It keeps the benchmark harness's run descriptor
/// (`perfbench/src/main.rs:147` and `:199`) compiling unchanged, still
/// printing `"simd": "lanes"`, and goes when that harness is next edited.
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub enum SimdBackend {
    Auto,
}

impl SimdBackend {
    pub fn name(self) -> &'static str {
        "lanes"
    }
}

#[doc(hidden)]
pub fn resolve(b: SimdBackend) -> SimdBackend {
    b
}

#[doc(hidden)]
pub fn set_backend(_: SimdBackend) {}

/// The canonical combination of the eight lane partials.
#[inline]
pub fn tree_reduce(l: [f32; LANES]) -> f32 {
    ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

/// Scalar-reference accumulator for the ICD thetas (paper Alg. 1):
/// per element, `theta1 -= w*A*e` and `theta2 += w*A*A`, into the
/// canonical lane for the element's position in the column's flat
/// entry stream. This *is* the definition of the reduction — the
/// gather kernel ([`theta_gather`]) must match it bitwise.
#[derive(Debug, Clone)]
pub struct ThetaAcc {
    t1: [f32; LANES],
    t2: [f32; LANES],
    k: usize,
}

impl ThetaAcc {
    pub fn new() -> ThetaAcc {
        ThetaAcc { t1: [0.0; LANES], t2: [0.0; LANES], k: 0 }
    }

    /// Fold in one (A, e, w) triple at the next flat position.
    #[inline]
    pub fn push(&mut self, a: f32, e: f32, w: f32) {
        let l = self.k % LANES;
        self.t1[l] -= w * a * e;
        self.t2[l] += w * a * a;
        self.k += 1;
    }

    /// Tree-reduce to `(theta1, theta2)`.
    pub fn finish(&self) -> (f32, f32) {
        (tree_reduce(self.t1), tree_reduce(self.t2))
    }
}

impl Default for ThetaAcc {
    fn default() -> Self {
        Self::new()
    }
}

fn check_len(n: usize, m: usize) {
    assert_eq!(n, m, "lane kernel slice lengths differ");
}

/// The canonical u8 dequantization, `code as f32 * scale / levels`:
/// multiply first, then divide, with no factor hoisted (hoisting
/// `scale / levels` would round differently).
#[inline]
pub fn dequant(code: u8, scale: f32, levels: f32) -> f32 {
    code as f32 * scale / levels
}

/// Dequantize a column's u8 codes into `out` in one contiguous pass,
/// each entry by the canonical [`dequant`]. A visit fills this once and
/// both its theta gather and its delayed commit read the result, so
/// the divide runs once per element per visit, vectorized.
pub fn dequantize(codes: &[u8], scale: f32, levels: f32, out: &mut Vec<f32>) {
    out.clear();
    out.extend(codes.iter().map(|&c| dequant(c, scale, levels)));
}

/// Thetas of one voxel visit, gathered straight from an SV band of
/// `(e, w)` cells: entry `k` of `a` pairs with the cell `cells[idx[k]]`,
/// which one 8-byte load serves. Chunked 8-wide and bitwise-equal to
/// pushing `(a[k], e, w)` through a [`ThetaAcc`]: lane `l` of chunk `c`
/// holds flat position `8*c + l`, the tail keeps the lane phase, and
/// each lane computes `theta1 -= (w*a)*e`, `theta2 += (w*a)*a` — the
/// trees Rust parses `w * a * e` and `w * a * a` into. Only the product
/// `w*a` is shared between the two, never re-associated.
pub fn theta_gather(a: &[f32], idx: &[u16], cells: &[[f32; 2]]) -> (f32, f32) {
    check_len(a.len(), idx.len());
    let full = idx.len() - idx.len() % LANES;
    let mut t1 = [0.0f32; LANES];
    let mut t2 = [0.0f32; LANES];
    for (ca, ci) in a[..full].chunks_exact(LANES).zip(idx[..full].chunks_exact(LANES)) {
        let mut ev = [0.0f32; LANES];
        let mut wv = [0.0f32; LANES];
        for l in 0..LANES {
            [ev[l], wv[l]] = cells[ci[l] as usize];
        }
        for l in 0..LANES {
            let wa = wv[l] * ca[l];
            t1[l] -= wa * ev[l];
            t2[l] += wa * ca[l];
        }
    }
    for (l, (&av, &i)) in a[full..].iter().zip(&idx[full..]).enumerate() {
        let [e, w] = cells[i as usize];
        let wa = w * av;
        t1[l] -= wa * e;
        t2[l] += wa * av;
    }
    (tree_reduce(t1), tree_reduce(t2))
}

/// The write-back after a voxel commit, through the same offsets:
/// `e -= a[k] * delta` in cell `cells[idx[k]]`. Element-wise with no
/// reduction (a column's band cells are distinct, so order is
/// immaterial), and the same `e - (a * delta)` the scalar walk
/// computes. Weights are left as they are.
pub fn scatter_sub(a: &[f32], idx: &[u16], cells: &mut [[f32; 2]], delta: f32) {
    check_len(a.len(), idx.len());
    for (&av, &i) in a.iter().zip(idx) {
        cells[i as usize][0] -= av * delta;
    }
}

/// Weighted dot `Σ x[k] * y[k]`, chunked 8-wide through the canonical
/// lane tree.
pub fn dot(x: &[f32], y: &[f32]) -> f32 {
    check_len(x.len(), y.len());
    let full = x.len() - x.len() % LANES;
    let (xh, xt) = x.split_at(full);
    let (yh, yt) = y.split_at(full);
    let mut acc = [0.0f32; LANES];
    for (cx, cy) in xh.chunks_exact(LANES).zip(yh.chunks_exact(LANES)) {
        for l in 0..LANES {
            acc[l] += cx[l] * cy[l];
        }
    }
    for (i, (&xv, &yv)) in xt.iter().zip(yt).enumerate() {
        acc[i] += xv * yv;
    }
    tree_reduce(acc)
}

/// Linear-interpolation sum `Σ a[k] + frac[k] * (b[k] - a[k])` (FBP
/// backprojection inner reduction), chunked 8-wide through the
/// canonical lane tree.
pub fn lerp_sum(a: &[f32], b: &[f32], frac: &[f32]) -> f32 {
    check_len(a.len(), b.len());
    check_len(a.len(), frac.len());
    let full = a.len() - a.len() % LANES;
    let (ah, at) = a.split_at(full);
    let (bh, bt) = b.split_at(full);
    let (fh, ft) = frac.split_at(full);
    let mut acc = [0.0f32; LANES];
    for ((ca, cb), cf) in
        ah.chunks_exact(LANES).zip(bh.chunks_exact(LANES)).zip(fh.chunks_exact(LANES))
    {
        for l in 0..LANES {
            acc[l] += ca[l] + cf[l] * (cb[l] - ca[l]);
        }
    }
    for (i, ((&av, &bv), &fv)) in at.iter().zip(bt).zip(ft).enumerate() {
        acc[i] += av + fv * (bv - av);
    }
    tree_reduce(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scalar reference for [`dot`]: one element at a time, into
    /// canonical lane `k % 8`.
    fn dot_ref(x: &[f32], y: &[f32]) -> f32 {
        check_len(x.len(), y.len());
        let mut acc = [0.0f32; LANES];
        for (k, (&xv, &yv)) in x.iter().zip(y).enumerate() {
            acc[k % LANES] += xv * yv;
        }
        tree_reduce(acc)
    }

    /// The scalar reference for [`lerp_sum`], in the same order.
    fn lerp_sum_ref(a: &[f32], b: &[f32], frac: &[f32]) -> f32 {
        check_len(a.len(), b.len());
        check_len(a.len(), frac.len());
        let mut acc = [0.0f32; LANES];
        for k in 0..a.len() {
            acc[k % LANES] += a[k] + frac[k] * (b[k] - a[k]);
        }
        tree_reduce(acc)
    }

    #[test]
    fn tree_reduce_matches_spelled_out_tree() {
        let l = [1.0f32, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 0.5];
        let expect = ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
        assert_eq!(tree_reduce(l).to_bits(), expect.to_bits());
    }

    /// Distinct pseudo-random offsets of `n` elements into a band of
    /// `n + pad` cells (a seeded Fisher-Yates prefix).
    fn scattered_offsets(n: usize, pad: usize, seed: u64) -> Vec<u16> {
        let mut cells: Vec<u16> = (0..n + pad).map(|i| i as u16).collect();
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        for i in (1..cells.len()).rev() {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            cells.swap(i, (s % (i as u64 + 1)) as usize);
        }
        cells.truncate(n);
        cells
    }

    /// A band of `len` `(e, w)` cells with seeded finite contents.
    fn band(len: usize, seed: u64) -> Vec<[f32; 2]> {
        (0..len as u64)
            .map(|k| {
                let e = ((k * 31 + seed) % 997) as f32 * 0.013 - 6.0;
                let w = ((k * 17 + seed) % 991) as f32 * 0.001;
                [e, w]
            })
            .collect()
    }

    /// The reference the gather kernel must match: the scalar
    /// accumulator over the gathered triples.
    fn acc_over(a: &[f32], idx: &[u16], cells: &[[f32; 2]]) -> (f32, f32) {
        let mut acc = ThetaAcc::new();
        for (&av, &i) in a.iter().zip(idx) {
            let [e, w] = cells[i as usize];
            acc.push(av, e, w);
        }
        acc.finish()
    }

    /// The reference write-back: the per-element walk in flat order.
    fn sub_per_element(a: &[f32], idx: &[u16], cells: &mut [[f32; 2]], delta: f32) {
        for (k, &i) in idx.iter().enumerate() {
            cells[i as usize][0] -= a[k] * delta;
        }
    }

    fn bits(cells: &[[f32; 2]]) -> Vec<[u32; 2]> {
        cells.iter().map(|[e, w]| [e.to_bits(), w.to_bits()]).collect()
    }

    #[test]
    fn theta_gather_matches_acc_on_fixed_input() {
        let n = 29; // deliberately n % 8 != 0
        let a: Vec<f32> = (0..n).map(|k| 0.01 + k as f32 * 0.37).collect();
        let idx = scattered_offsets(n, 11, 5);
        let cells: Vec<[f32; 2]> =
            (0..n + 11).map(|k| [(k as f32).sin(), 1.0 / (1.0 + k as f32)]).collect();
        let r = acc_over(&a, &idx, &cells);
        let l = theta_gather(&a, &idx, &cells);
        assert_eq!(r.0.to_bits(), l.0.to_bits());
        assert_eq!(r.1.to_bits(), l.1.to_bits());
    }

    #[test]
    fn gather_kernels_on_an_empty_column_are_no_ops() {
        let band = [[1.0f32, 2.0], [3.0, 4.0]];
        let (t1, t2) = theta_gather(&[], &[], &band);
        assert_eq!((t1.to_bits(), t2.to_bits()), (0.0f32.to_bits(), 0.0f32.to_bits()));
        let mut cells = band;
        scatter_sub(&[], &[], &mut cells, 5.0);
        assert_eq!(cells, band);
        let mut out = vec![9.0f32];
        dequantize(&[], 1.0, 255.0, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn scatter_sub_matches_per_element_and_leaves_weights() {
        let a = [0.5f32, 0.25, 1.5];
        let mut cells = [[10.0f32, 1.0], [20.0, 2.0], [30.0, 3.0], [40.0, 4.0]];
        scatter_sub(&a, &[3, 0, 1], &mut cells, 2.0);
        assert_eq!(cells, [[9.5, 1.0], [17.0, 2.0], [30.0, 3.0], [39.0, 4.0]]);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Finite, NaN/inf-free inputs across tail lengths n % 8 != 0.
        fn triple(max_len: usize) -> impl Strategy<Value = Vec<(f32, f32, f32)>> {
            prop::collection::vec((-1e3f32..1e3, -1e3f32..1e3, 0.0f32..1e3), 0..max_len + 1)
        }

        fn unzip3(t: Vec<(f32, f32, f32)>) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
            let mut a = Vec::with_capacity(t.len());
            let mut b = Vec::with_capacity(t.len());
            let mut c = Vec::with_capacity(t.len());
            for (x, y, z) in t {
                a.push(x);
                b.push(y);
                c.push(z);
            }
            (a, b, c)
        }

        /// A u16 band offset drawn as `(pick, value)`: pick 0 and 1
        /// pin the two ends of the range, so both are drawn often.
        fn offset((pick, v): (u8, u16)) -> u16 {
            match pick {
                0 => 0,
                1 => u16::MAX,
                _ => v,
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn theta_gather_f32_bitwise_equals_acc(
                t in triple(67),
                pad in 0usize..24,
                seed in 0u64..1000,
            ) {
                // Lengths 0..=67 cover the empty column and every tail
                // n % 8; offsets land anywhere in a padded band.
                let (a, e_run, w_run) = unzip3(t);
                let n = a.len();
                let idx = scattered_offsets(n, pad, seed);
                let mut cells = vec![[-7.5f32, 0.25]; n + pad];
                for (k, &i) in idx.iter().enumerate() {
                    cells[i as usize] = [e_run[k], w_run[k]];
                }
                let r = acc_over(&a, &idx, &cells);
                let l = theta_gather(&a, &idx, &cells);
                prop_assert_eq!(r.0.to_bits(), l.0.to_bits());
                prop_assert_eq!(r.1.to_bits(), l.1.to_bits());
            }

            #[test]
            fn dequantized_theta_gather_bitwise_equals_inline_dequant(
                codes in prop::collection::vec(0u8..=255, 0..67),
                scale in 0.0f32..10.0,
                bits in 1u32..=8,
                pad in 0usize..24,
                seed in 0u64..1000,
            ) {
                // Gathering over the dequantization pass must round
                // exactly as the reference dequantizing each entry as
                // it reads it.
                let levels = ((1u32 << bits) - 1) as f32;
                let n = codes.len();
                let idx = scattered_offsets(n, pad, seed);
                let cells = band(n + pad, seed);
                let mut a = Vec::new();
                dequantize(&codes, scale, levels, &mut a);
                let mut acc = ThetaAcc::new();
                for (&c, &i) in codes.iter().zip(&idx) {
                    let [e, w] = cells[i as usize];
                    acc.push(dequant(c, scale, levels), e, w);
                }
                let r = acc.finish();
                let l = theta_gather(&a, &idx, &cells);
                prop_assert_eq!(r.0.to_bits(), l.0.to_bits());
                prop_assert_eq!(r.1.to_bits(), l.1.to_bits());
            }

            #[test]
            fn scatter_sub_bitwise_equals_per_element(
                t in triple(67),
                delta in -2.0f32..2.0,
                pad in 0usize..24,
                seed in 0u64..1000,
            ) {
                let (a, _, _) = unzip3(t);
                let idx = scattered_offsets(a.len(), pad, seed);
                let mut c1 = band(a.len() + pad, seed);
                let mut c2 = c1.clone();
                scatter_sub(&a, &idx, &mut c1, delta);
                sub_per_element(&a, &idx, &mut c2, delta);
                prop_assert_eq!(bits(&c1), bits(&c2));
            }

            #[test]
            fn dequantize_equals_dequant_per_element(
                codes in prop::collection::vec(0u8..=255, 0..67),
                scale in (prop::bool::ANY, 0.0f32..1e30),
                bits in 1u32..=8,
            ) {
                // Half the cases take scale 0, a degenerate column's.
                let scale = if scale.0 { 0.0 } else { scale.1 };
                let levels = ((1u32 << bits) - 1) as f32;
                let mut out = vec![f32::NAN; 3];
                dequantize(&codes, scale, levels, &mut out);
                prop_assert_eq!(out.len(), codes.len());
                for (&c, &v) in codes.iter().zip(&out) {
                    prop_assert_eq!(v.to_bits(), dequant(c, scale, levels).to_bits());
                }
            }
        }

        proptest! {
            // A full 65 536-cell band is 512 KB; fewer cases keep it quick.
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn cell_kernels_reach_every_u16_offset(
                entries in prop::collection::vec((-1e3f32..1e3, (0u8..4, 0u16..=u16::MAX)), 0..68),
                delta in -2.0f32..2.0,
                seed in 0u64..1000,
            ) {
                let (a, idx): (Vec<f32>, Vec<u16>) =
                    entries.into_iter().map(|(a, o)| (a, offset(o))).unzip();
                let mut c1 = band(1 << 16, seed);
                let r = acc_over(&a, &idx, &c1);
                let l = theta_gather(&a, &idx, &c1);
                prop_assert_eq!(r.0.to_bits(), l.0.to_bits());
                prop_assert_eq!(r.1.to_bits(), l.1.to_bits());
                let mut c2 = c1.clone();
                scatter_sub(&a, &idx, &mut c1, delta);
                sub_per_element(&a, &idx, &mut c2, delta);
                prop_assert_eq!(bits(&c1), bits(&c2));
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn dot_lanes_bitwise_equals_ref(t in triple(67)) {
                let (x, y, _w) = unzip3(t);
                prop_assert_eq!(dot_ref(&x, &y).to_bits(), dot(&x, &y).to_bits());
            }

            #[test]
            fn lerp_sum_lanes_bitwise_equals_ref(t in triple(67)) {
                // frac in [0, 1e3) is fine: the identity is bitwise, not geometric.
                let (a, b, f) = unzip3(t);
                let r = lerp_sum_ref(&a, &b, &f);
                let l = lerp_sum(&a, &b, &f);
                prop_assert_eq!(r.to_bits(), l.to_bits());
            }
        }
    }
}
