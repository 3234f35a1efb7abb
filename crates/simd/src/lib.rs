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
//! Both backends — the scalar fallback that processes one element at a
//! time, and the lane backend that processes `chunks_exact(8)` with an
//! autovectorized inner loop — perform, per lane, *the same f32
//! additions in the same order* (lane `L` sees elements `L`, `L+8`,
//! `L+16`, …). f32 addition is deterministic and rustc never contracts
//! separate mul/add into an FMA, so the two backends are
//! bitwise-identical by construction, at any input length (tails are
//! handled element-wise, continuing the lane phase). This extends the
//! thread-count and device-count determinism invariants to SIMD width:
//! the `--simd` knob can never change a reconstruction, only its speed.
//!
//! Backend resolution order mirrors `mbir-parallel`'s thread knob:
//! explicit [`set_backend`] call, else the `MBIR_SIMD` environment
//! variable, else [`SimdBackend::Lanes`]. Callers that carry a
//! per-driver setting ([`SimdBackend::Auto`] by default) resolve it
//! once with [`resolve`] and pass the concrete backend down.

use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};

use serde::{Deserialize, Serialize};

/// Lane width of the canonical reduction tree. Fixed at 8 (one AVX
/// f32 register); changing it would change every reduction's bits.
pub const LANES: usize = 8;

/// Which kernel implementation services the lane primitives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SimdBackend {
    /// Defer to the process-wide setting ([`backend`]), else `Lanes`.
    #[default]
    Auto,
    /// Element-at-a-time reference kernels (same bits).
    Scalar,
    /// Chunked 8-wide kernels (the ICD walk gathers through offsets).
    Lanes,
}

impl SimdBackend {
    /// Parse a CLI/env spelling; `None` for anything unrecognized.
    pub fn parse(s: &str) -> Option<SimdBackend> {
        match s.trim().to_ascii_lowercase().as_str() {
            "auto" => Some(SimdBackend::Auto),
            "scalar" => Some(SimdBackend::Scalar),
            "lanes" => Some(SimdBackend::Lanes),
            _ => None,
        }
    }

    /// The canonical lowercase spelling.
    pub fn name(self) -> &'static str {
        match self {
            SimdBackend::Auto => "auto",
            SimdBackend::Scalar => "scalar",
            SimdBackend::Lanes => "lanes",
        }
    }
}

impl fmt::Display for SimdBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Process-wide backend; 0 = unset (fall through to `MBIR_SIMD`).
static BACKEND: AtomicU8 = AtomicU8::new(0);

/// Pin the process-wide backend. `Auto` restores env/default fallback.
pub fn set_backend(b: SimdBackend) {
    let code = match b {
        SimdBackend::Auto => 0,
        SimdBackend::Scalar => 1,
        SimdBackend::Lanes => 2,
    };
    BACKEND.store(code, Ordering::Relaxed);
}

/// The process-wide backend setting: the value from [`set_backend`],
/// else `MBIR_SIMD`, else `Auto` (which [`resolve`] maps to `Lanes`).
pub fn backend() -> SimdBackend {
    match BACKEND.load(Ordering::Relaxed) {
        1 => return SimdBackend::Scalar,
        2 => return SimdBackend::Lanes,
        _ => {}
    }
    match std::env::var("MBIR_SIMD") {
        Err(std::env::VarError::NotPresent) => SimdBackend::Auto,
        v => parse_backend_env(v.as_deref().unwrap_or("<non-UTF-8>"))
            .unwrap_or_else(|e| panic!("{e}")),
    }
}

/// Parse an `MBIR_SIMD` value. Anything but a backend name is an error
/// naming the variable, so a typo'd CI leg cannot silently test the
/// default backend twice.
fn parse_backend_env(v: &str) -> Result<SimdBackend, String> {
    SimdBackend::parse(v)
        .ok_or_else(|| format!("MBIR_SIMD={v:?} is not a SIMD backend (auto, scalar, lanes)"))
}

/// Resolve a caller-supplied backend request to a concrete backend:
/// `Auto` defers to the process-wide setting ([`backend`]), and an
/// unset process falls back to `Lanes`. Resolving an already-concrete
/// backend is free (no env lookup), so hot loops may re-resolve.
pub fn resolve(requested: SimdBackend) -> SimdBackend {
    match requested {
        SimdBackend::Auto => match backend() {
            SimdBackend::Auto => SimdBackend::Lanes,
            b => b,
        },
        b => b,
    }
}

/// The concrete backend a caller with no setting of its own gets.
pub fn active() -> SimdBackend {
    resolve(SimdBackend::Auto)
}

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

/// One voxel column's A entries in flat element order, as a visit
/// reads them: the f32 column, or its u8 codes dequantized per element
/// by [`dequant`].
#[derive(Debug, Clone, Copy)]
pub enum AColumn<'a> {
    /// Full-precision entries.
    F32(&'a [f32]),
    /// Quantized entries with their per-column scale and level count.
    U8 { codes: &'a [u8], scale: f32, levels: f32 },
}

impl AColumn<'_> {
    fn len(&self) -> usize {
        match self {
            AColumn::F32(v) => v.len(),
            AColumn::U8 { codes, .. } => codes.len(),
        }
    }
}

/// Thetas of one voxel visit, gathered straight from an SV band: entry
/// `k` of `a` pairs with `e[idx[k]]` and `w[idx[k]]`. Chunked 8-wide
/// and bitwise-equal to pushing `(a[k], e[idx[k]], w[idx[k]])`
/// through a [`ThetaAcc`]: lane `l` of chunk `c` holds flat position
/// `8*c + l`, the tail keeps the lane phase, and each lane computes
/// `theta1 -= (w*a)*e`, `theta2 += (w*a)*a` — the trees Rust parses
/// `w * a * e` and `w * a * a` into. Only the product `w*a` is shared
/// between the two, never re-associated.
pub fn theta_gather(a: AColumn<'_>, idx: &[u32], e: &[f32], w: &[f32]) -> (f32, f32) {
    check_len(a.len(), idx.len());
    check_len(e.len(), w.len());
    match a {
        AColumn::F32(v) => theta_gather_with(v, idx, e, w, |x| x),
        AColumn::U8 { codes, scale, levels } => {
            theta_gather_with(codes, idx, e, w, |c| dequant(c, scale, levels))
        }
    }
}

/// [`theta_gather`] over one A representation: per chunk, gather the
/// eight `(a, e, w)` triples, then run the lane arithmetic on them.
#[inline(always)]
fn theta_gather_with<T: Copy>(
    a: &[T],
    idx: &[u32],
    e: &[f32],
    w: &[f32],
    deq: impl Fn(T) -> f32,
) -> (f32, f32) {
    let full = idx.len() - idx.len() % LANES;
    let mut t1 = [0.0f32; LANES];
    let mut t2 = [0.0f32; LANES];
    for (ca, ci) in a[..full].chunks_exact(LANES).zip(idx[..full].chunks_exact(LANES)) {
        let mut av = [0.0f32; LANES];
        let mut ev = [0.0f32; LANES];
        let mut wv = [0.0f32; LANES];
        for l in 0..LANES {
            let i = ci[l] as usize;
            av[l] = deq(ca[l]);
            ev[l] = e[i];
            wv[l] = w[i];
        }
        for l in 0..LANES {
            let wa = wv[l] * av[l];
            t1[l] -= wa * ev[l];
            t2[l] += wa * av[l];
        }
    }
    for (l, (&c, &i)) in a[full..].iter().zip(&idx[full..]).enumerate() {
        let av = deq(c);
        let wa = w[i as usize] * av;
        t1[l] -= wa * e[i as usize];
        t2[l] += wa * av;
    }
    (tree_reduce(t1), tree_reduce(t2))
}

/// The write-back after a voxel commit, through the same offsets:
/// `e[idx[k]] -= a[k] * delta`. Element-wise with no reduction (a
/// column's band cells are distinct, so order is immaterial), and the
/// same `e - (a * delta)` the scalar walk computes.
pub fn scatter_sub(a: AColumn<'_>, idx: &[u32], e: &mut [f32], delta: f32) {
    check_len(a.len(), idx.len());
    match a {
        AColumn::F32(v) => {
            for (&av, &i) in v.iter().zip(idx) {
                e[i as usize] -= av * delta;
            }
        }
        AColumn::U8 { codes, scale, levels } => {
            for (&c, &i) in codes.iter().zip(idx) {
                e[i as usize] -= dequant(c, scale, levels) * delta;
            }
        }
    }
}

/// `dst[k] += new[k] - old[k]` — SVB scatter of locally-updated error
/// back into the global sinogram. Element-wise (no reduction) and
/// unconditional: `new - old` for an untouched element is `x - x`,
/// which is `+0.0` under round-to-nearest, and adding `+0.0` leaves
/// every value unchanged except a `-0.0` destination, which IEEE 754
/// normalizes to `+0.0` (`(-0.0) + (+0.0) == +0.0`). That sign
/// normalization is value-preserving and applied identically by every
/// backend — one implementation serves them all — so it cannot break
/// the cross-backend/thread/device bitwise contract.
#[inline]
pub fn add_diff(dst: &mut [f32], new: &[f32], old: &[f32]) {
    check_len(dst.len(), new.len());
    check_len(dst.len(), old.len());
    for ((d, &n), &o) in dst.iter_mut().zip(new).zip(old) {
        *d += n - o;
    }
}

/// Weighted dot `Σ x[k] * y[k]`, scalar reference order.
pub fn dot_ref(x: &[f32], y: &[f32]) -> f32 {
    check_len(x.len(), y.len());
    let mut acc = [0.0f32; LANES];
    for (k, (&xv, &yv)) in x.iter().zip(y).enumerate() {
        acc[k % LANES] += xv * yv;
    }
    tree_reduce(acc)
}

/// Weighted dot, chunked 8-wide; bitwise-equal to [`dot_ref`].
pub fn dot_lanes(x: &[f32], y: &[f32]) -> f32 {
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

/// Backend-dispatched weighted dot.
#[inline]
pub fn dot(backend: SimdBackend, x: &[f32], y: &[f32]) -> f32 {
    match resolve(backend) {
        SimdBackend::Lanes => dot_lanes(x, y),
        _ => dot_ref(x, y),
    }
}

/// Linear-interpolation sum `Σ a[k] + frac[k] * (b[k] - a[k])` (FBP
/// backprojection inner reduction), scalar reference order.
pub fn lerp_sum_ref(a: &[f32], b: &[f32], frac: &[f32]) -> f32 {
    check_len(a.len(), b.len());
    check_len(a.len(), frac.len());
    let mut acc = [0.0f32; LANES];
    for k in 0..a.len() {
        acc[k % LANES] += a[k] + frac[k] * (b[k] - a[k]);
    }
    tree_reduce(acc)
}

/// Lerp sum, chunked 8-wide; bitwise-equal to [`lerp_sum_ref`].
pub fn lerp_sum_lanes(a: &[f32], b: &[f32], frac: &[f32]) -> f32 {
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

/// Backend-dispatched lerp sum.
#[inline]
pub fn lerp_sum(backend: SimdBackend, a: &[f32], b: &[f32], frac: &[f32]) -> f32 {
    match resolve(backend) {
        SimdBackend::Lanes => lerp_sum_lanes(a, b, frac),
        _ => lerp_sum_ref(a, b, frac),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        for b in [SimdBackend::Auto, SimdBackend::Scalar, SimdBackend::Lanes] {
            assert_eq!(SimdBackend::parse(b.name()), Some(b));
            assert_eq!(format!("{b}"), b.name());
        }
        assert_eq!(SimdBackend::parse(" Lanes "), Some(SimdBackend::Lanes));
        assert_eq!(SimdBackend::parse("avx512"), None);
        assert_eq!(SimdBackend::parse(""), None);
    }

    #[test]
    fn simd_env_values_parse_or_name_the_variable() {
        assert_eq!(parse_backend_env("scalar"), Ok(SimdBackend::Scalar));
        assert_eq!(parse_backend_env(" LANES"), Ok(SimdBackend::Lanes));
        assert_eq!(parse_backend_env("auto"), Ok(SimdBackend::Auto));
        for bad in ["lane", "", "avx2"] {
            let err = parse_backend_env(bad).unwrap_err();
            assert!(err.contains("MBIR_SIMD") && err.contains("auto, scalar, lanes"), "{err}");
        }
    }

    #[test]
    fn resolve_prefers_explicit_then_process_then_lanes() {
        assert_eq!(resolve(SimdBackend::Scalar), SimdBackend::Scalar);
        assert_eq!(resolve(SimdBackend::Lanes), SimdBackend::Lanes);
        set_backend(SimdBackend::Scalar);
        assert_eq!(resolve(SimdBackend::Auto), SimdBackend::Scalar);
        // An explicit request still beats the process setting.
        assert_eq!(resolve(SimdBackend::Lanes), SimdBackend::Lanes);
        set_backend(SimdBackend::Auto);
        if std::env::var("MBIR_SIMD").is_err() {
            assert_eq!(resolve(SimdBackend::Auto), SimdBackend::Lanes);
        }
    }

    #[test]
    fn tree_reduce_matches_spelled_out_tree() {
        let l = [1.0f32, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 0.5];
        let expect = ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
        assert_eq!(tree_reduce(l).to_bits(), expect.to_bits());
    }

    /// Distinct pseudo-random offsets of `n` elements into a band of
    /// `n + pad` cells (a seeded Fisher-Yates prefix).
    fn scattered_offsets(n: usize, pad: usize, seed: u64) -> Vec<u32> {
        let mut cells: Vec<u32> = (0..(n + pad) as u32).collect();
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

    /// Entry `k` of a column as the scalar reference reads it.
    fn entry(a: AColumn<'_>, k: usize) -> f32 {
        match a {
            AColumn::F32(v) => v[k],
            AColumn::U8 { codes, scale, levels } => dequant(codes[k], scale, levels),
        }
    }

    /// The reference the gather kernel must match: the scalar
    /// accumulator over the gathered triples.
    fn acc_over(a: AColumn<'_>, idx: &[u32], e: &[f32], w: &[f32]) -> (f32, f32) {
        let mut acc = ThetaAcc::new();
        for (k, &i) in idx.iter().enumerate() {
            acc.push(entry(a, k), e[i as usize], w[i as usize]);
        }
        acc.finish()
    }

    #[test]
    fn theta_gather_matches_acc_on_fixed_input() {
        let n = 29; // deliberately n % 8 != 0
        let a: Vec<f32> = (0..n).map(|k| 0.01 + k as f32 * 0.37).collect();
        let idx = scattered_offsets(n, 11, 5);
        let e: Vec<f32> = (0..n + 11).map(|k| (k as f32).sin()).collect();
        let w: Vec<f32> = (0..n + 11).map(|k| 1.0 / (1.0 + k as f32)).collect();
        let r = acc_over(AColumn::F32(&a), &idx, &e, &w);
        let l = theta_gather(AColumn::F32(&a), &idx, &e, &w);
        assert_eq!(r.0.to_bits(), l.0.to_bits());
        assert_eq!(r.1.to_bits(), l.1.to_bits());
    }

    #[test]
    fn gather_kernels_on_an_empty_column_are_no_ops() {
        let band = [1.0f32, 2.0, 3.0];
        for a in [AColumn::F32(&[]), AColumn::U8 { codes: &[], scale: 1.0, levels: 255.0 }] {
            let (t1, t2) = theta_gather(a, &[], &band, &band);
            assert_eq!((t1.to_bits(), t2.to_bits()), (0.0f32.to_bits(), 0.0f32.to_bits()));
            let mut e = band;
            scatter_sub(a, &[], &mut e, 5.0);
            assert_eq!(e, band);
        }
    }

    #[test]
    fn scatter_sub_matches_per_element() {
        let a = [0.5f32, 0.25, 1.5];
        let mut e = [10.0f32, 20.0, 30.0, 40.0];
        scatter_sub(AColumn::F32(&a), &[3, 0, 1], &mut e, 2.0);
        assert_eq!(e, [9.5, 17.0, 30.0, 39.0]);
    }

    #[test]
    fn add_diff_on_untouched_elements_is_identity() {
        let old = [1.5f32, -0.0, 3.25];
        let new = old;
        let mut dst = [7.0f32, 11.0, f32::MIN_POSITIVE];
        let before: Vec<u32> = dst.iter().map(|v| v.to_bits()).collect();
        add_diff(&mut dst, &new, &old);
        let after: Vec<u32> = dst.iter().map(|v| v.to_bits()).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn add_diff_normalizes_negative_zero_destinations() {
        // The one bit pattern a zero diff can change: -0.0 + (+0.0) is
        // +0.0. Values are untouched; only the zero's sign is.
        let mut dst = [-0.0f32];
        add_diff(&mut dst, &[2.0], &[2.0]);
        assert_eq!(dst[0].to_bits(), 0.0f32.to_bits());
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
                let mut e = vec![-7.5f32; n + pad];
                let mut w = vec![0.25f32; n + pad];
                for (k, &i) in idx.iter().enumerate() {
                    e[i as usize] = e_run[k];
                    w[i as usize] = w_run[k];
                }
                let r = acc_over(AColumn::F32(&a), &idx, &e, &w);
                let l = theta_gather(AColumn::F32(&a), &idx, &e, &w);
                prop_assert_eq!(r.0.to_bits(), l.0.to_bits());
                prop_assert_eq!(r.1.to_bits(), l.1.to_bits());
            }

            #[test]
            fn theta_gather_u8_bitwise_equals_acc(
                codes in prop::collection::vec(0u8..=255, 0..67),
                scale in 0.0f32..10.0,
                bits in 1u32..=8,
                pad in 0usize..24,
                seed in 0u64..1000,
            ) {
                // The inline dequantization must round exactly as the
                // reference's canonical `code as f32 * scale / levels`.
                let levels = ((1u32 << bits) - 1) as f32;
                let n = codes.len();
                let idx = scattered_offsets(n, pad, seed);
                let e: Vec<f32> = (0..n + pad).map(|k| ((k as u64 * 31 + seed) % 997) as f32 * 0.013 - 6.0).collect();
                let w: Vec<f32> = (0..n + pad).map(|k| ((k as u64 * 17 + seed) % 991) as f32 * 0.001).collect();
                let a = AColumn::U8 { codes: &codes, scale, levels };
                let r = acc_over(a, &idx, &e, &w);
                let l = theta_gather(a, &idx, &e, &w);
                prop_assert_eq!(r.0.to_bits(), l.0.to_bits());
                prop_assert_eq!(r.1.to_bits(), l.1.to_bits());
            }

            #[test]
            fn scatter_sub_bitwise_equals_scalar_walk(
                codes in prop::collection::vec(0u8..=255, 0..67),
                scale in 0.0f32..10.0,
                delta in -2.0f32..2.0,
                pad in 0usize..24,
                seed in 0u64..1000,
            ) {
                let levels = 255.0f32;
                let n = codes.len();
                let idx = scattered_offsets(n, pad, seed);
                let values: Vec<f32> = codes.iter().map(|&c| c as f32 * 0.01).collect();
                for a in [AColumn::U8 { codes: &codes, scale, levels }, AColumn::F32(&values)] {
                    let mut e1: Vec<f32> = (0..n + pad).map(|k| k as f32 * 0.11 - 3.0).collect();
                    let mut e2 = e1.clone();
                    scatter_sub(a, &idx, &mut e1, delta);
                    for (k, &i) in idx.iter().enumerate() {
                        e2[i as usize] -= entry(a, k) * delta;
                    }
                    let b1: Vec<u32> = e1.iter().map(|v| v.to_bits()).collect();
                    let b2: Vec<u32> = e2.iter().map(|v| v.to_bits()).collect();
                    prop_assert_eq!(b1, b2);
                }
            }

            #[test]
            fn dot_lanes_bitwise_equals_ref(t in triple(67)) {
                let (x, y, _w) = unzip3(t);
                prop_assert_eq!(dot_ref(&x, &y).to_bits(), dot_lanes(&x, &y).to_bits());
            }

            #[test]
            fn lerp_sum_lanes_bitwise_equals_ref(t in triple(67)) {
                // frac in [0, 1e3) is fine: the identity is bitwise, not geometric.
                let (a, b, f) = unzip3(t);
                let r = lerp_sum_ref(&a, &b, &f);
                let l = lerp_sum_lanes(&a, &b, &f);
                prop_assert_eq!(r.to_bits(), l.to_bits());
            }
        }
    }
}
