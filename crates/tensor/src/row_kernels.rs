//! The row kernels of the linear envelope: the **one** definition of INT8 rounding, and
//! the **one** `exp`.
//!
//! Every quantized GEMM is wrapped in an envelope the paper's datapath gets for free in
//! hardware (Sec. III-B): f32 activations are quantized to INT8 codes per row, and the INT32
//! accumulator is converted back — de-quantized, or re-quantized with saturation at ±127,
//! the mechanism behind Q1.2. In software that envelope is one pass over every operand and
//! every result, so it is worth exactly as much care as the GEMM it wraps. This module holds
//! its primitives, per row, behind the same runtime dispatch as the GEMM microkernels
//! ([`SimdTier`]; `REALM_FORCE_SCALAR` pins portable):
//!
//! * [`RowKernels::abs_max`] — the symmetric scale's numerator;
//! * [`RowKernels::quantize_row`] — `round(v / scale)` saturated to ±127;
//! * [`RowKernels::requantize_row`] (and [`RowKernels::dequantize_row`] for components
//!   that stay in floating point) — accumulator → `code · out_scale`;
//! * [`RowKernels::kth_largest_magnitude`] — the order statistic behind the robust
//!   (99th-percentile) requantization scale, selected on the integers themselves;
//! * [`RowKernels::max`] and [`RowKernels::exp_row`] (`exp(v − shift)`) — the two passes of
//!   a numerically stable softmax, and [`RowKernels::silu_row`] — `v · sigmoid(v)`: the
//!   nonlinearities the paper keeps in floating point, outside the protected array.
//!
//! Everything else that rounds to INT8 — [`crate::quant`], `realm-llm`'s per-row
//! quantizer, its KV cache and its attention probabilities — calls these, and so does
//! everything that exponentiates: `realm-llm`'s softmax and SiLU.
//!
//! # The rounding, without libm
//!
//! The definition is [`round_to_code`]: round half away from zero, saturate at ±127, NaN to
//! 0. It is *computed* as
//!
//! ```text
//! c    = clamp(t, −127.25, +127.25)
//! code = trunc(c + copysign(0.49999997, c))        0.49999997 = 0.5 − 2⁻²⁵
//! ```
//!
//! which needs no `roundf` call (the default x86-64 target has no SSE4.1 `roundss`, so
//! `f32::round` is a libm call per element) and maps one-to-one onto vector instructions.
//! It is exact, not approximate:
//!
//! * Anything at or beyond ±127.25 rounds to ±127 or saturates there, and so does
//!   `trunc(±127.25 ± 0.49999997) = ±127`.
//! * Inside, write `c = n + f` with `n = ⌊c⌋ ≥ 0`. If `f < ½` then `f ≤ ½ − ulp(c)`, so the
//!   exact sum is at most `n + 1 − ulp(c) − 2⁻²⁵`, below the largest float under `n + 1`:
//!   the f32 addition cannot reach `n + 1` and truncation yields `n`. If `f ≥ ½` the exact
//!   sum is at least `n + 1 − 2⁻²⁵`, which is nearer to `n + 1` than to the float below it
//!   (for `n = 0` it is the exact midpoint, and ties-to-even picks `1.0`): the sum rounds up
//!   to `n + 1`. Negative values mirror this. Adding `0.5` instead would get
//!   `0.49999997 → 1` wrong — hence the constant.
//!
//! The argument is checked against `t.round().clamp(-127.0, 127.0) as i8` on all 2³² bit
//! patterns, on every tier, by this module's `#[ignore]`d release test. The quotient `t`
//! itself is always a true IEEE division (`vdivps`), never a reciprocal multiply.
//!
//! # The exp, without libm
//!
//! [`exp`] is the workspace's exponential. libm's `expf` costs a call per element and is
//! not one function: glibc picks an FMA or a non-FMA variant by CPU, so logits computed
//! with it could differ between hosts. [`exp`] uses neither libm nor `mul_add`, and Rust
//! never fuses `a · b + c` by itself, so every tier rounds every step the same way. It is
//! the Cephes `expf` scheme:
//!
//! ```text
//! c = min(x, 89)                                  clamp: keeps k ≤ 128
//! k = round(c · log₂e)                            c · log₂e + 1.5·2²³ − 1.5·2²³ (ties to even)
//! r = (c − k · 0.693359375) − k · (−2.12194440e−4)  Cody–Waite: ln 2 = hi + lo, k · hi exact
//! p = ((((( 1.9875691500e−4 · r + 1.3981999507e−3) · r + 8.3334519073e−3) · r
//!          + 4.1665795894e−2) · r + 1.6666665459e−1) · r + 0.5) · r² + r + 1
//! exp(x) = p · 2^⌊k/2⌋ · 2^(k − ⌊k/2⌋)             each factor built from exponent bits
//! ```
//!
//! * The integer `k` is read off the magic sum's low mantissa bits, so no conversion
//!   instruction is needed. `hi` has nine significant bits, so `k · hi` and `c − k · hi`
//!   are exact for every `|k| ≤ 128`.
//! * `k` ranges over `[−126, 128]` for every input that is not flushed, and both halves of
//!   `2ᵏ` are normal floats. The first product is exact, and the second rounds once.
//! * **Flush:** inputs below `ln 2⁻¹²⁶` (`x < −87.33654`, the float just above it) return
//!   `+0`, so no result is subnormal.
//! * **Clamp:** every input above `ln f32::MAX` (≈ 88.72284, including `+∞`) returns `+∞`.
//!   At the clamp the last product overflows by itself.
//! * **Specials:** `exp(±0) = 1` exactly (so a softmax row's maximum weighs exactly 1),
//!   `exp(−∞) = +0`, `exp(+∞) = +∞`, and a NaN returns that NaN, quietened.
//! * **Accuracy:** at most 0.991 ulp from the exact exponential (0.9903 at `x = 70.4031`),
//!   and within half an ulp on 99.2% of inputs. This is measured over every input that is
//!   not flushed by this module's `#[ignore]`d release test. The same test checks that every
//!   tier equals [`exp`] bit for bit on all 2³² bit patterns. Being a polynomial, [`exp`]
//!   is not correctly rounded, so it can differ from libm's `expf` in the last bit.
//!
//! # Tiers
//!
//! Two: the portable tier is the scalar definition in a loop, the AVX2 tier hand-written
//! intrinsics over 8 lanes. They are bit-identical on every input (tested row by row here,
//! and on whole models by the CI backend canary). An AVX-512 host runs the AVX2 row
//! kernels: 16 lanes bought 4–14% per element in cache and nothing measurable end to end
//! (at serving shapes the envelope is memory-bound), so a third tier waits for a measured
//! `tokens_per_s` gain. That was measured on the rounding kernels; the compute-bound exp
//! kernels have not been tried at 16 lanes. The tier is resolved once per process
//! ([`SimdTier::detect`]), so dispatching a row never reads the environment.

use crate::simd::SimdTier;

/// `0.5 − 2⁻²⁵`, the largest f32 below one half (see the [module documentation](self)).
const HALF_BELOW: f32 = 0.499_999_97;
/// Pre-rounding clamp: every quotient at or beyond it lands on the ±127 rail.
const CODE_CLAMP: f32 = 127.25;
/// Largest `k` the streaming top-k selection of [`RowKernels::kth_largest_magnitude`]
/// keeps on the stack; beyond it the row is copied and partitioned.
const STREAM_K: usize = 16;

/// [`exp`]'s clamp: above `ln f32::MAX` every result is `+∞`, and at 89 `k` is still 128.
const EXP_CLAMP: f32 = 89.0;
/// [`exp`]'s flush: the smallest float above `ln 2⁻¹²⁶`; below it the result is `+0`.
const EXP_FLUSH: f32 = -87.336_54;
/// `1.5 · 2²³`: adding it rounds to an integer, which lands in the sum's low mantissa bits.
const ROUND_MAGIC: f32 = 12_582_912.0;
/// The high half of the Cody–Waite split of ln 2 (0.693359375, nine significant bits).
const LN2_HI: f32 = 355.0 / 512.0;
/// The low half: `ln 2 − LN2_HI`.
const LN2_LO: f32 = -2.121_944_4e-4;
/// Cephes `expf`'s coefficients, highest degree first: `exp(r) ≈ 1 + r + r² · P(r)`.
const EXP_POLY: [f32; 6] = [
    1.987_569_1e-4,
    1.398_199_9e-3,
    8.333_452e-3,
    4.166_579_6e-2,
    0.166_666_66,
    0.5,
];

/// Rounds a quotient `t = value / scale` to its INT8 code: half away from zero, saturated
/// at ±127, NaN to 0 — equal to `t.round().clamp(-127.0, 127.0) as i8` on every input.
///
/// This is the workspace's definition of INT8 rounding; the row kernels are its
/// vectorisations.
#[inline]
pub fn round_to_code(t: f32) -> i8 {
    let c = t.clamp(-CODE_CLAMP, CODE_CLAMP);
    // NaN survives the clamp and the addition, and a NaN → integer cast is 0.
    (c + HALF_BELOW.copysign(c)) as i32 as i8
}

/// The exponential `eˣ` in f32, without libm: within 0.991 ulp of the exact value, `+0`
/// below `ln 2⁻¹²⁶`, `+∞` above `ln f32::MAX`, NaN to NaN (see the
/// [module documentation](self)).
///
/// This is the workspace's definition of `exp`; [`RowKernels::exp_row`] and
/// [`RowKernels::silu_row`] are its vectorisations.
#[inline]
pub fn exp(x: f32) -> f32 {
    // NaN fails the comparison and flows through every step below.
    let c = if x > EXP_CLAMP { EXP_CLAMP } else { x };
    let t = c * std::f32::consts::LOG2_E + ROUND_MAGIC;
    // Wrapping: a NaN or flushed input yields a garbage `k`, whose result is discarded.
    let k = (t.to_bits() as i32).wrapping_sub(ROUND_MAGIC.to_bits() as i32);
    let kf = t - ROUND_MAGIC;
    let r = c - kf * LN2_HI - kf * LN2_LO;
    let p = EXP_POLY[1..]
        .iter()
        .fold(EXP_POLY[0], |p, &coeff| p * r + coeff);
    let p = p * (r * r) + r + 1.0;
    let y = p * pow2(k >> 1) * pow2(k - (k >> 1));
    if x < EXP_FLUSH {
        0.0
    } else {
        y
    }
}

/// The logistic sigmoid `1 / (1 + exp(−v))`, on [`exp`].
#[inline]
pub fn sigmoid(v: f32) -> f32 {
    1.0 / (1.0 + exp(-v))
}

/// `2ᵏ` from its exponent bits, for `−126 ≤ k ≤ 127`.
#[inline]
fn pow2(k: i32) -> f32 {
    f32::from_bits((k.wrapping_add(127) as u32) << 23)
}

/// Handle on the row kernels of one instruction-set tier.
///
/// The tier is private and only ever one the host grants, which is what the `unsafe`
/// dispatch relies on (the same arrangement as the GEMM kernels' tier).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowKernels {
    tier: SimdTier,
}

impl RowKernels {
    /// The best tier the host grants ([`SimdTier::detect`], resolved once per process).
    pub fn granted() -> Self {
        Self {
            tier: SimdTier::detect(),
        }
    }

    /// Kernels pinned to at most `tier`, clamped to [`RowKernels::granted`] — the
    /// explicit-tier entry point the tier-parity tests use.
    #[doc(hidden)]
    pub fn with_tier(tier: SimdTier) -> Self {
        Self {
            tier: tier.min(Self::granted().tier),
        }
    }

    /// Largest `|v|` of `row`, ignoring NaNs (0.0 for an empty or all-NaN row) —
    /// `row.iter().fold(0.0, |m, v| m.max(v.abs()))`.
    pub fn abs_max(self, row: &[f32]) -> f32 {
        #[cfg(target_arch = "x86_64")]
        let bits = if self.tier >= SimdTier::Avx2 {
            // SAFETY: an accelerated tier is only granted when AVX2 was detected.
            unsafe { avx2::abs_max_bits(row) }
        } else {
            scalar::abs_max_bits(row)
        };
        #[cfg(not(target_arch = "x86_64"))]
        let bits = scalar::abs_max_bits(row);
        // With the sign bit cleared, IEEE order is integer order — except that NaN patterns
        // sort above infinity. Only then is the NaN-ignoring fold needed.
        if bits > f32::INFINITY.to_bits() {
            row.iter().fold(0.0f32, |m, v| m.max(v.abs()))
        } else {
            f32::from_bits(bits)
        }
    }

    /// `codes[i] = round_to_code(row[i] / scale)`.
    ///
    /// # Panics
    ///
    /// Panics if `row` and `codes` differ in length.
    pub fn quantize_row(self, row: &[f32], scale: f32, codes: &mut [i8]) {
        assert_eq!(row.len(), codes.len(), "one code per element");
        #[cfg(target_arch = "x86_64")]
        if self.tier >= SimdTier::Avx2 {
            // SAFETY: an accelerated tier is only granted when AVX2 was detected; the
            // slices have equal lengths (asserted above).
            unsafe { avx2::quantize_row(row, scale, codes) };
            return;
        }
        scalar::quantize_row(row, scale, codes);
    }

    /// Re-quantizes one accumulator row and de-quantizes it again in a single pass:
    /// `out[i] = code · out_scale` with
    /// `code = round_to_code((acc[i] as f32 · combined_scale) / out_scale)`.
    ///
    /// # Panics
    ///
    /// Panics if `acc` and `out` differ in length.
    pub fn requantize_row(self, acc: &[i32], combined_scale: f32, out_scale: f32, out: &mut [f32]) {
        assert_eq!(acc.len(), out.len(), "one output per accumulator");
        #[cfg(target_arch = "x86_64")]
        if self.tier >= SimdTier::Avx2 {
            // SAFETY: AVX2 detected for every accelerated tier; equal lengths asserted.
            unsafe { avx2::requantize_row(acc, combined_scale, out_scale, out) };
            return;
        }
        scalar::requantize_row(acc, combined_scale, out_scale, out);
    }

    /// De-quantizes one accumulator row without clipping: `out[i] = acc[i] as f32 · scale`.
    ///
    /// # Panics
    ///
    /// Panics if `acc` and `out` differ in length.
    pub fn dequantize_row(self, acc: &[i32], scale: f32, out: &mut [f32]) {
        assert_eq!(acc.len(), out.len(), "one output per accumulator");
        #[cfg(target_arch = "x86_64")]
        if self.tier >= SimdTier::Avx2 {
            // SAFETY: AVX2 detected for every accelerated tier; equal lengths asserted.
            unsafe { avx2::dequantize_row(acc, scale, out) };
            return;
        }
        scalar::dequantize_row(acc, scale, out);
    }

    /// Largest value of `row`, ignoring NaNs (`−∞` for an empty or all-NaN row; a zero
    /// maximum is `+0.0`) — `row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v))`.
    pub fn max(self, row: &[f32]) -> f32 {
        #[cfg(target_arch = "x86_64")]
        let max = if self.tier >= SimdTier::Avx2 {
            // SAFETY: an accelerated tier is only granted when AVX2 was detected.
            unsafe { avx2::max(row) }
        } else {
            scalar::max(row)
        };
        #[cfg(not(target_arch = "x86_64"))]
        let max = scalar::max(row);
        // Which zero wins a max depends on the order of the comparisons; `−0 + 0` is `+0`.
        max + 0.0
    }

    /// `row[i] = exp(row[i] − shift)`, with [`exp`].
    pub fn exp_row(self, row: &mut [f32], shift: f32) {
        #[cfg(target_arch = "x86_64")]
        if self.tier >= SimdTier::Avx2 {
            // SAFETY: an accelerated tier is only granted when AVX2 was detected.
            unsafe { avx2::exp_row(row, shift) };
            return;
        }
        scalar::exp_row(row, shift);
    }

    /// `row[i] = row[i] · sigmoid(row[i])` (SiLU), with [`sigmoid`]: the same two roundings
    /// — a division, then a multiplication — on every tier.
    pub fn silu_row(self, row: &mut [f32]) {
        #[cfg(target_arch = "x86_64")]
        if self.tier >= SimdTier::Avx2 {
            // SAFETY: an accelerated tier is only granted when AVX2 was detected.
            unsafe { avx2::silu_row(row) };
            return;
        }
        scalar::silu_row(row);
    }

    /// The `k`-th largest of `|acc[i]|` (as `u32`, so `i32::MIN` is `2³¹`); `k = 1` is the
    /// maximum, `k = acc.len()` the minimum.
    ///
    /// Small `k` — the robust requantization scale asks for the 2nd to 6th largest of a
    /// few hundred — streams the row once against the running `k`-th largest and only
    /// leaves the vector compare for the rare element that beats it, with no scratch.
    /// Larger `k` (rows wider than any the models here produce) copies the magnitudes and
    /// partitions them.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= k <= acc.len()`.
    pub fn kth_largest_magnitude(self, acc: &[i32], k: usize) -> u32 {
        assert!(
            (1..=acc.len()).contains(&k),
            "k = {k} is not a rank among {} elements",
            acc.len()
        );
        if k > STREAM_K {
            let mut mags: Vec<u32> = acc.iter().map(|v| v.unsigned_abs()).collect();
            return *mags.select_nth_unstable(acc.len() - k).1;
        }
        // `top[..k]` ascending: the k largest magnitudes seen so far, padded with zeros
        // (which no magnitude is below, so the padding never outranks a real element).
        let mut top = [0u32; STREAM_K];
        let top = &mut top[..k];
        #[cfg(target_arch = "x86_64")]
        if self.tier >= SimdTier::Avx2 {
            // SAFETY: AVX2 detected for every accelerated tier.
            unsafe { avx2::stream_top_k(acc, top) };
            return top[0];
        }
        scalar::stream_top_k(acc, top);
        top[0]
    }
}

/// Records `m` among the `k` largest magnitudes `top` (ascending) if it beats the
/// smallest of them.
#[inline]
fn offer(top: &mut [u32], m: u32) {
    if m <= top[0] {
        return;
    }
    let mut i = 0;
    while i + 1 < top.len() && top[i + 1] < m {
        top[i] = top[i + 1];
        i += 1;
    }
    top[i] = m;
}

/// The scalar tier: [`round_to_code`], [`exp`] and [`sigmoid`] in a loop. Also the tail of
/// every vector loop.
mod scalar {
    use super::{exp, offer, round_to_code, sigmoid};

    pub(super) fn max(row: &[f32]) -> f32 {
        row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v))
    }

    pub(super) fn exp_row(row: &mut [f32], shift: f32) {
        for v in row {
            *v = exp(*v - shift);
        }
    }

    pub(super) fn silu_row(row: &mut [f32]) {
        for v in row {
            *v *= sigmoid(*v);
        }
    }

    pub(super) fn abs_max_bits(row: &[f32]) -> u32 {
        row.iter().fold(0, |m, v| m.max(v.to_bits() & 0x7fff_ffff))
    }

    pub(super) fn quantize_row(row: &[f32], scale: f32, codes: &mut [i8]) {
        for (code, &v) in codes.iter_mut().zip(row) {
            *code = round_to_code(v / scale);
        }
    }

    pub(super) fn requantize_row(acc: &[i32], combined: f32, out_scale: f32, out: &mut [f32]) {
        for (o, &v) in out.iter_mut().zip(acc) {
            let real = v as f32 * combined;
            *o = round_to_code(real / out_scale) as f32 * out_scale;
        }
    }

    pub(super) fn dequantize_row(acc: &[i32], scale: f32, out: &mut [f32]) {
        for (o, &v) in out.iter_mut().zip(acc) {
            *o = v as f32 * scale;
        }
    }

    pub(super) fn stream_top_k(acc: &[i32], top: &mut [u32]) {
        for &v in acc {
            offer(top, v.unsigned_abs());
        }
    }
}

/// The AVX2 tier: 8 lanes. Every function carries `#[target_feature(enable = "avx2")]` and
/// must only be called once AVX2 was detected.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{
        scalar, CODE_CLAMP, EXP_CLAMP, EXP_FLUSH, EXP_POLY, HALF_BELOW, LN2_HI, LN2_LO, ROUND_MAGIC,
    };
    use std::arch::x86_64::*;

    const LANES: usize = 8;

    /// [`super::exp`] on 8 lanes, step for step.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn exp8(x: __m256) -> __m256 {
        // `vminps` returns its second operand unless the first is smaller: `x` when NaN.
        let c = _mm256_min_ps(_mm256_set1_ps(EXP_CLAMP), x);
        let magic = _mm256_set1_ps(ROUND_MAGIC);
        let log2e = _mm256_set1_ps(std::f32::consts::LOG2_E);
        let t = _mm256_add_ps(_mm256_mul_ps(c, log2e), magic);
        let k = _mm256_sub_epi32(_mm256_castps_si256(t), _mm256_castps_si256(magic));
        let kf = _mm256_sub_ps(t, magic);
        let r = _mm256_sub_ps(c, _mm256_mul_ps(kf, _mm256_set1_ps(LN2_HI)));
        let r = _mm256_sub_ps(r, _mm256_mul_ps(kf, _mm256_set1_ps(LN2_LO)));
        let mut p = _mm256_set1_ps(EXP_POLY[0]);
        for &coeff in &EXP_POLY[1..] {
            p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(coeff));
        }
        let p = _mm256_mul_ps(p, _mm256_mul_ps(r, r));
        let p = _mm256_add_ps(_mm256_add_ps(p, r), _mm256_set1_ps(1.0));
        let half = _mm256_srai_epi32::<1>(k);
        let y = _mm256_mul_ps(
            _mm256_mul_ps(p, pow2(half)),
            pow2(_mm256_sub_epi32(k, half)),
        );
        let flushed = _mm256_cmp_ps::<_CMP_LT_OQ>(x, _mm256_set1_ps(EXP_FLUSH));
        _mm256_andnot_ps(flushed, y)
    }

    /// [`super::pow2`] on 8 lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn pow2(k: __m256i) -> __m256 {
        let biased = _mm256_add_epi32(k, _mm256_set1_epi32(127));
        _mm256_castsi256_ps(_mm256_slli_epi32::<23>(biased))
    }

    /// [`super::round_to_code`] on 8 quotients; the codes come back as `i32` lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn round_codes(t: __m256) -> __m256i {
        // NaN lanes become +0.0 first: `vmaxps`/`vminps` would hand back the bound and
        // `vcvttps2dq` the integer indefinite, neither of which is the scalar cast's 0.
        let t = _mm256_and_ps(t, _mm256_cmp_ps::<_CMP_ORD_Q>(t, t));
        let c = _mm256_min_ps(
            _mm256_max_ps(t, _mm256_set1_ps(-CODE_CLAMP)),
            _mm256_set1_ps(CODE_CLAMP),
        );
        let half = _mm256_or_ps(
            _mm256_and_ps(c, _mm256_set1_ps(-0.0)),
            _mm256_set1_ps(HALF_BELOW),
        );
        _mm256_cvttps_epi32(_mm256_add_ps(c, half))
    }

    /// # Safety
    ///
    /// AVX2 must be available.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn abs_max_bits(row: &[f32]) -> u32 {
        let body = row.len() - row.len() % LANES;
        let mask = _mm256_set1_epi32(0x7fff_ffff);
        let mut max = _mm256_setzero_si256();
        for i in (0..body).step_by(LANES) {
            // SAFETY: `i + LANES <= body <= row.len()`.
            let bits = _mm256_loadu_si256(row.as_ptr().add(i).cast());
            max = _mm256_max_epu32(max, _mm256_and_si256(bits, mask));
        }
        let mut lanes = [0u32; LANES];
        _mm256_storeu_si256(lanes.as_mut_ptr().cast(), max);
        let tail = scalar::abs_max_bits(&row[body..]);
        lanes.iter().fold(tail, |m, &v| m.max(v))
    }

    /// # Safety
    ///
    /// AVX2 must be available and `row.len() == codes.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn quantize_row(row: &[f32], scale: f32, codes: &mut [i8]) {
        let body = row.len() - row.len() % LANES;
        let scale_v = _mm256_set1_ps(scale);
        for i in (0..body).step_by(LANES) {
            // SAFETY: `i + LANES <= body <= row.len() == codes.len()`, so the 32-byte load
            // and the 8-byte store below stay inside their slices.
            let q = round_codes(_mm256_div_ps(_mm256_loadu_ps(row.as_ptr().add(i)), scale_v));
            // |code| <= 127, so both saturating packs are plain narrowings.
            let words =
                _mm_packs_epi32(_mm256_castsi256_si128(q), _mm256_extracti128_si256::<1>(q));
            let bytes = _mm_packs_epi16(words, words);
            _mm_storel_epi64(codes.as_mut_ptr().add(i).cast(), bytes);
        }
        scalar::quantize_row(&row[body..], scale, &mut codes[body..]);
    }

    /// # Safety
    ///
    /// AVX2 must be available and `acc.len() == out.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn requantize_row(
        acc: &[i32],
        combined: f32,
        out_scale: f32,
        out: &mut [f32],
    ) {
        let body = acc.len() - acc.len() % LANES;
        let (combined_v, out_v) = (_mm256_set1_ps(combined), _mm256_set1_ps(out_scale));
        for i in (0..body).step_by(LANES) {
            // SAFETY: `i + LANES <= body <= acc.len() == out.len()`.
            let v = _mm256_loadu_si256(acc.as_ptr().add(i).cast());
            let real = _mm256_mul_ps(_mm256_cvtepi32_ps(v), combined_v);
            let q = round_codes(_mm256_div_ps(real, out_v));
            let y = _mm256_mul_ps(_mm256_cvtepi32_ps(q), out_v);
            _mm256_storeu_ps(out.as_mut_ptr().add(i), y);
        }
        scalar::requantize_row(&acc[body..], combined, out_scale, &mut out[body..]);
    }

    /// # Safety
    ///
    /// AVX2 must be available and `acc.len() == out.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dequantize_row(acc: &[i32], scale: f32, out: &mut [f32]) {
        let body = acc.len() - acc.len() % LANES;
        let scale_v = _mm256_set1_ps(scale);
        for i in (0..body).step_by(LANES) {
            // SAFETY: `i + LANES <= body <= acc.len() == out.len()`.
            let v = _mm256_loadu_si256(acc.as_ptr().add(i).cast());
            let y = _mm256_mul_ps(_mm256_cvtepi32_ps(v), scale_v);
            _mm256_storeu_ps(out.as_mut_ptr().add(i), y);
        }
        scalar::dequantize_row(&acc[body..], scale, &mut out[body..]);
    }

    /// # Safety
    ///
    /// AVX2 must be available.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn max(row: &[f32]) -> f32 {
        let body = row.len() - row.len() % LANES;
        let mut max = _mm256_set1_ps(f32::NEG_INFINITY);
        for i in (0..body).step_by(LANES) {
            // SAFETY: `i + LANES <= body <= row.len()`. `vmaxps` keeps its second operand
            // unless the first is larger, so a NaN element leaves the running max alone.
            max = _mm256_max_ps(_mm256_loadu_ps(row.as_ptr().add(i)), max);
        }
        let mut lanes = [0.0f32; LANES];
        _mm256_storeu_ps(lanes.as_mut_ptr(), max);
        let tail = scalar::max(&row[body..]);
        lanes.iter().fold(tail, |m, &v| m.max(v))
    }

    /// # Safety
    ///
    /// AVX2 must be available.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn exp_row(row: &mut [f32], shift: f32) {
        let body = row.len() - row.len() % LANES;
        let shift_v = _mm256_set1_ps(shift);
        for i in (0..body).step_by(LANES) {
            // SAFETY: `i + LANES <= body <= row.len()`.
            let p = row.as_mut_ptr().add(i);
            _mm256_storeu_ps(p, exp8(_mm256_sub_ps(_mm256_loadu_ps(p), shift_v)));
        }
        scalar::exp_row(&mut row[body..], shift);
    }

    /// # Safety
    ///
    /// AVX2 must be available.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn silu_row(row: &mut [f32]) {
        let body = row.len() - row.len() % LANES;
        let (one, sign) = (_mm256_set1_ps(1.0), _mm256_set1_ps(-0.0));
        for i in (0..body).step_by(LANES) {
            // SAFETY: `i + LANES <= body <= row.len()`.
            let p = row.as_mut_ptr().add(i);
            let v = _mm256_loadu_ps(p);
            let e = exp8(_mm256_xor_ps(v, sign));
            let sigmoid = _mm256_div_ps(one, _mm256_add_ps(one, e));
            _mm256_storeu_ps(p, _mm256_mul_ps(v, sigmoid));
        }
        scalar::silu_row(&mut row[body..]);
    }

    /// # Safety
    ///
    /// AVX2 must be available.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn stream_top_k(acc: &[i32], top: &mut [u32]) {
        let body = acc.len() - acc.len() % LANES;
        for i in (0..body).step_by(LANES) {
            // SAFETY: `i + LANES <= body <= acc.len()`.
            let mags = _mm256_abs_epi32(_mm256_loadu_si256(acc.as_ptr().add(i).cast()));
            // Unsigned `mags <= threshold` in every lane <=> max(mags, threshold) == threshold
            // (`vpabsd` leaves i32::MIN as 0x8000_0000, which is 2^31 unsigned).
            let threshold = _mm256_set1_epi32(top[0] as i32);
            let below = _mm256_cmpeq_epi32(_mm256_max_epu32(mags, threshold), threshold);
            if _mm256_movemask_epi8(below) != -1 {
                scalar::stream_top_k(&acc[i..i + LANES], top);
            }
        }
        scalar::stream_top_k(&acc[body..], top);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng;
    use rand::Rng;

    /// The definition the kernels must reproduce, via libm.
    fn oracle(t: f32) -> i8 {
        t.round().clamp(-127.0, 127.0) as i8
    }

    /// The portable tier, then the granted one if the host has something better.
    fn granted_tiers() -> Vec<RowKernels> {
        let mut tiers = vec![RowKernels::with_tier(SimdTier::Portable)];
        if RowKernels::granted() != tiers[0] {
            tiers.push(RowKernels::granted());
        }
        tiers
    }

    /// `quantize_row` at scale 1.0 (`v / 1.0` is `v`) against the oracle, on every tier.
    fn assert_rounds_like_the_oracle(values: &[f32]) {
        let expected: Vec<i8> = values.iter().map(|&t| oracle(t)).collect();
        let mut codes = vec![0i8; values.len()];
        for kernels in granted_tiers() {
            kernels.quantize_row(values, 1.0, &mut codes);
            if codes != expected {
                let at = (0..codes.len()).find(|&i| codes[i] != expected[i]).unwrap();
                panic!(
                    "{:?}: {:e} (bits {:#010x}) rounds to {}, libm says {}",
                    kernels.tier,
                    values[at],
                    values[at].to_bits(),
                    codes[at],
                    expected[at]
                );
            }
        }
    }

    #[test]
    fn rounding_matches_libm_on_every_edge() {
        let mut values = Vec::new();
        // Every exponent (zero, subnormals, every binade, inf/NaN) x the mantissa edges,
        // both signs.
        const MANTISSAS: [u32; 9] = [
            0, 1, 2, 0x3f_ffff, 0x40_0000, 0x40_0001, 0x55_5555, 0x7f_fffe, 0x7f_ffff,
        ];
        for sign in [0u32, 1 << 31] {
            for exponent in 0..=255u32 {
                for mantissa in MANTISSAS {
                    values.push(f32::from_bits(sign | exponent << 23 | mantissa));
                }
            }
        }
        // Every exact .5 tie and every integer out to ±129.5, with both float neighbours.
        for halves in -259..=259 {
            let v = halves as f32 * 0.5;
            // (The "neighbour below" of +0.0 wraps to a NaN pattern, which is welcome too.)
            for bits in [v.to_bits().wrapping_sub(1), v.to_bits(), v.to_bits() + 1] {
                values.push(f32::from_bits(bits));
            }
        }
        values.extend([HALF_BELOW, -HALF_BELOW, CODE_CLAMP, -CODE_CLAMP]);
        values.extend([f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY]);
        values.extend([0.0, -0.0, f32::MIN_POSITIVE, f32::MAX, f32::MIN]);
        assert_rounds_like_the_oracle(&values);
        for &t in &values {
            assert_eq!(round_to_code(t), oracle(t), "{t:e}");
        }
    }

    #[test]
    #[ignore = "all 2^32 bit patterns: cargo test --release -p realm-tensor -- --ignored"]
    fn rounding_matches_libm_on_all_bit_patterns() {
        const CHUNK: u32 = 1 << 16;
        let mut values = vec![0.0f32; CHUNK as usize];
        for base in (0..=u32::MAX).step_by(CHUNK as usize) {
            for (v, bits) in values.iter_mut().zip(base..) {
                *v = f32::from_bits(bits);
            }
            assert_rounds_like_the_oracle(&values);
        }
    }

    /// Bits of `v`, with every NaN collapsed to one pattern: where a NaN meets another NaN
    /// (`v · sigmoid(v)` of a NaN) the payload that survives depends on operand order.
    fn bits_modulo_nan(v: &[f32]) -> Vec<u32> {
        v.iter()
            .map(|x| if x.is_nan() { u32::MAX } else { x.to_bits() })
            .collect()
    }

    /// `|y − exact|` in units of the last place of `exact`'s binade (normal range).
    fn ulps(y: f32, exact: f64) -> f64 {
        let binade = ((exact.to_bits() >> 52) & 0x7ff) as i32 - 1023;
        (y as f64 - exact).abs() / 2f64.powi(binade.max(-126) - 23)
    }

    /// Every tier's `exp_row` at shift 0 (`x − 0 = x` for every input) against [`exp`], bit
    /// for bit; then [`exp`] against the exact exponential: flushed inputs give `+0`,
    /// overflowing ones `+∞`, the rest a finite value. Returns the largest ulp error.
    fn assert_exp_is_its_definition(values: &[f32]) -> f64 {
        let expected: Vec<f32> = values.iter().map(|&x| exp(x)).collect();
        let mut row = values.to_vec();
        for kernels in granted_tiers() {
            row.copy_from_slice(values);
            kernels.exp_row(&mut row, 0.0);
            if let Some(at) = (0..row.len()).find(|&i| row[i].to_bits() != expected[i].to_bits()) {
                panic!(
                    "{:?}: exp({:e}) (bits {:#010x}) is {:e}, the definition says {:e}",
                    kernels.tier,
                    values[at],
                    values[at].to_bits(),
                    row[at],
                    expected[at]
                );
            }
        }
        let mut worst = 0.0f64;
        for (&x, &y) in values.iter().zip(&expected) {
            let exact = (x as f64).exp();
            if x.is_nan() {
                assert!(y.is_nan(), "exp(NaN) = {y:e}");
            } else if x < EXP_FLUSH {
                assert_eq!(y.to_bits(), 0, "exp({x:e}) is flushed to +0");
            } else if exact as f32 == f32::INFINITY {
                assert_eq!(y, f32::INFINITY, "exp({x:e}) overflows");
            } else {
                assert!(
                    y.is_finite() && y >= f32::MIN_POSITIVE,
                    "exp({x:e}) = {y:e}"
                );
                worst = worst.max(ulps(y, exact));
            }
        }
        worst
    }

    /// The measured accuracy of [`exp`] over every input that is not flushed.
    const EXP_MAX_ULPS: f64 = 0.991;

    #[test]
    fn exp_matches_its_definition_on_every_edge() {
        let mut values = Vec::new();
        // Every exponent (zero, subnormals, every binade, inf/NaN) x the mantissa edges,
        // both signs.
        const MANTISSAS: [u32; 7] = [0, 1, 2, 0x40_0000, 0x40_0001, 0x7f_fffe, 0x7f_ffff];
        for sign in [0u32, 1 << 31] {
            for exponent in 0..=255u32 {
                for mantissa in MANTISSAS {
                    values.push(f32::from_bits(sign | exponent << 23 | mantissa));
                }
            }
        }
        // Both sides of the flush, the overflow and the clamp, and of every switch of `k`
        // (`x · log₂e` on a half-integer) from the flush to the clamp.
        let neighbours = |v: f32| (v.to_bits() - 3..=v.to_bits() + 3).map(f32::from_bits);
        for edge in [EXP_FLUSH, 88.722_83, EXP_CLAMP] {
            values.extend(neighbours(edge));
            values.extend(neighbours(-edge));
        }
        for k in -127..=128 {
            let switch = (k as f64 + 0.5) * std::f64::consts::LN_2;
            values.extend(neighbours(switch as f32));
        }
        values.extend([f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY]);
        values.extend([0.0, -0.0, 1.0, -1.0, f32::MIN_POSITIVE, f32::MAX, f32::MIN]);
        assert!(assert_exp_is_its_definition(&values) <= EXP_MAX_ULPS);

        // The documented specials and thresholds, by value.
        assert_eq!(exp(0.0).to_bits(), 1.0f32.to_bits());
        assert_eq!(exp(-0.0).to_bits(), 1.0f32.to_bits());
        assert_eq!(exp(f32::NEG_INFINITY).to_bits(), 0);
        assert_eq!(exp(f32::INFINITY), f32::INFINITY);
        let nan = f32::from_bits(0xffa0_0001);
        assert_eq!(exp(nan).to_bits(), 0xffe0_0001, "the input NaN, quietened");
        let below_flush = f32::from_bits(EXP_FLUSH.to_bits() + 1);
        assert!((below_flush as f64) < -126.0 * std::f64::consts::LN_2);
        assert!((EXP_FLUSH as f64) > -126.0 * std::f64::consts::LN_2);
        assert_eq!(exp(below_flush).to_bits(), 0);
        assert!(exp(EXP_FLUSH) >= f32::MIN_POSITIVE);
        assert!(exp(88.722_83).is_finite());
        assert_eq!(exp(88.722_84), f32::INFINITY);

        // Ragged rows: every body/tail split of the vector loop, on every tier.
        let mut r = rng::seeded(29);
        let pool: Vec<f32> = (0..33)
            .map(|i| match i % 5 {
                0 => values[r.gen_range(0..values.len())],
                _ => r.gen_range(-90.0f32..90.0),
            })
            .collect();
        for len in 0..=33 {
            assert_exp_is_its_definition(&pool[..len]);
            assert_exp_is_its_definition(&pool[33 - len..]);
        }
    }

    #[test]
    #[ignore = "all 2^32 bit patterns: cargo test --release -p realm-tensor -- --ignored"]
    fn exp_matches_its_definition_on_all_bit_patterns() {
        const CHUNK: u32 = 1 << 16;
        let mut values = vec![0.0f32; CHUNK as usize];
        let mut worst = 0.0f64;
        for base in (0..=u32::MAX).step_by(CHUNK as usize) {
            for (v, bits) in values.iter_mut().zip(base..) {
                *v = f32::from_bits(bits);
            }
            worst = worst.max(assert_exp_is_its_definition(&values));
        }
        println!("exp: at most {worst:.4} ulp over every input that is not flushed");
        assert!(worst <= EXP_MAX_ULPS, "{worst} ulp");
    }

    #[test]
    fn max_and_silu_match_the_portable_tier_bit_for_bit() {
        let tiers = granted_tiers();
        let portable = tiers[0];
        let mut r = rng::seeded(31);
        for len in 0..=33 {
            let mut rows = vec![
                (0..len)
                    .map(|_| r.gen_range(-12.0f32..12.0))
                    .collect::<Vec<_>>(),
                f32_row(len as u64, len, true),
                vec![f32::NEG_INFINITY; len],
                vec![f32::NAN; len],
                (0..len).map(|i| [0.0, -0.0][i % 2]).collect(),
            ];
            // A huge score, and the extremes of SiLU's input.
            for (i, v) in [1e30, -1e30, 89.5, -89.5, 1e-41].into_iter().enumerate() {
                if i < len {
                    rows[0][len - 1 - i] = v;
                }
            }
            for row in &rows {
                let reference = row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v)) + 0.0;
                let mut want = row.clone();
                portable.silu_row(&mut want);
                let definition: Vec<f32> = row.iter().map(|&v| v * sigmoid(v)).collect();
                assert_eq!(bits_modulo_nan(&want), bits_modulo_nan(&definition));
                for kernels in &tiers {
                    let label = format!("{:?} len {len}", kernels.tier);
                    let max = kernels.max(row);
                    assert_eq!(max.to_bits(), reference.to_bits(), "{label} max of {row:?}");
                    let mut got = row.clone();
                    kernels.silu_row(&mut got);
                    assert_eq!(
                        bits_modulo_nan(&got),
                        bits_modulo_nan(&want),
                        "{label} silu"
                    );
                }
            }
        }
        // SiLU keeps its definition's roundings at the extremes.
        let mut row = [0.0, -0.0, 100.0, -100.0, f32::INFINITY, f32::NEG_INFINITY];
        portable.silu_row(&mut row);
        assert_eq!(
            bits_modulo_nan(&row[..4]),
            bits_modulo_nan(&[0.0, -0.0, 100.0, -0.0])
        );
        assert_eq!(row[4], f32::INFINITY);
        assert!(row[5].is_nan(), "−∞ · 0");
    }

    /// Adversarial f32 rows: gaussian bulk, exact rail and tie values, signed zeros,
    /// subnormals, infinities and (optionally) NaNs.
    fn f32_row(seed: u64, len: usize, with_nan: bool) -> Vec<f32> {
        let mut r = rng::seeded(seed);
        (0..len)
            .map(|i| match (i + seed as usize) % 11 {
                0 => 127.5,
                1 => -126.5,
                2 => -0.0,
                3 => 1e-41,
                4 if with_nan => f32::NAN,
                5 if with_nan => f32::NEG_INFINITY,
                _ => r.gen_range(-200.0f32..200.0),
            })
            .collect()
    }

    const LENGTHS: [usize; 9] = [0, 1, 7, 8, 9, 31, 160, 448, 641];

    #[test]
    fn every_granted_tier_matches_the_portable_tier_bit_for_bit() {
        let tiers = granted_tiers();
        let portable = tiers[0];
        assert_eq!(portable.tier, SimdTier::Portable);
        for (seed, &len) in LENGTHS.iter().enumerate() {
            let seed = seed as u64;
            let rows = [
                f32_row(seed, len, false),
                f32_row(seed + 100, len, true),
                vec![0.0; len],
                vec![f32::NAN; len],
            ];
            let mut r = rng::seeded(seed + 7);
            let accs: [Vec<i32>; 3] = [
                (0..len).map(|_| r.gen_range(-60_000..60_000)).collect(),
                (0..len)
                    .map(|i| [i32::MIN, i32::MAX, 0, 1 << 30, -(1 << 30)][i % 5])
                    .collect(),
                vec![0; len],
            ];
            for kernels in &tiers[1..] {
                let label = format!("{:?} len {len}", kernels.tier);
                for row in &rows {
                    let abs_max = portable.abs_max(row);
                    assert_eq!(
                        kernels.abs_max(row).to_bits(),
                        abs_max.to_bits(),
                        "{label} abs_max"
                    );
                    let reference = row.iter().fold(0.0f32, |m, v| m.max(v.abs()));
                    assert_eq!(abs_max.to_bits(), reference.to_bits(), "{label} fold");
                    // The row's own scale, the neutral fallback, and degenerate scales.
                    let own = crate::QuantParams::from_abs_max(abs_max).scale;
                    for scale in [own, 1.0, 0.37, 0.0, f32::INFINITY] {
                        let (mut want, mut got) = (vec![0i8; len], vec![1i8; len]);
                        portable.quantize_row(row, scale, &mut want);
                        kernels.quantize_row(row, scale, &mut got);
                        assert_eq!(got, want, "{label} quantize at {scale}");
                    }
                }
                for acc in &accs {
                    for (combined, out_scale) in [(1.3e-4, 0.021), (1.0, 1.0), (2.5e-3, 0.0)] {
                        let (mut want, mut got) = (vec![0.0f32; len], vec![1.0f32; len]);
                        portable.requantize_row(acc, combined, out_scale, &mut want);
                        kernels.requantize_row(acc, combined, out_scale, &mut got);
                        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&got), bits(&want), "{label} requantize");
                        portable.dequantize_row(acc, combined, &mut want);
                        kernels.dequantize_row(acc, combined, &mut got);
                        assert_eq!(bits(&got), bits(&want), "{label} dequantize");
                    }
                    for k in [1, 2, 5, len / 2, len] {
                        if (1..=len).contains(&k) {
                            assert_eq!(
                                kernels.kth_largest_magnitude(acc, k),
                                portable.kth_largest_magnitude(acc, k),
                                "{label} k {k}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn portable_kernels_are_the_scalar_definition() {
        let kernels = RowKernels::with_tier(SimdTier::Portable);
        let row = f32_row(3, 77, true);
        let mut codes = vec![0i8; row.len()];
        kernels.quantize_row(&row, 0.83, &mut codes);
        for (&code, &v) in codes.iter().zip(&row) {
            assert_eq!(code, oracle(v / 0.83));
        }
        let acc: Vec<i32> = (0..77).map(|i| (i - 38) * 9_001).collect();
        let mut out = vec![0.0f32; acc.len()];
        kernels.requantize_row(&acc, 1e-3, 0.9, &mut out);
        for (&o, &v) in out.iter().zip(&acc) {
            assert_eq!(o, oracle(v as f32 * 1e-3 / 0.9) as f32 * 0.9);
        }
        kernels.dequantize_row(&acc, 0.5, &mut out);
        assert!(out.iter().zip(&acc).all(|(&o, &v)| o == v as f32 * 0.5));
    }

    #[test]
    fn kth_largest_magnitude_matches_a_sort() {
        let mut r = rng::seeded(11);
        let mut rows: Vec<Vec<i32>> = vec![
            vec![7],
            vec![5; 40],
            vec![i32::MIN, i32::MAX, -i32::MAX, 0, i32::MIN, 3],
            (0..300).map(|i| (i % 7) - 3).collect(),
        ];
        for len in [9, 160, 448, 2000] {
            rows.push(
                (0..len)
                    .map(|_| r.gen_range(-1_000_000..1_000_000))
                    .collect(),
            );
        }
        for row in &rows {
            let mut sorted: Vec<u32> = row.iter().map(|v| v.unsigned_abs()).collect();
            sorted.sort_unstable_by(|a, b| b.cmp(a));
            let n = row.len();
            // Ranks on both sides of the streaming / partitioning switch.
            let ranks = [1, 2, 3, 5, STREAM_K, STREAM_K + 1, 42, n / 2, n - 1, n];
            for kernels in granted_tiers() {
                for k in ranks.into_iter().filter(|k| (1..=n).contains(k)) {
                    assert_eq!(
                        kernels.kth_largest_magnitude(row, k),
                        sorted[k - 1],
                        "{:?} n {n} k {k}",
                        kernels.tier
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "not a rank")]
    fn kth_largest_magnitude_rejects_rank_zero() {
        RowKernels::granted().kth_largest_magnitude(&[1, 2], 0);
    }

    #[test]
    fn explicit_tiers_clamp_to_the_granted_one() {
        let granted = RowKernels::granted();
        assert_eq!(granted.tier, SimdTier::detect());
        assert_eq!(RowKernels::with_tier(SimdTier::Avx512), granted);
        assert_eq!(
            RowKernels::with_tier(SimdTier::Portable).tier,
            SimdTier::Portable
        );
    }
}
