//! The row kernels of the linear envelope: the **one** definition of INT8 rounding.
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
//!   (99th-percentile) requantization scale, selected on the integers themselves.
//!
//! Everything else that rounds to INT8 — [`crate::quant`], `realm-llm`'s per-row
//! quantizer, its KV cache and its attention probabilities — calls these.
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
//! # Tiers
//!
//! Two: the portable tier is the scalar definition in a loop, the AVX2 tier hand-written
//! intrinsics over 8 lanes. They are bit-identical on every input (tested row by row here,
//! and on whole models by the CI backend canary). An AVX-512 host runs the AVX2 row
//! kernels: 16 lanes bought 4–14% per element in cache and nothing measurable end to end
//! (at serving shapes the envelope is memory-bound), so a third tier waits for a measured
//! `tokens_per_s` gain. The tier is resolved once per process ([`SimdTier::detect`]), so
//! dispatching a row never reads the environment.

use crate::simd::SimdTier;

/// `0.5 − 2⁻²⁵`, the largest f32 below one half (see the [module documentation](self)).
const HALF_BELOW: f32 = 0.499_999_97;
/// Pre-rounding clamp: every quotient at or beyond it lands on the ±127 rail.
const CODE_CLAMP: f32 = 127.25;
/// Largest `k` the streaming top-k selection of [`RowKernels::kth_largest_magnitude`]
/// keeps on the stack; beyond it the row is copied and partitioned.
const STREAM_K: usize = 16;

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

/// The scalar tier: [`round_to_code`] in a loop. Also the tail of every vector loop.
mod scalar {
    use super::{offer, round_to_code};

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
    use super::{scalar, CODE_CLAMP, HALF_BELOW};
    use std::arch::x86_64::*;

    const LANES: usize = 8;

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
