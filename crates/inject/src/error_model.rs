//! Fault abstractions: how errors are materialised inside an INT32 accumulator tensor.
//!
//! Three models cover everything the paper uses:
//!
//! * [`BitFlipModel`] — every bit of every accumulator element flips independently with
//!   probability `ber`, optionally restricted to the high bits (timing errors predominantly
//!   affect the more significant bits, Sec. III-A). It costs one draw per element: only an
//!   element that fires draws its mask, straight from the law of the mask given at least
//!   one flip, so the result is exact in distribution with no attempt ever rejected.
//! * [`FixedBitModel`] — flips a *specific* bit position with per-element probability `ber`;
//!   the paper's Q1.1/Q1.3/Q2.x protocols use the 30th bit.
//! * [`MagFreqModel`] — injects exactly `freq` identical errors of magnitude `mag`
//!   (`MSD = freq × mag`), the controlled model of Sec. III-B used to separate the effects of
//!   error magnitude and error frequency (Q1.4).

use rand::{Rng, RngCore};
use realm_tensor::rng::SeededRng;
use realm_tensor::MatI32;

/// Width of the accumulator word errors are injected into.
pub const ACCUMULATOR_BITS: u8 = 32;

/// The integer form of the Bernoulli draw `rng.gen::<f64>() < p`: that draw is
/// `(next_u64() >> 11)·2⁻⁵³`, an exact scaling of a 53-bit integer, so it falls below `p`
/// exactly when the integer falls below `ceil(p·2⁵³)` (itself exact for `p` in `[0, 1]`).
/// Compare a `next_u64` draw against it with [`below`]; the draw order is the float form's.
fn threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// Whether the `next_u64` draw `draw` falls below a [`threshold`].
#[inline]
fn below(draw: u64, threshold: u64) -> bool {
    draw >> 11 < threshold
}

/// A fault model that corrupts INT32 accumulator tensors in place.
pub trait ErrorModel {
    /// Corrupts `acc` in place and returns the number of injected errors.
    fn corrupt(&self, rng: &mut SeededRng, acc: &mut MatI32) -> usize;

    /// A short human-readable description used in reports.
    fn describe(&self) -> String;
}

/// Independent random bit flips at a given bit-error rate.
///
/// [`ErrorModel::corrupt`] draws one uniform per element against P(any of the eligible
/// bits flips) = `1 − (1 − ber)^bits`. An element that fires then takes its lowest flipped
/// bit from one more draw, by inverse CDF over a table of integer thresholds built on the
/// call's first firing element, and each bit above that one from its own Bernoulli(`ber`) draw. That is exactly the
/// law of `bits` independent flips given at least one, so the flips are those of the plain
/// per-bit process; what a seed draws is not the same as re-drawing every bit until one
/// hits, which the module's tests keep as the oracle of the distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BitFlipModel {
    /// Probability that any individual bit within the eligible range flips.
    pub ber: f64,
    /// Lowest eligible bit position (inclusive).
    pub min_bit: u8,
    /// Highest eligible bit position (exclusive, at most 32).
    pub max_bit: u8,
}

impl BitFlipModel {
    /// Bit flips uniformly across all 32 accumulator bits.
    ///
    /// # Panics
    ///
    /// Panics if `ber` is not in `[0, 1]`.
    pub fn uniform(ber: f64) -> Self {
        Self::with_bit_range(ber, 0, ACCUMULATOR_BITS)
    }

    /// Bit flips restricted to the upper half of the accumulator (bits 16–31), reflecting the
    /// observation that timing errors affect the more significant bits.
    ///
    /// # Panics
    ///
    /// Panics if `ber` is not in `[0, 1]`.
    pub fn high_bits(ber: f64) -> Self {
        Self::with_bit_range(ber, 16, ACCUMULATOR_BITS)
    }

    /// Bit flips restricted to an explicit `[min_bit, max_bit)` range.
    ///
    /// # Panics
    ///
    /// Panics if `ber` is outside `[0, 1]`, the range is empty, or `max_bit > 32`.
    pub fn with_bit_range(ber: f64, min_bit: u8, max_bit: u8) -> Self {
        assert!((0.0..=1.0).contains(&ber), "BER {ber} must be in [0, 1]");
        assert!(min_bit < max_bit, "empty bit range {min_bit}..{max_bit}");
        assert!(max_bit <= ACCUMULATOR_BITS, "max_bit {max_bit} exceeds 32");
        Self {
            ber,
            min_bit,
            max_bit,
        }
    }

    fn eligible_bits(&self) -> u32 {
        (self.max_bit - self.min_bit) as u32
    }
}

impl ErrorModel for BitFlipModel {
    fn corrupt(&self, rng: &mut SeededRng, acc: &mut MatI32) -> usize {
        if self.ber <= 0.0 || acc.is_empty() {
            return 0;
        }
        let bits = self.eligible_bits() as usize;
        // `1 − qⁿ` (q = 1 − ber) as `−expm1(n·ln q)`: at the sweep's BERs (~1e-6) the
        // direct `1 − q.powi(n)` cancels most of its digits.
        let ln_q = (-self.ber).ln_1p();
        let any_of = |n: usize| -(n as f64 * ln_q).exp_m1();
        let p_any = any_of(bits);
        let fires = threshold(p_any);
        let p_bit = threshold(self.ber);
        // `lowest[i]` = threshold of P(F ≤ i | any flip) = (1 − q^(i+1)) / p_any, F the
        // lowest flipped bit (counted from `min_bit`). Built on the first firing element:
        // most GEMMs at the sweep's BERs have none. The last eligible entry (and every one
        // past it) is pinned to 2⁵³, so every draw finds its F.
        let mut lowest: Option<[u64; ACCUMULATOR_BITS as usize]> = None;
        let mut injected = 0usize;
        for v in acc.iter_mut() {
            if !below(rng.next_u64(), fires) {
                continue;
            }
            let lowest = lowest.get_or_insert_with(|| {
                let mut table = [1u64 << 53; ACCUMULATOR_BITS as usize];
                for (i, entry) in table[..bits - 1].iter_mut().enumerate() {
                    *entry = threshold(any_of(i + 1) / p_any);
                }
                table
            });
            // Given at least one flip: F by inverse CDF from one draw, then every bit
            // above it independently with probability `ber` — the exact conditional law
            // of `bits` independent flips.
            let draw = rng.next_u64();
            let first = lowest.partition_point(|&t| !below(draw, t));
            let mut hits = 1u32 << first;
            for i in first + 1..bits {
                hits |= u32::from(below(rng.next_u64(), p_bit)) << i;
            }
            let mask = hits << self.min_bit;
            injected += mask.count_ones() as usize;
            *v = (*v as u32 ^ mask) as i32;
        }
        injected
    }

    fn describe(&self) -> String {
        format!(
            "random bit flips, BER {:.2e}, bits {}..{}",
            self.ber, self.min_bit, self.max_bit
        )
    }
}

/// Flips one specific bit position with a per-element probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixedBitModel {
    /// Probability that the bit flips in any given accumulator element.
    pub ber: f64,
    /// Bit position to flip (0 = LSB, 31 = sign bit).
    pub bit: u8,
}

impl FixedBitModel {
    /// Creates a fixed-bit model.
    ///
    /// # Panics
    ///
    /// Panics if `ber` is outside `[0, 1]` or `bit >= 32`.
    pub fn new(ber: f64, bit: u8) -> Self {
        assert!((0.0..=1.0).contains(&ber), "BER {ber} must be in [0, 1]");
        assert!(bit < ACCUMULATOR_BITS, "bit {bit} out of range");
        Self { ber, bit }
    }

    /// The paper's default protocol: flip the 30th bit.
    pub fn bit30(ber: f64) -> Self {
        Self::new(ber, 30)
    }
}

impl ErrorModel for FixedBitModel {
    fn corrupt(&self, rng: &mut SeededRng, acc: &mut MatI32) -> usize {
        if self.ber <= 0.0 {
            return 0;
        }
        let mut injected = 0usize;
        let mask = 1u32 << self.bit;
        let p = threshold(self.ber);
        for v in acc.iter_mut() {
            if below(rng.next_u64(), p) {
                *v = (*v as u32 ^ mask) as i32;
                injected += 1;
            }
        }
        injected
    }

    fn describe(&self) -> String {
        format!("bit {} flips, BER {:.2e}", self.bit, self.ber)
    }
}

/// Injects exactly `freq` identical errors of magnitude `mag` per corrupted tensor.
///
/// This is the controlled model of Sec. III-B: the matrix-sum deviation it produces is
/// `MSD = freq × mag`, which lets the characterization separate "one huge error" from "many
/// small errors" at identical MSD (Q1.4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MagFreqModel {
    /// Magnitude added to each corrupted accumulator element.
    pub mag: i64,
    /// Number of corrupted elements per targeted GEMM result.
    pub freq: usize,
}

impl MagFreqModel {
    /// Creates a magnitude/frequency model.
    pub fn new(mag: i64, freq: usize) -> Self {
        Self { mag, freq }
    }

    /// The matrix-sum deviation this model produces per corrupted tensor.
    pub fn msd(&self) -> i64 {
        self.mag * self.freq as i64
    }
}

impl ErrorModel for MagFreqModel {
    fn corrupt(&self, rng: &mut SeededRng, acc: &mut MatI32) -> usize {
        if self.freq == 0 || self.mag == 0 || acc.is_empty() {
            return 0;
        }
        let n = acc.len();
        let count = self.freq.min(n);
        // Sample `count` distinct positions by Floyd's algorithm (O(count) draws): step `j`
        // takes its draw `t` unless `t` is taken, else `j` itself, which no earlier step
        // can have taken. One bit per element marks the positions taken, and each takes
        // its error as it is chosen (the additions land on distinct elements, so commute).
        let slice = acc.as_mut_slice();
        let mut taken = vec![0u64; n.div_ceil(64)];
        for j in (n - count)..n {
            let t = rng.gen_range(0..=j);
            let idx = if taken[t / 64] >> (t % 64) & 1 == 0 {
                t
            } else {
                j
            };
            taken[idx / 64] |= 1 << (idx % 64);
            slice[idx] = slice[idx].wrapping_add(self.mag as i32);
        }
        count
    }

    fn describe(&self) -> String {
        format!(
            "controlled errors, mag 2^{:.1}, freq {}, MSD 2^{:.1}",
            (self.mag.abs().max(1) as f64).log2(),
            self.freq,
            (self.msd().abs().max(1) as f64).log2()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use realm_tensor::rng::seeded;

    #[test]
    fn zero_ber_injects_nothing() {
        let mut rng = seeded(1);
        let mut acc = MatI32::filled(16, 16, 42);
        let clean = acc.clone();
        assert_eq!(BitFlipModel::uniform(0.0).corrupt(&mut rng, &mut acc), 0);
        assert_eq!(acc, clean);
    }

    #[test]
    fn high_ber_corrupts_most_elements() {
        let mut rng = seeded(2);
        let mut acc = MatI32::zeros(32, 32);
        let injected = BitFlipModel::uniform(0.05).corrupt(&mut rng, &mut acc);
        assert!(injected > 500, "expected many flips, got {injected}");
        let changed = acc.iter().filter(|&&v| v != 0).count();
        assert!(changed > 500);
    }

    #[test]
    fn injected_count_tracks_changed_bits() {
        let mut rng = seeded(3);
        let mut acc = MatI32::zeros(64, 64);
        let injected = BitFlipModel::high_bits(1e-3).corrupt(&mut rng, &mut acc);
        let set_bits: u32 = acc.iter().map(|&v| (v as u32).count_ones()).sum();
        assert_eq!(injected as u32, set_bits);
        // All flips must land in the configured high-bit range.
        for &v in acc.iter() {
            assert_eq!(v as u32 & 0x0000_FFFF, 0, "low bit flipped: {v:#x}");
        }
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn invalid_ber_is_rejected() {
        let _ = BitFlipModel::uniform(1.5);
    }

    #[test]
    fn fixed_bit_model_only_touches_one_bit() {
        let mut rng = seeded(4);
        let mut acc = MatI32::zeros(32, 32);
        let injected = FixedBitModel::bit30(0.02).corrupt(&mut rng, &mut acc);
        assert!(injected > 0);
        for &v in acc.iter() {
            assert!(v == 0 || v as u32 == 1 << 30, "unexpected value {v:#x}");
        }
        let changed = acc.iter().filter(|&&v| v != 0).count();
        assert_eq!(changed, injected);
    }

    #[test]
    fn magfreq_injects_exact_count_and_msd() {
        let mut rng = seeded(5);
        let mut acc = MatI32::zeros(16, 16);
        let model = MagFreqModel::new(1 << 20, 8);
        let injected = model.corrupt(&mut rng, &mut acc);
        assert_eq!(injected, 8);
        let sum: i64 = acc.iter().map(|&v| v as i64).sum();
        assert_eq!(sum, model.msd());
        let touched = acc.iter().filter(|&&v| v != 0).count();
        assert_eq!(touched, 8, "errors must land on distinct elements");
    }

    #[test]
    fn magfreq_caps_frequency_at_tensor_size() {
        let mut rng = seeded(6);
        let mut acc = MatI32::zeros(2, 2);
        let injected = MagFreqModel::new(10, 100).corrupt(&mut rng, &mut acc);
        assert_eq!(injected, 4);
        assert!(acc.iter().all(|&v| v == 10));
    }

    #[test]
    fn describe_mentions_key_parameters() {
        assert!(BitFlipModel::uniform(1e-4).describe().contains("1.00e-4"));
        assert!(FixedBitModel::bit30(0.5).describe().contains("bit 30"));
        assert!(MagFreqModel::new(1 << 10, 4).describe().contains("freq 4"));
    }

    /// `BitFlipModel::corrupt` as it was before the mask was drawn directly: a firing
    /// element re-draws all its bits until at least one hits. Exact by construction, so it
    /// is the oracle of the direct sampler's distribution (not of its stream).
    fn rejection_bit_flip(model: &BitFlipModel, rng: &mut SeededRng, acc: &mut MatI32) -> usize {
        if model.ber <= 0.0 || acc.is_empty() {
            return 0;
        }
        let bits = model.eligible_bits();
        let mut injected = 0usize;
        // Expected flips per element = ber * bits; for the small BERs used in practice, sample
        // the number of flipped bits per element from the exact Bernoulli process only when a
        // first coarse filter passes, to keep the fault-free fast path cheap.
        let p_any = threshold(1.0 - (1.0 - model.ber).powi(bits as i32));
        let p_bit = threshold(model.ber);
        for v in acc.iter_mut() {
            if !below(rng.next_u64(), p_any) {
                continue;
            }
            // At least one flip happens in this element; walk the bits with the conditional
            // distribution (simple rejection: re-draw until at least one bit flips).
            // Each attempt's `bits` draws come in one `fill_bytes`, which hands out the same
            // `next_u64` draws in the same order, with no cursor update between them.
            let mut draws = [0u8; 8 * ACCUMULATOR_BITS as usize];
            let draws = &mut draws[..8 * bits as usize];
            let mut hits = 0u32;
            while hits == 0 {
                rng.fill_bytes(draws);
                for (i, draw) in draws.chunks_exact(8).enumerate() {
                    let draw = u64::from_le_bytes(draw.try_into().expect("8-byte draw"));
                    hits |= u32::from(below(draw, p_bit)) << i;
                }
            }
            let mask = hits << model.min_bit;
            injected += mask.count_ones() as usize;
            *v = (*v as u32 ^ mask) as i32;
        }
        injected
    }

    /// `FixedBitModel::corrupt` as it was written with float draws.
    fn float_fixed_bit(model: &FixedBitModel, rng: &mut SeededRng, acc: &mut MatI32) -> usize {
        if model.ber <= 0.0 {
            return 0;
        }
        let mut injected = 0usize;
        let mask = 1u32 << model.bit;
        for v in acc.iter_mut() {
            if rng.gen::<f64>() < model.ber {
                *v = (*v as u32 ^ mask) as i32;
                injected += 1;
            }
        }
        injected
    }

    #[test]
    fn threshold_draws_match_the_float_oracle() {
        let curve = crate::VoltageBerCurve::default_14nm();
        let scale = (1u64 << 53) as f64;
        let bers = [
            curve.ber_at(0.66),
            curve.ber_at(0.70),
            curve.ber_at(0.74),
            0.5,
            1.0,
            // p·2⁵³ an integer: the draw equal to it must not count as below.
            (0.3 * scale).round() / scale,
        ];
        for &p in &bers {
            // At the threshold itself, one above and one below it, the integer compare
            // says what the float draw says (a draw's low 11 bits never matter).
            let t = threshold(p);
            for x in [t.saturating_sub(1), t, t + 1] {
                if x < 1 << 53 {
                    let float = (x as f64) * (1.0 / scale) < p;
                    assert_eq!(below(x << 11, t), float, "p {p} draw {x}");
                    assert_eq!(below(x << 11 | 0x7ff, t), float, "p {p} draw {x}");
                }
            }
        }
        let shapes = [(1, 1), (3, 17), (16, 64), (64, 129)];
        let fixed = |ber| [FixedBitModel::bit30(ber), FixedBitModel::new(ber, 0)];
        for seed in [0, 1, 7, 2025, u64::MAX] {
            for (rows, cols) in shapes {
                for &ber in &bers {
                    let start = MatI32::from_fn(rows, cols, |r, c| (r * 131 + c * 7) as i32 - 500);
                    let check = |label: String,
                                 new: &dyn Fn(&mut SeededRng, &mut MatI32) -> usize,
                                 old: &dyn Fn(&mut SeededRng, &mut MatI32) -> usize| {
                        let (mut rng_new, mut rng_old) = (seeded(seed), seeded(seed));
                        let (mut acc_new, mut acc_old) = (start.clone(), start.clone());
                        let n = new(&mut rng_new, &mut acc_new);
                        let o = old(&mut rng_old, &mut acc_old);
                        assert_eq!(n, o, "{label}: count");
                        assert_eq!(acc_new, acc_old, "{label}: matrix");
                        assert_eq!(rng_new.next_u64(), rng_old.next_u64(), "{label}: next draw");
                    };
                    for model in fixed(ber) {
                        check(
                            format!("{model:?} seed {seed} {rows}x{cols}"),
                            &|rng, acc| model.corrupt(rng, acc),
                            &|rng, acc| float_fixed_bit(&model, rng, acc),
                        );
                    }
                }
            }
        }
    }

    type Sampler = fn(&BitFlipModel, &mut SeededRng, &mut MatI32) -> usize;

    /// Runs `sampler` over zeroed `rows × cols` matrices from one seeded stream until at
    /// least `firing` elements have fired, and returns each firing element's mask shifted
    /// down to bit 0 of the model's range.
    fn firing_masks(
        sampler: Sampler,
        model: &BitFlipModel,
        seed: u64,
        (rows, cols): (usize, usize),
        firing: usize,
    ) -> Vec<u32> {
        let bits = model.eligible_bits();
        let mut rng = seeded(seed);
        let mut acc = MatI32::zeros(rows, cols);
        let mut masks = Vec::with_capacity(firing + rows * cols);
        while masks.len() < firing {
            acc.as_mut_slice().fill(0);
            let injected = sampler(model, &mut rng, &mut acc);
            let before = masks.len();
            masks.extend(
                acc.iter()
                    .filter(|&&v| v != 0)
                    .map(|&v| v as u32 >> model.min_bit),
            );
            let fired = &masks[before..];
            assert!(fired.iter().all(|&m| bits == 32 || m >> bits == 0));
            let flips: u32 = fired.iter().map(|m| m.count_ones()).sum();
            assert_eq!(flips as usize, injected, "the count is the flips applied");
        }
        masks
    }

    /// P(any of `bits` flips) = 1 − (1 − p)^bits, without cancellation at small `p`.
    fn p_any(p: f64, bits: u32) -> f64 {
        -(f64::from(bits) * (-p).ln_1p()).exp_m1()
    }

    /// P(a given set of `k` of `bits` bits is exactly the set that flips | any flips).
    fn p_mask(p: f64, k: u32, bits: u32) -> f64 {
        p.powi(k as i32) * (1.0 - p).powi((bits - k) as i32) / p_any(p, bits)
    }

    /// Asserts that each `observed[i]` of `n` trials lies within 5σ of its expectation
    /// `n·probs[i]`, σ = √(n·pᵢ·(1 − pᵢ)) the binomial deviation of that one count (taken
    /// as at least 1). For a partition (`pooled`), bins expecting fewer than 25 are first
    /// merged into one tail bin, where the normal bound would mean nothing for a count of 0
    /// or 1.
    fn assert_within_5_sigma(label: &str, observed: &[u64], probs: &[f64], n: u64, pooled: bool) {
        let n = n as f64;
        let mut bins: Vec<(String, u64, f64)> = Vec::new();
        let mut tail = (String::from("tail"), 0u64, 0.0f64);
        for (i, (&o, &p)) in observed.iter().zip(probs).enumerate() {
            if pooled && n * p < 25.0 {
                tail.1 += o;
                tail.2 += p;
            } else {
                bins.push((i.to_string(), o, p));
            }
        }
        if tail.2 > 0.0 {
            bins.push(tail);
        }
        for (bin, o, p) in bins {
            let (expected, sigma) = (n * p, (n * p * (1.0 - p)).sqrt());
            assert!(
                (o as f64 - expected).abs() <= 5.0 * sigma.max(1.0),
                "{label} bin {bin}: observed {o}, expected {expected:.1} ± {sigma:.1}"
            );
        }
    }

    #[test]
    fn direct_masks_follow_the_rejection_oracles_law() {
        // (a) The whole mask law on a 4-bit range: each of the 15 nonzero masks at its
        // exact frequency pᵏ(1 − p)^(4−k) / p_any, over 10⁶ firing elements per sampler.
        // The oracle passing the same bound shows the bound is not too tight.
        let bits = 4u32;
        for p in [0.5, 0.3, 0.05] {
            let model = BitFlipModel::with_bit_range(p, 3, 7);
            let probs: Vec<f64> = (1..1u32 << bits)
                .map(|m| p_mask(p, m.count_ones(), bits))
                .collect();
            let samplers: [(&str, Sampler); 2] = [
                ("direct", BitFlipModel::corrupt),
                ("rejection", rejection_bit_flip),
            ];
            for (name, sampler) in samplers {
                let masks = firing_masks(sampler, &model, 0xD15, (32, 32), 1_000_000);
                let mut counts = vec![0u64; 1 << bits];
                masks.iter().for_each(|&m| counts[m as usize] += 1);
                assert_eq!(counts[0], 0, "a firing element flips at least one bit");
                let label = format!("{name} p {p} masks");
                assert_within_5_sigma(&label, &counts[1..], &probs, masks.len() as u64, true);
            }
        }
        // (b) On the high bits, the per-bit flip counts (P(bit flips | any) = p / p_any,
        // each its own binomial) and the flips-per-firing-element histogram
        // (C(16, k)·pᵏ(1 − p)^(16−k) / p_any, a partition with its thin tail pooled). At
        // the sweep's BER a firing element is rare, so large matrices; the oracle, which
        // spends ~1/p draws per firing element there, runs only at the two high BERs.
        let curve = crate::VoltageBerCurve::default_14nm();
        let bits = 16u32;
        let cases = [
            (0.5, (32, 32), 200_000, true),
            (0.05, (32, 32), 200_000, true),
            (curve.ber_at(0.66), (256, 1024), 20_000, false),
        ];
        for (p, shape, firing, with_oracle) in cases {
            let model = BitFlipModel::high_bits(p);
            let per_bit = vec![p / p_any(p, bits); bits as usize];
            let mut choose = 1.0;
            let per_count: Vec<f64> = (1..=bits)
                .map(|k| {
                    choose = choose * f64::from(bits - k + 1) / f64::from(k);
                    choose * p_mask(p, k, bits)
                })
                .collect();
            let samplers: &[(&str, Sampler)] = if with_oracle {
                &[
                    ("direct", BitFlipModel::corrupt),
                    ("rejection", rejection_bit_flip),
                ]
            } else {
                &[("direct", BitFlipModel::corrupt)]
            };
            for &(name, sampler) in samplers {
                let masks = firing_masks(sampler, &model, 0x5EED, shape, firing);
                let n = masks.len() as u64;
                let mut bit_counts = vec![0u64; bits as usize];
                let mut flip_counts = vec![0u64; bits as usize];
                for &m in &masks {
                    (0..bits).for_each(|b| bit_counts[b as usize] += u64::from(m >> b & 1));
                    flip_counts[m.count_ones() as usize - 1] += 1;
                }
                let label = format!("{name} p {p:e}");
                assert_within_5_sigma(&format!("{label} bits"), &bit_counts, &per_bit, n, false);
                assert_within_5_sigma(&format!("{label} flips"), &flip_counts, &per_count, n, true);
            }
        }
    }

    #[test]
    fn corrupt_is_deterministic_for_a_seed() {
        let model = BitFlipModel::uniform(1e-3);
        let run = |seed| {
            let mut rng = seeded(seed);
            let mut acc = MatI32::zeros(32, 32);
            model.corrupt(&mut rng, &mut acc);
            acc
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
