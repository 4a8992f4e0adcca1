//! Fault abstractions: how errors are materialised inside an INT32 accumulator tensor.
//!
//! Three models cover everything the paper uses:
//!
//! * [`BitFlipModel`] — every bit of every accumulator element flips independently with
//!   probability `ber`, optionally restricted to the high bits (timing errors predominantly
//!   affect the more significant bits, Sec. III-A).
//! * [`FixedBitModel`] — flips a *specific* bit position with per-element probability `ber`;
//!   the paper's Q1.1/Q1.3/Q2.x protocols use the 30th bit.
//! * [`MagFreqModel`] — injects exactly `freq` identical errors of magnitude `mag`
//!   (`MSD = freq × mag`), the controlled model of Sec. III-B used to separate the effects of
//!   error magnitude and error frequency (Q1.4).

use rand::Rng;
use realm_tensor::rng::SeededRng;
use realm_tensor::MatI32;

/// Width of the accumulator word errors are injected into.
pub const ACCUMULATOR_BITS: u8 = 32;

/// A fault model that corrupts INT32 accumulator tensors in place.
pub trait ErrorModel {
    /// Corrupts `acc` in place and returns the number of injected errors.
    fn corrupt(&self, rng: &mut SeededRng, acc: &mut MatI32) -> usize;

    /// A short human-readable description used in reports.
    fn describe(&self) -> String;
}

/// Independent random bit flips at a given bit-error rate.
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
        let bits = self.eligible_bits();
        let mut injected = 0usize;
        // Expected flips per element = ber * bits; for the small BERs used in practice, sample
        // the number of flipped bits per element from the exact Bernoulli process only when a
        // first coarse filter passes, to keep the fault-free fast path cheap.
        let p_any = 1.0 - (1.0 - self.ber).powi(bits as i32);
        for v in acc.iter_mut() {
            if rng.gen::<f64>() >= p_any {
                continue;
            }
            // At least one flip happens in this element; walk the bits with the conditional
            // distribution (simple rejection: re-draw until at least one bit flips).
            let mut mask = 0u32;
            loop {
                for b in self.min_bit..self.max_bit {
                    if rng.gen::<f64>() < self.ber {
                        mask |= 1u32 << b;
                    }
                }
                if mask != 0 {
                    break;
                }
            }
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
        for v in acc.iter_mut() {
            if rng.gen::<f64>() < self.ber {
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
        // Sample `count` distinct positions (Floyd's algorithm keeps this O(count)).
        let mut chosen = std::collections::HashSet::with_capacity(count);
        for j in (n - count)..n {
            let t = rng.gen_range(0..=j);
            if !chosen.insert(t) {
                chosen.insert(j);
            }
        }
        let slice = acc.as_mut_slice();
        for &idx in &chosen {
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
