//! Behavioural model of the hardware statistical unit (Fig. 7(c)).
//!
//! The statistical unit sits next to the systolic array's checksum outputs. Per protected
//! GEMM it receives the observed checksum `eᵀY` and the expected checksum `eᵀWX` column by
//! column, and it consists of:
//!
//! * a **subtractor** producing the per-column deviation;
//! * an **accumulator** summing deviations into the MSD;
//! * a bank of **buffers** (one 32-bit register per output column) holding the deviations;
//! * a **Log2LinearFunction unit** evaluating `θ_mag = b − (a−1)·log₂(MSD)` in fixed point;
//! * a parallel **countif** comparator stage producing `freq_eff`.
//!
//! The model mirrors that structure: deviations stream in one per cycle, the decision is
//! available a fixed number of cycles after the last column, and the `log₂` is evaluated with
//! the same leading-one + linear-interpolation approximation a hardware unit would use. A
//! test verifies that the hardware-style decision matches the exact software detector for the
//! overwhelming majority of random error patterns (they differ only when a deviation lies
//! within the log-approximation error of the threshold).

use crate::critical_region::CriticalRegion;
use crate::detector::Detection;

/// Cycle cost of the fixed pipeline stages after the last deviation has streamed in
/// (accumulator flush, Log2LinearFunction evaluation, countif reduction).
pub const DECISION_PIPELINE_CYCLES: u64 = 4;

/// Behavioural model of the statistical unit attached to one systolic-array output edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatisticalUnit {
    region: CriticalRegion,
    /// Number of buffer registers (one per output column of the array).
    buffer_depth: usize,
}

/// Outcome of streaming one GEMM's checksums through the statistical unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitDecision {
    /// The recovery decision and error statistics, as the hardware would report them.
    pub detection: Detection,
    /// Cycles spent processing this GEMM's checksum stream.
    pub cycles: u64,
    /// Whether the deviation stream overflowed the buffer bank (GEMMs wider than the array
    /// are processed in column tiles, so this should not happen in practice).
    pub buffer_overflow: bool,
}

impl StatisticalUnit {
    /// Creates a statistical unit with `buffer_depth` deviation buffers.
    ///
    /// # Panics
    ///
    /// Panics if `buffer_depth` is zero.
    pub fn new(region: CriticalRegion, buffer_depth: usize) -> Self {
        assert!(
            buffer_depth > 0,
            "the statistical unit needs at least one buffer"
        );
        Self {
            region,
            buffer_depth,
        }
    }

    /// The unit used in the paper's platform: one buffer per column of the 256-wide array.
    pub fn paper_256(region: CriticalRegion) -> Self {
        Self::new(region, 256)
    }

    /// The critical region programmed into the unit.
    pub fn region(&self) -> &CriticalRegion {
        &self.region
    }

    /// Number of deviation buffers.
    pub fn buffer_depth(&self) -> usize {
        self.buffer_depth
    }

    /// Streams the observed and expected checksums through the unit and returns its decision.
    ///
    /// # Panics
    ///
    /// Panics if the two checksum slices have different lengths.
    pub fn process(&self, observed: &[i64], expected: &[i64]) -> UnitDecision {
        assert_eq!(
            observed.len(),
            expected.len(),
            "checksum streams must have equal length"
        );
        let n = observed.len();
        let buffer_overflow = n > self.buffer_depth;

        // Subtractor + accumulator stage: one deviation per cycle.
        let deviations: Vec<i64> = observed
            .iter()
            .zip(expected)
            .map(|(&o, &e)| o - e)
            .collect();
        let msd: i64 = deviations.iter().sum();
        let errors_detected = deviations.iter().any(|&d| d != 0);

        // Log2LinearFunction unit: θ_mag from the hardware log2 approximation.
        let theta_mag =
            self.region.b - (self.region.a - 1.0) * fixed_point_log2(msd.unsigned_abs());
        // Countif stage: compare every buffered |deviation| against 2^θ_mag. The hardware
        // compares in the log domain (leading-one position vs θ_mag), reproduced here.
        let effective_frequency = deviations
            .iter()
            .filter(|&&d| d != 0 && fixed_point_log2(d.unsigned_abs()) > theta_mag)
            .count();

        let trigger =
            errors_detected && msd != 0 && (effective_frequency as f64) > self.region.theta_freq();
        let detection = Detection {
            trigger_recovery: trigger,
            errors_detected,
            msd,
            effective_frequency,
            theta_mag_log2: Some(theta_mag),
        };
        UnitDecision {
            detection,
            cycles: n as u64 + DECISION_PIPELINE_CYCLES,
            buffer_overflow,
        }
    }
}

/// Hardware-style `log₂` of an unsigned value: leading-one position plus a linear fraction
/// from the next few mantissa bits (what a small Log2LinearFunction lookup unit computes).
///
/// Returns 0.0 for zero input (the hardware gates the computation off when MSD is zero).
pub fn fixed_point_log2(value: u64) -> f64 {
    if value == 0 {
        return 0.0;
    }
    let msb = 63 - value.leading_zeros() as u64;
    if msb == 0 {
        return 0.0;
    }
    // Take up to 6 fraction bits below the leading one and interpolate linearly: the classic
    // piecewise-linear log approximation with worst-case error ≈ 0.086 log2 units.
    let fraction_bits = msb.min(6);
    let fraction = (value >> (msb - fraction_bits)) & ((1 << fraction_bits) - 1);
    msb as f64 + fraction as f64 / (1u64 << fraction_bits) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{detector::AbftDetector, statistical::StatisticalAbft};

    #[test]
    fn fixed_point_log2_tracks_exact_log2() {
        for v in [
            1u64,
            2,
            3,
            7,
            100,
            1 << 20,
            (1 << 30) + 12345,
            u32::MAX as u64,
        ] {
            let exact = (v as f64).log2();
            let approx = fixed_point_log2(v);
            assert!(
                (exact - approx).abs() < 0.1,
                "value {v}: exact {exact} vs approx {approx}"
            );
        }
        assert_eq!(fixed_point_log2(0), 0.0);
        assert_eq!(fixed_point_log2(1), 0.0);
    }

    #[test]
    fn clean_stream_produces_clean_decision() {
        let unit = StatisticalUnit::paper_256(CriticalRegion::resilient_default());
        let checksums = vec![100i64, -50, 0, 7];
        let decision = unit.process(&checksums, &checksums);
        assert!(!decision.detection.trigger_recovery);
        assert!(!decision.detection.errors_detected);
        assert_eq!(decision.detection.msd, 0);
        assert_eq!(decision.cycles, 4 + DECISION_PIPELINE_CYCLES);
        assert!(!decision.buffer_overflow);
    }

    #[test]
    fn unit_decision_matches_software_detector_on_random_patterns() {
        use rand::Rng;
        let mut rng = realm_tensor::rng::seeded(31);
        let region = CriticalRegion::resilient_default();
        let unit = StatisticalUnit::paper_256(region);
        let software = StatisticalAbft::new(region);
        let mut agreements = 0;
        let trials = 300;
        for _ in 0..trials {
            let n = 64;
            let expected: Vec<i64> = (0..n).map(|_| rng.gen_range(-1000..1000)).collect();
            let mut observed = expected.clone();
            // Random error pattern: 0..20 errors with magnitudes across the whole range.
            for _ in 0..rng.gen_range(0..20) {
                let j = rng.gen_range(0..n);
                let magnitude = 1i64 << rng.gen_range(4..30);
                observed[j] += if rng.gen::<bool>() {
                    magnitude
                } else {
                    -magnitude
                };
            }
            let deviations: Vec<i64> = observed.iter().zip(&expected).map(|(o, e)| o - e).collect();
            let hw = unit
                .process(&observed, &expected)
                .detection
                .trigger_recovery;
            let sw = software.evaluate(&deviations).trigger_recovery;
            if hw == sw {
                agreements += 1;
            }
        }
        assert!(
            agreements as f64 / trials as f64 > 0.97,
            "hardware and software decisions agree on {agreements}/{trials} patterns"
        );
    }

    #[test]
    fn buffer_overflow_is_reported() {
        let unit = StatisticalUnit::new(CriticalRegion::resilient_default(), 8);
        let stream = vec![0i64; 16];
        assert!(unit.process(&stream, &stream).buffer_overflow);
        assert_eq!(unit.buffer_depth(), 8);
    }

    #[test]
    fn cycles_scale_with_stream_length() {
        let unit = StatisticalUnit::paper_256(CriticalRegion::resilient_default());
        let short = unit.process(&[0; 16], &[0; 16]).cycles;
        let long = unit.process(&vec![0; 256], &vec![0; 256]).cycles;
        assert_eq!(long - short, 240);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_streams_are_rejected() {
        let unit = StatisticalUnit::paper_256(CriticalRegion::resilient_default());
        let _ = unit.process(&[1, 2, 3], &[1, 2]);
    }

    #[test]
    #[should_panic(expected = "at least one buffer")]
    fn zero_buffers_are_rejected() {
        let _ = StatisticalUnit::new(CriticalRegion::resilient_default(), 0);
    }
}
