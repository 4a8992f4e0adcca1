//! The critical error region (Fig. 6) and its fitting from characterization data.
//!
//! The paper summarises its magnitude/frequency characterization (Q1.4) with a *critical
//! region* in the `(log₂ mag, log₂ freq)` plane: error patterns inside the region degrade the
//! model beyond the acceptable budget and must be recovered; patterns outside it are ignored.
//! The region's boundary consists of
//!
//! * a **horizontal line** `log₂(freq) = θ_freq`: below this frequency, errors are tolerable
//!   regardless of their magnitude (resilient components only);
//! * an **inclined line** with slope `a > 1` and intercept `−b`, from which the paper derives
//!   the run-time magnitude threshold `θ_mag = b − (a−1)·log₂(MSD)`: deviations smaller than
//!   `2^θ_mag` are ignored when counting the effective error frequency.
//!
//! [`CriticalRegion::fit`] recovers `a`, `b` and `θ_freq` from a grid of characterization
//! samples, which is how `realm-core` turns an injection campaign into detector parameters.

/// One characterization sample: an error pattern and the model degradation it caused.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionSample {
    /// log₂ of the injected error magnitude (accumulator LSBs).
    pub log2_mag: f64,
    /// log₂ of the injected error frequency (errors per GEMM).
    pub log2_freq: f64,
    /// Measured degradation of the task metric (e.g. perplexity increase or accuracy drop),
    /// in the same units as the acceptance budget.
    pub degradation: f64,
}

/// Fitted critical-region parameters for one network component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CriticalRegion {
    /// Slope of the inclined boundary (`a > 1` for resilient components).
    pub a: f64,
    /// Intercept parameter of the inclined boundary.
    pub b: f64,
    /// log₂ of the frequency threshold below which errors are always tolerable. Sensitive
    /// components effectively have `θ_freq = −∞` (any counted error triggers recovery),
    /// represented here by a large negative value.
    pub theta_freq_log2: f64,
}

impl CriticalRegion {
    /// A conservative region that triggers recovery whenever any significant error is seen —
    /// appropriate for sensitive components (`O`, `FC2`, `Down`) whose tolerance is minimal.
    pub fn sensitive_default() -> Self {
        Self {
            a: 1.2,
            b: 18.0,
            theta_freq_log2: -1.0,
        }
    }

    /// A permissive region representative of resilient components (`Q`, `K`, `V`, `QKᵀ`,
    /// `SV`, `FC1`, `Gate`, `Up`): sporadic large errors (up to a handful per GEMM) and
    /// frequent small errors both fall outside the critical region.
    pub fn resilient_default() -> Self {
        Self {
            a: 1.8,
            b: 25.0,
            theta_freq_log2: 1.6,
        }
    }

    /// Creates a region from explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `a <= 1.0` (the derivation of `θ_mag` requires a slope greater than one).
    pub fn new(a: f64, b: f64, theta_freq_log2: f64) -> Self {
        assert!(
            a > 1.0,
            "the inclined boundary requires slope a > 1 (got {a})"
        );
        Self {
            a,
            b,
            theta_freq_log2,
        }
    }

    /// The frequency threshold as a linear error count.
    pub fn theta_freq(&self) -> f64 {
        self.theta_freq_log2.exp2()
    }

    /// A scalar sensitivity score: *higher means more sensitive*. The score is
    /// `−θ_freq_log2` — the horizontal boundary dominates the region's reach, because it
    /// alone decides whether a component tolerates sporadic errors at all (a sensitive
    /// region with `θ_freq < 1` recovers on *any* counted error, whereas the inclined
    /// boundary only filters which deviations are counted). Regions with equal frequency
    /// thresholds are ordered by their inclined boundaries in
    /// [`rank_by_sensitivity`], not here.
    pub fn sensitivity_log2(&self) -> f64 {
        -self.theta_freq_log2
    }

    /// Whether this region exhibits sensitive-component behaviour: a frequency threshold
    /// below one error per GEMM, meaning any counted error triggers recovery.
    pub fn is_sensitive(&self) -> bool {
        self.theta_freq() < 1.0
    }

    /// Fits the region from characterization samples under a degradation budget.
    ///
    /// * `θ_freq` is the largest sampled `log₂(freq)` such that **every** sample at or below
    ///   that frequency stays within the budget (the horizontal boundary of Fig. 6(a)). If
    ///   even the lowest sampled frequency violates the budget, `θ_freq` is set below it
    ///   (sensitive-component behaviour, Fig. 6(b)).
    /// * The inclined boundary is a least-squares fit of the acceptable/critical transition
    ///   points in the `(log₂ MSD, log₂ mag)` plane: for each sampled MSD diagonal, the
    ///   largest magnitude that stays within budget becomes one point `(log₂ MSD, θ_mag)`,
    ///   and the line `θ_mag = b − (a−1)·log₂ MSD` is fitted through those points.
    ///
    /// Returns `None` if there are no samples, or if no transition points exist (e.g. all
    /// samples acceptable — there is no critical region to fit).
    pub fn fit(samples: &[RegionSample], budget: f64) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        // Horizontal boundary: frequencies whose *worst-case* degradation over all magnitudes
        // stays within budget.
        let mut freqs: Vec<f64> = samples.iter().map(|s| s.log2_freq).collect();
        freqs.sort_by(|p, q| p.partial_cmp(q).expect("finite frequencies"));
        freqs.dedup_by(|p, q| (*p - *q).abs() < 1e-9);
        let mut theta_freq_log2 = freqs[0] - 1.0;
        for &f in &freqs {
            let worst = samples
                .iter()
                .filter(|s| (s.log2_freq - f).abs() < 1e-9)
                .map(|s| s.degradation)
                .fold(0.0f64, f64::max);
            if worst <= budget {
                theta_freq_log2 = f;
            } else {
                break;
            }
        }

        // Inclined boundary: for each MSD diagonal, find the largest acceptable magnitude.
        let mut transition_points: Vec<(f64, f64)> = Vec::new();
        let mut msds: Vec<f64> = samples.iter().map(|s| s.log2_mag + s.log2_freq).collect();
        msds.sort_by(|p, q| p.partial_cmp(q).expect("finite MSDs"));
        msds.dedup_by(|p, q| (*p - *q).abs() < 1e-9);
        for &m in &msds {
            // Only samples above the frequency cap are relevant for the inclined boundary:
            // everything at or below θ_freq is already tolerated by the horizontal boundary.
            let diagonal: Vec<&RegionSample> = samples
                .iter()
                .filter(|s| {
                    (s.log2_mag + s.log2_freq - m).abs() < 1e-9
                        && s.log2_freq > theta_freq_log2 + 1e-9
                })
                .collect();
            let has_critical = diagonal.iter().any(|s| s.degradation > budget);
            if !has_critical {
                continue;
            }
            let acceptable_max_mag = diagonal
                .iter()
                .filter(|s| s.degradation <= budget)
                .map(|s| s.log2_mag)
                .fold(f64::NEG_INFINITY, f64::max);
            if acceptable_max_mag.is_finite() {
                transition_points.push((m, acceptable_max_mag));
            }
        }
        if transition_points.len() < 2 {
            return None;
        }
        // Least-squares fit of θ_mag = b − (a−1)·log₂(MSD)  ⇔  y = b − slope·x.
        let n = transition_points.len() as f64;
        let sx: f64 = transition_points.iter().map(|p| p.0).sum();
        let sy: f64 = transition_points.iter().map(|p| p.1).sum();
        let sxx: f64 = transition_points.iter().map(|p| p.0 * p.0).sum();
        let sxy: f64 = transition_points.iter().map(|p| p.0 * p.1).sum();
        let denom = n * sxx - sx * sx;
        if denom.abs() < 1e-12 {
            return None;
        }
        let slope = (n * sxy - sx * sy) / denom; // = -(a-1)
        let intercept = (sy - slope * sx) / n; // = b
        let a = (1.0 - slope).max(1.0 + 1e-6);
        Some(Self {
            a,
            b: intercept,
            theta_freq_log2,
        })
    }
}

/// Ranks keyed regions from most to least sensitive (descending
/// [`CriticalRegion::sensitivity_log2`]; ties break on the intercept `b`, ascending, so
/// the ordering is total and deterministic). This is the spatial-protection order an
/// adaptive controller uses: the most sensitive components earn a stricter scheme first
/// and give it up last.
pub fn rank_by_sensitivity<K: Copy>(regions: &[(K, CriticalRegion)]) -> Vec<K> {
    let mut indexed: Vec<usize> = (0..regions.len()).collect();
    indexed.sort_by(|&i, &j| {
        let (si, sj) = (
            regions[i].1.sensitivity_log2(),
            regions[j].1.sensitivity_log2(),
        );
        sj.partial_cmp(&si)
            .expect("finite sensitivity scores")
            .then(
                regions[i]
                    .1
                    .b
                    .partial_cmp(&regions[j].1.b)
                    .expect("finite intercepts"),
            )
            .then(i.cmp(&j))
    });
    indexed.into_iter().map(|i| regions[i].0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::AbftDetector;
    use crate::statistical::StatisticalAbft;

    /// Synthetic characterization surface: degradation is high only when both the frequency
    /// exceeds 2^3 and the magnitude exceeds the diagonal boundary mag_thr = 24 − 0.8·log2(MSD).
    fn synthetic_samples() -> Vec<RegionSample> {
        let mut samples = Vec::new();
        for log2_mag in (6..=30).step_by(2) {
            for log2_freq in 0..=12 {
                let log2_msd = log2_mag as f64 + log2_freq as f64;
                let mag_threshold = 24.0 - 0.8 * log2_msd;
                let critical = (log2_freq as f64) > 3.0 && (log2_mag as f64) > mag_threshold;
                samples.push(RegionSample {
                    log2_mag: log2_mag as f64,
                    log2_freq: log2_freq as f64,
                    degradation: if critical { 5.0 } else { 0.05 },
                });
            }
        }
        samples
    }

    #[test]
    #[should_panic(expected = "slope a > 1")]
    fn slope_below_one_is_rejected() {
        let _ = CriticalRegion::new(0.9, 10.0, 2.0);
    }

    #[test]
    fn fit_recovers_synthetic_boundary() {
        let samples = synthetic_samples();
        let region = CriticalRegion::fit(&samples, 0.3).expect("fit must succeed");
        // Horizontal boundary at log2(freq) = 3.
        assert!(
            (region.theta_freq_log2 - 3.0).abs() <= 1.0,
            "θ_freq {}",
            region.theta_freq_log2
        );
        // Slope a − 1 should approximate the synthetic 0.8.
        assert!((region.a - 1.8).abs() < 0.4, "a {}", region.a);
        // Intercept should land in the neighbourhood of the synthetic 24; the coarse 2-bit
        // sampling grid biases the transition points low, so the tolerance is generous.
        assert!((region.b - 24.0).abs() < 7.0, "b {}", region.b);
        // Functionally, the fitted region must tolerate a sporadic large error but flag a
        // burst of significant errors, like the synthetic ground truth does.
        let detector = StatisticalAbft::new(region);
        assert!(!detector.evaluate(&[1 << 28]).trigger_recovery);
        assert!(detector.evaluate(&[1 << 24; 64]).trigger_recovery);
    }

    #[test]
    fn fit_handles_all_acceptable_data() {
        let samples: Vec<RegionSample> = (0..10)
            .map(|i| RegionSample {
                log2_mag: i as f64,
                log2_freq: 1.0,
                degradation: 0.0,
            })
            .collect();
        assert!(CriticalRegion::fit(&samples, 0.3).is_none());
        assert!(CriticalRegion::fit(&[], 0.3).is_none());
    }

    #[test]
    fn fit_marks_sensitive_behaviour_with_low_theta_freq() {
        // Every injection, even a single error, exceeds the budget: θ_freq must fall below
        // the smallest sampled frequency.
        let mut samples = Vec::new();
        for log2_mag in (10..=28).step_by(2) {
            for log2_freq in 0..=6 {
                samples.push(RegionSample {
                    log2_mag: log2_mag as f64,
                    log2_freq: log2_freq as f64,
                    degradation: if log2_mag >= 20 { 9.0 } else { 0.0 },
                });
            }
        }
        let region = CriticalRegion::fit(&samples, 0.3).expect("fit must succeed");
        assert!(region.theta_freq_log2 < 0.0);
    }

    #[test]
    fn theta_freq_roundtrips_log_and_linear() {
        let region = CriticalRegion::new(1.5, 20.0, 3.0);
        assert!((region.theta_freq() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn sensitivity_orders_the_default_regions() {
        let sensitive = CriticalRegion::sensitive_default();
        let resilient = CriticalRegion::resilient_default();
        assert!(sensitive.sensitivity_log2() > resilient.sensitivity_log2());
        assert!(sensitive.is_sensitive());
        assert!(!resilient.is_sensitive());
    }

    #[test]
    fn rank_by_sensitivity_puts_sensitive_regions_first() {
        let regions = [
            ("resilient", CriticalRegion::resilient_default()),
            ("sensitive", CriticalRegion::sensitive_default()),
            ("middle", CriticalRegion::new(1.5, 21.0, 0.5)),
        ];
        let ranked = rank_by_sensitivity(&regions);
        assert_eq!(ranked, vec!["sensitive", "middle", "resilient"]);
        // Identical regions rank deterministically by input order.
        let tied = [(0usize, CriticalRegion::resilient_default()); 3];
        let tied = [tied[0], (1, tied[1].1), (2, tied[2].1)];
        assert_eq!(rank_by_sensitivity(&tied), vec![0, 1, 2]);
    }
}
