//! Summary statistics used by the resilience characterization and synthetic-weight generation.
//!
//! The paper's central architectural insight (Fig. 5) is that hidden states consist of a
//! near-zero bulk plus a handful of outliers, so the mean and standard deviation computed by
//! LayerNorm/RMSNorm are dominated by those outliers. These helpers quantify exactly that:
//! [`summary`] returns µ/σ, and [`outlier_count`]/[`kurtosis_excess`] characterize how heavy
//! the tails are before and after an injected error.

use crate::MatF32;

/// Basic distribution summary of a matrix's elements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Arithmetic mean.
    pub mean: f32,
    /// Population standard deviation.
    pub std: f32,
    /// Minimum element (0.0 for an empty matrix).
    pub min: f32,
    /// Maximum element (0.0 for an empty matrix).
    pub max: f32,
    /// Number of elements summarised.
    pub count: usize,
}

impl Summary {
    /// Range between the maximum and minimum element.
    pub fn range(&self) -> f32 {
        self.max - self.min
    }
}

/// Computes mean, standard deviation and extrema of a matrix.
///
/// # Example
///
/// ```
/// use realm_tensor::{MatF32, stats};
/// let x = MatF32::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0])?;
/// let s = stats::summary(&x);
/// assert_eq!(s.mean, 2.5);
/// assert_eq!(s.max, 4.0);
/// # Ok::<(), realm_tensor::TensorError>(())
/// ```
pub fn summary(x: &MatF32) -> Summary {
    let count = x.len();
    if count == 0 {
        return Summary {
            mean: 0.0,
            std: 0.0,
            min: 0.0,
            max: 0.0,
            count: 0,
        };
    }
    let mut sum = 0.0f64;
    let mut min = f32::INFINITY;
    let mut max = f32::NEG_INFINITY;
    for &v in x.iter() {
        sum += v as f64;
        min = min.min(v);
        max = max.max(v);
    }
    let mean = (sum / count as f64) as f32;
    let mut var = 0.0f64;
    for &v in x.iter() {
        let d = v as f64 - mean as f64;
        var += d * d;
    }
    let std = (var / count as f64).sqrt() as f32;
    Summary {
        mean,
        std,
        min,
        max,
        count,
    }
}

/// Counts elements whose absolute value exceeds `threshold` standard deviations of the bulk.
///
/// This is the operational definition of "outlier channel" used when generating synthetic
/// activations and when measuring how an injected error skews the pre-normalization
/// distribution.
pub fn outlier_count(x: &MatF32, threshold_sigmas: f32) -> usize {
    let s = summary(x);
    if s.std == 0.0 {
        return 0;
    }
    x.iter()
        .filter(|&&v| ((v - s.mean) / s.std).abs() > threshold_sigmas)
        .count()
}

/// Excess kurtosis of the element distribution (0.0 for a Gaussian).
///
/// LLM hidden states are strongly leptokurtic (heavy-tailed); this is used in tests to check
/// that the synthetic activation generator actually produces outlier-dominated tensors.
pub fn kurtosis_excess(x: &MatF32) -> f32 {
    let s = summary(x);
    if s.count < 4 || s.std == 0.0 {
        return 0.0;
    }
    let mut fourth = 0.0f64;
    for &v in x.iter() {
        let d = (v - s.mean) as f64 / s.std as f64;
        fourth += d.powi(4);
    }
    (fourth / s.count as f64 - 3.0) as f32
}

/// Builds a histogram of `log2(|value| + 1)` with `bins` buckets spanning `[0, max_log2)`.
///
/// Used to visualise accumulator error-magnitude distributions in the figure harnesses.
pub fn log2_histogram(
    values: impl IntoIterator<Item = f64>,
    bins: usize,
    max_log2: f64,
) -> Vec<usize> {
    let mut hist = vec![0usize; bins.max(1)];
    if bins == 0 || max_log2 <= 0.0 {
        return hist;
    }
    let width = max_log2 / bins as f64;
    for v in values {
        let l = (v.abs() + 1.0).log2();
        let idx = ((l / width) as usize).min(bins - 1);
        hist[idx] += 1;
    }
    hist
}

/// Pearson correlation coefficient between two equal-length slices.
///
/// Returns 0.0 when either slice has zero variance or the lengths differ.
pub fn pearson(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() || a.len() < 2 {
        return 0.0;
    }
    let n = a.len() as f64;
    let ma = a.iter().sum::<f64>() / n;
    let mb = b.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (&x, &y) in a.iter().zip(b.iter()) {
        cov += (x - ma) * (y - mb);
        va += (x - ma).powi(2);
        vb += (y - mb).powi(2);
    }
    if va == 0.0 || vb == 0.0 {
        return 0.0;
    }
    cov / (va.sqrt() * vb.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MatF32;

    #[test]
    fn summary_of_known_values() {
        let x = MatF32::from_vec(1, 4, vec![2.0, 4.0, 4.0, 6.0]).unwrap();
        let s = summary(&x);
        assert_eq!(s.mean, 4.0);
        assert!((s.std - 2.0_f32.sqrt()).abs() < 1e-6);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 6.0);
        assert_eq!(s.range(), 4.0);
    }

    #[test]
    fn summary_of_empty_matrix_is_zero() {
        let s = summary(&MatF32::zeros(0, 0));
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn outlier_count_detects_injected_spike() {
        let mut x = MatF32::from_fn(1, 1000, |_, c| ((c % 7) as f32 - 3.0) * 0.1);
        assert_eq!(outlier_count(&x, 6.0), 0);
        x.set(0, 500, 50.0).unwrap();
        assert!(outlier_count(&x, 6.0) >= 1);
    }

    #[test]
    fn kurtosis_of_uniformish_data_is_negative() {
        let x = MatF32::from_fn(1, 1024, |_, c| (c as f32 / 1024.0) - 0.5);
        assert!(kurtosis_excess(&x) < 0.0);
    }

    #[test]
    fn kurtosis_increases_with_outliers() {
        let base = MatF32::from_fn(1, 1024, |_, c| ((c % 13) as f32 - 6.0) * 0.05);
        let mut spiked = base.clone();
        spiked.set(0, 10, 30.0).unwrap();
        spiked.set(0, 700, -30.0).unwrap();
        assert!(kurtosis_excess(&spiked) > kurtosis_excess(&base));
    }

    #[test]
    fn log2_histogram_buckets_values() {
        let hist = log2_histogram(vec![0.0, 1.0, 3.0, 1000.0], 4, 32.0);
        assert_eq!(hist.iter().sum::<usize>(), 4);
        assert!(hist[0] >= 3); // small values land in the first bucket
        assert_eq!(hist[1], 1); // log2(1001) ≈ 10 lands in bucket 1 of width 8
    }

    #[test]
    fn log2_histogram_zero_bins_is_empty() {
        assert_eq!(log2_histogram(vec![1.0], 0, 32.0), vec![0usize; 1]);
    }

    #[test]
    fn pearson_of_linear_relationship_is_one() {
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let b = vec![2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&a, &b) - 1.0).abs() < 1e-12);
        let c = vec![8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&a, &c) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_degenerate_inputs_are_zero() {
        assert_eq!(pearson(&[1.0, 1.0], &[2.0, 3.0]), 0.0);
        assert_eq!(pearson(&[1.0], &[2.0]), 0.0);
        assert_eq!(pearson(&[1.0, 2.0], &[2.0]), 0.0);
    }
}
