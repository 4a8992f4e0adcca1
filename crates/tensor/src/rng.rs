//! Deterministic random-number helpers.
//!
//! Every stochastic quantity in the workspace — synthetic weights, injected bit flips,
//! Monte-Carlo trials — is derived from an explicit `u64` seed through these helpers so that
//! all experiments (and therefore all regenerated figures) are reproducible run-to-run.

use crate::MatF32;
use rand::distributions::Distribution;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The deterministic RNG used across the workspace.
pub type SeededRng = ChaCha8Rng;

/// Creates a deterministic RNG from a seed.
///
/// # Example
///
/// ```
/// use rand::Rng;
/// let mut a = realm_tensor::rng::seeded(42);
/// let mut b = realm_tensor::rng::seeded(42);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
pub fn seeded(seed: u64) -> SeededRng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// Derives a child seed from a parent seed and a stream label.
///
/// Experiments fan out into many independent trials (per layer, per component, per BER point);
/// deriving child seeds keeps streams decorrelated while remaining reproducible.
pub fn derive_seed(parent: u64, stream: u64) -> u64 {
    // SplitMix64 finalizer over the combined value: cheap, well-mixed, dependency-free.
    let mut z = parent ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Samples a standard normal value using the Box–Muller transform.
///
/// Avoids pulling in `rand_distr`; precision is more than adequate for synthetic weights.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        let u2: f64 = rng.gen::<f64>();
        if u1 > f64::MIN_POSITIVE {
            let r = (-2.0 * u1.ln()).sqrt();
            return (r * (2.0 * std::f64::consts::PI * u2).cos()) as f32;
        }
    }
}

/// Fills a matrix with i.i.d. Gaussian samples `N(mean, std²)`.
pub fn gaussian_matrix<R: Rng + ?Sized>(
    rng: &mut R,
    rows: usize,
    cols: usize,
    mean: f32,
    std: f32,
) -> MatF32 {
    MatF32::from_fn(rows, cols, |_, _| mean + std * standard_normal(rng))
}

/// A reusable Zipfian sampler that precomputes the cumulative distribution.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Builds a sampler over `[0, n)` with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "ZipfSampler requires a non-empty support");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Self { cdf }
    }
}

impl Distribution<usize> for ZipfSampler {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u = rng.gen::<f64>();
        match self
            .cdf
            .binary_search_by(|probe| probe.partial_cmp(&u).expect("cdf values are finite"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;
    use rand::Rng;

    #[test]
    fn seeded_rng_is_deterministic() {
        let a: Vec<u32> = {
            let mut r = seeded(7);
            (0..8).map(|_| r.gen()).collect()
        };
        let b: Vec<u32> = {
            let mut r = seeded(7);
            (0..8).map(|_| r.gen()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = seeded(1);
        let mut b = seeded(2);
        let xs: Vec<u64> = (0..4).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..4).map(|_| b.gen()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn derive_seed_changes_with_stream() {
        assert_ne!(derive_seed(10, 0), derive_seed(10, 1));
        assert_eq!(derive_seed(10, 5), derive_seed(10, 5));
    }

    #[test]
    fn gaussian_matrix_has_expected_moments() {
        let mut rng = seeded(3);
        let m = gaussian_matrix(&mut rng, 64, 64, 1.0, 2.0);
        let s = stats::summary(&m);
        assert!((s.mean - 1.0).abs() < 0.15, "mean {}", s.mean);
        assert!((s.std - 2.0).abs() < 0.2, "std {}", s.std);
    }

    #[test]
    fn zipf_head_is_most_frequent() {
        let mut rng = seeded(11);
        let sampler = ZipfSampler::new(50, 1.1);
        let mut counts = vec![0usize; 50];
        for _ in 0..5000 {
            counts[sampler.sample(&mut rng)] += 1;
        }
        let max_idx = counts
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .map(|(i, _)| i)
            .unwrap();
        assert_eq!(max_idx, 0, "rank-0 token should dominate: {counts:?}");
        assert!(counts[0] > counts[10] && counts[10] >= counts[40]);
    }

    #[test]
    fn standard_normal_is_roughly_centred() {
        let mut rng = seeded(21);
        let mean: f32 = (0..4000).map(|_| standard_normal(&mut rng)).sum::<f32>() / 4000.0;
        assert!(mean.abs() < 0.1);
    }
}
