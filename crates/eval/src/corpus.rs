//! Synthetic corpus generation over a model's synthetic language.
//!
//! Sequences follow the language's successor map with probability `fidelity` and otherwise
//! jump to a Zipf-distributed random token. The Zipfian tail mirrors natural-language token
//! statistics; the fidelity parameter controls how "predictable" the corpus is and therefore
//! where the clean model's perplexity lands.

use rand::Rng;
use realm_llm::weights::SyntheticLanguage;
use realm_tensor::rng::{self, SeededRng, ZipfSampler};

/// Default fraction of transitions that follow the successor map.
pub const DEFAULT_FIDELITY: f64 = 0.75;
/// Default Zipf exponent for the noise distribution.
pub const DEFAULT_ZIPF_EXPONENT: f64 = 1.1;

/// Parameters of a synthetic corpus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorpusSpec {
    /// Number of independent sequences.
    pub num_sequences: usize,
    /// Length of each sequence in tokens.
    pub seq_len: usize,
    /// Probability that a transition follows the successor map.
    pub fidelity: f64,
    /// Zipf exponent of the noise-token distribution.
    pub zipf_exponent: f64,
}

impl CorpusSpec {
    /// A small corpus suitable for unit tests and quick sweeps.
    pub fn quick() -> Self {
        Self {
            num_sequences: 4,
            seq_len: 12,
            fidelity: DEFAULT_FIDELITY,
            zipf_exponent: DEFAULT_ZIPF_EXPONENT,
        }
    }

    /// A larger corpus for the benchmark harnesses.
    pub fn standard() -> Self {
        Self {
            num_sequences: 16,
            seq_len: 24,
            fidelity: DEFAULT_FIDELITY,
            zipf_exponent: DEFAULT_ZIPF_EXPONENT,
        }
    }
}

/// A set of token sequences sampled from a synthetic language.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Corpus {
    sequences: Vec<Vec<u32>>,
}

impl Corpus {
    /// Samples a corpus from `language` according to `spec`, deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the spec asks for zero sequences or sequences shorter than two tokens.
    pub fn sample(language: &SyntheticLanguage, spec: &CorpusSpec, seed: u64) -> Self {
        assert!(
            spec.num_sequences > 0,
            "a corpus needs at least one sequence"
        );
        assert!(spec.seq_len >= 2, "sequences need at least two tokens");
        let mut rng_ = rng::seeded(rng::derive_seed(seed, 0xC0_4B05));
        let zipf = ZipfSampler::new(language.vocab_size(), spec.zipf_exponent);
        let sequences = (0..spec.num_sequences)
            .map(|_| Self::sample_sequence(language, spec, &zipf, &mut rng_))
            .collect();
        Self { sequences }
    }

    fn sample_sequence(
        language: &SyntheticLanguage,
        spec: &CorpusSpec,
        zipf: &ZipfSampler,
        rng_: &mut SeededRng,
    ) -> Vec<u32> {
        use rand::distributions::Distribution;
        let mut seq = Vec::with_capacity(spec.seq_len);
        let mut current = zipf.sample(rng_) as u32;
        seq.push(current);
        for _ in 1..spec.seq_len {
            current = if rng_.gen::<f64>() < spec.fidelity {
                language.successor(current)
            } else {
                zipf.sample(rng_) as u32
            };
            seq.push(current);
        }
        seq
    }

    /// The sequences of the corpus.
    pub fn sequences(&self) -> &[Vec<u32>] {
        &self.sequences
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn language() -> SyntheticLanguage {
        SyntheticLanguage::new(64, 3)
    }

    #[test]
    fn corpus_is_deterministic_and_in_vocabulary() {
        let lang = language();
        let spec = CorpusSpec::quick();
        let a = Corpus::sample(&lang, &spec, 5);
        let b = Corpus::sample(&lang, &spec, 5);
        assert_eq!(a, b);
        assert_ne!(a, Corpus::sample(&lang, &spec, 6));
        for seq in a.sequences() {
            assert_eq!(seq.len(), spec.seq_len);
            assert!(seq.iter().all(|&t| (t as usize) < lang.vocab_size()));
        }
        assert_eq!(a.sequences.len(), spec.num_sequences);
    }

    /// Fraction of the corpus's transitions that follow the successor map.
    fn measured_fidelity(corpus: &Corpus, language: &SyntheticLanguage) -> f64 {
        let pairs = || corpus.sequences.iter().flat_map(|seq| seq.windows(2));
        let followed = pairs()
            .filter(|pair| language.successor(pair[0]) == pair[1])
            .count();
        followed as f64 / pairs().count() as f64
    }

    #[test]
    fn measured_fidelity_tracks_spec() {
        let lang = language();
        let spec = CorpusSpec {
            num_sequences: 32,
            seq_len: 40,
            fidelity: 0.8,
            zipf_exponent: 1.1,
        };
        let corpus = Corpus::sample(&lang, &spec, 11);
        let measured = measured_fidelity(&corpus, &lang);
        // Noise tokens occasionally coincide with the successor, so measured ≥ spec slightly.
        assert!(
            (measured - 0.8).abs() < 0.08,
            "measured fidelity {measured}"
        );
    }

    #[test]
    fn zero_fidelity_rarely_follows_successors() {
        let lang = language();
        let spec = CorpusSpec {
            num_sequences: 16,
            seq_len: 30,
            fidelity: 0.0,
            zipf_exponent: 1.1,
        };
        let corpus = Corpus::sample(&lang, &spec, 2);
        assert!(measured_fidelity(&corpus, &lang) < 0.15);
    }

    #[test]
    #[should_panic(expected = "at least one sequence")]
    fn empty_spec_is_rejected() {
        let spec = CorpusSpec {
            num_sequences: 0,
            ..CorpusSpec::quick()
        };
        let _ = Corpus::sample(&language(), &spec, 0);
    }
}
