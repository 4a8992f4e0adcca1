//! The synthetic weight recipe: every weight of a [`Model`], and the order in
//! which it is drawn.
//!
//! No pretrained checkpoints are available in this reproduction, so model weights are
//! generated. Two properties of real LLMs are deliberately preserved because the paper's
//! findings depend on them:
//!
//! 1. **Outlier channels** — hidden states of real LLMs contain a small, consistent set of
//!    channels whose magnitudes are tens of times larger than the bulk (the observation that
//!    motivates SmoothQuant-style quantization, cited by the paper). These outliers dominate
//!    the mean/variance computed by LayerNorm/RMSNorm, which is what makes post-norm
//!    components error-sensitive (Fig. 5). Here they are realised as a shared outlier vector
//!    added to every token embedding.
//! 2. **Predictive structure** — to measure perplexity/accuracy degradation there must be
//!    something to degrade. A [`SyntheticLanguage`] defines a deterministic preferred
//!    successor for every token, and the language-model head is constructed so the clean
//!    model assigns high probability to that successor. Transformer blocks perturb the
//!    residual stream only mildly, so the clean model performs well; injected faults corrupt
//!    the residual stream and destroy that structure, degrading the task metrics exactly as
//!    hardware faults degrade a real LLM.
//!
//! # One recipe
//!
//! This module is the only place a weight is drawn. The layers take explicit f32 weights
//! ([`MultiHeadAttention::from_f32`], [`Mlp::from_f32`], [`Norm::new`],
//! [`TransformerBlock::from_parts`]) and know nothing of random numbers; [`Model::new`]
//! asks the recipe for everything it computes with. The draw order — the embedding, then
//! per block the two norm scales, `Q`, `K`, `V`, `O` and the MLP's projections, then the
//! final norm — is what every golden pins: `REPRO.md`, the quickstart output, the
//! `faulty_sweep` hook-stream canary and the `batched_parity` digests all move if one draw
//! moves.
//!
//! Each projection is drawn when its layer's constructor asks for it and quantized before
//! the next one is drawn, so one f32 matrix is alive at a time. Keep it that way: building
//! the serving model (the LLaMA-3 proxy at a 640-token context) reads about 9.1 MB VmHWM
//! on x86-64 Linux, and holding every f32 weight at once read 18.7 MB.
//!
//! [`Model`]: crate::Model
//! [`Model::new`]: crate::Model::new

use crate::attention::MultiHeadAttention;
use crate::block::TransformerBlock;
use crate::config::{Architecture, ModelConfig};
use crate::mlp::Mlp;
use crate::norm::Norm;
use realm_tensor::rng::{self, SeededRng};
use realm_tensor::MatF32;
use std::iter;

/// Standard deviation of the Gaussian bulk of token embeddings.
const EMBEDDING_STD: f32 = 1.0;
/// Standard deviation of projection weights (kept small so residual connections dominate).
const PROJECTION_STD: f32 = 0.02;

/// A synthetic "language": a deterministic preferred-successor map over the vocabulary.
///
/// The evaluation crate generates corpora by following the successor map with some noise;
/// the model head is constructed to predict the successor, so clean perplexity is low and
/// fault-induced degradation is measurable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyntheticLanguage {
    vocab_size: usize,
    successor: Vec<u32>,
}

impl SyntheticLanguage {
    /// Builds the successor map for a vocabulary, derived deterministically from a seed.
    ///
    /// The map is a random permutation-like function with no short cycles fixed at identity:
    /// each token's successor is drawn uniformly, excluding itself.
    ///
    /// # Panics
    ///
    /// Panics if `vocab_size < 2`.
    pub fn new(vocab_size: usize, seed: u64) -> Self {
        assert!(
            vocab_size >= 2,
            "a synthetic language needs at least two tokens"
        );
        use rand::Rng;
        let mut r = rng::seeded(rng::derive_seed(seed, 0x1a16));
        let successor = (0..vocab_size)
            .map(|t| {
                let mut s = r.gen_range(0..vocab_size as u32 - 1);
                if s as usize >= t {
                    s += 1;
                }
                s
            })
            .collect();
        Self {
            vocab_size,
            successor,
        }
    }

    /// Size of the vocabulary.
    pub fn vocab_size(&self) -> usize {
        self.vocab_size
    }

    /// The preferred successor of `token`.
    ///
    /// # Panics
    ///
    /// Panics if `token` is outside the vocabulary.
    pub fn successor(&self, token: u32) -> u32 {
        self.successor[token as usize]
    }
}

/// Everything a model computes with, as a recipe builds it.
#[derive(Debug, Clone)]
pub(crate) struct ModelWeights {
    /// The language the head predicts.
    pub(crate) language: SyntheticLanguage,
    /// Embedding table of shape `(vocab, hidden)`.
    pub(crate) embedding: MatF32,
    /// The Transformer blocks, first to last.
    pub(crate) blocks: Vec<TransformerBlock>,
    /// The normalization before the head.
    pub(crate) final_norm: Norm,
    /// The LM head, `(hidden, vocab)`.
    pub(crate) lm_head: MatF32,
}

/// The synthetic recipe: the model of `config` derived deterministically from `seed`.
pub(crate) fn synthetic(config: &ModelConfig, seed: u64) -> ModelWeights {
    let mut r = rng::seeded(rng::derive_seed(seed, MODEL_WEIGHT_STREAM));
    let language = SyntheticLanguage::new(config.vocab_size, seed);
    let embedding = embedding(config, &mut r);
    let blocks = (0..config.num_layers)
        .map(|_| block(config, &mut r))
        .collect();
    let final_norm = Norm::new(config.architecture, norm_gamma(&mut r, config.hidden_size));
    let lm_head = lm_head(&embedding, &language);
    ModelWeights {
        language,
        embedding: embedding.table,
        blocks,
        final_norm,
        lm_head,
    }
}

/// Internal stream label separating weight generation from other seed-derived streams.
const MODEL_WEIGHT_STREAM: u64 = 0x004d_4f44_454c;

/// One block: the two norm scales, `Q`, `K`, `V`, `O`, then the MLP's projections (`FC1`,
/// `FC2` or `Gate`, `Up`, `Down`), each matrix drawn as the constructor takes it.
fn block(config: &ModelConfig, r: &mut SeededRng) -> TransformerBlock {
    let (arch, h, f) = (config.architecture, config.hidden_size, config.ffn_size);
    let norm1 = Norm::new(arch, norm_gamma(r, h));
    let norm2 = Norm::new(arch, norm_gamma(r, h));
    let projections = (0..4).map(|_| projection(r, h, h));
    let attention = MultiHeadAttention::from_f32(config.num_heads, projections);
    let inputs = match arch {
        Architecture::OptStyle => 1,
        Architecture::LlamaStyle => 2,
    };
    let shapes = iter::repeat_n((h, f), inputs).chain([(f, h)]);
    let mlp = Mlp::from_f32(arch, shapes.map(|(i, o)| projection(r, i, o)));
    TransformerBlock::from_parts(norm1, attention, norm2, mlp)
}

/// Token embedding table plus the channels designated as outliers.
struct Embedding {
    /// Embedding table of shape `(vocab, hidden)`.
    table: MatF32,
    /// Indices of the outlier channels shared by all tokens.
    outlier_channels: Vec<usize>,
}

/// Generates the token-embedding table.
///
/// Every token receives an i.i.d. Gaussian embedding plus a shared outlier vector that is
/// non-zero only on `outlier_fraction` of the channels, scaled by `outlier_gain`. The shared
/// vector gives hidden states the strongly non-Gaussian, outlier-dominated per-token
/// distribution reported for real LLMs.
fn embedding(config: &ModelConfig, rng_: &mut SeededRng) -> Embedding {
    use rand::Rng;
    let hidden = config.hidden_size;
    let outlier_channels: Vec<usize> = (0..hidden)
        .filter(|_| rng_.gen::<f32>() < config.outlier_fraction)
        .collect();
    // Guarantee at least one outlier channel when the fraction is non-zero so tiny test
    // configurations still exhibit the phenomenon.
    let outlier_channels = if outlier_channels.is_empty() && config.outlier_fraction > 0.0 {
        vec![hidden / 2]
    } else {
        outlier_channels
    };
    let mut outlier_vector = vec![0.0f32; hidden];
    for &c in &outlier_channels {
        let sign = if rng_.gen::<bool>() { 1.0 } else { -1.0 };
        outlier_vector[c] = sign * config.outlier_gain * EMBEDDING_STD;
    }
    let table = MatF32::from_fn(config.vocab_size, hidden, |_, c| {
        EMBEDDING_STD * rng::standard_normal(rng_) + outlier_vector[c]
    });
    Embedding {
        table,
        outlier_channels,
    }
}

/// Generates a projection weight matrix of shape `(in_features, out_features)`: every
/// entry is drawn from N(0, 0.02²) ([`PROJECTION_STD`]) at any width.
///
/// The scale is kept small relative to the embeddings so that the residual stream carries the
/// token identity through the network (real pretrained transformers behave the same way:
/// block outputs are small updates to the residual stream).
fn projection(rng_: &mut SeededRng, in_features: usize, out_features: usize) -> MatF32 {
    rng::gaussian_matrix(rng_, in_features, out_features, 0.0, PROJECTION_STD)
}

/// Builds the language-model head of shape `(hidden, vocab)` that predicts each token's
/// successor.
///
/// The column for token `j` is the sum of the *non-outlier* part of the embeddings of all
/// tokens whose successor is `j`. Excluding the outlier channels keeps the shared outlier
/// vector from leaking a constant bias into every logit, preserving the separation between
/// the correct successor's logit and the rest.
fn lm_head(embedding: &Embedding, language: &SyntheticLanguage) -> MatF32 {
    let (vocab, hidden) = embedding.table.shape();
    debug_assert_eq!(vocab, language.vocab_size());
    let mut head = MatF32::zeros(hidden, vocab);
    let outlier: std::collections::HashSet<usize> =
        embedding.outlier_channels.iter().copied().collect();
    for t in 0..vocab {
        let succ = language.successor(t as u32) as usize;
        for c in 0..hidden {
            if outlier.contains(&c) {
                continue;
            }
            head[(c, succ)] += embedding.table[(t, c)];
        }
    }
    head
}

/// Per-channel normalization scale with mild variation, as found in trained models.
fn norm_gamma(rng_: &mut SeededRng, dim: usize) -> Vec<f32> {
    (0..dim)
        .map(|_| 1.0 + 0.1 * rng::standard_normal(rng_))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use realm_tensor::stats;

    fn cfg() -> ModelConfig {
        ModelConfig::tiny_opt()
    }

    #[test]
    fn synthetic_language_is_deterministic_and_self_avoiding() {
        let a = SyntheticLanguage::new(64, 7);
        let b = SyntheticLanguage::new(64, 7);
        assert_eq!(a, b);
        for t in 0..64u32 {
            assert_ne!(a.successor(t), t, "token {t} must not be its own successor");
            assert!((a.successor(t) as usize) < 64);
        }
        let c = SyntheticLanguage::new(64, 8);
        assert!((0..64).any(|t| a.successor(t) != c.successor(t)));
    }

    #[test]
    #[should_panic(expected = "at least two tokens")]
    fn synthetic_language_rejects_tiny_vocab() {
        let _ = SyntheticLanguage::new(1, 0);
    }

    #[test]
    fn embedding_has_outlier_channels() {
        let config = cfg();
        let mut r = rng::seeded(3);
        let emb = embedding(&config, &mut r);
        assert_eq!(emb.table.shape(), (config.vocab_size, config.hidden_size));
        assert!(!emb.outlier_channels.is_empty());
        // Rows should be heavy-tailed because of the shared outlier vector.
        let row = MatF32::from_vec(1, config.hidden_size, emb.table.row(0).to_vec()).unwrap();
        assert!(stats::outlier_count(&row, 3.0) >= 1);
    }

    #[test]
    fn embedding_without_outliers_is_gaussian() {
        let config = cfg().without_outliers();
        let mut r = rng::seeded(3);
        let emb = embedding(&config, &mut r);
        assert!(emb.outlier_channels.is_empty());
        let row = MatF32::from_vec(1, config.hidden_size, emb.table.row(0).to_vec()).unwrap();
        assert_eq!(stats::outlier_count(&row, 6.0), 0);
    }

    #[test]
    fn lm_head_scores_successor_highest() {
        let config = cfg();
        let language = SyntheticLanguage::new(config.vocab_size, 11);
        let mut r = rng::seeded(11);
        let emb = embedding(&config, &mut r);
        let head = lm_head(&emb, &language);
        let mut correct = 0;
        for t in 0..config.vocab_size {
            let e = emb.table.row(t);
            let mut best = (0usize, f32::NEG_INFINITY);
            for j in 0..config.vocab_size {
                let score: f32 = (0..config.hidden_size).map(|c| e[c] * head[(c, j)]).sum();
                if score > best.1 {
                    best = (j, score);
                }
            }
            if best.0 == language.successor(t as u32) as usize {
                correct += 1;
            }
        }
        let accuracy = correct as f32 / config.vocab_size as f32;
        assert!(
            accuracy > 0.8,
            "lm head should recover the successor for most tokens, got {accuracy}"
        );
    }

    #[test]
    fn projection_scale_is_small() {
        let mut r = rng::seeded(5);
        let w = projection(&mut r, 64, 64);
        let s = stats::summary(&w);
        assert!(s.std < 0.1, "projection std {} too large", s.std);
        assert!(s.mean.abs() < 0.02);
    }

    #[test]
    fn norm_gamma_is_near_one() {
        let mut r = rng::seeded(5);
        let g = norm_gamma(&mut r, 256);
        let m = g.iter().sum::<f32>() / 256.0;
        assert!((m - 1.0).abs() < 0.05);
    }
}
