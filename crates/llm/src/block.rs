//! Transformer blocks in the two variants studied by the paper (Fig. 2).
//!
//! Both variants are pre-normalization blocks:
//!
//! ```text
//! x = x + Attention(Norm1(x))
//! x = x + Mlp(Norm2(x))
//! ```
//!
//! so the outputs of the attention output projection `O` and of the last MLP projection
//! (`FC2` or `Down`) are added onto the residual stream, which is then consumed by the *next*
//! normalization layer. That wiring is what makes them the paper's "sensitive" components: a
//! corrupted residual element skews the next normalization's statistics and perturbs every
//! channel downstream.

use crate::attention::MultiHeadAttention;
use crate::config::{Architecture, ModelConfig};
use crate::kv_cache::KvTarget;
use crate::mlp::Mlp;
use crate::norm::{LayerNorm, RmsNorm};
use crate::quantized::ForwardPass;
use crate::weights;
use crate::Result;
use realm_tensor::rng::SeededRng;
use realm_tensor::MatF32;

/// Normalization layer variant used by a block.
#[derive(Debug, Clone)]
pub enum Norm {
    /// LayerNorm (OPT-style blocks).
    Layer(LayerNorm),
    /// RMSNorm (LLaMA-style blocks).
    Rms(RmsNorm),
}

impl Norm {
    /// Creates the normalization variant matching the architecture.
    pub fn new(config: &ModelConfig, rng: &mut SeededRng) -> Self {
        let gamma = weights::norm_gamma(rng, config.hidden_size);
        match config.architecture {
            Architecture::OptStyle => {
                Norm::Layer(LayerNorm::new(gamma, vec![0.0; config.hidden_size]))
            }
            Architecture::LlamaStyle => Norm::Rms(RmsNorm::new(gamma)),
        }
    }

    /// Applies the normalization to every row of `x`.
    pub fn forward(&self, x: &MatF32) -> MatF32 {
        match self {
            Norm::Layer(n) => n.forward(x),
            Norm::Rms(n) => n.forward(x),
        }
    }

    /// [`Norm::forward`] into caller-provided storage (reshaped in place, bit-identical).
    pub fn forward_into(&self, x: &MatF32, out: &mut MatF32) {
        match self {
            Norm::Layer(n) => n.forward_into(x, out),
            Norm::Rms(n) => n.forward_into(x, out),
        }
    }

    /// Number of channels the normalization expects.
    pub fn dim(&self) -> usize {
        match self {
            Norm::Layer(n) => n.dim(),
            Norm::Rms(n) => n.dim(),
        }
    }
}

/// A single pre-normalization Transformer block.
#[derive(Debug, Clone)]
pub struct TransformerBlock {
    norm1: Norm,
    norm2: Norm,
    attention: MultiHeadAttention,
    mlp: Mlp,
}

impl TransformerBlock {
    /// Creates a block with synthetic weights drawn from `rng`.
    pub fn new(config: &ModelConfig, rng: &mut SeededRng) -> Self {
        Self {
            norm1: Norm::new(config, rng),
            norm2: Norm::new(config, rng),
            attention: MultiHeadAttention::new(config, rng),
            mlp: Mlp::new(config, rng),
        }
    }

    /// Accesses the attention sub-layer (used by tests and workload accounting).
    pub fn attention(&self) -> &MultiHeadAttention {
        &self.attention
    }

    /// Runs the block as layer `layer` of `pass` over an owned (typically workspace-pooled)
    /// residual stream `x` of shape `(new_tokens, hidden)`: the attention and MLP outputs
    /// are added onto `x` in place, every intermediate comes from the pass's workspace, and
    /// `x` is returned as the block output.
    ///
    /// `kv` decides solo or batched (see [`KvTarget`]). Normalization and the residual
    /// additions are row-wise, so with a batch target — `x` stacking every slot's rows in
    /// partition order — the result is bit-exact with running the block once per sequence.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the attention and MLP sub-layers.
    pub fn forward(
        &self,
        mut x: MatF32,
        layer: usize,
        kv: &mut KvTarget<'_>,
        pass: &mut ForwardPass<'_>,
    ) -> Result<MatF32> {
        let ran = (|| -> Result<()> {
            let mut normed = pass.ws.take_mat_f32(x.rows(), x.cols());
            self.norm1.forward_into(&x, &mut normed);
            let attn_out = self.attention.forward(&normed, layer, kv, pass);
            pass.ws.recycle_mat_f32(normed);
            let attn_out = attn_out?;
            let added = x.add_assign(&attn_out);
            pass.ws.recycle_mat_f32(attn_out);
            added?;

            let mut normed = pass.ws.take_mat_f32(x.rows(), x.cols());
            self.norm2.forward_into(&x, &mut normed);
            let mlp_out = self.mlp.forward(&normed, layer, pass);
            pass.ws.recycle_mat_f32(normed);
            let mlp_out = mlp_out?;
            let added = x.add_assign(&mlp_out);
            pass.ws.recycle_mat_f32(mlp_out);
            Ok(added?)
        })();
        match ran {
            Ok(()) => Ok(x),
            Err(e) => {
                pass.ws.recycle_mat_f32(x);
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::{GemmHook, NoopHook, RecordingHook};
    use crate::kv_cache::KvCache;
    use crate::{Component, Stage};
    use realm_tensor::{rng, ReferenceEngine, Workspace};

    /// `block(x)` as layer 0 of a fresh solo prefill pass on the oracle backend.
    fn forward(block: &TransformerBlock, x: &MatF32, hook: &mut dyn GemmHook) -> MatF32 {
        let attn = block.attention();
        let mut cache = KvCache::new(1, attn.num_heads(), attn.head_dim(), 0);
        let mut kv = KvTarget::Solo(&mut cache);
        let (stage, origin, mut ws) = (Stage::Prefill, kv.shared_origin(), Workspace::new());
        let mut pass = ForwardPass::new(stage, origin, &ReferenceEngine, hook, &mut ws);
        block.forward(x.clone(), 0, &mut kv, &mut pass).unwrap()
    }

    #[test]
    fn block_preserves_shape_for_both_architectures() {
        for config in [ModelConfig::tiny_opt(), ModelConfig::tiny_llama()] {
            let mut r = rng::seeded(6);
            let block = TransformerBlock::new(&config, &mut r);
            let x = rng::gaussian_matrix(&mut r, 4, config.hidden_size, 0.0, 1.0);
            let y = forward(&block, &x, &mut NoopHook);
            assert_eq!(y.shape(), x.shape(), "{}", config.name);
            assert!(y.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn block_reports_architecture_specific_components() {
        let config = ModelConfig::tiny_llama();
        let mut r = rng::seeded(6);
        let block = TransformerBlock::new(&config, &mut r);
        let x = rng::gaussian_matrix(&mut r, 2, config.hidden_size, 0.0, 1.0);
        let mut rec = RecordingHook::new();
        forward(&block, &x, &mut rec);
        assert_eq!(rec.count_for(Component::Down), 1);
        assert_eq!(rec.count_for(Component::Fc2), 0);
    }

    #[test]
    fn residual_stream_carries_input_identity() {
        // Because projections are small, the block output stays close to its input: the
        // residual connection dominates, as in pretrained transformers. This is the property
        // that lets the synthetic lm-head predict successors from the final hidden state.
        let config = ModelConfig::tiny_opt();
        let mut r = rng::seeded(12);
        let block = TransformerBlock::new(&config, &mut r);
        let x = rng::gaussian_matrix(&mut r, 3, config.hidden_size, 0.0, 1.0);
        let y = forward(&block, &x, &mut NoopHook);
        let relative_change =
            y.distance(&x).unwrap() / x.distance(&MatF32::zeros(3, config.hidden_size)).unwrap();
        assert!(
            relative_change < 0.6,
            "block output should stay close to the residual input, change={relative_change}"
        );
    }

    #[test]
    fn norm_variant_matches_architecture() {
        let mut r = rng::seeded(1);
        assert!(matches!(
            Norm::new(&ModelConfig::tiny_opt(), &mut r),
            Norm::Layer(_)
        ));
        assert!(matches!(
            Norm::new(&ModelConfig::tiny_llama(), &mut r),
            Norm::Rms(_)
        ));
        let n = Norm::new(&ModelConfig::tiny_opt(), &mut r);
        assert_eq!(n.dim(), ModelConfig::tiny_opt().hidden_size);
    }
}
