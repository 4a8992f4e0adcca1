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
use crate::batch::BatchedKvCache;
use crate::mlp::Mlp;
use crate::norm::Norm;
use crate::quantized::ForwardPass;
use crate::Result;
use realm_tensor::{MatF32, RowPartition};

/// A single pre-normalization Transformer block.
#[derive(Debug, Clone)]
pub struct TransformerBlock {
    norm1: Norm,
    attention: MultiHeadAttention,
    norm2: Norm,
    mlp: Mlp,
}

impl TransformerBlock {
    /// The block `x + Attention(Norm1(x))`, then `x + Mlp(Norm2(x))`, from its sub-layers.
    pub fn from_parts(norm1: Norm, attention: MultiHeadAttention, norm2: Norm, mlp: Mlp) -> Self {
        Self {
            norm1,
            attention,
            norm2,
            mlp,
        }
    }

    /// Runs the block as layer `layer` of `pass` over an owned (typically workspace-pooled)
    /// residual stream `x` of shape `(new_tokens, hidden)`: the attention and MLP outputs
    /// are added onto `x` in place, every intermediate comes from the pass's workspace, and
    /// `x` is returned as the block output.
    ///
    /// `x` stacks the rows of every slot of `cache` in `parts` order (group `g` is slot
    /// `g`'s rows; a solo sequence is the one group of a one-slot cache). Normalization and
    /// the residual additions are row-wise, so the result is bit-exact with running the
    /// block once per sequence.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the attention and MLP sub-layers.
    pub fn forward(
        &self,
        mut x: MatF32,
        layer: usize,
        cache: &mut BatchedKvCache,
        parts: &RowPartition,
        pass: &mut ForwardPass<'_>,
    ) -> Result<MatF32> {
        let ran = (|| -> Result<()> {
            let mut normed = pass.ws.take_mat_f32(x.rows(), x.cols());
            self.norm1.forward_into(&x, &mut normed);
            let attn_out = self.attention.forward(&normed, layer, cache, parts, pass);
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
    use crate::config::{Architecture, ModelConfig};
    use crate::hooks::{GemmHook, NoopHook, RecordingHook};
    use crate::{Component, Stage};
    use realm_tensor::rng::{self, SeededRng};
    use realm_tensor::{ReferenceEngine, Workspace};

    /// One block's weights in the synthetic recipe's draw order: the two norm scales, then
    /// `Q`, `K`, `V`, `O` and the MLP's projections (`FC1`, `FC2` or `Gate`, `Up`, `Down`).
    fn draw(config: &ModelConfig, r: &mut SeededRng) -> ([Vec<f32>; 2], Vec<MatF32>) {
        let (h, f) = (config.hidden_size, config.ffn_size);
        let mut gamma = || {
            (0..h)
                .map(|_| 1.0 + 0.1 * rng::standard_normal(r))
                .collect()
        };
        let gammas = [gamma(), gamma()];
        let mut shapes = vec![(h, h); 4];
        if config.architecture == Architecture::LlamaStyle {
            shapes.push((h, f));
        }
        shapes.extend([(h, f), (f, h)]);
        let projections = shapes.into_iter();
        let projections = projections.map(|(i, o)| rng::gaussian_matrix(r, i, o, 0.0, 0.02));
        (gammas, projections.collect())
    }

    /// The block of `config` built from weights in [`draw`]'s order.
    fn build(
        config: &ModelConfig,
        [gamma1, gamma2]: [Vec<f32>; 2],
        mut projections: Vec<MatF32>,
    ) -> TransformerBlock {
        let (arch, mlp) = (config.architecture, projections.split_off(4));
        TransformerBlock::from_parts(
            Norm::new(arch, gamma1),
            MultiHeadAttention::from_f32(config.num_heads, projections),
            Norm::new(arch, gamma2),
            Mlp::from_f32(arch, mlp),
        )
    }

    /// `block(x)` as layer 0 of a fresh solo prefill pass on the oracle backend.
    fn forward(
        config: &ModelConfig,
        block: &TransformerBlock,
        x: &MatF32,
        hook: &mut dyn GemmHook,
    ) -> MatF32 {
        let mut cache = BatchedKvCache::new(1, 1, config.num_heads, config.head_dim());
        let parts = RowPartition::from_lens(&[x.rows()]);
        let mut ws = Workspace::new();
        let mut pass = ForwardPass::new(Stage::Prefill, &ReferenceEngine, hook, &mut ws);
        block
            .forward(x.clone(), 0, &mut cache, &parts, &mut pass)
            .unwrap()
    }

    #[test]
    fn block_preserves_shape_for_both_architectures() {
        for config in [ModelConfig::tiny_opt(), ModelConfig::tiny_llama()] {
            let mut r = rng::seeded(6);
            let (gammas, projections) = draw(&config, &mut r);
            let block = build(&config, gammas, projections);
            let x = rng::gaussian_matrix(&mut r, 4, config.hidden_size, 0.0, 1.0);
            let y = forward(&config, &block, &x, &mut NoopHook);
            assert_eq!(y.shape(), x.shape(), "{}", config.name);
            assert!(y.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn block_reports_architecture_specific_components() {
        let config = ModelConfig::tiny_llama();
        let mut r = rng::seeded(6);
        let (gammas, projections) = draw(&config, &mut r);
        let block = build(&config, gammas, projections);
        let x = rng::gaussian_matrix(&mut r, 2, config.hidden_size, 0.0, 1.0);
        let mut rec = RecordingHook::new();
        forward(&config, &block, &x, &mut rec);
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
        let (gammas, projections) = draw(&config, &mut r);
        let block = build(&config, gammas, projections);
        let x = rng::gaussian_matrix(&mut r, 3, config.hidden_size, 0.0, 1.0);
        let y = forward(&config, &block, &x, &mut NoopHook);
        let relative_change =
            y.distance(&x).unwrap() / x.distance(&MatF32::zeros(3, config.hidden_size)).unwrap();
        assert!(
            relative_change < 0.6,
            "block output should stay close to the residual input, change={relative_change}"
        );
    }

    #[test]
    fn a_zeroed_output_projection_hides_the_projections_that_feed_it() {
        // With every `O` weight zero the attention adds nothing to the residual stream, so
        // the block's output cannot depend on `Q`/`K`/`V`; with `FC2`/`Down` zero the same
        // holds for `FC1` or `Gate`/`Up`. The edited block still runs every GEMM of the
        // unedited one.
        for config in [ModelConfig::tiny_opt(), ModelConfig::tiny_llama()] {
            let mut r = rng::seeded(31);
            let (gammas, base) = draw(&config, &mut r);
            let (_, other) = draw(&config, &mut r);
            let x = rng::gaussian_matrix(&mut r, 5, config.hidden_size, 0.0, 1.0);
            let run = |projections: Vec<MatF32>| {
                let mut rec = RecordingHook::new();
                let block = build(&config, gammas.clone(), projections);
                let y = forward(&config, &block, &x, &mut rec);
                (y, rec.calls, rec.total_macs)
            };
            let (_, unedited_calls, unedited_macs) = run(base.clone());
            let down = base.len() - 1;
            // (the projections taken from the other draw, the one zeroed after them)
            for (redrawn, zeroed) in [(0..3, 3), (4..down, down)] {
                let label = format!("{}: {redrawn:?} redrawn, {zeroed} zeroed", config.name);
                let ablate = |zero: bool| {
                    [&base, &other].map(|source| {
                        let mut projections = base.clone();
                        for i in redrawn.clone() {
                            projections[i] = source[i].clone();
                        }
                        if zero {
                            let (rows, cols) = projections[zeroed].shape();
                            projections[zeroed] = MatF32::zeros(rows, cols);
                        }
                        let (y, calls, macs) = run(projections);
                        assert_eq!((calls, macs), (unedited_calls.clone(), unedited_macs));
                        y
                    })
                };
                let [a, b] = ablate(true);
                assert_eq!(
                    a, b,
                    "{label}: the output must not see the redrawn projections"
                );
                let [a, b] = ablate(false);
                assert_ne!(a, b, "{label}: unzeroed, the redraw must show");
            }
        }
    }
}
