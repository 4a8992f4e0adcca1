//! Feed-forward (MLP) blocks: ReLU MLP for OPT-style models, SiLU-gated MLP for LLaMA-style.
//!
//! These contribute the remaining network components of the paper's Fig. 2: `FC1`/`FC2` for
//! OPT-style blocks and `Gate`/`Up`/`Down` for LLaMA-style blocks. `FC2` and `Down` feed the
//! residual stream (and therefore the next normalization), which makes them the sensitive
//! MLP components in the paper's characterization.

use crate::activation::{relu_in_place, silu_in_place};
use crate::component::Component;
use crate::config::Architecture;
use crate::quantized::{ForwardPass, OutputMode, QuantLinear, QuantizedInput};
use crate::Result;
use realm_tensor::MatF32;

/// The MLP of a block: OPT-style `FC2(ReLU(FC1(x)))` or LLaMA-style
/// `Down(SiLU(Gate(x)) ⊙ Up(x))`.
#[derive(Debug, Clone)]
pub enum Mlp {
    /// OPT-style ReLU MLP.
    Opt {
        /// `FC1`, `(hidden, ffn)`.
        fc1: QuantLinear,
        /// `FC2`, `(ffn, hidden)`.
        fc2: QuantLinear,
    },
    /// LLaMA-style SiLU-gated MLP.
    Llama {
        /// `Gate`, `(hidden, ffn)`.
        gate: QuantLinear,
        /// `Up`, `(hidden, ffn)`.
        up: QuantLinear,
        /// `Down`, `(ffn, hidden)`.
        down: QuantLinear,
    },
}

impl Mlp {
    /// The MLP `architecture` uses, quantized from its f32 projections in execution order:
    /// `FC1`, `FC2` for OPT-style models, `Gate`, `Up`, `Down` for LLaMA-style ones, each
    /// `(in_features, out_features)`. Each projection is quantized before the next is taken,
    /// so an iterator that draws lazily keeps one f32 matrix alive at a time.
    ///
    /// # Panics
    ///
    /// Panics if `projections` does not yield exactly the architecture's projections.
    pub fn from_f32(
        architecture: Architecture,
        projections: impl IntoIterator<Item = MatF32>,
    ) -> Self {
        let mut projections = projections.into_iter();
        let mut next = || {
            let weight = projections.next().expect("too few MLP projections");
            QuantLinear::from_f32(&weight, OutputMode::Float)
        };
        let mlp = match architecture {
            Architecture::OptStyle => Mlp::Opt {
                fc1: next(),
                fc2: next(),
            },
            Architecture::LlamaStyle => Mlp::Llama {
                gate: next(),
                up: next(),
                down: next(),
            },
        };
        assert!(projections.next().is_none(), "too many MLP projections");
        mlp
    }

    /// Runs the MLP over `x` of shape `(tokens, hidden)` — one sequence's rows or a whole
    /// batch's, stacked — as layer `layer` of `pass`: one GEMM per component, the hidden
    /// activations rectified (OPT) or SiLU'd and multiplied by the up projection (LLaMA) in
    /// place. The returned matrix is workspace-pooled.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying GEMMs.
    pub fn forward(&self, x: &MatF32, layer: usize, pass: &mut ForwardPass<'_>) -> Result<MatF32> {
        match self {
            Mlp::Opt { fc1, fc2 } => {
                let mut hidden = fc1.forward(x, Component::Fc1, layer, pass)?;
                relu_in_place(&mut hidden);
                let out = fc2.forward(&hidden, Component::Fc2, layer, pass);
                pass.ws.recycle_mat_f32(hidden);
                out
            }
            Mlp::Llama { gate, up, down } => {
                // `Gate` and `Up` read the same rows: quantize them once, for both.
                let input = QuantizedInput::quantize(x, pass.ws);
                let gate_out = gate.forward_quantized(&input, Component::Gate, layer, pass);
                let projected = gate_out.map(|gate_out| {
                    let up_out = up.forward_quantized(&input, Component::Up, layer, pass);
                    (gate_out, up_out)
                });
                input.recycle(pass.ws);
                let (mut gate_out, up_out) = projected?;
                let gated = up_out.and_then(|up_out| {
                    silu_in_place(&mut gate_out);
                    let gated = gate_out.hadamard_assign(&up_out);
                    pass.ws.recycle_mat_f32(up_out);
                    Ok(gated?)
                });
                let out =
                    gated.and_then(|()| down.forward(&gate_out, Component::Down, layer, pass));
                pass.ws.recycle_mat_f32(gate_out);
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::Stage;
    use crate::config::ModelConfig;
    use crate::hooks::{GemmHook, NoopHook, RecordingHook};
    use realm_tensor::rng::{self, SeededRng};
    use realm_tensor::{ReferenceEngine, Workspace};

    /// The MLP of `config` with projections drawn as the synthetic recipe draws them.
    fn drawn(config: &ModelConfig, r: &mut SeededRng) -> Mlp {
        let (h, f) = (config.hidden_size, config.ffn_size);
        let shapes = match config.architecture {
            Architecture::OptStyle => vec![(h, f), (f, h)],
            Architecture::LlamaStyle => vec![(h, f), (h, f), (f, h)],
        };
        let projections = shapes.into_iter();
        Mlp::from_f32(
            config.architecture,
            projections.map(|(i, o)| rng::gaussian_matrix(r, i, o, 0.0, 0.02)),
        )
    }

    /// `mlp(x)` as layer `layer` of a fresh pass in `stage` on the oracle backend.
    fn run(mlp: &Mlp, x: &MatF32, layer: usize, stage: Stage, hook: &mut dyn GemmHook) -> MatF32 {
        let mut ws = Workspace::new();
        let mut pass = ForwardPass::new(stage, &ReferenceEngine, hook, &mut ws);
        mlp.forward(x, layer, &mut pass).unwrap()
    }

    #[test]
    fn opt_mlp_preserves_shape_and_reports_components() {
        let config = ModelConfig::tiny_opt();
        let mut r = rng::seeded(2);
        let mlp = drawn(&config, &mut r);
        assert!(matches!(mlp, Mlp::Opt { .. }));
        let x = rng::gaussian_matrix(&mut r, 3, config.hidden_size, 0.0, 1.0);
        let mut rec = RecordingHook::new();
        let y = run(&mlp, &x, 1, Stage::Prefill, &mut rec);
        assert_eq!(y.shape(), (3, config.hidden_size));
        let seen: Vec<_> = rec.calls.iter().map(|c| (c.component, c.layer)).collect();
        assert_eq!(seen, [(Component::Fc1, 1), (Component::Fc2, 1)]);
    }

    #[test]
    fn llama_mlp_preserves_shape_and_reports_components() {
        let config = ModelConfig::tiny_llama();
        let mut r = rng::seeded(2);
        let mlp = drawn(&config, &mut r);
        assert!(matches!(mlp, Mlp::Llama { .. }));
        let x = rng::gaussian_matrix(&mut r, 4, config.hidden_size, 0.0, 1.0);
        let mut rec = RecordingHook::new();
        let y = run(&mlp, &x, 0, Stage::Decode, &mut rec);
        assert_eq!(y.shape(), (4, config.hidden_size));
        assert_eq!(rec.count_for(Component::Gate), 1);
        assert_eq!(rec.count_for(Component::Up), 1);
        assert_eq!(rec.count_for(Component::Down), 1);
        assert!(rec.calls.iter().all(|c| c.stage == Stage::Decode));
    }

    #[test]
    #[should_panic(expected = "too many MLP projections")]
    fn an_extra_projection_is_rejected() {
        let w = || MatF32::zeros(4, 4);
        let _ = Mlp::from_f32(Architecture::OptStyle, [w(), w(), w()]);
    }

    #[test]
    #[should_panic(expected = "too few MLP projections")]
    fn a_missing_projection_is_rejected() {
        let w = || MatF32::zeros(4, 4);
        let _ = Mlp::from_f32(Architecture::LlamaStyle, [w(), w()]);
    }

    #[test]
    fn a_rejected_input_leaves_nothing_checked_out() {
        let mut r = rng::seeded(5);
        let mlp = drawn(&ModelConfig::tiny_llama(), &mut r);
        let (mut hook, mut ws) = (NoopHook, Workspace::new());
        let mut pass = ForwardPass::new(Stage::Prefill, &ReferenceEngine, &mut hook, &mut ws);
        assert!(mlp.forward(&MatF32::zeros(2, 7), 0, &mut pass).is_err());
        assert_eq!(ws.outstanding_buffers(), 0);
    }

    #[test]
    fn outputs_are_finite_and_small_relative_to_input() {
        // MLP outputs are residual updates; they should not dwarf the residual stream.
        let config = ModelConfig::tiny_llama();
        let mut r = rng::seeded(8);
        let mlp = drawn(&config, &mut r);
        let x = rng::gaussian_matrix(&mut r, 2, config.hidden_size, 0.0, 1.0);
        let y = run(&mlp, &x, 0, Stage::Prefill, &mut NoopHook);
        assert!(y.iter().all(|v| v.is_finite()));
        assert!(y.abs_max() < x.abs_max() * 5.0);
    }
}
