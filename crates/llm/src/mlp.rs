//! Feed-forward (MLP) blocks: ReLU MLP for OPT-style models, SiLU-gated MLP for LLaMA-style.
//!
//! These contribute the remaining network components of the paper's Fig. 2: `FC1`/`FC2` for
//! OPT-style blocks and `Gate`/`Up`/`Down` for LLaMA-style blocks. `FC2` and `Down` feed the
//! residual stream (and therefore the next normalization), which makes them the sensitive
//! MLP components in the paper's characterization.

use crate::activation::{relu_in_place, silu_in_place};
use crate::component::Component;
use crate::config::ModelConfig;
use crate::quantized::{ForwardPass, OutputMode, QuantLinear, QuantizedInput};
use crate::weights;
use crate::Result;
use realm_tensor::rng::SeededRng;
use realm_tensor::MatF32;

/// OPT-style MLP: `FC2(ReLU(FC1(x)))`.
#[derive(Debug, Clone)]
pub struct OptMlp {
    fc1: QuantLinear,
    fc2: QuantLinear,
}

impl OptMlp {
    /// Creates an OPT-style MLP with synthetic weights.
    pub fn new(config: &ModelConfig, rng: &mut SeededRng) -> Self {
        Self {
            fc1: QuantLinear::from_f32(
                &weights::projection(rng, config.hidden_size, config.ffn_size),
                OutputMode::Float,
            ),
            fc2: QuantLinear::from_f32(
                &weights::projection(rng, config.ffn_size, config.hidden_size),
                OutputMode::Float,
            ),
        }
    }

    /// Runs the MLP over `x` of shape `(tokens, hidden)` — one sequence's rows or a whole
    /// batch's, stacked — as layer `layer` of `pass`: one GEMM per component, the hidden
    /// activations rectified in place and recycled after the second projection. The
    /// returned matrix is workspace-pooled.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying GEMMs.
    pub fn forward(&self, x: &MatF32, layer: usize, pass: &mut ForwardPass<'_>) -> Result<MatF32> {
        let mut hidden = self.fc1.forward(x, Component::Fc1, layer, pass)?;
        relu_in_place(&mut hidden);
        let out = self.fc2.forward(&hidden, Component::Fc2, layer, pass);
        pass.ws.recycle_mat_f32(hidden);
        out
    }
}

/// LLaMA-style gated MLP: `Down(SiLU(Gate(x)) ⊙ Up(x))`.
#[derive(Debug, Clone)]
pub struct LlamaMlp {
    gate: QuantLinear,
    up: QuantLinear,
    down: QuantLinear,
}

impl LlamaMlp {
    /// Creates a LLaMA-style MLP with synthetic weights.
    pub fn new(config: &ModelConfig, rng: &mut SeededRng) -> Self {
        Self {
            gate: QuantLinear::from_f32(
                &weights::projection(rng, config.hidden_size, config.ffn_size),
                OutputMode::Float,
            ),
            up: QuantLinear::from_f32(
                &weights::projection(rng, config.hidden_size, config.ffn_size),
                OutputMode::Float,
            ),
            down: QuantLinear::from_f32(
                &weights::projection(rng, config.ffn_size, config.hidden_size),
                OutputMode::Float,
            ),
        }
    }

    /// Runs the gated MLP over `x` of shape `(tokens, hidden)` — one sequence's rows or a
    /// whole batch's, stacked — as layer `layer` of `pass`: one GEMM per component, the gate
    /// activations SiLU'd and multiplied by the up projection in place. The returned matrix
    /// is workspace-pooled.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying GEMMs.
    pub fn forward(&self, x: &MatF32, layer: usize, pass: &mut ForwardPass<'_>) -> Result<MatF32> {
        // `Gate` and `Up` read the same rows: quantize them once, for both.
        let input = QuantizedInput::quantize(x, pass.ws);
        let gate_out = self
            .gate
            .forward_quantized(&input, Component::Gate, layer, pass);
        let projected = gate_out.map(|gate_out| {
            let up_out = self
                .up
                .forward_quantized(&input, Component::Up, layer, pass);
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
        let out = gated.and_then(|()| self.down.forward(&gate_out, Component::Down, layer, pass));
        pass.ws.recycle_mat_f32(gate_out);
        out
    }
}

/// Either MLP variant; the block picks one based on the model architecture.
#[derive(Debug, Clone)]
pub enum Mlp {
    /// OPT-style ReLU MLP.
    Opt(OptMlp),
    /// LLaMA-style SiLU-gated MLP.
    Llama(LlamaMlp),
}

impl Mlp {
    /// Creates the MLP variant matching the model architecture.
    pub fn new(config: &ModelConfig, rng: &mut SeededRng) -> Self {
        match config.architecture {
            crate::Architecture::OptStyle => Mlp::Opt(OptMlp::new(config, rng)),
            crate::Architecture::LlamaStyle => Mlp::Llama(LlamaMlp::new(config, rng)),
        }
    }

    /// Runs the MLP over `x` of shape `(tokens, hidden)` as layer `layer` of `pass`
    /// (workspace-pooled result).
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying GEMMs.
    pub fn forward(&self, x: &MatF32, layer: usize, pass: &mut ForwardPass<'_>) -> Result<MatF32> {
        match self {
            Mlp::Opt(m) => m.forward(x, layer, pass),
            Mlp::Llama(m) => m.forward(x, layer, pass),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::Stage;
    use crate::hooks::{GemmHook, NoopHook, RecordingHook};
    use realm_tensor::{rng, ReferenceEngine, Workspace};

    /// `mlp(x)` as layer `layer` of a fresh pass in `stage` on the oracle backend.
    fn run(
        mlp: impl Fn(&MatF32, usize, &mut ForwardPass<'_>) -> Result<MatF32>,
        x: &MatF32,
        layer: usize,
        stage: Stage,
        hook: &mut dyn GemmHook,
    ) -> MatF32 {
        let mut ws = Workspace::new();
        let mut pass = ForwardPass::new(stage, &ReferenceEngine, hook, &mut ws);
        mlp(x, layer, &mut pass).unwrap()
    }

    #[test]
    fn opt_mlp_preserves_shape_and_reports_components() {
        let config = ModelConfig::tiny_opt();
        let mut r = rng::seeded(2);
        let mlp = OptMlp::new(&config, &mut r);
        let x = rng::gaussian_matrix(&mut r, 3, config.hidden_size, 0.0, 1.0);
        let mut rec = RecordingHook::new();
        let y = run(
            |x, l, p| mlp.forward(x, l, p),
            &x,
            1,
            Stage::Prefill,
            &mut rec,
        );
        assert_eq!(y.shape(), (3, config.hidden_size));
        let seen: Vec<_> = rec.calls.iter().map(|c| (c.component, c.layer)).collect();
        assert_eq!(seen, [(Component::Fc1, 1), (Component::Fc2, 1)]);
    }

    #[test]
    fn llama_mlp_preserves_shape_and_reports_components() {
        let config = ModelConfig::tiny_llama();
        let mut r = rng::seeded(2);
        let mlp = LlamaMlp::new(&config, &mut r);
        let x = rng::gaussian_matrix(&mut r, 4, config.hidden_size, 0.0, 1.0);
        let mut rec = RecordingHook::new();
        let y = run(
            |x, l, p| mlp.forward(x, l, p),
            &x,
            0,
            Stage::Decode,
            &mut rec,
        );
        assert_eq!(y.shape(), (4, config.hidden_size));
        assert_eq!(rec.count_for(Component::Gate), 1);
        assert_eq!(rec.count_for(Component::Up), 1);
        assert_eq!(rec.count_for(Component::Down), 1);
        assert!(rec.calls.iter().all(|c| c.stage == Stage::Decode));
    }

    #[test]
    fn a_rejected_input_leaves_nothing_checked_out() {
        let mut r = rng::seeded(5);
        let mlp = Mlp::new(&ModelConfig::tiny_llama(), &mut r);
        let (mut hook, mut ws) = (NoopHook, Workspace::new());
        let mut pass = ForwardPass::new(Stage::Prefill, &ReferenceEngine, &mut hook, &mut ws);
        assert!(mlp.forward(&MatF32::zeros(2, 7), 0, &mut pass).is_err());
        assert_eq!(ws.outstanding_buffers(), 0);
    }

    #[test]
    fn mlp_variant_matches_architecture() {
        let mut r = rng::seeded(1);
        assert!(matches!(
            Mlp::new(&ModelConfig::tiny_opt(), &mut r),
            Mlp::Opt(_)
        ));
        assert!(matches!(
            Mlp::new(&ModelConfig::tiny_llama(), &mut r),
            Mlp::Llama(_)
        ));
    }

    #[test]
    fn outputs_are_finite_and_small_relative_to_input() {
        // MLP outputs are residual updates; they should not dwarf the residual stream.
        let config = ModelConfig::tiny_llama();
        let mut r = rng::seeded(8);
        let mlp = Mlp::new(&config, &mut r);
        let x = rng::gaussian_matrix(&mut r, 2, config.hidden_size, 0.0, 1.0);
        let y = run(
            |x, l, p| mlp.forward(x, l, p),
            &x,
            0,
            Stage::Prefill,
            &mut NoopHook,
        );
        assert!(y.iter().all(|v| v.is_finite()));
        assert!(y.abs_max() < x.abs_max() * 5.0);
    }
}
