//! Model configuration and scaled-down proxies of the paper's evaluation models.
//!
//! The paper evaluates OPT-1.3B, LLaMA-2-7B and LLaMA-3-8B. Pretrained checkpoints are not
//! available in this environment, so each is represented by a *proxy configuration*: the same
//! block architecture and component set, with hidden sizes scaled down far enough that
//! thousands of Monte-Carlo error-injection trials complete in seconds. The characterization
//! results depend on the architecture (normalization placement, softmax bounding, KV-cache
//! reuse) and on the activation statistics, both of which are preserved.

use crate::{LlmError, Result};
use realm_tensor::EngineKind;

/// The Transformer block variant (Fig. 2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Architecture {
    /// OPT-style: LayerNorm + ReLU MLP (`FC1`/`FC2`).
    OptStyle,
    /// LLaMA-style: RMSNorm + SiLU-gated MLP (`Gate`/`Up`/`Down`).
    LlamaStyle,
}

impl std::fmt::Display for Architecture {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Architecture::OptStyle => f.write_str("OPT-style"),
            Architecture::LlamaStyle => f.write_str("LLaMA-style"),
        }
    }
}

/// Hyper-parameters of a synthetic quantized LLM.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelConfig {
    /// Human-readable name used in reports (e.g. `"OPT-1.3B-proxy"`).
    pub name: String,
    /// Block architecture variant.
    pub architecture: Architecture,
    /// Hidden (embedding) dimension.
    pub hidden_size: usize,
    /// Number of attention heads.
    pub num_heads: usize,
    /// Number of Transformer blocks.
    pub num_layers: usize,
    /// Inner dimension of the MLP.
    pub ffn_size: usize,
    /// Vocabulary size.
    pub vocab_size: usize,
    /// Maximum sequence length (prompt + generated tokens).
    pub max_seq_len: usize,
    /// Fraction of hidden channels that carry large outlier magnitudes.
    pub outlier_fraction: f32,
    /// Magnitude gain of outlier channels relative to the bulk.
    pub outlier_gain: f32,
    /// GEMM execution backend the model's quantized datapath runs on. All backends are
    /// bit-exact (see `realm_tensor::engine`), so this only changes wall-clock speed; the
    /// presets default to [`EngineKind::auto`] (the SIMD parallel backend).
    pub engine: EngineKind,
    /// The number of shard fault domains: the column stripes
    /// (`realm_tensor::partition::shard_cols`) of every static-weight GEMM that whole-shard
    /// faults hit (`realm_inject`'s `ErrorInjector::arm_shard_faults`) and protectors
    /// attribute detections to. It never changes how a GEMM runs; `1` (the presets'
    /// default) is one domain, which disables shard attribution.
    pub tp_degree: usize,
}

impl ModelConfig {
    /// Validates internal consistency of the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::InvalidConfig`] if any dimension is zero, the hidden size is not
    /// divisible by the number of heads, or the outlier fraction is outside `[0, 1]`.
    pub fn validate(&self) -> Result<()> {
        if self.hidden_size == 0
            || self.num_heads == 0
            || self.num_layers == 0
            || self.ffn_size == 0
            || self.vocab_size == 0
            || self.max_seq_len == 0
        {
            return Err(LlmError::InvalidConfig {
                detail: "all dimensions must be non-zero".into(),
            });
        }
        if !self.hidden_size.is_multiple_of(self.num_heads) {
            return Err(LlmError::InvalidConfig {
                detail: format!(
                    "hidden_size {} is not divisible by num_heads {}",
                    self.hidden_size, self.num_heads
                ),
            });
        }
        if !(0.0..=1.0).contains(&self.outlier_fraction) {
            return Err(LlmError::InvalidConfig {
                detail: format!(
                    "outlier_fraction {} must be in [0, 1]",
                    self.outlier_fraction
                ),
            });
        }
        if self.outlier_gain < 1.0 {
            return Err(LlmError::InvalidConfig {
                detail: format!("outlier_gain {} must be >= 1", self.outlier_gain),
            });
        }
        if self.tp_degree == 0 {
            return Err(LlmError::InvalidConfig {
                detail: "tp_degree must be >= 1 (1 is one shard fault domain)".into(),
            });
        }
        Ok(())
    }

    /// Dimension of each attention head.
    pub fn head_dim(&self) -> usize {
        self.hidden_size / self.num_heads
    }

    /// Components present in one block of this architecture, in execution order.
    pub fn block_components(&self) -> &'static [crate::Component] {
        match self.architecture {
            Architecture::OptStyle => &crate::Component::OPT_BLOCK,
            Architecture::LlamaStyle => &crate::Component::LLAMA_BLOCK,
        }
    }

    /// Scaled-down proxy of OPT-1.3B (OPT-style block, 24 layers in the original).
    pub fn opt_1_3b_proxy() -> Self {
        Self {
            name: "OPT-1.3B-proxy".into(),
            architecture: Architecture::OptStyle,
            hidden_size: 128,
            num_heads: 4,
            num_layers: 6,
            ffn_size: 512,
            vocab_size: 512,
            max_seq_len: 64,
            outlier_fraction: 0.03,
            outlier_gain: 24.0,
            engine: EngineKind::auto(),
            tp_degree: 1,
        }
    }

    /// Scaled-down proxy of LLaMA-2-7B (LLaMA-style block, 32 layers in the original).
    pub fn llama_2_7b_proxy() -> Self {
        Self {
            name: "LLaMA-2-7B-proxy".into(),
            architecture: Architecture::LlamaStyle,
            hidden_size: 128,
            num_heads: 4,
            num_layers: 8,
            ffn_size: 384,
            vocab_size: 512,
            max_seq_len: 64,
            outlier_fraction: 0.03,
            outlier_gain: 24.0,
            engine: EngineKind::auto(),
            tp_degree: 1,
        }
    }

    /// Scaled-down proxy of LLaMA-3-8B (used in the paper's evaluation section).
    pub fn llama_3_8b_proxy() -> Self {
        Self {
            name: "LLaMA-3-8B-proxy".into(),
            architecture: Architecture::LlamaStyle,
            hidden_size: 160,
            num_heads: 5,
            num_layers: 8,
            ffn_size: 448,
            vocab_size: 640,
            max_seq_len: 64,
            outlier_fraction: 0.03,
            outlier_gain: 24.0,
            engine: EngineKind::auto(),
            tp_degree: 1,
        }
    }

    /// A very small OPT-style model for unit tests and doc examples.
    pub fn tiny_opt() -> Self {
        Self {
            name: "tiny-opt".into(),
            architecture: Architecture::OptStyle,
            hidden_size: 32,
            num_heads: 2,
            num_layers: 2,
            ffn_size: 64,
            vocab_size: 64,
            max_seq_len: 32,
            outlier_fraction: 0.05,
            outlier_gain: 16.0,
            engine: EngineKind::auto(),
            tp_degree: 1,
        }
    }

    /// A very small LLaMA-style model for unit tests and doc examples.
    pub fn tiny_llama() -> Self {
        Self {
            name: "tiny-llama".into(),
            architecture: Architecture::LlamaStyle,
            hidden_size: 32,
            num_heads: 2,
            num_layers: 2,
            ffn_size: 48,
            vocab_size: 64,
            max_seq_len: 32,
            outlier_fraction: 0.05,
            outlier_gain: 16.0,
            engine: EngineKind::auto(),
            tp_degree: 1,
        }
    }

    /// Returns a copy with the outlier channels disabled (used by the reproduction's ablation).
    pub fn without_outliers(&self) -> Self {
        Self {
            outlier_fraction: 0.0,
            outlier_gain: 1.0,
            name: format!("{}-no-outliers", self.name),
            ..self.clone()
        }
    }
}

impl Default for ModelConfig {
    fn default() -> Self {
        Self::tiny_opt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        for cfg in [
            ModelConfig::opt_1_3b_proxy(),
            ModelConfig::llama_2_7b_proxy(),
            ModelConfig::llama_3_8b_proxy(),
            ModelConfig::tiny_opt(),
            ModelConfig::tiny_llama(),
        ] {
            cfg.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", cfg.name));
        }
    }

    #[test]
    fn invalid_head_split_is_rejected() {
        let mut cfg = ModelConfig::tiny_opt();
        cfg.hidden_size = 30;
        cfg.num_heads = 4;
        assert!(matches!(
            cfg.validate(),
            Err(LlmError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn zero_dimension_is_rejected() {
        let mut cfg = ModelConfig::tiny_llama();
        cfg.num_layers = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn invalid_outlier_settings_are_rejected() {
        let mut cfg = ModelConfig::tiny_opt();
        cfg.outlier_fraction = 1.5;
        assert!(cfg.validate().is_err());
        let mut cfg = ModelConfig::tiny_opt();
        cfg.outlier_gain = 0.5;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn zero_tp_degree_is_rejected() {
        let mut cfg = ModelConfig::tiny_opt();
        assert_eq!(cfg.tp_degree, 1, "presets default to one fault domain");
        cfg.tp_degree = 0;
        assert!(cfg.validate().is_err());
        cfg.tp_degree = 4;
        cfg.validate().unwrap();
    }

    #[test]
    fn head_dim_divides_hidden() {
        let cfg = ModelConfig::opt_1_3b_proxy();
        assert_eq!(cfg.head_dim() * cfg.num_heads, cfg.hidden_size);
    }

    #[test]
    fn block_components_match_architecture() {
        assert_eq!(ModelConfig::tiny_opt().block_components().len(), 8);
        assert_eq!(ModelConfig::tiny_llama().block_components().len(), 9);
    }

    #[test]
    fn without_outliers_flattens_distribution() {
        let cfg = ModelConfig::opt_1_3b_proxy().without_outliers();
        assert_eq!(cfg.outlier_fraction, 0.0);
        assert!(cfg.name.contains("no-outliers"));
        cfg.validate().unwrap();
    }
}
