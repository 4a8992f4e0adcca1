//! Network-component and inference-stage identifiers.
//!
//! The paper analyses resilience per *network component* (the individual GEMMs inside a
//! Transformer block, labelled `Q`, `K`, ..., `Down` in Fig. 2) and per *inference stage*
//! (prefill vs decode). These enums are the keys used everywhere in the workspace to target
//! error injection, attach ABFT protection and report results.

use std::fmt;

/// One of the GEMM-bearing network components of a Transformer block.
///
/// The OPT-style block contains `Q, K, V, QKᵀ, SV, O, FC1, FC2`; the LLaMA-style block
/// contains `Q, K, V, QKᵀ, SV, O, Gate, Up, Down`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Component {
    /// Query projection.
    Q,
    /// Key projection (re-quantized to INT8 for the attention score GEMM).
    K,
    /// Value projection.
    V,
    /// Attention score GEMM `Q·Kᵀ` (followed by softmax).
    QkT,
    /// Attention context GEMM `softmax(S)·V`.
    Sv,
    /// Attention output projection (feeds the residual stream and the next normalization).
    O,
    /// First MLP projection of the OPT-style block (followed by ReLU).
    Fc1,
    /// Second MLP projection of the OPT-style block (feeds the residual stream / next norm).
    Fc2,
    /// Gate projection of the LLaMA-style block (followed by SiLU).
    Gate,
    /// Up projection of the LLaMA-style block.
    Up,
    /// Down projection of the LLaMA-style block (feeds the residual stream / next norm).
    Down,
}

impl Component {
    /// All components, across both architectures.
    pub const ALL: [Component; 11] = [
        Component::Q,
        Component::K,
        Component::V,
        Component::QkT,
        Component::Sv,
        Component::O,
        Component::Fc1,
        Component::Fc2,
        Component::Gate,
        Component::Up,
        Component::Down,
    ];

    /// Components present in an OPT-style block, in execution order.
    pub const OPT_BLOCK: [Component; 8] = [
        Component::Q,
        Component::K,
        Component::V,
        Component::QkT,
        Component::Sv,
        Component::O,
        Component::Fc1,
        Component::Fc2,
    ];

    /// Components present in a LLaMA-style block, in execution order.
    pub const LLAMA_BLOCK: [Component; 9] = [
        Component::Q,
        Component::K,
        Component::V,
        Component::QkT,
        Component::Sv,
        Component::O,
        Component::Gate,
        Component::Up,
        Component::Down,
    ];

    /// This component's position in [`Component::ALL`]: the index of its entry in every
    /// per-component array (`[T; Component::ALL.len()]`).
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Whether the paper classifies this component as *sensitive*.
    ///
    /// Sensitive components are the ones whose outputs feed a normalization layer through the
    /// residual stream (`O` in both architectures, `FC2` in OPT, `Down` in LLaMA); everything
    /// else is *resilient* (Sec. IV-A3).
    pub fn is_sensitive(self) -> bool {
        matches!(self, Component::O | Component::Fc2 | Component::Down)
    }

    /// Short label used in reports, matching the paper's notation.
    pub fn label(self) -> &'static str {
        match self {
            Component::Q => "Q",
            Component::K => "K",
            Component::V => "V",
            Component::QkT => "QK^T",
            Component::Sv => "SV",
            Component::O => "O",
            Component::Fc1 => "FC1",
            Component::Fc2 => "FC2",
            Component::Gate => "Gate",
            Component::Up => "Up",
            Component::Down => "Down",
        }
    }
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The generative-inference stage a GEMM executes in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Stage {
    /// Prompt processing: the whole prompt is consumed at once and the KV cache is populated.
    Prefill,
    /// Autoregressive generation: one token is produced per step using the KV cache.
    Decode,
}

impl Stage {
    /// Both stages in order of execution.
    pub const ALL: [Stage; 2] = [Stage::Prefill, Stage::Decode];
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stage::Prefill => f.write_str("prefill"),
            Stage::Decode => f.write_str("decode"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sensitive_components_match_paper() {
        let sensitive: Vec<Component> = Component::ALL
            .iter()
            .copied()
            .filter(|c| c.is_sensitive())
            .collect();
        assert_eq!(
            sensitive,
            vec![Component::O, Component::Fc2, Component::Down]
        );
    }

    #[test]
    fn block_layouts_contain_expected_components() {
        assert!(Component::OPT_BLOCK.contains(&Component::Fc2));
        assert!(!Component::OPT_BLOCK.contains(&Component::Down));
        assert!(Component::LLAMA_BLOCK.contains(&Component::Gate));
        assert!(!Component::LLAMA_BLOCK.contains(&Component::Fc1));
    }

    #[test]
    fn index_is_the_position_in_all() {
        for (i, c) in Component::ALL.into_iter().enumerate() {
            assert_eq!(c.index(), i, "{c}");
        }
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<&str> = Component::ALL.iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), Component::ALL.len());
    }

    #[test]
    fn display_matches_label() {
        assert_eq!(Component::QkT.to_string(), "QK^T");
        assert_eq!(Stage::Prefill.to_string(), "prefill");
        assert_eq!(Stage::Decode.to_string(), "decode");
    }
}
