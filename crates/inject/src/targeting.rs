//! Selection of which GEMMs receive injected errors.
//!
//! The paper's characterization sweeps errors over individual network components (Q1.3,
//! Q2.2), individual layers (Q1.1) and individual inference stages (Q2.1). A [`Target`]
//! expresses any combination of those filters; an empty filter means "no restriction".

use realm_llm::{Component, GemmContext, Stage};
use std::collections::BTreeSet;

/// A filter over [`GemmContext`]s selecting the GEMMs to corrupt.
///
/// All configured dimensions must match for a GEMM to be targeted; unset dimensions match
/// everything. The default target matches every GEMM in the model.
///
/// # Example
///
/// ```
/// use realm_inject::targeting::Target;
/// use realm_llm::{Component, GemmContext, Stage};
///
/// let target = Target::new().components([Component::O]).stages([Stage::Prefill]);
/// let ctx = GemmContext::new(Component::O, 3, Stage::Prefill, 0);
/// assert!(target.matches(&ctx));
/// let ctx = GemmContext::new(Component::O, 3, Stage::Decode, 0);
/// assert!(!target.matches(&ctx));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Target {
    components: Option<BTreeSet<Component>>,
    layers: Option<BTreeSet<usize>>,
    stages: Option<BTreeSet<Stage>>,
}

impl Target {
    /// A target that matches every GEMM.
    pub fn new() -> Self {
        Self::default()
    }

    /// A target that matches every GEMM (alias of [`Target::new`], reads better in configs).
    pub fn everything() -> Self {
        Self::default()
    }

    /// Restricts the target to the given network components.
    pub fn components(mut self, components: impl IntoIterator<Item = Component>) -> Self {
        self.components = Some(components.into_iter().collect());
        self
    }

    /// Restricts the target to the given layer indices.
    pub fn layers(mut self, layers: impl IntoIterator<Item = usize>) -> Self {
        self.layers = Some(layers.into_iter().collect());
        self
    }

    /// Restricts the target to the given inference stages.
    pub fn stages(mut self, stages: impl IntoIterator<Item = Stage>) -> Self {
        self.stages = Some(stages.into_iter().collect());
        self
    }

    /// Restricts the target to a single component (convenience wrapper).
    pub fn component(self, component: Component) -> Self {
        self.components([component])
    }

    /// Restricts the target to a single layer (convenience wrapper).
    pub fn layer(self, layer: usize) -> Self {
        self.layers([layer])
    }

    /// Restricts the target to a single stage (convenience wrapper).
    pub fn stage(self, stage: Stage) -> Self {
        self.stages([stage])
    }

    /// Returns `true` if the GEMM described by `ctx` is selected by this target.
    pub fn matches(&self, ctx: &GemmContext) -> bool {
        self.components
            .as_ref()
            .is_none_or(|s| s.contains(&ctx.component))
            && self.layers.as_ref().is_none_or(|s| s.contains(&ctx.layer))
            && self.stages.as_ref().is_none_or(|s| s.contains(&ctx.stage))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(component: Component, layer: usize, stage: Stage) -> GemmContext {
        GemmContext::new(component, layer, stage, 0)
    }

    #[test]
    fn default_target_matches_everything() {
        let t = Target::new();
        assert!(t.matches(&ctx(Component::Q, 0, Stage::Prefill)));
        assert!(t.matches(&ctx(Component::Down, 31, Stage::Decode)));
        assert_eq!(t, Target::everything());
    }

    #[test]
    fn component_filter_is_exact() {
        let t = Target::new().components([Component::O, Component::Fc2]);
        assert!(t.matches(&ctx(Component::O, 2, Stage::Prefill)));
        assert!(t.matches(&ctx(Component::Fc2, 5, Stage::Decode)));
        assert!(!t.matches(&ctx(Component::Q, 2, Stage::Prefill)));
    }

    #[test]
    fn layer_and_stage_filters_compose() {
        let t = Target::new().layer(3).stage(Stage::Decode);
        assert!(t.matches(&ctx(Component::Q, 3, Stage::Decode)));
        assert!(!t.matches(&ctx(Component::Q, 3, Stage::Prefill)));
        assert!(!t.matches(&ctx(Component::Q, 4, Stage::Decode)));
    }

    #[test]
    fn single_item_conveniences_match_set_forms() {
        assert_eq!(
            Target::new().component(Component::K),
            Target::new().components([Component::K])
        );
        assert_eq!(Target::new().layer(1), Target::new().layers([1]));
        assert_eq!(
            Target::new().stage(Stage::Prefill),
            Target::new().stages([Stage::Prefill])
        );
    }
}
