//! Shared plumbing for the figure/table regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper (its file name
//! says which; `ablation` covers two design choices instead). They all follow the same pattern:
//! build the proxy models, build the tasks, run the relevant `realm-core` study or sweep, and
//! print the series as aligned text tables. The helpers here keep the setup consistent so the
//! regenerated numbers are comparable across binaries.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use realm_core::pipeline::PipelineConfig;
use realm_eval::corpus::CorpusSpec;
use realm_eval::hellaswag::HellaswagTask;
use realm_eval::lambada::LambadaTask;
use realm_eval::wikitext::WikitextTask;
use realm_llm::{config::ModelConfig, model::Model, Component};
use realm_systolic::SystolicArray;

/// Workspace-wide seed used by every harness so regenerated figures are identical run-to-run.
pub const HARNESS_SEED: u64 = 2025;

/// Returns `true` when the harness should run in quick mode (fewer trials, smaller sweeps),
/// selected with the `--quick` command-line flag.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Number of Monte-Carlo trials per sweep point, honouring quick mode.
pub fn trials() -> usize {
    if quick_mode() {
        3
    } else {
        8
    }
}

/// The OPT-1.3B proxy model used throughout the evaluation.
pub fn opt_model() -> Model {
    Model::new(&ModelConfig::opt_1_3b_proxy(), HARNESS_SEED).expect("preset config is valid")
}

/// The LLaMA-2-7B proxy model used by the characterization studies.
pub fn llama2_model() -> Model {
    Model::new(&ModelConfig::llama_2_7b_proxy(), HARNESS_SEED).expect("preset config is valid")
}

/// The LLaMA-3-8B proxy model used by the evaluation section.
pub fn llama3_model() -> Model {
    Model::new(&ModelConfig::llama_3_8b_proxy(), HARNESS_SEED).expect("preset config is valid")
}

/// The WikiText-style perplexity task for a model.
pub fn wikitext_task(model: &Model) -> WikitextTask {
    let spec = if quick_mode() {
        CorpusSpec::quick()
    } else {
        CorpusSpec {
            num_sequences: 8,
            seq_len: 20,
            ..CorpusSpec::standard()
        }
    };
    WikitextTask::new(model.language(), &spec, HARNESS_SEED)
}

/// The LAMBADA-style accuracy task for a model.
pub fn lambada_task(model: &Model) -> LambadaTask {
    if quick_mode() {
        LambadaTask::quick(model.language(), HARNESS_SEED)
    } else {
        LambadaTask::new(model.language(), 32, 10, HARNESS_SEED)
    }
}

/// The HellaSwag-style accuracy task for a model.
pub fn hellaswag_task(model: &Model) -> HellaswagTask {
    if quick_mode() {
        HellaswagTask::quick(model.language(), HARNESS_SEED)
    } else {
        HellaswagTask::new(model.language(), 16, 4, 8, 5, HARNESS_SEED)
    }
}

/// The BER grid used by the characterization figures (the paper sweeps 1e-8 … 1e-2).
pub fn ber_grid() -> Vec<f64> {
    if quick_mode() {
        vec![1e-5, 1e-3, 1e-2]
    } else {
        vec![1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2]
    }
}

/// The operating-voltage grid used by the energy figures (0.60 V … 0.90 V).
pub fn voltage_grid() -> Vec<f64> {
    let steps = if quick_mode() { 5 } else { 11 };
    (0..steps)
        .map(|i| 0.60 + 0.30 * i as f64 / (steps - 1) as f64)
        .collect()
}

/// Pipeline configuration used by the energy experiments: the paper's 256×256 WS array with
/// errors injected into one protected component.
pub fn component_pipeline_config(component: Component) -> PipelineConfig {
    PipelineConfig {
        array: SystolicArray::paper_256x256_ws(),
        protected_component: Some(component),
        ..PipelineConfig::default()
    }
}

/// Prints the standard harness banner naming the experiment being regenerated.
pub fn banner(experiment: &str, paper_ref: &str) {
    println!("=== ReaLM reproduction: {experiment} ({paper_ref}) ===");
    println!(
        "mode: {}   seed: {HARNESS_SEED}\n",
        if quick_mode() { "quick" } else { "full" }
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn models_and_tasks_construct() {
        let model = opt_model();
        let task = wikitext_task(&model);
        assert!(!task.corpus().is_empty());
        let _ = lambada_task(&model);
        let _ = hellaswag_task(&llama3_model());
    }

    #[test]
    fn grids_are_ordered() {
        let bers = ber_grid();
        assert!(bers.windows(2).all(|w| w[0] < w[1]));
        let volts = voltage_grid();
        assert!(volts.windows(2).all(|w| w[0] < w[1]));
        assert!((volts[0] - 0.60).abs() < 1e-9);
        assert!((volts.last().unwrap() - 0.90).abs() < 1e-9);
    }

    #[test]
    fn component_config_targets_requested_component() {
        let cfg = component_pipeline_config(Component::K);
        assert_eq!(cfg.protected_component, Some(Component::K));
        assert_eq!(cfg.array.rows, 256);
    }
}
