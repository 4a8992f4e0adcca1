//! Ablation studies for two design choices behind the paper's Fig. 5 and Fig. 6:
//!
//! 1. **Per-component adaptivity** — statistical ABFT with per-component critical regions
//!    (sensitive components get strict regions) versus a single global region applied to every
//!    component. The global-permissive variant loses model quality; the global-strict variant
//!    loses the recovery savings.
//! 2. **Outlier-aware activations** — the component sensitivity gap (O vs K) with the
//!    synthetic outlier channels enabled versus disabled, showing that the normalization
//!    sensitivity the paper reports hinges on the outlier-dominated statistics of LLM hidden
//!    states.
//!
//! ```text
//! cargo run --release -p realm-bench --bin ablation [-- --quick]
//! ```

use realm_abft::CriticalRegion;
use realm_bench::{banner, opt_model, trials, wikitext_task, HARNESS_SEED};
use realm_core::characterize::{componentwise_study, StudyConfig};
use realm_core::pipeline::{PipelineConfig, ProtectedPipeline};
use realm_core::protection::RegionAssignment;
use realm_core::report::render_table;
use realm_eval::task::Task;
use realm_eval::wikitext::WikitextTask;
use realm_llm::{config::ModelConfig, model::Model, Component, Stage};
use realm_systolic::ProtectionScheme;

fn uniform_regions(region: CriticalRegion) -> RegionAssignment {
    let mut regions = RegionAssignment::new();
    for component in Component::ALL {
        regions.set(component, region);
    }
    regions
}

fn adaptivity_ablation() -> Result<(), Box<dyn std::error::Error>> {
    println!("-- Ablation 1: per-component adaptivity of the critical regions --\n");
    let model = opt_model();
    let task = wikitext_task(&model);
    let voltage = 0.70;
    let variants: [(&str, RegionAssignment); 3] = [
        ("per-component (ReaLM)", RegionAssignment::new()),
        (
            "global permissive",
            uniform_regions(CriticalRegion::resilient_default()),
        ),
        (
            "global strict",
            uniform_regions(CriticalRegion::sensitive_default()),
        ),
    ];
    let clean = {
        let pipeline = ProtectedPipeline::new(&model, PipelineConfig::default());
        pipeline.clean_value(&task)?
    };
    let mut rows = Vec::new();
    for (label, regions) in variants {
        let pipeline = ProtectedPipeline::with_regions(&model, PipelineConfig::default(), regions);
        let outcome = pipeline.run(&task, ProtectionScheme::StatisticalAbft, voltage, 3)?;
        rows.push(vec![
            label.to_string(),
            format!("{:.2}", outcome.task_value - clean),
            format!("{:.3}", outcome.recovery_rate()),
            format!("{:.4e}", outcome.energy.total_j()),
        ]);
    }
    println!(
        "clean perplexity {clean:.2}, operating point {voltage} V\n{}",
        render_table(
            &[
                "region assignment",
                "perplexity increase",
                "recovery rate",
                "energy [J]"
            ],
            &rows
        )
    );
    Ok(())
}

fn outlier_ablation() -> Result<(), Box<dyn std::error::Error>> {
    println!("-- Ablation 2: outlier channels and the sensitivity gap --\n");
    let config = StudyConfig {
        trials: trials(),
        seed: HARNESS_SEED,
        bit: 30,
    };
    let ber = [5e-3];
    let mut rows = Vec::new();
    for (label, model_config) in [
        ("with outlier channels", ModelConfig::opt_1_3b_proxy()),
        (
            "without outlier channels",
            ModelConfig::opt_1_3b_proxy().without_outliers(),
        ),
    ] {
        let mut model = Model::new(&model_config, HARNESS_SEED)?;
        if model_config.outlier_fraction == 0.0 {
            // Without outlier channels the pre-norm standard deviation collapses, which makes
            // the synthetic LM head over-confident; rescale the logit temperature by the
            // missing outlier variance so clean task difficulty stays comparable.
            let sigma_ratio = (1.0
                + ModelConfig::opt_1_3b_proxy().outlier_fraction
                    * ModelConfig::opt_1_3b_proxy().outlier_gain.powi(2))
            .sqrt();
            model.set_logit_temperature(model.logit_temperature() * sigma_ratio);
        }
        let task = WikitextTask::quick(model.language(), HARNESS_SEED);
        let clean = task.evaluate(&model, &mut realm_llm::NoopHook)?;
        let series = componentwise_study(
            &model,
            &task,
            &[Component::K, Component::O],
            &ber,
            Some(Stage::Prefill),
            &config,
        )?;
        let k = series[0].points[0].value - clean;
        let o = series[1].points[0].value - clean;
        rows.push(vec![
            label.to_string(),
            format!("{clean:.2}"),
            format!("{k:.2}"),
            format!("{o:.2}"),
            format!("{:.2}", o - k),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "activation statistics",
                "clean perplexity",
                "K degradation",
                "O degradation",
                "O minus K degradation"
            ],
            &rows
        )
    );
    println!(
        "Reading: the post-norm component O degrades dramatically more than the re-quantized \
         component K in both settings; the outlier channels are what give the *clean* model \
         its realistic heavy-tailed activation statistics (and quantization behaviour), while \
         K's robustness comes from INT8 re-quantization clipping and O's fragility from the \
         normalization skew of Fig. 5."
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    banner("design-choice ablations", "Fig. 5, Fig. 6");
    adaptivity_ablation()?;
    outlier_ablation()?;
    Ok(())
}
