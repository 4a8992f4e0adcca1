//! Quickstart: build a synthetic quantized LLM, break it with low-voltage bit flips, and fix
//! it with statistical ABFT.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! # optionally pin the GEMM backend (reference | simd | simd_parallel):
//! cargo run --release --example quickstart -- reference
//! ```

use realm::core::pipeline::{PipelineConfig, ProtectedPipeline};
use realm::eval::task::Task;
use realm::eval::wikitext::WikitextTask;
use realm::inject::VoltageBerCurve;
use realm::llm::{config::ModelConfig, model::Model};
use realm::systolic::ProtectionScheme;
use realm::tensor::EngineKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The GEMM execution backend is selectable from the command line; every backend is
    // bit-exact, so this changes the run's speed and nothing else.
    let engine: EngineKind = match std::env::args().nth(1) {
        Some(arg) => arg.parse()?,
        None => EngineKind::default(),
    };

    // A scaled-down OPT-1.3B-style model with synthetic weights. The seed makes every run of
    // this example print the same numbers.
    let mut config = ModelConfig::opt_1_3b_proxy();
    config.engine = engine;
    let model = Model::new(&config, 2025)?;
    println!(
        "model: {} ({} layers, hidden {}, vocab {})  gemm backend: {engine} (simd dispatch: {})",
        config.name,
        config.num_layers,
        config.hidden_size,
        config.vocab_size,
        realm::tensor::simd::simd_dispatch_label()
    );

    // A synthetic WikiText-style perplexity task over the model's own language.
    let task = WikitextTask::standard(model.language(), 2025);
    let clean = task.evaluate(&model, &mut realm::llm::NoopHook)?;
    println!("clean perplexity at nominal voltage: {clean:.2}");

    // How bad do things get when the supply voltage is scaled down without protection, and
    // how well do the ABFT schemes hold up?
    let voltage = 0.70;
    let curve = VoltageBerCurve::default_14nm();
    println!(
        "\noperating point: {voltage:.2} V  (BER {:.2e})",
        curve.ber_at(voltage)
    );

    let pipeline_config = PipelineConfig {
        engine,
        ..PipelineConfig::default()
    };
    let pipeline = ProtectedPipeline::new(&model, pipeline_config);
    println!(
        "{:<28} {:>12} {:>16} {:>14}",
        "scheme", "perplexity", "recovery rate", "energy [J]"
    );
    for scheme in [
        ProtectionScheme::None,
        ProtectionScheme::ClassicalAbft,
        ProtectionScheme::ApproxAbft,
        ProtectionScheme::StatisticalAbft,
    ] {
        let outcome = pipeline.run(&task, scheme, voltage, 7)?;
        println!(
            "{:<28} {:>12.2} {:>16.3} {:>14.4e}",
            scheme.to_string(),
            outcome.task_value,
            outcome.recovery_rate(),
            outcome.energy.total_j()
        );
    }

    println!(
        "\nStatistical ABFT recovers most of the quality lost at this operating point while \
         triggering a fraction of classical ABFT's recoveries (and energy) — the paper's \
         headline trade-off. Re-run with a backend argument (reference|simd|simd_parallel) to \
         see that the numbers are bit-identical on every GEMM engine."
    );
    Ok(())
}
