//! Batched vs sequential protected prefill: throughput and detector-inspection
//! amortisation at batch size 8.
//!
//! This is the perf contract of the batched-inference tentpole: a batch of 8 prompts run
//! through `Model::prefill_batch` shares one fused-checksum GEMM per shared component per
//! layer, so the ABFT detector inspects ≥2× fewer GEMMs per generated token than 8
//! sequential `Model::prefill` calls — while producing bit-identical logits. The inspection
//! counts are printed (and asserted ≥2×); the wall-clock numbers land in the criterion
//! report (the `protected_prefill_b8` / `unprotected_prefill_b8` rows of
//! `BENCH_gemm.json`). Run with
//! `REALM_BENCH_JSON=/tmp/bench.json cargo bench --bench gemm_batched` and merge into the
//! committed baseline.

use criterion::{criterion_group, criterion_main, Criterion};
use realm_core::SchemeProtector;
use realm_llm::{config::ModelConfig, model::Model, NoopHook};
use realm_systolic::{Dataflow, ProtectionScheme, SystolicArray};
use realm_tensor::EngineKind;

const BATCH: usize = 8;
const PROMPT_LEN: usize = 16;

/// Pinned to the blocked-parallel kernel: this bench contracts the batching layer's
/// amortisation (inspections per token, prefill stacking), which must stay comparable
/// across kernel changes rather than re-measure whatever the default GEMM backend is.
fn scheduling_config() -> ModelConfig {
    let mut config = ModelConfig::tiny_opt();
    config.engine = EngineKind::Parallel;
    config
}

fn prompts() -> Vec<Vec<u32>> {
    (0..BATCH)
        .map(|i| {
            (0..PROMPT_LEN)
                .map(|t| ((i * 7 + t * 3) % 60) as u32)
                .collect()
        })
        .collect()
}

fn protector() -> SchemeProtector {
    SchemeProtector::with_default_regions(
        ProtectionScheme::ClassicalAbft,
        SystolicArray::small(Dataflow::WeightStationary),
    )
}

fn bench_protected_prefill(c: &mut Criterion) {
    let model = Model::new(&scheduling_config(), 5).unwrap();
    let prompts = prompts();
    let mut group = c.benchmark_group("protected_prefill_b8");
    group.sample_size(15);
    group.bench_function("sequential", |bencher| {
        bencher.iter(|| {
            let mut p = protector();
            for prompt in &prompts {
                model.prefill(prompt, &mut p).unwrap();
            }
            p.stats().gemms_inspected
        });
    });
    group.bench_function("batched", |bencher| {
        bencher.iter(|| {
            let mut p = protector();
            model.prefill_batch(&prompts, &mut p).unwrap();
            p.stats().gemms_inspected
        });
    });
    group.finish();
}

fn bench_unprotected_prefill(c: &mut Criterion) {
    // Batching pays even without a protector: fewer, larger GEMMs per forward.
    let model = Model::new(&scheduling_config(), 5).unwrap();
    let prompts = prompts();
    let mut group = c.benchmark_group("unprotected_prefill_b8");
    group.sample_size(15);
    group.bench_function("sequential", |bencher| {
        bencher.iter(|| {
            for prompt in &prompts {
                model.prefill(prompt, &mut NoopHook).unwrap();
            }
        });
    });
    group.bench_function("batched", |bencher| {
        bencher.iter(|| model.prefill_batch(&prompts, &mut NoopHook).unwrap());
    });
    group.finish();
}

fn report_inspection_amortisation(_c: &mut Criterion) {
    // Not a timing benchmark: counts detector inspections per token for the committed
    // `batched_inference` baseline in BENCH_gemm.json.
    let model = Model::new(&scheduling_config(), 5).unwrap();
    let prompts = prompts();
    let tokens = (BATCH * PROMPT_LEN) as f64;

    let mut sequential = protector();
    for prompt in &prompts {
        model.prefill(prompt, &mut sequential).unwrap();
    }
    let mut batched = protector();
    model.prefill_batch(&prompts, &mut batched).unwrap();

    let seq_per_token = sequential.stats().gemms_inspected as f64 / tokens;
    let batch_per_token = batched.stats().gemms_inspected as f64 / tokens;
    println!(
        "inspections/token at batch {BATCH}: sequential {seq_per_token:.4} \
         batched {batch_per_token:.4} ({:.2}x fewer)",
        seq_per_token / batch_per_token
    );
    assert!(
        seq_per_token / batch_per_token >= 2.0,
        "batched prefill must amortise detector inspections by >=2x at batch {BATCH}"
    );
}

criterion_group!(
    benches,
    bench_protected_prefill,
    bench_unprotected_prefill,
    report_inspection_amortisation
);
criterion_main!(benches);
