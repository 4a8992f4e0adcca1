//! Differential tests proving the batched forward path bit-exact with N independent
//! single-sequence forwards — across ragged lengths, both block architectures and every
//! `GemmEngine` backend — plus per-sequence attribution of batched detections.
//!
//! Bit-exactness is what makes batching a pure amortisation: stacking sequences into one
//! fused-checksum GEMM per component may never change a logit, only how often the detector
//! has to look. The load-bearing mechanism is per-row quantization
//! (`realm_llm::quantized::quantize_symmetric_rows_into`) plus one scale per cached token
//! row: every row keeps the symmetric scale (and robust requantization percentile) it
//! would have had alone, and each sequence attends over its own slot of the KV cache.

use realm::core::{PipelineConfig, ProtectedPipeline, SchemeProtector, SequenceAttribution};
use realm::llm::batch::BatchRequest;
use realm::llm::model::PrefillChunk;
use realm::llm::{
    config::ModelConfig, hooks::GemmContext, model::Model, Architecture, Component, GemmHook,
    GemmOrigin, NoopHook,
};
use realm::systolic::{Dataflow, ProtectionScheme, SystolicArray};
use realm::tensor::{ChecksummedGemm, EngineKind, MatI32, MatI8, RowPartition, Workspace};

/// Ragged prompts exercising length-1 sequences, repeats and unequal lengths.
fn ragged_prompts() -> Vec<Vec<u32>> {
    vec![
        vec![1, 2, 3, 4, 5],
        vec![9, 8],
        vec![3, 3, 3, 3, 3, 3, 3],
        vec![0],
        vec![7, 11, 2, 5],
    ]
}

/// One request per prompt, every one with the same generation budget.
fn uniform_requests(prompts: &[Vec<u32>], budget: usize) -> Vec<BatchRequest> {
    prompts
        .iter()
        .map(|p| BatchRequest::new(p.clone(), budget))
        .collect()
}

fn model_for(kind: EngineKind, mut config: ModelConfig) -> Model {
    config.engine = kind;
    Model::new(&config, 7).unwrap()
}

#[test]
fn batched_generate_matches_sequential_on_every_backend() {
    for kind in EngineKind::ALL {
        for config in [ModelConfig::tiny_opt(), ModelConfig::tiny_llama()] {
            let name = config.name.clone();
            let model = model_for(kind, config);
            let prompts = ragged_prompts();
            let batched = model
                .generate_batch(&uniform_requests(&prompts, 6), &mut NoopHook)
                .unwrap();
            assert_eq!(batched.len(), prompts.len());
            for (i, prompt) in prompts.iter().enumerate() {
                let solo = model.generate(prompt, 6, &mut NoopHook).unwrap();
                assert_eq!(
                    batched[i].tokens, solo.tokens,
                    "{name}/{kind}: sequence {i} tokens diverged"
                );
                assert_eq!(
                    batched[i].margins, solo.margins,
                    "{name}/{kind}: sequence {i} margins diverged"
                );
            }
        }
    }
}

#[test]
fn batched_prefill_logits_are_bit_exact_per_sequence() {
    for kind in EngineKind::ALL {
        let model = model_for(kind, ModelConfig::tiny_llama());
        let prompts = ragged_prompts();
        let (batched_logits, cache) = model.prefill_batch(&prompts, &mut NoopHook).unwrap();
        for (i, prompt) in prompts.iter().enumerate() {
            let (solo_logits, solo_cache) = model.prefill(prompt, &mut NoopHook).unwrap();
            assert_eq!(
                batched_logits[i], solo_logits,
                "{kind}: prefill logits of sequence {i} diverged"
            );
            // Not just the lengths: every slot holds exactly the codes and scales the
            // solo prefill cached, at every layer.
            for layer in 0..cache.num_layers() {
                assert_eq!(
                    cache.layer(layer).slot(i),
                    solo_cache.layer(layer),
                    "{kind}: cached KV of sequence {i} diverged at layer {layer}"
                );
            }
        }
    }
}

/// Records the hook-visible stream of a run: every GEMM's context, `(m, k, n)` shape and
/// left-operand codes (as a digest), for the attention GEMMs also the right operand and what
/// the engine produced, and every announced partition.
#[derive(Default)]
struct StreamRecorder {
    /// Ask for the fused-checksum pass, and record the checksums it hands over.
    checksummed: bool,
    gemms: Vec<(GemmContext, (usize, usize, usize))>,
    left_operands: Vec<u64>,
    /// Per `QKᵀ`/`SV` GEMM, in order: right-operand codes, accumulator and — when
    /// `checksummed` — the expected and observed column checksums.
    attention: Vec<u64>,
    partitions: Vec<Vec<usize>>,
}

/// FNV-1a over `bytes`, continuing from `state` (a digest that is the same on every
/// toolchain, unlike `DefaultHasher`).
fn fnv1a(state: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(state, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn is_attention_gemm(ctx: &GemmContext) -> bool {
    matches!(ctx.component, Component::QkT | Component::Sv)
}

impl StreamRecorder {
    fn checksummed() -> Self {
        Self {
            checksummed: true,
            ..Self::default()
        }
    }

    /// One digest of everything a hook can tell a run by, attribution aside: component,
    /// layer, GEMM index, shape and left-operand codes of every GEMM, in order, and for
    /// `QKᵀ`/`SV` the right operand and the engine's results too.
    fn digest(&self) -> u64 {
        let mut state = FNV_OFFSET;
        let mut attention = self.attention.iter();
        for ((ctx, (m, k, n)), codes) in self.gemms.iter().zip(&self.left_operands) {
            let component = Component::ALL.iter().position(|c| *c == ctx.component);
            let fields = [component.unwrap(), ctx.layer, ctx.sequence, *m, *k, *n];
            let fields = fields.iter().flat_map(|v| (*v as u64).to_le_bytes());
            state = fnv1a(state, fields.chain(codes.to_le_bytes()));
            if is_attention_gemm(ctx) {
                let results = attention.next().expect("one entry per attention GEMM");
                state = fnv1a(state, results.to_le_bytes());
            }
        }
        state
    }

    /// Records one GEMM, returning the attention entry's state so far (right operand and
    /// accumulator) for the checksummed path to continue.
    fn record(&mut self, ctx: &GemmContext, w: &MatI8, x: &MatI8, acc: &MatI32) -> Option<u64> {
        self.gemms.push((*ctx, (w.rows(), w.cols(), x.cols())));
        let codes = w.as_slice().iter().map(|&c| c as u8);
        self.left_operands.push(fnv1a(FNV_OFFSET, codes));
        is_attention_gemm(ctx).then(|| {
            let right = fnv1a(FNV_OFFSET, x.as_slice().iter().map(|&c| c as u8));
            fnv1a(right, acc.as_slice().iter().flat_map(|v| v.to_le_bytes()))
        })
    }
}

impl GemmHook for StreamRecorder {
    fn on_gemm(&mut self, ctx: &GemmContext, w: &MatI8, x: &MatI8, acc: &mut MatI32) {
        let results = self.record(ctx, w, x, acc);
        self.attention.extend(results);
    }

    fn on_gemm_checksummed(
        &mut self,
        ctx: &GemmContext,
        w: &MatI8,
        x: &MatI8,
        result: &mut ChecksummedGemm,
    ) {
        if let Some(state) = self.record(ctx, w, x, result.acc()) {
            let observed = result.observed();
            let sums = result.expected().iter().chain(&observed).copied();
            self.attention
                .push(fnv1a(state, sums.flat_map(|v| v.to_le_bytes())));
        }
    }

    fn wants_checksums(&self) -> bool {
        self.checksummed
    }

    fn on_batch_begin(&mut self, partition: &RowPartition) {
        self.partitions.push(partition.lens());
    }
}

#[test]
fn batch_of_one_matches_the_single_sequence_path() {
    let model = model_for(EngineKind::Parallel, ModelConfig::tiny_opt());
    let prompt = vec![1u32, 5, 9, 3];
    let solo = model.generate(&prompt, 8, &mut NoopHook).unwrap();
    let batched = model
        .generate_batch(&[BatchRequest::new(prompt.clone(), 8)], &mut NoopHook)
        .unwrap();
    assert_eq!(batched.len(), 1);
    assert_eq!(batched[0], solo);

    // The contract the single forward path rests on: the solo entry points and a one-slot
    // batch issue the same GEMMs in the same order with the same shapes and produce the
    // same logits. Only the attribution differs — the shared projections and MLP GEMMs are
    // tagged `Sequence(0)` solo and `BatchedRows` batched (`QKᵀ`/`SV` are `Sequence(0)` on
    // both), and only the batched side announces a partition, once per forward.
    for config in [ModelConfig::tiny_opt(), ModelConfig::tiny_llama()] {
        let model = model_for(EngineKind::Simd, config);
        let (mut solo, mut one_slot) = (StreamRecorder::default(), StreamRecorder::default());
        let mut ws = Workspace::new();

        let (solo_prefill, mut solo_cache) = model.prefill(&prompt, &mut solo).unwrap();
        let mut cache = model.new_batched_cache(1);
        let chunk = [PrefillChunk::whole(&prompt, 0)];
        let batch_prefill = model
            .prefill_chunks_batch_ws(&chunk, &mut cache, &mut one_slot, &mut ws)
            .unwrap();
        assert_eq!(batch_prefill, [solo_prefill]);

        for token in [7u32, 2, 11] {
            let solo_logits = model
                .decode_step_ws(token, &mut solo_cache, &mut solo, &mut ws)
                .unwrap();
            let batch_logits = model
                .decode_step_batch_ws(&[Some(token)], &mut cache, &mut one_slot, &mut ws)
                .unwrap();
            assert_eq!(batch_logits, [Some(solo_logits)]);
        }

        assert!(
            solo.partitions.is_empty(),
            "a solo forward announces nothing"
        );
        assert_eq!(one_slot.partitions, [[4], [1], [1], [1]]);
        assert_eq!(solo.gemms.len(), one_slot.gemms.len());
        let c = model.config();
        let attention = solo.gemms.iter().filter(|(g, _)| {
            use Component::*;
            matches!(g.component, Q | K | V | O | QkT | Sv)
        });
        assert_eq!(
            attention.count(),
            4 * c.num_layers * (4 + 2 * c.num_heads),
            "four forwards of Q/K/V/O plus one QKᵀ and one SV per head per layer"
        );
        for ((s, s_shape), (b, b_shape)) in solo.gemms.iter().zip(&one_slot.gemms) {
            assert_eq!(
                (s.component, s.layer, s.stage, s.sequence, s_shape),
                (b.component, b.layer, b.stage, b.sequence, b_shape)
            );
            assert_eq!(s.origin, GemmOrigin::Sequence(0));
            let per_sequence = matches!(s.component, Component::QkT | Component::Sv);
            let expected = if per_sequence {
                GemmOrigin::Sequence(0)
            } else {
                GemmOrigin::BatchedRows
            };
            assert_eq!(b.origin, expected, "{:?}", b.component);
        }

        // Projections that read one activation (`Q`/`K`/`V`; `Gate`/`Up`) quantize it once
        // and share the codes, which a hook must not be able to tell from quantizing it per
        // projection: they are issued in the same order with identical left operands, and
        // the whole stream — contexts, shapes, operand codes — is the one recorded at the
        // last commit that quantized per projection.
        assert_eq!(solo.left_operands, one_slot.left_operands);
        let mut shared = 0;
        for ((g, _), &codes) in solo.gemms.iter().zip(&solo.left_operands) {
            match g.component {
                Component::Q | Component::Gate => shared = codes,
                Component::K | Component::V | Component::Up => {
                    assert_eq!(codes, shared, "{:?} at layer {}", g.component, g.layer)
                }
                _ => {}
            }
        }
        // The same run through the fused-checksum pass: same GEMMs, same logits, and the
        // attention GEMMs' checksums are part of the pinned stream too.
        let mut checked = StreamRecorder::checksummed();
        let (checked_prefill, mut checked_cache) = model.prefill(&prompt, &mut checked).unwrap();
        assert_eq!(checked_prefill, batch_prefill[0]);
        for token in [7u32, 2, 11] {
            model
                .decode_step_ws(token, &mut checked_cache, &mut checked, &mut ws)
                .unwrap();
        }
        assert_eq!(checked.gemms, solo.gemms);
        assert_eq!(checked.left_operands, solo.left_operands);

        let (plain, fused) = match c.architecture {
            Architecture::OptStyle => (STREAM_OPT, CHECKSUMMED_STREAM_OPT),
            Architecture::LlamaStyle => (STREAM_LLAMA, CHECKSUMMED_STREAM_LLAMA),
        };
        assert_eq!(solo.digest(), plain, "{}", c.name);
        assert_eq!(checked.digest(), fused, "{}", c.name);
    }
}

/// [`StreamRecorder::digest`] of the runs above at commit 462c79e (`tiny_opt` /
/// `tiny_llama`, model seed 7) — before attention's GEMMs moved to the skinny
/// fused-checksum pass, the vectorised key transpose and the per-`attend` scratch bundle.
/// Without the attention entries the plain digests are the ones recorded at 62dcef5, where
/// every projection still quantized its own copy of the input.
const STREAM_OPT: u64 = 17_323_780_635_176_672_133;
const STREAM_LLAMA: u64 = 16_640_406_332_798_412_783;
const CHECKSUMMED_STREAM_OPT: u64 = 9_825_805_400_050_440_094;
const CHECKSUMMED_STREAM_LLAMA: u64 = 13_093_890_141_850_396_321;

#[test]
fn empty_batch_and_empty_prompts_are_rejected() {
    let model = model_for(EngineKind::Reference, ModelConfig::tiny_opt());
    assert!(model.prefill_batch(&[], &mut NoopHook).is_err());
    assert!(model.generate_batch(&[], &mut NoopHook).is_err());
    assert!(model
        .generate_batch(&[BatchRequest::new(vec![], 3)], &mut NoopHook)
        .is_err());
    assert!(model
        .prefill_batch(&[vec![1, 2], vec![]], &mut NoopHook)
        .is_err());
}

#[test]
fn scheduler_with_ragged_budgets_matches_per_sequence_generate() {
    let model = model_for(EngineKind::Blocked, ModelConfig::tiny_llama());
    let requests = vec![
        BatchRequest::new(vec![1, 2, 3], 7),
        BatchRequest::new(vec![4, 5, 6, 7, 8], 2),
        BatchRequest::new(vec![9], 5),
        BatchRequest::new(vec![2, 4], 0),
    ];
    let outputs = model.generate_batch(&requests, &mut NoopHook).unwrap();
    for (i, request) in requests.iter().enumerate() {
        let solo = model
            .generate(&request.prompt, request.max_new_tokens, &mut NoopHook)
            .unwrap();
        assert_eq!(outputs[i], solo, "request {i} diverged from solo generate");
    }
}

/// A hook that corrupts one accumulator row of a chosen batch sequence in the first
/// batch-stacked GEMM it sees — ground truth for attribution.
struct CorruptOneSequence {
    partition: Option<RowPartition>,
    target_seq: usize,
    done: bool,
}

impl CorruptOneSequence {
    fn new(target_seq: usize) -> Self {
        Self {
            partition: None,
            target_seq,
            done: false,
        }
    }
}

impl GemmHook for CorruptOneSequence {
    fn on_gemm(&mut self, _: &GemmContext, _: &MatI8, _: &MatI8, _: &mut MatI32) {}

    fn on_gemm_checksummed(
        &mut self,
        ctx: &GemmContext,
        _w: &MatI8,
        _x: &MatI8,
        result: &mut ChecksummedGemm,
    ) {
        if self.done || !matches!(ctx.origin, GemmOrigin::BatchedRows) {
            return;
        }
        let range = self
            .partition
            .as_ref()
            .expect("batched forwards announce their partition first")
            .range(self.target_seq);
        let row = range.start;
        let acc = result.acc_mut();
        acc[(row, 1)] = acc[(row, 1)].wrapping_add(1 << 21);
        self.done = true;
    }

    fn wants_checksums(&self) -> bool {
        false
    }

    fn on_batch_begin(&mut self, partition: &RowPartition) {
        if self.partition.is_none() {
            self.partition = Some(partition.clone());
        }
    }
}

#[test]
fn batched_campaign_attributes_detections_to_the_correct_sequence() {
    for kind in EngineKind::ALL {
        let model = model_for(kind, ModelConfig::tiny_opt());
        let prompts = ragged_prompts();
        let (clean_logits, _) = model.prefill_batch(&prompts, &mut NoopHook).unwrap();

        for target_seq in [0usize, 2, 4] {
            let mut corruptor = CorruptOneSequence::new(target_seq);
            let mut protector = SchemeProtector::with_default_regions(
                ProtectionScheme::ClassicalAbft,
                SystolicArray::small(Dataflow::WeightStationary),
            );
            let mut chain = realm::llm::hooks::HookChain::new()
                .with(&mut corruptor)
                .with(&mut protector);
            let (logits, _) = model.prefill_batch(&prompts, &mut chain).unwrap();

            let attribution = protector.sequence_attribution();
            assert_eq!(
                attribution.get(&target_seq),
                Some(&SequenceAttribution {
                    detections: 1,
                    recoveries: 1
                }),
                "{kind}: detection should be charged to sequence {target_seq}: {attribution:?}"
            );
            assert_eq!(
                attribution.len(),
                1,
                "{kind}: only the corrupted sequence is charged: {attribution:?}"
            );
            assert_eq!(
                logits, clean_logits,
                "{kind}: recovery restores the clean batched logits"
            );
        }
    }
}

#[test]
fn batched_pipeline_outcome_carries_dense_attribution() {
    let model = model_for(EngineKind::Parallel, ModelConfig::tiny_opt());
    let config = PipelineConfig {
        array: SystolicArray::small(Dataflow::WeightStationary),
        ..PipelineConfig::default()
    };
    let pipeline = ProtectedPipeline::new(&model, config);
    let prompts = ragged_prompts();
    let outcome = pipeline
        .run_generation_batch(&prompts, 4, ProtectionScheme::ClassicalAbft, 0.60, 3)
        .unwrap();
    assert_eq!(outcome.per_sequence.len(), prompts.len());
    assert!(outcome.errors_injected > 0);
    let attributed: u64 = outcome.per_sequence.iter().map(|s| s.detections).sum();
    assert!(
        attributed >= outcome.recoveries,
        "every recovery traces to at least one sequence ({attributed} attributed, {} recoveries)",
        outcome.recoveries
    );
    // The protected faulty run still produces the clean tokens.
    let clean = model
        .generate_batch(&uniform_requests(&prompts, 4), &mut NoopHook)
        .unwrap();
    assert_eq!(outcome.outputs, clean);
}
