//! Differential tests proving chunked prefill bit-exact with monolithic prefill.
//!
//! Chunked prefill is the substrate of the serving layer's budgeted admission: a long
//! prompt is advanced a budget-bounded window at a time instead of stalling every
//! in-flight decode stream for one monolithic forward. The whole design rests on the
//! chunking being **invisible to the numbers**:
//!
//! * **Logits** — the concatenated per-chunk logits equal the monolithic prefill logits
//!   bit for bit, at every chunk granularity, on every `GemmEngine` backend and TP
//!   degree. Per-row activation quantization, per-token-row KV scales and per-query-row
//!   causal masking are what make this hold: no value in the forward pass depends on
//!   where a chunk boundary falls.
//! * **Fused checksums** — the ABFT operand-side checksum `(eᵀ·X)·W` is linear in the
//!   activation rows, so the per-component checksum totals of a chunked prefill must
//!   equal the monolithic totals exactly. If chunking ever perturbed a quantized row,
//!   the checksum ledger would diverge even where the float logits round the same way.
//!   The one exception is `QKᵀ`: its hooked GEMM is the full `(chunk × resident)`
//!   rectangle and the causal mask is applied afterwards, so the *masked* cells a chunk's
//!   checksum covers depend on where the chunk ends (a monolithic prefill covers the whole
//!   upper triangle, single-row chunks none of it). The visible cells are pinned by the
//!   logits and by `SV`'s ledger, whose left operand is built from them.
//! * **Continuation** — decoding from a chunk-built cache reproduces the tokens *and*
//!   margins of a solo [`Model::generate`] run.
//! * **Attribution** — a fault injected into a mid-prompt chunk's GEMMs is detected,
//!   recovered, and charged to the owning request, never to its batch neighbours.

use realm::core::ProtectionPolicy;
use realm::llm::hooks::GemmContext;
use realm::llm::model::argmax_with_margin;
use realm::llm::{config::ModelConfig, model::Model, Component, GemmHook, GemmOrigin, NoopHook};
use realm::serve::{ServeConfig, ServeEngine, ServeRequest, TokenEvent};
use realm::tensor::{ChecksummedGemm, EngineKind, MatI32, MatI8, RowPartition, Workspace};
use std::collections::BTreeMap;

/// Accumulates the fused operand-side checksums of every GEMM, keyed by
/// `(layer, component)`. Because the checksum is a column sum over accumulator rows,
/// the ledger of a chunked prefill must equal the monolithic ledger exactly — per-GEMM
/// streams differ (one GEMM per chunk instead of one per prompt), but their row-linear
/// checksums add up to the same totals. `QKᵀ` is left out: see the module documentation.
#[derive(Default)]
struct ChecksumLedger {
    totals: BTreeMap<(usize, Component), i64>,
}

impl GemmHook for ChecksumLedger {
    fn on_gemm(&mut self, _: &GemmContext, _: &MatI8, _: &MatI8, _: &mut MatI32) {
        unreachable!("a checksum-wanting hook always sees the checksummed pass");
    }

    fn on_gemm_checksummed(
        &mut self,
        ctx: &GemmContext,
        _w: &MatI8,
        _x: &MatI8,
        result: &mut ChecksummedGemm,
    ) {
        if ctx.component == Component::QkT {
            return;
        }
        let sum = result
            .expected()
            .iter()
            .fold(0i64, |acc, &c| acc.wrapping_add(c));
        let entry = self.totals.entry((ctx.layer, ctx.component)).or_default();
        *entry = entry.wrapping_add(sum);
    }

    fn wants_checksums(&self) -> bool {
        true
    }
}

/// A 70-token prompt: long enough that chunk size 64 splits it non-trivially and chunk
/// size 1 exercises 70 single-row windows.
fn long_prompt(vocab: u32) -> Vec<u32> {
    (0..70u32).map(|t| (t * 7 + 3) % vocab).collect()
}

/// Prefills `prompt` in `chunk`-sized windows, returning the concatenated logits rows,
/// the checksum ledger, and the continuation tokens/margins decoded from the chunk-built
/// cache.
fn chunked_run(
    model: &Model,
    prompt: &[u32],
    chunk: usize,
    decode_tokens: usize,
) -> (Vec<Vec<f32>>, ChecksumLedger, Vec<u32>, Vec<f32>) {
    let mut ledger = ChecksumLedger::default();
    let mut ws = Workspace::new();
    let mut cache = model.new_cache();
    let mut rows: Vec<Vec<f32>> = Vec::new();
    let mut start = 0;
    while start < prompt.len() {
        let end = (start + chunk).min(prompt.len());
        let logits = model
            .prefill_chunk_ws(prompt, start..end, &mut ledger, &mut ws, &mut cache)
            .unwrap();
        for r in 0..logits.rows() {
            rows.push(logits.row(r).to_vec());
        }
        ws.recycle_mat_f32(logits);
        start = end;
    }
    // Continue decoding exactly the way `Model::generate` does, from the chunk-built
    // cache: the last prefill row's argmax is the first generated token.
    let (mut next, mut margin) = argmax_with_margin(rows.last().expect("non-empty prompt"));
    let mut tokens = Vec::new();
    let mut margins = Vec::new();
    for _ in 0..decode_tokens {
        tokens.push(next);
        margins.push(margin);
        if tokens.len() == decode_tokens {
            break;
        }
        let step_logits = model
            .decode_step_ws(next, &mut cache, &mut NoopHook, &mut ws)
            .unwrap();
        let (n, m) = argmax_with_margin(&step_logits);
        ws.recycle_vec_f32(step_logits);
        ws.reset();
        next = n;
        margin = m;
    }
    (rows, ledger, tokens, margins)
}

fn assert_chunk_parity(model: &Model, label: &str) {
    let prompt = long_prompt(model.config().vocab_size as u32);
    let decode_tokens = 6;

    let mut mono_ledger = ChecksumLedger::default();
    let (mono_logits, _cache) = model.prefill(&prompt, &mut mono_ledger).unwrap();
    let solo = model
        .generate(&prompt, decode_tokens, &mut NoopHook)
        .unwrap();

    for chunk in [1usize, 7, 64, prompt.len()] {
        let (rows, ledger, tokens, margins) = chunked_run(model, &prompt, chunk, decode_tokens);
        assert_eq!(
            rows.len(),
            mono_logits.rows(),
            "{label}/chunk={chunk}: row count"
        );
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(
                row.as_slice(),
                mono_logits.row(i),
                "{label}/chunk={chunk}: prefill logits row {i} diverged"
            );
        }
        assert_eq!(
            ledger.totals, mono_ledger.totals,
            "{label}/chunk={chunk}: fused checksum ledger diverged"
        );
        assert_eq!(
            tokens, solo.tokens,
            "{label}/chunk={chunk}: continuation tokens diverged from solo generate"
        );
        assert_eq!(
            margins, solo.margins,
            "{label}/chunk={chunk}: continuation margins diverged from solo generate"
        );
    }
}

#[test]
fn chunked_prefill_is_bit_identical_on_every_backend_and_tp_degree() {
    for kind in EngineKind::ALL {
        for tp in [1usize, 3] {
            let mut config = ModelConfig::tiny_llama();
            config.engine = kind;
            config.max_seq_len = 96;
            let mut model = Model::new(&config, 11).unwrap();
            model.set_tensor_parallel(tp);
            assert_chunk_parity(&model, &format!("tiny_llama/{kind}/tp{tp}"));
        }
    }
}

#[test]
fn chunked_prefill_parity_holds_for_the_opt_architecture() {
    // The cross product above runs on the Llama-style block; one dense spot check keeps
    // the OPT-style block (different MLP and norm placement) honest too.
    let mut config = ModelConfig::tiny_opt();
    config.engine = EngineKind::SimdParallel;
    config.max_seq_len = 96;
    let mut model = Model::new(&config, 13).unwrap();
    model.set_tensor_parallel(3);
    assert_chunk_parity(&model, "tiny_opt/simd_parallel/tp3");
}

/// Corrupts one accumulator row of the *second* prefill chunk the target slot runs — a
/// mid-prompt chunk, after the cache already holds a prefix — as ground truth for
/// chunk-window fault attribution.
struct CorruptSecondChunk {
    target_slot: usize,
    chunks_seen: usize,
    armed_row: Option<usize>,
    done: bool,
}

impl CorruptSecondChunk {
    fn new(target_slot: usize) -> Self {
        Self {
            target_slot,
            chunks_seen: 0,
            armed_row: None,
            done: false,
        }
    }
}

impl GemmHook for CorruptSecondChunk {
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
        let Some(row) = self.armed_row else { return };
        let acc = result.acc_mut();
        acc[(row, 0)] = acc[(row, 0)].wrapping_add(1 << 21);
        self.done = true;
    }

    fn wants_checksums(&self) -> bool {
        false
    }

    fn on_batch_begin(&mut self, partition: &RowPartition) {
        if self.done || self.armed_row.is_some() {
            return;
        }
        // Decode steps announce 1-row groups; a multi-row group on the target slot is
        // one of its prefill chunks.
        let range = partition.range(self.target_slot);
        if range.len() >= 2 {
            self.chunks_seen += 1;
            if self.chunks_seen == 2 {
                self.armed_row = Some(range.start);
            }
        }
    }
}

#[test]
fn fault_in_a_mid_prompt_chunk_is_charged_to_the_owning_request() {
    let mut config = ModelConfig::tiny_opt();
    config.engine = EngineKind::SimdParallel;
    config.max_seq_len = 96;
    let model = Model::new(&config, 17).unwrap();

    // Slot 0: a short request already decoding. Slot 1: a 16-token prompt that chunks
    // under the 4-token step budget; the corruptor strikes its second chunk.
    let short_prompt = vec![1u32, 2, 3];
    let long_prompt: Vec<u32> = (0..16u32).map(|t| (t * 3 + 1) % 64).collect();
    let mut engine = ServeEngine::new(
        &model,
        ServeConfig {
            slots: 2,
            step_token_budget: 4,
            ..ServeConfig::default()
        },
    )
    .with_fault_hook(Box::new(CorruptSecondChunk::new(1)));

    let (_, rx_short) = engine
        .submit(
            ServeRequest::new(short_prompt.clone(), 8).with_policy(ProtectionPolicy::classical()),
        )
        .unwrap();
    let (_, rx_long) = engine
        .submit(
            ServeRequest::new(long_prompt.clone(), 4).with_policy(ProtectionPolicy::classical()),
        )
        .unwrap();
    engine.run_until_idle().unwrap();

    let done = |rx: &std::sync::mpsc::Receiver<TokenEvent>| {
        rx.try_iter()
            .find_map(|e| match e {
                TokenEvent::Done(summary) => Some(summary),
                TokenEvent::Token { .. } => None,
            })
            .expect("request completes")
    };
    let short_done = done(&rx_short);
    let long_done = done(&rx_long);

    assert!(
        long_done.attribution.detections >= 1,
        "the mid-chunk fault must be detected and charged to the long request: {:?}",
        long_done.attribution
    );
    assert_eq!(
        long_done.attribution.detections, long_done.attribution.recoveries,
        "classical ABFT recovers everything it detects"
    );
    assert_eq!(
        short_done.attribution.detections, 0,
        "the short request shares the protector but none of the corrupted rows: {:?}",
        short_done.attribution
    );

    // Recovery means the corrupted chunk still produced clean numbers downstream.
    let solo_short = model.generate(&short_prompt, 8, &mut NoopHook).unwrap();
    let solo_long = model.generate(&long_prompt, 4, &mut NoopHook).unwrap();
    assert_eq!(short_done.tokens, solo_short.tokens);
    assert_eq!(long_done.tokens, solo_long.tokens);
    assert_eq!(long_done.margins, solo_long.margins);
}
