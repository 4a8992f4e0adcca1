//! Per-layer probes: each crate's public functions timed from outside, at the serving
//! model's own shapes.
//!
//! A probe does not run the workload; it runs one layer's piece of it in isolation — one
//! transformer block's seven linear GEMMs, one detector inspection, one decode step — so
//! that when an end-to-end number moves, the layer that moved it can be named. Competing
//! variants (plain vs checksummed, unprotected vs protected) are timed interleaved, call by
//! call, so host noise lands on all of them alike, and every timing is the lower quartile
//! of its samples. Probes are workload-independent and run in every traced invocation.

use crate::stats::{quantile, sorted};
use crate::workloads::SLOTS;
use rand::Rng;
use realm::abft::{AbftDetector, ClassicalAbft, StatisticalAbft};
use realm::core::SchemeProtector;
use realm::inject::error_model::BitFlipModel;
use realm::inject::injector::ErrorInjector;
use realm::inject::targeting::Target;
use realm::llm::model::PrefillChunk;
use realm::llm::quantized::{
    convert_accumulator_rows_into, quantize_symmetric_rows_into, OutputMode,
};
use realm::llm::{BatchedKvCache, Component, GemmContext, GemmHook, Model, NoopHook, Stage};
use realm::net::http::RequestParser;
use realm::net::wire::{encode_gen_body, format_event, parse_event, parse_gen_body, GenBody};
use realm::serve::TokenEvent;
use realm::systolic::{Dataflow, ProtectionScheme, SystolicArray};
use realm::tensor::rng::{gaussian_matrix, seeded, SeededRng};
use realm::tensor::{ChecksummedGemm, MatF32, MatI32, MatI8, PackedMatI8, Workspace};
use std::time::Instant;

/// Seed of every probe's operands: probes are the same on every run.
const PROBE_SEED: u64 = 0x9806E;
/// Prefill shape of the `tensor.` probes and chunk length of the `llm.`/`core.` ones.
const PREFILL_ROWS: usize = 128;
const CHUNK: usize = 64;
const PREFIX: usize = 256;

pub type Metrics = Vec<(String, f64)>;

fn q1(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.25)
}

fn timed_us(f: impl FnOnce()) -> f64 {
    let started = Instant::now();
    f();
    started.elapsed().as_secs_f64() * 1e6
}

/// Times `arms` round-robin for `rounds` rounds; returns each arm's lower-quartile µs.
fn interleaved(rounds: usize, arms: &mut [&mut dyn FnMut()]) -> Vec<f64> {
    let mut samples = vec![Vec::with_capacity(rounds); arms.len()];
    for _ in 0..rounds {
        for (arm, samples) in arms.iter_mut().zip(&mut samples) {
            samples.push(timed_us(&mut **arm));
        }
    }
    samples.iter().map(|s| q1(s)).collect()
}

fn random_i8(rng: &mut SeededRng, rows: usize, cols: usize) -> MatI8 {
    MatI8::from_fn(rows, cols, |_, _| rng.gen_range(-127i8..=127))
}

/// One transformer block's linear layers as `(k, n, output mode)`: Q, K, V, O, Gate, Up,
/// Down of the LLaMA-style serving model.
fn block_linears(model: &Model) -> Vec<(usize, usize, OutputMode)> {
    let (h, f) = (model.config().hidden_size, model.config().ffn_size);
    vec![
        (h, h, OutputMode::RequantizedInt8),
        (h, h, OutputMode::RequantizedInt8),
        (h, h, OutputMode::RequantizedInt8),
        (h, h, OutputMode::Float),
        (h, f, OutputMode::Float),
        (h, f, OutputMode::Float),
        (f, h, OutputMode::Float),
    ]
}

/// `tensor.`: quantize → packed GEMM → checksummed GEMM → requantize over one block's
/// linear layers, at `rows` activation rows.
fn tensor_probe(model: &Model, stage: &str, rows: usize, rounds: usize, out: &mut Metrics) {
    let engine = model.engine();
    let mut rng = seeded(PROBE_SEED);
    struct Layer {
        x: MatF32,
        xq: MatI8,
        scales: Vec<f32>,
        weight: PackedMatI8,
        acc: MatI32,
        result: ChecksummedGemm,
        mode: OutputMode,
        y: MatF32,
    }
    let mut layers: Vec<Layer> = block_linears(model)
        .into_iter()
        .map(|(k, n, mode)| {
            let x = gaussian_matrix(&mut rng, rows, k, 0.0, 1.0);
            let mut xq = MatI8::zeros(rows, k);
            let mut scales = Vec::new();
            quantize_symmetric_rows_into(&x, &mut xq, &mut scales);
            Layer {
                x,
                xq,
                scales,
                weight: PackedMatI8::pack(&random_i8(&mut rng, k, n)),
                acc: MatI32::zeros(rows, n),
                result: ChecksummedGemm::empty(),
                mode,
                y: MatF32::zeros(rows, n),
            }
        })
        .collect();
    let macs: usize = layers
        .iter()
        .map(|l| rows * l.weight.rows() * l.weight.cols())
        .sum();
    let layers = std::cell::RefCell::new(&mut layers);
    let mut etw = Vec::new();
    let mut mags = Vec::new();
    let times = interleaved(
        rounds,
        &mut [
            &mut || {
                for l in layers.borrow_mut().iter_mut() {
                    quantize_symmetric_rows_into(&l.x, &mut l.xq, &mut l.scales);
                }
            },
            &mut || {
                for l in layers.borrow_mut().iter_mut() {
                    engine
                        .gemm_i8_packed_into(&l.xq, &l.weight, &mut l.acc)
                        .expect("probe shapes agree");
                }
            },
            &mut || {
                for l in layers.borrow_mut().iter_mut() {
                    engine
                        .gemm_i8_packed_checksummed_into(&l.xq, &l.weight, &mut l.result, &mut etw)
                        .expect("probe shapes agree");
                }
            },
            &mut || {
                for l in layers.borrow_mut().iter_mut() {
                    mags.resize(l.acc.len(), 0.0);
                    convert_accumulator_rows_into(&l.acc, &l.scales, l.mode, &mut l.y, &mut mags);
                }
            },
        ],
    );
    let (quantize, packed, checksummed, requantize) = (times[0], times[1], times[2], times[3]);
    out.push((format!("tensor.quantize_us.{stage}"), quantize));
    out.push((format!("tensor.gemm_packed_us.{stage}"), packed));
    out.push((format!("tensor.gemm_checksummed_us.{stage}"), checksummed));
    out.push((
        format!("tensor.checksum_overhead_pct.{stage}"),
        100.0 * (checksummed - packed) / packed,
    ));
    out.push((format!("tensor.requantize_us.{stage}"), requantize));
    out.push((
        format!("tensor.gmacs_per_s.{stage}"),
        macs as f64 / (packed * 1e3),
    ));
}

/// `abft.`: one inspection per detector at the decode shape, how many seeded faults the
/// statistical detector escalates to a recovery, and the false-positive rate on clean GEMMs.
fn abft_probe(model: &Model, out: &mut Metrics) {
    let engine = model.engine();
    let (h, f) = (model.config().hidden_size, model.config().ffn_size);
    let mut rng = seeded(PROBE_SEED + 1);
    let statistical = StatisticalAbft::resilient();
    let classical = ClassicalAbft::new();
    let clean: Vec<ChecksummedGemm> = (0..64)
        .map(|_| {
            engine
                .gemm_i8_checksummed(&random_i8(&mut rng, SLOTS, h), &random_i8(&mut rng, h, f))
                .expect("probe shapes agree")
        })
        .collect();
    let times = interleaved(
        256,
        &mut [
            &mut || {
                std::hint::black_box(statistical.inspect_checksummed(&clean[0]));
            },
            &mut || {
                std::hint::black_box(classical.inspect_checksummed(&clean[0]));
            },
        ],
    );
    out.push(("abft.inspect_us.statistical".into(), times[0]));
    out.push(("abft.inspect_us.classical".into(), times[1]));

    let false_positives = clean
        .iter()
        .map(|r| {
            usize::from(statistical.inspect_checksummed(r).trigger_recovery)
                + usize::from(classical.inspect_checksummed(r).trigger_recovery)
        })
        .sum::<usize>();
    out.push((
        "abft.clean_false_positive_rate".into(),
        false_positives as f64 / (2 * clean.len()) as f64,
    ));

    // Trial i flips bit 18 + i % 8 in i % 8 + 1 seeded accumulator elements.
    let mut detections = 0;
    for (i, result) in clean.iter().enumerate() {
        let mut faulty = result.clone();
        for _ in 0..=i % 8 {
            let at = (rng.gen_range(0..SLOTS), rng.gen_range(0..f));
            faulty.acc_mut()[at] ^= 1 << (18 + i % 8);
        }
        detections += usize::from(statistical.inspect_checksummed(&faulty).trigger_recovery);
    }
    out.push(("abft.detections".into(), detections as f64));
}

/// `inject.`: the injector's own cost per decode-shape GEMM and its exact counts over a
/// fixed number of calls.
fn inject_probe(model: &Model, out: &mut Metrics) {
    let (h, f) = (model.config().hidden_size, model.config().ffn_size);
    let mut rng = seeded(PROBE_SEED + 2);
    let (w, x) = (random_i8(&mut rng, SLOTS, h), random_i8(&mut rng, h, f));
    let mut acc = MatI32::zeros(SLOTS, f);
    let mut injector = ErrorInjector::new(
        BitFlipModel::with_bit_range(1e-4, 16, 32),
        Target::everything(),
        PROBE_SEED,
    );
    let ctx = GemmContext::new(Component::Gate, 0, Stage::Decode, 0);
    let samples: Vec<f64> = (0..256)
        .map(|_| timed_us(|| injector.on_gemm(&ctx, &w, &x, &mut acc)))
        .collect();
    out.push(("inject.hook_us_per_gemm".into(), q1(&samples)));
    out.push((
        "inject.errors_injected".into(),
        injector.stats().errors_injected as f64,
    ));
    out.push((
        "inject.gemms_observed".into(),
        injector.stats().gemms_observed as f64,
    ));
}

fn protector(scheme: ProtectionScheme) -> SchemeProtector {
    // The array the serving engine accounts recoveries against.
    SchemeProtector::with_default_regions(scheme, SystolicArray::small(Dataflow::WeightStationary))
}

fn prompt(rng: &mut SeededRng, model: &Model, len: usize) -> Vec<u32> {
    (0..len)
        .map(|_| rng.gen_range(0..model.config().vocab_size as u32))
        .collect()
}

/// `llm.decode_step_us`, `core.protect_overhead_pct.decode.*`: lockstep decode steps on
/// four 16-token contexts under no hook, the statistical and the classical protector, plus
/// a single-stream arm; step `i` of every arm runs at the same context length.
fn decode_probe(model: &Model, steps: usize, out: &mut Metrics) {
    struct Arm {
        hook: Box<dyn GemmHook>,
        cache: BatchedKvCache,
        tokens: Vec<Option<u32>>,
        ws: Workspace,
        us: Vec<f64>,
    }
    let mut rng = seeded(PROBE_SEED + 3);
    let prompts: Vec<Vec<u32>> = (0..SLOTS).map(|_| prompt(&mut rng, model, 16)).collect();
    let arm = |hook: Box<dyn GemmHook>, width: usize| {
        let mut cache = model.new_batched_cache(SLOTS);
        let mut ws = Workspace::new();
        let chunks: Vec<PrefillChunk<'_>> = prompts[..width]
            .iter()
            .enumerate()
            .map(|(slot, p)| PrefillChunk {
                prompt: p,
                range: 0..p.len(),
                slot,
            })
            .collect();
        model
            .prefill_chunks_batch_ws(&chunks, &mut cache, &mut NoopHook, &mut ws)
            .expect("probe prompts prefill");
        Arm {
            hook,
            cache,
            tokens: (0..SLOTS).map(|s| (s < width).then_some(1)).collect(),
            ws,
            us: Vec::with_capacity(steps),
        }
    };
    let mut arms = [
        arm(Box::new(NoopHook), SLOTS),
        arm(
            Box::new(protector(ProtectionScheme::StatisticalAbft)),
            SLOTS,
        ),
        arm(Box::new(protector(ProtectionScheme::ClassicalAbft)), SLOTS),
        arm(Box::new(protector(ProtectionScheme::StatisticalAbft)), 1),
    ];
    for _ in 0..steps {
        for arm in &mut arms {
            let Arm {
                hook,
                cache,
                tokens,
                ws,
                us,
            } = arm;
            us.push(timed_us(|| {
                let logits = model
                    .decode_step_batch_ws(tokens, cache, hook.as_mut(), ws)
                    .expect("probe decode steps fit the context");
                for l in logits.into_iter().flatten() {
                    ws.recycle_vec_f32(l);
                }
                ws.reset();
            }));
        }
    }
    let [none, statistical, classical, single] = arms.map(|a| q1(&a.us));
    out.push(("llm.decode_step_us.b4".into(), statistical));
    out.push(("llm.decode_step_us.b1".into(), single));
    out.push((
        "core.protect_overhead_pct.decode.statistical".into(),
        100.0 * (statistical / none - 1.0),
    ));
    out.push((
        "core.protect_overhead_pct.decode.classical".into(),
        100.0 * (classical / none - 1.0),
    ));
}

/// Fills slot 0 of every layer with `rows` random KV rows: attention cost depends on how
/// many rows are resident, not on what they hold.
fn load_prefix(model: &Model, cache: &mut BatchedKvCache, rng: &mut SeededRng, rows: usize) {
    let hidden = model.config().hidden_size;
    for layer in 0..cache.num_layers() {
        let keys = gaussian_matrix(rng, rows, hidden, 0.0, 1.0);
        let values = gaussian_matrix(rng, rows, hidden, 0.0, 1.0);
        cache
            .layer_mut(layer)
            .load_slot(0, &keys, &values)
            .expect("an empty slot takes a prefix");
    }
}

/// `llm.prefill_chunk_us`, `core.protect_overhead_pct.prefill.*`: one 64-token chunk on an
/// empty slot under the three hooks, and on a 256-token resident prefix — the gap between
/// the two is the quadratic term of prefill.
fn prefill_probe(model: &Model, samples: usize, out: &mut Metrics) {
    let mut rng = seeded(PROBE_SEED + 4);
    let long = prompt(&mut rng, model, PREFIX + CHUNK);
    let mut cache = model.new_batched_cache(SLOTS);
    let mut ws = Workspace::new();
    let mut chunk_us = |hook: &mut dyn GemmHook, prefix: usize, rng: &mut SeededRng| {
        cache.release_slot(0);
        if prefix > 0 {
            load_prefix(model, &mut cache, rng, prefix);
        }
        let chunk = [PrefillChunk {
            prompt: &long[..prefix + CHUNK],
            range: prefix..prefix + CHUNK,
            slot: 0,
        }];
        let us = timed_us(|| {
            model
                .prefill_chunks_batch_ws(&chunk, &mut cache, hook, &mut ws)
                .expect("probe chunk prefills");
        });
        ws.reset();
        us
    };
    let mut none = NoopHook;
    let mut statistical = protector(ProtectionScheme::StatisticalAbft);
    let mut classical = protector(ProtectionScheme::ClassicalAbft);
    let mut us = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    for _ in 0..samples {
        us[0].push(chunk_us(&mut none, 0, &mut rng));
        us[1].push(chunk_us(&mut statistical, 0, &mut rng));
        us[2].push(chunk_us(&mut classical, 0, &mut rng));
    }
    for _ in 0..samples.div_ceil(2) {
        us[3].push(chunk_us(&mut statistical, PREFIX, &mut rng));
    }
    let [none, statistical, classical, prefixed] = us.map(|s| q1(&s));
    out.push(("llm.prefill_chunk_us.ctx0".into(), statistical));
    out.push(("llm.prefill_chunk_us.ctx256".into(), prefixed));
    out.push((
        "core.protect_overhead_pct.prefill.statistical".into(),
        100.0 * (statistical / none - 1.0),
    ));
    out.push((
        "core.protect_overhead_pct.prefill.classical".into(),
        100.0 * (classical / none - 1.0),
    ));
}

/// `core.recover_us`: one classical-ABFT inspection of a corrupted decode-shape GEMM,
/// recovery (the recompute) included.
fn recover_probe(model: &Model, out: &mut Metrics) {
    let (h, f) = (model.config().hidden_size, model.config().ffn_size);
    let mut rng = seeded(PROBE_SEED + 5);
    let (w, x) = (random_i8(&mut rng, SLOTS, h), random_i8(&mut rng, h, f));
    let clean = model
        .engine()
        .gemm_i8_checksummed(&w, &x)
        .expect("probe shapes agree");
    let mut classical = protector(ProtectionScheme::ClassicalAbft);
    let ctx = GemmContext::new(Component::Gate, 0, Stage::Decode, 0);
    let samples: Vec<f64> = (0..128)
        .map(|_| {
            let mut faulty = clean.clone();
            faulty.acc_mut()[(0, 0)] ^= 1 << 24;
            timed_us(|| classical.on_gemm_checksummed(&ctx, &w, &x, &mut faulty))
        })
        .collect();
    assert_eq!(
        classical.stats().recoveries_triggered,
        samples.len() as u64,
        "every corrupted GEMM is recovered"
    );
    out.push(("core.recover_us".into(), q1(&samples)));
}

/// `net.`: the request parser and the wire codec, one call each.
fn net_probe(out: &mut Metrics) {
    let body = GenBody {
        prompt: (0..12).collect(),
        max_new_tokens: 32,
        priority: 0,
        policy: Default::default(),
    };
    let payload = encode_gen_body(&body);
    let request = format!(
        "POST /generate HTTP/1.1\r\nHost: realm\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{payload}",
        payload.len()
    );
    let event = TokenEvent::Token {
        id: 7,
        index: 11,
        token: 321,
        margin: 0.731,
    };
    let line = format_event(&event);
    let times = interleaved(
        512,
        &mut [
            &mut || {
                let mut parser = RequestParser::new();
                parser.feed(request.as_bytes());
                let parsed = parser
                    .take_request()
                    .expect("the probe request is well formed")
                    .expect("and complete");
                let text = std::str::from_utf8(&parsed.body).expect("form bodies are UTF-8");
                std::hint::black_box(parse_gen_body(text).expect("the probe body parses"));
            },
            &mut || {
                std::hint::black_box(format_event(&event));
            },
            &mut || {
                std::hint::black_box(parse_event(&line).expect("the probe line parses"));
            },
        ],
    );
    out.push(("net.parse_request_us".into(), times[0]));
    out.push(("net.encode_event_us".into(), times[1]));
    out.push(("net.decode_event_us".into(), times[2]));
}

/// The GEMMs of one forward pass and nothing else: per layer the seven checksummed linear
/// GEMMs at `rows` rows, and per query row and head the `QKᵀ` and `SV` GEMMs against
/// `visible(row)` resident positions. Returns lower-quartile µs.
fn gemm_only_us(
    model: &Model,
    rows: usize,
    visible: impl Fn(usize) -> usize,
    rounds: usize,
) -> f64 {
    let engine = model.engine();
    let config = model.config();
    let (heads, d) = (config.num_heads, config.head_dim());
    let mut rng = seeded(PROBE_SEED + 6);
    let linears: Vec<(MatI8, PackedMatI8)> = block_linears(model)
        .into_iter()
        .map(|(k, n, _)| {
            (
                random_i8(&mut rng, rows, k),
                PackedMatI8::pack(&random_i8(&mut rng, k, n)),
            )
        })
        .collect();
    let attention: Vec<[MatI8; 4]> = (0..rows)
        .map(|row| {
            let ctx = visible(row);
            [
                random_i8(&mut rng, 1, d),
                random_i8(&mut rng, d, ctx),
                random_i8(&mut rng, 1, ctx),
                random_i8(&mut rng, ctx, d),
            ]
        })
        .collect();
    let mut result = ChecksummedGemm::empty();
    let mut etw = Vec::new();
    let samples: Vec<f64> = (0..rounds)
        .map(|_| {
            timed_us(|| {
                for _ in 0..config.num_layers {
                    for (x, w) in &linears {
                        engine
                            .gemm_i8_packed_checksummed_into(x, w, &mut result, &mut etw)
                            .expect("probe shapes agree");
                    }
                    for [q, kt, s, v] in &attention {
                        for _ in 0..heads {
                            engine
                                .gemm_i8_checksummed_into(q, kt, &mut result, &mut etw)
                                .expect("probe shapes agree");
                            engine
                                .gemm_i8_checksummed_into(s, v, &mut result, &mut etw)
                                .expect("probe shapes agree");
                        }
                    }
                }
            })
        })
        .collect();
    q1(&samples)
}

/// Runs every probe against the serving model. `scale` shrinks sample counts (`--quick`).
pub fn run(model: &Model, scale: usize) -> Metrics {
    let scale = scale.max(1);
    let mut out = Metrics::new();
    tensor_probe(model, "decode", SLOTS, 400 / scale, &mut out);
    tensor_probe(model, "prefill", PREFILL_ROWS, 48 / scale, &mut out);
    abft_probe(model, &mut out);
    inject_probe(model, &mut out);
    decode_probe(model, 32 / scale, &mut out);
    prefill_probe(model, (4 / scale).max(2), &mut out);
    recover_probe(model, &mut out);
    net_probe(&mut out);

    // The share of a pass that is not GEMM: the pass as timed above against its GEMMs
    // alone. Decode steps ran at contexts 16..16+steps; the replay uses their midpoint.
    let lookup = |name: &str, out: &Metrics| {
        out.iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .expect("the probe above reported it")
    };
    let decode_ctx = 16 + 16 / scale;
    let decode_gemm = gemm_only_us(model, SLOTS, |_| decode_ctx, 24 / scale);
    let prefill_gemm = gemm_only_us(model, CHUNK, |row| row + 1, (6 / scale).max(2));
    out.push((
        "llm.non_gemm_share.decode".into(),
        1.0 - decode_gemm / lookup("llm.decode_step_us.b4", &out),
    ));
    out.push((
        "llm.non_gemm_share.prefill".into(),
        1.0 - prefill_gemm / lookup("llm.prefill_chunk_us.ctx0", &out),
    ));
    out
}
