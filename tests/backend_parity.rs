//! Differential tests proving every `GemmEngine` backend bit-exact against the scalar
//! reference — on accumulators *and* on fused ABFT checksums — across ragged shapes,
//! saturated INT8 inputs and corrupted accumulators.
//!
//! These are the guarantees that make the backend pluggable: because every SIMD tier,
//! inline or pooled, reproduces `Reference` to the bit, swapping the engine of a model,
//! pipeline or recovery path can never change an experiment's numbers, only its wall-clock
//! time.

use rand::Rng;
use realm::abft::detector::AbftDetector;
use realm::abft::{checksum, ApproxAbft, ClassicalAbft, StatisticalAbft};
use realm::llm::{config::ModelConfig, model::Model, NoopHook};
use realm::tensor::engine::{EngineKind, GemmEngine, KernelEngine, ReferenceEngine};
use realm::tensor::{rng, MatI8, SimdTier};
use std::sync::Arc;

fn all_engines() -> Vec<Arc<dyn GemmEngine>> {
    // The pinned portable tier plus the host-detected dispatch, so both kernel paths are
    // differentially tested on every machine.
    let portable = KernelEngine::simd_with_tier(SimdTier::Portable);
    vec![
        Arc::new(ReferenceEngine),
        Arc::new(portable),
        Arc::new(portable.pooled()),
        Arc::new(portable.with_workers(5)),
        Arc::new(KernelEngine::simd()),
        Arc::new(KernelEngine::simd().pooled()),
        Arc::new(KernelEngine::simd().with_workers(5)),
    ]
}

fn random_operands(seed: u64, m: usize, k: usize, n: usize) -> (MatI8, MatI8) {
    let mut r = rng::seeded(seed);
    let a = MatI8::from_fn(m, k, |_, _| r.gen_range(-128i16..=127) as i8);
    let b = MatI8::from_fn(k, n, |_, _| r.gen_range(-128i16..=127) as i8);
    (a, b)
}

/// Ragged and degenerate shapes: single rows/columns/depth, sizes that are not multiples of
/// any tile dimension (including the SIMD kernel's depth-pair width and 16-column tile),
/// and shapes crossing the parallel-dispatch threshold.
const SHAPES: [(usize, usize, usize); 12] = [
    (1, 1, 1),
    (1, 37, 1),
    (9, 1, 11),
    (1, 200, 300),
    (301, 5, 1),
    (17, 23, 31),
    (64, 64, 64),
    (65, 129, 257),
    (128, 67, 255),
    (96, 512, 96),
    (5, 3, 16),
    (4, 16, 48),
];

#[test]
fn accumulators_bit_exact_across_backends_and_shapes() {
    for (i, &(m, k, n)) in SHAPES.iter().enumerate() {
        let (a, b) = random_operands(1000 + i as u64, m, k, n);
        let oracle = ReferenceEngine.gemm_i8(&a, &b).unwrap();
        for engine in all_engines() {
            let out = engine.gemm_i8(&a, &b).unwrap();
            assert_eq!(out, oracle, "{} diverged on {m}x{k}x{n}", engine.name());
        }
    }
}

#[test]
fn fused_checksums_bit_exact_across_backends_and_shapes() {
    for (i, &(m, k, n)) in SHAPES.iter().enumerate() {
        let (a, b) = random_operands(2000 + i as u64, m, k, n);
        let oracle = ReferenceEngine
            .gemm_i8_checksummed_two_pass(&a, &b)
            .unwrap();
        for engine in all_engines() {
            let fused = engine.gemm_i8_checksummed(&a, &b).unwrap();
            assert_eq!(
                fused.acc(),
                oracle.acc(),
                "{} acc {m}x{k}x{n}",
                engine.name()
            );
            assert_eq!(
                fused.expected(),
                oracle.expected(),
                "{} expected checksum {m}x{k}x{n}",
                engine.name()
            );
            assert_eq!(
                fused.observed(),
                oracle.observed(),
                "{} observed checksum {m}x{k}x{n}",
                engine.name()
            );
        }
    }
}

#[test]
fn saturated_int8_inputs_stay_bit_exact() {
    // Worst-case magnitudes: every element at an INT8 rail. Accumulators reach
    // ±127·128·k and checksums reach ~2^31 per column — exercising the full i32/i64 range
    // the kernels are specified over, with no overflow.
    for &(m, k, n) in &[(64, 64, 64), (33, 257, 65), (1, 511, 3)] {
        for fill in [(127i8, 127i8), (-128, -128), (127, -128), (-128, 127)] {
            let a = MatI8::filled(m, k, fill.0);
            let b = MatI8::filled(k, n, fill.1);
            let oracle = ReferenceEngine
                .gemm_i8_checksummed_two_pass(&a, &b)
                .unwrap();
            for engine in all_engines() {
                let fused = engine.gemm_i8_checksummed(&a, &b).unwrap();
                assert_eq!(fused.acc(), oracle.acc(), "{} fill {fill:?}", engine.name());
                assert_eq!(fused.expected(), oracle.expected(), "{}", engine.name());
                assert_eq!(fused.observed(), oracle.observed(), "{}", engine.name());
            }
        }
    }
}

#[test]
fn fused_path_matches_two_pass_checksum_functions_under_corruption() {
    // The acceptance contract of the fused engine path: identical column deviations and MSD
    // to the original `checksum.rs` free-function path, for clean and corrupted results.
    let mut r = rng::seeded(0xDEC0DE);
    for trial in 0..32 {
        let m = r.gen_range(2usize..24);
        let k = r.gen_range(2usize..48);
        let n = r.gen_range(2usize..24);
        let (w, x) = random_operands(3000 + trial, m, k, n);
        for engine in all_engines() {
            let mut fused = engine.gemm_i8_checksummed(&w, &x).unwrap();
            // Corrupt a handful of accumulator entries through the staleness-tracking path.
            for _ in 0..r.gen_range(0..4) {
                let row = r.gen_range(0..m);
                let col = r.gen_range(0..n);
                let bit = r.gen_range(0u8..31);
                fused.acc_mut()[(row, col)] ^= 1 << bit;
            }
            let old_dev = checksum::column_deviations(&w, &x, fused.acc());
            assert_eq!(fused.column_deviations(), old_dev, "{}", engine.name());
            assert_eq!(fused.msd(), checksum::msd(&old_dev), "{}", engine.name());
        }
    }
}

#[test]
fn detectors_agree_between_two_pass_and_checksummed_inspection() {
    let mut r = rng::seeded(0xAB_F7);
    let detectors: Vec<Box<dyn AbftDetector>> = vec![
        Box::new(ClassicalAbft::new()),
        Box::new(ApproxAbft::paper_default()),
        Box::new(StatisticalAbft::resilient()),
        Box::new(StatisticalAbft::sensitive()),
    ];
    for trial in 0..24 {
        let (w, x) = random_operands(4000 + trial, 16, 24, 16);
        for engine in all_engines() {
            let mut fused = engine.gemm_i8_checksummed(&w, &x).unwrap();
            for _ in 0..r.gen_range(1..6) {
                let row = r.gen_range(0..16);
                let col = r.gen_range(0..16);
                let bit = r.gen_range(8u8..31);
                fused.acc_mut()[(row, col)] ^= 1 << bit;
            }
            for detector in &detectors {
                let via_two_pass = detector.inspect(&w, &x, fused.acc());
                let via_fused = detector.inspect_checksummed(&fused);
                assert_eq!(
                    via_two_pass,
                    via_fused,
                    "{} under {}",
                    detector.name(),
                    engine.name()
                );
            }
        }
    }
}

#[test]
fn whole_forward_pass_is_backend_invariant() {
    // The end-to-end statement of the tentpole: a model forward pass produces identical
    // logits on every backend, so backend choice can never perturb an experiment.
    let prompt = [1u32, 5, 9, 3, 7, 2];
    let mut reference_logits = None;
    for kind in EngineKind::ALL {
        let mut config = ModelConfig::tiny_llama();
        config.engine = kind;
        let model = Model::new(&config, 77).unwrap();
        let (logits, _) = model.prefill(&prompt, &mut NoopHook).unwrap();
        match &reference_logits {
            None => reference_logits = Some(logits),
            Some(reference) => {
                assert_eq!(
                    &logits, reference,
                    "backend {kind} changed the forward pass"
                )
            }
        }
    }
}
