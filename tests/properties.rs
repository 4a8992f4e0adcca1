//! Cross-crate property-based tests: invariants that must hold for arbitrary operands, fault
//! patterns and sweep parameters.
//!
//! These were originally written with `proptest`; the offline build environment cannot fetch
//! it, so the same properties are exercised with deterministic seeded sampling: every case
//! draws its inputs from a `ChaCha8`-seeded RNG, so failures reproduce exactly.

use rand::Rng;
use realm::abft::detector::AbftDetector;
use realm::abft::{checksum, ApproxAbft, ClassicalAbft, CriticalRegion, StatisticalAbft};
use realm::inject::{error_model::ErrorModel, error_model::MagFreqModel, VoltageBerCurve};
use realm::systolic::{Dataflow, EnergyModel, SystolicArray};
use realm::tensor::engine::{ChecksummedGemm, GemmEngine, KernelEngine, ReferenceEngine};
use realm::tensor::rng::SeededRng;
use realm::tensor::{gemm, quant, rng, MatF32, MatI8, PackedMatI8, SimdTier};

const CASES: usize = 48;

fn arb_operands(r: &mut SeededRng, max_dim: usize) -> (MatI8, MatI8) {
    let m = r.gen_range(2..max_dim);
    let k = r.gen_range(2..max_dim);
    let n = r.gen_range(2..max_dim);
    let w = MatI8::from_fn(m, k, |_, _| r.gen_range(-60i8..=60));
    let x = MatI8::from_fn(k, n, |_, _| r.gen_range(-60i8..=60));
    (w, x)
}

/// Every construction of the SIMD microkernel backend, AVX2-dispatched and portable alike.
fn simd_engines() -> Vec<Box<dyn GemmEngine>> {
    vec![
        Box::new(KernelEngine::simd()),
        Box::new(KernelEngine::simd_with_tier(SimdTier::Portable)),
        Box::new(KernelEngine::simd().pooled()),
        Box::new(KernelEngine::simd_with_tier(SimdTier::Portable).pooled()),
        Box::new(KernelEngine::simd().with_workers(3)),
    ]
}

/// Asserts accumulator and fused checksums of every SIMD engine are bit-identical to the
/// scalar oracle on the given operands.
fn assert_simd_matches_reference(a: &MatI8, b: &MatI8, context: &str) {
    let oracle = ReferenceEngine.gemm_i8_checksummed_two_pass(a, b).unwrap();
    for engine in simd_engines() {
        assert_eq!(
            engine.gemm_i8(a, b).unwrap(),
            *oracle.acc(),
            "{} accumulator diverged: {context}",
            engine.name()
        );
        let fused = engine.gemm_i8_checksummed(a, b).unwrap();
        assert_eq!(
            fused.acc(),
            oracle.acc(),
            "{} checksummed accumulator diverged: {context}",
            engine.name()
        );
        assert_eq!(
            fused.expected(),
            oracle.expected(),
            "{} expected checksum diverged: {context}",
            engine.name()
        );
        assert_eq!(
            fused.observed(),
            oracle.observed(),
            "{} observed checksum diverged: {context}",
            engine.name()
        );
    }
}

/// The SIMD microkernel is bit-identical to the scalar oracle on random full-range
/// operands over shapes drawn to straddle every dispatch edge: depth pairs (odd/even `k`),
/// the 16-column SIMD width, the 4-row register tile, and the parallel-dispatch threshold.
#[test]
fn simd_backend_matches_reference_on_random_operands() {
    let mut r = rng::seeded(0xB1);
    for case in 0..CASES {
        let m = r.gen_range(1usize..40);
        let k = r.gen_range(1usize..70);
        let n = r.gen_range(1usize..70);
        let a = MatI8::from_fn(m, k, |_, _| r.gen_range(-128i16..=127) as i8);
        let b = MatI8::from_fn(k, n, |_, _| r.gen_range(-128i16..=127) as i8);
        assert_simd_matches_reference(&a, &b, &format!("case {case}: {m}x{k}x{n}"));
    }
}

/// Adversarial rail patterns: every operand element at an INT8 extreme, in the layouts
/// that break the `pmaddubsw` offset trick (`i8::MIN` pairs whose offset products saturate
/// i16) — the widening kernel must stay exact on all of them.
#[test]
fn simd_backend_is_exact_on_saturating_rail_patterns() {
    type FillFn = fn(usize, usize) -> i8;
    let fills: [(&str, FillFn); 5] = [
        ("all MIN", |_, _| i8::MIN),
        ("all MAX", |_, _| i8::MAX),
        ("column-alternating MIN/MAX", |_, c| {
            if c % 2 == 0 {
                i8::MIN
            } else {
                i8::MAX
            }
        }),
        ("row-alternating MIN/MAX", |r, _| {
            if r % 2 == 0 {
                i8::MIN
            } else {
                i8::MAX
            }
        }),
        ("checkerboard", |r, c| {
            if (r + c) % 2 == 0 {
                i8::MIN
            } else {
                i8::MAX
            }
        }),
    ];
    // Depths straddle the pair width (odd/even) and the shapes straddle the 16-column and
    // 4-row tile boundaries.
    for &(m, k, n) in &[(4, 64, 32), (5, 33, 17), (3, 2, 16), (7, 127, 48)] {
        for (name_a, fill_a) in fills {
            for (name_b, fill_b) in fills {
                let a = MatI8::from_fn(m, k, fill_a);
                let b = MatI8::from_fn(k, n, fill_b);
                assert_simd_matches_reference(
                    &a,
                    &b,
                    &format!("{m}x{k}x{n}, A = {name_a}, B = {name_b}"),
                );
            }
        }
    }
}

/// Depths that are not a multiple of the SIMD pair width (and widths not a multiple of the
/// 16-column tile) exercise the zero-padded depth tail and the partial final block.
#[test]
fn simd_backend_handles_non_multiple_simd_widths() {
    let mut r = rng::seeded(0xB2);
    for k in [1usize, 2, 3, 5, 15, 16, 17, 31, 32, 33, 63, 65] {
        for n in [1usize, 7, 15, 16, 17, 48, 49] {
            let m = r.gen_range(1usize..9);
            let a = MatI8::from_fn(m, k, |_, _| r.gen_range(-128i16..=127) as i8);
            let b = MatI8::from_fn(k, n, |_, _| r.gen_range(-128i16..=127) as i8);
            assert_simd_matches_reference(&a, &b, &format!("{m}x{k}x{n}"));
        }
    }
}

/// Degenerate 1×N and N×1 shapes (single-row activations, single-column projections) hit
/// the row-tail tiles and single-lane stores.
#[test]
fn simd_backend_handles_degenerate_vector_shapes() {
    let mut r = rng::seeded(0xB3);
    for &(m, k, n) in &[
        (1, 64, 300),
        (1, 1, 17),
        (300, 64, 1),
        (1, 257, 1),
        (2, 1, 1),
        (1, 16, 16),
    ] {
        let a = MatI8::from_fn(m, k, |_, _| r.gen_range(-128i16..=127) as i8);
        let b = MatI8::from_fn(k, n, |_, _| r.gen_range(-128i16..=127) as i8);
        assert_simd_matches_reference(&a, &b, &format!("{m}x{k}x{n}"));
    }
}

/// The checksum row on the vector tiers' pair stream, and the digit rows on the AMX tile
/// unit, are bit-exact on every tier the host grants, inline and pooled, over row-major and
/// packed `B`, on random shapes drawn across their edges: row counts around the AMX
/// crossover (32 × 32 × 32) and a 16-row tile, that split widened panels, 128-row AMX bands
/// and 256-row checksum bands; odd depths (the zero-padded final pair), depths around one
/// 64-depth AMX step, past a row-major AMX chunk (1024) and past the widening buffer's
/// capacity; widths that leave a partial block, one past the tiled routine's 256-column
/// panel; random codes and the INT8 rails.
#[test]
fn checksum_row_matches_reference_on_every_tier_packed_and_row_major() {
    let mut engines: Vec<Box<dyn GemmEngine>> = Vec::new();
    for tier in SimdTier::ALL {
        engines.push(Box::new(KernelEngine::simd_with_tier(tier)));
        engines.push(Box::new(KernelEngine::simd_with_tier(tier).with_workers(3)));
    }
    let mut r = rng::seeded(0xB4);
    let rows = [3, 5, 16, 17, 31, 32, 33, 127, 128, 129, 130, 256, 257, 300];
    let depths = [1, 31, 32, 33, 63, 64, 65, 224];
    // Each width once, on the cases ≡ 1 (mod 4); 641 on a 129-row one.
    let widths = [1, 15, 641, 16, 17, 31, 33, 224];
    for case in 0..32 {
        let m = rows[case % rows.len()];
        let k = match case % 4 {
            3 => r.gen_range(3300usize..3400),
            2 => r.gen_range(1025usize..1100),
            1 => depths[r.gen_range(0..depths.len())],
            _ => 2 * r.gen_range(1usize..40) + r.gen_range(0..2),
        };
        let n = if k > 3000 {
            r.gen_range(1usize..20)
        } else if case % 4 == 1 {
            widths[case / 4]
        } else {
            r.gen_range(1usize..70)
        };
        let (a, b) = match case % 7 {
            2 => (MatI8::filled(m, k, i8::MIN), MatI8::filled(k, n, i8::MIN)),
            3 => (MatI8::filled(m, k, i8::MAX), MatI8::filled(k, n, i8::MIN)),
            _ => (
                MatI8::from_fn(m, k, |_, _| r.gen_range(-128i16..=127) as i8),
                MatI8::from_fn(k, n, |_, _| r.gen_range(-128i16..=127) as i8),
            ),
        };
        let pb = PackedMatI8::pack(&b);
        let oracle = ReferenceEngine
            .gemm_i8_checksummed_two_pass(&a, &b)
            .unwrap();
        for engine in &engines {
            let context = format!("{} plain, case {case}: {m}x{k}x{n}", engine.name());
            assert_eq!(engine.gemm_i8(&a, &b).unwrap(), *oracle.acc(), "{context}");
            let mut out = realm::tensor::MatI32::zeros(0, 0);
            engine.gemm_i8_packed_into(&a, &pb, &mut out).unwrap();
            assert_eq!(&out, oracle.acc(), "packed {context}");
            let row_major = engine.gemm_i8_checksummed(&a, &b).unwrap();
            let mut packed = ChecksummedGemm::empty();
            let mut etw = Vec::new();
            engine
                .gemm_i8_packed_checksummed_into(&a, &pb, &mut packed, &mut etw)
                .unwrap();
            for (kind, got) in [("row-major", &row_major), ("packed", &packed)] {
                let context = format!("{} {kind}, case {case}: {m}x{k}x{n}", engine.name());
                assert_eq!(got.acc(), oracle.acc(), "{context}");
                assert_eq!(got.expected(), oracle.expected(), "{context}");
                assert_eq!(got.observed(), oracle.observed(), "{context}");
            }
        }
    }
}

/// Classical ABFT detects every single additive error, wherever it lands and whatever its
/// magnitude.
#[test]
fn classical_abft_detects_any_single_error() {
    let mut r = rng::seeded(0xA1);
    for _ in 0..CASES {
        let (w, x) = arb_operands(&mut r, 12);
        let mut acc = gemm::gemm_i8(&w, &x).unwrap();
        let row = r.gen_range(0..acc.rows());
        let col = r.gen_range(0..acc.cols());
        let bit = r.gen_range(0u8..31);
        acc[(row, col)] ^= 1 << bit;
        let verdict = ClassicalAbft::new().inspect(&w, &x, &acc);
        assert!(verdict.trigger_recovery, "bit {bit} at ({row}, {col})");
        assert!(verdict.errors_detected);
    }
}

/// The checksum identity holds for every fault-free GEMM: all deviations are zero.
#[test]
fn clean_gemms_have_zero_deviations() {
    let mut r = rng::seeded(0xA2);
    for _ in 0..CASES {
        let (w, x) = arb_operands(&mut r, 12);
        let acc = gemm::gemm_i8(&w, &x).unwrap();
        let deviations = checksum::column_deviations(&w, &x, &acc);
        assert!(deviations.iter().all(|&d| d == 0));
        assert_eq!(checksum::msd(&deviations), 0);
        assert!(!ClassicalAbft::new().inspect(&w, &x, &acc).trigger_recovery);
        assert!(
            !ApproxAbft::paper_default()
                .inspect(&w, &x, &acc)
                .trigger_recovery
        );
        assert!(
            !StatisticalAbft::resilient()
                .inspect(&w, &x, &acc)
                .trigger_recovery
        );
    }
}

/// The MSD reported by every detector equals the sum of the injected additive errors.
#[test]
fn msd_equals_sum_of_injected_errors() {
    let mut r = rng::seeded(0xA3);
    for _ in 0..CASES {
        let (w, x) = arb_operands(&mut r, 10);
        let mut acc = gemm::gemm_i8(&w, &x).unwrap();
        let mut expected_msd: i64 = 0;
        for _ in 0..r.gen_range(1..6) {
            let row = r.gen_range(0..acc.rows());
            let col = r.gen_range(0..acc.cols());
            let delta = r.gen_range(-1_000_000i64..1_000_000);
            acc[(row, col)] = acc[(row, col)].wrapping_add(delta as i32);
            expected_msd += delta;
        }
        let verdict = ApproxAbft::paper_default().inspect(&w, &x, &acc);
        assert_eq!(verdict.msd, expected_msd);
    }
}

/// The MagFreq error model produces exactly the MSD it promises.
#[test]
fn magfreq_model_msd_matches_definition() {
    let mut r = rng::seeded(0xA4);
    for _ in 0..CASES {
        let log2_mag = r.gen_range(4u32..24);
        let freq = r.gen_range(1usize..16);
        let seed = r.gen_range(0u64..1000);
        let model = MagFreqModel::new(1i64 << log2_mag, freq);
        let mut acc = realm::tensor::MatI32::zeros(16, 16);
        let mut trial_rng = rng::seeded(seed);
        let injected = model.corrupt(&mut trial_rng, &mut acc);
        assert_eq!(injected, freq.min(256));
        let sum: i64 = acc.iter().map(|&v| v as i64).sum();
        assert_eq!(sum, model.mag * injected as i64);
    }
}

/// Symmetric quantization round-trips within half a quantization step.
#[test]
fn quantization_roundtrip_error_is_bounded() {
    let mut r = rng::seeded(0xA5);
    for _ in 0..CASES {
        let cols = r.gen_range(4usize..64);
        let values: Vec<f32> = (0..cols).map(|_| r.gen_range(-100.0f32..100.0)).collect();
        let x = MatF32::from_vec(1, cols, values).unwrap();
        let (q, scale) = quant::quantize_symmetric(&x);
        let back = quant::dequantize(&q, scale);
        let bound = quant::max_quantization_error(scale) + 1e-5;
        for (a, b) in x.iter().zip(back.iter()) {
            assert!((a - b).abs() <= bound, "{} vs {} (bound {})", a, b, bound);
        }
    }
}

/// The statistical detector is monotone in its region, after quantization to the unit's
/// fixed-point formats too: raising θ_freq or the intercept `b` can only remove recoveries,
/// raising the slope `a` can only add them.
#[test]
fn statistical_detector_is_monotone_in_theta_freq() {
    let mut r = rng::seeded(0xA6);
    for _ in 0..CASES {
        let (w, x) = arb_operands(&mut r, 10);
        let mut acc = gemm::gemm_i8(&w, &x).unwrap();
        for _ in 0..r.gen_range(1..10) {
            let row = r.gen_range(0..acc.rows());
            let col = r.gen_range(0..acc.cols());
            let bit = r.gen_range(10u8..28);
            acc[(row, col)] ^= 1i32 << bit;
        }
        let theta_low = r.gen_range(0.0f64..3.0);
        let theta_gap = r.gen_range(0.5f64..4.0);
        let strict = StatisticalAbft::new(CriticalRegion::new(1.8, 26.0, theta_low));
        let relaxed = StatisticalAbft::new(CriticalRegion::new(1.8, 26.0, theta_low + theta_gap));
        let strict_verdict = strict.inspect(&w, &x, &acc);
        let relaxed_verdict = relaxed.inspect(&w, &x, &acc);
        assert!(
            !relaxed_verdict.trigger_recovery || strict_verdict.trigger_recovery,
            "relaxing θ_freq must never introduce a recovery"
        );

        // Gaps down to a fraction of the Q.12 / Q.6 steps the region is rounded to.
        let a = r.gen_range(1.01f64..2.5);
        let b = r.gen_range(8.0f64..30.0);
        let b_gap = r.gen_range(0.0f64..2.0).powi(4);
        let a_gap = r.gen_range(0.0f64..1.0).powi(4);
        let inspect =
            |a, b| StatisticalAbft::new(CriticalRegion::new(a, b, theta_low)).inspect(&w, &x, &acc);
        let (base, higher_b, higher_a) =
            (inspect(a, b), inspect(a, b + b_gap), inspect(a + a_gap, b));
        assert!(
            higher_b.effective_frequency <= base.effective_frequency
                && (!higher_b.trigger_recovery || base.trigger_recovery),
            "raising b ({b} + {b_gap}) must never count a deviation or add a recovery"
        );
        assert!(
            higher_a.effective_frequency >= base.effective_frequency
                && (higher_a.trigger_recovery || !base.trigger_recovery),
            "raising a ({a} + {a_gap}) must never drop a deviation or a recovery"
        );
    }
}

/// The voltage→BER curve is monotone (lower voltage, more errors) and its inverse is
/// consistent.
#[test]
fn voltage_ber_curve_is_monotone() {
    let mut r = rng::seeded(0xA7);
    for _ in 0..CASES {
        let v1 = r.gen_range(0.5f64..0.9);
        let dv = r.gen_range(0.001f64..0.3);
        let curve = VoltageBerCurve::default_14nm();
        let low = curve.ber_at(v1);
        let high = curve.ber_at(v1 + dv);
        assert!(low >= high);
        let v = curve.voltage_for_ber(low.max(1e-9));
        assert!(curve.ber_at(v) <= low.max(1e-9) * 1.0001);
    }
}

/// Energy accounting: recovery work only ever adds energy, and undervolting the main
/// computation never increases its energy.
#[test]
fn energy_model_is_monotone() {
    let mut r = rng::seeded(0xA8);
    for _ in 0..CASES {
        let macs = r.gen_range(1u64..10_000_000);
        let recovery_macs = r.gen_range(0u64..1_000_000);
        let voltage = r.gen_range(0.55f64..0.9);
        let model = EnergyModel::default_14nm();
        let base = model.compute_energy_j(macs, voltage);
        let nominal = model.compute_energy_j(macs, 0.9);
        assert!(base <= nominal + 1e-18);
        let with_recovery = model.workload_energy(&realm::systolic::energy::WorkloadSpec {
            macs,
            voltage,
            detection_power_fraction: 0.015,
            recovery_macs,
            recovery_voltage: 0.9,
        });
        assert!(with_recovery.total_j() >= base);
    }
}

/// GEMM scheduling covers all MACs regardless of shape and never reports zero cycles.
#[test]
fn systolic_schedule_is_consistent() {
    let mut r = rng::seeded(0xA9);
    for _ in 0..CASES {
        let m = r.gen_range(1usize..300);
        let k = r.gen_range(1usize..300);
        let n = r.gen_range(1usize..300);
        let array = SystolicArray::small(Dataflow::WeightStationary);
        let schedule = array.schedule_gemm(m, k, n);
        assert_eq!(schedule.macs, (m * k * n) as u64);
        assert!(schedule.cycles > 0);
        assert!(schedule.utilization(&array) <= 1.0 + 1e-9);
        let os = SystolicArray::small(Dataflow::OutputStationary).schedule_gemm(m, k, n);
        assert_eq!(os.macs, schedule.macs);
    }
}
