//! Differential tests for the decode-shape speed tier: the packed-B entry points
//! (`gemm_i8_packed_into` / `gemm_i8_packed_checksummed_into`) must be bit-exact against
//! the scalar reference — on accumulators *and* on fused ABFT checksums — for every
//! backend, every SIMD dispatch tier the host grants, ragged and degenerate shapes and
//! saturated INT8 inputs. (End to end, `Reference`'s packed entry points multiply the
//! row-major original, so `backend_parity`'s whole-model Reference-vs-SIMD case is the
//! packed-vs-unpacked forward pass.)
//!
//! This is the guarantee that makes pre-packing a pure optimisation: `PackedMatI8` is a
//! relayout of the same integer operand, integer accumulation is order-invariant, and the
//! checksum row that carries the expected checksum on the packed pair stream changes not a
//! single bit of it. Under `REALM_FORCE_SCALAR=1` (the portable CI leg) the same
//! assertions pin the portable tier.

use rand::Rng;
use realm::tensor::engine::{
    ChecksummedGemm, EngineKind, GemmEngine, KernelEngine, ReferenceEngine,
};
use realm::tensor::{rng, MatI32, MatI8, PackedMatI8, SimdTier};
use std::sync::Arc;

/// Every backend registered in [`EngineKind::ALL`] plus every SIMD tier pinned explicitly,
/// so a host with AMX also differentially tests its clamped AVX-512, AVX2 and portable
/// kernels (and a host without simply re-tests the granted tier — `simd_with_tier` clamps,
/// never lies).
fn all_engines() -> Vec<Arc<dyn GemmEngine>> {
    let mut engines: Vec<Arc<dyn GemmEngine>> =
        EngineKind::ALL.iter().map(|kind| kind.build()).collect();
    for tier in SimdTier::ALL {
        engines.push(Arc::new(KernelEngine::simd_with_tier(tier)));
    }
    engines.push(Arc::new(KernelEngine::simd().with_workers(5)));
    engines
}

fn random_operands(seed: u64, m: usize, k: usize, n: usize) -> (MatI8, PackedMatI8) {
    let mut r = rng::seeded(seed);
    let a = MatI8::from_fn(m, k, |_, _| r.gen_range(-128i16..=127) as i8);
    let b = MatI8::from_fn(k, n, |_, _| r.gen_range(-128i16..=127) as i8);
    (a, PackedMatI8::from_mat(b))
}

/// Shapes chosen to land on every packed-kernel edge: each skinny row count (M = 1..=4),
/// the first non-skinny count (5) and larger M, depths off a whole quad (the zero-padded
/// last quad), column counts off the 16-wide tile (partial final block via the portable
/// delegate), 1×N / N×1 degenerates, and one shape past the parallel-dispatch threshold.
/// The AMX tier's edges: depths around its 64-deep step (3, 4, 63, 64, 65, and the
/// serving model's 160 and 448), widths around one and two blocks (15–17, 31, 33), and
/// row counts around a row tile (14 rows and the two digit rows fill one, 15–17 spill into
/// a second) and a 128-row checksum band (128, 129, 300).
const SHAPES: [(usize, usize, usize); 25] = [
    (1, 1, 1),
    (1, 3, 15),
    (4, 4, 16),
    (14, 63, 17),
    (15, 64, 31),
    (16, 65, 33),
    (17, 160, 16),
    (128, 448, 33),
    (129, 160, 17),
    (300, 65, 16),
    (1, 64, 48),
    (1, 37, 1),
    (1, 200, 300),
    (2, 63, 17),
    (3, 5, 16),
    (3, 128, 33),
    (4, 33, 16),
    (4, 96, 96),
    (5, 48, 31),
    (9, 1, 11),
    (9, 7, 130),
    (17, 23, 31),
    (65, 129, 257),
    (130, 64, 96),
    (301, 5, 1),
];

#[test]
fn packed_accumulators_bit_exact_across_backends_and_shapes() {
    for (i, &(m, k, n)) in SHAPES.iter().enumerate() {
        let (a, pb) = random_operands(4000 + i as u64, m, k, n);
        let oracle = ReferenceEngine.gemm_i8(&a, pb.unpacked()).unwrap();
        for engine in all_engines() {
            let mut out = MatI32::zeros(0, 0);
            engine.gemm_i8_packed_into(&a, &pb, &mut out).unwrap();
            assert_eq!(
                out,
                oracle,
                "{} packed diverged on {m}x{k}x{n}",
                engine.name()
            );
        }
    }
}

#[test]
fn packed_fused_checksums_bit_exact_across_backends_and_shapes() {
    for (i, &(m, k, n)) in SHAPES.iter().enumerate() {
        let (a, pb) = random_operands(5000 + i as u64, m, k, n);
        let oracle = ReferenceEngine
            .gemm_i8_checksummed_two_pass(&a, pb.unpacked())
            .unwrap();
        for engine in all_engines() {
            let mut dest = ChecksummedGemm::from_parts(MatI32::zeros(0, 0), Vec::new(), Vec::new());
            let mut etw = Vec::new();
            engine
                .gemm_i8_packed_checksummed_into(&a, &pb, &mut dest, &mut etw)
                .unwrap();
            assert_eq!(
                dest.acc(),
                oracle.acc(),
                "{} packed acc {m}x{k}x{n}",
                engine.name()
            );
            assert_eq!(
                dest.expected(),
                oracle.expected(),
                "{} packed expected checksum {m}x{k}x{n}",
                engine.name()
            );
            assert_eq!(
                dest.observed(),
                oracle.observed(),
                "{} packed observed checksum {m}x{k}x{n}",
                engine.name()
            );
        }
    }
}

#[test]
fn packed_path_matches_unpacked_path_exactly() {
    // Same engine, same operands, packed (static weights) vs unpacked (attention's
    // activation×activation GEMMs, recovery recompute) entry points — identical accumulators
    // and checksums.
    for (i, &(m, k, n)) in SHAPES.iter().enumerate() {
        let (a, pb) = random_operands(6000 + i as u64, m, k, n);
        for engine in all_engines() {
            let unpacked = engine.gemm_i8_checksummed(&a, pb.unpacked()).unwrap();
            let mut packed =
                ChecksummedGemm::from_parts(MatI32::zeros(0, 0), Vec::new(), Vec::new());
            let mut etw = Vec::new();
            engine
                .gemm_i8_packed_checksummed_into(&a, &pb, &mut packed, &mut etw)
                .unwrap();
            assert_eq!(packed.acc(), unpacked.acc(), "{}", engine.name());
            assert_eq!(packed.expected(), unpacked.expected(), "{}", engine.name());
            assert_eq!(packed.observed(), unpacked.observed(), "{}", engine.name());
        }
    }
}

#[test]
fn saturated_int8_inputs_stay_bit_exact_on_the_packed_path() {
    // Every element at an INT8 rail: the checksum row's i16 weights hit their extreme for
    // the row count (±m·128) and per-pair i32 partials approach the drain bound, so this
    // pins the widening arithmetic at its specified limits.
    for &(m, k, n) in &[(1, 511, 3), (2, 64, 64), (4, 257, 65), (33, 64, 48)] {
        for fill in [(127i8, 127i8), (-128, -128), (127, -128), (-128, 127)] {
            let a = MatI8::filled(m, k, fill.0);
            let pb = PackedMatI8::from_mat(MatI8::filled(k, n, fill.1));
            let oracle = ReferenceEngine
                .gemm_i8_checksummed_two_pass(&a, pb.unpacked())
                .unwrap();
            for engine in all_engines() {
                let mut dest =
                    ChecksummedGemm::from_parts(MatI32::zeros(0, 0), Vec::new(), Vec::new());
                let mut etw = Vec::new();
                engine
                    .gemm_i8_packed_checksummed_into(&a, &pb, &mut dest, &mut etw)
                    .unwrap();
                assert_eq!(dest.acc(), oracle.acc(), "{} fill {fill:?}", engine.name());
                assert_eq!(dest.expected(), oracle.expected(), "{}", engine.name());
                assert_eq!(dest.observed(), oracle.observed(), "{}", engine.name());
            }
        }
    }
}

/// Asserts every engine's packed checksummed GEMM of `a × b` matches the oracle, and that its
/// plain packed GEMM does too.
fn assert_packed_matches_oracle(label: &str, a: &MatI8, pb: &PackedMatI8) {
    let oracle = ReferenceEngine
        .gemm_i8_checksummed_two_pass(a, pb.unpacked())
        .unwrap();
    for engine in all_engines() {
        let mut out = MatI32::zeros(0, 0);
        engine.gemm_i8_packed_into(a, pb, &mut out).unwrap();
        assert_eq!(&out, oracle.acc(), "{} plain {label}", engine.name());
        let mut dest = ChecksummedGemm::empty();
        let mut etw = Vec::new();
        engine
            .gemm_i8_packed_checksummed_into(a, pb, &mut dest, &mut etw)
            .unwrap();
        assert_eq!(dest.acc(), oracle.acc(), "{} acc {label}", engine.name());
        assert_eq!(
            dest.expected(),
            oracle.expected(),
            "{} {label}",
            engine.name()
        );
        assert_eq!(
            dest.observed(),
            oracle.observed(),
            "{} {label}",
            engine.name()
        );
    }
}

#[test]
fn packed_checksum_row_bit_exact_across_bands_and_depth_chunks() {
    // The expected checksum of a packed GEMM is a checksum row on the pair stream, one per
    // panel of at most 256 rows (on a sharded engine, per panel of each row chunk, the
    // partials summed at join). Row counts that split panels and bands (128, 256, 257,
    // 300), odd depths (the zero-padded final pair) and depths past the widening buffer's
    // capacity (4001: several chunks) must all leave it bit-exact.
    for (i, &(m, k, n)) in [
        (5, 33, 48),
        (12, 4001, 32),
        (128, 161, 64),
        (256, 62, 48),
        (257, 47, 33),
        (300, 21, 16),
        (260, 4001, 16),
    ]
    .iter()
    .enumerate()
    {
        let (a, pb) = random_operands(9000 + i as u64, m, k, n);
        assert_packed_matches_oracle(&format!("{m}x{k}x{n}"), &a, &pb);
    }
}

#[test]
fn packed_checksum_row_is_exact_on_an_i8_min_band() {
    // 256 rows of i8::MIN put every lane of the band's checksum row at exactly i16::MIN,
    // shallow (one panel rides it) and deep (drains and depth chunks). On the AMX tier each
    // 128-row band's column sums sit at −16384, the lowest its two digits split.
    for &(m, k, n) in &[
        (256, 62, 48),
        (256, 601, 32),
        (256, 4001, 16),
        (128, 448, 33),
    ] {
        for fill in [i8::MIN, i8::MAX] {
            let a = MatI8::filled(m, k, i8::MIN);
            let pb = PackedMatI8::from_mat(MatI8::filled(k, n, fill));
            assert_packed_matches_oracle(&format!("{m}x{k}x{n} B = {fill}"), &a, &pb);
        }
    }
}

#[test]
fn reused_destination_is_fully_overwritten() {
    // Decode reuses one `ChecksummedGemm` across layers of different widths. A large fused
    // GEMM followed by a smaller packed one must leave no stale accumulator or checksum
    // lane visible through the public accessors.
    let (big_a, big_pb) = random_operands(7001, 9, 40, 200);
    let (small_a, small_pb) = random_operands(7002, 2, 24, 17);
    let oracle = ReferenceEngine
        .gemm_i8_checksummed_two_pass(&small_a, small_pb.unpacked())
        .unwrap();
    for engine in all_engines() {
        let mut dest = ChecksummedGemm::from_parts(MatI32::zeros(0, 0), Vec::new(), Vec::new());
        let mut etw = Vec::new();
        engine
            .gemm_i8_packed_checksummed_into(&big_a, &big_pb, &mut dest, &mut etw)
            .unwrap();
        engine
            .gemm_i8_packed_checksummed_into(&small_a, &small_pb, &mut dest, &mut etw)
            .unwrap();
        assert_eq!(dest.acc(), oracle.acc(), "{} stale acc", engine.name());
        assert_eq!(dest.expected(), oracle.expected(), "{}", engine.name());
        assert_eq!(dest.observed(), oracle.observed(), "{}", engine.name());
    }
}

#[test]
fn packed_shape_mismatch_is_rejected_before_any_write() {
    let (a, _) = random_operands(8000, 3, 10, 4);
    let (_, pb) = random_operands(8001, 3, 12, 4); // 12 != 10: incompatible inner dim
    for engine in all_engines() {
        let mut out = MatI32::zeros(0, 0);
        assert!(
            engine.gemm_i8_packed_into(&a, &pb, &mut out).is_err(),
            "{} accepted mismatched inner dimensions",
            engine.name()
        );
        let mut dest = ChecksummedGemm::from_parts(MatI32::zeros(0, 0), Vec::new(), Vec::new());
        let mut etw = Vec::new();
        assert!(
            engine
                .gemm_i8_packed_checksummed_into(&a, &pb, &mut dest, &mut etw)
                .is_err(),
            "{} accepted mismatched inner dimensions (checksummed)",
            engine.name()
        );
    }
}
