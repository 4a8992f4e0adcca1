//! Backend comparison for the quantized GEMM hot path: the scalar oracle vs the blocked
//! and SIMD kernels, each inline and over work-stealing row chunks.
//!
//! This is the committed evidence for `EngineKind::auto()`'s platform choice: `Parallel`
//! must beat `Reference` and `Simd` must beat `Blocked` by ≥1.8× (asserted by
//! `report_simd_speedup` whenever the AVX2 microkernel is dispatched) on the paper-scale
//! 256×256×256 INT8 GEMM. What the fused checksum pass and a fused inspection cost is
//! measured by the repo benchmark (`tensor.checksum_overhead_pct.*`, `abft.inspect_us.*`).
//! Run with `REALM_BENCH_JSON=<file> cargo bench --bench gemm_backends` and merge the rows
//! into the committed `BENCH_gemm.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::Rng;
use realm_tensor::engine::EngineKind;
use realm_tensor::simd::simd_dispatch_label;
use realm_tensor::{rng, MatI8};
use std::time::Instant;

fn random_i8(seed: u64, rows: usize, cols: usize) -> MatI8 {
    let mut r = rng::seeded(seed);
    MatI8::from_fn(rows, cols, |_, _| r.gen_range(-128i16..=127) as i8)
}

fn bench_backends(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_i8_backends");
    group.sample_size(15);
    for &n in &[64usize, 128, 256] {
        let a = random_i8(1, n, n);
        let b = random_i8(2, n, n);
        for kind in EngineKind::ALL {
            let engine = kind.build();
            group.bench_with_input(BenchmarkId::new(kind.label(), n), &n, |bencher, _| {
                bencher.iter(|| engine.gemm_i8(&a, &b).unwrap());
            });
        }
    }
    group.finish();
}

fn report_simd_speedup(_c: &mut Criterion) {
    // Not a timing benchmark: measures the SIMD microkernel against the blocked kernel at
    // the paper-scale 256³ GEMM and asserts the tentpole's >=1.8x contract whenever the
    // AVX2 path is dispatched. On hosts where the portable fallback runs, the measurement
    // still prints (so regressions stay visible) but the assert is skipped — the contract
    // is about the microkernel, not the autovectorizer's mood.
    let n = 256usize;
    let a = random_i8(9, n, n);
    let b = random_i8(10, n, n);
    let blocked = EngineKind::Blocked.build();
    let simd = EngineKind::Simd.build();
    let accelerated = realm_tensor::simd::simd_accelerated();
    let best_of = |engine: &std::sync::Arc<dyn realm_tensor::GemmEngine>| {
        for _ in 0..3 {
            engine.gemm_i8(&a, &b).unwrap();
        }
        let mut best = f64::INFINITY;
        for _ in 0..15 {
            let start = Instant::now();
            std::hint::black_box(engine.gemm_i8(&a, &b).unwrap());
            best = best.min(start.elapsed().as_secs_f64());
        }
        best
    };
    let blocked_s = best_of(&blocked);
    let simd_s = best_of(&simd);
    let speedup = blocked_s / simd_s;
    println!(
        "simd dispatch: {} — gemm_i8 256³: blocked {:.3} ms, simd {:.3} ms, {speedup:.2}x",
        simd_dispatch_label(),
        blocked_s * 1e3,
        simd_s * 1e3,
    );
    if accelerated {
        assert!(
            speedup >= 1.8,
            "AVX2 microkernel must deliver >=1.8x over the blocked kernel at 256³ \
             (got {speedup:.2}x)"
        );
    } else {
        println!("(>=1.8x assertion skipped: AVX2 path not dispatched on this run)");
    }
}

criterion_group!(benches, bench_backends, report_simd_speedup);
criterion_main!(benches);
