//! Microbenchmarks of the ABFT detectors: the per-GEMM decision cost of classical ABFT,
//! ApproxABFT and the ReaLM statistical detector, plus the hardware statistical-unit model.
//! These quantify the (tiny) algorithmic cost of detection relative to the GEMM itself.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use realm_abft::statistical_unit::StatisticalUnit;
use realm_abft::{
    checksum, AbftDetector, ApproxAbft, ClassicalAbft, CriticalRegion, StatisticalAbft,
};
use realm_tensor::{gemm, rng, MatI32, MatI8};

fn corrupted_case(seed: u64, n: usize, errors: usize) -> (MatI8, MatI8, MatI32) {
    use rand::Rng;
    let mut r = rng::seeded(seed);
    let w = MatI8::from_fn(n, n, |_, _| r.gen_range(-60..=60));
    let x = MatI8::from_fn(n, n, |_, _| r.gen_range(-60..=60));
    let mut acc = gemm::gemm_i8(&w, &x).unwrap();
    for _ in 0..errors {
        let row = r.gen_range(0..n);
        let col = r.gen_range(0..n);
        let bit = r.gen_range(16..31);
        acc[(row, col)] ^= 1 << bit;
    }
    (w, x, acc)
}

fn bench_detectors(c: &mut Criterion) {
    let mut group = c.benchmark_group("abft_detectors");
    group.sample_size(30);
    for &n in &[64usize, 128] {
        let (w, x, acc) = corrupted_case(7, n, 3);
        let classical = ClassicalAbft::new();
        let approx = ApproxAbft::paper_default();
        let statistical = StatisticalAbft::resilient();
        group.bench_with_input(BenchmarkId::new("classical", n), &n, |b, _| {
            b.iter(|| classical.inspect(&w, &x, &acc));
        });
        group.bench_with_input(BenchmarkId::new("approx", n), &n, |b, _| {
            b.iter(|| approx.inspect(&w, &x, &acc));
        });
        group.bench_with_input(BenchmarkId::new("statistical", n), &n, |b, _| {
            b.iter(|| statistical.inspect(&w, &x, &acc));
        });
    }
    group.finish();
}

fn bench_checksum_math(c: &mut Criterion) {
    let mut group = c.benchmark_group("checksum_math");
    group.sample_size(30);
    let (w, x, acc) = corrupted_case(9, 128, 2);
    group.bench_function("column_deviations_128", |b| {
        b.iter(|| checksum::column_deviations(&w, &x, &acc));
    });
    let deviations = checksum::column_deviations(&w, &x, &acc);
    group.bench_function("statistical_decision_from_deviations", |b| {
        let detector = StatisticalAbft::resilient();
        b.iter(|| detector.evaluate(&deviations));
    });
    group.finish();
}

fn bench_statistical_unit(c: &mut Criterion) {
    let mut group = c.benchmark_group("statistical_unit");
    group.sample_size(30);
    let unit = StatisticalUnit::paper_256(CriticalRegion::resilient_default());
    let expected: Vec<i64> = (0..256).map(|i| (i as i64) * 1000 - 100_000).collect();
    let mut observed = expected.clone();
    observed[17] += 1 << 22;
    observed[200] -= 1 << 18;
    group.bench_function("process_256_columns", |b| {
        b.iter(|| unit.process(&observed, &expected));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_detectors,
    bench_checksum_math,
    bench_statistical_unit
);
criterion_main!(benches);
