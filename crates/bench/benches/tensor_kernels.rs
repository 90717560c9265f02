//! Raw kernel benchmarks: the MIPS decode (GEMV over the catalog) and the
//! top-k selection dominating SBR inference, plus softmax and GRU cells.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use etude_tensor::kernels;
use etude_tensor::topk::topk;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn random_vec(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

fn bench_decode_gemv(c: &mut Criterion) {
    let mut group = c.benchmark_group("decode_gemv");
    group.sample_size(10);
    for &catalog in &[10_000usize, 100_000, 1_000_000] {
        let d = (catalog as f64).powf(0.25).ceil() as usize;
        let table = random_vec(catalog * d, 1);
        let query = random_vec(d, 2);
        let mut out = vec![0.0f32; catalog];
        group.throughput(Throughput::Bytes((catalog * d * 4) as u64));
        group.bench_with_input(BenchmarkId::new("catalog", catalog), &(), |b, _| {
            b.iter(|| {
                kernels::matmul_bt(&query, &table, &mut out, 1, d, catalog);
                criterion::black_box(out[0])
            });
        });
    }
    group.finish();
}

fn bench_topk(c: &mut Criterion) {
    let mut group = c.benchmark_group("topk");
    for &catalog in &[100_000usize, 1_000_000] {
        let scores = random_vec(catalog, 3);
        group.throughput(Throughput::Elements(catalog as u64));
        group.bench_with_input(BenchmarkId::new("k21", catalog), &scores, |b, scores| {
            b.iter(|| criterion::black_box(topk(scores, 21).0[0]));
        });
    }
    group.finish();
}

fn bench_softmax_and_gru(c: &mut Criterion) {
    let mut group = c.benchmark_group("small_kernels");
    let x = random_vec(50 * 64, 4);
    let mut out = vec![0.0f32; 50 * 64];
    group.bench_function("softmax_rows_50x64", |b| {
        b.iter(|| {
            kernels::softmax_rows(&x, &mut out, 64);
            criterion::black_box(out[0])
        });
    });

    let hidden = 64;
    let input = 64;
    let xv = random_vec(input, 5);
    let h = random_vec(hidden, 6);
    let w_ih = random_vec(3 * hidden * input, 7);
    let w_hh = random_vec(3 * hidden * hidden, 8);
    let b_ih = vec![0.0f32; 3 * hidden];
    let b_hh = vec![0.0f32; 3 * hidden];
    let mut hout = vec![0.0f32; hidden];
    let mut scratch = vec![0.0f32; kernels::GRU_SCRATCH_PER_UNIT * hidden];
    group.bench_function("gru_cell_64", |b| {
        b.iter(|| {
            kernels::gru_cell(
                &xv,
                &h,
                &w_ih,
                &w_hh,
                &b_ih,
                &b_hh,
                &mut hout,
                hidden,
                input,
                &mut scratch,
            );
            criterion::black_box(hout[0])
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_decode_gemv,
    bench_topk,
    bench_softmax_and_gru
);
criterion_main!(benches);
