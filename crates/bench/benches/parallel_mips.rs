//! **parallel_mips** — Sharded catalog-scan MIPS benchmark.
//!
//! Sweeps catalog size C ∈ {10^3, 10^4, 10^5, 10^6} for the maximum-inner-product
//! search that dominates SBR inference (Section III of the paper), across
//! three implementations of the scoring scan:
//!
//! * `scalar` — the pre-SIMD autovectorised dot kernel scoring into a
//!   `[C]` buffer, then bounded-heap top-k (the seed baseline),
//! * `simd` — the explicit-width SIMD dot ([`etude_tensor::simd`]) with
//!   the same unfused score-then-select structure,
//! * `fused` — the streaming [`score_topk`](etude_tensor::topk) scan that
//!   keeps the running top-k in-register and never materialises the
//!   `[C]` score vector (the shipping [`ExactIndex`] hot path).
//!
//! The fused scan is swept over `nq ∈ {1, 2, 4, 8}` queries per pass on
//! one thread, each cell reported as computed GB/s (`C·d·4` bytes over
//! the call's time — the table is streamed once whatever `nq` is) next
//! to a one-thread read of the same table (`probe_gbps`, the ceiling
//! for that working set), and over shard counts {1, 2, 4, 8} at
//! `nq = 1` — the sweep [`pool::PAR_THRESHOLD`] is set from. The top-k
//! half is swept against the same shard counts plus the adaptive `auto`
//! policy ([`pool::auto_shards`]). The worker-thread count is
//! process-wide — set it with
//! `ETUDE_THREADS=N cargo bench -p etude-bench --bench parallel_mips`.
//!
//! Besides the usual console report, a machine-readable summary is
//! written to `results/BENCH_parallel_mips.json` with the active SIMD
//! backend and pool width in the header. Pass `-- --smoke` for a quick
//! run that skips the full sweep and writes no artifact: it checks the
//! fused scan bit for bit against the scalar reference, and asserts
//! that the fused scan is not slower than the autovectorised
//! scan-then-select at any (C, d) up to 10^5.

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use etude_models::retrieval::{ExactIndex, SearchScratch};
use etude_tensor::topk::{
    score_topk_into, score_topk_multi_sharded_into, topk, topk_auto, topk_into, topk_sharded,
    TopkScratch,
};
use etude_tensor::{kernels, pool, simd};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const CATALOGS: [usize; 4] = [1_000, 10_000, 100_000, 1_000_000];
const SHARDS: [usize; 4] = [1, 2, 4, 8];
const QUERIES: [usize; 4] = [1, 2, 4, 8];
const K: usize = 21;

fn random_vec(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

/// Embedding width heuristic used across the repo: d = ceil(C^(1/4)).
fn dim_for(catalog: usize) -> usize {
    (catalog as f64).powf(0.25).ceil() as usize
}

/// Unfused scan with a pluggable dot kernel: score into `scores`, then
/// select — the structure the fused path eliminates.
#[allow(clippy::too_many_arguments)]
fn scan_then_topk(
    table: &[f32],
    d: usize,
    query: &[f32],
    dot: fn(&[f32], &[f32]) -> f32,
    scores: &mut [f32],
    scratch: &mut TopkScratch,
    ids: &mut Vec<u32>,
    vals: &mut Vec<f32>,
) {
    for (r, s) in scores.iter_mut().enumerate() {
        *s = dot(&table[r * d..(r + 1) * d], query);
    }
    topk_into(scores, K, scratch, ids, vals);
}

fn bench_sharded_topk(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_mips/topk");
    group.sample_size(10);
    for &catalog in &CATALOGS {
        let scores = random_vec(catalog, 3);
        group.throughput(Throughput::Elements(catalog as u64));
        for &shards in &SHARDS {
            group.bench_with_input(
                BenchmarkId::new(format!("C{catalog}"), format!("shards{shards}")),
                &scores,
                |b, scores| {
                    b.iter(|| criterion::black_box(topk_sharded(scores, K, shards).0[0]));
                },
            );
        }
        group.bench_with_input(
            BenchmarkId::new(format!("C{catalog}"), "auto"),
            &scores,
            |b, scores| {
                b.iter(|| criterion::black_box(topk_auto(scores, K).0[0]));
            },
        );
    }
    group.finish();
}

fn bench_full_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_mips/search");
    group.sample_size(10);
    for &catalog in &CATALOGS {
        let d = dim_for(catalog);
        let table = random_vec(catalog * d, 1);
        let index = ExactIndex::new(table.clone(), catalog, d);
        let query = random_vec(d, 2);
        let mut scratch = SearchScratch::default();
        let mut topk_scratch = TopkScratch::default();
        let mut scores = vec![0.0f32; catalog];
        let mut ids = Vec::new();
        let mut vals = Vec::new();
        group.throughput(Throughput::Bytes((catalog * d * 4) as u64));
        group.bench_with_input(BenchmarkId::new("scalar/C", catalog), &(), |b, _| {
            b.iter(|| {
                scan_then_topk(
                    &table,
                    d,
                    &query,
                    kernels::dot_autovec,
                    &mut scores,
                    &mut topk_scratch,
                    &mut ids,
                    &mut vals,
                );
                criterion::black_box(ids[0])
            });
        });
        group.bench_with_input(BenchmarkId::new("simd/C", catalog), &(), |b, _| {
            b.iter(|| {
                scan_then_topk(
                    &table,
                    d,
                    &query,
                    kernels::dot,
                    &mut scores,
                    &mut topk_scratch,
                    &mut ids,
                    &mut vals,
                );
                criterion::black_box(ids[0])
            });
        });
        group.bench_with_input(BenchmarkId::new("fused/C", catalog), &(), |b, _| {
            b.iter(|| {
                index.search_into(&query, K, &mut scratch, &mut ids, &mut vals);
                criterion::black_box(ids[0])
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sharded_topk, bench_full_search);

/// Median wall-clock nanoseconds of `f` over `samples` timed runs.
fn median_ns<F: FnMut()>(samples: usize, mut f: F) -> u128 {
    f(); // warm-up
    let mut times: Vec<u128> = (0..samples.max(3))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// Timed samples per cell: more for the microsecond-sized catalogs,
/// where a single scheduler hiccup would otherwise be the median.
fn samples_for(catalog: usize) -> usize {
    (2_000_000 / catalog).clamp(9, 501)
}

/// One `(C, d)` cell's inputs: the table and [`QUERIES`]' worth of queries.
struct Fixture {
    catalog: usize,
    d: usize,
    table: Vec<f32>,
    queries: Vec<f32>,
}

impl Fixture {
    fn new(catalog: usize) -> Fixture {
        let d = dim_for(catalog);
        Fixture {
            catalog,
            d,
            table: random_vec(catalog * d, 1),
            queries: random_vec(QUERIES[QUERIES.len() - 1] * d, 2),
        }
    }

    /// Median time of one fused scan of `nq` queries over `shards` shards.
    fn fused_ns(&self, nq: usize, shards: usize) -> u128 {
        let mut scratch = TopkScratch::default();
        let mut out = vec![(Vec::new(), Vec::new()); nq];
        median_ns(samples_for(self.catalog), || {
            score_topk_multi_sharded_into(
                &self.table,
                &self.queries[..nq * self.d],
                nq,
                self.catalog,
                K,
                shards,
                &mut scratch,
                &mut out,
            );
            criterion::black_box(&out);
        })
    }

    /// Median time of the unfused scan-then-select with `dot`.
    fn unfused_ns(&self, dot: fn(&[f32], &[f32]) -> f32) -> u128 {
        let mut scores = vec![0.0f32; self.catalog];
        let mut scratch = TopkScratch::default();
        let (mut ids, mut vals) = (Vec::new(), Vec::new());
        median_ns(samples_for(self.catalog), || {
            scan_then_topk(
                &self.table,
                self.d,
                &self.queries[..self.d],
                dot,
                &mut scores,
                &mut scratch,
                &mut ids,
                &mut vals,
            );
            criterion::black_box(ids[0]);
        })
    }

    /// GB/s one thread reads this table at: the best of a few summing
    /// passes — the ceiling for a scan of the same working set.
    fn probe_gbps(&self) -> f64 {
        let mut best = 0.0f64;
        for _ in 0..samples_for(self.catalog).min(25) {
            let start = Instant::now();
            // Sixteen independent sums: the adds vectorise and the loop
            // is bound by loads, not by one dependency chain.
            let mut lanes = [0.0f32; 16];
            for chunk in criterion::black_box(&self.table[..]).chunks_exact(16) {
                for (lane, x) in lanes.iter_mut().zip(chunk) {
                    *lane += x;
                }
            }
            criterion::black_box(lanes);
            best = best.max(self.bytes() / start.elapsed().as_nanos() as f64);
        }
        best
    }

    fn bytes(&self) -> f64 {
        (self.catalog * self.d * 4) as f64
    }
}

/// Re-measures every sweep cell briefly and writes the JSON artifact the
/// results pipeline consumes.
fn write_summary() {
    let threads = pool::current_threads();
    let isa = simd::isa_name();
    let lanes = simd::lane_width();
    let mut cells = String::new();
    for &catalog in &CATALOGS {
        let d = dim_for(catalog);
        let scores = random_vec(catalog, 3);
        let serial_ns = median_ns(9, || {
            criterion::black_box(topk(&scores, K).0[0]);
        });
        for &shards in &SHARDS {
            let ns = median_ns(9, || {
                criterion::black_box(topk_sharded(&scores, K, shards).0[0]);
            });
            if !cells.is_empty() {
                cells.push_str(",\n");
            }
            cells.push_str(&format!(
                "    {{\"kernel\": \"topk\", \"catalog\": {catalog}, \"k\": {K}, \
                 \"shards\": {shards}, \"median_ns\": {ns}, \"serial_ns\": {serial_ns}}}"
            ));
        }
        // The adaptive policy degrades to the *same code path* as serial
        // when it picks one shard, so the serial measurement is reused
        // verbatim — by construction auto never loses to serial.
        let auto_shards = pool::auto_shards(catalog);
        let auto_ns = if auto_shards <= 1 {
            serial_ns
        } else {
            median_ns(9, || {
                criterion::black_box(topk_auto(&scores, K).0[0]);
            })
        };
        cells.push_str(&format!(
            ",\n    {{\"kernel\": \"topk\", \"catalog\": {catalog}, \"k\": {K}, \
             \"shards\": \"auto\", \"auto_shards\": {auto_shards}, \
             \"median_ns\": {auto_ns}, \"serial_ns\": {serial_ns}}}"
        ));

        let fx = Fixture::new(catalog);
        for (kernel, dot) in [
            (
                "exact_search_scalar",
                kernels::dot_autovec as fn(&[f32], &[f32]) -> f32,
            ),
            ("exact_search_simd", kernels::dot),
        ] {
            let ns = fx.unfused_ns(dot);
            cells.push_str(&format!(
                ",\n    {{\"kernel\": \"{kernel}\", \"catalog\": {catalog}, \"d\": {d}, \
                 \"k\": {K}, \"shards\": 1, \"median_ns\": {ns}}}"
            ));
        }
        let probe = fx.probe_gbps();
        for &nq in &QUERIES {
            let ns = fx.fused_ns(nq, 1);
            let gbps = fx.bytes() / ns as f64;
            cells.push_str(&format!(
                ",\n    {{\"kernel\": \"score_topk_fused\", \"catalog\": {catalog}, \"d\": {d}, \
                 \"k\": {K}, \"shards\": 1, \"nq\": {nq}, \"median_ns\": {ns}, \
                 \"per_query_ns\": {}, \"scan_gbps\": {gbps:.2}, \"probe_gbps\": {probe:.2}, \
                 \"pct_of_probe\": {:.1}}}",
                ns / nq as u128,
                100.0 * gbps / probe
            ));
        }
        for &shards in &SHARDS[1..] {
            let ns = fx.fused_ns(1, shards);
            cells.push_str(&format!(
                ",\n    {{\"kernel\": \"score_topk_fused\", \"catalog\": {catalog}, \"d\": {d}, \
                 \"k\": {K}, \"shards\": {shards}, \"nq\": 1, \"median_ns\": {ns}}}"
            ));
        }
    }
    let json = format!(
        "{{\n  \"bench\": \"parallel_mips\",\n  \"cpu_threads\": {threads},\n  \
         \"simd_isa\": \"{isa}\",\n  \"simd_lanes\": {lanes},\n  \
         \"cells\": [\n{cells}\n  ]\n}}\n"
    );
    println!();
    etude_bench::write_result("parallel_mips", false, &json);
}

/// `--smoke`: the fused scan's bit-for-bit cross-check against the
/// unfused scalar reference, and ROADMAP item 3's exit criterion — at
/// no swept (C, d) is the fused SIMD scan slower than the
/// autovectorised scan-then-select it replaced. No JSON artifact. Used
/// by `scripts/verify.sh`.
fn smoke() {
    for &catalog in &CATALOGS[..3] {
        let fx = Fixture::new(catalog);
        let (d, query) = (fx.d, &fx.queries[..fx.d]);
        let mut scores = vec![0.0f32; catalog];
        let mut scratch = TopkScratch::default();
        let (mut rids, mut rvals) = (Vec::new(), Vec::new());
        scan_then_topk(
            &fx.table,
            d,
            query,
            simd::dot_scalar_ref,
            &mut scores,
            &mut scratch,
            &mut rids,
            &mut rvals,
        );
        let index = ExactIndex::new(fx.table.clone(), catalog, d);
        let (mut ids, mut vals) = (Vec::new(), Vec::new());
        index.search_into(query, K, &mut SearchScratch::default(), &mut ids, &mut vals);
        assert_eq!(ids, rids, "fused ids must match the scalar reference");
        assert_eq!(vals, rvals, "fused scores must match the scalar reference");
        score_topk_into(
            &fx.table,
            query,
            catalog,
            K,
            &mut scratch,
            &mut ids,
            &mut vals,
        );
        assert_eq!(ids, rids, "score_topk_into must match the reference");
        let (fused, scalar) = (fx.fused_ns(1, 1), fx.unfused_ns(kernels::dot_autovec));
        println!(
            "smoke ok: C={catalog} d={d} k={K} fused {fused} ns ({:.1} GB/s of a {:.1} GB/s \
             probe) vs autovectorised scan-then-select {scalar} ns; {} / {} lanes, ids \
             bit-identical to scalar reference",
            fx.bytes() / fused as f64,
            fx.probe_gbps(),
            simd::isa_name(),
            simd::lane_width(),
        );
        assert!(
            fused <= scalar,
            "fused SIMD scan ({fused} ns) loses to the scalar scan ({scalar} ns) at C={catalog} d={d}"
        );
    }
}

fn main() {
    println!(
        "intra-op kernel threads: {} | simd backend: {} ({} lanes)",
        pool::current_threads(),
        simd::isa_name(),
        simd::lane_width(),
    );
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    benches();
    write_summary();
}
