//! Verifies the steady-state zero-allocation guarantee of the scratch
//! based index search paths: after warm-up, `search_into` and the
//! multi-query scan must not touch the heap at all — below the sharding
//! crossover and, on a two-thread pool, above it. A counting global
//! allocator makes the claim checkable rather than aspirational.
//!
//! The whole check lives in a single `#[test]` so no concurrently
//! running test pollutes the process-wide allocation counter.

use etude_models::retrieval::{ExactIndex, QuantizedIndex, SearchScratch};
use etude_tensor::pool;
use etude_tensor::topk::{score_topk_multi_into, TopkScratch};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_search_into_does_not_allocate() {
    // First use of the pool in this binary, so the request is honoured
    // (unless `ETUDE_THREADS` overrides it).
    pool::configure_threads(2);
    run_a_shard_on_every_pool_thread();
    // Serial scans, then C >= PAR_THRESHOLD: two shards on that pool.
    for c in [4_096, 40_000, pool::PAR_THRESHOLD + 4_096] {
        assert_steady_state_is_allocation_free(c);
    }
}

/// Whatever a pool thread pays once — starting up, its first wake, its
/// first shard — must be paid before the counted window, and a warm-up
/// loop cannot promise that: the submitting thread may claim every
/// shard of every warm-up search before a worker gets the CPU. This
/// section can only finish once as many distinct threads as the pool
/// has are each inside a shard.
fn run_a_shard_on_every_pool_thread() {
    let threads = pool::global().threads();
    let inside = AtomicUsize::new(0);
    pool::global().run_shards(threads, &|_| {
        inside.fetch_add(1, Ordering::SeqCst);
        while inside.load(Ordering::SeqCst) < threads {
            std::thread::yield_now();
        }
    });
}

fn assert_steady_state_is_allocation_free(c: usize) {
    let (d, k) = (16, 21);
    let mut rng = SmallRng::seed_from_u64(42);
    let table: Vec<f32> = (0..c * d).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let query: Vec<f32> = (0..d).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let exact = ExactIndex::new(table.clone(), c, d);
    let quant = QuantizedIndex::from_f32(&table, c, d);

    // Four queries for the multi-query scan; the first is `query`.
    let nq = 4;
    let mut queries = query.clone();
    queries.extend((d..nq * d).map(|_| rng.gen_range(-1.0f32..1.0)));

    let mut scratch = SearchScratch::default();
    let mut ids = Vec::new();
    let mut scores = Vec::new();
    let mut multi_scratch = TopkScratch::default();
    let mut multi = vec![(Vec::new(), Vec::new()); nq];
    let mut search_all = |ids: &mut Vec<u32>, scores: &mut Vec<f32>| {
        quant.search_into(&query, k, &mut scratch, ids, scores);
        exact.search_into(&query, k, &mut scratch, ids, scores);
        score_topk_multi_into(&table, &queries, nq, c, k, &mut multi_scratch, &mut multi);
    };

    // Warm-up: buffers grow to their steady-state capacity here.
    for _ in 0..3 {
        search_all(&mut ids, &mut scores);
    }
    let expected_ids = ids.clone();

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..40 {
        search_all(&mut ids, &mut scores);
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "steady state allocated {} times over 120 searches at C = {c}",
        after - before
    );
    assert_eq!(
        ids, expected_ids,
        "results must stay identical across reuse"
    );
    assert_eq!(ids.len(), k);
    assert_eq!(multi[0].0, ids, "query 0 of the batch is the single query");
}
