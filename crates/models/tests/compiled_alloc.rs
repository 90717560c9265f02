//! The allocation ledger of a compiled request: after warm-up,
//! `recommend_compiled` allocates a small fixed number of times — the
//! session's input tensors, the output tensor and the recommendation —
//! and the same number on every model, because the plan runs the graph
//! on one reused arena instead of a fresh buffer per node. Before the
//! plan, the count grew with the graph: 242 (STAMP), 171 (SASRec) and
//! 1 590 (NARM) per request.
//!
//! Its own binary with a counting global allocator, and a single
//! `#[test]`, so no concurrently running test pollutes the count. The
//! allocator counts only the thread that runs the requests: the test
//! harness's main thread makes its own first allocations (the running
//! test's bookkeeping, its first blocking receive) just after it spawns
//! the test thread, and a descheduled main thread lands them inside the
//! measured window. At the gated shapes a request runs wholly on its
//! calling thread (every row count is below `pool::PAR_THRESHOLD`), so
//! that thread's count is the request's.

use etude_models::{traits, ModelConfig, ModelKind};
use etude_tensor::JitOptions;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the thread whose allocations are counted.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

/// Counts one allocation if the calling thread is the counted one.
fn count() {
    if COUNTED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

struct CountingAllocator;

// SAFETY: every call is forwarded unchanged to `System`; the counter
// and its const-initialised thread-local flag never allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as for `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations per request the compiled path may make.
const BUDGET: u64 = 16;

#[test]
fn compiled_requests_allocate_a_fixed_few_times_on_every_model() {
    COUNTED.with(|c| c.set(true));
    // The benchmark's gated shapes: STAMP at C = 10^3 and L = 8, SASRec
    // and NARM at C = 10^4 and L = 50.
    let shapes = [
        (ModelKind::Stamp, 1_000, 8),
        (ModelKind::SasRec, 10_000, 50),
        (ModelKind::Narm, 10_000, 50),
    ];
    let sessions: Vec<Vec<u32>> = (0..20u32)
        .map(|i| (0..1 + i % 9).map(|j| (i * 37 + j * 101) % 1_000).collect())
        .collect();
    let mut counts = Vec::new();
    for (kind, catalog, len) in shapes {
        let cfg = ModelConfig::new(catalog)
            .with_max_session_len(len)
            .with_top_k(21)
            .with_seed(7);
        let model = kind.build(&cfg);
        let compiled = traits::compile(model.as_ref(), JitOptions::default()).unwrap();
        let run = |session: &[u32]| {
            traits::recommend_compiled(model.as_ref(), &compiled, session).unwrap()
        };
        // Warm-up: the thread's arena and top-k state are sized here.
        for session in &sessions[..3] {
            run(session);
        }
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        for session in &sessions {
            std::hint::black_box(run(session));
        }
        let total = ALLOCATIONS.load(Ordering::SeqCst) - before;
        let per_request = total / sessions.len() as u64;
        assert_eq!(
            per_request * sessions.len() as u64,
            total,
            "{}: {total} allocations over {} requests is not a fixed count per request",
            kind.name(),
            sessions.len()
        );
        counts.push((kind.name(), per_request));
    }
    for &(name, n) in &counts {
        assert!(
            n <= BUDGET,
            "{name}: {n} allocations per request (budget {BUDGET}): {counts:?}"
        );
    }
    assert!(
        counts.windows(2).all(|w| w[0].1 == w[1].1),
        "allocations per request differ by model, so they still scale with the graph: {counts:?}"
    );
}
