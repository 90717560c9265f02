//! Proves the overhead budget of the request-path telemetry: after the
//! first span registers a thread's ring, recording spans with
//! `Recorder::record` (what the serving path calls) and offering
//! slow-request exemplars perform **zero** heap allocations. A counting
//! global allocator makes the claim checkable rather than aspirational
//! (same technique as the models crate's `zero_alloc` retrieval test).
//!
//! Allocations are counted **per thread** — a process-wide count would
//! also bill allocations made concurrently by the libtest harness thread
//! to the hot path and flake under load.

use etude_obs::{ExemplarStore, Recorder, Stage};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

thread_local! {
    // const-initialised so reading it never allocates (a lazy initialiser
    // would recurse into the allocator).
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn thread_allocations() -> u64 {
    THREAD_ALLOCATIONS.with(|c| c.get())
}

struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // try_with: TLS may be unavailable during thread teardown.
        let _ = THREAD_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = THREAD_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_span_recording_does_not_allocate() {
    let recorder = Recorder::new();

    // Warm-up: the first span registers this thread's ring (one-time
    // allocation, off the steady-state path by design).
    for i in 0..3 {
        recorder.record(i, Stage::Parse, 100);
        recorder.record(i, Stage::Inference, 400);
    }
    recorder.sync();

    let before = thread_allocations();
    for i in 0..10_000u64 {
        recorder.record(i, Stage::Parse, 120);
        recorder.record(i, Stage::Queue, 2_000);
        recorder.record(i, Stage::Inference, 400);
        recorder.record(i, Stage::TopK, 800);
        recorder.record(i, Stage::Serialize, 60);
        recorder.record(i, Stage::Total, 3_500);
        if i % 64 == 0 {
            // Drain into the cumulative aggregate: the fold must not
            // allocate either.
            recorder.sync();
        }
    }
    let after = thread_allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state span recording allocated {} times over 60,000 spans",
        after - before
    );

    // Everything recorded above must be visible to aggregation (the ring
    // lapped — that is fine and accounted, not silently lost).
    let snap = recorder.snapshot();
    let counted: u64 = snap.stages.iter().map(|s| s.count).sum();
    assert_eq!(counted + snap.dropped, 60_006, "60,000 + 6 warm-up spans");
}

const STAGES: [(Stage, u64); 6] = [
    (Stage::Parse, 10_000),
    (Stage::Queue, 50_000),
    (Stage::Inference, 400_000),
    (Stage::TopK, 90_000),
    (Stage::Serialize, 8_000),
    (Stage::Total, 560_000),
];

#[test]
fn steady_state_exemplar_offers_do_not_allocate() {
    let store = ExemplarStore::with_window(Duration::from_secs(10));

    // Warm-up: fills every exemplar slot, so the measured loop exercises
    // only the steady-state displacement path.
    for i in 0..32u64 {
        store.offer("req-0123456789abcdef", &STAGES, 1_000 + i);
    }

    let before = thread_allocations();
    for i in 32..10_032u64 {
        // Monotonically slower requests keep winning slots, so every
        // offer takes the full displacement + copy path.
        store.offer("req-0123456789abcdef", &STAGES, 1_000 + i);
    }
    let after = thread_allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state exemplar offers allocated {} times over 10,000 offers",
        after - before
    );

    // The offers above must actually have been retained, not elided.
    assert!(!store.snapshot().is_empty(), "exemplars were retained");
}
