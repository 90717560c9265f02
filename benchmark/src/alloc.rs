//! A counting global allocator for the benchmark's own binaries.
//!
//! Counts are kept per thread, so a replay on one thread reads exact
//! numbers while server and profiler threads allocate beside it. A binary
//! opts in with `#[global_allocator] static A: Counting = Counting;`;
//! without that, [`thread_counts`] stays at zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator can never allocate or run after teardown.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

pub struct Counting;

fn note(size: usize) {
    // `try_with` because a thread may allocate while its locals are torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + size as u64));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` and `layout` come from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` through the methods above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// `(allocations, bytes requested)` made by the calling thread so far.
pub fn thread_counts() -> (u64, u64) {
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}
