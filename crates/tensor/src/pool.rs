//! Persistent intra-op worker pool for sharded kernels.
//!
//! The full-catalog MIPS (`E·s` followed by top-k) is the latency
//! bottleneck of every SBR model, and it is embarrassingly parallel over
//! catalog rows. This module provides the process-wide, long-lived
//! thread pool those kernels shard onto:
//!
//! * workers are spawned **once** (first use) and parked on a crossbeam
//!   channel between requests — no per-request thread creation,
//! * work is dispatched as *scoped shard jobs*: the caller's borrowed
//!   closure runs on worker threads while the caller blocks (and itself
//!   executes shards), so no `'static` bound and no per-shard boxing,
//! * [`for_each_shard`] is the one place such a closure crosses threads
//!   with disjoint mutable state (one `&mut` slot per shard): every
//!   sharded kernel — the top-k scans, [`parallel_rows`] — is built on
//!   it and holds no `unsafe` of its own,
//! * steady-state dispatch performs **no heap allocation**: the wake
//!   channel holds at most one token per worker and the shared task
//!   slot is reused across requests.
//!
//! Sizing has two sources: `ETUDE_THREADS` (environment) takes
//! precedence, then [`configure_threads`] (tests, `fig3_micro
//! --threads`); absent both, `std::thread::available_parallelism`. A
//! pool of one thread degrades to plain serial execution with zero
//! synchronisation.
//!
//! The shard *policy* is [`auto_shards`] and nothing else; shard counts
//! are still independent of worker count, so sharded kernels are
//! testable for bit-identical results on any machine, including
//! single-core CI.

use crossbeam::channel::{bounded, Receiver, Sender};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Inputs smaller than this many rows/elements never shard. Waking a
/// parked worker costs 20–40 µs, which the fused scan now covers in
/// about 16 000 rows: `parallel_mips`' shard sweep (2 threads, d = 16)
/// has two shards losing up to 16 384 rows (35 → 46–53 µs), level at
/// 32 768 (76–93 → 70–73 µs) and winning from 65 536 on (167–192 →
/// 121–165 µs; 1.75× at C = 10^5, d = 18). DESIGN §12 has the table.
pub const PAR_THRESHOLD: usize = 65_536;

/// Minimum rows/elements per shard once an op does parallelise: the
/// break-even size above, so no shard is smaller than a scan that
/// would not have been worth a wake-up on its own.
pub const MIN_SHARD: usize = 32_768;

/// Upper bound on pool size; a guard against absurd `ETUDE_THREADS`.
const MAX_THREADS: usize = 256;

type ShardFn<'a> = &'a (dyn Fn(usize) + Sync);

/// The current parallel section, shared between the submitting thread
/// and the workers. `job` is a lifetime-erased borrow of the caller's
/// closure; the submitter clears it before `run_shards` returns, and
/// blocks until `completed == shards`, so workers never observe a
/// dangling closure.
struct TaskState {
    job: Option<ShardFn<'static>>,
    next_shard: usize,
    shards: usize,
    completed: usize,
    panicked: bool,
}

struct Shared {
    state: Mutex<TaskState>,
    done: Condvar,
}

/// Wake-up token delivered to parked workers.
enum Wake {
    Work,
    Shutdown,
}

/// A long-lived pool of `threads - 1` workers plus the submitting
/// thread itself.
pub struct ThreadPool {
    shared: std::sync::Arc<Shared>,
    wake_tx: Sender<Wake>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
    /// Serialises parallel sections: a second thread arriving while one
    /// is in flight falls back to inline serial execution instead of
    /// queueing (handler threads already provide request parallelism).
    submit: Mutex<()>,
}

impl ThreadPool {
    /// Builds a pool that executes shard jobs on `threads` threads in
    /// total (the submitter counts as one; `threads <= 1` spawns no
    /// workers and runs everything inline).
    pub fn new(threads: usize) -> ThreadPool {
        let threads = threads.clamp(1, MAX_THREADS);
        let shared = std::sync::Arc::new(Shared {
            state: Mutex::new(TaskState {
                job: None,
                next_shard: 0,
                shards: 0,
                completed: 0,
                panicked: false,
            }),
            done: Condvar::new(),
        });
        // One pending token per worker is all a section needs: a worker
        // that wakes claims shards until none remain, so dispatch
        // `try_send`s and a full queue means every worker already has a
        // wake-up coming. Unbounded, the queue grew (allocated) whenever
        // a descheduled worker let stale tokens pile up.
        let (wake_tx, wake_rx) = bounded::<Wake>(threads - 1);
        let mut workers = Vec::new();
        for i in 0..threads - 1 {
            let shared = std::sync::Arc::clone(&shared);
            let rx: Receiver<Wake> = wake_rx.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("etude-intraop-{i}"))
                    .spawn(move || run_worker(rx, shared))
                    .expect("spawn intra-op worker"),
            );
        }
        ThreadPool {
            shared,
            wake_tx,
            workers,
            threads,
            submit: Mutex::new(()),
        }
    }

    /// Total threads participating in parallel sections (workers + the
    /// submitting thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `job(shard)` for every `shard in 0..shards`, distributing
    /// shards over the pool; returns when all shards completed.
    ///
    /// The caller participates, so a one-thread pool is plain serial
    /// execution. Nested or concurrent calls degrade to inline serial
    /// execution rather than deadlocking. A panicking shard poisons the
    /// section: remaining shards still run (results are never observed),
    /// and the panic is re-raised on the calling thread.
    pub fn run_shards(&self, shards: usize, job: &(dyn Fn(usize) + Sync)) {
        if shards <= 1 || self.threads <= 1 {
            for s in 0..shards {
                job(s);
            }
            return;
        }
        let Ok(_submit) = self.submit.try_lock() else {
            // Another parallel section is in flight (or this is a nested
            // call from inside one): run inline.
            for s in 0..shards {
                job(s);
            }
            return;
        };

        // Erase the borrow lifetime so the shared slot can hold it. The
        // wait loop below keeps the referent alive until every shard is
        // done.
        let job_static: ShardFn<'static> = unsafe { std::mem::transmute(job) };
        {
            let mut st = self.shared.state.lock().expect("pool state");
            st.job = Some(job_static);
            st.next_shard = 0;
            st.shards = shards;
            st.completed = 0;
            st.panicked = false;
        }
        let wakes = (self.threads - 1).min(shards - 1);
        for _ in 0..wakes {
            let _ = self.wake_tx.try_send(Wake::Work);
        }

        run_claimed_shards(&self.shared);

        let mut st = self.shared.state.lock().expect("pool state");
        while st.completed < st.shards {
            st = self.shared.done.wait(st).expect("pool state");
        }
        st.job = None;
        let panicked = st.panicked;
        drop(st);
        if panicked {
            panic!("a shard job panicked inside pool::run_shards");
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        for _ in 0..self.workers.len() {
            let _ = self.wake_tx.send(Wake::Shutdown);
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Claims and executes shards of the current section until none remain.
fn run_claimed_shards(shared: &Shared) {
    loop {
        let (job, shard) = {
            let mut st = shared.state.lock().expect("pool state");
            let Some(job) = st.job else { return };
            if st.next_shard >= st.shards {
                return;
            }
            let shard = st.next_shard;
            st.next_shard += 1;
            (job, shard)
        };
        let result = catch_unwind(AssertUnwindSafe(|| job(shard)));
        let mut st = shared.state.lock().expect("pool state");
        st.completed += 1;
        if result.is_err() {
            st.panicked = true;
        }
        if st.completed >= st.shards {
            shared.done.notify_all();
        }
    }
}

fn run_worker(rx: Receiver<Wake>, shared: std::sync::Arc<Shared>) {
    loop {
        match rx.recv() {
            Ok(Wake::Work) => run_claimed_shards(&shared),
            Ok(Wake::Shutdown) | Err(_) => return,
        }
    }
}

// ----------------------------------------------------------------------
// Process-wide pool.
// ----------------------------------------------------------------------

static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
static CONFIGURED: AtomicUsize = AtomicUsize::new(0);

/// Requests a pool size before first use. `ETUDE_THREADS` still wins.
/// Returns the size the global pool will have (or already has — the
/// pool is built once and never resized).
pub fn configure_threads(threads: usize) -> usize {
    CONFIGURED.store(threads.clamp(1, MAX_THREADS), Ordering::SeqCst);
    match GLOBAL.get() {
        Some(pool) => pool.threads(),
        None => resolve_threads(),
    }
}

fn resolve_threads() -> usize {
    if let Ok(v) = std::env::var("ETUDE_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n.min(MAX_THREADS);
            }
        }
    }
    let configured = CONFIGURED.load(Ordering::SeqCst);
    if configured >= 1 {
        return configured;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(MAX_THREADS)
}

/// The process-wide pool, created on first use.
pub fn global() -> &'static ThreadPool {
    GLOBAL.get_or_init(|| ThreadPool::new(resolve_threads()))
}

/// Threads the global pool (would) run with, without forcing creation.
pub fn current_threads() -> usize {
    match GLOBAL.get() {
        Some(pool) => pool.threads(),
        None => resolve_threads(),
    }
}

// ----------------------------------------------------------------------
// Sharding helpers.
// ----------------------------------------------------------------------

/// Splits `0..n` into `parts` near-equal contiguous ranges (the first
/// `n % parts` ranges are one longer). Empty ranges never occur for
/// `parts <= n`.
pub fn shard_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.clamp(1, n.max(1));
    (0..parts).map(|p| shard_range(n, parts, p)).collect()
}

/// The `p`-th range of [`shard_ranges`]`(n, parts)`, without the `Vec`.
fn shard_range(n: usize, parts: usize, p: usize) -> Range<usize> {
    let (base, extra) = (n / parts, n % parts);
    let start = p * base + p.min(extra);
    start..start + base + usize::from(p < extra)
}

/// Shard count for an op over `n` rows/elements on `threads` threads:
/// `1` (serial) below [`PAR_THRESHOLD`], otherwise at most one shard per
/// thread with at least [`MIN_SHARD`] rows each.
pub fn shard_count(n: usize, threads: usize) -> usize {
    if n < PAR_THRESHOLD || threads <= 1 {
        1
    } else {
        threads.min(n / MIN_SHARD).max(1)
    }
}

/// The shard policy: thread-and-size-adaptive shard count against the
/// *global* pool. Returns `1` (serial) whenever the pool has one thread
/// or `n` is below the measured [`PAR_THRESHOLD`] crossover; otherwise
/// shards are sized to the pool width with at least [`MIN_SHARD`] rows
/// each.
pub fn auto_shards(n: usize) -> usize {
    if n < PAR_THRESHOLD {
        // Early out before consulting the pool: sub-crossover scans are
        // the serving steady state and must not re-resolve thread config
        // (which reads the environment — an allocation) per request.
        return 1;
    }
    shard_count(n, global().threads())
}

/// Raw base pointer that may cross threads; soundness comes from the
/// disjointness of the per-shard elements derived from it in
/// [`for_each_shard`]. The pointer is only reachable through
/// [`SendPtr::get`], so closures capture the `Sync` wrapper rather than
/// the raw pointer field.
struct SendPtr<T>(*mut T);
// SAFETY: the only field is a pointer into a `&mut [T]` that outlives the
// parallel section; other threads mutate the `T`s behind it, hence the
// `T: Send` bound, and no two threads are handed the same element.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: as above — sharing the wrapper shares only the base address.
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Splits `0..n` into one contiguous range per slot (as
/// [`shard_ranges`] does) and runs `f(range, &mut slot)` for each on the
/// global pool, returning when all are done: the one place a borrowed
/// closure crosses threads with disjoint mutable state. One slot runs
/// inline on the caller without touching (or creating) the pool, so
/// "serial" is simply the one-shard call; nothing here allocates.
pub fn for_each_shard<T, F>(n: usize, slots: &mut [T], f: F)
where
    T: Send,
    F: Fn(Range<usize>, &mut T) + Sync,
{
    if let [slot] = slots {
        return f(0..n, slot);
    }
    let parts = slots.len();
    let base = SendPtr(slots.as_mut_ptr());
    global().run_shards(parts, &|shard| {
        // SAFETY: `run_shards` hands out every index in `0..slots.len()`
        // exactly once, so each `&mut T` is the only reference to its
        // element; `slots` stays mutably borrowed until `run_shards` has
        // joined every shard.
        let slot = unsafe { &mut *base.get().add(shard) };
        f(shard_range(n, parts, shard), slot);
    });
}

/// Fills `out` (logically `rows x width`, row-major) by running
/// `fill(row_range, chunk)` over [`auto_shards`]`(rows)` row shards,
/// where `chunk` is exactly the rows of `row_range`.
pub fn parallel_rows<F>(out: &mut [f32], rows: usize, width: usize, fill: F)
where
    F: Fn(Range<usize>, &mut [f32]) + Sync,
{
    assert_eq!(out.len(), rows * width, "output/shape mismatch");
    let shards = auto_shards(rows);
    if shards == 1 {
        // Every small matmul comes through here: no `Vec` of chunks.
        return fill(0..rows, out);
    }
    let mut rest = out;
    let mut chunks: Vec<&mut [f32]> = (0..shards)
        .map(|p| {
            let len = shard_range(rows, shards, p).len() * width;
            let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(len);
            rest = tail;
            chunk
        })
        .collect();
    for_each_shard(rows, &mut chunks, |range, chunk| fill(range, chunk));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = ThreadPool::new(1);
        let hits = AtomicU32::new(0);
        pool.run_shards(5, &|_s| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn all_shards_run_exactly_once() {
        let pool = ThreadPool::new(4);
        for shards in [1usize, 2, 3, 7, 16, 33] {
            let hits: Vec<AtomicU32> = (0..shards).map(|_| AtomicU32::new(0)).collect();
            pool.run_shards(shards, &|s| {
                hits[s].fetch_add(1, Ordering::SeqCst);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
        }
    }

    #[test]
    fn pool_is_reusable_across_many_sections() {
        let pool = ThreadPool::new(3);
        let total = AtomicU32::new(0);
        for _ in 0..200 {
            pool.run_shards(6, &|_| {
                total.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(total.load(Ordering::SeqCst), 1200);
    }

    #[test]
    fn borrowed_state_is_visible_and_mutable_via_shards() {
        let pool = ThreadPool::new(4);
        let mut out = vec![0.0f32; 100];
        let ranges = shard_ranges(out.len(), 4);
        {
            let base = SendPtr(out.as_mut_ptr());
            let ranges = &ranges;
            pool.run_shards(4, &|s| {
                let r = ranges[s].clone();
                let chunk =
                    unsafe { std::slice::from_raw_parts_mut(base.get().add(r.start), r.len()) };
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v = (r.start + i) as f32;
                }
            });
        }
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as f32);
        }
    }

    #[test]
    fn shard_panics_propagate_to_the_caller() {
        let pool = ThreadPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_shards(4, &|s| {
                if s == 2 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // The pool survives a panicked section.
        let ok = AtomicU32::new(0);
        pool.run_shards(3, &|_| {
            ok.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ok.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn shard_ranges_cover_without_overlap() {
        for n in [0usize, 1, 7, 100, 1001] {
            for parts in [1usize, 2, 3, 8] {
                let ranges = shard_ranges(n, parts);
                let mut covered = 0;
                for r in &ranges {
                    assert_eq!(r.start, covered);
                    covered = r.end;
                }
                assert_eq!(covered, n);
            }
        }
    }

    #[test]
    fn shard_count_keeps_small_inputs_serial() {
        assert_eq!(shard_count(10_000, 8), 1);
        assert_eq!(shard_count(PAR_THRESHOLD, 8), PAR_THRESHOLD / MIN_SHARD);
        assert_eq!(shard_count(1_000_000, 8), 8);
        assert_eq!(shard_count(1_000_000, 1), 1);
    }

    #[test]
    fn nested_sections_run_inline_without_deadlock() {
        let pool = ThreadPool::new(2);
        let inner_hits = AtomicU32::new(0);
        pool.run_shards(2, &|_outer| {
            pool.run_shards(3, &|_inner| {
                inner_hits.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(inner_hits.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn parallel_rows_fills_every_row() {
        let rows = PAR_THRESHOLD + 100;
        let mut out = vec![0.0f32; rows * 2];
        parallel_rows(&mut out, rows, 2, |range, chunk| {
            for (i, row) in chunk.chunks_exact_mut(2).enumerate() {
                let r = (range.start + i) as f32;
                row[0] = r;
                row[1] = -r;
            }
        });
        for (i, row) in out.chunks_exact(2).enumerate() {
            assert_eq!(row[0], i as f32);
            assert_eq!(row[1], -(i as f32));
        }
    }
}
