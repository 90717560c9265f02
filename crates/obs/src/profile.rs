//! Always-on cooperative sampling profiler.
//!
//! Wall-clock profilers answer *where a request's time went*; this
//! module answers *where the process's CPU attention went* — the
//! question the reactor rewrite raises (is the event loop busy polling,
//! copying, or running kernels?) and the one `perf` would answer if the
//! deployment allowed ptrace. It is cooperative: code declares what it
//! is doing with [`crate::profile_scope!`] guards that push a static tag
//! onto a per-thread frame stack, and a ticker thread samples every
//! registered stack into folded-stack counts — the input format of
//! Brendan Gregg's flamegraph tools, served at `/debug/profile`.
//!
//! The budget matches the span rings (PR 2): **zero steady-state heap
//! allocation** on every hot path — scope enter/exit, the sampler pass,
//! and the leaf-count snapshots the exemplar store takes per request.
//! One-time costs (site interning, thread registration, the fold table)
//! are paid at first use and proven off the steady state by the
//! counting-allocator test `tests/zero_alloc_profile.rs`.
//!
//! Concurrency model: each thread owns its frame stack and is the only
//! writer; the sampler reads through a seqlock (`seq` odd while a
//! push/pop is mutating the array). A torn read is detected and counted,
//! never mis-folded — acceptable for a statistical profiler, free for
//! the writers.

use parking_lot::Mutex;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Deepest scope nesting a sample can attribute exactly. Deeper guards
/// still balance (depth keeps counting) but frames past this are not
/// recorded; the sample is counted as truncated.
pub const MAX_DEPTH: usize = 16;

/// Distinct scope tags the leaf self-count table tracks. Sites past this
/// still fold into stacks; only their per-leaf self counts collapse into
/// the overflow bucket.
pub const MAX_TAGS: usize = 64;

/// Distinct stacks the preallocated fold table holds. Samples whose
/// stack finds no slot are counted as dropped, not silently lost.
pub const MAX_STACKS: usize = 512;

/// Default sampling interval of the ticker thread.
pub const DEFAULT_TICK: Duration = Duration::from_millis(1);

/// One `profile_scope!` call site: a static tag interned into a dense id
/// on first use (0 = not yet registered; registered sites hold
/// `index + 1`).
pub struct Site {
    name: &'static str,
    id: AtomicU32,
}

impl Site {
    /// Declares a call site (used by [`crate::profile_scope!`]).
    pub const fn new(name: &'static str) -> Site {
        Site {
            name,
            id: AtomicU32::new(0),
        }
    }

    /// The site's interned id, registering on first call (the one
    /// allocation this site will ever cause).
    pub fn id(&'static self) -> u32 {
        let v = self.id.load(Ordering::Acquire);
        if v != 0 {
            return v;
        }
        let state = global();
        let mut names = state.names.lock();
        // Double-checked under the lock: another thread may have won.
        let v = self.id.load(Ordering::Acquire);
        if v != 0 {
            return v;
        }
        names.push(self.name);
        let id = names.len() as u32;
        self.id.store(id, Ordering::Release);
        id
    }
}

/// One thread's scope stack, sampled through a seqlock.
struct ThreadFrames {
    /// Seqlock: odd while a push/pop is mutating `frames`/`depth`.
    seq: AtomicU32,
    /// Logical depth; may exceed [`MAX_DEPTH`] (frames past it are not
    /// stored, only counted).
    depth: AtomicU32,
    frames: [AtomicU32; MAX_DEPTH],
}

impl ThreadFrames {
    fn new() -> ThreadFrames {
        ThreadFrames {
            seq: AtomicU32::new(0),
            depth: AtomicU32::new(0),
            frames: std::array::from_fn(|_| AtomicU32::new(0)),
        }
    }

    fn push(&self, id: u32) {
        let d = self.depth.load(Ordering::Relaxed);
        if (d as usize) < MAX_DEPTH {
            let s = self.seq.load(Ordering::Relaxed);
            self.seq.store(s.wrapping_add(1), Ordering::Release);
            self.frames[d as usize].store(id, Ordering::Relaxed);
            self.depth.store(d + 1, Ordering::Relaxed);
            self.seq.store(s.wrapping_add(2), Ordering::Release);
        } else {
            self.depth.store(d + 1, Ordering::Relaxed);
        }
    }

    fn pop(&self) {
        let d = self.depth.load(Ordering::Relaxed);
        debug_assert!(d > 0, "scope pop without a push");
        if d as usize <= MAX_DEPTH {
            let s = self.seq.load(Ordering::Relaxed);
            self.seq.store(s.wrapping_add(1), Ordering::Release);
            self.depth.store(d.saturating_sub(1), Ordering::Relaxed);
            self.seq.store(s.wrapping_add(2), Ordering::Release);
        } else {
            self.depth.store(d - 1, Ordering::Relaxed);
        }
    }

    /// Snapshots the stack into `out`. Returns the captured depth
    /// (clamped to [`MAX_DEPTH`], with the raw depth second), or `None`
    /// when four consecutive reads tore.
    fn sample(&self, out: &mut [u32; MAX_DEPTH]) -> Option<(usize, u32)> {
        for _ in 0..4 {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let raw = self.depth.load(Ordering::Relaxed);
            let depth = (raw as usize).min(MAX_DEPTH);
            for (slot, frame) in out.iter_mut().zip(&self.frames).take(depth) {
                *slot = frame.load(Ordering::Relaxed);
            }
            std::sync::atomic::fence(Ordering::Acquire);
            if self.seq.load(Ordering::Relaxed) == s1 {
                return Some((depth, raw));
            }
        }
        None
    }
}

/// One folded stack and how often it was sampled.
#[derive(Clone)]
struct FoldEntry {
    depth: u8,
    frames: [u32; MAX_DEPTH],
    count: u64,
}

/// The preallocated fold table the sampler writes into.
struct FoldTable {
    entries: Vec<FoldEntry>,
    used: usize,
    /// Per-site *self* (leaf) sample counts, indexed by `site id - 1`.
    leaf: [u64; MAX_TAGS],
    /// Thread samples taken (idle + folded + torn + dropped).
    samples: u64,
    /// Samples of an empty stack (thread registered but idle).
    idle: u64,
    /// Samples lost to seqlock tears.
    torn: u64,
    /// Samples whose stack was deeper than [`MAX_DEPTH`].
    truncated: u64,
    /// Samples whose stack found no fold-table slot.
    dropped: u64,
    /// Leaf samples of sites past [`MAX_TAGS`].
    leaf_overflow: u64,
}

impl FoldTable {
    fn new() -> FoldTable {
        FoldTable {
            entries: vec![
                FoldEntry {
                    depth: 0,
                    frames: [0; MAX_DEPTH],
                    count: 0,
                };
                MAX_STACKS
            ],
            used: 0,
            leaf: [0; MAX_TAGS],
            samples: 0,
            idle: 0,
            torn: 0,
            truncated: 0,
            dropped: 0,
            leaf_overflow: 0,
        }
    }

    fn fold(&mut self, stack: &[u32; MAX_DEPTH], depth: usize) {
        let leaf_id = stack[depth - 1];
        match (leaf_id as usize).checked_sub(1) {
            Some(i) if i < MAX_TAGS => self.leaf[i] += 1,
            _ => self.leaf_overflow += 1,
        }
        for entry in self.entries[..self.used].iter_mut() {
            if entry.depth as usize == depth && entry.frames[..depth] == stack[..depth] {
                entry.count += 1;
                return;
            }
        }
        if self.used < MAX_STACKS {
            let entry = &mut self.entries[self.used];
            entry.depth = depth as u8;
            entry.frames[..depth].copy_from_slice(&stack[..depth]);
            entry.count = 1;
            self.used += 1;
        } else {
            self.dropped += 1;
        }
    }

    fn reset(&mut self) {
        self.used = 0;
        self.leaf = [0; MAX_TAGS];
        self.samples = 0;
        self.idle = 0;
        self.torn = 0;
        self.truncated = 0;
        self.dropped = 0;
        self.leaf_overflow = 0;
    }
}

/// Process-wide profiler state (one profiler per process, like a signal
/// handler — the profiled resource is the process's threads).
struct ProfilerState {
    /// Interned site names; site id `n` is `names[n - 1]`.
    names: Mutex<Vec<&'static str>>,
    threads: Mutex<Vec<Arc<ThreadFrames>>>,
    folds: Mutex<FoldTable>,
    enabled: AtomicBool,
    ticker: AtomicBool,
}

fn global() -> &'static ProfilerState {
    static STATE: OnceLock<ProfilerState> = OnceLock::new();
    STATE.get_or_init(|| ProfilerState {
        names: Mutex::new(Vec::new()),
        threads: Mutex::new(Vec::new()),
        folds: Mutex::new(FoldTable::new()),
        enabled: AtomicBool::new(true),
        ticker: AtomicBool::new(false),
    })
}

thread_local! {
    static FRAMES: RefCell<Option<Arc<ThreadFrames>>> = const { RefCell::new(None) };
}

/// Runs `f` with this thread's frame stack, registering it on first use
/// (the thread's one-time allocation). `None` during thread teardown.
fn with_frames<R>(f: impl FnOnce(&ThreadFrames) -> R) -> Option<R> {
    FRAMES
        .try_with(|cell| {
            let mut slot = cell.borrow_mut();
            if slot.is_none() {
                let frames = Arc::new(ThreadFrames::new());
                let state = global();
                let mut threads = state.threads.lock();
                // Prune stacks of dead threads (we hold their last Arc).
                threads.retain(|t| Arc::strong_count(t) > 1);
                threads.push(Arc::clone(&frames));
                *slot = Some(frames);
            }
            f(slot.as_ref().expect("registered above"))
        })
        .ok()
}

/// RAII guard of one profiled scope; pops the frame on drop.
pub struct ScopeGuard {
    active: bool,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if self.active {
            with_frames(|frames| frames.pop());
        }
    }
}

/// Enters a profiled scope for `site`. Prefer [`crate::profile_scope!`],
/// which declares the static site in place.
pub fn enter(site: &'static Site) -> ScopeGuard {
    if !global().enabled.load(Ordering::Relaxed) {
        return ScopeGuard { active: false };
    }
    let id = site.id();
    let active = with_frames(|frames| frames.push(id)).is_some();
    ScopeGuard { active }
}

/// Declares a static profile site and holds a scope guard for the rest
/// of the enclosing block:
///
/// ```
/// fn hot_kernel() {
///     etude_obs::profile_scope!("tensor::score_topk");
///     // ... the scan ...
/// }
/// ```
#[macro_export]
macro_rules! profile_scope {
    ($name:expr) => {
        static __ETUDE_PROFILE_SITE: $crate::profile::Site = $crate::profile::Site::new($name);
        let _etude_profile_guard = $crate::profile::enter(&__ETUDE_PROFILE_SITE);
    };
}

/// Turns sampling and scope recording on or off (on by default). Used
/// by `parallel_mips --smoke` to A/B the profiler's own overhead.
pub fn set_enabled(on: bool) {
    global().enabled.store(on, Ordering::Relaxed);
}

/// Whether the profiler is currently recording.
pub fn enabled() -> bool {
    global().enabled.load(Ordering::Relaxed)
}

/// Takes one sampling pass over every registered thread stack, folding
/// into the global table. Allocation-free; the ticker calls this every
/// tick, and tests call it directly to drive the exact steady-state
/// path.
pub fn sample_once() {
    let state = global();
    let mut threads = state.threads.lock();
    threads.retain(|t| Arc::strong_count(t) > 1);
    let mut folds = state.folds.lock();
    let mut stack = [0u32; MAX_DEPTH];
    for thread in threads.iter() {
        folds.samples += 1;
        match thread.sample(&mut stack) {
            Some((0, _)) => folds.idle += 1,
            Some((depth, raw)) => {
                if raw as usize > MAX_DEPTH {
                    folds.truncated += 1;
                }
                folds.fold(&stack, depth);
            }
            None => folds.torn += 1,
        }
    }
}

/// Starts the background sampling ticker (idempotent; the first caller's
/// `tick` wins). Returns whether this call started it.
pub fn start_ticker(tick: Duration) -> bool {
    let state = global();
    if state.ticker.swap(true, Ordering::SeqCst) {
        return false;
    }
    std::thread::Builder::new()
        .name("etude-profile-ticker".into())
        .spawn(move || loop {
            if global().enabled.load(Ordering::Relaxed) {
                sample_once();
            }
            std::thread::sleep(tick);
        })
        .expect("spawn profiler ticker");
    true
}

/// Copies the per-site leaf (self) sample counts into `out`, indexed by
/// `site id - 1`. Allocation-free — the exemplar store brackets each
/// request with two of these to attribute profiler attention to slow
/// requests.
pub fn leaf_snapshot(out: &mut [u64; MAX_TAGS]) {
    *out = global().folds.lock().leaf;
}

/// Resolves the site name of leaf index `i` (i.e. site id `i + 1`).
pub fn leaf_name(i: usize) -> Option<&'static str> {
    global().names.lock().get(i).copied()
}

/// Sampler health counters, for tests and the `/debug/profile` footer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfileStats {
    /// Thread samples taken (over all registered threads and ticks).
    pub samples: u64,
    /// Samples that found an empty stack.
    pub idle: u64,
    /// Samples lost to seqlock tears.
    pub torn: u64,
    /// Samples of stacks deeper than [`MAX_DEPTH`].
    pub truncated: u64,
    /// Samples whose stack found no fold-table slot.
    pub dropped: u64,
    /// Interned sites.
    pub sites: usize,
    /// Live registered threads.
    pub threads: usize,
}

/// Current sampler health counters.
pub fn stats() -> ProfileStats {
    let state = global();
    let folds = state.folds.lock();
    ProfileStats {
        samples: folds.samples,
        idle: folds.idle,
        torn: folds.torn,
        truncated: folds.truncated,
        dropped: folds.dropped,
        sites: state.names.lock().len(),
        threads: state.threads.lock().len(),
    }
}

/// Clears accumulated fold counts (sites and thread registrations
/// survive). For tests and the bench's A/B overhead cells; the profiler
/// is otherwise cumulative since process start.
pub fn reset() {
    global().folds.lock().reset();
}

/// Renders the accumulated samples as flamegraph *folded stacks*: one
/// `root;tag;...;leaf count` line per distinct stack, sorted, with the
/// caller-supplied root tag (conventionally carrying the process role
/// and `simd::isa_name()`). Idle samples render under `root;(idle)` so
/// the flame width reflects real thread attention. Allocation happens
/// here freely — this is the scrape path, not the hot path.
pub fn render_folded(root: &str) -> String {
    let state = global();
    let names = state.names.lock();
    let folds = state.folds.lock();
    let name_of = |id: u32| -> &str {
        names
            .get((id as usize).saturating_sub(1))
            .copied()
            .unwrap_or("(unknown)")
    };
    let mut lines: Vec<String> = folds.entries[..folds.used]
        .iter()
        .map(|e| {
            let mut line = String::with_capacity(64);
            line.push_str(root);
            for &id in &e.frames[..e.depth as usize] {
                line.push(';');
                line.push_str(name_of(id));
            }
            line.push(' ');
            line.push_str(&e.count.to_string());
            line
        })
        .collect();
    if folds.idle > 0 {
        lines.push(format!("{root};(idle) {}", folds.idle));
    }
    lines.sort_unstable();
    let mut out = lines.join("\n");
    if !out.is_empty() {
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // The profiler is process-global; tests share it. Each test uses
    // its own distinct tag names and asserts on those, never on totals,
    // and serialises its critical section on one lock so the
    // enabled-flag test cannot race another test's scope entry.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn scopes_fold_into_nested_stacks() {
        static OUTER: Site = Site::new("test::outer");
        static INNER: Site = Site::new("test::inner");
        let _lock = TEST_LOCK.lock();
        let _g = enter(&OUTER);
        {
            let _g2 = enter(&INNER);
            sample_once();
        }
        let folded = render_folded("unit");
        assert!(
            folded.contains("unit;test::outer;test::inner "),
            "folded output missing the nested stack:\n{folded}"
        );
    }

    #[test]
    fn leaf_counts_attribute_self_samples() {
        static LEAF: Site = Site::new("test::leaf_count");
        let _lock = TEST_LOCK.lock();
        let before = {
            let mut buf = [0u64; MAX_TAGS];
            leaf_snapshot(&mut buf);
            buf
        };
        let id = LEAF.id() as usize - 1;
        let _g = enter(&LEAF);
        sample_once();
        sample_once();
        let mut after = [0u64; MAX_TAGS];
        leaf_snapshot(&mut after);
        assert!(id < MAX_TAGS, "test site interned past the leaf table");
        // >= 2: the background ticker (if another test started it) may
        // have sampled this scope too.
        assert!(
            after[id] - before[id] >= 2,
            "both explicit samples must land on the leaf"
        );
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        static GATED: Site = Site::new("test::gated");
        let _lock = TEST_LOCK.lock();
        set_enabled(false);
        {
            let _g = enter(&GATED);
            sample_once();
        }
        set_enabled(true);
        let folded = render_folded("unit");
        assert!(
            !folded.contains("test::gated"),
            "disabled scope was sampled:\n{folded}"
        );
    }

    #[test]
    fn overdeep_stacks_balance_and_count_truncation() {
        static DEEP: Site = Site::new("test::deep");
        let _lock = TEST_LOCK.lock();
        let guards: Vec<ScopeGuard> = (0..MAX_DEPTH + 3).map(|_| enter(&DEEP)).collect();
        let before = stats().truncated;
        sample_once();
        assert!(stats().truncated > before, "deep stack not counted");
        drop(guards);
        // After unwinding, the same thread samples as idle or shallower
        // — no depth underflow, no stuck frames.
        sample_once();
        let folded = render_folded("unit");
        let deepest = folded
            .lines()
            .filter(|l| l.contains("test::deep"))
            .map(|l| l.matches("test::deep").count())
            .max()
            .unwrap_or(0);
        assert!(deepest <= MAX_DEPTH, "stack deeper than the clamp");
    }

    #[test]
    fn ticker_starts_once() {
        start_ticker(Duration::from_millis(5));
        assert!(!start_ticker(DEFAULT_TICK), "second start must be a no-op");
    }

    #[test]
    fn macro_declares_and_scopes() {
        fn tagged() {
            crate::profile_scope!("test::via_macro");
            sample_once();
        }
        let _lock = TEST_LOCK.lock();
        tagged();
        assert!(render_folded("unit").contains("test::via_macro"));
    }
}
