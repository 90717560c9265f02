//! Runtime evaluation of a [`FaultPlan`].
//!
//! A [`FaultInjector`] answers "does this fault fire for this request,
//! now?" for every decision point in the stack. Two properties matter:
//!
//! 1. **Determinism under concurrency.** Probabilistic draws are *not*
//!    pulled from a shared RNG stream — worker threads would race on the
//!    draw order. Instead each draw is a pure hash of
//!    `(plan seed, correlation id, window index)`, so the decision for a
//!    given request is the same no matter which thread asks or when.
//! 2. **Dual clocks.** The discrete-event simulator runs on virtual
//!    time while `rustserver` runs on wall time, so every decision
//!    method takes an explicit `elapsed` duration; wall-clock callers
//!    use [`FaultInjector::elapsed`] for it.
//!
//! Fired faults are tallied in shared [`FaultCounters`] so tests and
//! `/stats` can assert on exactly how much chaos was delivered.

use crate::plan::{FaultKind, FaultPlan};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Counts of faults actually fired, shared across threads.
#[derive(Debug, Default)]
pub struct FaultCounters {
    spikes: AtomicU64,
    drops: AtomicU64,
    slowdowns: AtomicU64,
    errors: AtomicU64,
    resets: AtomicU64,
    crashes: AtomicU64,
}

impl FaultCounters {
    /// Latency spikes applied to messages.
    pub fn spikes(&self) -> u64 {
        self.spikes.load(Ordering::Relaxed)
    }

    /// Messages dropped (including partition losses).
    pub fn drops(&self) -> u64 {
        self.drops.load(Ordering::Relaxed)
    }

    /// Server-side slow-downs applied to requests.
    pub fn slowdowns(&self) -> u64 {
        self.slowdowns.load(Ordering::Relaxed)
    }

    /// Injected error responses.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Mid-response connection resets.
    pub fn resets(&self) -> u64 {
        self.resets.load(Ordering::Relaxed)
    }

    /// Pod crash windows entered.
    pub fn crashes(&self) -> u64 {
        self.crashes.load(Ordering::Relaxed)
    }

    /// Sum of every fault fired.
    pub fn total(&self) -> u64 {
        self.spikes()
            + self.drops()
            + self.slowdowns()
            + self.errors()
            + self.resets()
            + self.crashes()
    }
}

/// SplitMix64 finalizer: a strong, cheap 64-bit mixer.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` as a pure function of its inputs — the
/// same `(seed, id, salt)` triple always draws the same value, on any
/// thread, in any order.
fn unit_draw(seed: u64, id: u64, salt: u64) -> f64 {
    let h = splitmix64(seed ^ splitmix64(id ^ splitmix64(salt)));
    // 53 mantissa bits -> exact double in [0, 1).
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Evaluates a [`FaultPlan`] at runtime. Cheap to clone; clones share
/// the same counters and run-start anchor.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: Arc<FaultPlan>,
    start: Instant,
    counters: Arc<FaultCounters>,
}

impl FaultInjector {
    /// Builds an injector anchored at "now" for wall-clock callers.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            plan: Arc::new(plan),
            start: Instant::now(),
            counters: Arc::new(FaultCounters::default()),
        }
    }

    /// An injector for a calm plan: never fires anything.
    pub fn calm() -> FaultInjector {
        FaultInjector::new(FaultPlan::calm())
    }

    /// The plan being evaluated.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The shared fault tallies.
    pub fn counters(&self) -> Arc<FaultCounters> {
        Arc::clone(&self.counters)
    }

    /// Wall-clock elapsed time since the injector was built; the
    /// `elapsed` argument real-time callers pass to decision methods.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Per-window probability check, keyed so each window decides
    /// independently for the same request.
    fn fires(&self, prob: f64, id: u64, window_idx: usize) -> bool {
        prob > 0.0 && unit_draw(self.plan.seed, id, window_idx as u64) < prob
    }

    /// Extra link latency to add to a message sent at `elapsed`.
    /// Sums every active [`FaultKind::LatencySpike`] window.
    pub fn latency_extra(&self, elapsed: Duration) -> Duration {
        let mut extra = Duration::ZERO;
        for w in self.plan.active_at(elapsed) {
            if let FaultKind::LatencySpike { extra_us } = w.kind {
                extra += Duration::from_micros(extra_us);
            }
        }
        if !extra.is_zero() {
            self.counters.spikes.fetch_add(1, Ordering::Relaxed);
        }
        extra
    }

    /// Whether a message with correlation id `id` sent at `elapsed` is
    /// lost. Partitions drop everything; [`FaultKind::Drop`] windows
    /// draw per-message.
    pub fn drops_message(&self, elapsed: Duration, id: u64) -> bool {
        for (idx, w) in self.plan.windows.iter().enumerate() {
            if !w.active_at(elapsed) {
                continue;
            }
            let hit = match w.kind {
                FaultKind::Partition => true,
                FaultKind::Drop { prob } => self.fires(prob, id, idx),
                _ => false,
            };
            if hit {
                self.counters.drops.fetch_add(1, Ordering::Relaxed);
                return true;
            }
        }
        false
    }

    /// Server-side stall to apply to a request arriving at `elapsed`.
    /// Sums every active [`FaultKind::SlowDown`] window.
    pub fn slowdown(&self, elapsed: Duration) -> Duration {
        let mut extra = Duration::ZERO;
        for w in self.plan.active_at(elapsed) {
            if let FaultKind::SlowDown { extra_us } = w.kind {
                extra += Duration::from_micros(extra_us);
            }
        }
        if !extra.is_zero() {
            self.counters.slowdowns.fetch_add(1, Ordering::Relaxed);
        }
        extra
    }

    /// Whether to answer request `id` with an injected error, and which
    /// status. First active window wins.
    pub fn error_response(&self, elapsed: Duration, id: u64) -> Option<u16> {
        for (idx, w) in self.plan.windows.iter().enumerate() {
            if !w.active_at(elapsed) {
                continue;
            }
            if let FaultKind::ErrorResponse { prob, status } = w.kind {
                if self.fires(prob, id, idx) {
                    self.counters.errors.fetch_add(1, Ordering::Relaxed);
                    return Some(status);
                }
            }
        }
        None
    }

    /// Whether to reset the connection mid-response for request `id`.
    pub fn resets_connection(&self, elapsed: Duration, id: u64) -> bool {
        for (idx, w) in self.plan.windows.iter().enumerate() {
            if !w.active_at(elapsed) {
                continue;
            }
            if let FaultKind::ConnReset { prob } = w.kind {
                if self.fires(prob, id, idx) {
                    self.counters.resets.fetch_add(1, Ordering::Relaxed);
                    return true;
                }
            }
        }
        false
    }

    /// Whether a [`FaultKind::Crash`] window covers `elapsed` (the pod
    /// is down; it restarts when the window ends).
    pub fn crashed(&self, elapsed: Duration) -> bool {
        self.plan
            .active_at(elapsed)
            .any(|w| matches!(w.kind, FaultKind::Crash))
    }

    /// Records that a crash window was entered (called once per crash by
    /// whoever owns the pod lifecycle, not per query).
    pub fn note_crash(&self) {
        self.counters.crashes.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> Duration {
        Duration::from_millis(ms)
    }

    #[test]
    fn unit_draw_is_a_pure_function() {
        assert_eq!(unit_draw(7, 11, 0), unit_draw(7, 11, 0));
        assert_ne!(unit_draw(7, 11, 0), unit_draw(7, 12, 0));
        assert_ne!(unit_draw(7, 11, 0), unit_draw(8, 11, 0));
        assert_ne!(unit_draw(7, 11, 0), unit_draw(7, 11, 1));
        let d = unit_draw(123, 456, 789);
        assert!((0.0..1.0).contains(&d));
    }

    #[test]
    fn unit_draw_hits_probability_within_tolerance() {
        let hits = (0..10_000).filter(|&id| unit_draw(42, id, 0) < 0.2).count();
        assert!(
            (1_700..2_300).contains(&hits),
            "expected ~2000 hits at p=0.2, got {hits}"
        );
    }

    #[test]
    fn calm_injector_never_fires() {
        let inj = FaultInjector::calm();
        for ms in [0, 10, 1_000, 100_000] {
            assert_eq!(inj.latency_extra(t(ms)), Duration::ZERO);
            assert!(!inj.drops_message(t(ms), ms));
            assert_eq!(inj.slowdown(t(ms)), Duration::ZERO);
            assert_eq!(inj.error_response(t(ms), ms), None);
            assert!(!inj.resets_connection(t(ms), ms));
            assert!(!inj.crashed(t(ms)));
        }
        assert_eq!(inj.counters().total(), 0);
    }

    #[test]
    fn faults_fire_only_inside_their_window() {
        let plan = FaultPlan::seeded(5)
            .with_window(t(100), t(200), FaultKind::LatencySpike { extra_us: 300 })
            .with_window(t(100), t(200), FaultKind::SlowDown { extra_us: 50 })
            .with_window(t(100), t(200), FaultKind::Crash);
        let inj = FaultInjector::new(plan);
        assert_eq!(inj.latency_extra(t(50)), Duration::ZERO);
        assert_eq!(inj.latency_extra(t(150)), Duration::from_micros(300));
        assert_eq!(inj.slowdown(t(150)), Duration::from_micros(50));
        assert_eq!(inj.slowdown(t(250)), Duration::ZERO);
        assert!(inj.crashed(t(150)));
        assert!(!inj.crashed(t(250)));
        assert_eq!(inj.counters().spikes(), 1);
        assert_eq!(inj.counters().slowdowns(), 1);
    }

    #[test]
    fn partition_drops_everything_probabilistic_drop_does_not() {
        let plan = FaultPlan::seeded(5)
            .with_window(t(0), t(100), FaultKind::Partition)
            .with_window(t(200), t(300), FaultKind::Drop { prob: 0.5 });
        let inj = FaultInjector::new(plan);
        assert!((0..100).all(|id| inj.drops_message(t(50), id)));
        let dropped = (0..1_000)
            .filter(|&id| inj.drops_message(t(250), id))
            .count();
        assert!(
            (350..650).contains(&dropped),
            "expected ~500 drops at p=0.5, got {dropped}"
        );
        assert!(!inj.drops_message(t(150), 1), "gap between windows is safe");
    }

    #[test]
    fn decisions_are_identical_across_injector_instances() {
        let plan = || {
            FaultPlan::seeded(77)
                .with_window(t(0), t(1_000), FaultKind::Drop { prob: 0.3 })
                .with_window(t(0), t(1_000), FaultKind::ConnReset { prob: 0.2 })
                .with_window(
                    t(0),
                    t(1_000),
                    FaultKind::ErrorResponse {
                        prob: 0.1,
                        status: 500,
                    },
                )
        };
        let a = FaultInjector::new(plan());
        let b = FaultInjector::new(plan());
        for id in 0..2_000 {
            assert_eq!(a.drops_message(t(500), id), b.drops_message(t(500), id));
            assert_eq!(
                a.resets_connection(t(500), id),
                b.resets_connection(t(500), id)
            );
            assert_eq!(a.error_response(t(500), id), b.error_response(t(500), id));
        }
        assert_eq!(a.counters().total(), b.counters().total());
    }

    #[test]
    fn error_responses_carry_the_configured_status() {
        let plan = FaultPlan::seeded(3).with_window(
            t(0),
            t(100),
            FaultKind::ErrorResponse {
                prob: 1.0,
                status: 503,
            },
        );
        let inj = FaultInjector::new(plan);
        assert_eq!(inj.error_response(t(50), 9), Some(503));
        assert_eq!(inj.counters().errors(), 1);
    }

    #[test]
    fn clones_share_counters() {
        let plan =
            FaultPlan::seeded(1).with_window(t(0), t(100), FaultKind::SlowDown { extra_us: 10 });
        let a = FaultInjector::new(plan);
        let b = a.clone();
        a.slowdown(t(10));
        b.slowdown(t(20));
        assert_eq!(a.counters().slowdowns(), 2);
    }
}
