//! Bounded exponential backoff with seeded jitter.
//!
//! The resilient client retries transient failures (timeouts, 5xx,
//! dropped connections) under a *per-request deadline budget*: delays
//! double from a base up to a cap, each shrunk by a jitter factor drawn
//! from a seeded RNG so that (a) synchronized retry storms decorrelate
//! and (b) two runs with the same seed produce bit-identical schedules.

use crate::deadline::Deadline;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// A retry policy: how many times, how long, how random.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Nominal delay before the first retry; doubles per attempt.
    pub base: Duration,
    /// Upper bound on any single nominal delay.
    pub cap: Duration,
    /// Maximum retries after the initial attempt (0 = never retry).
    pub max_retries: u32,
    /// Jitter fraction in `[0, 1]`: a delay with nominal value `d` is
    /// drawn uniformly from `[d * (1 - jitter), d]`, then floored at
    /// `d / 2` — full jitter decorrelates retries but never erases the
    /// pause entirely (a zero-delay retry lands back inside the same
    /// overload instant and feeds the storm it was meant to break).
    pub jitter: f64,
}

impl RetryPolicy {
    /// No retries at all: the initial attempt is the only attempt.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            base: Duration::ZERO,
            cap: Duration::ZERO,
            max_retries: 0,
            jitter: 0.0,
        }
    }

    /// A sensible default for chaos runs: 5 retries, 2 ms → 64 ms
    /// exponential, half-width jitter.
    pub fn default_chaos() -> RetryPolicy {
        RetryPolicy {
            base: Duration::from_millis(2),
            cap: Duration::from_millis(64),
            max_retries: 5,
            jitter: 0.5,
        }
    }

    /// The nominal (un-jittered) delay before retry `attempt` (0-based):
    /// `min(base * 2^attempt, cap)`, saturating.
    pub fn nominal_delay(&self, attempt: u32) -> Duration {
        let factor = 1u64.checked_shl(attempt).unwrap_or(u64::MAX);
        let nanos = (self.base.as_nanos() as u64).saturating_mul(factor);
        Duration::from_nanos(nanos).min(self.cap)
    }
}

/// The per-request backoff state machine: counts attempts and draws
/// jittered delays from a seeded RNG.
#[derive(Debug, Clone)]
pub struct Backoff {
    policy: RetryPolicy,
    attempt: u32,
    rng: SmallRng,
}

impl Backoff {
    /// Starts a backoff schedule for one request.
    pub fn new(policy: RetryPolicy, seed: u64) -> Backoff {
        Backoff {
            policy,
            attempt: 0,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Retries consumed so far.
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    /// The next jittered delay, or `None` when the retry budget is
    /// exhausted. Each call consumes one retry.
    pub fn next_delay(&mut self) -> Option<Duration> {
        if self.attempt >= self.policy.max_retries {
            return None;
        }
        let nominal = self.policy.nominal_delay(self.attempt);
        self.attempt += 1;
        if nominal.is_zero() || self.policy.jitter <= 0.0 {
            return Some(nominal);
        }
        // Uniform in [nominal * (1 - jitter), nominal], floored at half
        // the nominal: jitter = 1.0 could otherwise draw a ~0 ms first
        // retry, and an instant retry against an overloaded backend is
        // exactly the synchronized storm the jitter exists to prevent.
        let unit: f64 = self.rng.gen();
        let scale = (1.0 - self.policy.jitter.clamp(0.0, 1.0) * unit).max(0.5);
        Some(Duration::from_secs_f64(nominal.as_secs_f64() * scale))
    }

    /// Like [`Backoff::next_delay`], but clamped to what is left of the
    /// request's deadline budget — so the *total* time spent sleeping
    /// between retries can never exceed the budget. Returns `None` when
    /// either the retry budget or the deadline is exhausted.
    pub fn next_delay_within(&mut self, deadline: &Deadline) -> Option<Duration> {
        if deadline.expired() {
            return None;
        }
        let delay = self.next_delay()?;
        Some(deadline.clamp(delay))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_delays_double_up_to_the_cap() {
        let p = RetryPolicy {
            base: Duration::from_millis(2),
            cap: Duration::from_millis(10),
            max_retries: 8,
            jitter: 0.0,
        };
        assert_eq!(p.nominal_delay(0), Duration::from_millis(2));
        assert_eq!(p.nominal_delay(1), Duration::from_millis(4));
        assert_eq!(p.nominal_delay(2), Duration::from_millis(8));
        assert_eq!(p.nominal_delay(3), Duration::from_millis(10), "capped");
        assert_eq!(p.nominal_delay(63), Duration::from_millis(10));
        // Shift overflow saturates instead of wrapping.
        assert_eq!(p.nominal_delay(200), Duration::from_millis(10));
    }

    #[test]
    fn retry_budget_is_enforced() {
        let policy = RetryPolicy {
            max_retries: 3,
            ..RetryPolicy::default_chaos()
        };
        let mut b = Backoff::new(policy, 1);
        assert!(b.next_delay().is_some());
        assert!(b.next_delay().is_some());
        assert!(b.next_delay().is_some());
        assert_eq!(b.next_delay(), None, "4th retry refused");
        assert_eq!(b.attempts(), 3);
    }

    #[test]
    fn no_retry_policy_never_delays() {
        let mut b = Backoff::new(RetryPolicy::none(), 9);
        assert_eq!(b.next_delay(), None);
    }

    #[test]
    fn same_seed_same_schedule() {
        let policy = RetryPolicy::default_chaos();
        let delays = |seed: u64| -> Vec<Duration> {
            let mut b = Backoff::new(policy.clone(), seed);
            std::iter::from_fn(|| b.next_delay()).collect()
        };
        assert_eq!(delays(42), delays(42));
        assert_ne!(delays(42), delays(43), "different seeds jitter apart");
    }

    #[test]
    fn full_jitter_never_collapses_to_an_instant_retry() {
        let policy = RetryPolicy {
            base: Duration::from_millis(4),
            cap: Duration::from_millis(64),
            max_retries: 1,
            jitter: 1.0,
        };
        for seed in 0..512u64 {
            let d = Backoff::new(policy.clone(), seed).next_delay().unwrap();
            assert!(
                d >= policy.base / 2,
                "seed {seed}: first retry delay {d:?} below the {:?} storm floor",
                policy.base / 2
            );
        }
    }

    #[test]
    fn deadline_caps_the_total_sleep() {
        let mut b = Backoff::new(
            RetryPolicy {
                base: Duration::from_secs(10),
                cap: Duration::from_secs(10),
                max_retries: 5,
                jitter: 0.0,
            },
            3,
        );
        let d = Deadline::after(Duration::from_millis(50));
        let delay = b.next_delay_within(&d).unwrap();
        assert!(delay <= Duration::from_millis(50));
    }

    #[test]
    fn expired_deadline_stops_retrying() {
        let mut b = Backoff::new(RetryPolicy::default_chaos(), 3);
        let d = Deadline::after(Duration::ZERO);
        assert_eq!(b.next_delay_within(&d), None);
        assert_eq!(b.attempts(), 0, "no retry consumed once out of budget");
    }
}
