//! A per-backend circuit breaker (closed → open → half-open → closed).
//!
//! The breaker sits between the resilient client and one backend. While
//! *closed* it merely counts consecutive failures; at the threshold it
//! *opens* and rejects attempts outright — the backend gets breathing
//! room instead of a retry storm, and the client fails over instantly
//! rather than burning its deadline budget on a dead host. After the
//! open interval (the server's own `Retry-After` suggestion, when it
//! named one) a single probe is let through *half-open*; success closes
//! the breaker, failure reopens it.
//!
//! Time is an explicit [`Duration`] since an epoch the caller chooses
//! (wall-clock elapsed or virtual time), so the machine is a pure
//! function of its inputs — the same call sequence always walks the
//! same states, which the property suite verifies.

use std::time::Duration;

/// Breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub failure_threshold: u32,
    /// How long an open breaker rejects attempts before probing
    /// (extended by a larger server-named `Retry-After`).
    pub open_for: Duration,
    /// Probe successes required to close from half-open.
    pub half_open_successes: u32,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            open_for: Duration::from_millis(500),
            half_open_successes: 1,
        }
    }
}

/// The three breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Traffic flows; consecutive failures are counted.
    Closed,
    /// Attempts are rejected until the open interval elapses.
    Open,
    /// One probe at a time is allowed through.
    HalfOpen,
}

impl BreakerState {
    /// Stable lowercase label for reports.
    pub fn name(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// The breaker state machine. All transitions happen inside [`allow`],
/// [`record_success`] and [`record_failure`]; there is no way to reach
/// half-open except through open, which the property tests assert.
///
/// [`allow`]: CircuitBreaker::allow
/// [`record_success`]: CircuitBreaker::record_success
/// [`record_failure`]: CircuitBreaker::record_failure
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    open_until: Duration,
    probes_in_flight: u32,
    probe_successes: u32,
}

impl CircuitBreaker {
    /// A closed breaker.
    pub fn new(config: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            config,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            open_until: Duration::ZERO,
            probes_in_flight: 0,
            probe_successes: 0,
        }
    }

    /// Current state (open flips to half-open only via [`Self::allow`],
    /// so observers see the state as of the last decision).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Whether an attempt may be made at `now`. Open breakers reject
    /// until their interval elapses, then admit a single half-open
    /// probe; half-open admits one probe at a time.
    pub fn allow(&mut self, now: Duration) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                if now >= self.open_until {
                    self.state = BreakerState::HalfOpen;
                    self.probes_in_flight = 1;
                    self.probe_successes = 0;
                    true
                } else {
                    false
                }
            }
            BreakerState::HalfOpen => {
                if self.probes_in_flight == 0 {
                    self.probes_in_flight = 1;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Reports a successful attempt.
    pub fn record_success(&mut self) {
        match self.state {
            BreakerState::Closed => self.consecutive_failures = 0,
            BreakerState::HalfOpen => {
                self.probes_in_flight = self.probes_in_flight.saturating_sub(1);
                self.probe_successes += 1;
                if self.probe_successes >= self.config.half_open_successes {
                    self.state = BreakerState::Closed;
                    self.consecutive_failures = 0;
                }
            }
            // A straggler from before the breaker opened: the backend
            // answered an old request, which says nothing about now.
            BreakerState::Open => {}
        }
    }

    /// Reports a failed attempt. `retry_after` is the server's own
    /// suggested pause (a 503's `Retry-After`): an opening breaker
    /// honors the larger of it and the configured interval.
    pub fn record_failure(&mut self, now: Duration, retry_after: Option<Duration>) {
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.config.failure_threshold {
                    self.trip(now, retry_after);
                }
            }
            BreakerState::HalfOpen => {
                // The probe failed: straight back to open.
                self.probes_in_flight = self.probes_in_flight.saturating_sub(1);
                self.trip(now, retry_after);
            }
            // Failures reported while open come from attempts admitted
            // earlier; the interval already covers them.
            BreakerState::Open => {}
        }
    }

    fn trip(&mut self, now: Duration, retry_after: Option<Duration>) {
        let pause = self
            .config
            .open_for
            .max(retry_after.unwrap_or(Duration::ZERO));
        self.state = BreakerState::Open;
        self.open_until = now + pause;
        self.consecutive_failures = 0;
        self.probe_successes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn breaker() -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig {
            failure_threshold: 3,
            open_for: ms(100),
            half_open_successes: 1,
        })
    }

    #[test]
    fn opens_after_consecutive_failures() {
        let mut b = breaker();
        for _ in 0..2 {
            assert!(b.allow(ms(0)));
            b.record_failure(ms(0), None);
            assert_eq!(b.state(), BreakerState::Closed);
        }
        b.record_failure(ms(0), None);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow(ms(50)), "open breakers reject");
    }

    #[test]
    fn successes_reset_the_failure_count() {
        let mut b = breaker();
        b.record_failure(ms(0), None);
        b.record_failure(ms(0), None);
        b.record_success();
        b.record_failure(ms(0), None);
        b.record_failure(ms(0), None);
        assert_eq!(b.state(), BreakerState::Closed, "streak was broken");
    }

    #[test]
    fn half_open_probe_closes_or_reopens() {
        let mut b = breaker();
        for _ in 0..3 {
            b.record_failure(ms(0), None);
        }
        // Interval elapses: exactly one probe is admitted.
        assert!(b.allow(ms(100)));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.allow(ms(100)), "one probe at a time");
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);

        // Same dance, but the probe fails: straight back to open.
        for _ in 0..3 {
            b.record_failure(ms(200), None);
        }
        assert!(b.allow(ms(300)));
        b.record_failure(ms(300), None);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow(ms(350)));
        assert!(b.allow(ms(400)), "reopened interval elapses again");
    }

    #[test]
    fn retry_after_extends_the_open_interval() {
        let mut b = breaker();
        for _ in 0..3 {
            b.record_failure(ms(0), Some(ms(400)));
        }
        assert!(!b.allow(ms(100)), "configured interval would have elapsed");
        assert!(!b.allow(ms(399)));
        assert!(b.allow(ms(400)), "server-named pause honored");
    }

    #[test]
    fn multi_probe_configs_need_every_success() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            open_for: ms(10),
            half_open_successes: 2,
        });
        b.record_failure(ms(0), None);
        assert!(b.allow(ms(10)));
        b.record_success();
        assert_eq!(b.state(), BreakerState::HalfOpen, "one of two successes");
        assert!(b.allow(ms(11)));
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn late_reports_while_open_are_ignored() {
        let mut b = breaker();
        for _ in 0..3 {
            b.record_failure(ms(0), None);
        }
        b.record_success();
        b.record_failure(ms(10), Some(ms(10_000)));
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.allow(ms(100)), "interval unchanged by late failure");
    }
}
