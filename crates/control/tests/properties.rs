//! Property tests for the control-plane state machines.
//!
//! Circuit-breaker transitions are well-formed — the observed state
//! sequence only ever walks legal edges (in particular, never
//! closed → half-open without passing through open) — and an open
//! breaker admits exactly one probe once its interval elapses.

use etude_control::{BreakerConfig, BreakerState, CircuitBreaker};
use proptest::prelude::*;
use std::time::Duration;

proptest! {
    /// Replay a random op stream against the breaker and check every
    /// observed transition is a legal edge of the state machine:
    /// closed→open, open→half-open, half-open→{closed, open}.
    #[test]
    fn breaker_transitions_are_well_formed(
        threshold in 1u32..6,
        open_ms in 1u64..500,
        // op: 0 = allow(now), 1 = record_success, 2 = record_failure
        ops in proptest::collection::vec((0u8..3, 0u64..50), 0..400),
    ) {
        let mut breaker = CircuitBreaker::new(BreakerConfig {
            failure_threshold: threshold,
            open_for: Duration::from_millis(open_ms),
            half_open_successes: 1,
        });
        let mut now = Duration::ZERO;
        let mut prev = breaker.state();
        prop_assert_eq!(prev, BreakerState::Closed, "breakers start closed");
        for (op, advance_ms) in ops {
            now += Duration::from_millis(advance_ms);
            match op {
                0 => { breaker.allow(now); }
                1 => breaker.record_success(),
                _ => breaker.record_failure(now, None),
            }
            let next = breaker.state();
            let legal = match (prev, next) {
                _ if prev == next => true,
                (BreakerState::Closed, BreakerState::Open) => true,
                (BreakerState::Open, BreakerState::HalfOpen) => true,
                (BreakerState::HalfOpen, BreakerState::Closed) => true,
                (BreakerState::HalfOpen, BreakerState::Open) => true,
                _ => false,
            };
            prop_assert!(legal, "illegal transition {prev:?} -> {next:?}");
            prev = next;
        }
    }

    /// An open breaker admits nothing until its interval elapses, and
    /// the first admission after it is exactly one half-open probe.
    #[test]
    fn open_breakers_reject_until_the_interval(
        open_ms in 10u64..1_000,
    ) {
        let mut breaker = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            open_for: Duration::from_millis(open_ms),
            half_open_successes: 1,
        });
        breaker.record_failure(Duration::ZERO, None);
        prop_assert_eq!(breaker.state(), BreakerState::Open);
        prop_assert!(!breaker.allow(Duration::from_millis(open_ms - 1)));
        prop_assert!(breaker.allow(Duration::from_millis(open_ms)));
        prop_assert_eq!(breaker.state(), BreakerState::HalfOpen);
        prop_assert!(!breaker.allow(Duration::from_millis(open_ms)), "one probe only");
    }
}
