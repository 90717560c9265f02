//! Property tests for the fault layer: the retry-schedule invariants the
//! resilient client depends on.
//!
//! These are the claims the chaos tests build on — if any of them broke,
//! "deterministic replay" and "never exceed the deadline budget" would be
//! silently false, so they are checked over randomized policies rather
//! than a handful of examples.

use etude_faults::{Backoff, Deadline, RetryPolicy};
use proptest::prelude::*;
use std::time::Duration;

proptest! {
    /// Nominal (un-jittered) delays double, so they are monotone
    /// non-decreasing in the attempt number — and never exceed the cap.
    #[test]
    fn nominal_delays_are_monotone_and_capped(
        base_us in 0u64..100_000,
        cap_us in 0u64..200_000,
        attempts in 1u32..80,
    ) {
        let policy = RetryPolicy {
            base: Duration::from_micros(base_us),
            cap: Duration::from_micros(cap_us),
            max_retries: attempts,
            jitter: 0.0,
        };
        let mut prev = Duration::ZERO;
        for attempt in 0..attempts {
            let d = policy.nominal_delay(attempt);
            prop_assert!(d >= prev, "attempt {attempt}: {d:?} < {prev:?}");
            prop_assert!(d <= policy.cap, "attempt {attempt}: {d:?} above cap");
            prev = d;
        }
    }

    /// Every jittered delay lands in `[nominal * (1 - jitter), nominal]`
    /// (up to 1 ns of float rounding), and the schedule spends exactly
    /// `max_retries` attempts before refusing.
    #[test]
    fn jittered_delays_stay_within_bounds(
        seed in any::<u64>(),
        base_us in 1u64..50_000,
        cap_mult in 1u32..64,
        jitter in 0.0f64..=1.0,
        retries in 1u32..40,
    ) {
        let policy = RetryPolicy {
            base: Duration::from_micros(base_us),
            cap: Duration::from_micros(base_us) * cap_mult,
            max_retries: retries,
            jitter,
        };
        let mut backoff = Backoff::new(policy.clone(), seed);
        let slop = Duration::from_nanos(1);
        let mut attempt = 0u32;
        while let Some(d) = backoff.next_delay() {
            let nominal = policy.nominal_delay(attempt);
            let floor = Duration::from_secs_f64(nominal.as_secs_f64() * (1.0 - jitter));
            prop_assert!(d <= nominal + slop, "attempt {attempt}: {d:?} > {nominal:?}");
            prop_assert!(d + slop >= floor, "attempt {attempt}: {d:?} < {floor:?}");
            attempt += 1;
        }
        prop_assert_eq!(attempt, retries);
        prop_assert_eq!(backoff.attempts(), retries);
    }

    /// The retry-storm floor: no seed, jitter fraction, or attempt
    /// number may ever produce a delay under half its nominal — in
    /// particular the *first* retry always waits at least `base / 2`,
    /// so a fleet of clients hitting the same overloaded backend can
    /// never re-arrive in the same instant they were refused.
    #[test]
    fn jittered_delays_never_drop_below_half_nominal(
        seed in any::<u64>(),
        base_us in 1u64..50_000,
        cap_mult in 1u32..64,
        jitter in 0.0f64..=1.0,
        retries in 1u32..40,
    ) {
        let policy = RetryPolicy {
            base: Duration::from_micros(base_us),
            cap: Duration::from_micros(base_us) * cap_mult,
            max_retries: retries,
            jitter,
        };
        let mut backoff = Backoff::new(policy.clone(), seed);
        let slop = Duration::from_nanos(1);
        let mut attempt = 0u32;
        while let Some(d) = backoff.next_delay() {
            let floor = policy.nominal_delay(attempt) / 2;
            prop_assert!(d + slop >= floor, "attempt {attempt}: {d:?} < {floor:?}");
            if attempt == 0 {
                prop_assert!(
                    d + slop >= policy.base / 2,
                    "first retry {d:?} below base/2 = {:?}",
                    policy.base / 2
                );
            }
            attempt += 1;
        }
    }

    /// Two backoffs with the same (policy, seed) produce bit-identical
    /// schedules; a different seed diverges somewhere (with jitter on and
    /// enough retries, a full-schedule collision is astronomically
    /// unlikely — and would be caught here if the RNG ignored its seed).
    #[test]
    fn schedules_are_pure_functions_of_policy_and_seed(
        seed in any::<u64>(),
        base_us in 100u64..10_000,
        retries in 4u32..20,
    ) {
        let policy = RetryPolicy {
            base: Duration::from_micros(base_us),
            cap: Duration::from_micros(base_us) * 256,
            max_retries: retries,
            jitter: 0.5,
        };
        let schedule = |s: u64| -> Vec<Duration> {
            let mut b = Backoff::new(policy.clone(), s);
            std::iter::from_fn(|| b.next_delay()).collect()
        };
        prop_assert_eq!(schedule(seed), schedule(seed));
        prop_assert_ne!(schedule(seed), schedule(seed ^ 0x9e3779b97f4a7c15));
    }
}

proptest! {
    // Fewer cases: this property sleeps for real (budgets are a few ms).
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sleeping every delay handed out by `next_delay_within` keeps the
    /// *total* time spent backing off inside the deadline budget, no
    /// matter how generous the policy is.
    #[test]
    fn total_retry_sleep_never_exceeds_the_budget(
        seed in any::<u64>(),
        budget_ms in 1u64..15,
        base_us in 100u64..5_000,
        retries in 1u32..10,
    ) {
        let policy = RetryPolicy {
            base: Duration::from_micros(base_us),
            cap: Duration::from_micros(base_us) * 8,
            max_retries: retries,
            jitter: 0.5,
        };
        let budget = Duration::from_millis(budget_ms);
        let deadline = Deadline::after(budget);
        let mut backoff = Backoff::new(policy, seed);
        let mut total = Duration::ZERO;
        while let Some(d) = backoff.next_delay_within(&deadline) {
            total += d;
            std::thread::sleep(d);
        }
        prop_assert!(
            total <= budget,
            "slept {total:?} against a budget of {budget:?}"
        );
    }
}
