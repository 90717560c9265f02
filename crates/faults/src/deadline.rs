//! The one deadline/budget helper behind every bounded wait.
//!
//! Before this existed, `rustserver.rs` and `batching.rs` each grew their
//! own ad-hoc `Instant::now() + constant` loops; unifying them makes the
//! boundary semantics (expiry exactly *at* the deadline, saturating
//! remainders, step clamping) testable in one place.

use std::time::{Duration, Instant};

/// An absolute point in time a bounded operation must finish by.
///
/// Semantics chosen once, used everywhere:
/// * a deadline is **expired exactly at its boundary** (`now >= at`),
/// * [`Deadline::remaining`] saturates to zero, never panics,
/// * [`Deadline::clamp`] bounds a polling step so a sleep can never
///   overshoot the budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline `budget` from now.
    pub fn after(budget: Duration) -> Deadline {
        Deadline::at(Instant::now() + budget)
    }

    /// A deadline at an absolute instant.
    pub fn at(at: Instant) -> Deadline {
        Deadline { at }
    }

    /// Whether the deadline has passed. The boundary itself counts as
    /// expired: a wait with a zero budget never spins.
    pub fn expired(&self) -> bool {
        Instant::now() >= self.at
    }

    /// Time left before expiry, saturating to zero.
    pub fn remaining(&self) -> Duration {
        self.at.saturating_duration_since(Instant::now())
    }

    /// Clamps a polling/backoff step to the remaining budget, so the
    /// caller can sleep `step` at a time without ever overshooting.
    pub fn clamp(&self, step: Duration) -> Duration {
        step.min(self.remaining())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundary_counts_as_expired() {
        // Expiry-at-boundary: a deadline at `now` (or any past instant)
        // is already expired and leaves no remaining budget.
        let d = Deadline::at(Instant::now());
        assert!(d.expired());
        assert_eq!(d.remaining(), Duration::ZERO);
        let zero = Deadline::after(Duration::ZERO);
        assert!(zero.expired());
    }

    #[test]
    fn future_deadlines_report_remaining_budget() {
        let d = Deadline::after(Duration::from_secs(60));
        assert!(!d.expired());
        let rem = d.remaining();
        assert!(rem > Duration::from_secs(59));
        assert!(rem <= Duration::from_secs(60));
    }

    #[test]
    fn remaining_saturates_after_expiry() {
        let d = Deadline::at(Instant::now() - Duration::from_millis(5));
        assert!(d.expired());
        assert_eq!(d.remaining(), Duration::ZERO);
        assert_eq!(d.clamp(Duration::from_secs(1)), Duration::ZERO);
    }

    #[test]
    fn clamp_bounds_steps_by_the_budget() {
        let d = Deadline::after(Duration::from_secs(10));
        assert_eq!(d.clamp(Duration::from_millis(1)), Duration::from_millis(1));
        assert!(d.clamp(Duration::from_secs(100)) <= Duration::from_secs(10));
    }

    #[test]
    fn expiry_flips_across_the_boundary() {
        let d = Deadline::after(Duration::from_millis(10));
        assert!(!d.expired());
        std::thread::sleep(Duration::from_millis(12));
        assert!(d.expired());
    }
}
