//! Declarative, scenario-level fault schedules.
//!
//! A [`FaultPlan`] is what an experiment spec carries: a master seed plus
//! a list of time windows, each activating one fault kind. Equal plans
//! drive identical chaos runs: every probabilistic draw derives from
//! the seed.

use std::time::Duration;

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Extra one-way link latency while the window is active.
    LatencySpike {
        /// Added latency in microseconds.
        extra_us: u64,
    },
    /// Packet/connection loss with a per-message probability.
    Drop {
        /// Drop probability in `[0, 1]`.
        prob: f64,
    },
    /// Total network partition: every message in the window is lost.
    Partition,
    /// Server-side slow-down: the handler stalls this long per request.
    SlowDown {
        /// Added handler latency in microseconds.
        extra_us: u64,
    },
    /// The server answers with an error status instead of serving.
    ErrorResponse {
        /// Injection probability in `[0, 1]`.
        prob: f64,
        /// HTTP status to answer with (500, 503, ...).
        status: u16,
    },
    /// The server resets the connection mid-response.
    ConnReset {
        /// Injection probability in `[0, 1]`.
        prob: f64,
    },
    /// A pod crash: the instance is down for the window and restarts at
    /// its end.
    Crash,
}

/// A fault kind active during `[from, until)` of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultWindow {
    /// Window start, relative to run start (inclusive).
    pub from: Duration,
    /// Window end, relative to run start (exclusive).
    pub until: Duration,
    /// The fault active inside the window.
    pub kind: FaultKind,
}

impl FaultWindow {
    /// Whether the window covers elapsed time `t`.
    pub fn active_at(&self, t: Duration) -> bool {
        self.from <= t && t < self.until
    }
}

/// A declarative fault schedule for one scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Master seed every probabilistic fault draw derives from.
    pub seed: u64,
    /// The scheduled fault windows.
    pub windows: Vec<FaultWindow>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::calm()
    }
}

impl FaultPlan {
    /// An empty plan: no faults, ever (the happy path).
    pub fn calm() -> FaultPlan {
        FaultPlan {
            seed: 0,
            windows: Vec::new(),
        }
    }

    /// An empty plan with a seed, ready for [`FaultPlan::with_window`].
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            windows: Vec::new(),
        }
    }

    /// Adds a fault window.
    pub fn with_window(mut self, from: Duration, until: Duration, kind: FaultKind) -> Self {
        self.windows.push(FaultWindow { from, until, kind });
        self
    }

    /// The windows active at elapsed time `t`.
    pub fn active_at(&self, t: Duration) -> impl Iterator<Item = &FaultWindow> {
        self.windows.iter().filter(move |w| w.active_at(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FaultPlan {
        FaultPlan::seeded(99)
            .with_window(
                Duration::from_millis(100),
                Duration::from_millis(600),
                FaultKind::Drop { prob: 0.125 },
            )
            .with_window(
                Duration::ZERO,
                Duration::from_secs(1),
                FaultKind::LatencySpike { extra_us: 750 },
            )
            .with_window(
                Duration::from_secs(2),
                Duration::from_secs(3),
                FaultKind::ErrorResponse {
                    prob: 0.25,
                    status: 503,
                },
            )
            .with_window(
                Duration::from_secs(4),
                Duration::from_secs(5),
                FaultKind::Crash,
            )
    }

    #[test]
    fn windows_are_half_open() {
        let w = FaultWindow {
            from: Duration::from_secs(1),
            until: Duration::from_secs(2),
            kind: FaultKind::Partition,
        };
        assert!(!w.active_at(Duration::from_millis(999)));
        assert!(w.active_at(Duration::from_secs(1)), "start is inclusive");
        assert!(w.active_at(Duration::from_millis(1999)));
        assert!(!w.active_at(Duration::from_secs(2)), "end is exclusive");
    }

    #[test]
    fn active_at_filters_by_time() {
        let plan = sample();
        assert_eq!(plan.active_at(Duration::from_millis(50)).count(), 1);
        assert_eq!(plan.active_at(Duration::from_millis(200)).count(), 2);
        assert_eq!(plan.active_at(Duration::from_secs(10)).count(), 0);
    }
}
