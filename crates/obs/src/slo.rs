//! Multi-window multi-burn-rate SLO evaluation.
//!
//! An SLO here is "at least `objective` of requests answer under
//! `target_latency`". A request is *bad* when it errors or completes
//! over the target; the **burn rate** of a window is the bad fraction
//! divided by the budget fraction `1 − objective` (burn 1.0 = spending
//! the error budget exactly as fast as the SLO allows). Following the
//! SRE-workbook alerting recipe, a violation fires when a *short*
//! window burns fast **and** a *long* window confirms it — the short
//! window gives detection latency, the long window suppresses blips.
//!
//! Evaluation is a pure function over the load test's per-tick series
//! plus the per-tick stage attribution the driver collects, so a seeded
//! run replays to a bit-identical report — including *when* the SLO
//! first fell over and *why* (compute vs queue vs network vs injected
//! faults).

use etude_metrics::TimeSeries;
use std::time::Duration;

/// The SLO and its alerting windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloPolicy {
    /// Latency target: responses over this are budget spend.
    pub target_latency: Duration,
    /// Fraction of requests that must be good (e.g. 0.999).
    pub objective: f64,
    /// Short (fast-detection) window in ticks.
    pub short_window: usize,
    /// Long (confirmation) window in ticks.
    pub long_window: usize,
    /// Burn-rate threshold for the short window.
    pub fast_burn: f64,
    /// Burn-rate threshold for the long window.
    pub slow_burn: f64,
}

impl SloPolicy {
    /// The default multi-window pair for a latency target: a 99.9%
    /// objective with the canonical 14.4×/6× thresholds, scaled to
    /// load-test ticks (5 s detection, 30 s confirmation).
    pub fn from_target(target_latency: Duration) -> SloPolicy {
        SloPolicy {
            target_latency,
            objective: 0.999,
            short_window: 5,
            long_window: 30,
            fast_burn: 14.4,
            slow_burn: 6.0,
        }
    }
}

/// Where a tick's latency went, as measured by the driver. All values
/// are totals over the tick's completed requests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickAttribution {
    /// Tick index.
    pub tick: u64,
    /// Model compute time (inference) in microseconds.
    pub compute_us: u64,
    /// Queueing/batching wait in microseconds.
    pub queue_us: u64,
    /// Network (link) time in microseconds.
    pub network_us: u64,
    /// Errors attributable to injected faults (drops, resets, fault
    /// windows) rather than organic overload.
    pub fault_errors: u64,
}

/// The dominant cause of an SLO violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloCause {
    /// Model compute dominated the latency of the violating window.
    Compute,
    /// Queueing/batch formation dominated.
    Queue,
    /// Network time dominated.
    Network,
    /// Injected faults account for the bad requests.
    Faults,
}

impl SloCause {
    /// Stable lowercase label for reports and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            SloCause::Compute => "compute",
            SloCause::Queue => "queue",
            SloCause::Network => "network",
            SloCause::Faults => "faults",
        }
    }
}

/// The first tick at which both alerting windows burned too fast.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloViolation {
    /// Tick (seconds since run start) where the alert first fired.
    pub tick: u64,
    /// Short-window burn rate at that tick.
    pub short_burn: f64,
    /// Long-window burn rate at that tick.
    pub long_burn: f64,
    /// Bad requests in the short window.
    pub bad: u64,
    /// Total requests in the short window.
    pub total: u64,
    /// Dominant cause over the short window.
    pub cause: SloCause,
}

/// Outcome of evaluating a policy against a whole run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloReport {
    /// Latency target in microseconds.
    pub target_us: u64,
    /// Objective evaluated.
    pub objective: f64,
    /// Requests over the whole run.
    pub total: u64,
    /// Bad requests over the whole run.
    pub bad: u64,
    /// Whole-run burn rate.
    pub burn: f64,
    /// First alert, when one fired.
    pub violation: Option<SloViolation>,
}

/// Evaluates an [`SloPolicy`] against a finished (or in-progress) run.
#[derive(Debug, Clone, Copy)]
pub struct SloMonitor {
    policy: SloPolicy,
}

impl SloMonitor {
    /// Creates a monitor for a policy.
    pub fn new(policy: SloPolicy) -> SloMonitor {
        SloMonitor { policy }
    }

    /// The policy under evaluation.
    pub fn policy(&self) -> &SloPolicy {
        &self.policy
    }

    /// Evaluates the series tick by tick, returning whole-run budget
    /// spend and the first violation (if any). `attribution` rows are
    /// matched to ticks by index; missing rows attribute as zeros.
    pub fn evaluate(&self, series: &TimeSeries, attribution: &[TickAttribution]) -> SloReport {
        let p = &self.policy;
        let target_us = p.target_latency.as_micros().min(u128::from(u64::MAX)) as u64;
        let budget = (1.0 - p.objective).max(f64::EPSILON);
        let ticks = series.ticks();
        // Per-tick (bad, total) pairs; a tick's total counts completed
        // requests (ok + errors), its bad counts errors plus
        // over-target completions.
        let per_tick: Vec<(u64, u64)> = ticks
            .iter()
            .map(|t| (t.errors + t.latency.count_above(target_us), t.ok + t.errors))
            .collect();
        let attr_for = |tick: usize| -> TickAttribution {
            attribution
                .iter()
                .find(|a| a.tick == tick as u64)
                .copied()
                .unwrap_or_default()
        };
        let window_burn = |end: usize, len: usize| -> (u64, u64, f64) {
            let start = (end + 1).saturating_sub(len);
            let (bad, total) = per_tick[start..=end]
                .iter()
                .fold((0u64, 0u64), |(b, t), &(bi, ti)| (b + bi, t + ti));
            let burn = if total == 0 {
                0.0
            } else {
                (bad as f64 / total as f64) / budget
            };
            (bad, total, burn)
        };
        let mut violation = None;
        for end in 0..per_tick.len() {
            let (bad, total, short_burn) = window_burn(end, p.short_window);
            let (_, _, long_burn) = window_burn(end, p.long_window);
            if short_burn >= p.fast_burn && long_burn >= p.slow_burn && bad > 0 {
                let start = (end + 1).saturating_sub(p.short_window);
                let mut sum = TickAttribution::default();
                for tick in start..=end {
                    let a = attr_for(tick);
                    sum.compute_us += a.compute_us;
                    sum.queue_us += a.queue_us;
                    sum.network_us += a.network_us;
                    sum.fault_errors += a.fault_errors;
                }
                // Faults win when they explain at least half the bad
                // requests; otherwise the largest latency component
                // over the window does.
                let cause = if sum.fault_errors * 2 >= bad {
                    SloCause::Faults
                } else if sum.queue_us >= sum.compute_us && sum.queue_us >= sum.network_us {
                    SloCause::Queue
                } else if sum.network_us >= sum.compute_us {
                    SloCause::Network
                } else {
                    SloCause::Compute
                };
                violation = Some(SloViolation {
                    tick: end as u64,
                    short_burn,
                    long_burn,
                    bad,
                    total,
                    cause,
                });
                break;
            }
        }
        let (run_bad, run_total) = per_tick
            .iter()
            .fold((0u64, 0u64), |(b, t), &(bi, ti)| (b + bi, t + ti));
        SloReport {
            target_us,
            objective: p.objective,
            total: run_total,
            bad: run_bad,
            burn: if run_total == 0 {
                0.0
            } else {
                (run_bad as f64 / run_total as f64) / budget
            },
            violation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> SloPolicy {
        SloPolicy {
            target_latency: Duration::from_millis(10),
            objective: 0.99,
            short_window: 3,
            long_window: 6,
            fast_burn: 10.0,
            slow_burn: 5.0,
        }
    }

    fn healthy_series(ticks: u64, per_tick: u64) -> TimeSeries {
        let mut s = TimeSeries::new();
        for t in 0..ticks {
            for _ in 0..per_tick {
                s.record_ok(t, Duration::from_millis(2));
            }
        }
        s
    }

    #[test]
    fn healthy_runs_fire_no_alert() {
        let series = healthy_series(20, 100);
        let report = SloMonitor::new(policy()).evaluate(&series, &[]);
        assert_eq!(report.bad, 0);
        assert_eq!(report.total, 2_000);
        assert_eq!(report.burn, 0.0);
        assert!(report.violation.is_none());
    }

    #[test]
    fn error_bursts_fire_inside_the_window_and_attribute_to_faults() {
        let mut series = healthy_series(20, 100);
        // A fault window at ticks 8..=10: half the tick errors out.
        let mut attribution = Vec::new();
        for t in 8..=10u64 {
            for _ in 0..50 {
                series.record_error(t);
            }
            attribution.push(TickAttribution {
                tick: t,
                fault_errors: 50,
                ..Default::default()
            });
        }
        let report = SloMonitor::new(policy()).evaluate(&series, &attribution);
        let v = report.violation.expect("burst must fire");
        assert_eq!(v.tick, 8, "fires on the first bad tick, not after");
        assert_eq!(v.cause, SloCause::Faults);
        assert!(v.short_burn > 10.0, "short burn {}", v.short_burn);
        assert_eq!(v.cause.name(), "faults");
    }

    #[test]
    fn slow_ticks_attribute_to_the_dominant_stage() {
        let mut series = healthy_series(20, 100);
        let mut attribution = Vec::new();
        for t in 5..=9u64 {
            for _ in 0..40 {
                series.record_ok(t, Duration::from_millis(50)); // over target
            }
            attribution.push(TickAttribution {
                tick: t,
                compute_us: 10_000,
                queue_us: 1_900_000,
                network_us: 30_000,
                fault_errors: 0,
            });
        }
        let report = SloMonitor::new(policy()).evaluate(&series, &attribution);
        let v = report.violation.expect("sustained slowness must fire");
        assert_eq!(v.cause, SloCause::Queue);
        assert!(v.tick >= 5 && v.tick <= 9, "inside the slow window");
    }

    #[test]
    fn short_blips_are_suppressed_by_the_long_window() {
        let mut series = healthy_series(30, 100);
        // One bad tick only: short window burns, long window does not.
        for _ in 0..60 {
            series.record_error(15);
        }
        let p = SloPolicy {
            long_window: 20,
            slow_burn: 8.0,
            ..policy()
        };
        let report = SloMonitor::new(p).evaluate(&series, &[]);
        assert!(
            report.violation.is_none(),
            "single-tick blip must not page: {:?}",
            report.violation
        );
        assert!(report.bad > 0, "the blip still spent budget");
    }

    #[test]
    fn evaluation_is_deterministic() {
        let mut series = healthy_series(15, 80);
        for _ in 0..200 {
            series.record_error(7);
        }
        let attribution = [TickAttribution {
            tick: 7,
            fault_errors: 200,
            ..Default::default()
        }];
        let a = SloMonitor::new(policy()).evaluate(&series, &attribution);
        let b = SloMonitor::new(policy()).evaluate(&series, &attribution);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_series_is_a_quiet_report() {
        let report = SloMonitor::new(policy()).evaluate(&TimeSeries::new(), &[]);
        assert_eq!(report.total, 0);
        assert_eq!(report.burn, 0.0);
        assert!(report.violation.is_none());
    }
}
