//! Per-tick time series of latency and errors.
//!
//! The load generator operates in one-second ticks (Algorithm 2); the
//! figures of the paper plot per-tick p90 latency, attempted/achieved
//! throughput and error counts against time as the load ramps up. A
//! [`TimeSeries`] keeps one histogram per tick.

use crate::hdr::Histogram;
use crate::summary::LatencySummary;
use std::time::Duration;

/// Measurements of a single one-second tick.
#[derive(Debug, Clone)]
pub struct TickStats {
    /// Tick index (seconds since the run started).
    pub tick: u64,
    /// Requests sent during the tick.
    pub sent: u64,
    /// Successful responses received during the tick.
    pub ok: u64,
    /// Errors (timeouts, HTTP 5xx, connection failures) during the tick.
    pub errors: u64,
    /// Latency histogram of responses completing in this tick.
    pub latency: Histogram,
}

impl TickStats {
    fn new(tick: u64) -> TickStats {
        TickStats {
            tick,
            sent: 0,
            ok: 0,
            errors: 0,
            latency: Histogram::new(),
        }
    }
}

/// A growable sequence of per-tick statistics.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    ticks: Vec<TickStats>,
}

impl TimeSeries {
    /// Creates an empty time series.
    pub fn new() -> TimeSeries {
        TimeSeries::default()
    }

    fn tick_mut(&mut self, tick: u64) -> &mut TickStats {
        while self.ticks.len() <= tick as usize {
            let idx = self.ticks.len() as u64;
            self.ticks.push(TickStats::new(idx));
        }
        &mut self.ticks[tick as usize]
    }

    /// Records a request sent at `tick`.
    pub fn record_sent(&mut self, tick: u64) {
        self.tick_mut(tick).sent += 1;
    }

    /// Records a successful response completing at `tick`.
    pub fn record_ok(&mut self, tick: u64, latency: Duration) {
        let t = self.tick_mut(tick);
        t.ok += 1;
        t.latency.record_duration(latency);
    }

    /// Records a failed response completing at `tick`.
    pub fn record_error(&mut self, tick: u64) {
        self.tick_mut(tick).errors += 1;
    }

    /// All ticks in order.
    pub fn ticks(&self) -> &[TickStats] {
        &self.ticks
    }

    /// Total error count.
    pub fn total_errors(&self) -> u64 {
        self.ticks.iter().map(|t| t.errors).sum()
    }

    /// Merges all ticks into one histogram.
    pub fn merged_histogram(&self) -> Histogram {
        let mut h = Histogram::new();
        for t in &self.ticks {
            h.merge(&t.latency);
        }
        h
    }

    /// Summary over the whole series.
    pub fn summary(&self) -> LatencySummary {
        let h = self.merged_histogram();
        let window = Duration::from_secs(self.ticks.len().max(1) as u64);
        LatencySummary::from_histogram(&h, self.total_errors(), window)
    }

    /// Summary over the tick range `[start, end)`.
    pub fn window_summary(&self, start: usize, end: usize) -> LatencySummary {
        let end = end.min(self.ticks.len());
        let start = start.min(end);
        let mut h = Histogram::new();
        let mut errors = 0;
        for t in &self.ticks[start..end] {
            h.merge(&t.latency);
            errors += t.errors;
        }
        let window = Duration::from_secs((end - start).max(1) as u64);
        LatencySummary::from_histogram(&h, errors, window)
    }

    /// Summary over the last `n` *complete* ticks, excluding the final
    /// tick of the series (usually partial: it only holds response
    /// stragglers). This is the steady-state window Table I feasibility
    /// uses.
    pub fn tail_summary(&self, n: usize) -> LatencySummary {
        let end = self.ticks.len().saturating_sub(1).max(1);
        let start = end.saturating_sub(n);
        self.window_summary(start, end)
    }

    /// Per-tick `(tick, attempted_rps, achieved_rps, p90, errors)` rows
    /// for figure rendering.
    pub fn rows(&self) -> Vec<(u64, u64, u64, Duration, u64)> {
        self.ticks
            .iter()
            .map(|t| {
                (
                    t.tick,
                    t.sent,
                    t.ok,
                    Duration::from_micros(t.latency.p90()),
                    t.errors,
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_are_created_on_demand() {
        let mut ts = TimeSeries::new();
        ts.record_ok(5, Duration::from_millis(10));
        assert_eq!(ts.ticks().len(), 6);
        assert_eq!(ts.ticks()[5].ok, 1);
        assert_eq!(ts.ticks()[0].ok, 0);
    }

    #[test]
    fn totals_accumulate() {
        let mut ts = TimeSeries::new();
        ts.record_sent(0);
        ts.record_sent(0);
        ts.record_ok(0, Duration::from_millis(1));
        ts.record_error(1);
        assert_eq!(ts.total_errors(), 1);
        assert_eq!(ts.ticks()[0].sent, 2);
    }

    #[test]
    fn tail_summary_ignores_warmup_and_trailing_partial_tick() {
        let mut ts = TimeSeries::new();
        // Warmup tick with awful latency, two fast steady ticks, then a
        // partial final tick holding only response stragglers.
        ts.record_ok(0, Duration::from_secs(2));
        ts.record_ok(1, Duration::from_millis(5));
        ts.record_ok(2, Duration::from_millis(6));
        ts.record_ok(3, Duration::from_secs(1));
        let tail = ts.tail_summary(2);
        assert!(tail.p90 < Duration::from_millis(50), "{:?}", tail.p90);
        let all = ts.summary();
        assert!(all.max >= Duration::from_secs(2));
    }

    #[test]
    fn window_summary_selects_exact_ticks() {
        let mut ts = TimeSeries::new();
        ts.record_ok(0, Duration::from_millis(1));
        ts.record_ok(1, Duration::from_millis(100));
        ts.record_ok(2, Duration::from_millis(1));
        let w = ts.window_summary(1, 2);
        assert_eq!(w.count, 1);
        assert!(w.p90 >= Duration::from_millis(99));
    }

    #[test]
    fn rows_surface_per_tick_p90() {
        let mut ts = TimeSeries::new();
        for _ in 0..10 {
            ts.record_ok(0, Duration::from_millis(10));
        }
        let rows = ts.rows();
        assert_eq!(rows.len(), 1);
        let (tick, _sent, ok, p90, errors) = rows[0];
        assert_eq!(tick, 0);
        assert_eq!(ok, 10);
        assert_eq!(errors, 0);
        assert!(p90 >= Duration::from_millis(9) && p90 <= Duration::from_millis(11));
    }
}
