//! Experiment result records.

use crate::spec::ExperimentSpec;
use etude_control::DecisionJournal;
use etude_loadgen::LoadTestResult;
use etude_metrics::LatencySummary;
use std::time::Duration;

/// The outcome of one deployed-benchmark run.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// The spec that produced this result.
    pub spec_label: String,
    /// Monthly cost of the deployment that was measured.
    pub monthly_cost: f64,
    /// Raw load-test measurements.
    pub load: LoadTestResult,
    /// Steady-state window summary (last ticks at full target rate).
    pub steady: LatencySummary,
    /// Whether the deployment met the latency SLO at the target rate.
    pub feasible: bool,
    /// Every control-plane decision the run took (scale events, pod
    /// surges, drains and terminations), in decision order. Empty for
    /// unmanaged runs. The journal's [`DecisionJournal::render_json`] is
    /// byte-stable, so two seeded runs of the same spec can be compared
    /// byte-for-byte.
    pub journal: DecisionJournal,
}

impl ExperimentResult {
    /// Builds the result record, judging feasibility over the
    /// steady-state tail: the p90 SLO must hold, errors must be rare and
    /// the achieved throughput must reach (most of) the target.
    pub fn evaluate(
        spec: &ExperimentSpec,
        monthly_cost: f64,
        load: LoadTestResult,
        steady_window: usize,
    ) -> ExperimentResult {
        let steady = load.tail_summary(steady_window);
        let throughput_ok = steady.throughput >= 0.95 * spec.target_rps as f64;
        let feasible = steady.meets_slo(spec.latency_slo) && throughput_ok;
        ExperimentResult {
            spec_label: spec.label(),
            monthly_cost,
            load,
            steady,
            feasible,
            journal: DecisionJournal::new(),
        }
    }

    /// p90 of the steady-state window.
    pub fn p90(&self) -> Duration {
        self.steady.p90
    }

    /// Achieved steady-state throughput.
    pub fn throughput(&self) -> f64 {
        self.steady.throughput
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etude_cluster::InstanceType;
    use etude_metrics::TimeSeries;
    use etude_models::ModelKind;

    fn fake_load(p90_ms: u64, rps: u64, ticks: u64) -> LoadTestResult {
        let mut series = TimeSeries::new();
        for t in 0..ticks {
            for _ in 0..rps {
                series.record_sent(t);
                series.record_ok(t, Duration::from_millis(p90_ms));
            }
        }
        LoadTestResult {
            series,
            sent: rps * ticks,
            ok: rps * ticks,
            errors: 0,
            suppressed: 0,
            retries: 0,
            degraded: 0,
            server_stages: None,
            corrected: etude_metrics::hdr::Histogram::new(),
            attribution: Vec::new(),
            slo: None,
        }
    }

    fn spec() -> ExperimentSpec {
        ExperimentSpec::new(ModelKind::Core, 10_000, InstanceType::CpuE2).with_target_rps(100)
    }

    #[test]
    fn fast_enough_deployments_are_feasible() {
        let result = ExperimentResult::evaluate(&spec(), 108.09, fake_load(10, 100, 10), 5);
        assert!(result.feasible);
        assert!(result.p90() <= Duration::from_millis(11));
    }

    #[test]
    fn slow_deployments_are_infeasible() {
        let result = ExperimentResult::evaluate(&spec(), 108.09, fake_load(80, 100, 10), 5);
        assert!(!result.feasible, "80 ms p90 breaches the 50 ms SLO");
    }

    #[test]
    fn under_throughput_deployments_are_infeasible() {
        // Meets latency but only delivers half the target rate.
        let result = ExperimentResult::evaluate(&spec(), 108.09, fake_load(5, 50, 10), 5);
        assert!(!result.feasible);
    }
}
