//! SLO burn-rate acceptance: a seeded fault window must make the
//! monitor fire *inside* the window, attribute the violation to the
//! injected stage, and replay to a bit-identical report.

use etude_cluster::InstanceType;
use etude_core::runner::run_experiment;
use etude_core::spec::ExperimentSpec;
use etude_faults::{FaultKind, FaultPlan};
use etude_models::ModelKind;
use etude_obs::SloCause;
use std::time::Duration;

fn spec() -> ExperimentSpec {
    ExperimentSpec::new(ModelKind::Core, 10_000, InstanceType::CpuE2)
        .with_target_rps(100)
        .with_ramp(Duration::from_secs(15))
}

/// Ticks of the load-test series that recorded at least one error.
fn error_ticks(series: &etude_metrics::TimeSeries) -> Vec<u64> {
    series
        .ticks()
        .iter()
        .enumerate()
        .filter(|(_, t)| t.errors > 0)
        .map(|(i, _)| i as u64)
        .collect()
}

#[test]
fn drop_window_fires_the_slo_and_attributes_to_faults() {
    let faulty = || {
        let plan = FaultPlan::seeded(5).with_window(
            Duration::from_secs(20),
            Duration::from_secs(24),
            FaultKind::Drop { prob: 0.5 },
        );
        run_experiment(&spec().with_faults(plan))
    };
    let a = faulty();
    let report = a.load.slo.expect("runner attaches an SLO report");
    let v = report
        .violation
        .expect("half the window dropping must page");
    assert_eq!(v.cause, SloCause::Faults, "{v:?}");

    // The alert fires inside the error window, not at end of run: the
    // violating tick must itself have seen (or sit right on top of)
    // injected errors.
    let bad_ticks = error_ticks(&a.load.series);
    let first = *bad_ticks.first().expect("drops surface as errors");
    let last = *bad_ticks.last().unwrap();
    assert!(
        v.tick >= first && v.tick <= last,
        "violation at t={} outside error window {first}..={last}",
        v.tick
    );

    // Seeded replay: the whole report — burn rates included — is
    // bit-identical, which is what makes the monitor debuggable.
    let b = faulty();
    assert_eq!(a.load.slo, b.load.slo);
    assert_eq!(a.load.attribution, b.load.attribution);
}

#[test]
fn latency_spike_attributes_to_the_network() {
    // A 60 ms one-way spike pushes every round trip far over the 50 ms
    // target without erroring: the budget burns on slow completions and
    // the dominant component over the window is wire time.
    let plan = FaultPlan::seeded(9).with_window(
        Duration::from_secs(20),
        Duration::from_secs(24),
        FaultKind::LatencySpike { extra_us: 60_000 },
    );
    let result = run_experiment(&spec().with_faults(plan));
    let report = result.load.slo.expect("runner attaches an SLO report");
    let v = report.violation.expect("sustained slow window must page");
    assert_eq!(v.cause, SloCause::Network, "{v:?}");
    assert!(v.bad > 0);
}

#[test]
fn calm_runs_report_a_quiet_slo() {
    let result = run_experiment(&spec());
    let report = result.load.slo.expect("report attaches even when quiet");
    assert!(
        report.violation.is_none(),
        "calm run paged: {:?}",
        report.violation
    );
    assert_eq!(report.bad, 0, "no request should breach 50 ms unloaded");
    assert!(report.total > 0);
}
