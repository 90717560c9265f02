//! Experiment execution: deploy → wait for readiness → generate load →
//! measure (the automated pipeline behind the paper's
//! `make run_deployed_benchmark`).

use crate::results::ExperimentResult;
use crate::spec::{ExecutionMode, ExperimentSpec};
use etude_cluster::{Deployment, DeploymentSpec};
use etude_control::{Autoscaler, ControlAction, FleetObs};
use etude_faults::FaultInjector;
use etude_loadgen::{LoadConfig, LoadTestResult, SimLoadGen};
use etude_metrics::hdr::Histogram;
use etude_metrics::percentile::percentile_duration;
use etude_metrics::TimeSeries;
use etude_obs::{SloMonitor, SloPolicy};
use etude_serve::service::ExecutionKind;
use etude_serve::ServiceProfile;
use etude_simnet::link::{FaultyLink, Link};
use etude_simnet::{shared, Shared, Sim, SimTime};
use etude_tensor::Device;
use etude_workload::SyntheticWorkload;
use std::rc::Rc;
use std::time::Duration;

/// How long the serial micro-benchmark waits on a lost request before
/// writing it off (same horizon as the load drivers' client timeout).
const SERIAL_CLIENT_TIMEOUT: Duration = Duration::from_secs(2);

/// Cadence of the autoscaler's reconcile loop (one HPA-style sync per
/// virtual second).
const AUTOSCALE_TICK: Duration = Duration::from_secs(1);

fn execution_kind(mode: ExecutionMode) -> ExecutionKind {
    match mode {
        ExecutionMode::Eager => ExecutionKind::Eager,
        ExecutionMode::Jit => ExecutionKind::Jit,
    }
}

/// Builds the service profile a spec implies.
pub fn service_profile(spec: &ExperimentSpec) -> ServiceProfile {
    let cfg = spec.model_config();
    ServiceProfile::build(
        spec.model,
        &cfg,
        &spec.instance.device(),
        execution_kind(spec.execution),
    )
    .expect("cost probing cannot fail on phantom weights")
}

/// Runs one deployed benchmark end-to-end in the simulated cluster.
///
/// Deployments whose model does not fit the instance's device are
/// reported infeasible without running (exactly what the empty cells of
/// Table I mean for the Platform scenario on small devices).
pub fn run_experiment(spec: &ExperimentSpec) -> ExperimentResult {
    let deployment_spec = DeploymentSpec {
        instance: spec.instance,
        replicas: spec.replicas,
        model_bytes: spec.model_bytes(),
        node_budget: None,
    };
    let monthly_cost = deployment_spec.monthly_cost();
    if !deployment_spec.feasible() {
        let empty = LoadTestResult {
            series: TimeSeries::new(),
            sent: 0,
            ok: 0,
            errors: 0,
            suppressed: 0,
            retries: 0,
            degraded: 0,
            server_stages: None,
            corrected: Histogram::new(),
            attribution: Vec::new(),
            slo: None,
        };
        return ExperimentResult::evaluate(spec, monthly_cost, empty, 1);
    }

    let profile = service_profile(spec);
    // After the ramp completes, hold the full target rate for a steady
    // measurement window — feasibility is judged there.
    let ramp_secs = spec.ramp.as_secs();
    let hold_secs = (ramp_secs / 5).clamp(5, 60);
    // Enough whole sessions to cover the ramp (area under the ramp is
    // roughly target * ramp / 2) plus the hold phase.
    let expected_requests = spec.target_rps * ramp_secs / 2 + spec.target_rps * (hold_secs + 2);
    let workload = SyntheticWorkload::new(spec.workload_config());
    let log = workload.generate(expected_requests + 1_000);

    let mut sim = Sim::new();
    let deployment = Rc::new(
        Deployment::create(&mut sim, deployment_spec, &profile)
            .expect("spec passed the feasibility gate above"),
    );
    // The spec's fault schedule covers both layers: crash windows take
    // pods down (relative to virtual time zero), everything else rides
    // on the client-server network path.
    let injector = FaultInjector::new(spec.faults.clone());
    for pod in deployment.pods() {
        pod.schedule_crashes(&mut sim, &injector);
    }
    // The runner starts the load generator only once every readiness
    // probe passes (Section II, "Benchmark execution").
    sim.run_until(deployment.ready_at());
    let start = sim.now();
    let load_config = LoadConfig {
        target_rps: spec.target_rps,
        ramp: spec.ramp,
        duration: spec.ramp + Duration::from_secs(hold_secs),
        backpressure: true,
        seed: spec.seed,
    };
    let horizon = start.after(load_config.duration);
    let handle = SimLoadGen::schedule_with_faults(
        &mut sim,
        deployment.service(),
        &log,
        load_config,
        start,
        injector,
    );
    if let Some(config) = spec.autoscaler {
        let scaler = shared(Autoscaler::new(config));
        schedule_autoscaler(&mut sim, Rc::clone(&deployment), scaler, 0, horizon);
    }
    sim.run_to_completion();
    let mut load = handle.collect();
    // Multi-window burn-rate evaluation over the whole run: the report
    // says *when* the SLO first caught fire and *which* stage (compute,
    // queue, network, faults) dominated that window.
    let monitor = SloMonitor::new(SloPolicy::from_target(spec.latency_slo));
    load.slo = Some(monitor.evaluate(&load.series, &load.attribution));

    let mut result = ExperimentResult::evaluate(spec, monthly_cost, load, hold_secs as usize);
    result.journal = deployment.journal().borrow().clone();
    result
}

/// One reconcile tick per virtual second: boil the deployment down to a
/// [`FleetObs`], let the autoscaler decide, and actuate + journal any
/// decision. The loop stops at `horizon` (end of load) so it cannot keep
/// the event queue alive after the experiment.
fn schedule_autoscaler(
    sim: &mut Sim,
    deployment: Rc<Deployment>,
    scaler: Shared<Autoscaler>,
    tick: u64,
    horizon: SimTime,
) {
    sim.schedule_in(AUTOSCALE_TICK, move |s| {
        let service = deployment.service();
        // The latency signal is the worst replica's cumulative service
        // p99 — the simulated stand-in for scraping every pod's /stats.
        // Burn-rate attribution needs the whole series and stays a
        // post-hoc concern (the SloMonitor pass below), so the live
        // reconciler sees queue and latency pressure only.
        let p99_us = service
            .pod_summaries()
            .iter()
            .map(|p| p.latency.p99())
            .max()
            .unwrap_or(0);
        let obs = FleetObs {
            tick,
            ready_replicas: service.ready_backends(),
            total_replicas: deployment.replicas(),
            queue_depth: service.queue_depth() as u64,
            p99_us,
            burn: 0.0,
        };
        if let Some(d) = scaler.borrow_mut().decide(&obs) {
            let action = if d.to > d.from {
                ControlAction::ScaleUp
            } else {
                ControlAction::ScaleDown
            };
            deployment.journal().borrow_mut().push(
                s.now().as_duration(),
                action,
                d.from as i64,
                d.to as i64,
            );
            deployment.scale_to(s, d.to);
        }
        if s.now() < horizon {
            schedule_autoscaler(s, deployment, scaler, tick + 1, horizon);
        }
    });
}

/// Analytic decomposition of the serial path's mean latency — the
/// simulated counterpart of a live server's `/stats` stage breakdown
/// (the analytic model has no queueing by construction, so there is no
/// queue component).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SerialBreakdown {
    /// Model compute at batch size one.
    pub inference: Duration,
    /// Fixed handler overhead (parse, top-k envelope, serialization).
    pub overhead: Duration,
    /// Mean two-hop network time.
    pub network: Duration,
}

impl SerialBreakdown {
    /// Sum of all components; equals the mean end-to-end latency.
    pub fn total(&self) -> Duration {
        self.inference + self.overhead + self.network
    }
}

/// Result of the serial micro-benchmark (Figure 3): one request at a
/// time, no queueing, p90 of the end-to-end prediction latency.
#[derive(Debug, Clone)]
pub struct SerialResult {
    /// Model name.
    pub model: String,
    /// Device name.
    pub device: &'static str,
    /// Execution mode.
    pub execution: ExecutionMode,
    /// p90 prediction latency.
    pub p90: Duration,
    /// Mean prediction latency.
    pub mean: Duration,
    /// Samples taken.
    pub samples: usize,
    /// Intra-op CPU threads the host kernel pool runs at. The analytic
    /// device model is calibrated at one thread, so reports carry the
    /// pool width to keep runs comparable.
    pub cpu_threads: usize,
    /// SIMD backend the host kernels dispatched to ("scalar", "avx2+fma").
    pub simd_isa: &'static str,
    /// f32 lanes per block of that backend (1 for scalar).
    pub simd_lanes: usize,
    /// Poller backend the reactor serving tier would run on this host
    /// ("epoll" on Linux, "poll" elsewhere). The serial bench
    /// itself is virtual-time, but reports carry the serving substrate
    /// so results files are comparable across hosts.
    pub poller_backend: &'static str,
    /// Event loops the default reactor config would spread over.
    pub event_loops: usize,
    /// Where the mean latency goes (compute vs overhead vs network).
    pub breakdown: SerialBreakdown,
    /// Requests lost to fault windows (drops/partitions); each held the
    /// serial loop for the client timeout and produced no sample. Zero
    /// under a calm plan.
    pub lost: usize,
}

/// Runs the Figure 3 micro-benchmark for one (model, device, execution)
/// cell: requests are sent "in a serial manner (one request after
/// another, waiting for model responses)".
pub fn run_serial_microbenchmark(spec: &ExperimentSpec, requests: usize) -> SerialResult {
    let profile = service_profile(spec);
    let device: Device = spec.instance.device();
    let mut link = FaultyLink::new(
        Link::cluster(spec.seed),
        FaultInjector::new(spec.faults.clone()),
    );
    let mut samples = Vec::with_capacity(requests);
    let per_request = profile.batch_latency(1) + profile.handler_overhead;
    let mut rtt_total = Duration::ZERO;
    // The serial loop's own virtual clock: requests run back to back, so
    // fault windows are evaluated against the accumulated latency.
    let mut elapsed = Duration::ZERO;
    let mut lost = 0usize;
    for i in 0..requests.max(1) as u64 {
        // Serial requests see the raw service time plus two network hops;
        // there is no queueing by construction. Either hop can lose the
        // request to a fault window — the loop then idles out the client
        // timeout and moves on.
        let now = SimTime::ZERO.after(elapsed);
        let out = link.sample(now, 2 * i);
        let back = match out {
            Some(_) => link.sample(now, 2 * i + 1),
            None => None,
        };
        let (Some(out), Some(back)) = (out, back) else {
            lost += 1;
            elapsed += SERIAL_CLIENT_TIMEOUT;
            continue;
        };
        let rtt = out + back;
        rtt_total += rtt;
        samples.push(per_request + rtt);
        elapsed += per_request + rtt;
    }
    let p90 = percentile_duration(&samples, 0.9).unwrap_or_default();
    let mean = samples.iter().sum::<Duration>() / samples.len().max(1) as u32;
    let breakdown = SerialBreakdown {
        inference: profile.batch_latency(1),
        overhead: profile.handler_overhead,
        network: rtt_total / samples.len().max(1) as u32,
    };
    SerialResult {
        model: spec.model.name().to_string(),
        device: device.name(),
        execution: spec.execution,
        p90,
        mean,
        samples: samples.len(),
        cpu_threads: etude_tensor::pool::current_threads(),
        simd_isa: etude_tensor::simd::isa_name(),
        simd_lanes: etude_tensor::simd::lane_width(),
        poller_backend: etude_serve::reactor::poller_backend_name(),
        event_loops: etude_serve::ReactorConfig::default().event_loops,
        breakdown,
        lost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etude_cluster::InstanceType;
    use etude_models::ModelKind;

    fn fast_spec() -> ExperimentSpec {
        ExperimentSpec::new(ModelKind::Core, 10_000, InstanceType::CpuE2)
            .with_target_rps(100)
            .with_ramp(Duration::from_secs(15))
    }

    #[test]
    fn groceries_on_cpu_is_feasible() {
        // Table I row 1: the small groceries scenario runs on one CPU
        // machine.
        let result = run_experiment(&fast_spec());
        assert!(
            result.feasible,
            "p90 {:?}, tp {:.1}",
            result.p90(),
            result.throughput()
        );
        assert!((result.monthly_cost - 108.09).abs() < 1e-9);
    }

    #[test]
    fn million_catalog_on_cpu_misses_the_slo() {
        // Section III-C: at one million items CPU latency "drops to
        // around 200 milliseconds" under load — far over the SLO.
        let spec = ExperimentSpec::new(ModelKind::Core, 1_000_000, InstanceType::CpuE2)
            .with_target_rps(500)
            .with_ramp(Duration::from_secs(15));
        let result = run_experiment(&spec);
        assert!(!result.feasible);
    }

    #[test]
    fn million_catalog_on_t4_is_feasible() {
        let spec = ExperimentSpec::new(ModelKind::Core, 1_000_000, InstanceType::GpuT4)
            .with_target_rps(500)
            .with_ramp(Duration::from_secs(15));
        let result = run_experiment(&spec);
        assert!(
            result.feasible,
            "p90 {:?}, tp {:.1}",
            result.p90(),
            result.throughput()
        );
    }

    #[test]
    fn oversized_models_report_infeasible_without_running() {
        // A hypothetical catalog needing more memory than a T4 offers.
        let spec = ExperimentSpec::new(ModelKind::Core, 80_000_000, InstanceType::GpuT4);
        let result = run_experiment(&spec);
        assert!(!result.feasible);
        assert_eq!(result.load.sent, 0);
    }

    #[test]
    fn serial_microbenchmark_orders_devices_correctly() {
        // Figure 3 at C = 1e6: GPU an order of magnitude under CPU.
        let cpu = run_serial_microbenchmark(
            &ExperimentSpec::new(ModelKind::Gru4Rec, 1_000_000, InstanceType::CpuE2),
            50,
        );
        let gpu = run_serial_microbenchmark(
            &ExperimentSpec::new(ModelKind::Gru4Rec, 1_000_000, InstanceType::GpuT4),
            50,
        );
        assert!(cpu.p90 > Duration::from_millis(45), "{:?}", cpu.p90);
        assert!(
            cpu.p90.as_secs_f64() > 10.0 * gpu.p90.as_secs_f64(),
            "cpu {:?} vs gpu {:?}",
            cpu.p90,
            gpu.p90
        );
    }

    #[test]
    fn serial_breakdown_components_tile_the_mean() {
        let result = run_serial_microbenchmark(
            &ExperimentSpec::new(ModelKind::Core, 50_000, InstanceType::CpuE2),
            40,
        );
        let sum = result.breakdown.total();
        let gap = sum.abs_diff(result.mean);
        // Duration division rounds to nanoseconds twice (mean and mean
        // rtt), so allow a hair of slack.
        assert!(
            gap <= Duration::from_nanos(2),
            "sum {sum:?} mean {:?}",
            result.mean
        );
        assert!(result.breakdown.inference > Duration::ZERO);
        assert!(result.breakdown.network > Duration::ZERO);
    }

    #[test]
    fn serial_microbenchmark_loses_requests_to_partitions() {
        use etude_faults::{FaultKind, FaultPlan};

        // A partition over the first two (virtual) seconds swallows the
        // first request; the 2 s timeout then carries the clock past the
        // window and the rest go through.
        let plan = FaultPlan::seeded(3).with_window(
            Duration::ZERO,
            Duration::from_secs(2),
            FaultKind::Partition,
        );
        let spec =
            ExperimentSpec::new(ModelKind::Core, 10_000, InstanceType::CpuE2).with_faults(plan);
        let result = run_serial_microbenchmark(&spec, 30);
        assert!(result.lost >= 1, "partition lost nothing");
        assert_eq!(result.lost + result.samples, 30);

        let calm = run_serial_microbenchmark(
            &ExperimentSpec::new(ModelKind::Core, 10_000, InstanceType::CpuE2),
            30,
        );
        assert_eq!(calm.lost, 0);
        assert_eq!(calm.samples, 30);
    }

    #[test]
    fn experiments_surface_fault_windows_as_errors() {
        use etude_faults::{FaultKind, FaultPlan};

        // Drops mid-ramp turn into client-side errors; the same seeded
        // spec reproduces the same counts.
        let faulty = || {
            let plan = FaultPlan::seeded(5).with_window(
                Duration::from_secs(20),
                Duration::from_secs(24),
                FaultKind::Drop { prob: 0.3 },
            );
            run_experiment(&fast_spec().with_faults(plan))
        };
        let a = faulty();
        assert!(a.load.errors > 0, "drops should surface as errors");
        let b = faulty();
        assert_eq!(a.load.errors, b.load.errors, "seeded faults replay");
        assert_eq!(a.load.ok, b.load.ok);

        let calm = run_experiment(&fast_spec());
        assert_eq!(calm.load.errors, 0);
    }

    #[test]
    fn autoscaler_relieves_an_underprovisioned_deployment() {
        use etude_control::AutoscalerConfig;

        // One CPU replica cannot serve a million-item catalog at 300
        // req/s (Section III-C); with the autoscaler on, queue pressure
        // should grow the fleet instead of letting it drown.
        let run = || {
            let config = AutoscalerConfig {
                max_replicas: 6,
                ..AutoscalerConfig::default()
            };
            let spec = ExperimentSpec::new(ModelKind::Core, 1_000_000, InstanceType::CpuE2)
                .with_target_rps(300)
                .with_ramp(Duration::from_secs(15))
                .with_autoscaler(config);
            run_experiment(&spec)
        };
        let a = run();
        use etude_control::ControlAction;
        let ups = a.journal.of(ControlAction::ScaleUp).len();
        assert!(
            ups >= 1,
            "pressure never scaled up: {}",
            a.journal.render_json()
        );
        let creates = a.journal.of(ControlAction::SurgeCreate).len();
        assert!(creates >= 1, "scale-up should create pods");

        // The decision journal is the determinism contract: a second run
        // of the same spec reproduces it byte-for-byte.
        let b = run();
        assert_eq!(a.journal.render_json(), b.journal.render_json());

        // Unmanaged runs keep an empty journal (and a fixed fleet).
        assert!(run_experiment(&fast_spec()).journal.entries.is_empty());
    }

    #[test]
    fn jit_is_never_slower_serially() {
        for instance in [InstanceType::CpuE2, InstanceType::GpuT4] {
            let base = ExperimentSpec::new(ModelKind::Narm, 100_000, instance);
            let eager =
                run_serial_microbenchmark(&base.clone().with_execution(ExecutionMode::Eager), 30);
            let jit = run_serial_microbenchmark(&base.with_execution(ExecutionMode::Jit), 30);
            assert!(
                jit.p90 <= eager.p90 + Duration::from_micros(50),
                "{instance:?}: jit {:?} > eager {:?}",
                jit.p90,
                eager.p90
            );
        }
    }
}
