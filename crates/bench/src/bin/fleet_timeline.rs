//! **fleet_timeline** — fleet-wide SLO timeline under chaos, swept over
//! replica counts.
//!
//! Each cell deploys N replicas of the Core model in the simulated
//! cluster, crashes replica 0 mid-ramp, and opens a drop window on the
//! client-server network during the full-rate hold. The SLO burn-rate
//! monitor then reports *when* the deployment first caught fire and
//! *why*, and the per-pod load counters show how the survivors absorbed
//! the crashed replica's traffic (serving skew). A calm baseline at the
//! same rate confirms the alerts are the faults' doing.
//!
//! Everything is seeded, so every cell replays bit-identically. The
//! summary lands in `results/BENCH_fleet_timeline.json`; run with
//! `--smoke` for the seconds-long pass `scripts/verify.sh`
//! uses.

use etude_bench::ShapeChecks;
use etude_cluster::{Deployment, DeploymentSpec, PodLoadStats};
use etude_core::runner::service_profile;
use etude_core::spec::ExperimentSpec;
use etude_faults::{FaultInjector, FaultKind, FaultPlan};
use etude_loadgen::{LoadConfig, LoadTestResult, SimLoadGen};
use etude_models::ModelKind;
use etude_obs::{SloMonitor, SloPolicy, SloReport};
use etude_simnet::Sim;
use etude_workload::SyntheticWorkload;
use std::time::Duration;

struct BenchPlan {
    replicas: Vec<usize>,
    catalog: usize,
    target_rps: u64,
    ramp: Duration,
    hold: Duration,
}

struct Cell {
    replicas: usize,
    faulted: bool,
    load: LoadTestResult,
    report: SloReport,
    pods: Vec<PodLoadStats>,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let plan = if smoke {
        BenchPlan {
            replicas: vec![2],
            catalog: 300,
            target_rps: 100,
            ramp: Duration::from_secs(6),
            hold: Duration::from_secs(5),
        }
    } else {
        BenchPlan {
            replicas: vec![1, 2, 4],
            catalog: 10_000,
            target_rps: 200,
            ramp: Duration::from_secs(12),
            hold: Duration::from_secs(8),
        }
    };
    println!(
        "== fleet_timeline: SLO burn under chaos x replicas ({} mode) ==\n",
        if smoke { "smoke" } else { "full" }
    );
    println!(
        "{:>8}  {:>6}  {:>6}  {:>6}  {:>7}  {:>9}  {:>8}  cause",
        "replicas", "chaos", "sent", "ok", "errors", "burn", "at_tick"
    );

    let mut cells = Vec::new();
    for &n in &plan.replicas {
        for faulted in [false, true] {
            let cell = drive(&plan, n, faulted);
            let (tick, cause) = match cell.report.violation {
                Some(v) => (v.tick.to_string(), v.cause.name()),
                None => ("-".into(), "-"),
            };
            println!(
                "{:>8}  {:>6}  {:>6}  {:>6}  {:>7}  {:>9.2}  {:>8}  {}",
                cell.replicas,
                cell.faulted,
                cell.load.sent,
                cell.load.ok,
                cell.load.errors,
                cell.report.burn,
                tick,
                cause
            );
            cells.push(cell);
        }
    }
    println!();
    let checks = report_claims(&cells);
    write_summary(&cells, smoke);
    checks.finish();
}

/// One cell: deploy, crash replica 0 mid-ramp, drop packets during the
/// hold, evaluate the SLO over the whole timeline.
fn drive(plan: &BenchPlan, replicas: usize, faulted: bool) -> Cell {
    let spec = ExperimentSpec::new(
        ModelKind::Core,
        plan.catalog,
        etude_cluster::InstanceType::CpuE2,
    )
    .with_replicas(replicas)
    .with_target_rps(plan.target_rps)
    .with_ramp(plan.ramp);
    let profile = service_profile(&spec);
    let deployment_spec = DeploymentSpec {
        instance: spec.instance,
        replicas,
        model_bytes: spec.model_bytes(),
        node_budget: None,
    };

    let mut sim = Sim::new();
    let deployment =
        Deployment::create(&mut sim, deployment_spec, &profile).expect("cell spec is feasible");
    sim.run_until(deployment.ready_at());
    let start = sim.now();
    let since_zero = start.as_duration();

    // Fault windows are anchored on the load start so every cell sees
    // the same relative schedule regardless of startup time: replica 0
    // crashes during the ramp, the network drops during the hold.
    let fault_plan = if faulted {
        FaultPlan::seeded(2033)
            .with_window(
                since_zero + plan.ramp / 2,
                since_zero + plan.ramp / 2 + Duration::from_secs(2),
                FaultKind::Crash,
            )
            .with_window(
                since_zero + plan.ramp + Duration::from_secs(1),
                since_zero + plan.ramp + Duration::from_secs(3),
                FaultKind::Drop { prob: 0.4 },
            )
    } else {
        FaultPlan::calm()
    };
    let injector = FaultInjector::new(fault_plan);
    // Only the first replica crashes — the point of the sweep is to
    // watch the survivors absorb its traffic.
    deployment.pods()[0].schedule_crashes(&mut sim, &injector);

    let workload = SyntheticWorkload::new(spec.workload_config());
    let expected =
        plan.target_rps * plan.ramp.as_secs() / 2 + plan.target_rps * (plan.hold.as_secs() + 2);
    let log = workload.generate(expected + 1_000);
    let handle = SimLoadGen::schedule_with_faults(
        &mut sim,
        deployment.service(),
        &log,
        LoadConfig {
            target_rps: plan.target_rps,
            ramp: plan.ramp,
            duration: plan.ramp + plan.hold,
            backpressure: true,
            seed: spec.seed,
        },
        start,
        injector,
    );
    sim.run_to_completion();
    let load = handle.collect();
    let monitor = SloMonitor::new(SloPolicy::from_target(spec.latency_slo));
    let report = monitor.evaluate(&load.series, &load.attribution);
    Cell {
        replicas,
        faulted,
        load,
        report,
        pods: deployment.service().pod_summaries(),
    }
}

/// Prints the bench's headline claims against the collected cells.
fn report_claims(cells: &[Cell]) -> ShapeChecks {
    let mut checks = ShapeChecks::default();
    let calm_quiet = cells
        .iter()
        .filter(|c| !c.faulted)
        .all(|c| c.report.violation.is_none());
    checks.check("calm baselines never page", calm_quiet);
    let chaos_pages = cells
        .iter()
        .filter(|c| c.faulted)
        .all(|c| c.report.violation.is_some());
    checks.check("every chaos cell fires its SLO alert", chaos_pages);
    let skewed = cells
        .iter()
        .filter(|c| c.faulted && c.replicas >= 2)
        .all(|c| {
            let crashed = c.pods.iter().find(|p| p.id == 0).map_or(0, |p| p.served);
            c.pods
                .iter()
                .filter(|p| p.id != 0)
                .all(|p| p.served > crashed)
        });
    checks.check(
        "survivors out-serve the crashed replica (serving skew)",
        skewed,
    );
    checks
}

/// Writes the JSON artifact the results pipeline consumes.
fn write_summary(cells: &[Cell], smoke: bool) {
    let mut body = String::new();
    for cell in cells {
        if !body.is_empty() {
            body.push_str(",\n");
        }
        let violation = match cell.report.violation {
            Some(v) => format!(
                "{{\"tick\": {}, \"cause\": \"{}\", \"short_burn\": {:.3}, \
                 \"long_burn\": {:.3}, \"bad\": {}, \"total\": {}}}",
                v.tick,
                v.cause.name(),
                v.short_burn,
                v.long_burn,
                v.bad,
                v.total
            ),
            None => "null".into(),
        };
        let pods: Vec<String> = cell
            .pods
            .iter()
            .map(|p| {
                format!(
                    "{{\"pod\": {}, \"served\": {}, \"refused\": {}, \"p99_us\": {}}}",
                    p.id,
                    p.served,
                    p.refused,
                    p.latency.p99()
                )
            })
            .collect();
        body.push_str(&format!(
            "    {{\"replicas\": {}, \"chaos\": {}, \"sent\": {}, \"ok\": {}, \
             \"errors\": {}, \"slo_total\": {}, \"slo_bad\": {}, \"burn\": {:.4}, \
             \"violation\": {violation}, \"pods\": [{}]}}",
            cell.replicas,
            cell.faulted,
            cell.load.sent,
            cell.load.ok,
            cell.load.errors,
            cell.report.total,
            cell.report.bad,
            cell.report.burn,
            pods.join(", "),
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"fleet_timeline\",\n  \"mode\": \"{}\",\n  \
         \"plan_seed\": 2033,\n  \"cells\": [\n{body}\n  ]\n}}\n",
        if smoke { "smoke" } else { "full" }
    );
    etude_bench::write_result("fleet_timeline", smoke, &json);
}
