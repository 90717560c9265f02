//! **ablation_faults** — what fault injection costs, and what retries buy.
//!
//! Sweeps seeded fault rates × client retry policies against a live
//! rustserver: each cell wraps the observed model routes in
//! [`inject_faults`] with a train of 250 ms `ErrorResponse` bursts (one
//! per second — fault draws are pure in `(elapsed, request id)`, so a
//! faulted id keeps failing *while its window is active*; only a burst
//! shorter than the retry schedule can be ridden out), then drives it
//! with the resilient load generator. The grid shows the paper-style
//! trade-off: without retries the error rate tracks the injected fault
//! rate; with bounded backoff the client absorbs the bursts at the
//! price of retry traffic.
//!
//! Every draw derives from the plan seed, so re-running a cell replays
//! the identical fault schedule. A machine-readable summary is written
//! to `results/BENCH_faults.json`, including the stage-accounting check
//! (component stage means must tile the total within 10%) against the
//! same `/stats` surface operators would scrape. Run with `--smoke` for
//! a seconds-long pass (used by `scripts/verify.sh`).

use etude_bench::ShapeChecks;
use etude_faults::{FaultInjector, FaultKind, FaultPlan, RetryPolicy};
use etude_loadgen::{LoadConfig, RealLoadGen};
use etude_models::{ModelConfig, ModelKind, SbrModel};
use etude_obs::{Recorder, Stage, StatsSnapshot};
use etude_serve::reactor::{start, ReactorConfig};
use etude_serve::rustserver::{inject_faults, model_routes_observed};
use etude_tensor::Device;
use etude_workload::{SessionLog, SyntheticWorkload, WorkloadConfig};
use std::sync::Arc;
use std::time::Duration;

struct BenchPlan {
    rates: Vec<f64>,
    catalog: usize,
    target_rps: u64,
    duration: Duration,
}

struct Cell {
    rate: f64,
    policy: &'static str,
    sent: u64,
    ok: u64,
    errors: u64,
    retries: u64,
    degraded: u64,
    injected: u64,
    stats: StatsSnapshot,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let plan = if smoke {
        BenchPlan {
            rates: vec![0.0, 0.3],
            catalog: 300,
            target_rps: 80,
            duration: Duration::from_secs(2),
        }
    } else {
        BenchPlan {
            rates: vec![0.0, 0.15, 0.4],
            catalog: 10_000,
            target_rps: 100,
            duration: Duration::from_secs(4),
        }
    };
    println!(
        "== ablation_faults: fault rate x retry policy ({} mode) ==\n",
        if smoke { "smoke" } else { "full" }
    );
    println!(
        "{:>6}  {:>6}  {:>6}  {:>6}  {:>7}  {:>8}  {:>9}",
        "rate", "policy", "sent", "ok", "errors", "retries", "injected"
    );

    let log = workload(&plan);
    let mut cells = Vec::new();
    for &rate in &plan.rates {
        for policy_name in ["none", "chaos"] {
            match drive(&plan, &log, rate, policy_name) {
                Some(cell) => {
                    println!(
                        "{:>6.2}  {:>6}  {:>6}  {:>6}  {:>7}  {:>8}  {:>9}",
                        cell.rate,
                        cell.policy,
                        cell.sent,
                        cell.ok,
                        cell.errors,
                        cell.retries,
                        cell.injected
                    );
                    cells.push(cell);
                }
                None => eprintln!("!! rate {rate} / {policy_name}: run failed"),
            }
        }
    }
    println!();
    let checks = report_claims(&cells);
    write_summary(&cells, smoke);
    checks.finish();
}

fn workload(plan: &BenchPlan) -> SessionLog {
    SyntheticWorkload::new(WorkloadConfig {
        catalog_size: plan.catalog,
        alpha_length: 2.0,
        alpha_clicks: 1.8,
        max_session_len: 20,
        seed: 4,
    })
    .generate(plan.target_rps * (plan.duration.as_secs() + 2))
}

/// Runs one grid cell: a fault-wrapped live server driven by the
/// resilient load generator under the named retry policy.
fn drive(plan: &BenchPlan, log: &SessionLog, rate: f64, policy_name: &'static str) -> Option<Cell> {
    // One 250 ms burst per second of run (plus slack for the tail). The
    // retry policy below outlasts a burst even with jitter shrinking
    // every delay, so resilient clients ride the bursts out.
    let mut fault_plan = FaultPlan::seeded(1787);
    if rate > 0.0 {
        for second in 0..plan.duration.as_secs() + 4 {
            fault_plan = fault_plan.with_window(
                Duration::from_secs(second),
                Duration::from_secs(second) + Duration::from_millis(250),
                FaultKind::ErrorResponse {
                    prob: rate,
                    status: 503,
                },
            );
        }
    }
    let injector = FaultInjector::new(fault_plan);
    let recorder = Arc::new(Recorder::new());
    let cfg = ModelConfig::new(plan.catalog)
        .with_max_session_len(16)
        .with_seed(11);
    let model: Arc<dyn SbrModel> = Arc::from(ModelKind::Core.build(&cfg));
    let routes = model_routes_observed(model, Device::cpu(), true, Arc::clone(&recorder));
    let handler = inject_faults(routes, injector.clone(), Arc::clone(&recorder));
    let server = start(ReactorConfig::default(), handler).ok()?;

    // Minimum total span with jitter halving every delay:
    // (10+20+40+80*9)/2 = 395 ms > the 250 ms burst length.
    let policy = match policy_name {
        "none" => RetryPolicy::none(),
        _ => RetryPolicy {
            base: Duration::from_millis(10),
            cap: Duration::from_millis(80),
            max_retries: 12,
            jitter: 0.5,
        },
    };
    let result = RealLoadGen::run_resilient(
        server.addr(),
        log,
        LoadConfig {
            target_rps: plan.target_rps,
            ramp: plan.duration / 2,
            duration: plan.duration,
            backpressure: true,
            seed: 9,
        },
        2,
        policy,
    )
    .ok()?;
    let stats = result.server_stages.clone()?;
    server.shutdown();
    Some(Cell {
        rate,
        policy: policy_name,
        sent: result.sent,
        ok: result.ok,
        errors: result.errors,
        retries: result.retries,
        degraded: result.degraded,
        injected: injector.counters().errors(),
        stats,
    })
}

/// Whether the component stage means tile the total within 10% — the
/// accounting invariant every cell's `/stats` scrape must satisfy.
fn stage_tiling(stats: &StatsSnapshot) -> Option<(f64, f64, bool)> {
    let total = stats.stage(Stage::Total.name()).filter(|t| t.count > 0)?;
    let sum: f64 = Stage::COMPONENTS
        .iter()
        .filter_map(|s| stats.stage(s.name()))
        .map(|s| s.mean_us)
        .sum();
    let consistent = (total.mean_us - sum).abs() <= total.mean_us * 0.1;
    Some((sum, total.mean_us, consistent))
}

/// Prints the ablation's headline claims against the collected grid.
fn report_claims(cells: &[Cell]) -> ShapeChecks {
    let mut checks = ShapeChecks::default();
    for cell in cells {
        match stage_tiling(&cell.stats) {
            Some((sum, total, consistent)) => checks.check(
                format!(
                    "rate {:.2}/{}: stage means sum to {sum:.1}us vs total {total:.1}us",
                    cell.rate, cell.policy,
                ),
                consistent,
            ),
            None => println!(
                "  [--] rate {:.2}/{}: no completed requests to account for",
                cell.rate, cell.policy
            ),
        }
    }
    let absorbed = cells
        .iter()
        .filter(|c| c.rate > 0.0 && c.policy == "chaos")
        .all(|c| c.errors * 10 < c.injected.max(1));
    checks.check(
        "bounded backoff absorbs injected faults (errors << injected)",
        absorbed,
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
        let (stage_sum, total, consistent) = stage_tiling(&cell.stats).unwrap_or((0.0, 0.0, true));
        body.push_str(&format!(
            "    {{\"fault_rate\": {}, \"policy\": \"{}\", \"sent\": {}, \"ok\": {}, \
             \"errors\": {}, \"retries\": {}, \"degraded\": {}, \"injected_faults\": {}, \
             \"server_requests\": {}, \"server_shed\": {}, \"server_faults\": {}, \
             \"stage_sum_us\": {:.3}, \"stage_total_us\": {:.3}, \"stages_consistent\": {}}}",
            cell.rate,
            cell.policy,
            cell.sent,
            cell.ok,
            cell.errors,
            cell.retries,
            cell.degraded,
            cell.injected,
            cell.stats.requests,
            cell.stats.shed,
            cell.stats.faults,
            stage_sum,
            total,
            consistent,
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"ablation_faults\",\n  \"mode\": \"{}\",\n  \
         \"plan_seed\": 1787,\n  \"client_seed\": 9,\n  \"cells\": [\n{body}\n  ]\n}}\n",
        if smoke { "smoke" } else { "full" }
    );
    etude_bench::write_result("faults", smoke, &json);
}
