//! **autoscale_timeline** — the SLO-driven autoscaler relieving an
//! under-provisioned deployment.
//!
//! Two cells per target rate: a *fixed* single-replica deployment of the
//! Core model on a large catalog (the paper's Section III-C setting
//! where one CPU machine drowns), and the same spec with the control
//! plane's autoscaler enabled. The autoscaled run should grow the fleet
//! under queue/latency pressure, journal every decision, and deliver a
//! visibly better steady-state tail than the fixed run at the same rate.
//!
//! Everything is seeded, so the decision journal replays byte-for-byte —
//! the bench asserts that by running one cell twice. The summary lands
//! in `results/BENCH_autoscale.json`; `--smoke` is the seconds-long pass
//! `scripts/verify.sh` uses.

use etude_cluster::InstanceType;
use etude_control::{AutoscalerConfig, ControlAction};
use etude_core::results::ExperimentResult;
use etude_core::runner::run_experiment;
use etude_core::spec::ExperimentSpec;
use etude_models::ModelKind;
use std::time::Duration;

struct BenchPlan {
    catalog: usize,
    rates: Vec<u64>,
    ramp: Duration,
    max_replicas: usize,
}

struct Cell {
    target_rps: u64,
    autoscaled: bool,
    result: ExperimentResult,
    /// Replica count after the last scale decision (1 when none fired).
    final_replicas: usize,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let plan = if smoke {
        BenchPlan {
            catalog: 1_000_000,
            rates: vec![250],
            ramp: Duration::from_secs(10),
            max_replicas: 6,
        }
    } else {
        BenchPlan {
            catalog: 1_000_000,
            rates: vec![150, 300],
            ramp: Duration::from_secs(20),
            max_replicas: 8,
        }
    };
    println!(
        "== autoscale_timeline: SLO-driven autoscaler vs fixed fleet ({} mode) ==\n",
        if smoke { "smoke" } else { "full" }
    );
    println!(
        "{:>6}  {:>10}  {:>6}  {:>7}  {:>8}  {:>9}  {:>8}  {:>8}",
        "rps", "mode", "sent", "errors", "p90_ms", "thruput", "scaleups", "replicas"
    );

    let mut cells = Vec::new();
    for &rps in &plan.rates {
        for autoscaled in [false, true] {
            let cell = drive(&plan, rps, autoscaled);
            println!(
                "{:>6}  {:>10}  {:>6}  {:>7}  {:>8.1}  {:>9.1}  {:>8}  {:>8}",
                cell.target_rps,
                if cell.autoscaled {
                    "autoscaled"
                } else {
                    "fixed"
                },
                cell.result.load.sent,
                cell.result.load.errors,
                cell.result.p90().as_secs_f64() * 1e3,
                cell.result.throughput(),
                cell.result.journal.of(ControlAction::ScaleUp).len(),
                cell.final_replicas,
            );
            cells.push(cell);
        }
    }
    println!();
    report_claims(&plan, &cells);
    write_summary(&cells, smoke);
}

/// One cell: the Section III-C under-provisioned spec, with or without
/// the autoscaler closing the loop.
fn drive(plan: &BenchPlan, rps: u64, autoscaled: bool) -> Cell {
    let mut spec = ExperimentSpec::new(ModelKind::Core, plan.catalog, InstanceType::CpuE2)
        .with_target_rps(rps)
        .with_ramp(plan.ramp);
    if autoscaled {
        spec = spec.with_autoscaler(AutoscalerConfig {
            max_replicas: plan.max_replicas,
            ..AutoscalerConfig::default()
        });
    }
    let result = run_experiment(&spec);
    let final_replicas = result
        .journal
        .entries
        .iter()
        .rev()
        .find(|e| matches!(e.action, ControlAction::ScaleUp | ControlAction::ScaleDown))
        .map_or(1, |e| e.b as usize);
    Cell {
        target_rps: rps,
        autoscaled,
        result,
        final_replicas,
    }
}

/// Prints the bench's headline claims against the collected cells.
fn report_claims(plan: &BenchPlan, cells: &[Cell]) {
    let fixed_drowns = cells
        .iter()
        .filter(|c| !c.autoscaled)
        .all(|c| !c.result.feasible);
    println!(
        "  [{}] one fixed CPU replica misses the SLO at every rate",
        if fixed_drowns { "ok" } else { "!!" }
    );
    let scaled_up = cells
        .iter()
        .filter(|c| c.autoscaled)
        .all(|c| !c.result.journal.of(ControlAction::ScaleUp).is_empty() && c.final_replicas > 1);
    println!(
        "  [{}] pressure scales every autoscaled cell past one replica",
        if scaled_up { "ok" } else { "!!" }
    );
    let relieved = cells.iter().filter(|c| c.autoscaled).all(|c| {
        let fixed = cells
            .iter()
            .find(|f| !f.autoscaled && f.target_rps == c.target_rps)
            .expect("paired fixed cell");
        c.result.p90() < fixed.result.p90()
    });
    println!(
        "  [{}] the grown fleet beats the fixed fleet's steady p90",
        if relieved { "ok" } else { "!!" }
    );
    // Determinism: re-running the first autoscaled cell reproduces its
    // decision journal byte-for-byte.
    let first = cells
        .iter()
        .find(|c| c.autoscaled)
        .expect("an autoscaled cell exists");
    let replay = drive(plan, first.target_rps, true);
    let identical = replay.result.journal.render_json() == first.result.journal.render_json();
    println!(
        "  [{}] the decision journal replays byte-for-byte",
        if identical { "ok" } else { "!!" }
    );
}

/// Writes the JSON artifact the results pipeline consumes.
fn write_summary(cells: &[Cell], smoke: bool) {
    let mut body = String::new();
    for cell in cells {
        if !body.is_empty() {
            body.push_str(",\n");
        }
        body.push_str(&format!(
            "    {{\"target_rps\": {}, \"autoscaled\": {}, \"sent\": {}, \"ok\": {}, \
             \"errors\": {}, \"p90_us\": {}, \"throughput\": {:.1}, \"feasible\": {}, \
             \"final_replicas\": {}, \"journal\": {}}}",
            cell.target_rps,
            cell.autoscaled,
            cell.result.load.sent,
            cell.result.load.ok,
            cell.result.load.errors,
            cell.result.p90().as_micros(),
            cell.result.throughput(),
            cell.result.feasible,
            cell.final_replicas,
            cell.result.journal.render_json(),
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"autoscale_timeline\",\n  \"mode\": \"{}\",\n  \
         \"cells\": [\n{body}\n  ]\n}}\n",
        if smoke { "smoke" } else { "full" }
    );
    etude_bench::write_result("autoscale", smoke, &json);
}
