//! **Figure 4** — End-to-end benchmark: observed latency and throughput
//! of the SBR models in deployment scenarios with varying instance types.
//!
//! For each (scenario, instance, model) cell the load generator ramps to
//! the scenario's target rate; the figure plots achieved throughput and
//! p90 latency over the ramp. The paper's findings: catalogs up to 10^5
//! are fine on CPUs; at 10^6 CPU latency degrades to ~200 ms while a T4
//! sustains >700 req/s under 50 ms; at 10^7 only GPUs keep up; at
//! 2*10^7 only A100s.

use etude_bench::{median_of, HarnessOptions, ShapeChecks};
use etude_cluster::InstanceType;
use etude_core::{run_experiment, ExperimentResult, ExperimentSpec, Scenario};
use etude_metrics::report::{fmt_duration, Table};
use etude_models::ModelKind;

fn main() {
    let opts = HarnessOptions::from_args();
    println!("== Figure 4: end-to-end latency/throughput per scenario, instance, model ==\n");

    let scenarios = [
        Scenario::GROCERIES_LARGE,
        Scenario::FASHION,
        Scenario::ECOMMERCE,
        Scenario::PLATFORM,
    ];
    let instances = InstanceType::ALL;

    let mut summary = Table::new([
        "scenario",
        "instance",
        "model",
        "target_rps",
        "achieved_rps",
        "p90",
        "errors",
        "feasible",
    ]);
    let mut cells: Vec<(Scenario, InstanceType, ModelKind, ExperimentResult)> = Vec::new();

    for scenario in scenarios {
        for instance in instances {
            for model in ModelKind::ALL {
                let spec: ExperimentSpec = scenario.spec(model, instance).with_ramp(opts.ramp());
                let result = median_of(
                    opts.repetitions,
                    |rep| run_experiment(&spec.clone().with_seed(42 + rep as u64)),
                    |r: &ExperimentResult| r.p90().as_secs_f64(),
                );
                summary.row([
                    scenario.name.to_string(),
                    instance.name().to_string(),
                    model.name().to_string(),
                    scenario.target_rps.to_string(),
                    format!("{:.0}", result.throughput()),
                    fmt_duration(result.p90()),
                    result.load.errors.to_string(),
                    if result.feasible { "yes" } else { "no" }.to_string(),
                ]);
                cells.push((scenario, instance, model, result));
            }
        }
    }
    opts.emit("fig4_e2e_summary", &summary);

    // Detailed ramp series for the paper's highlighted cells.
    let mut series = Table::new(["cell", "tick", "attempted", "achieved", "p90", "errors"]);
    for (scenario, instance, model) in [
        (Scenario::FASHION, InstanceType::CpuE2, ModelKind::Core),
        (Scenario::FASHION, InstanceType::GpuT4, ModelKind::Core),
        (Scenario::ECOMMERCE, InstanceType::GpuT4, ModelKind::SasRec),
        (Scenario::PLATFORM, InstanceType::GpuA100, ModelKind::Stamp),
    ] {
        let spec = scenario.spec(model, instance).with_ramp(opts.ramp());
        let result = run_experiment(&spec);
        let label = format!("{}/{}/{}", scenario.name, instance.name(), model.name());
        let rows = result.load.series.rows();
        let step = (rows.len() / 12).max(1);
        for row in rows.iter().step_by(step) {
            series.row([
                label.clone(),
                row.0.to_string(),
                row.1.to_string(),
                row.2.to_string(),
                fmt_duration(row.3),
                row.4.to_string(),
            ]);
        }
    }
    opts.emit("fig4_e2e_series", &series);

    println!("paper shape checks:");
    let mut checks = ShapeChecks::default();

    let feasible = |s: Scenario, i: InstanceType, m: ModelKind| {
        cells
            .iter()
            .find(|(cs, ci, cm, _)| *cs == s && *ci == i && *cm == m)
            .map(|(_, _, _, r)| r.feasible)
            .unwrap_or(false)
    };

    checks.check(
        "groceries (large) handled by CPU instances for all Table-I models",
        ModelKind::TABLE1
            .iter()
            .all(|&m| feasible(Scenario::GROCERIES_LARGE, InstanceType::CpuE2, m)),
    );
    checks.check(
        "fashion infeasible on a single CPU instance",
        ModelKind::TABLE1
            .iter()
            .all(|&m| !feasible(Scenario::FASHION, InstanceType::CpuE2, m)),
    );
    checks.check(
        "fashion easily handled by a single T4",
        ModelKind::TABLE1
            .iter()
            .all(|&m| feasible(Scenario::FASHION, InstanceType::GpuT4, m)),
    );
    checks.check(
        "platform (20M items) infeasible on one T4, feasible cells only on A100s",
        ModelKind::TABLE1
            .iter()
            .all(|&m| !feasible(Scenario::PLATFORM, InstanceType::GpuT4, m)),
    );
    checks.check(
        "quirky models (SR-GNN, GC-SAN, RepeatNet) fail scenarios the fixed set handles",
        ModelKind::WITH_IMPLEMENTATION_ERRORS
            .iter()
            .filter(|&&m| m != ModelKind::LightSans)
            .any(|&m| !feasible(Scenario::ECOMMERCE, InstanceType::GpuT4, m)),
    );
    checks.finish();
}
