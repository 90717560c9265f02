//! **Table I** — Cost-efficient deployment options for SBR models in the
//! five e-Commerce scenarios.
//!
//! For every scenario and instance type, the harness searches the
//! smallest replica count meeting the paper's feasibility bar (p90 <= 50
//! ms at the target throughput) and prints the per-model checkmarks and
//! monthly costs, boldface... well, an asterisk marking the cheapest
//! option. The four models with RecBole implementation errors are
//! excluded, exactly as in the paper.

use etude_bench::{HarnessOptions, ShapeChecks};
use etude_core::analysis::{cheapest_deployment, scan_deployments, FeasibilityVerdict};
use etude_core::Scenario;
use etude_metrics::report::{fmt_cost, Table};
use etude_models::ModelKind;
use std::collections::BTreeMap;

fn main() {
    let opts = HarnessOptions::from_args();
    println!("== Table I: cost-efficient deployment options (p90 <= 50ms) ==\n");

    let mut table = Table::new([
        "scenario",
        "catalog",
        "rps",
        "option",
        "amount",
        "cost/month",
        "core",
        "gru4rec",
        "narm",
        "sasrec",
        "sine",
        "stamp",
    ]);

    for scenario in Scenario::ALL {
        // (instance, replicas) -> per-model feasibility.
        let mut options: BTreeMap<(&str, usize), Vec<(ModelKind, bool)>> = BTreeMap::new();
        let mut per_model_best: Vec<(ModelKind, Option<FeasibilityVerdict>)> = Vec::new();
        for model in ModelKind::TABLE1 {
            let verdicts = scan_deployments(&scenario, model, opts.ramp(), true);
            for v in &verdicts {
                options
                    .entry((v.instance.name(), v.replicas))
                    .or_default()
                    .push((model, v.feasible));
            }
            per_model_best.push((model, cheapest_deployment(&verdicts).cloned()));
        }
        // The cheapest option that serves at least one model.
        let cheapest_cost = per_model_best
            .iter()
            .filter_map(|(_, v)| v.as_ref().map(|v| v.monthly_cost))
            .fold(f64::INFINITY, f64::min);

        // Render one row per (instance, replicas) option that at least one
        // model's search visited and where at least one model succeeded —
        // plus the "no model works" options on the largest count tried.
        let mut shown = Vec::new();
        for ((instance, replicas), feas) in &options {
            let any_feasible = feas.iter().any(|(_, ok)| *ok);
            if any_feasible {
                shown.push((*instance, *replicas, feas.clone()));
            }
        }
        if shown.is_empty() {
            table.row(vec![
                scenario.name.to_string(),
                scenario.catalog_size.to_string(),
                scenario.target_rps.to_string(),
                "(none feasible)".to_string(),
            ]);
            continue;
        }
        for (instance, replicas, feas) in shown {
            let cost = etude_cluster::InstanceType::parse(instance)
                .map(|i| i.monthly_cost() * replicas as f64)
                .unwrap_or(0.0);
            let marker = if (cost - cheapest_cost).abs() < 0.01 {
                "*"
            } else {
                ""
            };
            let mut row = vec![
                scenario.name.to_string(),
                scenario.catalog_size.to_string(),
                scenario.target_rps.to_string(),
                format!("{instance}{marker}"),
                replicas.to_string(),
                fmt_cost(cost),
            ];
            for model in ModelKind::TABLE1 {
                let mark = feas
                    .iter()
                    .find(|(m, _)| *m == model)
                    .map(|(_, ok)| if *ok { "yes" } else { "" })
                    .unwrap_or("");
                row.push(mark.to_string());
            }
            table.row(row);
        }
    }
    opts.emit("table1_cost", &table);

    println!("paper shape checks:");
    shape_checks(&opts).finish();
}

fn shape_checks(opts: &HarnessOptions) -> ShapeChecks {
    use etude_cluster::InstanceType;
    let mut checks = ShapeChecks::default();

    // (i) Groceries runs on one $108 CPU machine.
    let groceries = scan_deployments(
        &Scenario::GROCERIES_SMALL,
        ModelKind::Core,
        opts.ramp(),
        true,
    );
    let best = cheapest_deployment(&groceries);
    checks.check(
        "groceries (small) served by a single CPU machine for $108",
        matches!(best, Some(v) if v.instance == InstanceType::CpuE2 && v.replicas == 1),
    );

    // (ii) Fashion: one GPU-T4 is the cheapest option.
    let fashion = scan_deployments(&Scenario::FASHION, ModelKind::SasRec, opts.ramp(), true);
    let best = cheapest_deployment(&fashion);
    checks.check(
        "fashion served cheapest by a single GPU-T4 ($268)",
        matches!(best, Some(v) if v.instance == InstanceType::GpuT4 && v.replicas == 1),
    );

    // (iii) e-Commerce: T4 scale-out beats A100s on cost.
    let ecommerce = scan_deployments(&Scenario::ECOMMERCE, ModelKind::Gru4Rec, opts.ramp(), true);
    let t4 = ecommerce
        .iter()
        .find(|v| v.instance == InstanceType::GpuT4 && v.feasible);
    let a100 = ecommerce
        .iter()
        .find(|v| v.instance == InstanceType::GpuA100 && v.feasible);
    checks.check(
        "e-Commerce: several T4s are cheaper than fewer A100s",
        matches!((t4, a100), (Some(t), Some(a)) if t.replicas > a.replicas
            && t.monthly_cost < a.monthly_cost),
    );

    // (iv) Platform: only A100 deployments are feasible.
    let platform = scan_deployments(&Scenario::PLATFORM, ModelKind::Narm, opts.ramp(), true);
    let only_a100 = platform
        .iter()
        .all(|v| !v.feasible || v.instance == InstanceType::GpuA100);
    let a100_works = platform
        .iter()
        .any(|v| v.feasible && v.instance == InstanceType::GpuA100);
    checks.check(
        "platform (20M items) requires GPU-A100s",
        only_a100 && a100_works,
    );
    checks
}
