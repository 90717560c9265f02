//! **Design ablation** — Backpressure-aware vs open-loop load generation.
//!
//! Algorithm 2 pauses when the pending-request count reaches the current
//! rate, so experiments against an overloaded server degrade gracefully
//! and the failure threshold stays measurable. This ablation overloads a
//! CPU deployment with a million-item catalog and compares the two modes.

use etude_bench::{HarnessOptions, ShapeChecks};
use etude_loadgen::{LoadConfig, SimLoadGen};
use etude_metrics::report::{fmt_duration, Table};
use etude_models::{ModelConfig, ModelKind};
use etude_serve::service::ExecutionKind;
use etude_serve::simserver::{RustServerConfig, SimRustServer};
use etude_serve::ServiceProfile;
use etude_tensor::Device;
use etude_workload::{SyntheticWorkload, WorkloadConfig};

fn main() {
    let opts = HarnessOptions::from_args();
    println!("== Ablation: backpressure-aware vs open-loop load generation ==\n");

    let catalog = 1_000_000;
    let target = 500u64; // far beyond one CPU machine's ~100 req/s
    let profile = || {
        ServiceProfile::build(
            ModelKind::Gru4Rec,
            &ModelConfig::new(catalog).without_weights(),
            &Device::cpu(),
            ExecutionKind::Jit,
        )
        .expect("profile")
    };
    let workload = SyntheticWorkload::new(WorkloadConfig::bolcom_like(catalog));
    let log = workload.generate(target * opts.ramp_secs);

    let mut table = Table::new([
        "mode",
        "sent",
        "ok",
        "suppressed",
        "max_p90",
        "peak_pending_proxy",
    ]);
    let mut results = Vec::new();
    for (name, backpressure) in [("backpressure", true), ("open-loop", false)] {
        let server = SimRustServer::new(profile(), RustServerConfig::cpu(5));
        let config = LoadConfig {
            backpressure,
            ..LoadConfig::scaled_rampup(target, opts.ramp_secs)
        };
        let result = SimLoadGen::run(server, &log, config);
        let max_p90 = result
            .series
            .rows()
            .iter()
            .map(|r| r.3)
            .max()
            .unwrap_or_default();
        // In-flight proxy: sent minus completed.
        let in_flight = result.sent - result.ok - result.errors;
        table.row([
            name.to_string(),
            result.sent.to_string(),
            result.ok.to_string(),
            result.suppressed.to_string(),
            fmt_duration(max_p90),
            in_flight.to_string(),
        ]);
        results.push((backpressure, result, max_p90));
    }
    opts.emit("ablation_backpressure", &table);

    let bp = &results[0];
    let ol = &results[1];
    println!("paper shape checks:");
    let mut checks = ShapeChecks::default();
    checks.check(
        format!(
            "backpressure suppresses load on a collapsing server ({} slots skipped)",
            bp.1.suppressed
        ),
        bp.1.suppressed > 0,
    );
    checks.check(
        format!(
            "open loop floods the server with more requests ({} vs {})",
            ol.1.sent, bp.1.sent
        ),
        ol.1.sent as f64 > 1.2 * bp.1.sent as f64,
    );
    checks.check(
        format!(
            "graceful degradation: bounded latency under backpressure ({} vs {})",
            fmt_duration(bp.2),
            fmt_duration(ol.2)
        ),
        bp.2 < ol.2,
    );
    checks.finish();
}
