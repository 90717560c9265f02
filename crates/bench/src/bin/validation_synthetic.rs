//! **Section III-A (validation)** — Synthetic vs real click workload.
//!
//! The paper validates Algorithm 1 by comparing "the latency measurements
//! achieved by replaying a real click log from bol.com to the
//! measurements achieved when using a synthetic workload generated based
//! on statistics from the real click log", finding that "the achieved
//! latencies resemble each other closely".
//!
//! The proprietary log is simulated by a *richer* generative process
//! (Zipf popularity with browsing locality and mixed session lengths);
//! its two marginal exponents are then *estimated* — exactly as a data
//! scientist would — and fed to Algorithm 1. Both workloads replay
//! against the same deployment.

use etude_bench::{HarnessOptions, ShapeChecks};
use etude_loadgen::{LoadConfig, SimLoadGen};
use etude_metrics::report::{fmt_duration, Table};
use etude_metrics::LatencySummary;
use etude_models::{ModelConfig, ModelKind};
use etude_serve::service::ExecutionKind;
use etude_serve::simserver::{RustServerConfig, SimRustServer};
use etude_serve::ServiceProfile;
use etude_tensor::Device;
use etude_workload::reallog::{generate_real_log, RealLogConfig};
use etude_workload::{LogStatistics, SyntheticWorkload};

fn main() {
    let opts = HarnessOptions::from_args();
    println!("== Validation: real click-log replay vs fitted synthetic workload ==\n");

    let catalog = 100_000;
    let target_rps = 400;
    let clicks = target_rps * opts.ramp_secs;

    // The stand-in for the real bol.com click log.
    let real_cfg = RealLogConfig {
        catalog_size: catalog,
        ..Default::default()
    };
    let real_log = generate_real_log(&real_cfg, clicks);

    // Fit the two marginal statistics from it (the only thing ETUDE
    // users must provide) and generate the synthetic counterpart.
    let stats = LogStatistics::estimate(&real_log, catalog).expect("log large enough");
    println!(
        "fitted marginals: alpha_length = {:.3}, alpha_clicks = {:.3} ({} sessions, {} clicks)\n",
        stats.alpha_length, stats.alpha_clicks, stats.sessions, stats.clicks
    );
    let synthetic = SyntheticWorkload::new(stats.to_workload_config(catalog, 99));
    let synth_log = synthetic.generate(clicks);

    // Replay both against identical deployments.
    let run = |log: &etude_workload::SessionLog| {
        let profile = ServiceProfile::build(
            ModelKind::Core,
            &ModelConfig::new(catalog).without_weights(),
            &Device::cpu(),
            ExecutionKind::Jit,
        )
        .expect("profile");
        let server = SimRustServer::new(profile, RustServerConfig::cpu(5));
        SimLoadGen::run(
            server,
            log,
            LoadConfig::scaled_rampup(target_rps, opts.ramp_secs),
        )
    };
    let real_result = run(&real_log);
    let synth_result = run(&synth_log);

    let mut table = Table::new([
        "workload", "requests", "p50", "p90", "p99", "mean", "errors",
    ]);
    let mut row = |name: &str, s: &LatencySummary| {
        table.row([
            name.to_string(),
            s.count.to_string(),
            fmt_duration(s.p50),
            fmt_duration(s.p90),
            fmt_duration(s.p99),
            fmt_duration(s.mean),
            s.errors.to_string(),
        ]);
    };
    let real_summary = real_result.summary();
    let synth_summary = synth_result.summary();
    row("real-log replay", &real_summary);
    row("synthetic (fitted)", &synth_summary);
    opts.emit("validation_synthetic", &table);

    let rel = |a: f64, b: f64| (a - b).abs() / a.max(1e-12);
    let p90_gap = rel(
        real_summary.p90.as_secs_f64(),
        synth_summary.p90.as_secs_f64(),
    );
    let mean_gap = rel(
        real_summary.mean.as_secs_f64(),
        synth_summary.mean.as_secs_f64(),
    );
    println!("paper shape checks:");
    let mut checks = ShapeChecks::default();
    checks.check(
        format!(
            "p90 latencies resemble each other closely ({:.1}% apart)",
            100.0 * p90_gap
        ),
        p90_gap < 0.15,
    );
    checks.check(
        format!(
            "mean latencies resemble each other closely ({:.1}% apart)",
            100.0 * mean_gap
        ),
        mean_gap < 0.15,
    );
    checks.finish();
}
