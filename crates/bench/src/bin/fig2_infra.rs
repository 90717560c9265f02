//! **Figure 2** — Infrastructure test: answering 1,000 requests/s
//! *without model inference*.
//!
//! The paper deploys TorchServe with "a Python model that returns an
//! empty response and does not conduct any computation" on a 2 vCPU
//! machine and ramps the load generator to 1,000 req/s over ten minutes.
//! TorchServe starts throwing HTTP errors early (its internal 100 ms
//! timeout) and serves survivors at 100–200 ms p90, while the Actix-based
//! Rust server handles the full ramp at ~1 ms p90 with zero errors.

use etude_bench::{HarnessOptions, ShapeChecks};
use etude_loadgen::{LoadConfig, SimLoadGen};
use etude_metrics::report::{fmt_duration, Table};
use etude_serve::simserver::{RustServerConfig, SimRustServer, SimTorchServe};
use etude_serve::{ServiceProfile, TorchServeProfile};
use etude_tensor::Device;
use etude_workload::{SyntheticWorkload, WorkloadConfig};

fn main() {
    let opts = HarnessOptions::from_args();
    println!("== Figure 2: infrastructure test (static responses, ramp to 1,000 req/s) ==\n");

    let workload = SyntheticWorkload::new(WorkloadConfig::bolcom_like(10_000));
    let expected = 1_000 * opts.ramp_secs / 2 + 10_000;
    let log = workload.generate(expected);
    let config = LoadConfig::scaled_rampup(1_000, opts.ramp_secs);

    // TorchServe baseline: 2 vCPU machine, Python workers, 100 ms timeout.
    let torchserve = SimTorchServe::new(
        TorchServeProfile::default(),
        ServiceProfile::static_response(&Device::cpu()),
    );
    let ts_result = SimLoadGen::run(torchserve, &log, config.clone());

    // The Rust server on the same class of machine.
    let rust = SimRustServer::new(
        ServiceProfile::static_response(&Device::cpu()),
        RustServerConfig::cpu(2),
    );
    let rust_result = SimLoadGen::run(rust, &log, config);

    let mut series = Table::new([
        "tick",
        "target_rps",
        "ts_ok",
        "ts_err",
        "ts_p90",
        "rust_ok",
        "rust_err",
        "rust_p90",
    ]);
    let ts_rows = ts_result.series.rows();
    let rust_rows = rust_result.series.rows();
    let step = (opts.ramp_secs / 20).max(1) as usize;
    for i in (0..ts_rows.len().min(rust_rows.len())).step_by(step) {
        let (tick, sent, ts_ok, ts_p90, ts_err) = ts_rows[i];
        let (_, _, r_ok, r_p90, r_err) = rust_rows[i];
        series.row([
            tick.to_string(),
            sent.to_string(),
            ts_ok.to_string(),
            ts_err.to_string(),
            fmt_duration(ts_p90),
            r_ok.to_string(),
            r_err.to_string(),
            fmt_duration(r_p90),
        ]);
    }
    opts.emit("fig2_infra_series", &series);

    let mut summary = Table::new(["server", "ok", "errors", "p90", "p99", "max"]);
    for (name, result) in [("torchserve", &ts_result), ("rust-actix", &rust_result)] {
        let s = result.summary();
        summary.row([
            name.to_string(),
            s.count.to_string(),
            s.errors.to_string(),
            fmt_duration(s.p90),
            fmt_duration(s.p99),
            fmt_duration(s.max),
        ]);
    }
    opts.emit("fig2_infra_summary", &summary);

    let ts = ts_result.summary();
    let rs = rust_result.summary();
    println!("paper shape checks:");
    let mut checks = ShapeChecks::default();
    checks.check(
        format!(
            "torchserve returns a large number of HTTP errors ({})",
            ts.errors
        ),
        ts.errors > opts.ramp_secs * 5,
    );
    checks.check(
        format!(
            "torchserve p90 in the 100-200ms band ({})",
            fmt_duration(ts.p90)
        ),
        ts.p90.as_millis() >= 50 && ts.p90.as_millis() <= 400,
    );
    checks.check(
        format!(
            "rust server p90 around one millisecond ({})",
            fmt_duration(rs.p90)
        ),
        rs.p90.as_millis() <= 2,
    );
    checks.check(
        format!("rust server throws no errors ({})", rs.errors),
        rs.errors == 0,
    );
    checks.finish();
}
