//! A real inference server under real load — no simulation.
//!
//! ```text
//! cargo run --release --example live_server
//! ```
//!
//! Starts the actual HTTP inference server (the paper's Actix-equivalent)
//! on a local port with a JIT-compiled STAMP model, then drives it with
//! the real-time implementation of Algorithm 2 over real sockets, and
//! prints the measured latency distribution. Everything in this example
//! is genuine execution: TCP, HTTP parsing, model forward passes.

use etude::loadgen::driver::RealLoadGen;
use etude::loadgen::LoadConfig;
use etude::metrics::report::fmt_duration;
use etude::models::{ModelConfig, ModelKind, SbrModel};
use etude::serve::reactor::{start, ReactorConfig};
use etude::serve::rustserver::model_routes;
use etude::tensor::Device;
use etude::workload::{SyntheticWorkload, WorkloadConfig};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    // Deploy: a STAMP model over a 20,000-item catalog, JIT-compiled at
    // deployment time, served by four worker threads.
    let cfg = ModelConfig::new(20_000)
        .with_max_session_len(30)
        .with_seed(7);
    let model: Arc<dyn SbrModel> = Arc::from(ModelKind::Stamp.build(&cfg));
    let handler = model_routes(model, Device::cpu(), true);
    let server = start(ReactorConfig::default(), handler).expect("server starts");
    println!("inference server listening on {}", server.addr());

    // Generate a synthetic workload (Algorithm 1) for the catalog.
    let workload = SyntheticWorkload::new(WorkloadConfig::bolcom_like(20_000));
    let log = workload.generate(30_000);
    println!(
        "generated {} synthetic clicks across {} sessions",
        log.len(),
        log.session_count()
    );

    // Load test: ramp to 300 req/s over 6 seconds (Algorithm 2, real
    // time), with 8 keep-alive connections.
    let config = LoadConfig {
        target_rps: 300,
        ramp: Duration::from_secs(6),
        duration: Duration::from_secs(8),
        backpressure: true,
        seed: 3,
    };
    println!(
        "ramping to {} req/s over {:?}...\n",
        config.target_rps, config.ramp
    );
    let result = RealLoadGen::run(server.addr(), &log, config, 8).expect("load test");

    let summary = result.summary();
    println!(
        "sent {} requests: {} ok, {} errors",
        result.sent, result.ok, result.errors
    );
    println!("  p50  {}", fmt_duration(summary.p50));
    println!("  p90  {}", fmt_duration(summary.p90));
    println!("  p99  {}", fmt_duration(summary.p99));
    println!("  max  {}", fmt_duration(summary.max));
    println!(
        "  SLO (p90 <= 50ms): {}",
        if summary.meets_slo(Duration::from_millis(50)) {
            "met"
        } else {
            "missed"
        }
    );
    println!("\nper-tick achieved throughput:");
    for (tick, sent, ok, p90, errors) in result.series.rows() {
        println!(
            "  t={tick:<2} sent {sent:>4}  ok {ok:>4}  p90 {:>10}  errors {errors}",
            fmt_duration(p90)
        );
    }
    server.shutdown();
}
