//! **Design ablation** — GPU request batching on/off.
//!
//! The paper's inference server applies "request batching for GPUs for up
//! to 1,024 requests" with a two-millisecond buffer flush. This ablation
//! sweeps the target throughput against a T4 deployment with and without
//! the batcher, showing where unbatched GPU serving collapses.

use etude_bench::{HarnessOptions, ShapeChecks};
use etude_loadgen::{LoadConfig, SimLoadGen};
use etude_metrics::report::{fmt_duration, Table};
use etude_models::{ModelConfig, ModelKind};
use etude_serve::service::ExecutionKind;
use etude_serve::simserver::{RustServerConfig, SimRustServer};
use etude_serve::ServiceProfile;
use etude_tensor::Device;
use etude_workload::{SyntheticWorkload, WorkloadConfig};
use std::time::Duration;

fn main() {
    let opts = HarnessOptions::from_args();
    println!("== Ablation: GPU request batching (1,024 / 2ms) on vs off ==\n");

    let catalog = 1_000_000;
    let profile = || {
        ServiceProfile::build(
            ModelKind::SasRec,
            &ModelConfig::new(catalog).without_weights(),
            &Device::t4(),
            ExecutionKind::Jit,
        )
        .expect("profile")
    };
    let workload = SyntheticWorkload::new(WorkloadConfig::bolcom_like(catalog));

    let mut table = Table::new([
        "target_rps",
        "batched_p90",
        "batched_err",
        "mean_batch",
        "unbatched_p90",
        "unbatched_err",
    ]);
    let mut crossover_seen = false;
    for target in [100u64, 250, 500, 600, 700, 1_000] {
        let log = workload.generate(target * opts.ramp_secs);
        let config = LoadConfig::scaled_rampup(target, opts.ramp_secs);

        let batched_server = SimRustServer::new(profile(), RustServerConfig::gpu());
        let batched = SimLoadGen::run(
            std::rc::Rc::clone(&batched_server) as _,
            &log,
            config.clone(),
        );

        let unbatched_server = SimRustServer::new(
            profile(),
            RustServerConfig {
                batching: false,
                ..RustServerConfig::gpu()
            },
        );
        let unbatched = SimLoadGen::run(unbatched_server, &log, config);

        let bs = batched.tail_summary(5);
        let us = unbatched.tail_summary(5);
        if bs.meets_slo(Duration::from_millis(50)) && !us.meets_slo(Duration::from_millis(50)) {
            crossover_seen = true;
        }
        table.row([
            target.to_string(),
            fmt_duration(bs.p90),
            batched.errors.to_string(),
            format!("{:.1}", batched_server.mean_batch_size()),
            fmt_duration(us.p90),
            unbatched.errors.to_string(),
        ]);
    }
    opts.emit("ablation_batching", &table);

    println!("paper shape checks:");
    let mut checks = ShapeChecks::default();
    checks.check(
        "batching extends the feasible throughput range of a single GPU",
        crossover_seen,
    );
    checks.finish();
}
