//! Chaos tracing acceptance: a traced load test under injected faults
//! must reassemble — from client spans and pod span records alone — a
//! complete request tree for ≥ 99% of client-successful requests, and
//! the trees must export as Chrome `trace_event` JSON.

use etude_faults::{FaultInjector, FaultKind, FaultPlan, RetryPolicy};
use etude_loadgen::{LoadConfig, RealLoadGen};
use etude_models::{ModelConfig, ModelKind, SbrModel};
use etude_obs::{Recorder, TraceCollector};
use etude_serve::reactor::{start, ReactorConfig};
use etude_serve::rustserver::{inject_faults, model_routes_observed};
use etude_tensor::Device;
use etude_workload::{SessionLog, SyntheticWorkload, WorkloadConfig};
use std::sync::Arc;
use std::time::Duration;

fn small_log(clicks: u64, seed: u64) -> SessionLog {
    SyntheticWorkload::new(WorkloadConfig {
        catalog_size: 100,
        alpha_length: 2.0,
        alpha_clicks: 1.8,
        max_session_len: 20,
        seed,
    })
    .generate(clicks)
}

#[test]
fn chaos_run_reassembles_complete_span_trees() {
    // Two fault windows inside the full-rate tick (the 1 s ramp sends
    // almost nothing before t=1s): a hard 503 burst, then a
    // connection-reset patch. Both force retries, so span trees must
    // stitch failed sibling attempts to the one that landed.
    let plan = FaultPlan::seeded(31)
        .with_window(
            Duration::from_millis(1_000),
            Duration::from_millis(1_300),
            FaultKind::ErrorResponse {
                prob: 1.0,
                status: 503,
            },
        )
        .with_window(
            Duration::from_millis(1_600),
            Duration::from_millis(1_800),
            FaultKind::ConnReset { prob: 0.5 },
        );
    let injector = FaultInjector::new(plan);

    let cfg = ModelConfig::new(200).with_max_session_len(8).with_seed(17);
    let model: Arc<dyn SbrModel> = Arc::from(ModelKind::Stamp.build(&cfg));
    let recorder = Arc::new(Recorder::with_pod(0));
    recorder.set_trace_retention(true);
    let handler = inject_faults(
        model_routes_observed(model, Device::cpu(), false, Arc::clone(&recorder)),
        injector.clone(),
        Arc::clone(&recorder),
    );
    let server = start(ReactorConfig::default(), handler).unwrap();

    let policy = RetryPolicy {
        base: Duration::from_millis(5),
        cap: Duration::from_millis(40),
        max_retries: 30,
        jitter: 0.5,
    };
    let (result, spans) = RealLoadGen::run_traced(
        server.addr(),
        &small_log(2_000, 6),
        LoadConfig {
            target_rps: 50,
            ramp: Duration::from_secs(1),
            duration: Duration::from_secs(2),
            backpressure: true,
            seed: 13,
        },
        4,
        policy,
    )
    .unwrap();
    let pod_spans = recorder.take_traces();
    server.shutdown();

    assert!(
        injector.counters().errors() > 0,
        "no fault ever fired — the chaos exercised nothing"
    );
    assert!(result.ok > 0, "no request succeeded");
    assert_eq!(
        spans.len() as u64,
        result.sent,
        "one client span per request"
    );
    assert!(
        spans.iter().any(|s| s.attempts.len() > 1),
        "riding out the windows must have produced retries"
    );
    assert!(!pod_spans.is_empty(), "pod retained no spans");

    // The acceptance criterion: ≥ 99% of client-successful requests
    // resolve to a complete tree (client span + per-stage pod spans).
    let collector = TraceCollector::assemble(&spans, &pod_spans);
    let fraction = collector.complete_fraction();
    assert!(
        fraction >= 0.99,
        "only {:.4} of successful requests have complete span trees",
        fraction
    );

    // Export lands in cargo's per-test scratch directory
    // (`target/tmp/`) so chrome://tracing can load the run; tests write
    // no tracked file.
    let json = collector.to_chrome_json();
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("client (loadgen)"));
    let out = concat!(env!("CARGO_TARGET_TMPDIR"), "/trace_chaos.json");
    std::fs::write(out, &json).unwrap();
}
