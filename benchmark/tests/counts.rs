//! Numbers later changes may cite as counts must be counts: the same
//! inputs give the same value, exactly.

use etude_benchmark::alloc::Counting;
use etude_benchmark::driver::generate_sessions;
use etude_benchmark::{replay, spec, sut, Metric};
use std::time::Duration;

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} not reported"))
        .value
}

#[test]
fn allocations_per_request_repeat_exactly() {
    let w = spec::workload("encoder_1e4").unwrap();
    let model = sut::build_model(w);
    let compiled = replay::compile(model.as_ref());
    let (sessions, _) = generate_sessions(w.catalog, 42, 64);
    let replay = || {
        let metrics = replay::models_layer(model.as_ref(), &compiled, &sessions).metrics;
        (
            value(&metrics, "models.allocs_per_request"),
            value(&metrics, "models.alloc_bytes_per_request"),
        )
    };
    let first = replay();
    assert!(first.0 > 0.0, "the counting allocator is not installed");
    assert_eq!(first, replay());
}

#[test]
fn the_scan_is_reported_against_the_bandwidth_probe() {
    let w = spec::workload("scan_1e6").unwrap();
    let metrics = replay::tensor_layer(w, Duration::from_millis(100), 64 << 20);
    let scan = value(&metrics, "tensor.scan_gbps");
    let probe = value(&metrics, "tensor.membw_probe_gbps");
    let pct = value(&metrics, "tensor.scan_pct_of_membw");
    // C·d·4 bytes over the measured time, and a share of the probe. Not
    // `pct <= 100`: where the 128 MB table fits a shared last-level cache
    // (260 MiB on the host this was written on) the scan outruns one
    // thread's DRAM bandwidth, and the README says so.
    let bytes = (w.catalog * sut::model_config(w).embedding_dim * 4) as f64;
    assert_eq!(scan, bytes / value(&metrics, "tensor.score_topk_ns"));
    assert!(probe > 0.0 && scan > 0.0);
    assert_eq!(pct, 100.0 * scan / probe);
}
