//! The wire is frozen: `/stats` and `/metrics` must stay
//! byte-identical to what the hand-written renderers produced before
//! the metric table replaced them. The `golden/*.txt` files were written
//! by those renderers (the commit before `crates/obs/src/metric.rs`
//! existed) from the fixtures below. A change that legitimately extends
//! the wire adds keys at the end and regenerates the files in the same
//! commit. A change that retires a metric or a section deletes its own
//! lines (its JSON key, its Prometheus sample) from the files and
//! touches no other line: `git diff --stat` on `golden/` shows
//! deletions only, and a parser must keep reading documents that still
//! carry the retired keys — `fixtures/` holds such documents.

use etude_obs::{
    parse_stats_json, Metric, ReactorTelemetry, Recorder, Stage, StageStats, StatsSnapshot,
};

fn sample() -> StatsSnapshot {
    StatsSnapshot {
        requests: 42,
        dropped: 1,
        shed: 7,
        degraded: 3,
        faults: 2,
        refused: 5,
        brownout_fallback: 9,
        admission_limit_milli: 12_500,
        pod: Some(4),
        queue_depth: 6,
        batches: 11,
        batched_requests: 29,
        reactor: Some(ReactorTelemetry {
            loops: 2,
            busy_nanos: 750_000,
            wait_nanos: 2_250_000,
            accepts: 64,
            conns: 60,
            write_stalls: 3,
            evictions: 1,
            poll_batch: vec![(1, 40), (4, 9)],
            wake_us: vec![(12, 30)],
            dispatch_wait_us: vec![(80, 25), (200, 5)],
        }),
        stages: vec![
            StageStats {
                stage: "parse".into(),
                count: 42,
                mean_us: 3.25,
                p50_us: 3,
                p90_us: 5,
                p99_us: 9,
                max_us: 12,
            },
            StageStats {
                stage: "total".into(),
                count: 42,
                mean_us: 210.0,
                p50_us: 200,
                p90_us: 280,
                p99_us: 310,
                max_us: 333,
            },
        ],
    }
}

/// A second reactor pod, every scalar distinct from `sample()`'s.
fn second_pod() -> StatsSnapshot {
    StatsSnapshot {
        requests: 100,
        dropped: 0,
        shed: 13,
        degraded: 17,
        faults: 19,
        refused: 23,
        brownout_fallback: 37,
        admission_limit_milli: 8_250,
        pod: Some(9),
        queue_depth: 41,
        batches: 53,
        batched_requests: 59,
        reactor: Some(ReactorTelemetry {
            loops: 4,
            busy_nanos: 1_000_000,
            wait_nanos: 1_000_000,
            accepts: 128,
            conns: 7,
            write_stalls: 43,
            evictions: 47,
            poll_batch: vec![(1, 10), (2, 5)],
            wake_us: vec![(12, 3), (90, 1)],
            dispatch_wait_us: vec![(200, 5), (400, 1)],
        }),
        stages: vec![
            StageStats {
                stage: "queue".into(),
                count: 100,
                mean_us: 40.5,
                p50_us: 40,
                p90_us: 40,
                p99_us: 40,
                max_us: 41,
            },
            StageStats {
                stage: "total".into(),
                count: 100,
                mean_us: 480.125,
                p50_us: 200,
                p90_us: 900,
                p99_us: 900,
                max_us: 1_000,
            },
        ],
    }
}

/// A pod with no reactor, no pod id and no total stage.
fn anonymous_pod() -> StatsSnapshot {
    StatsSnapshot {
        requests: 3,
        shed: 1,
        refused: 2,
        queue_depth: 5,
        stages: vec![StageStats {
            stage: "parse".into(),
            count: 3,
            mean_us: 7.0,
            p50_us: 7,
            p90_us: 7,
            p99_us: 7,
            max_us: 7,
        }],
        ..StatsSnapshot::default()
    }
}

/// A real recorder's snapshot: the derived `requests`/`dropped` and
/// every counter and gauge, bumped across two folds.
fn recorded() -> StatsSnapshot {
    let r = Recorder::with_pod(3);
    for i in 0..4u64 {
        r.record(i, Stage::Parse, 5_000);
        r.record(i, Stage::Queue, 20_000 * (i + 1));
        r.record(i, Stage::Inference, 250_000);
        r.record(i, Stage::Total, 300_000 + 20_000 * i);
    }
    r.bump(Metric::Shed);
    r.bump(Metric::Shed);
    r.bump(Metric::Degraded);
    r.sync();
    r.bump(Metric::Shed);
    for _ in 0..5 {
        r.bump(Metric::Faults);
    }
    r.bump(Metric::Refused);
    for _ in 0..3 {
        r.bump(Metric::BrownoutFallback);
    }
    r.set(Metric::AdmissionLimitMilli, 6_125);
    r.set(Metric::QueueDepth, 9);
    r.bump(Metric::Batches);
    r.add(Metric::BatchedRequests, 3);
    r.snapshot()
}

fn renderings() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for (name, snap) in [
        ("sample", sample()),
        ("default", StatsSnapshot::default()),
        ("second_pod", second_pod()),
        ("anonymous_pod", anonymous_pod()),
        ("recorded", recorded()),
    ] {
        out.push((format!("{name}.stats.txt"), snap.render_json()));
        out.push((format!("{name}.metrics.txt"), snap.render_prometheus()));
    }
    out
}

#[test]
fn every_surface_is_byte_identical_to_its_golden() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    for (name, text) in renderings() {
        let golden = std::fs::read_to_string(dir.join(&name))
            .unwrap_or_else(|e| panic!("golden {name} unreadable: {e}"));
        if let Some((n, (want, got))) = golden
            .lines()
            .zip(text.lines())
            .enumerate()
            .find(|(_, (want, got))| want != got)
        {
            panic!("{name} line {}:\n  golden: {want}\n  now:    {got}", n + 1);
        }
        assert_eq!(text, golden, "{name}: a line was added or removed");
    }
}

/// A `/stats` document from a server that still rendered the retired
/// `window` and `hist` sections (`fixtures/`, verbatim) parses to the
/// same snapshot as today's rendering of the same recorder state.
#[test]
fn documents_with_retired_sections_still_parse() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests");
    let read = |path: &str| std::fs::read_to_string(dir.join(path)).unwrap();
    let old = read("fixtures/recorded_with_window_and_hist.stats.txt");
    let now = read("golden/recorded.stats.txt");
    assert!(old.contains("\"window\"") && old.contains("\"hist\""));
    let (old, now) = (parse_stats_json(&old), parse_stats_json(&now));
    assert_eq!(now, Some(recorded()), "the golden parses to its snapshot");
    assert_eq!(old, now);
}
