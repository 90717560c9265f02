//! Saturation regression: overload must surface as *shedding*, never as
//! deadline-blowing queue waits.
//!
//! The contract under test is the continuous batcher's dequeue-time
//! admission check: when offered load exceeds capacity, requests whose
//! deadline budget is exhausted in the queue are shed with a 503 before
//! any compute is spent on them. Consequences asserted here, end-to-end
//! through the reactor server at smoke scale:
//!
//! 1. the run sheds (503s observed by the clients) instead of serving
//!    stale results,
//! 2. the server's own `/stats` shed counter agrees exactly with the
//!    503s the clients counted — the overload signal operators alert on
//!    is the same one clients experience,
//! 3. the p99 of the `queue` span (recorded only for *served* requests)
//!    stays within the configured deadline budget: nothing that waited
//!    past its budget ever reached inference.

use etude_models::{ModelConfig, ModelKind};
use etude_obs::Recorder;
use etude_serve::client::HttpClient;
use etude_serve::contbatch::ContinuousConfig;
use etude_serve::http::Request;
use etude_serve::model_routes_continuous;
use etude_serve::reactor::{self, ReactorConfig};
use etude_tensor::Device;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a burst of clients saw.
#[derive(Debug, Default)]
struct Burst {
    sent: u64,
    /// 200 responses.
    ok: u64,
    /// 503 responses — load the server chose to shed.
    shed: u64,
    /// Transport failures and any other status.
    errors: u64,
}

/// Fires `rps × duration` predictions at `addr`, request `i` at
/// `start + i / rps`, each from its own connection opened before the
/// first send, so a slow answer never delays a later send. Every
/// request may wait up to `grace` for its answer.
fn burst(addr: SocketAddr, rps: f64, duration: Duration, grace: Duration) -> Burst {
    let n = (rps * duration.as_secs_f64()).round() as u32;
    let clients: Vec<HttpClient> = (0..n)
        .map(|_| HttpClient::connect_with_timeout(addr, grace).unwrap())
        .collect();
    let start = Instant::now();
    let statuses: Vec<Option<u16>> = std::thread::scope(|scope| {
        let calls: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(i, mut client)| {
                scope.spawn(move || {
                    let at = start + Duration::from_secs_f64(i as f64 / rps);
                    std::thread::sleep(at.saturating_duration_since(Instant::now()));
                    let req = Request::post("/predictions", "1,2,3");
                    client.request(&req).ok().map(|resp| resp.status)
                })
            })
            .collect();
        calls.into_iter().map(|c| c.join().unwrap()).collect()
    });
    let mut seen = Burst::default();
    for status in statuses {
        seen.sent += 1;
        match status {
            Some(200) => seen.ok += 1,
            Some(503) => seen.shed += 1,
            _ => seen.errors += 1,
        }
    }
    seen
}

#[test]
fn reactor_sheds_under_smoke_overload_instead_of_blowing_deadlines() {
    let deadline = Duration::from_millis(2);
    // A 10^6-item catalog makes each inference a multi-millisecond
    // full-catalog scan even in release builds — longer than the whole
    // 2 ms budget — so any request that arrives while both slots are
    // busy *must* expire in the queue and shed.
    let cfg = ModelConfig::new(1_000_000)
        .with_max_session_len(8)
        .with_seed(11);
    let model = Arc::from(ModelKind::Core.build(&cfg));
    let recorder = Arc::new(Recorder::new());
    let handler = model_routes_continuous(
        model,
        Device::cpu(),
        false,
        // Two slots, a budget shorter than one inference: the burst
        // below keeps both slots busy, so the queue *will* back up.
        ContinuousConfig {
            slots: 2,
            max_queue: 4096,
            default_deadline: deadline,
        },
        Arc::clone(&recorder),
        None,
    );
    let server = reactor::start(ReactorConfig::default(), handler).unwrap();

    // A short burst, not a sustained ramp: resolution throughput under
    // overload is bounded by the two inference slots, so the request
    // count must be small enough to fully drain within the grace even
    // in contended debug builds (each scan ~20x slower, sibling test
    // binaries sharing the core). 30 requests at 3.3 ms spacing still
    // overdrives two multi-ms slots on any host.
    let rps = 300.0;
    let result = burst(
        server.addr(),
        rps,
        Duration::from_millis(100),
        Duration::from_secs(60),
    );

    assert_eq!(result.errors, 0, "overload must shed cleanly, not error");
    assert_eq!(result.ok + result.shed, result.sent);
    // (1) The server chose to shed rather than serve late.
    assert!(
        result.shed > 0,
        "no sheds at {rps} rps offered load: deadline admission inert"
    );
    // Some requests still get served: shedding is selective, not outage.
    assert!(result.ok > 0, "server served nothing under overload");

    // (2) `/stats` reports exactly the sheds the load generator saw.
    let mut client = HttpClient::connect(server.addr()).unwrap();
    let stats = client.request(&Request::get("/stats")).unwrap();
    assert_eq!(stats.status, 200);
    let snap = etude_obs::parse_stats_json(std::str::from_utf8(&stats.body).unwrap())
        .expect("unparseable /stats body");
    assert_eq!(
        snap.shed, result.shed,
        "server shed counter diverged from the 503s the clients observed"
    );

    // (3) Served requests never waited past their budget: queue p99 is
    // within the deadline (5% slack for HDR bucket quantization).
    let queue = snap
        .stage("queue")
        .expect("no queue spans recorded for served requests");
    let budget_us = deadline.as_micros() as u64;
    assert!(
        queue.p99_us <= budget_us + budget_us / 20,
        "queue p99 {}us exceeds the {}us deadline: requests were served late \
         instead of shed",
        queue.p99_us,
        budget_us
    );

    server.shutdown();
}
