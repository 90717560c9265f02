//! Chaos integration tests: seeded fault schedules against the live
//! server, exercised through the resilient client.
//!
//! Three claims are checked end to end over real sockets:
//! 1. with retries enabled, a fault window loses zero requests,
//! 2. a seeded chaos run replays with bit-identical retry counts,
//! 3. degraded-mode responses are well-formed and flagged.

use etude_faults::{FaultInjector, FaultKind, FaultPlan, RetryPolicy};
use etude_loadgen::{LoadConfig, RealLoadGen};
use etude_obs::Recorder;
use etude_serve::client::{HttpClient, ResilientClient};
use etude_serve::http::{self, Method, Request, Response};
use etude_serve::reactor::{start, ReactorConfig};
use etude_serve::rustserver::{inject_faults, DegradationPolicy, Handler, DEGRADED_HEADER};
use etude_serve::{model_routes_continuous, ContinuousConfig};
use etude_workload::{SessionLog, SyntheticWorkload, WorkloadConfig};
use std::sync::Arc;
use std::time::Duration;

fn predictions_handler() -> Handler {
    Arc::new(|req: &Request| {
        if req.method == Method::Post && req.path == "/predictions" {
            Response::ok("1:0.5,2:0.25")
        } else {
            Response::error(404, "no such route")
        }
    })
}

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

/// (a) An error-response window at the start of the run makes every
/// prediction fail while it is active; with retries enabled the client
/// rides the window out and not a single request is lost.
#[test]
fn retries_ride_out_a_fault_window_with_zero_loss() {
    let plan = FaultPlan::seeded(21).with_window(
        Duration::ZERO,
        Duration::from_millis(600),
        FaultKind::ErrorResponse {
            prob: 1.0,
            status: 503,
        },
    );
    let injector = FaultInjector::new(plan);
    let recorder = Arc::new(Recorder::new());
    let handler = inject_faults(predictions_handler(), injector.clone(), recorder);
    let server = start(ReactorConfig::default(), handler).unwrap();

    // Enough retries that a request arriving at t=0 outlasts the whole
    // 600 ms window even when jitter halves every delay:
    // 2.5+5+10+20+25*26 ≈ 690 ms minimum across 30 retries.
    let policy = RetryPolicy {
        base: Duration::from_millis(5),
        cap: Duration::from_millis(50),
        max_retries: 30,
        jitter: 0.5,
    };
    let result = RealLoadGen::run_resilient(
        server.addr(),
        &small_log(2_000, 4),
        LoadConfig {
            target_rps: 50,
            ramp: Duration::from_secs(1),
            duration: Duration::from_secs(2),
            backpressure: true,
            seed: 9,
        },
        4,
        policy,
    )
    .unwrap();
    server.shutdown();

    assert!(
        injector.counters().errors() > 0,
        "the fault window never fired — the test exercised nothing"
    );
    assert_eq!(result.errors, 0, "retries must absorb every injected 503");
    assert_eq!(result.ok, result.sent, "zero lost requests");
    assert!(result.retries > 0, "surviving the window required retries");
}

/// (b) Every fault draw is a pure function of (plan seed, request id),
/// and every backoff delay of (client seed, request id) — so two runs of
/// the same seeded schedule produce identical per-request outcomes and
/// retry counts, even over real sockets.
#[test]
fn seeded_chaos_runs_replay_identical_retry_counts() {
    let run = || {
        let plan = FaultPlan::seeded(77).with_window(
            Duration::ZERO,
            Duration::from_secs(600),
            FaultKind::ErrorResponse {
                prob: 0.4,
                status: 500,
            },
        );
        let injector = FaultInjector::new(plan);
        let recorder = Arc::new(Recorder::new());
        let handler = inject_faults(predictions_handler(), injector.clone(), recorder);
        let server = start(ReactorConfig::default(), handler).unwrap();
        let policy = RetryPolicy {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(2),
            max_retries: 2,
            jitter: 0.5,
        };
        let mut client = ResilientClient::new(server.addr(), policy, 5);
        let mut outcomes = Vec::new();
        for i in 0..150u32 {
            let mut req = Request::post("/predictions", http::encode_session(&[1, 2, 3]));
            req.headers
                .insert("x-request-id".into(), format!("chaos-{i}"));
            let out = client
                .request_within(&req, Duration::from_millis(500))
                .unwrap();
            outcomes.push((out.response.status, out.retries));
        }
        let injected = injector.counters().errors();
        server.shutdown();
        (outcomes, injected)
    };

    let (a, faults_a) = run();
    let (b, faults_b) = run();
    assert_eq!(a, b, "same seed, same per-request statuses and retries");
    assert_eq!(faults_a, faults_b, "same number of injected faults");
    let failed = a.iter().filter(|(status, _)| *status == 500).count();
    assert!(
        failed > 30,
        "p=0.4 over 150 ids should fail dozens: {failed}"
    );
    assert!(failed < 120, "...but nowhere near all of them: {failed}");
    // Ids inside an always-on window fail on every attempt, so each
    // failed request spends exactly its full retry allowance.
    assert!(a
        .iter()
        .all(|&(status, retries)| (status == 500) == (retries == 2)));
}

/// (c) Under sustained overload with a degradation policy the server
/// answers from the popularity fallback: well-formed recommendation
/// bodies, flagged with the degraded header, never a 503 — and the
/// `/stats` counters agree with what the clients saw.
#[test]
fn degraded_responses_are_well_formed_and_flagged() {
    use etude_models::{ModelConfig, ModelKind, SbrModel};
    use etude_tensor::Device;

    const CATALOG: usize = 300_000;
    const TOP_K: usize = 8;

    let cfg = ModelConfig::new(CATALOG)
        .with_max_session_len(8)
        .with_top_k(TOP_K)
        .with_seed(3);
    let model: Arc<dyn SbrModel> = Arc::from(ModelKind::Core.build(&cfg));
    let recorder = Arc::new(Recorder::new());
    let handler = model_routes_continuous(
        model,
        Device::cpu(),
        true,
        // One slot, one queued request: everything else overlapping
        // them finds the queue full. The budget is generous so nothing
        // queued expires into a 503 on a slow host.
        ContinuousConfig {
            slots: 1,
            max_queue: 1,
            default_deadline: Duration::from_secs(30),
        },
        Arc::clone(&recorder),
        Some(DegradationPolicy),
    );
    let server = start(
        ReactorConfig {
            dispatch_threads: 8,
            ..ReactorConfig::default()
        },
        handler,
    )
    .unwrap();
    let addr = server.addr();

    // Eight senders, one dispatch thread each, against a single-slot
    // batcher grinding ~60 ms MIPS scans: their `try_call`s overlap and
    // most find the one-deep queue full.
    let mut handles = Vec::new();
    for t in 0..8u64 {
        handles.push(std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(t * 25));
            let mut client = HttpClient::connect(addr).unwrap();
            let mut seen = Vec::new();
            for i in 0..25 {
                let mut req = Request::post("/predictions", http::encode_session(&[5, 9, 2]));
                req.headers
                    .insert("x-request-id".into(), format!("deg-{t}-{i}"));
                let resp = client.request(&req).unwrap();
                let degraded = resp.headers.contains_key(DEGRADED_HEADER);
                seen.push((
                    resp.status,
                    degraded,
                    String::from_utf8(resp.body.to_vec()).unwrap(),
                ));
            }
            seen
        }));
    }
    let responses: Vec<(u16, bool, String)> = handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();

    let mut stats_client = HttpClient::connect(addr).unwrap();
    let stats_body = stats_client.request(&Request::get("/stats")).unwrap().body;
    let stats = etude_obs::parse_stats_json(std::str::from_utf8(&stats_body).unwrap()).unwrap();
    server.shutdown();

    let degraded: Vec<&(u16, bool, String)> = responses.iter().filter(|r| r.1).collect();
    let mut by_status = std::collections::BTreeMap::new();
    for r in &responses {
        *by_status.entry(r.0).or_insert(0u32) += 1;
    }
    assert!(
        !degraded.is_empty(),
        "overload never materialised — no degraded responses (statuses: {by_status:?}, stats: {stats:?})",
    );
    assert!(
        responses.iter().all(|r| r.0 == 200),
        "every overload is served degraded, never 503"
    );
    for (_, _, body) in &degraded {
        // Well-formed: exactly top_k `item:score` pairs, items in the
        // catalog, scores strictly descending.
        let pairs: Vec<(u32, f32)> = body
            .split(',')
            .map(|pair| {
                let (item, score) = pair.split_once(':').expect("item:score pair");
                (item.parse().unwrap(), score.parse().unwrap())
            })
            .collect();
        assert_eq!(pairs.len(), TOP_K);
        assert!(pairs.iter().all(|&(item, _)| (item as usize) < CATALOG));
        assert!(pairs.windows(2).all(|w| w[0].1 > w[1].1));
    }
    assert_eq!(
        stats.degraded,
        degraded.len() as u64,
        "/stats agrees with the degraded responses the clients saw"
    );
    assert_eq!(stats.shed, 0, "nothing was 503-shed");
}
