//! Scatter/gather routing over real sockets: shard-group backends each
//! holding one catalog slice, a router fanning out and merging, and the
//! acceptance criteria of DESIGN.md §13 — at full health the routed
//! answer is **byte-identical** to an unsharded reference server; under
//! total shard-group loss the router serves the surviving slices'
//! exact top-k tagged `x-degraded` instead of failing.

use etude_faults::RetryPolicy;
use etude_models::retrieval::{encode_session_query, CatalogShard, MipsIndex};
use etude_obs::{parse_stats_json, request_id_hash, Metric, Recorder};
use etude_serve::http::{encode_recommendations, Request};
use etude_serve::reactor::{start, ReactorConfig};
use etude_serve::rustserver::{ServerHandle, DEGRADED_HEADER};
use etude_serve::{router_routes, shard_backend_routes, HttpClient, RouterConfig, ShardTopology};
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};

const C: usize = 600;
const D: usize = 8;
const K: usize = 21;
const QUERY_SEED: u64 = 42;

/// Deterministic pseudo-random table in [-1, 1).
fn table() -> Vec<f32> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    (0..C * D)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1u64 << 23) as f32 - 1.0
        })
        .collect()
}

/// Starts one shard-backend pod over `shard`, returning its handle and
/// its recorder (for trace/span assertions).
fn backend(shard: CatalogShard, pod: u32) -> (ServerHandle, Arc<Recorder>) {
    let recorder = Arc::new(Recorder::with_pod(pod));
    let handler = shard_backend_routes(shard, C, QUERY_SEED, K, Arc::clone(&recorder));
    let server = start(ReactorConfig::default(), handler).unwrap();
    (server, recorder)
}

/// A fast-failing router config: no retries, tight leg budget, no
/// breakers — a dead group costs one refused connect, not a backoff.
fn quick_config() -> RouterConfig {
    RouterConfig {
        k: K,
        leg_budget: Duration::from_millis(500),
        policy: RetryPolicy::none(),
        breakers: None,
        seed: 0,
        ..RouterConfig::default()
    }
}

/// An address nothing listens on.
fn dead_addr() -> SocketAddr {
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    listener.local_addr().unwrap()
}

/// A deterministic batch of sessions over the catalog.
fn sessions() -> Vec<String> {
    (0..20)
        .map(|i| {
            let a = (i * 37) % C;
            let b = (i * 151 + 13) % C;
            let c = (i * 211 + 101) % C;
            format!("{a},{b},{c}")
        })
        .collect()
}

/// The router leg of the hostile-`x-deadline-ms` table (the other four
/// tiers are covered at handler level in `rustserver.rs`): overflowing,
/// negative, non-numeric and empty budgets fall back to the cap or the
/// default, and the scatter serves.
#[test]
fn hostile_deadline_headers_serve_under_the_default_budget() {
    let table = table();
    let mut topo = ShardTopology::partition(C, D, QUERY_SEED, 2);
    let mut servers = Vec::new();
    for i in 0..topo.groups.len() {
        let (server, _) = backend(topo.shard_of(&table, i), topo.groups[i].id);
        topo.groups[i].replicas.push(server.addr());
        servers.push(server);
    }
    let router = start(
        ReactorConfig::default(),
        router_routes(topo, quick_config(), Arc::new(Recorder::new())),
    )
    .unwrap();
    let mut client = HttpClient::connect(router.addr()).unwrap();
    for budget in ["18446744073709551615", "-1", "soon", ""] {
        let req = Request::post("/predictions", "1,2,3")
            .with_header(etude_serve::DEADLINE_HEADER, budget);
        let resp = client.request(&req).unwrap();
        assert_eq!(resp.status, 200, "x-deadline-ms: {budget:?}");
        assert!(!resp.headers.contains_key(DEGRADED_HEADER), "{budget:?}");
    }
    router.shutdown();
    for s in servers {
        s.shutdown();
    }
}

#[test]
fn full_health_router_matches_unsharded_reference_byte_for_byte() {
    let table = table();
    let mut topo = ShardTopology::partition(C, D, QUERY_SEED, 3);

    // Two replicas per group, plus the unsharded reference server.
    let mut servers = Vec::new();
    for i in 0..topo.groups.len() {
        for _ in 0..2 {
            let (server, _) = backend(topo.shard_of(&table, i), topo.groups[i].id);
            topo.groups[i].replicas.push(server.addr());
            servers.push(server);
        }
    }
    let (reference, _) = backend(CatalogShard::from_table(&table, D, 0..C), 99);

    let router = start(
        ReactorConfig::default(),
        router_routes(topo, quick_config(), Arc::new(Recorder::new())),
    )
    .unwrap();

    let mut via_router = HttpClient::connect(router.addr()).unwrap();
    let mut via_reference = HttpClient::connect(reference.addr()).unwrap();
    for session in sessions() {
        let routed = via_router
            .request(&Request::post("/predictions", session.clone()))
            .unwrap();
        let direct = via_reference
            .request(&Request::post("/predictions", session.clone()))
            .unwrap();
        assert_eq!(routed.status, 200, "{session}");
        assert_eq!(direct.status, 200);
        assert!(
            !routed.headers.contains_key(DEGRADED_HEADER),
            "full health must not be degraded"
        );
        assert_eq!(
            routed.body, direct.body,
            "routed top-k diverged from the unsharded scan for {session}"
        );
    }

    // Bad input is rejected at the router's edge, not scattered.
    let bad = via_router
        .request(&Request::post("/predictions", format!("{C}")))
        .unwrap();
    assert_eq!(bad.status, 400, "out-of-catalog id");

    router.shutdown();
    reference.shutdown();
    for s in servers {
        s.shutdown();
    }
}

/// The paper's latency SLO: a degraded answer must still arrive inside it.
const SLO: Duration = Duration::from_millis(100);

/// The `scatter_gather` bench's router shape: default retries, and a
/// one-strike breaker so a lost group fails fast instead of spending
/// its (deliberately generous) leg budget.
fn one_strike_config() -> RouterConfig {
    RouterConfig {
        k: K,
        leg_budget: Duration::from_secs(2),
        breakers: Some(etude_control::BreakerConfig {
            failure_threshold: 1,
            open_for: Duration::from_secs(600),
            half_open_successes: 1,
        }),
        ..RouterConfig::default()
    }
}

#[test]
fn losing_a_shard_group_degrades_without_failing() {
    for config in [quick_config(), one_strike_config()] {
        degrade_one_group_of_two(config);
    }
}

fn degrade_one_group_of_two(config: RouterConfig) {
    let table = table();
    let mut topo = ShardTopology::partition(C, D, QUERY_SEED, 2);

    let (alive, _) = backend(topo.shard_of(&table, 0), 0);
    topo.groups[0].replicas.push(alive.addr());
    // Group 1's only replica is dead from the start: total group loss.
    topo.groups[1].replicas.push(dead_addr());

    let survivor = topo.shard_of(&table, 0);
    let router_recorder = Arc::new(Recorder::new());
    let router = start(
        ReactorConfig::default(),
        router_routes(topo, config, Arc::clone(&router_recorder)),
    )
    .unwrap();

    let mut client = HttpClient::connect(router.addr()).unwrap();
    let batch = sessions();
    for session in &batch {
        let sent = Instant::now();
        let resp = client
            .request(&Request::post("/predictions", session.clone()))
            .unwrap();
        let took = sent.elapsed();
        assert_eq!(resp.status, 200, "degraded requests still succeed");
        assert!(
            took <= SLO,
            "a degraded request took {took:?}, past the {SLO:?} SLO"
        );
        assert_eq!(
            resp.headers.get(DEGRADED_HEADER).map(String::as_str),
            Some("1"),
            "one lost group must be visible on the response"
        );
        // The degraded answer is the *exact* top-k of the surviving
        // slice — same kernel, same merge, no approximation.
        let items: Vec<u32> = session.split(',').map(|s| s.parse().unwrap()).collect();
        let query = encode_session_query(&items, D, QUERY_SEED);
        let (ids, scores) = MipsIndex::search(&survivor, &query, K);
        assert_eq!(
            &resp.body[..],
            encode_recommendations(&ids, &scores).as_bytes()
        );
    }

    // Every degraded response is counted on the router's /stats.
    assert_eq!(router_recorder.get(Metric::Degraded), batch.len() as u64);
    let stats = client.request(&Request::get("/stats")).unwrap();
    let snap = parse_stats_json(std::str::from_utf8(&stats.body).unwrap()).unwrap();
    assert_eq!(snap.degraded, batch.len() as u64);
    // The router has no fleet view of its shard groups.
    let resp = client.request(&Request::get("/fleet")).unwrap();
    assert_eq!(resp.status, 404);

    // Only losing *every* group turns requests into errors.
    alive.shutdown();
    let resp = client
        .request(&Request::post("/predictions", batch[0].clone()))
        .unwrap();
    assert_eq!(resp.status, 503, "all groups lost");
    assert_eq!(
        resp.headers.get("retry-after").map(String::as_str),
        Some("1")
    );

    router.shutdown();
}

#[test]
fn scatter_legs_carry_request_ids_even_for_anonymous_traffic() {
    let table = table();
    let mut topo = ShardTopology::partition(C, D, QUERY_SEED, 2);

    let mut servers = Vec::new();
    let mut recorders = Vec::new();
    for i in 0..topo.groups.len() {
        let (server, recorder) = backend(topo.shard_of(&table, i), i as u32);
        recorder.set_record_retention(true);
        topo.groups[i].replicas.push(server.addr());
        servers.push(server);
        recorders.push(recorder);
    }
    let router = start(
        ReactorConfig::default(),
        router_routes(topo, quick_config(), Arc::new(Recorder::new())),
    )
    .unwrap();
    let mut client = HttpClient::connect(router.addr()).unwrap();

    // A client-supplied id propagates to each leg with a shard suffix:
    // the backend-side request id is the hash of exactly "<id>-s<i>".
    let mut req = Request::post("/predictions", "1,2,3".to_string());
    req.headers
        .insert("x-request-id".into(), "traceme".to_string());
    assert_eq!(client.request(&req).unwrap().status, 200);
    for (i, recorder) in recorders.iter().enumerate() {
        let records = recorder.take_records();
        assert!(!records.is_empty(), "backend {i} retained no spans");
        let expected = request_id_hash(&format!("traceme-s{i}"));
        assert!(
            records.iter().all(|r| r.request_id == expected),
            "backend {i} spans not keyed by the propagated leg id"
        );
    }

    // Anonymous traffic still gets router-derived leg ids: backend
    // spans carry an FNV hash (a full-width id), not the small
    // process-local fallback counter a header-less request would get.
    let anon = Request::post("/predictions", "4,5,6".to_string());
    assert_eq!(client.request(&anon).unwrap().status, 200);
    let mut leg_ids = Vec::new();
    for (i, recorder) in recorders.iter().enumerate() {
        let records = recorder.take_records();
        assert!(!records.is_empty(), "backend {i} retained no spans");
        let id = records[0].request_id;
        assert!(
            records.iter().all(|r| r.request_id == id),
            "backend {i} spans split across ids"
        );
        assert!(
            id > u64::from(u32::MAX),
            "backend {i} fell back to a local counter id ({id}): leg id header missing"
        );
        leg_ids.push(id);
    }
    leg_ids.sort_unstable();
    leg_ids.dedup();
    assert_eq!(leg_ids.len(), recorders.len(), "per-shard ids are distinct");

    router.shutdown();
    for s in servers {
        s.shutdown();
    }
}

#[test]
fn expired_deadline_sheds_before_fanout_and_at_the_leg() {
    let table = table();
    let mut topo = ShardTopology::partition(C, D, QUERY_SEED, 2);
    let mut servers = Vec::new();
    for i in 0..topo.groups.len() {
        let (server, _) = backend(topo.shard_of(&table, i), topo.groups[i].id);
        topo.groups[i].replicas.push(server.addr());
        servers.push(server);
    }
    let recorder = Arc::new(Recorder::new());
    let router = start(
        ReactorConfig::default(),
        router_routes(topo, quick_config(), Arc::clone(&recorder)),
    )
    .unwrap();
    let mut client = HttpClient::connect(router.addr()).unwrap();

    // A zero budget is dead on arrival: shed at the router's edge,
    // before any socket is touched.
    let dead = Request::post("/predictions", "1,2,3".to_string()).with_header("x-deadline-ms", "0");
    let resp = client.request(&dead).unwrap();
    assert_eq!(resp.status, 503, "zero budget must shed, not fan out");
    assert_eq!(recorder.get(Metric::Shed), 1);

    // A healthy budget still answers, and the response carries the
    // (exact) brownout level explicitly.
    let ok =
        Request::post("/predictions", "1,2,3".to_string()).with_header("x-deadline-ms", "5000");
    let resp = client.request(&ok).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.headers.get("x-brownout-level").map(String::as_str),
        Some("0")
    );

    // The shard leg enforces its own inherited budget too.
    let mut direct = HttpClient::connect(servers[0].addr()).unwrap();
    let leg = Request::post("/predictions", "1".to_string()).with_header("x-deadline-ms", "0");
    assert_eq!(direct.request(&leg).unwrap().status, 503);

    router.shutdown();
    for s in servers {
        s.shutdown();
    }
}
