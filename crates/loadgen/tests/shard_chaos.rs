//! Shard-loss chaos over real sockets: every pod of one shard group
//! crashes mid-run and later restarts on the same addresses, while a
//! client drives a steady stream of predictions through the router.
//!
//! Acceptance (ISSUE 7 / DESIGN.md §13):
//!
//! * **zero client-visible failures** — every request in the run
//!   answers `200`, including those issued while the group is down;
//! * responses during the loss window are **well-formed** merged top-k
//!   bodies tagged `x-degraded`, and are the *exact* top-k of the
//!   surviving slices;
//! * the router's `/stats` degraded count equals the number of
//!   requests that fell inside the fault window;
//! * the whole run **replays bit-identically**: same seeds, same
//!   crash schedule → the same `(status, degraded, body)` sequence.
//!
//! Determinism strategy: one synchronous client issues requests
//! back-to-back, so request *index* is the run's clock. The shard-loss
//! window — one [`FaultKind::Crash`] for every pod of the group — is
//! expressed on that clock (one virtual millisecond per request) and
//! the test crashes/restarts the group's pods exactly at the window
//! edges — no wall-clock races.

use etude_faults::{FaultKind, FaultPlan, RetryPolicy};
use etude_models::retrieval::{encode_session_query, CatalogShard, MipsIndex};
use etude_obs::{Metric, Recorder};
use etude_serve::http::{decode_recommendations, encode_recommendations, Request};
use etude_serve::reactor::{start, start_on, ReactorConfig};
use etude_serve::rustserver::{ServerHandle, DEGRADED_HEADER};
use etude_serve::{router_routes, shard_backend_routes, HttpClient, RouterConfig, ShardTopology};
use std::sync::Arc;
use std::time::Duration;

const C: usize = 400;
const D: usize = 6;
const K: usize = 21;
const QUERY_SEED: u64 = 9;
const REQUESTS: usize = 60;
/// The chaos schedule on the request-index clock: group 1 is down for
/// requests 20..40.
const LOSS_FROM: u64 = 20;
const LOSS_UNTIL: u64 = 40;

/// Deterministic table shared by every run.
fn table() -> Vec<f32> {
    let mut state = 0x5eed_cafe_f00d_0001u64;
    (0..C * D)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1u64 << 23) as f32 - 1.0
        })
        .collect()
}

/// Session for request `i`, derived only from `i` and the seed.
fn session(i: usize, seed: u64) -> String {
    let mut items = Vec::new();
    let mut state = seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    for _ in 0..3 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        items.push((state % C as u64).to_string());
    }
    items.join(",")
}

fn spawn_backend(shard: CatalogShard, pod: u32) -> ServerHandle {
    let handler = shard_backend_routes(shard, C, QUERY_SEED, K, Arc::new(Recorder::with_pod(pod)));
    start(ReactorConfig::default(), handler).unwrap()
}

/// One observed response: everything the client can see.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Observed {
    status: u16,
    degraded: Option<String>,
    body: Vec<u8>,
}

/// One full chaos run. Returns the per-request observations and the
/// router's final degraded count.
fn chaos_run(seed: u64) -> (Vec<Observed>, u64) {
    let table = table();
    let mut topo = ShardTopology::partition(C, D, QUERY_SEED, 2);

    // Group 0: two replicas, healthy throughout. Group 1: two replicas
    // that will *both* crash — total slice loss, no failover possible.
    let mut group0 = Vec::new();
    for _ in 0..2 {
        let s = spawn_backend(topo.shard_of(&table, 0), 0);
        topo.groups[0].replicas.push(s.addr());
        group0.push(s);
    }
    let mut group1 = Vec::new();
    for _ in 0..2 {
        let s = spawn_backend(topo.shard_of(&table, 1), 1);
        topo.groups[1].replicas.push(s.addr());
        group1.push(s);
    }
    let group1_addrs = topo.groups[1].replicas.clone();
    let group1_shard = || topo.shard_of(&table, 1);

    let plan = FaultPlan::seeded(seed).with_window(
        Duration::from_millis(LOSS_FROM),
        Duration::from_millis(LOSS_UNTIL),
        FaultKind::Crash,
    );

    let recorder = Arc::new(Recorder::new());
    let config = RouterConfig {
        k: K,
        leg_budget: Duration::from_millis(500),
        policy: RetryPolicy::none(),
        breakers: None,
        seed,
        ..RouterConfig::default()
    };
    let router = start(
        ReactorConfig::default(),
        router_routes(topo.clone(), config, Arc::clone(&recorder)),
    )
    .unwrap();
    let mut client = HttpClient::connect(router.addr()).unwrap();

    let mut observed = Vec::with_capacity(REQUESTS);
    let mut down = false;
    for i in 0..REQUESTS {
        // The request index is the virtual clock the chaos plan runs on.
        let now = Duration::from_millis(i as u64);
        let crashed = plan.active_at(now).count() > 0;
        if crashed && !down {
            for server in group1.drain(..) {
                server.shutdown();
            }
            down = true;
        }
        if !crashed && down {
            // The window closed: the group restarts on its old
            // addresses, exactly like a pod rescheduled in place.
            for addr in &group1_addrs {
                let handler = shard_backend_routes(
                    group1_shard(),
                    C,
                    QUERY_SEED,
                    K,
                    Arc::new(Recorder::with_pod(1)),
                );
                group1.push(start_on(*addr, ReactorConfig::default(), handler).unwrap());
            }
            down = false;
        }

        let resp = client
            .request(&Request::post("/predictions", session(i, seed)))
            .unwrap();
        observed.push(Observed {
            status: resp.status,
            degraded: resp.headers.get(DEGRADED_HEADER).cloned(),
            body: resp.body.to_vec(),
        });
    }

    let degraded_total = recorder.get(Metric::Degraded);
    router.shutdown();
    for s in group0.into_iter().chain(group1) {
        s.shutdown();
    }
    (observed, degraded_total)
}

#[test]
fn shard_group_loss_is_invisible_except_for_the_degraded_tag() {
    let seed = 2024;
    let (observed, degraded_total) = chaos_run(seed);
    let table = table();
    let topo = ShardTopology::partition(C, D, QUERY_SEED, 2);
    let survivor = topo.shard_of(&table, 0);
    let full = CatalogShard::from_table(&table, D, 0..C);

    assert_eq!(observed.len(), REQUESTS);
    let window = LOSS_FROM..LOSS_UNTIL;
    for (i, o) in observed.iter().enumerate() {
        // Zero client-visible failures, crash window included.
        assert_eq!(o.status, 200, "request {i} failed");
        // Every body is a well-formed recommendation list.
        let (ids, scores) = decode_recommendations(&o.body).unwrap();
        assert_eq!(ids.len(), scores.len());
        assert!(ids.len() <= K);
        assert!(ids.iter().all(|&id| (id as usize) < C));

        let in_window = window.contains(&(i as u64));
        assert_eq!(
            o.degraded.as_deref(),
            in_window.then_some("1"),
            "degraded tag wrong at request {i}"
        );
        // And the body is the exact top-k of whatever was reachable.
        let items: Vec<u32> = session(i, seed)
            .split(',')
            .map(|s| s.parse().unwrap())
            .collect();
        let query = encode_session_query(&items, D, QUERY_SEED);
        let reference = if in_window {
            MipsIndex::search(&survivor, &query, K)
        } else {
            MipsIndex::search(&full, &query, K)
        };
        assert_eq!(
            o.body,
            encode_recommendations(&reference.0, &reference.1).into_bytes(),
            "request {i} body is not the exact reachable top-k"
        );
    }

    // The /stats degraded count matches the fault window exactly.
    assert_eq!(degraded_total, LOSS_UNTIL - LOSS_FROM);
}

#[test]
fn chaos_run_replays_bit_identically() {
    let (first, first_degraded) = chaos_run(77);
    let (second, second_degraded) = chaos_run(77);
    assert_eq!(first, second, "replay diverged");
    assert_eq!(first_degraded, second_degraded);
}
