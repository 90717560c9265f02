//! Fleet aggregation over real sockets: several observed server pods, a
//! standalone aggregator scraping them, and the acceptance criterion
//! that the aggregator's merged histograms are **bit-identical** to
//! merging the per-pod `/stats` snapshots independently — in any scrape
//! order.

use etude_models::{ModelConfig, ModelKind, SbrModel};
use etude_obs::fleet::{parse_fleet_merged, parse_fleet_pods};
use etude_obs::{parse_stats_json, FleetSnapshot, Recorder, StatsSnapshot};
use etude_serve::http::Request;
use etude_serve::reactor::{start, ReactorConfig};
use etude_serve::rustserver::{model_routes_observed, ServerHandle};
use etude_serve::{fleet_routes, HttpClient};
use etude_tensor::Device;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;

/// Starts one observed pod and drives `n` predictions through it.
fn pod(id: u32, n: u32) -> ServerHandle {
    let cfg = ModelConfig::new(200)
        .with_max_session_len(8)
        .with_seed(40 + u64::from(id));
    let model: Arc<dyn SbrModel> = Arc::from(ModelKind::Stamp.build(&cfg));
    let recorder = Arc::new(Recorder::with_pod(id));
    let handler = model_routes_observed(model, Device::cpu(), false, recorder);
    let server = start(ReactorConfig::default(), handler).unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();
    for i in 0..n {
        let resp = client
            .request(&Request::post(
                "/predictions",
                format!("{},{}", i % 200, id),
            ))
            .unwrap();
        assert_eq!(resp.status, 200);
    }
    server
}

/// An address nothing listens on (bind, read the port, drop the
/// listener).
fn dead_addr() -> SocketAddr {
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    listener.local_addr().unwrap()
}

fn get(client: &mut HttpClient, path: &str) -> String {
    let resp = client.request(&Request::get(path)).unwrap();
    assert_eq!(resp.status, 200, "{path}");
    String::from_utf8(resp.body.to_vec()).unwrap()
}

fn scrape_stats(addr: SocketAddr) -> StatsSnapshot {
    let mut client = HttpClient::connect(addr).unwrap();
    parse_stats_json(&get(&mut client, "/stats")).unwrap()
}

#[test]
fn fleet_endpoint_merges_pods_bit_identically() {
    let pods = [pod(0, 4), pod(1, 7), pod(2, 2)];
    let peer_addrs: Vec<SocketAddr> = pods.iter().map(|p| p.addr()).collect();

    // Aggregator over the three live pods plus one dead peer.
    let mut peers = peer_addrs.clone();
    peers.push(dead_addr());
    let agg = start(ReactorConfig::default(), fleet_routes(peers)).unwrap();
    let mut client = HttpClient::connect(agg.addr()).unwrap();

    let body = get(&mut client, "/fleet");
    assert!(body.contains("\"pods\": 3"));
    assert!(body.contains("\"unreachable\": 1"));
    assert!(body.contains("\"requests\": 13"));

    // Per-pod rows surfaced with their ids and request counts.
    let rows = parse_fleet_pods(&body).unwrap();
    assert_eq!(rows.len(), 3);
    let mut by_pod: Vec<(i64, u64, u64)> = rows.clone();
    by_pod.sort_unstable();
    assert_eq!(by_pod[0], (0, 4, 0));
    assert_eq!(by_pod[1], (1, 7, 0));
    assert_eq!(by_pod[2], (2, 2, 0));

    // The acceptance criterion: the aggregator's merged histograms are
    // bit-identical to merging the per-pod `/stats` snapshots ourselves,
    // regardless of scrape order.
    let wire_merged = parse_fleet_merged(&body).unwrap();
    let snaps: Vec<StatsSnapshot> = peer_addrs.iter().map(|&a| scrape_stats(a)).collect();
    let forward = FleetSnapshot::new(snaps.clone(), 0).merged_counts();
    let mut reversed_pods = snaps.clone();
    reversed_pods.reverse();
    let reversed = FleetSnapshot::new(reversed_pods, 0).merged_counts();
    assert!(!wire_merged.is_empty());
    for (w, (f, r)) in wire_merged.iter().zip(forward.iter().zip(reversed.iter())) {
        assert_eq!(w.stage, f.stage);
        assert_eq!(
            w.counts, f.counts,
            "stage {} differs from local merge",
            w.stage
        );
        assert_eq!(
            w.counts, r.counts,
            "stage {} depends on scrape order",
            w.stage
        );
        // And the reconstructed histograms agree exactly, not just the
        // counts: total, sum and extremes all come from the buckets.
        let (wh, fh) = (w.to_histogram(), f.to_histogram());
        assert_eq!(wh.count(), fh.count());
        assert_eq!(wh.p50(), fh.p50());
        assert_eq!(wh.p99(), fh.p99());
        assert_eq!(wh.max(), fh.max());
    }
    // Total-stage merged count covers every request served anywhere.
    let total = wire_merged.iter().find(|c| c.stage == "total").unwrap();
    assert_eq!(total.to_histogram().count(), 13);

    let metrics = get(&mut client, "/fleet/metrics");
    assert!(metrics.contains("etude_fleet_pods 3"));
    assert!(metrics.contains("etude_fleet_unreachable 1"));
    assert!(metrics.contains("etude_fleet_requests_total 13"));
    assert!(metrics
        .contains("etude_fleet_stage_latency_microseconds{stage=\"total\",quantile=\"0.99\"}"));
    assert!(metrics.contains("etude_pod_requests_total{pod=\"1\"} 7"));

    agg.shutdown();
    for p in pods {
        p.shutdown();
    }
}

#[test]
fn consecutive_scrape_failures_mark_a_pod_unhealthy_until_it_recovers() {
    use etude_obs::parse_fleet_health;
    use etude_serve::reactor::start_on;
    use etude_serve::FleetScraper;

    let live = pod(7, 3);
    let flaky = dead_addr();
    let scraper = FleetScraper::new(vec![live.addr(), flaky]).with_unhealthy_after(2);

    // One failed scrape is a blip: unreachable, but not yet unhealthy.
    let snap = scraper.scrape();
    assert_eq!(
        (snap.pods.len(), snap.unreachable, snap.unhealthy),
        (1, 1, 0)
    );

    // The second consecutive failure crosses the threshold.
    let snap = scraper.scrape();
    assert_eq!(snap.unhealthy, 1, "two strikes = unhealthy");
    assert!(parse_fleet_health(&snap.render_json()).unwrap().2 == 1);
    assert!(snap.render_prometheus().contains("etude_fleet_unhealthy 1"));
    assert_eq!(scraper.unhealthy_pods(), 1);

    // The pod comes back on its old address: one good scrape recovers it.
    let replacement = start_on(
        flaky,
        ReactorConfig::default(),
        Arc::new(|req: &Request| {
            if req.path == "/stats" {
                etude_serve::http::Response::ok(StatsSnapshot::default().render_json())
            } else {
                etude_serve::http::Response::ok("pong")
            }
        }),
    )
    .unwrap();
    let snap = scraper.scrape();
    assert_eq!(
        (snap.pods.len(), snap.unreachable, snap.unhealthy),
        (2, 0, 0)
    );
    assert_eq!(scraper.unhealthy_pods(), 0);

    // And a fresh failure starts the strike count from zero again.
    replacement.shutdown();
    let snap = scraper.scrape();
    assert_eq!(snap.unhealthy, 0, "first failure after recovery is a blip");

    live.shutdown();
}

#[test]
fn fleet_endpoint_survives_a_fully_dead_fleet() {
    let agg = start(
        ReactorConfig::default(),
        fleet_routes(vec![dead_addr(), dead_addr()]),
    )
    .unwrap();
    let mut client = HttpClient::connect(agg.addr()).unwrap();
    let body = get(&mut client, "/fleet");
    assert!(body.contains("\"pods\": 0"));
    assert!(body.contains("\"unreachable\": 2"));
    agg.shutdown();
}
