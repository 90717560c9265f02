//! Real-time load generation over HTTP.
//!
//! The same Algorithm 2 logic as [`crate::simdriver`], but against a live
//! server over real sockets. Requests are fired asynchronously by handing
//! them to a pool of sender threads, each owning a keep-alive
//! [`HttpClient`] connection; the pending counter is a real atomic.
//! Used by the end-to-end integration tests and the `live_server`
//! example (the figure pipelines use the virtual-time driver instead).

use crate::rampup::timeprop_rampup;
use crate::sessions::SessionReplayer;
use crate::simdriver::{LoadConfig, LoadTestResult};
use crossbeam::channel::{bounded, Receiver, Sender};
use etude_faults::RetryPolicy;
use etude_metrics::hdr::Histogram;
use etude_metrics::TimeSeries;
use etude_serve::client::{ClientError, HttpClient, ResilientClient};
use etude_serve::http::{self, Request};
use parking_lot::Mutex;
use std::net::SocketAddr;

/// Channel payload: `(session id, session-prefix item ids, intended
/// send time)` — the intended time is when the generator *scheduled*
/// the request, before any channel or sender-thread delay, so the
/// corrected latency series can measure from it.
type Job = (u64, Vec<u32>, Instant);
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-request wall-clock budget in resilient mode: every retry of a
/// request fits inside this window, mirroring the plain driver's 2 s
/// socket timeout so both modes write a request off on the same horizon.
const REQUEST_BUDGET: Duration = Duration::from_secs(2);

struct Outcome {
    session: u64,
    intended: Instant,
    sent_at: Instant,
    ok: bool,
    retries: u64,
    degraded: bool,
}

struct SharedState {
    pending: AtomicU64,
    sent: AtomicU64,
    ok: AtomicU64,
    errors: AtomicU64,
    retries: AtomicU64,
    degraded: AtomicU64,
    series: Mutex<TimeSeries>,
    corrected: Mutex<Histogram>,
    start: Instant,
}

/// The real-time load generator.
pub struct RealLoadGen;

impl RealLoadGen {
    /// Runs Algorithm 2 against a live HTTP server, replaying `log` as
    /// POST `/predictions` requests. `connections` bounds concurrency.
    pub fn run(
        addr: SocketAddr,
        log: &etude_workload::SessionLog,
        config: LoadConfig,
        connections: usize,
    ) -> std::io::Result<LoadTestResult> {
        Self::run_inner(addr, log, config, connections, None)
    }

    /// Like [`RealLoadGen::run`], but each sender thread drives a
    /// [`ResilientClient`]: transient failures (5xx, timeouts, resets)
    /// are retried under `policy` within a per-request budget, and the
    /// result reports retries spent and degraded responses seen.
    pub fn run_resilient(
        addr: SocketAddr,
        log: &etude_workload::SessionLog,
        config: LoadConfig,
        connections: usize,
        policy: RetryPolicy,
    ) -> std::io::Result<LoadTestResult> {
        Self::run_inner(addr, log, config, connections, Some(policy))
    }

    fn run_inner(
        addr: SocketAddr,
        log: &etude_workload::SessionLog,
        config: LoadConfig,
        connections: usize,
        policy: Option<RetryPolicy>,
    ) -> std::io::Result<LoadTestResult> {
        let state = Arc::new(SharedState {
            pending: AtomicU64::new(0),
            sent: AtomicU64::new(0),
            ok: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            series: Mutex::new(TimeSeries::new()),
            corrected: Mutex::new(Histogram::new()),
            start: Instant::now(),
        });
        let (job_tx, job_rx): (Sender<Job>, Receiver<Job>) = bounded(connections.max(1) * 4);
        let (done_tx, done_rx): (Sender<Outcome>, Receiver<Outcome>) = bounded(4096);

        // Sender threads: each owns one connection — a plain keep-alive
        // client, or a retrying resilient client when a policy is given.
        let mut senders = Vec::new();
        for _ in 0..connections.max(1) {
            let rx = job_rx.clone();
            let done = done_tx.clone();
            let policy = policy.clone();
            let seed = config.seed;
            senders.push(std::thread::spawn(move || match policy {
                Some(policy) => sender_resilient(addr, rx, done, policy, seed),
                None => sender_plain(addr, rx, done),
            }));
        }
        drop(done_tx);

        let mut replayer = SessionReplayer::new(log);
        let mut ready: std::collections::VecDeque<crate::sessions::ReplayRequest> =
            std::collections::VecDeque::new();
        let mut suppressed = 0u64;
        let ticks = config.duration.as_secs();
        for tick in 0..ticks {
            let tick_start = state.start + Duration::from_secs(tick);
            let tick_end = tick_start + Duration::from_secs(1);
            let rate = timeprop_rampup(config.target_rps, config.ramp, Duration::from_secs(tick));
            for i in 0..rate {
                // Backpressure (lines 8-12): wait while p >= r_c.
                while config.backpressure && state.pending.load(Ordering::Relaxed) >= rate {
                    drain_outcomes(&done_rx, &state, &mut replayer, &mut ready);
                    if Instant::now() + Duration::from_millis(1) >= tick_end {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                // Algorithm 2 lines 11-13: when the tick ends (or ends
                // within the next backpressure wait) while p >= r_c, the
                // remaining slots are skipped, never burst-sent.
                if Instant::now() >= tick_end
                    || (config.backpressure && state.pending.load(Ordering::Relaxed) >= rate)
                {
                    suppressed += rate - i;
                    break;
                }
                drain_outcomes(&done_rx, &state, &mut replayer, &mut ready);
                let next = ready.pop_front().or_else(|| replayer.next_request());
                if let Some(req) = next {
                    state.pending.fetch_add(1, Ordering::Relaxed);
                    state.sent.fetch_add(1, Ordering::Relaxed);
                    state.series.lock().record_sent(tick);
                    // The intended send time is *now*, at scheduling:
                    // any channel wait or sender-thread backlog after
                    // this point is latency the user would see.
                    if job_tx
                        .send((req.session, req.items, Instant::now()))
                        .is_err()
                    {
                        break;
                    }
                }
                // Evenly spread the remaining slots over the tick.
                let remaining = tick_end.saturating_duration_since(Instant::now());
                let slots_left = (rate - i).max(1);
                std::thread::sleep(remaining / slots_left as u32);
            }
            // Wait until the next tick boundary.
            let now = Instant::now();
            if now < tick_end {
                std::thread::sleep(tick_end - now);
            }
        }
        drop(job_tx);
        for t in senders {
            let _ = t.join();
        }
        // Drain remaining outcomes.
        while let Ok(outcome) = done_rx.recv_timeout(Duration::from_millis(200)) {
            record_outcome(&state, outcome, &mut replayer, &mut ready);
        }

        // Pull the server's own stage breakdown, if it exposes one. Any
        // failure (no /stats route, connection refused, malformed body)
        // degrades to `None` — scraping must never fail the run itself.
        let server_stages = scrape_server_stats(addr);

        let state = Arc::try_unwrap(state).unwrap_or_else(|_| panic!("threads joined"));
        let result = LoadTestResult {
            series: state.series.into_inner(),
            sent: state.sent.load(Ordering::Relaxed),
            ok: state.ok.load(Ordering::Relaxed),
            errors: state.errors.load(Ordering::Relaxed),
            suppressed,
            retries: state.retries.load(Ordering::Relaxed),
            degraded: state.degraded.load(Ordering::Relaxed),
            server_stages,
            corrected: state.corrected.into_inner(),
            // The real-time driver cannot see inside the server per
            // request, so it carries no per-tick stage attribution.
            attribution: Vec::new(),
            slo: None,
        };
        Ok(result)
    }
}

/// The classic sender loop: one keep-alive connection, no retries.
fn sender_plain(addr: SocketAddr, rx: Receiver<Job>, done: Sender<Outcome>) {
    let client = match HttpClient::connect_with_timeout(addr, Duration::from_secs(2)) {
        Ok(c) => c,
        Err(_) => return,
    };
    let mut client = Some(client);
    while let Ok((session, items, intended)) = rx.recv() {
        let sent_at = Instant::now();
        // A timed-out keep-alive connection is desynchronised (its late
        // response would answer the wrong request), so transport failures
        // drop the connection and the next job starts on a fresh one —
        // or fails cleanly when the server is unreachable.
        if client.is_none() {
            client = HttpClient::connect_with_timeout(addr, Duration::from_secs(2)).ok();
        }
        let ok = match client.as_mut() {
            Some(c) => {
                let body = http::encode_session(&items);
                let result = c.request(&Request::post("/predictions", body));
                let ok = matches!(&result, Ok(resp) if resp.status == 200);
                if let Err(ClientError::Timeout | ClientError::Io(_)) = result {
                    client = None;
                }
                ok
            }
            None => false,
        };
        let _ = done.send(Outcome {
            session,
            intended,
            sent_at,
            ok,
            retries: 0,
            degraded: false,
        });
    }
}

/// The resilient sender loop: retries under the policy, within
/// [`REQUEST_BUDGET`] per request.
fn sender_resilient(
    addr: SocketAddr,
    rx: Receiver<Job>,
    done: Sender<Outcome>,
    policy: RetryPolicy,
    seed: u64,
) {
    // Every thread shares the client seed: a request's retry schedule is
    // keyed by `seed ^ hash(request id)`, so it does not depend on which
    // thread happened to pick the job up.
    let mut client = ResilientClient::new(addr, policy, seed).with_attempt_timeout(REQUEST_BUDGET);
    while let Ok((session, items, intended)) = rx.recv() {
        let sent_at = Instant::now();
        let body = http::encode_session(&items);
        let mut req = Request::post("/predictions", body);
        // Deterministic id: a session replays its prefixes in growing
        // order, so (session, prefix length) names the request uniquely.
        req.headers
            .insert("x-request-id".into(), format!("{session}-{}", items.len()));
        let before = client.total_retries();
        let (ok, degraded) = match client.request_within(&req, REQUEST_BUDGET) {
            Ok(out) => (out.response.status == 200, out.degraded),
            Err(_) => (false, false),
        };
        let _ = done.send(Outcome {
            session,
            intended,
            sent_at,
            ok,
            retries: client.total_retries() - before,
            degraded,
        });
    }
}

/// Fetches and parses the server's `/stats` JSON document.
fn scrape_server_stats(addr: SocketAddr) -> Option<etude_obs::StatsSnapshot> {
    let mut client = HttpClient::connect_with_timeout(addr, Duration::from_secs(2)).ok()?;
    let resp = client.request(&Request::get("/stats")).ok()?;
    if resp.status != 200 {
        return None;
    }
    etude_obs::parse_stats_json(std::str::from_utf8(&resp.body).ok()?)
}

fn drain_outcomes(
    rx: &Receiver<Outcome>,
    state: &SharedState,
    replayer: &mut SessionReplayer,
    ready: &mut std::collections::VecDeque<crate::sessions::ReplayRequest>,
) {
    while let Ok(outcome) = rx.try_recv() {
        record_outcome(state, outcome, replayer, ready);
    }
}

fn record_outcome(
    state: &SharedState,
    outcome: Outcome,
    replayer: &mut SessionReplayer,
    ready: &mut std::collections::VecDeque<crate::sessions::ReplayRequest>,
) {
    state.pending.fetch_sub(1, Ordering::Relaxed);
    state.retries.fetch_add(outcome.retries, Ordering::Relaxed);
    if outcome.degraded {
        state.degraded.fetch_add(1, Ordering::Relaxed);
    }
    let latency = outcome.sent_at.elapsed();
    let tick = state.start.elapsed().as_secs();
    let mut series = state.series.lock();
    if outcome.ok {
        state.ok.fetch_add(1, Ordering::Relaxed);
        series.record_ok(tick, latency);
        // The corrected histogram measures from the intended send time:
        // it includes whatever the generator's own machinery (channel,
        // busy sender threads) added before the request hit the wire.
        state
            .corrected
            .lock()
            .record(outcome.intended.elapsed().as_micros() as u64);
    } else {
        state.errors.fetch_add(1, Ordering::Relaxed);
        series.record_error(tick);
    }
    drop(series);
    if let Some(released) = replayer.acknowledge(outcome.session) {
        ready.push_back(released);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etude_serve::http::{Method, Response};
    use etude_serve::reactor::{start, ReactorConfig};
    use etude_serve::rustserver::Handler;
    use etude_workload::{SyntheticWorkload, WorkloadConfig};
    use std::sync::Arc as StdArc;

    fn echo_handler() -> Handler {
        StdArc::new(|req: &http::Request| {
            if req.method == Method::Post && req.path == "/predictions" {
                Response::ok("1:0.5")
            } else {
                Response::error(404, "nope")
            }
        })
    }

    #[test]
    fn real_loadgen_drives_a_real_server() {
        let server = start(ReactorConfig::default(), echo_handler()).unwrap();
        let log = SyntheticWorkload::new(WorkloadConfig {
            catalog_size: 100,
            alpha_length: 2.0,
            alpha_clicks: 1.8,
            max_session_len: 20,
            seed: 1,
        })
        .generate(2_000);
        let result = RealLoadGen::run(
            server.addr(),
            &log,
            LoadConfig {
                target_rps: 200,
                ramp: Duration::from_secs(2),
                duration: Duration::from_secs(3),
                backpressure: true,
                seed: 1,
            },
            4,
        )
        .unwrap();
        assert!(result.ok > 100, "ok {}", result.ok);
        assert_eq!(result.errors, 0);
        let summary = result.summary();
        assert!(
            summary.p90 < Duration::from_millis(100),
            "{:?}",
            summary.p90
        );
        // The echo handler has no /stats route, so no server breakdown.
        assert!(result.server_stages.is_none());
        server.shutdown();
    }

    #[test]
    fn resilient_mode_retries_transient_errors_away() {
        let calls = StdArc::new(AtomicU64::new(0));
        let seen = StdArc::clone(&calls);
        let handler: Handler = StdArc::new(move |req: &http::Request| {
            if req.method == Method::Post && req.path == "/predictions" {
                // Every fourth arrival fails; its retry lands on a
                // different count and goes through.
                if seen.fetch_add(1, Ordering::Relaxed).is_multiple_of(4) {
                    Response::error(500, "transient")
                } else {
                    Response::ok("1:0.5")
                }
            } else {
                Response::error(404, "nope")
            }
        });
        let server = start(ReactorConfig::default(), handler).unwrap();
        let log = SyntheticWorkload::new(WorkloadConfig {
            catalog_size: 100,
            alpha_length: 2.0,
            alpha_clicks: 1.8,
            max_session_len: 20,
            seed: 3,
        })
        .generate(1_000);
        let result = RealLoadGen::run_resilient(
            server.addr(),
            &log,
            LoadConfig {
                target_rps: 100,
                ramp: Duration::from_secs(1),
                duration: Duration::from_secs(2),
                backpressure: true,
                seed: 3,
            },
            4,
            RetryPolicy::default_chaos(),
        )
        .unwrap();
        assert!(result.ok > 50, "ok {}", result.ok);
        assert_eq!(result.errors, 0, "retries absorb the transient 500s");
        assert!(result.retries > 0, "some requests must have retried");
        assert_eq!(result.degraded, 0);
        server.shutdown();
    }

    #[test]
    fn server_stage_breakdown_is_scraped_from_observed_servers() {
        use etude_models::{ModelConfig, ModelKind, SbrModel};
        use etude_serve::rustserver::model_routes;
        use etude_tensor::Device;

        let cfg = ModelConfig::new(200).with_max_session_len(8).with_seed(3);
        let model: StdArc<dyn SbrModel> = StdArc::from(ModelKind::Core.build(&cfg));
        let handler = model_routes(model, Device::cpu(), true);
        let server = start(ReactorConfig::default(), handler).unwrap();
        let log = SyntheticWorkload::new(WorkloadConfig {
            catalog_size: 200,
            alpha_length: 2.0,
            alpha_clicks: 1.8,
            max_session_len: 8,
            seed: 2,
        })
        .generate(500);
        let result = RealLoadGen::run(
            server.addr(),
            &log,
            LoadConfig {
                target_rps: 50,
                ramp: Duration::from_secs(1),
                duration: Duration::from_secs(2),
                backpressure: true,
                seed: 2,
            },
            2,
        )
        .unwrap();
        assert!(result.ok > 10, "ok {}", result.ok);
        let stages = result
            .server_stages
            .as_ref()
            .expect("observed server exposes /stats");
        // Every 200 the client saw left a total span server-side; a
        // client-side timeout could leave a span without an ok, so the
        // bounds are [ok, sent] rather than exact.
        assert!(
            stages.requests >= result.ok && stages.requests <= result.sent,
            "server saw {} requests, client ok={} sent={}",
            stages.requests,
            result.ok,
            result.sent
        );
        for name in ["parse", "inference", "topk", "serialize", "total"] {
            let stage = stages.stage(name).unwrap_or_else(|| panic!("{name}"));
            assert_eq!(stage.count, stages.requests, "stage {name}");
        }
        server.shutdown();
    }
}
