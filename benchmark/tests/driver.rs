//! The load generator against stub handlers on the real reactor: what it
//! reports must be true before any number it produces is worth reading.

use etude_benchmark::driver::{Client, Load, Outcome, Phase, Requests};
use etude_serve::http::{self, Request, Response};
use etude_serve::reactor::{self, ReactorConfig};
use etude_serve::rustserver::{Handler, ServerHandle};
use etude_serve::RESET_MARKER;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn serve(dispatch_threads: usize, handler: Handler) -> ServerHandle {
    let config = ReactorConfig {
        event_loops: 1,
        dispatch_threads,
        max_inflight_per_conn: 256,
    };
    reactor::start(config, handler).expect("reactor starts on loopback")
}

/// Request `i` carries the one-item session `[i]`, so bodies tell requests apart.
fn numbered(n: usize) -> Requests {
    Requests::encode("t", (0..n as u32).map(|i| vec![i]).collect())
}

fn phase(load: Load, duration: Duration) -> Phase {
    Phase {
        load,
        duration,
        first_request: 0,
        keep_every: 1,
        grace: Duration::from_secs(2),
    }
}

fn open(rate: f64, duration: Duration) -> Phase {
    phase(Load::Open { rate }, duration)
}

fn run(server: &ServerHandle, requests: &Requests, phase: &Phase) -> Outcome {
    Client::connect(server.addr(), 2)
        .and_then(|mut client| client.run(requests, phase))
        .expect("driver I/O")
}

fn first_item(req: &Request) -> u32 {
    http::decode_session(&req.body).expect("stub gets valid bodies")[0]
}

#[test]
fn pipelined_answers_are_matched_first_in_first_out() {
    // Even requests finish late, so handlers complete out of order and only
    // the reactor's per-connection ordering puts the answers back in line.
    let server = serve(
        8,
        Arc::new(|req: &Request| {
            if first_item(req).is_multiple_of(2) {
                std::thread::sleep(Duration::from_millis(2));
            }
            Response::ok(req.body.clone())
        }),
    );
    let requests = numbered(300);
    let closed = phase(Load::Closed { in_flight: 8 }, Duration::from_millis(300));
    let outcome = run(&server, &requests, &closed);
    assert!(
        outcome.samples.len() > 50,
        "only {} sent",
        outcome.samples.len()
    );
    assert!(outcome.samples.iter().all(|s| s.status == 200));
    assert_eq!(outcome.kept.len(), outcome.samples.len());
    for (request, body) in &outcome.kept {
        assert_eq!(&body[..], request.to_string().as_bytes());
    }
    server.shutdown();
}

#[test]
fn a_stall_is_charged_to_every_request_queued_behind_it() {
    // One handler thread, and the first request holds it for 200 ms: every
    // request due in that time waits behind it.
    let stall = Duration::from_millis(200);
    let server = serve(
        1,
        Arc::new(move |req: &Request| {
            if first_item(req) == 0 {
                std::thread::sleep(stall);
            }
            Response::ok("ok")
        }),
    );
    let requests = numbered(200);
    let outcome = run(&server, &requests, &open(500.0, Duration::from_millis(400)));
    // The schedule was kept: nothing was left out because the server was slow.
    assert_eq!(outcome.samples.len(), 200);
    assert!(outcome.samples.iter().all(|s| s.status == 200));
    let stall_ns = stall.as_nanos() as u64;
    for s in &outcome.samples {
        assert!(
            s.send_lag_ns() < 20_000_000,
            "request {} was written {} ns late: the generator waited for the server",
            s.request,
            s.send_lag_ns()
        );
        if s.due_ns < stall_ns {
            // Answered no earlier than the stall's end, timed from when it was due.
            assert!(
                s.latency_ns() + s.due_ns >= stall_ns,
                "request {} due at {} ns reports {} ns",
                s.request,
                s.due_ns,
                s.latency_ns()
            );
        }
    }
    server.shutdown();
}

#[test]
fn send_lag_is_near_zero_on_an_idle_server() {
    let server = serve(2, Arc::new(|_: &Request| Response::ok("ok")));
    let requests = numbered(100);
    let outcome = run(&server, &requests, &open(200.0, Duration::from_millis(500)));
    assert_eq!(outcome.samples.len(), 100);
    let mut lag: Vec<u64> = outcome.samples.iter().map(|s| s.send_lag_ns()).collect();
    lag.sort_unstable();
    // Generous for a test binary sharing two cores with its siblings; the
    // benchmark itself reports microseconds.
    assert!(
        lag[lag.len() / 2] < 500_000,
        "median send lag {} ns",
        lag[lag.len() / 2]
    );
    server.shutdown();
}

#[test]
fn a_closed_connection_fails_its_requests_instead_of_hanging() {
    // Request 10's answer is cut off and its connection closed by the server.
    let server = serve(
        4,
        Arc::new(|req: &Request| {
            let resp = Response::ok("ok");
            if first_item(req) == 10 {
                std::thread::sleep(Duration::from_millis(20));
                resp.with_header(RESET_MARKER, "1".to_string())
            } else {
                resp
            }
        }),
    );
    let requests = numbered(100);
    let started = Instant::now();
    let outcome = run(&server, &requests, &open(500.0, Duration::from_millis(200)));
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "the run waited out its grace"
    );
    assert_eq!(outcome.samples.len(), 100);
    let failed: Vec<u32> = outcome
        .samples
        .iter()
        .filter(|s| s.status != 200)
        .map(|s| s.request)
        .collect();
    // Request 10 and whatever was pipelined behind it on that connection
    // (same parity); nothing on the other connection, nothing after the
    // replacement connected.
    assert!(failed.contains(&10), "failed: {failed:?}");
    assert!(failed.iter().all(|r| r % 2 == 0), "failed: {failed:?}");
    assert!(failed.len() < 40, "failed: {failed:?}");
    assert!(outcome.samples.last().is_some_and(|s| s.status == 200));
    server.shutdown();
}
