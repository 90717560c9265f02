//! Open-connection load driver: many parked keep-alive connections,
//! a fixed request schedule, coordinated-omission-corrected latency.
//!
//! The saturation question the paper's 1,000 req/s scenario never asks
//! is *how many open connections can the serving tier carry* while
//! still meeting its tail SLO — production session-based recommenders
//! hold tens of thousands of mostly idle keep-alive connections with
//! diurnal traffic. This driver reproduces that shape:
//!
//! * it opens [`OpenConnConfig::connections`] keep-alive connections
//!   up front and holds every one of them open for the whole run,
//! * requests fire on a **fixed intended schedule** (request *i* at
//!   `start + i/rps`), spread round-robin across the pool,
//! * latency is measured **from the intended send time**, not the
//!   actual write: when the server (or a busy connection) delays a
//!   send, the delay counts. This is the standard correction for
//!   coordinated omission — a load generator that waits for slow
//!   responses before sending more will otherwise under-sample
//!   exactly the latencies that matter,
//! * 503 sheds are counted separately (and not folded into the
//!   latency histogram): shedding is the *correct* overload behavior
//!   and is asserted against the server's own `/stats` shed counter.
//!
//! The driver itself is a single thread on the same non-blocking
//! [`Poller`] abstraction the reactor server uses — it must not
//! need a thread per connection any more than the server does.

use bytes::BytesMut;
use etude_metrics::hdr::Histogram;
use etude_obs::{parse_stats_json, StatsSnapshot};
use etude_serve::http::{self, Request};
use etude_serve::reactor::{new_poller, Event, Interest, Poller};
use etude_serve::HttpClient;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Configuration of an open-connection run.
#[derive(Debug, Clone)]
pub struct OpenConnConfig {
    /// Keep-alive connections opened before the first request and held
    /// for the whole run.
    pub connections: usize,
    /// Intended request rate over the whole pool.
    pub rps: f64,
    /// Length of the request schedule.
    pub duration: Duration,
    /// Session payload POSTed to `/predictions` (or any path below).
    pub body: String,
    /// Request path (default `/predictions`).
    pub path: String,
    /// Optional per-request deadline budget, sent as `x-deadline-ms`.
    pub deadline_ms: Option<u64>,
    /// Optional criticality class, sent as `x-criticality`
    /// (`shed-first` | `normal` | `critical`).
    pub criticality: Option<String>,
    /// The first `warmup` scheduled requests are driven (and counted in
    /// `sent`/`ok`/`shed`) but excluded from the latency histogram:
    /// connect bursts, cold caches, and first-inference costs are a
    /// property of startup, not of the steady state under measurement.
    pub warmup: u64,
    /// How long past the schedule end to wait for stragglers before
    /// counting them as errors.
    pub drain_grace: Duration,
}

impl Default for OpenConnConfig {
    fn default() -> Self {
        OpenConnConfig {
            connections: 64,
            rps: 100.0,
            duration: Duration::from_secs(2),
            body: "1,2,3".to_string(),
            path: "/predictions".to_string(),
            deadline_ms: None,
            criticality: None,
            warmup: 0,
            drain_grace: Duration::from_secs(5),
        }
    }
}

/// Outcome of an open-connection run.
#[derive(Debug)]
pub struct OpenConnResult {
    /// Connections actually opened (== configured, or the run failed).
    pub connections: usize,
    /// Requests issued per the schedule.
    pub sent: u64,
    /// 200 responses.
    pub ok: u64,
    /// 503 responses — load the server *chose* to shed.
    pub shed: u64,
    /// 429 responses — admission refusals (retryable, pre-queue), kept
    /// apart from 503 sheds: a refusal never consumed a batch slot.
    pub refused: u64,
    /// 200 responses served *browned out*: the response carried a
    /// non-zero `x-brownout-level` (or an `x-degraded` marker). These
    /// are counted inside `ok` too — brownout is success, just cheaper.
    pub brownout: u64,
    /// Transport failures, non-200/503 statuses, and stragglers that
    /// never answered within the drain grace.
    pub errors: u64,
    /// Coordinated-omission-corrected latency of 200 responses past the
    /// warmup window, in microseconds from *intended* send time.
    pub corrected: Histogram,
    /// Wall-clock of the whole run (connect + schedule + drain).
    pub wall: Duration,
    /// The server's own `/stats` snapshot, scraped once after the
    /// schedule drains. Carries the reactor telemetry block (loop
    /// utilization, dispatch queue wait) into bench reports. `None`
    /// when the target exposes no parseable `/stats` route.
    pub server_stats: Option<StatsSnapshot>,
}

struct ClientConn {
    stream: TcpStream,
    rbuf: BytesMut,
    /// Unwritten request bytes (socket buffer was full).
    wbuf: BytesMut,
    /// Schedule index and intended send time of the in-flight request,
    /// if any.
    in_flight: Option<(u64, Instant)>,
    interest: Interest,
}

/// Runs an open-connection load test against `addr`.
///
/// Callers planning tens of thousands of connections should first call
/// [`etude_serve::reactor::raise_nofile_limit`] and size
/// `config.connections` off the returned limit (two fds per connection
/// when client and server share a process).
pub fn run_open_conn(addr: SocketAddr, config: &OpenConnConfig) -> std::io::Result<OpenConnResult> {
    let started = Instant::now();
    let mut poller = new_poller()?;
    let mut conns = Vec::with_capacity(config.connections);
    for token in 0..config.connections {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        poller.register(stream.as_raw_fd(), token, Interest::READ)?;
        conns.push(ClientConn {
            stream,
            rbuf: BytesMut::new(),
            wbuf: BytesMut::new(),
            in_flight: None,
            interest: Interest::READ,
        });
    }

    // The request template is identical for every send; encode once.
    let mut req = Request::post(&config.path, config.body.clone());
    if let Some(ms) = config.deadline_ms {
        req.headers.insert("x-deadline-ms".into(), ms.to_string());
    }
    if let Some(class) = &config.criticality {
        req.headers.insert("x-criticality".into(), class.clone());
    }
    let wire = req.encode();

    let total: u64 = (config.rps * config.duration.as_secs_f64())
        .round()
        .max(1.0) as u64;
    let gap = Duration::from_secs_f64(1.0 / config.rps.max(1e-9));
    let schedule_start = Instant::now();
    let hard_stop = schedule_start + config.duration + config.drain_grace;

    let mut free: VecDeque<usize> = (0..conns.len()).collect();
    // Schedule entries whose turn has come but that found no free
    // connection: their latency clock is already running.
    let mut backlog: VecDeque<(u64, Instant)> = VecDeque::new();
    let mut next_idx: u64 = 0;

    let mut result = OpenConnResult {
        connections: conns.len(),
        sent: 0,
        ok: 0,
        shed: 0,
        refused: 0,
        brownout: 0,
        errors: 0,
        corrected: Histogram::new(),
        wall: Duration::ZERO,
        server_stats: None,
    };
    let mut outstanding: u64 = 0;
    let mut events: Vec<Event> = Vec::new();
    let mut chunk = [0u8; 4096];

    loop {
        let now = Instant::now();
        // Release everything the schedule says should have been sent.
        while next_idx < total {
            let intended = schedule_start + gap.mul_f64(next_idx as f64);
            if intended > now {
                break;
            }
            backlog.push_back((next_idx, intended));
            next_idx += 1;
        }
        // Assign released requests to free connections.
        while let Some(&slot) = free.front() {
            if backlog.is_empty() {
                break;
            }
            let entry = backlog.pop_front().expect("checked non-empty");
            free.pop_front();
            let conn = &mut conns[slot];
            conn.in_flight = Some(entry);
            conn.wbuf.extend_from_slice(&wire);
            result.sent += 1;
            outstanding += 1;
            pump_write(&mut poller, conn, slot);
        }

        if next_idx >= total && outstanding == 0 && backlog.is_empty() {
            break; // every scheduled request resolved
        }
        if Instant::now() > hard_stop {
            // Stragglers (in flight or never sent) are errors.
            result.errors += outstanding + backlog.len() as u64;
            result.sent += backlog.len() as u64;
            break;
        }

        // Sleep until the next scheduled send, but never so long that
        // responses sit unread.
        let timeout = if next_idx < total {
            let next_at = schedule_start + gap.mul_f64(next_idx as f64);
            next_at
                .saturating_duration_since(Instant::now())
                .min(Duration::from_millis(10))
        } else {
            Duration::from_millis(10)
        };
        poller.wait(&mut events, timeout.max(Duration::from_micros(100)))?;

        for &ev in events.iter() {
            let slot = ev.token;
            if ev.writable {
                pump_write(&mut poller, &mut conns[slot], slot);
            }
            if !(ev.readable || ev.closed) {
                continue;
            }
            let conn = &mut conns[slot];
            let mut died = false;
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        died = true;
                        break;
                    }
                    Ok(n) => conn.rbuf.extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        died = true;
                        break;
                    }
                }
            }
            // Parse at most the one in-flight response.
            if let Some((idx, intended)) = conn.in_flight {
                match http::parse_response(&mut conn.rbuf) {
                    Ok(resp) => {
                        let latency = Instant::now().saturating_duration_since(intended);
                        match resp.status {
                            200 => {
                                result.ok += 1;
                                let browned = resp
                                    .headers
                                    .get("x-brownout-level")
                                    .is_some_and(|v| v.trim() != "0")
                                    || resp.headers.contains_key("x-degraded");
                                if browned {
                                    result.brownout += 1;
                                }
                                if idx >= config.warmup {
                                    result.corrected.record_duration(latency);
                                }
                            }
                            429 => result.refused += 1,
                            503 => result.shed += 1,
                            _ => result.errors += 1,
                        }
                        conn.in_flight = None;
                        outstanding -= 1;
                        free.push_back(slot);
                    }
                    Err(http::HttpError::Incomplete) => {}
                    Err(_) => {
                        died = true;
                    }
                }
            }
            if died {
                // The connection is gone; its in-flight request (if
                // any) failed. Reconnect so pool size stays constant.
                if conn.in_flight.take().is_some() {
                    result.errors += 1;
                    outstanding -= 1;
                } else {
                    // An idle conn died: it re-enters via reconnect
                    // below and is already in the free list.
                }
                let _ = poller.deregister(conn.stream.as_raw_fd());
                match reconnect(addr) {
                    Ok(stream) => {
                        poller.register(stream.as_raw_fd(), slot, Interest::READ)?;
                        conn.stream = stream;
                        conn.rbuf.clear();
                        conn.wbuf.clear();
                        conn.interest = Interest::READ;
                        if !free.contains(&slot) {
                            free.push_back(slot);
                        }
                    }
                    Err(e) => return Err(e),
                }
            }
        }
    }

    result.server_stats = scrape_stats(addr);
    result.wall = started.elapsed();
    Ok(result)
}

/// Best-effort scrape of the target's `/stats` endpoint over a fresh
/// blocking connection (the pool's sockets stay parked).
fn scrape_stats(addr: SocketAddr) -> Option<StatsSnapshot> {
    let mut client = HttpClient::connect(addr).ok()?;
    let resp = client.request(&Request::get("/stats")).ok()?;
    if resp.status != 200 {
        return None;
    }
    parse_stats_json(std::str::from_utf8(&resp.body).ok()?)
}

fn reconnect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    Ok(stream)
}

/// Pushes buffered request bytes, tracking write interest while the
/// socket is full.
fn pump_write(poller: &mut Box<dyn Poller>, conn: &mut ClientConn, slot: usize) {
    while !conn.wbuf.is_empty() {
        match conn.stream.write(&conn.wbuf) {
            Ok(0) => break,
            Ok(n) => {
                let _ = conn.wbuf.split_to(n);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
    let want = Interest {
        read: true,
        write: !conn.wbuf.is_empty(),
    };
    if want != conn.interest {
        conn.interest = want;
        let _ = poller.modify(conn.stream.as_raw_fd(), slot, want);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etude_serve::http::{Method, Response};
    use etude_serve::reactor::{start, ReactorConfig};
    use etude_serve::rustserver::Handler;
    use std::sync::Arc;

    #[test]
    fn schedule_completes_against_a_live_server() {
        let handler: Handler = Arc::new(|req: &Request| match (req.method, req.path.as_str()) {
            (Method::Post, "/predictions") => Response::ok("0:1.0"),
            _ => Response::error(404, "nope"),
        });
        let server = start(ReactorConfig::default(), handler).unwrap();
        let config = OpenConnConfig {
            connections: 8,
            rps: 200.0,
            duration: Duration::from_millis(500),
            ..OpenConnConfig::default()
        };
        let result = run_open_conn(server.addr(), &config).unwrap();
        assert_eq!(result.connections, 8);
        assert_eq!(
            result.ok + result.shed + result.refused + result.errors,
            result.sent
        );
        assert_eq!(result.errors, 0, "clean run must not error");
        assert_eq!(result.shed, 0);
        assert!(result.ok >= 90, "only {} of ~100 served", result.ok);
        assert_eq!(result.corrected.count(), result.ok);
        assert!(
            result.server_stats.is_none(),
            "no /stats route: the scrape must degrade to None"
        );
        server.shutdown();
    }

    #[test]
    fn final_scrape_captures_the_servers_own_stats() {
        let recorder = Arc::new(etude_obs::Recorder::new());
        let snap_src = Arc::clone(&recorder);
        let handler: Handler =
            Arc::new(move |req: &Request| match (req.method, req.path.as_str()) {
                (Method::Post, "/predictions") => Response::ok("0:1.0"),
                (Method::Get, "/stats") => Response::ok(snap_src.snapshot().render_json()),
                _ => Response::error(404, "nope"),
            });
        let server = start(ReactorConfig::default(), handler).unwrap();
        let config = OpenConnConfig {
            connections: 2,
            rps: 50.0,
            duration: Duration::from_millis(200),
            ..OpenConnConfig::default()
        };
        let result = run_open_conn(server.addr(), &config).unwrap();
        assert_eq!(result.errors, 0);
        let stats = result
            .server_stats
            .expect("a /stats route must be scraped into the result");
        assert!(stats.reactor.is_none(), "thread-per-conn tier: no reactor");
        server.shutdown();
    }

    #[test]
    fn sheds_are_counted_separately_from_latency() {
        let handler: Handler = Arc::new(|_req: &Request| {
            Response::error(503, "overloaded").with_header("retry-after", "1".to_string())
        });
        let server = start(ReactorConfig::default(), handler).unwrap();
        let config = OpenConnConfig {
            connections: 4,
            rps: 100.0,
            duration: Duration::from_millis(300),
            ..OpenConnConfig::default()
        };
        let result = run_open_conn(server.addr(), &config).unwrap();
        assert_eq!(result.ok, 0);
        assert!(result.shed > 0);
        assert_eq!(result.refused, 0);
        assert_eq!(
            result.corrected.count(),
            0,
            "sheds must not pollute latency"
        );
        server.shutdown();
    }

    #[test]
    fn refusals_and_brownouts_are_tallied_apart_from_sheds() {
        use std::sync::atomic::{AtomicU64, Ordering};
        // A server that cycles 429 → browned-out 200 → clean 200, and
        // echoes the criticality header back so the stamp is testable.
        let turn = Arc::new(AtomicU64::new(0));
        let handler: Handler = Arc::new(move |req: &Request| {
            assert_eq!(
                req.headers.get("x-criticality").map(String::as_str),
                Some("critical")
            );
            match turn.fetch_add(1, Ordering::Relaxed) % 3 {
                0 => Response::error(429, "refused").with_header("retry-after", "0".to_string()),
                1 => Response::ok("0:1.0").with_header("x-brownout-level", "3".to_string()),
                _ => Response::ok("0:1.0").with_header("x-brownout-level", "0".to_string()),
            }
        });
        let server = start(ReactorConfig::default(), handler).unwrap();
        let config = OpenConnConfig {
            connections: 1, // serialize: the cycle is deterministic
            rps: 100.0,
            duration: Duration::from_millis(300),
            criticality: Some("critical".to_string()),
            ..OpenConnConfig::default()
        };
        let result = run_open_conn(server.addr(), &config).unwrap();
        assert_eq!(result.errors, 0);
        assert_eq!(result.shed, 0, "429s must not be miscounted as sheds");
        assert!(result.refused > 0, "429s land in `refused`");
        assert!(result.brownout > 0, "level>0 200s land in `brownout`");
        assert!(
            result.brownout < result.ok,
            "level-0 200s must not count as brownout"
        );
        assert_eq!(
            result.ok + result.shed + result.refused + result.errors,
            result.sent
        );
        server.shutdown();
    }
}
