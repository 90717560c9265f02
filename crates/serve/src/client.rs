//! A blocking keep-alive HTTP client.
//!
//! Used by the load generator's real-time mode and the integration tests
//! (the paper's load generator uses Apache HttpComponents' async client;
//! our real-time driver multiplexes many of these blocking connections
//! across threads instead).

use crate::http::{self, Request, Response};
use bytes::BytesMut;
use etude_control::{BreakerConfig, BreakerState, CircuitBreaker};
use etude_faults::{Backoff, Deadline, RetryPolicy};
use etude_obs::request_id_hash;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Process-wide counter for generated request ids.
static NEXT_AUTO_REQUEST_ID: AtomicU64 = AtomicU64::new(1);

/// Upper bound on a server-suggested `Retry-After` pause. A production
/// server naming an hour-plus pause is either misconfigured or being
/// spoofed; honoring it verbatim would park the client forever (the
/// request deadline clamps it further, but the clamp keeps the
/// arithmetic sane even under absurd header values).
const MAX_RETRY_AFTER_SECS: u64 = 3600;

/// Parses a `Retry-After` header value defensively.
///
/// Accepts only whole non-negative seconds, tolerating surrounding
/// whitespace. Anything else — empty strings, fractional or negative
/// numbers, HTTP-dates, values that overflow `u64` — yields `None` (the
/// client falls back to its own backoff schedule). Parseable but absurd
/// values are clamped to [`MAX_RETRY_AFTER_SECS`].
fn parse_retry_after(value: &str) -> Option<Duration> {
    let trimmed = value.trim();
    // All-digits, explicitly: u64's own parser accepts a leading `+`,
    // which no server emits on purpose.
    if trimmed.is_empty() || !trimmed.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let secs: u64 = trimmed.parse().ok()?;
    Some(Duration::from_secs(secs.min(MAX_RETRY_AFTER_SECS)))
}

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(std::io::Error),
    /// The server's bytes did not parse.
    Protocol(http::HttpError),
    /// No response within the configured timeout.
    Timeout,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::Timeout => write!(f, "request timed out"),
        }
    }
}

impl std::error::Error for ClientError {}

/// A persistent connection to one server.
pub struct HttpClient {
    stream: TcpStream,
    buf: BytesMut,
    timeout: Duration,
    /// An exchange on this connection was aborted mid-flight (timeout,
    /// transport error, short read): response framing is no longer
    /// trustworthy. Every subsequent request fails fast with a
    /// `ConnectionReset`-class error instead of risking a late or
    /// truncated response being attributed to the wrong request.
    poisoned: bool,
}

impl HttpClient {
    /// Connects with a default 5 s timeout.
    pub fn connect(addr: SocketAddr) -> Result<HttpClient, ClientError> {
        Self::connect_with_timeout(addr, Duration::from_secs(5))
    }

    /// Connects with an explicit request timeout.
    pub fn connect_with_timeout(
        addr: SocketAddr,
        timeout: Duration,
    ) -> Result<HttpClient, ClientError> {
        let stream = TcpStream::connect(addr).map_err(ClientError::Io)?;
        stream.set_nodelay(true).map_err(ClientError::Io)?;
        stream
            .set_read_timeout(Some(timeout))
            .map_err(ClientError::Io)?;
        Ok(HttpClient {
            stream,
            buf: BytesMut::with_capacity(4096),
            timeout,
            poisoned: false,
        })
    }

    /// Changes the per-request timeout.
    pub fn set_timeout(&mut self, timeout: Duration) -> Result<(), ClientError> {
        self.timeout = timeout;
        self.stream
            .set_read_timeout(Some(timeout))
            .map_err(ClientError::Io)
    }

    /// Sends a request and blocks for its response.
    ///
    /// Requests without an `x-request-id` header get a generated one
    /// (`auto-<local port>-<n>`) so server-side stage spans can always be
    /// correlated per request; the server echoes the id back.
    pub fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        if req.headers.contains_key("x-request-id") {
            return self.send(req);
        }
        let port = self.stream.local_addr().map(|a| a.port()).unwrap_or(0);
        let n = NEXT_AUTO_REQUEST_ID.fetch_add(1, Ordering::Relaxed);
        let mut tagged = req.clone();
        tagged
            .headers
            .insert("x-request-id".into(), format!("auto-{port}-{n}"));
        self.send(&tagged)
    }

    fn send(&mut self, req: &Request) -> Result<Response, ClientError> {
        if self.poisoned {
            // A previous exchange was abandoned mid-flight; its (late,
            // or truncated-short-of-Content-Length) response bytes may
            // still arrive and would parse as *this* request's answer.
            return Err(ClientError::Io(std::io::Error::new(
                ErrorKind::ConnectionReset,
                "connection poisoned by an aborted exchange",
            )));
        }
        match self.exchange(req) {
            Ok(resp) => Ok(resp),
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
        }
    }

    fn exchange(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.stream
            .write_all(&req.encode())
            .map_err(ClientError::Io)?;
        let mut chunk = [0u8; 4096];
        loop {
            match http::parse_response(&mut self.buf) {
                Ok(resp) => return Ok(resp),
                Err(http::HttpError::Incomplete) => {}
                Err(e) => return Err(ClientError::Protocol(e)),
            }
            match self.stream.read(&mut chunk) {
                Ok(0) if !self.buf.is_empty() => {
                    // The server promised more (Content-Length) than it
                    // delivered before closing: a short read. This is a
                    // retryable transport failure — never a successful
                    // (truncated) response.
                    return Err(ClientError::Io(std::io::Error::new(
                        ErrorKind::ConnectionReset,
                        format!(
                            "connection closed mid-response ({} partial bytes short of Content-Length)",
                            self.buf.len()
                        ),
                    )));
                }
                Ok(0) => {
                    return Err(ClientError::Io(std::io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "server closed connection",
                    )))
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return Err(ClientError::Timeout)
                }
                Err(e) => return Err(ClientError::Io(e)),
            }
        }
    }
}

/// The outcome of a resilient request: the final response plus how hard
/// the client had to work for it.
#[derive(Debug)]
pub struct ResilientResponse {
    /// The response that ended the retry loop (2xx/4xx, or the last 5xx
    /// when the budget ran out).
    pub response: Response,
    /// Retries spent on this request (0 = first attempt succeeded).
    pub retries: u32,
    /// Whether the response came from the server's degraded
    /// (popularity-fallback) path.
    pub degraded: bool,
}

/// One upstream of a [`ResilientClient`]: its address, an optional
/// persistent connection, and an optional circuit breaker guarding it.
struct Backend {
    addr: SocketAddr,
    conn: Option<HttpClient>,
    breaker: Option<CircuitBreaker>,
}

/// What one attempt told us about a backend, fed to its breaker.
enum Obs {
    Success,
    Failure(Option<Duration>),
}

/// A retrying HTTP client: [`HttpClient`] plus a per-request deadline
/// budget, bounded exponential backoff with seeded jitter, and
/// `Retry-After` honoring.
///
/// Retryable outcomes are transport errors (the connection is reopened),
/// timeouts, truncated/unparseable responses (mid-response resets), 5xx
/// statuses and 429 admission refusals (an over-limit backend names its
/// own pause via `Retry-After`, and the next attempt rotates to another
/// backend); other 2xx/4xx end the loop immediately. A refused connection
/// — the signature of a pod restart window, when nothing is listening on
/// the port yet — is retried on a short pace bounded only by the request
/// deadline, not the retry budget, so a client riding out a rolling
/// restart reconnects the moment the replacement pod binds; a client
/// built on [`RetryPolicy::none`] asked for one attempt and gets one,
/// refusals included (a router leg over a lost group fails at once
/// instead of spending its budget). Backoff
/// jitter is drawn from a per-request RNG seeded by `client seed ^
/// request-id hash`, so a rerun with the same seed and ids retries on a
/// bit-identical schedule.
///
/// A client may hold several backends ([`Self::new_multi`]). Failed
/// attempts rotate to the next one, and [`Self::with_breakers`] puts a
/// circuit breaker in front of each (an open breaker takes its backend
/// out of rotation until the open interval lapses).
pub struct ResilientClient {
    backends: Vec<Backend>,
    current: usize,
    policy: RetryPolicy,
    attempt_timeout: Duration,
    seed: u64,
    total_retries: u64,
    reconnects: u64,
    /// Epoch for breaker clocks: breakers reason in `Duration` since
    /// client creation, never in wall-clock instants.
    started: Instant,
}

/// Floor on the reconnect pace while a backend's port is refusing
/// connections (a restart window): fast enough to catch the replacement
/// pod promptly, slow enough not to SYN-flood the host.
const REFUSED_PACE: Duration = Duration::from_millis(10);

impl ResilientClient {
    /// Creates a client for `addr`. Nothing is connected until the first
    /// request (and reconnection after failures is automatic).
    pub fn new(addr: SocketAddr, policy: RetryPolicy, seed: u64) -> ResilientClient {
        Self::new_multi(vec![addr], policy, seed)
    }

    /// Creates a client over several equivalent backends. Attempts start
    /// at the most recently healthy backend and rotate on failure.
    pub fn new_multi(addrs: Vec<SocketAddr>, policy: RetryPolicy, seed: u64) -> ResilientClient {
        assert!(!addrs.is_empty(), "a client needs at least one backend");
        ResilientClient {
            backends: addrs
                .into_iter()
                .map(|addr| Backend {
                    addr,
                    conn: None,
                    breaker: None,
                })
                .collect(),
            current: 0,
            policy,
            attempt_timeout: Duration::from_secs(5),
            seed,
            total_retries: 0,
            reconnects: 0,
            started: Instant::now(),
        }
    }

    /// Overrides the per-attempt timeout (default 5 s). Each attempt is
    /// additionally clamped to what is left of the request budget.
    pub fn with_attempt_timeout(mut self, timeout: Duration) -> Self {
        self.attempt_timeout = timeout;
        self
    }

    /// Puts a circuit breaker in front of every backend. While a breaker
    /// is open its backend is skipped in rotation; when every breaker is
    /// open the request fails at once with a `ConnectionRefused`-class
    /// error and dials nothing (a half-open breaker still admits its
    /// probe, so recovery is unchanged).
    pub fn with_breakers(mut self, config: BreakerConfig) -> Self {
        for b in &mut self.backends {
            b.breaker = Some(CircuitBreaker::new(config));
        }
        self
    }

    /// Retries spent across every request on this client.
    pub fn total_retries(&self) -> u64 {
        self.total_retries
    }

    /// Connections opened: the initial connect plus every reopen after a
    /// transport failure.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// The breaker state of backend `idx`, when breakers are configured.
    pub fn breaker_state(&self, idx: usize) -> Option<BreakerState> {
        self.backends[idx].breaker.as_ref().map(|b| b.state())
    }

    /// Feeds one attempt outcome to backend `idx`'s breaker, if any.
    fn observe(&mut self, idx: usize, obs: Obs) {
        let now = self.started.elapsed();
        if let Some(b) = self.backends[idx].breaker.as_mut() {
            match obs {
                Obs::Success => b.record_success(),
                Obs::Failure(after) => b.record_failure(now, after),
            }
        }
    }

    /// Picks the backend for the next attempt: the first from `current`
    /// whose breaker admits traffic, or `None` when no breaker does.
    fn pick(&mut self, now: Duration) -> Option<usize> {
        let n = self.backends.len();
        for off in 0..n {
            let idx = (self.current + off) % n;
            let admitted = match self.backends[idx].breaker.as_mut() {
                None => true,
                Some(b) => b.allow(now),
            };
            if admitted {
                self.current = idx;
                return Some(idx);
            }
        }
        None
    }

    /// Sends `req`, retrying under `budget`. The request must carry an
    /// `x-request-id` header (the retry schedule is keyed by it); one is
    /// generated when missing, like [`HttpClient::request`].
    pub fn request_within(
        &mut self,
        req: &Request,
        budget: Duration,
    ) -> Result<ResilientResponse, ClientError> {
        let mut tagged;
        let req = if req.headers.contains_key("x-request-id") {
            req
        } else {
            tagged = req.clone();
            let n = NEXT_AUTO_REQUEST_ID.fetch_add(1, Ordering::Relaxed);
            tagged
                .headers
                .insert("x-request-id".into(), format!("auto-r-{n}"));
            &tagged
        };
        let rid = req.headers.get("x-request-id").expect("tagged above");
        let deadline = Deadline::after(budget);
        let mut backoff = Backoff::new(self.policy.clone(), self.seed ^ request_id_hash(rid));
        let mut retries = 0u32;
        loop {
            let Some(idx) = self.pick(self.started.elapsed()) else {
                // Every breaker is open: dialling a backend they all just
                // condemned would only ride out refusals to the deadline.
                break Err(ClientError::Io(std::io::Error::new(
                    ErrorKind::ConnectionRefused,
                    "every backend's circuit breaker is open",
                )));
            };
            let outcome = self.attempt_on(idx, req, &deadline);
            let (retry_after, last_err) = match outcome {
                Ok(resp) if resp.status < 500 && resp.status != 429 => {
                    self.observe(idx, Obs::Success);
                    let degraded = resp
                        .headers
                        .contains_key(crate::rustserver::DEGRADED_HEADER);
                    break Ok(ResilientResponse {
                        response: resp,
                        retries,
                        degraded,
                    });
                }
                Ok(resp) => {
                    // 5xx or a 429 admission refusal: retryable; the
                    // server may name its own pause.
                    let after = resp
                        .headers
                        .get("retry-after")
                        .and_then(|v| parse_retry_after(v));
                    self.observe(idx, Obs::Failure(after));
                    self.current = (idx + 1) % self.backends.len();
                    (after, Err(resp))
                }
                Err(e) => {
                    // Transport failure: the connection state is unknown
                    // (a response could still be in flight), start fresh.
                    self.backends[idx].conn = None;
                    self.observe(idx, Obs::Failure(None));
                    self.current = (idx + 1) % self.backends.len();
                    let refused = matches!(
                        &e,
                        ClientError::Io(io) if io.kind() == ErrorKind::ConnectionRefused
                    );
                    if refused && self.policy.max_retries > 0 && !deadline.expired() {
                        // Restart window: nothing is listening on the port
                        // yet. Pace by the deadline, not the retry budget —
                        // refused connects return instantly, so a rolling
                        // restart would burn `max_retries` in microseconds
                        // and surface as a terminal error mid-restart.
                        std::thread::sleep(deadline.clamp(self.policy.base.max(REFUSED_PACE)));
                        retries += 1;
                        self.total_retries += 1;
                        continue;
                    }
                    (None, Ok(e))
                }
            };
            let Some(mut delay) = backoff.next_delay_within(&deadline) else {
                // Budget exhausted: surface the terminal outcome.
                break match last_err {
                    Err(resp) => Ok(ResilientResponse {
                        response: resp,
                        retries,
                        degraded: false,
                    }),
                    Ok(e) => Err(e),
                };
            };
            if let Some(after) = retry_after {
                delay = delay.max(deadline.clamp(after));
            }
            std::thread::sleep(delay);
            retries += 1;
            self.total_retries += 1;
        }
    }

    /// One attempt against backend `idx`: (re)connect if needed and
    /// send, with the read timeout clamped to the remaining budget.
    fn attempt_on(
        &mut self,
        idx: usize,
        req: &Request,
        deadline: &Deadline,
    ) -> Result<Response, ClientError> {
        let timeout = deadline.clamp(self.attempt_timeout);
        if timeout.is_zero() {
            return Err(ClientError::Timeout);
        }
        if self.backends[idx].conn.is_none() {
            self.reconnects += 1;
            self.backends[idx].conn = Some(HttpClient::connect_with_timeout(
                self.backends[idx].addr,
                timeout,
            )?);
        }
        let conn = self.backends[idx].conn.as_mut().expect("connected above");
        conn.set_timeout(timeout)?;
        conn.request(req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Method;
    use crate::reactor::{start, ReactorConfig};
    use crate::rustserver::Handler;
    use std::sync::Arc;

    fn slow_handler(delay: Duration) -> Handler {
        Arc::new(move |req| {
            if req.method == Method::Get && req.path == "/slow" {
                std::thread::sleep(delay);
            }
            crate::http::Response::ok("done")
        })
    }

    #[test]
    fn timeouts_are_reported() {
        let server = start(
            ReactorConfig::default(),
            slow_handler(Duration::from_millis(300)),
        )
        .unwrap();
        let mut client =
            HttpClient::connect_with_timeout(server.addr(), Duration::from_millis(30)).unwrap();
        match client.request(&Request::get("/slow")) {
            Err(ClientError::Timeout) => {}
            other => panic!("expected timeout, got {other:?}"),
        }
        server.shutdown();
    }

    /// A raw server that answers its first accept with a truncated
    /// response — `Content-Length: 100` but only half the body — then
    /// closes, and serves every later accept a full, correct response.
    fn short_read_server() -> (SocketAddr, std::thread::JoinHandle<u64>) {
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let mut accepts = 0u64;
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { continue };
                accepts += 1;
                // Drain the request head (one read is enough for the
                // tiny GETs the test sends).
                let mut sink = [0u8; 1024];
                let _ = stream.read(&mut sink);
                if accepts == 1 {
                    let head = b"HTTP/1.1 200 OK\r\ncontent-length: 100\r\n\r\n";
                    let _ = stream.write_all(head);
                    let _ = stream.write_all(&[b'x'; 50]);
                    // Close 50 bytes short of the promised length.
                    drop(stream);
                    continue;
                }
                let body = b"full response";
                let head = format!("HTTP/1.1 200 OK\r\ncontent-length: {}\r\n\r\n", body.len());
                let _ = stream.write_all(head.as_bytes());
                let _ = stream.write_all(body);
                break; // test over after the first good exchange
            }
            accepts
        });
        (addr, handle)
    }

    #[test]
    fn short_reads_are_connection_reset_errors_not_truncated_successes() {
        let (addr, server) = short_read_server();
        let mut client = HttpClient::connect(addr).unwrap();
        match client.request(&Request::get("/rec")) {
            Err(ClientError::Io(e)) => {
                assert_eq!(
                    e.kind(),
                    ErrorKind::ConnectionReset,
                    "short read must be ConnReset-class, got {e:?}"
                );
            }
            other => panic!("truncated body surfaced as {other:?}"),
        }
        // The aborted exchange poisons the connection: the next request
        // on it fails fast instead of parsing leftovers.
        match client.request(&Request::get("/rec")) {
            Err(ClientError::Io(e)) => assert_eq!(e.kind(), ErrorKind::ConnectionReset),
            other => panic!("poisoned connection served {other:?}"),
        }
        // A fresh connection closes the loop so the server thread exits.
        let mut fresh = HttpClient::connect(addr).unwrap();
        let resp = fresh.request(&Request::get("/rec")).unwrap();
        assert_eq!(&resp.body[..], b"full response");
        assert_eq!(server.join().unwrap(), 2);
    }

    #[test]
    fn resilient_client_retries_short_reads_to_a_full_response() {
        let (addr, server) = short_read_server();
        let policy = RetryPolicy {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(4),
            max_retries: 5,
            jitter: 0.5,
        };
        let mut client = ResilientClient::new(addr, policy, 11);
        let out = client
            .request_within(&Request::get("/rec"), Duration::from_secs(5))
            .unwrap();
        assert_eq!(out.response.status, 200);
        assert_eq!(&out.response.body[..], b"full response");
        assert!(out.retries >= 1, "the short read must have cost a retry");
        assert_eq!(
            server.join().unwrap(),
            2,
            "retry must use a fresh connection"
        );
    }

    #[test]
    fn missing_request_ids_are_generated_and_unique() {
        // Echo the request id back so the test can see what went on the
        // wire.
        let handler: Handler = Arc::new(|req| {
            let id = req.headers.get("x-request-id").cloned().unwrap_or_default();
            crate::http::Response::ok(id)
        });
        let server = start(ReactorConfig::default(), handler).unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let a = client.request(&Request::get("/")).unwrap();
        let b = client.request(&Request::get("/")).unwrap();
        assert!(a.body.starts_with(b"auto-"), "{:?}", a.body);
        assert_ne!(a.body, b.body, "ids must be unique per request");
        // An explicit id is passed through untouched.
        let mut req = Request::get("/");
        req.headers.insert("x-request-id".into(), "mine".into());
        let c = client.request(&req).unwrap();
        assert_eq!(&c.body[..], b"mine");
        server.shutdown();
    }

    #[test]
    fn resilient_client_retries_transient_errors_to_success() {
        use std::sync::atomic::AtomicU64;

        let calls = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&calls);
        let handler: Handler = Arc::new(move |_| {
            if seen.fetch_add(1, Ordering::SeqCst) < 2 {
                crate::http::Response::error(500, "transient")
            } else {
                crate::http::Response::ok("finally")
            }
        });
        let server = start(ReactorConfig::default(), handler).unwrap();
        let policy = RetryPolicy {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(4),
            max_retries: 5,
            jitter: 0.5,
        };
        let mut client = ResilientClient::new(server.addr(), policy, 7);
        let out = client
            .request_within(&Request::get("/flaky"), Duration::from_secs(5))
            .unwrap();
        assert_eq!(out.response.status, 200);
        assert_eq!(out.retries, 2, "two 500s before the 200");
        assert!(!out.degraded);
        assert_eq!(client.total_retries(), 2);
        server.shutdown();
    }

    #[test]
    fn traced_requests_record_retries_as_sibling_attempts() {
        use parking_lot::Mutex;
        use std::sync::atomic::AtomicU64;

        // 500 twice, then succeed, while capturing the request ids that
        // actually crossed the wire: every attempt of one request carries
        // the same id, whether the caller chose it or the client did.
        let calls = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&calls);
        let wire_ids: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let wire = Arc::clone(&wire_ids);
        let handler: Handler = Arc::new(move |req| {
            wire.lock()
                .push(req.headers.get("x-request-id").cloned().unwrap_or_default());
            if seen.fetch_add(1, Ordering::SeqCst) % 3 < 2 {
                crate::http::Response::error(500, "transient")
            } else {
                crate::http::Response::ok("finally")
            }
        });
        let server = start(ReactorConfig::default(), handler).unwrap();
        let policy = RetryPolicy {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(4),
            max_retries: 5,
            jitter: 0.5,
        };
        let mut client = ResilientClient::new(server.addr(), policy, 7);
        let mut named = Request::get("/flaky");
        named
            .headers
            .insert("x-request-id".into(), "traced-1".into());
        for (k, req) in [named, Request::get("/flaky")].iter().enumerate() {
            let out = client.request_within(req, Duration::from_secs(5)).unwrap();
            assert_eq!(out.response.status, 200);
            assert_eq!(out.retries, 2, "two 500s before the 200");
            assert_eq!(client.total_retries(), 2 * (k as u64 + 1));
        }
        let on_wire = wire_ids.lock();
        assert_eq!(on_wire.len(), 6, "three attempts per request");
        assert!(on_wire[..3].iter().all(|id| id == "traced-1"));
        let generated = &on_wire[3];
        assert!(!generated.is_empty() && generated != "traced-1");
        assert!(on_wire[3..].iter().all(|id| id == generated));
        server.shutdown();
    }

    #[test]
    fn resilient_client_gives_up_inside_the_budget() {
        let handler: Handler = Arc::new(|_| crate::http::Response::error(500, "always"));
        let server = start(ReactorConfig::default(), handler).unwrap();
        let policy = RetryPolicy {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(2),
            max_retries: 3,
            jitter: 0.0,
        };
        let mut client = ResilientClient::new(server.addr(), policy, 1);
        let started = std::time::Instant::now();
        let out = client
            .request_within(&Request::get("/dead"), Duration::from_millis(500))
            .unwrap();
        assert_eq!(out.response.status, 500, "terminal 5xx is surfaced");
        assert_eq!(out.retries, 3, "full retry budget spent");
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "bounded by budget, not hung"
        );
        server.shutdown();
    }

    #[test]
    fn resilient_client_reconnects_through_connection_resets() {
        use crate::rustserver::RESET_MARKER;
        use std::sync::atomic::AtomicU64;

        let calls = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&calls);
        let handler: Handler = Arc::new(move |_| {
            let resp = crate::http::Response::ok("payload");
            if seen.fetch_add(1, Ordering::SeqCst) < 2 {
                resp.with_header(RESET_MARKER, "1".to_string())
            } else {
                resp
            }
        });
        let server = start(ReactorConfig::default(), handler).unwrap();
        let policy = RetryPolicy {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(4),
            max_retries: 6,
            jitter: 0.5,
        };
        let mut client = ResilientClient::new(server.addr(), policy, 11)
            .with_attempt_timeout(Duration::from_millis(200));
        let out = client
            .request_within(&Request::get("/resetting"), Duration::from_secs(10))
            .unwrap();
        assert_eq!(out.response.status, 200);
        assert_eq!(out.retries, 2, "two resets before the clean response");
        assert!(
            client.reconnects() >= 3,
            "initial connect plus one reopen per reset, got {}",
            client.reconnects()
        );
        server.shutdown();
    }

    #[test]
    fn traced_transport_failures_have_status_none() {
        use crate::rustserver::RESET_MARKER;
        use std::sync::atomic::AtomicU64;

        // A reset mid-response is a transport failure with no status:
        // with no retries it surfaces as an I/O error, never as a
        // response; with retries it costs exactly one before the 200.
        let reset_once = || -> Handler {
            let calls = Arc::new(AtomicU64::new(0));
            Arc::new(move |_| {
                let resp = crate::http::Response::ok("payload");
                if calls.fetch_add(1, Ordering::SeqCst) < 1 {
                    resp.with_header(RESET_MARKER, "1".to_string())
                } else {
                    resp
                }
            })
        };
        let server = start(ReactorConfig::default(), reset_once()).unwrap();
        let mut client = ResilientClient::new(server.addr(), RetryPolicy::none(), 13)
            .with_attempt_timeout(Duration::from_millis(200));
        match client.request_within(&Request::get("/reset"), Duration::from_secs(5)) {
            Err(ClientError::Io(_)) => {}
            other => panic!("reset mid-response surfaced as {other:?}"),
        }
        server.shutdown();

        let server = start(ReactorConfig::default(), reset_once()).unwrap();
        let policy = RetryPolicy {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(4),
            max_retries: 4,
            jitter: 0.0,
        };
        let mut client = ResilientClient::new(server.addr(), policy, 13)
            .with_attempt_timeout(Duration::from_millis(200));
        let out = client
            .request_within(&Request::get("/reset"), Duration::from_secs(5))
            .unwrap();
        assert_eq!(out.response.status, 200);
        assert_eq!(out.retries, 1, "one reset, one retry");
        server.shutdown();
    }

    #[test]
    fn resilient_client_flags_degraded_responses() {
        use crate::rustserver::DEGRADED_HEADER;

        let handler: Handler = Arc::new(|_| {
            crate::http::Response::ok("0:1,1:0.5").with_header(DEGRADED_HEADER, "1".to_string())
        });
        let server = start(ReactorConfig::default(), handler).unwrap();
        let mut client = ResilientClient::new(server.addr(), RetryPolicy::none(), 0);
        let out = client
            .request_within(&Request::get("/degraded"), Duration::from_secs(1))
            .unwrap();
        assert_eq!(out.response.status, 200);
        assert!(out.degraded);
        assert_eq!(out.retries, 0);
        server.shutdown();
    }

    #[test]
    fn retry_after_parsing_tolerates_hostile_values() {
        // Plain seconds, with or without surrounding whitespace.
        assert_eq!(parse_retry_after("1"), Some(Duration::from_secs(1)));
        assert_eq!(parse_retry_after(" 1 "), Some(Duration::from_secs(1)));
        assert_eq!(parse_retry_after("\t30\t"), Some(Duration::from_secs(30)));
        assert_eq!(parse_retry_after("0"), Some(Duration::ZERO));
        // Absurd-but-parseable values clamp instead of parking the
        // client for a week.
        assert_eq!(
            parse_retry_after("604800"),
            Some(Duration::from_secs(MAX_RETRY_AFTER_SECS))
        );
        assert_eq!(
            parse_retry_after("18446744073709551615"),
            Some(Duration::from_secs(MAX_RETRY_AFTER_SECS))
        );
        // Everything unparseable falls back to client backoff.
        assert_eq!(parse_retry_after(""), None);
        assert_eq!(parse_retry_after("   "), None);
        assert_eq!(parse_retry_after("soon"), None);
        assert_eq!(parse_retry_after("1.5"), None);
        assert_eq!(parse_retry_after("-2"), None);
        assert_eq!(parse_retry_after("+3"), None, "signs are not seconds");
        assert_eq!(
            parse_retry_after("99999999999999999999999"),
            None,
            "overflow"
        );
        assert_eq!(parse_retry_after("Wed, 21 Oct 2015 07:28:00 GMT"), None);
    }

    #[test]
    fn garbage_retry_after_falls_back_to_client_backoff() {
        use std::sync::atomic::AtomicU64;

        // Unparseable Retry-After values must not derail the retry loop:
        // the client converges on its own backoff schedule.
        let calls = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&calls);
        let handler: Handler = Arc::new(move |_| match seen.fetch_add(1, Ordering::SeqCst) {
            0 => crate::http::Response::error(503, "busy")
                .with_header("retry-after", "garbage".to_string()),
            1 => crate::http::Response::error(503, "busy")
                .with_header("retry-after", "Wed, 21 Oct 2015 07:28:00 GMT".to_string()),
            _ => crate::http::Response::ok("done"),
        });
        let server = start(ReactorConfig::default(), handler).unwrap();
        let policy = RetryPolicy {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(4),
            max_retries: 5,
            jitter: 0.0,
        };
        let mut client = ResilientClient::new(server.addr(), policy, 3);
        let out = client
            .request_within(&Request::get("/busy"), Duration::from_secs(5))
            .unwrap();
        assert_eq!(out.response.status, 200);
        assert_eq!(out.retries, 2);
        server.shutdown();
    }

    #[test]
    fn absurd_retry_after_is_clamped_to_the_deadline_budget() {
        // A server demanding a 999999999-second pause: the wait is
        // clamped to what is left of the request budget, so the call
        // returns (with the terminal outcome) instead of parking the
        // client for three decades.
        let handler: Handler = Arc::new(|_| {
            crate::http::Response::error(503, "busy")
                .with_header("retry-after", "999999999".to_string())
        });
        let server = start(ReactorConfig::default(), handler).unwrap();
        let policy = RetryPolicy {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(4),
            max_retries: 5,
            jitter: 0.0,
        };
        let mut client = ResilientClient::new(server.addr(), policy, 3);
        let started = std::time::Instant::now();
        let out = client.request_within(&Request::get("/busy"), Duration::from_millis(300));
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "clamped to the deadline, not the header value"
        );
        // Budget exhausted mid-loop: either the last 5xx or a timeout on
        // the final zero-budget attempt — never a hang.
        match out {
            Ok(resp) => assert_eq!(resp.response.status, 503),
            Err(ClientError::Timeout) => {}
            Err(other) => panic!("unexpected terminal error: {other}"),
        }
        server.shutdown();
    }

    #[test]
    fn fast_requests_succeed_within_timeout() {
        let server = start(ReactorConfig::default(), slow_handler(Duration::ZERO)).unwrap();
        let mut client =
            HttpClient::connect_with_timeout(server.addr(), Duration::from_secs(1)).unwrap();
        let resp = client.request(&Request::get("/fast")).unwrap();
        assert_eq!(resp.status, 200);
        server.shutdown();
    }

    /// An address that is currently refusing connections (bound, then
    /// released).
    fn vacant_addr() -> std::net::SocketAddr {
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        listener.local_addr().unwrap()
    }

    #[test]
    fn connection_refused_during_a_restart_window_is_ridden_out() {
        use crate::reactor::start_on;

        // A pod restart window: nothing listens on the port for ~300 ms,
        // then the replacement binds. The old client burned its whole
        // `max_retries` budget in microseconds of instant refusals and
        // surfaced a terminal error; the refused fast-path paces on the
        // deadline instead.
        let addr = vacant_addr();
        let replacement = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(300));
            start_on(addr, ReactorConfig::default(), slow_handler(Duration::ZERO)).unwrap()
        });
        let policy = RetryPolicy {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(4),
            max_retries: 2, // far fewer retries than the window would need
            jitter: 0.0,
        };
        let mut client = ResilientClient::new(addr, policy, 21);
        let started = std::time::Instant::now();
        let out = client
            .request_within(&Request::get("/fast"), Duration::from_secs(5))
            .unwrap();
        assert_eq!(out.response.status, 200);
        assert!(
            started.elapsed() >= Duration::from_millis(250),
            "the client waited out the restart window"
        );
        assert!(
            out.retries > 2,
            "refused reconnects are paced by the deadline, not max_retries (2): {}",
            out.retries
        );
        replacement.join().unwrap().shutdown();
    }

    #[test]
    fn no_retry_policy_fails_a_refused_connect_at_once() {
        // One attempt means one attempt: a refused connect is not
        // ridden out to the deadline when the policy retries nothing.
        let mut client = ResilientClient::new(vacant_addr(), RetryPolicy::none(), 23);
        let started = std::time::Instant::now();
        let out = client.request_within(&Request::get("/gone"), Duration::from_secs(5));
        match out {
            Err(ClientError::Io(e)) => assert_eq!(e.kind(), ErrorKind::ConnectionRefused),
            other => panic!("expected a refused connect, got {other:?}"),
        }
        assert!(
            started.elapsed() < Duration::from_millis(100),
            "refusal took {:?}",
            started.elapsed()
        );
        assert_eq!(client.total_retries(), 0);
    }

    #[test]
    fn refused_connections_still_fail_once_the_deadline_expires() {
        // Nothing ever binds: the fast-path must terminate at the
        // deadline with a transport error, not spin forever.
        let addr = vacant_addr();
        let policy = RetryPolicy {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(4),
            max_retries: 2,
            jitter: 0.0,
        };
        let mut client = ResilientClient::new(addr, policy, 22);
        let started = std::time::Instant::now();
        let out = client.request_within(&Request::get("/gone"), Duration::from_millis(300));
        assert!(out.is_err(), "no server ever came back");
        assert!(
            started.elapsed() < Duration::from_secs(3),
            "bounded by the deadline"
        );
    }

    #[test]
    fn open_breaker_diverts_traffic_to_a_healthy_backend() {
        use etude_control::BreakerState;

        let sick: Handler = Arc::new(|_| crate::http::Response::error(500, "sick"));
        let healthy: Handler = Arc::new(|_| crate::http::Response::ok("fine"));
        let bad = start(ReactorConfig::default(), sick).unwrap();
        let good = start(ReactorConfig::default(), healthy).unwrap();
        let policy = RetryPolicy {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(4),
            max_retries: 6,
            jitter: 0.0,
        };
        let mut client = ResilientClient::new_multi(vec![bad.addr(), good.addr()], policy, 9)
            .with_breakers(BreakerConfig {
                failure_threshold: 1,
                open_for: Duration::from_secs(60),
                half_open_successes: 1,
            });
        // The first request eats one 500 from the sick backend — tripping
        // its breaker — then fails over to the healthy one.
        let out = client
            .request_within(&Request::get("/a"), Duration::from_secs(5))
            .unwrap();
        assert_eq!(out.response.status, 200);
        assert_eq!(out.retries, 1, "one 500 before the failover");
        assert_eq!(client.breaker_state(0), Some(BreakerState::Open));
        assert_eq!(client.breaker_state(1), Some(BreakerState::Closed));
        // While the breaker is open, requests go straight to the healthy
        // backend without ever dialling the sick one.
        for _ in 0..3 {
            let out = client
                .request_within(&Request::get("/b"), Duration::from_secs(5))
                .unwrap();
            assert_eq!(out.response.status, 200);
            assert_eq!(out.retries, 0, "open breaker skipped without an attempt");
        }
        assert_eq!(client.breaker_state(0), Some(BreakerState::Open));
        bad.shutdown();
        good.shutdown();
    }

    #[test]
    fn open_breakers_fail_fast_without_dialling() {
        // A dead backend behind a one-strike breaker: the first request
        // trips it, and from then on the client answers at once instead
        // of riding out refusals until the deadline.
        let addr = vacant_addr();
        let policy = RetryPolicy {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(4),
            max_retries: 2,
            jitter: 0.0,
        };
        let mut client = ResilientClient::new(addr, policy, 23).with_breakers(BreakerConfig {
            failure_threshold: 1,
            open_for: Duration::from_secs(60),
            half_open_successes: 1,
        });
        let first = client.request_within(&Request::get("/gone"), Duration::from_secs(5));
        assert!(first.is_err(), "nothing listens on the port");
        assert_eq!(client.breaker_state(0), Some(BreakerState::Open));
        let dialled = client.reconnects();
        let started = Instant::now();
        match client.request_within(&Request::get("/gone"), Duration::from_secs(5)) {
            Err(ClientError::Io(e)) => assert_eq!(e.kind(), ErrorKind::ConnectionRefused),
            other => panic!("expected a refused-class error, got {other:?}"),
        }
        assert_eq!(
            client.reconnects(),
            dialled,
            "an open breaker dials nothing"
        );
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "failed fast, not at the deadline: {:?}",
            started.elapsed()
        );
    }
}
