//! Concurrency/protocol suite pinning the server's observable behavior
//! under hostile client shapes. The reactor is allowed to change
//! *capacity*, never protocol semantics, so every scenario asserts its
//! literal transcript — statuses, bodies, and whether the connection
//! was closed:
//!
//! * keep-alive pipelining (many requests in one write, answers in
//!   order),
//! * slowloris (headers dripped one byte at a time — the client is not
//!   timed out; it is eventually served),
//! * mid-request disconnect (half a request then FIN — dropped without
//!   a response, server stays healthy),
//! * oversized body rejection (`Content-Length` past the cap → 500 and
//!   close, without buffering the body),
//! * oversized head rejection (no blank line within the head cap → 500
//!   and close, without buffering further),
//! * requests pipelined behind a malformed one die with the connection,
//! * a 10k-idle-connections smoke test (the scenario a server that
//!   scans its connections exists to lose).

use etude_serve::http::{self, Method, Request, Response};
use etude_serve::reactor::{self, raise_nofile_limit, ReactorConfig};
use etude_serve::rustserver::{Handler, ServerHandle};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn echo_handler() -> Handler {
    Arc::new(|req: &Request| match (req.method, req.path.as_str()) {
        (Method::Get, "/ping") => Response::ok("pong"),
        (Method::Post, "/echo") => Response::ok(req.body.clone()),
        _ => Response::error(404, "no such route"),
    })
}

fn server() -> ServerHandle {
    reactor::start(ReactorConfig::default(), echo_handler()).unwrap()
}

/// Reads exactly `n` responses off a raw socket, returning parsed
/// responses plus whether the server closed the connection after them.
fn read_responses(stream: &mut TcpStream, n: usize) -> (Vec<Response>, bool) {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut buf = bytes::BytesMut::new();
    let mut out = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut closed = false;
    while out.len() < n {
        match http::parse_response(&mut buf) {
            Ok(resp) => {
                out.push(resp);
                continue;
            }
            Err(http::HttpError::Incomplete) => {}
            Err(e) => panic!("malformed response bytes: {e:?}"),
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                closed = true;
                // Drain whatever complete responses arrived before the
                // close before giving up.
                while out.len() < n {
                    match http::parse_response(&mut buf) {
                        Ok(resp) => out.push(resp),
                        Err(http::HttpError::Incomplete) => break,
                        Err(e) => panic!("malformed response bytes: {e:?}"),
                    }
                }
                break;
            }
            Ok(got) => buf.extend_from_slice(&chunk[..got]),
            Err(e) => panic!("read failed: {e}"),
        }
    }
    if out.len() == n && !closed {
        // Probe for close without blocking the test: a short timeout
        // read distinguishes "held open" from "server closed".
        stream
            .set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        match stream.read(&mut chunk) {
            Ok(0) => closed = true,
            Ok(_) => panic!("unexpected extra bytes after {n} responses"),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(_) => closed = true,
        }
    }
    (out, closed)
}

#[test]
fn pipelined_requests_answer_in_order() {
    let server = server();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    // Six requests in a single write: interleaved GETs and POSTs
    // whose bodies disambiguate ordering.
    let mut wire = Vec::new();
    for i in 0..3 {
        wire.extend_from_slice(&Request::get("/ping").encode());
        wire.extend_from_slice(&Request::post("/echo", format!("body-{i}")).encode());
    }
    stream.write_all(&wire).unwrap();
    let (responses, closed) = read_responses(&mut stream, 6);
    assert_eq!(responses.len(), 6, "lost pipelined responses");
    assert!(!closed, "keep-alive connection was closed");
    for (i, pair) in responses.chunks(2).enumerate() {
        assert_eq!(pair[0].status, 200);
        assert_eq!(&pair[0].body[..], b"pong");
        assert_eq!(pair[1].status, 200);
        assert_eq!(pair[1].body, format!("body-{i}").as_bytes());
    }
    // The connection stays usable afterwards.
    stream
        .write_all(&Request::post("/echo", "after").encode())
        .unwrap();
    let (more, _) = read_responses(&mut stream, 1);
    assert_eq!(&more[0].body[..], b"after");
    assert_eq!(server.requests_served(), 7);
    server.shutdown();
}

#[test]
fn slowloris_headers_are_eventually_served() {
    let server = server();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let wire = Request::post("/echo", "drip").encode();
    // One byte at a time, with a pause every few bytes: the classic
    // slowloris shape. The server imposes no header deadline, so the
    // request must eventually complete.
    for (i, b) in wire.iter().enumerate() {
        stream.write_all(std::slice::from_ref(b)).unwrap();
        if i % 8 == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let (responses, closed) = read_responses(&mut stream, 1);
    assert_eq!(responses.len(), 1, "slowloris never served");
    assert_eq!(responses[0].status, 200);
    assert_eq!(&responses[0].body[..], b"drip");
    assert!(!closed, "keep-alive closed after slowloris");
    server.shutdown();
}

#[test]
fn mid_request_disconnect_is_dropped_without_wedging_the_server() {
    let server = server();
    let addr = server.addr();
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        let wire = Request::post("/echo", "never finished").encode();
        // Half the request, then FIN.
        stream.write_all(&wire[..wire.len() / 2]).unwrap();
    }
    // The partial request must not be served, and the server must
    // keep serving fresh connections promptly.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(&Request::post("/echo", "alive").encode())
        .unwrap();
    let (responses, _) = read_responses(&mut stream, 1);
    assert_eq!(&responses[0].body[..], b"alive");
    assert_eq!(
        server.requests_served(),
        1,
        "the aborted request must not count as served"
    );
    server.shutdown();
}

#[test]
fn oversized_bodies_are_rejected() {
    let server = server();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    // Headers declaring a body one byte past the cap; the server
    // must reject on the declaration without waiting for the bytes.
    let head = format!(
        "POST /echo HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
        http::MAX_BODY_BYTES + 1
    );
    stream.write_all(head.as_bytes()).unwrap();
    let (responses, closed) = read_responses(&mut stream, 1);
    assert_eq!(responses.len(), 1, "no rejection response");
    assert_eq!(responses[0].status, 500);
    assert_eq!(&responses[0].body[..], b"bad request");
    assert!(closed, "connection must close after a bad request");
    server.shutdown();
}

#[test]
fn never_terminated_heads_are_rejected_at_the_head_cap() {
    let server = server();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    // A request line and then header bytes without end: exactly the cap
    // and not one blank line. The server must answer on what it has
    // instead of buffering toward the connection-level cap.
    let mut wire = b"POST /echo HTTP/1.1\r\nx-filler: ".to_vec();
    wire.resize(http::MAX_HEAD_BYTES, b'a');
    stream.write_all(&wire).unwrap();
    let (responses, closed) = read_responses(&mut stream, 1);
    assert_eq!(responses.len(), 1, "no rejection response");
    assert_eq!(responses[0].status, 500);
    assert_eq!(&responses[0].body[..], b"bad request");
    assert!(closed, "connection must close after a bad request");
    assert_eq!(server.requests_served(), 0);
    server.shutdown();
}

#[test]
fn requests_pipelined_behind_a_malformed_one_die_with_the_connection() {
    let server = server();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut wire = Vec::new();
    wire.extend_from_slice(&Request::post("/echo", "first").encode());
    wire.extend_from_slice(b"NONSENSE /x HTTP/9.9\r\n\r\n");
    wire.extend_from_slice(&Request::post("/echo", "doomed").encode());
    stream.write_all(&wire).unwrap();
    // The good request answers, the malformed one gets the 500, the
    // one behind it is never served.
    let (responses, closed) = read_responses(&mut stream, 2);
    assert_eq!(responses.len(), 2);
    assert_eq!(responses[0].status, 200);
    assert_eq!(&responses[0].body[..], b"first");
    assert_eq!(responses[1].status, 500);
    assert_eq!(&responses[1].body[..], b"bad request");
    assert!(closed, "connection must close after the 500");
    server.shutdown();
}

#[test]
fn ten_thousand_idle_connections_smoke() {
    // Each in-process connection costs two fds (client + server end);
    // leave generous headroom for the harness itself.
    let limit = raise_nofile_limit(25_000).unwrap_or(1024);
    let target = 10_000usize.min(((limit.saturating_sub(500)) / 2) as usize);
    assert!(
        target >= 1_000,
        "fd limit {limit} too low for a meaningful idle-connection smoke"
    );

    let server = server();
    let addr = server.addr();
    let mut idle = Vec::with_capacity(target);
    for i in 0..target {
        match TcpStream::connect(addr) {
            Ok(s) => idle.push(s),
            Err(e) => panic!("connect #{i} failed: {e}"),
        }
    }

    // With `target` idle connections parked, a live request must still
    // be served promptly: idle connections cost a registration, not a
    // scan or a thread.
    let started = Instant::now();
    let mut live = TcpStream::connect(addr).unwrap();
    live.write_all(&Request::post("/echo", "under load").encode())
        .unwrap();
    let (responses, _) = read_responses(&mut live, 1);
    let elapsed = started.elapsed();
    assert_eq!(&responses[0].body[..], b"under load");
    assert!(
        elapsed < Duration::from_secs(5),
        "request took {elapsed:?} with {target} idle connections parked"
    );

    // The parked connections are still live too: spot-check a sample
    // across the accept order (and therefore across event loops).
    for idx in [0, target / 2, target - 1] {
        let conn = &mut idle[idx];
        conn.write_all(&Request::get("/ping").encode()).unwrap();
        let (r, closed) = read_responses(conn, 1);
        assert_eq!(&r[0].body[..], b"pong", "idle conn #{idx} unservable");
        assert!(!closed, "idle conn #{idx} was dropped");
    }

    drop(idle);
    server.shutdown();
}
