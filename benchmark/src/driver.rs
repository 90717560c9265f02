//! The benchmark's load generator: one thread, a few keep-alive
//! connections, HTTP/1.1 pipelining, on the same poller the reactor uses.
//!
//! * **Open loop** — request *i* is due at `i / rate` whatever the server
//!   does; latency runs from the due time, so a stall is charged to every
//!   request queued behind it (no coordinated omission), and how late the
//!   generator itself wrote each request is kept as its send lag.
//! * **Closed loop** — a fixed number of requests in flight; the next one
//!   leaves when an answer arrives.
//!
//! The reactor dispatches pipelined requests concurrently and writes the
//! answers back in request order, so answers are matched first-in
//! first-out per connection.

use bytes::{Bytes, BytesMut};
use etude_serve::http::{self, HttpError, Request};
use etude_serve::reactor::{new_poller, Event, Interest, Poller};
use etude_workload::{SyntheticWorkload, WorkloadConfig};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// The request pool of one run, encoded once so the timed loops only copy
/// bytes. Request `i` carries `x-request-id: <tag>-<i>`.
pub struct Requests {
    pub sessions: Vec<Vec<u32>>,
    wire: Vec<u8>,
    ends: Vec<usize>,
}

impl Requests {
    pub fn encode(tag: &str, sessions: Vec<Vec<u32>>) -> Requests {
        let mut wire = Vec::new();
        let mut ends = Vec::with_capacity(sessions.len());
        for (i, session) in sessions.iter().enumerate() {
            let req = Request::post("/predictions", http::encode_session(session))
                .with_header("x-request-id", format!("{tag}-{i}"));
            wire.extend_from_slice(&req.encode());
            ends.push(wire.len());
        }
        Requests {
            sessions,
            wire,
            ends,
        }
    }

    pub fn len(&self) -> usize {
        self.ends.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    pub fn wire(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.wire[start..self.ends[i]]
    }
}

/// The first `n` requests of the seeded synthetic click log: each click
/// becomes one request carrying its session's prefix up to that click.
/// Returns the sessions and the generator's clicks per second.
pub fn generate_sessions(catalog: usize, seed: u64, n: usize) -> (Vec<Vec<u32>>, f64) {
    let workload = SyntheticWorkload::new(WorkloadConfig::bolcom_like(catalog).with_seed(seed));
    let started = Instant::now();
    let log = workload.generate(n as u64);
    let clicks_per_s = log.len() as f64 / started.elapsed().as_secs_f64();
    let mut sessions = Vec::with_capacity(n);
    let mut prefix: Vec<u32> = Vec::new();
    let mut current = None;
    for click in log.clicks().iter().take(n) {
        if current != Some(click.session) {
            current = Some(click.session);
            prefix.clear();
        }
        prefix.push(click.item);
        sessions.push(prefix.clone());
    }
    (sessions, clicks_per_s)
}

#[derive(Debug, Clone, Copy)]
pub enum Load {
    Open { rate: f64 },
    Closed { in_flight: usize },
}

#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub load: Load,
    /// Length of the schedule (open) or of the sending period (closed),
    /// warm-up included.
    pub duration: Duration,
    /// Pool index of the phase's first request; later ones follow, wrapping.
    pub first_request: usize,
    /// Keep the body of every 200 answer whose pool index is a multiple of
    /// this (0 keeps none).
    pub keep_every: usize,
    /// How long after `duration` unanswered requests are given up as failed.
    pub grace: Duration,
}

/// One request's life, in nanoseconds since [`Outcome::origin`].
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Pool index.
    pub request: u32,
    pub due_ns: u64,
    /// When the generator started writing it.
    pub sent_ns: u64,
    pub done_ns: u64,
    /// HTTP status; 0 when no answer came (transport error or straggler).
    pub status: u16,
}

impl Sample {
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.due_ns)
    }

    pub fn send_lag_ns(&self) -> u64 {
        self.sent_ns.saturating_sub(self.due_ns)
    }
}

pub struct Outcome {
    pub origin: Instant,
    /// In send order.
    pub samples: Vec<Sample>,
    pub kept: Vec<(u32, Bytes)>,
}

struct Conn {
    stream: TcpStream,
    rbuf: BytesMut,
    wbuf: Vec<u8>,
    written: usize,
    /// Sample indices awaiting an answer, oldest first.
    in_flight: VecDeque<usize>,
    want_write: bool,
}

pub struct Client {
    addr: SocketAddr,
    poller: Box<dyn Poller>,
    conns: Vec<Conn>,
}

fn open(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    Ok(stream)
}

#[cfg(target_os = "linux")]
fn pin_current_thread(cpu: usize) -> bool {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let Some(word) = mask.get_mut(cpu / 64) else {
        return false;
    };
    *word = 1 << (cpu % 64);
    // SAFETY: `mask` is a live array of exactly the size passed, and pid 0
    // names the calling thread; the call reads the mask and nothing else.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn pin_current_thread(_cpu: usize) -> bool {
    false
}

/// Requests per second a closed-loop phase has sample room for without
/// growing, about twice what the lightest workload completes.
const CLOSED_RATE_ROOM: f64 = 40_000.0;

/// Below this the wait is a non-blocking poll: the poller's timeout is in
/// whole milliseconds and returns late by tens of microseconds, which would
/// all become send lag.
const SPIN_BELOW: Duration = Duration::from_micros(1300);

impl Client {
    pub fn connect(addr: SocketAddr, connections: usize) -> std::io::Result<Client> {
        let mut poller = new_poller()?;
        let mut conns = Vec::with_capacity(connections);
        for token in 0..connections {
            let stream = open(addr)?;
            poller.register(stream.as_raw_fd(), token, Interest::READ)?;
            conns.push(Conn {
                stream,
                rbuf: BytesMut::new(),
                wbuf: Vec::new(),
                written: 0,
                in_flight: VecDeque::new(),
                want_write: false,
            });
        }
        Ok(Client {
            addr,
            poller,
            conns,
        })
    }

    /// Pushes buffered request bytes until the socket would block.
    fn flush(&mut self, token: usize) -> std::io::Result<()> {
        let conn = &mut self.conns[token];
        while conn.written < conn.wbuf.len() {
            match conn.stream.write(&conn.wbuf[conn.written..]) {
                Ok(0) => break,
                Ok(n) => conn.written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // A dead peer shows up as a read event; its requests fail there.
                Err(_) => break,
            }
        }
        if conn.written == conn.wbuf.len() {
            conn.wbuf.clear();
            conn.written = 0;
        }
        let want_write = !conn.wbuf.is_empty();
        if want_write != conn.want_write {
            conn.want_write = want_write;
            let interest = Interest {
                read: true,
                write: want_write,
            };
            self.poller
                .modify(conn.stream.as_raw_fd(), token, interest)?;
        }
        Ok(())
    }

    /// Fails everything in flight on a dead connection and replaces it, so
    /// a closed connection costs its requests, not the run.
    fn replace(
        &mut self,
        token: usize,
        samples: &mut [Sample],
        now_ns: u64,
    ) -> std::io::Result<usize> {
        let conn = &mut self.conns[token];
        let lost = conn.in_flight.len();
        for idx in conn.in_flight.drain(..) {
            samples[idx].done_ns = now_ns;
        }
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        conn.stream = open(self.addr)?;
        conn.rbuf.clear();
        conn.wbuf.clear();
        conn.written = 0;
        conn.want_write = false;
        self.poller
            .register(conn.stream.as_raw_fd(), token, Interest::READ)?;
        Ok(lost)
    }

    /// Runs one phase; an open loop runs on a thread of its own, pinned to
    /// the last CPU.
    ///
    /// The open loop polls without blocking whenever the next request is
    /// near, and the scheduler is free to put that busy thread on the
    /// server's core or on the other one: on a two-core box the two
    /// placements differ twofold in sub-millisecond latency, and which one a
    /// process gets depends on what ran before it. Pinning the generator
    /// leaves the server's threads to the scheduler and takes the generator
    /// out of the lottery. The closed loop blocks between answers and is
    /// better left where the scheduler finds room: pinned, it queues behind
    /// an inference slot on its one core and throughput turns bimodal.
    pub fn run(&mut self, requests: &Requests, phase: &Phase) -> std::io::Result<Outcome> {
        if matches!(phase.load, Load::Closed { .. }) {
            return self.run_here(requests, phase);
        }
        std::thread::scope(|scope| {
            let generator = scope.spawn(|| {
                let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
                if !pin_current_thread(cpus - 1) {
                    eprintln!("load generator: could not pin to cpu {}", cpus - 1);
                }
                self.run_here(requests, phase)
            });
            generator.join().expect("load generator panicked")
        })
    }

    fn run_here(&mut self, requests: &Requests, phase: &Phase) -> std::io::Result<Outcome> {
        assert!(!requests.is_empty(), "empty request pool");
        let now_ns = |origin: Instant| origin.elapsed().as_nanos() as u64;
        let duration_ns = phase.duration.as_nanos() as u64;
        let give_up_ns = duration_ns + phase.grace.as_nanos() as u64;
        let nconn = self.conns.len();

        let (gap_ns, scheduled, quota) = match phase.load {
            Load::Open { rate } => {
                let total = (rate * phase.duration.as_secs_f64()).ceil() as usize;
                (1e9 / rate, total, usize::MAX)
            }
            Load::Closed { in_flight } => (0.0, usize::MAX, (in_flight / nconn).max(1)),
        };
        let open_loop = matches!(phase.load, Load::Open { .. });
        // Sample memory is reserved and touched before the clock starts, so
        // the timed loop takes no page faults for it and the process's peak
        // memory does not depend on how many requests a closed loop completes.
        let capacity = if open_loop {
            scheduled
        } else {
            (CLOSED_RATE_ROOM * phase.duration.as_secs_f64()) as usize
        };
        let blank = Sample {
            request: 0,
            due_ns: 0,
            sent_ns: 0,
            done_ns: 0,
            status: 0,
        };
        let mut samples = vec![blank; capacity];
        samples.clear();
        let origin = Instant::now();
        let mut kept = Vec::new();
        let mut outstanding = 0usize;
        let mut events: Vec<Event> = Vec::new();
        let mut chunk = [0u8; 16 * 1024];

        loop {
            let mut now = now_ns(origin);
            // Send whatever is due.
            if open_loop {
                while samples.len() < scheduled {
                    let i = samples.len();
                    let due_ns = (i as f64 * gap_ns) as u64;
                    if due_ns > now {
                        break;
                    }
                    let token = i % nconn;
                    self.enqueue(token, requests, phase, &mut samples, due_ns, now);
                    outstanding += 1;
                    self.flush(token)?;
                    now = now_ns(origin);
                }
            } else if now < duration_ns {
                for token in 0..nconn {
                    let before = self.conns[token].in_flight.len();
                    for _ in before..quota {
                        self.enqueue(token, requests, phase, &mut samples, now, now);
                        outstanding += 1;
                    }
                    if before < quota {
                        self.flush(token)?;
                    }
                }
            }

            let sending_over = if open_loop {
                samples.len() >= scheduled
            } else {
                now >= duration_ns
            };
            if sending_over && outstanding == 0 {
                break;
            }
            if now > give_up_ns {
                // Stragglers: still unanswered, status stays 0.
                for conn in &mut self.conns {
                    for idx in conn.in_flight.drain(..) {
                        samples[idx].done_ns = now;
                    }
                }
                // Their answers may still arrive; fresh connections keep
                // them out of the next phase.
                for token in 0..nconn {
                    self.replace(token, &mut samples, now)?;
                }
                break;
            }

            let until_next = if open_loop && !sending_over {
                let due_ns = (samples.len() as f64 * gap_ns) as u64;
                Duration::from_nanos(due_ns.saturating_sub(now))
            } else {
                Duration::from_millis(10)
            };
            if until_next >= SPIN_BELOW {
                let whole_ms = (until_next - SPIN_BELOW + Duration::from_millis(1)).as_millis();
                self.poller
                    .wait(&mut events, Duration::from_millis(whole_ms as u64))?;
            } else {
                self.poller.wait(&mut events, Duration::ZERO)?;
                if events.is_empty() {
                    std::thread::yield_now();
                    continue;
                }
            }

            for &ev in &events {
                let token = ev.token;
                if ev.writable {
                    self.flush(token)?;
                }
                if !(ev.readable || ev.closed) {
                    continue;
                }
                let conn = &mut self.conns[token];
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
                let done_ns = now_ns(origin);
                while !conn.rbuf.is_empty() {
                    match http::parse_response(&mut conn.rbuf) {
                        Ok(resp) => {
                            let Some(idx) = conn.in_flight.pop_front() else {
                                died = true; // an answer nobody asked for
                                break;
                            };
                            outstanding -= 1;
                            let sample = &mut samples[idx];
                            sample.done_ns = done_ns;
                            sample.status = resp.status;
                            let keep = phase.keep_every > 0
                                && (sample.request as usize).is_multiple_of(phase.keep_every);
                            if keep && resp.status == 200 {
                                kept.push((sample.request, resp.body));
                            }
                        }
                        Err(HttpError::Incomplete) => break,
                        Err(HttpError::Malformed(_)) => {
                            died = true;
                            break;
                        }
                    }
                }
                if died {
                    outstanding -= self.replace(token, &mut samples, done_ns)?;
                }
            }
        }
        samples.shrink_to_fit();
        Ok(Outcome {
            origin,
            samples,
            kept,
        })
    }

    fn enqueue(
        &mut self,
        token: usize,
        requests: &Requests,
        phase: &Phase,
        samples: &mut Vec<Sample>,
        due_ns: u64,
        sent_ns: u64,
    ) {
        let request = (phase.first_request + samples.len()) % requests.len();
        let conn = &mut self.conns[token];
        conn.wbuf.extend_from_slice(requests.wire(request));
        conn.in_flight.push_back(samples.len());
        samples.push(Sample {
            request: request as u32,
            due_ns,
            sent_ns,
            done_ns: 0,
            status: 0,
        });
    }
}
