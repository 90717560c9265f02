//! The server: a non-blocking, epoll-style event loop that accepts,
//! reads, dispatches and writes for every route table in this crate.
//!
//! A thread that scans the connections it owns (the shape this server
//! replaced; DESIGN §14 keeps its last measurements) saturates the host
//! at tens of thousands of open keep-alive connections on the scan
//! alone. The reactor shape does not:
//!
//! * a **portable poller trait** ([`Poller`]) over readiness APIs, with
//!   an edge-free level-triggered epoll backend on Linux
//!   ([`EpollPoller`], raw `std::os::fd` + FFI — no external crates)
//!   and a `poll(2)` fallback ([`PollPoller`]) everywhere else,
//! * **single-digit event-loop threads** ([`ReactorConfig::event_loops`])
//!   owning per-connection state machines over the incremental
//!   [`crate::http`] parser — idle connections cost one registration,
//!   not a thread or a scan,
//! * a small **dispatch pool** ([`ReactorConfig::dispatch_threads`])
//!   running the (possibly blocking, e.g. continuous-batched) route
//!   [`Handler`]s off-loop, with per-connection response sequencing so
//!   pipelined requests answer in order even when handlers finish out
//!   of order.
//!
//! The protocol contract — pipelining order, malformed-request 500s,
//! oversized-head and oversized-body rejection, EOF handling,
//! [`crate::rustserver::RESET_MARKER`] chaos semantics, write-stall
//! eviction — is pinned scenario by scenario in the `reactor_protocol`
//! test suite.

use crate::http::{self, Response};
use crate::rustserver::{Handler, RESET_MARKER};
use bytes::BytesMut;
use crossbeam::channel::{unbounded, Receiver, Sender};
use etude_metrics::hdr::Histogram;
use etude_obs::{ReactorTelemetry, Recorder};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Raw bindings to the handful of poller syscalls the reactor needs.
/// Declared here instead of pulling in a `libc` dependency: the symbols
/// live in the C library every `std` binary already links.
mod sys {
    /// `epoll_event`. The kernel packs it **only on x86-64** (12 bytes,
    /// `data` at offset 4); every other Linux arch uses natural
    /// alignment (16 bytes, `data` at offset 8). Mirroring the per-arch
    /// layout exactly is what makes the FFI sound — a packed struct on
    /// aarch64 would make `epoll_wait` write past the buffer.
    #[cfg(target_os = "linux")]
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[cfg(target_os = "linux")]
    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    }

    #[cfg(target_os = "linux")]
    pub const EPOLL_CTL_ADD: i32 = 1;
    #[cfg(target_os = "linux")]
    pub const EPOLL_CTL_DEL: i32 = 2;
    #[cfg(target_os = "linux")]
    pub const EPOLL_CTL_MOD: i32 = 3;
    #[cfg(target_os = "linux")]
    pub const EPOLLIN: u32 = 0x001;
    #[cfg(target_os = "linux")]
    pub const EPOLLOUT: u32 = 0x004;
    #[cfg(target_os = "linux")]
    pub const EPOLLERR: u32 = 0x008;
    #[cfg(target_os = "linux")]
    pub const EPOLLHUP: u32 = 0x010;

    /// `struct pollfd`, identical on every POSIX platform we target.
    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    #[cfg(target_os = "linux")]
    pub type Nfds = u64;
    #[cfg(not(target_os = "linux"))]
    pub type Nfds = u32;

    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: Nfds, timeout: i32) -> i32;
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    /// `struct rlimit` for `RLIMIT_NOFILE` manipulation (both fields
    /// are `u64` on the 64-bit platforms we build for).
    #[repr(C)]
    pub struct Rlimit {
        pub cur: u64,
        pub max: u64,
    }

    #[cfg(target_os = "linux")]
    pub const RLIMIT_NOFILE: i32 = 7;
    #[cfg(not(target_os = "linux"))]
    pub const RLIMIT_NOFILE: i32 = 8;

    extern "C" {
        pub fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
        pub fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    }
}

/// Readiness interest for one registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable.
    pub read: bool,
    /// Wake when the fd is writable.
    pub write: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
    /// Registered but dormant (parked connection).
    pub const NONE: Interest = Interest {
        read: false,
        write: false,
    };
}

/// One readiness event out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: usize,
    /// Bytes (or an accept/EOF) are waiting.
    pub readable: bool,
    /// The socket can take more bytes.
    pub writable: bool,
    /// The peer hung up or the fd errored; treat as readable-to-EOF.
    pub closed: bool,
}

/// A portable readiness poller: the one seam between the reactor and
/// the OS. Implementations are level-triggered — an fd that is still
/// ready reappears on the next [`Poller::wait`].
pub trait Poller: Send {
    /// Starts watching `fd` under `token`.
    fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> std::io::Result<()>;
    /// Changes an existing registration's interest.
    fn modify(&mut self, fd: RawFd, token: usize, interest: Interest) -> std::io::Result<()>;
    /// Stops watching `fd`.
    fn deregister(&mut self, fd: RawFd) -> std::io::Result<()>;
    /// Blocks up to `timeout` for readiness, appending into `events`
    /// (cleared first). Returns the number of events delivered.
    fn wait(&mut self, events: &mut Vec<Event>, timeout: Duration) -> std::io::Result<usize>;
    /// Backend name for logs and bench headers.
    fn name(&self) -> &'static str;
}

/// The Linux epoll backend: O(ready) wakeups regardless of how many
/// tens of thousands of connections are registered.
#[cfg(target_os = "linux")]
pub struct EpollPoller {
    epfd: std::os::fd::OwnedFd,
    buf: Vec<sys::EpollEvent>,
}

#[cfg(target_os = "linux")]
impl EpollPoller {
    /// Creates an epoll instance (`EPOLL_CLOEXEC`).
    pub fn new() -> std::io::Result<EpollPoller> {
        // EPOLL_CLOEXEC == O_CLOEXEC == 0o2000000 on Linux.
        let fd = unsafe { sys::epoll_create1(0o2000000) };
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(EpollPoller {
            epfd: unsafe { std::os::fd::FromRawFd::from_raw_fd(fd) },
            buf: Vec::with_capacity(1024),
        })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: usize, interest: Interest) -> std::io::Result<()> {
        let mut events = 0u32;
        if interest.read {
            events |= sys::EPOLLIN;
        }
        if interest.write {
            events |= sys::EPOLLOUT;
        }
        let mut ev = sys::EpollEvent {
            events,
            data: token as u64,
        };
        let rc = unsafe { sys::epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut ev) };
        if rc < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(())
    }
}

#[cfg(target_os = "linux")]
impl Poller for EpollPoller {
    fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> std::io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, token, interest)
    }

    fn modify(&mut self, fd: RawFd, token: usize, interest: Interest) -> std::io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, token, interest)
    }

    fn deregister(&mut self, fd: RawFd) -> std::io::Result<()> {
        self.ctl(sys::EPOLL_CTL_DEL, fd, 0, Interest::NONE)
    }

    fn wait(&mut self, events: &mut Vec<Event>, timeout: Duration) -> std::io::Result<usize> {
        events.clear();
        // `maxevents` must never exceed the allocation the kernel
        // writes into: reserve up to the floor first, then derive the
        // count from the actual capacity.
        self.buf.clear();
        self.buf.reserve(64);
        let cap = self.buf.capacity();
        let timeout_ms = timeout.as_millis().min(i32::MAX as u128) as i32;
        let n = unsafe {
            sys::epoll_wait(
                self.epfd.as_raw_fd(),
                self.buf.as_mut_ptr(),
                cap as i32,
                timeout_ms,
            )
        };
        if n < 0 {
            let e = std::io::Error::last_os_error();
            if e.kind() == ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(e);
        }
        // SAFETY: the kernel initialised the first `n` entries.
        unsafe { self.buf.set_len(n as usize) };
        for ev in &self.buf {
            let bits = ev.events;
            events.push(Event {
                token: ev.data as usize,
                readable: bits & sys::EPOLLIN != 0,
                writable: bits & sys::EPOLLOUT != 0,
                closed: bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0,
            });
        }
        Ok(events.len())
    }

    fn name(&self) -> &'static str {
        "epoll"
    }
}

/// The portable `poll(2)` fallback: O(registered) per wait, fine for
/// hundreds of connections and any POSIX platform without epoll.
pub struct PollPoller {
    entries: Vec<(RawFd, usize, Interest)>,
    fds: Vec<sys::PollFd>,
}

impl PollPoller {
    /// Creates an empty poll set.
    pub fn new() -> PollPoller {
        PollPoller {
            entries: Vec::new(),
            fds: Vec::new(),
        }
    }
}

impl Default for PollPoller {
    fn default() -> Self {
        PollPoller::new()
    }
}

impl Poller for PollPoller {
    fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> std::io::Result<()> {
        if self.entries.iter().any(|&(f, _, _)| f == fd) {
            return Err(std::io::Error::new(
                ErrorKind::AlreadyExists,
                "fd already registered",
            ));
        }
        self.entries.push((fd, token, interest));
        Ok(())
    }

    fn modify(&mut self, fd: RawFd, token: usize, interest: Interest) -> std::io::Result<()> {
        for e in &mut self.entries {
            if e.0 == fd {
                e.1 = token;
                e.2 = interest;
                return Ok(());
            }
        }
        Err(std::io::Error::new(
            ErrorKind::NotFound,
            "fd not registered",
        ))
    }

    fn deregister(&mut self, fd: RawFd) -> std::io::Result<()> {
        let before = self.entries.len();
        self.entries.retain(|&(f, _, _)| f != fd);
        if self.entries.len() == before {
            return Err(std::io::Error::new(
                ErrorKind::NotFound,
                "fd not registered",
            ));
        }
        Ok(())
    }

    fn wait(&mut self, events: &mut Vec<Event>, timeout: Duration) -> std::io::Result<usize> {
        events.clear();
        self.fds.clear();
        for &(fd, _, interest) in &self.entries {
            let mut mask = 0i16;
            if interest.read {
                mask |= sys::POLLIN;
            }
            if interest.write {
                mask |= sys::POLLOUT;
            }
            self.fds.push(sys::PollFd {
                fd,
                events: mask,
                revents: 0,
            });
        }
        let timeout_ms = timeout.as_millis().min(i32::MAX as u128) as i32;
        let n = unsafe {
            sys::poll(
                self.fds.as_mut_ptr(),
                self.fds.len() as sys::Nfds,
                timeout_ms,
            )
        };
        if n < 0 {
            let e = std::io::Error::last_os_error();
            if e.kind() == ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(e);
        }
        for (pfd, &(_, token, _)) in self.fds.iter().zip(&self.entries) {
            if pfd.revents == 0 {
                continue;
            }
            events.push(Event {
                token,
                readable: pfd.revents & sys::POLLIN != 0,
                writable: pfd.revents & sys::POLLOUT != 0,
                closed: pfd.revents & (sys::POLLERR | sys::POLLHUP | sys::POLLNVAL) != 0,
            });
        }
        Ok(events.len())
    }

    fn name(&self) -> &'static str {
        "poll"
    }
}

/// The backend [`new_poller`] will build, without building one: what
/// bench headers and results record so a run is reproducible from its
/// own output.
pub fn poller_backend_name() -> &'static str {
    #[cfg(target_os = "linux")]
    {
        "epoll"
    }
    #[cfg(not(target_os = "linux"))]
    {
        "poll"
    }
}

/// Builds the platform's best poller: epoll on Linux, `poll(2)`
/// elsewhere.
pub fn new_poller() -> std::io::Result<Box<dyn Poller>> {
    #[cfg(target_os = "linux")]
    {
        Ok(Box::new(EpollPoller::new()?))
    }
    #[cfg(not(target_os = "linux"))]
    {
        Ok(Box::new(PollPoller::new()))
    }
}

/// Raises `RLIMIT_NOFILE` toward `target` file descriptors (soft and,
/// when permitted, hard), returning the resulting soft limit. Callers
/// opening tens of thousands of sockets (the 10k-idle smoke test) size
/// themselves off the returned value instead of assuming the raise
/// succeeded.
pub fn raise_nofile_limit(target: u64) -> std::io::Result<u64> {
    let mut cur = sys::Rlimit { cur: 0, max: 0 };
    if unsafe { sys::getrlimit(sys::RLIMIT_NOFILE, &mut cur) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    if cur.cur >= target {
        return Ok(cur.cur);
    }
    // Root (CAP_SYS_RESOURCE) may raise the hard limit too; try the
    // ambitious set first and fall back to maxing the soft limit.
    let want = sys::Rlimit {
        cur: target,
        max: cur.max.max(target),
    };
    if unsafe { sys::setrlimit(sys::RLIMIT_NOFILE, &want) } == 0 {
        return Ok(target);
    }
    let capped = sys::Rlimit {
        cur: cur.max,
        max: cur.max,
    };
    if unsafe { sys::setrlimit(sys::RLIMIT_NOFILE, &capped) } == 0 {
        return Ok(cur.max);
    }
    Ok(cur.cur)
}

/// Reactor server configuration.
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Event-loop threads (single-digit by design; each owns a poller
    /// and a share of the connections).
    pub event_loops: usize,
    /// Handler threads running route handlers off-loop. These are the
    /// threads that may block (continuous-batch admission, inference).
    pub dispatch_threads: usize,
    /// Requests dispatched-but-unanswered per connection before the
    /// loop stops parsing further pipelined requests (resumed as
    /// responses drain). Bounds memory under hostile pipelining.
    pub max_inflight_per_conn: usize,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            event_loops: 2,
            dispatch_threads: 4,
            max_inflight_per_conn: 256,
        }
    }
}

/// Shared reactor telemetry: counters bumped by the event loops and
/// dispatch workers, scraped into [`ReactorTelemetry`] by the recorder
/// probe (`/stats`, `/metrics`). Counters are relaxed atomics
/// (per-event cost: one `fetch_add`); the three histograms are
/// preallocated at construction and recorded under short mutexes held
/// only by loop/worker threads, never by request handlers.
pub struct ReactorMetrics {
    loops: u64,
    busy_nanos: AtomicU64,
    wait_nanos: AtomicU64,
    accepts: AtomicU64,
    conns: AtomicU64,
    write_stalls: AtomicU64,
    evictions: AtomicU64,
    poll_batch: Mutex<Histogram>,
    wake_us: Mutex<Histogram>,
    dispatch_wait_us: Mutex<Histogram>,
}

impl ReactorMetrics {
    fn new(loops: usize) -> ReactorMetrics {
        ReactorMetrics {
            loops: loops as u64,
            busy_nanos: AtomicU64::new(0),
            wait_nanos: AtomicU64::new(0),
            accepts: AtomicU64::new(0),
            conns: AtomicU64::new(0),
            write_stalls: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            poll_batch: Mutex::new(Histogram::new()),
            wake_us: Mutex::new(Histogram::new()),
            dispatch_wait_us: Mutex::new(Histogram::new()),
        }
    }

    /// Snapshots the counters and the histograms' sparse buckets into
    /// the wire form `/stats` carries.
    pub fn telemetry(&self) -> ReactorTelemetry {
        ReactorTelemetry {
            loops: self.loops,
            busy_nanos: self.busy_nanos.load(Ordering::Relaxed),
            wait_nanos: self.wait_nanos.load(Ordering::Relaxed),
            accepts: self.accepts.load(Ordering::Relaxed),
            conns: self.conns.load(Ordering::Relaxed),
            write_stalls: self.write_stalls.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            poll_batch: self.poll_batch.lock().nonzero_buckets().collect(),
            wake_us: self.wake_us.lock().nonzero_buckets().collect(),
            dispatch_wait_us: self.dispatch_wait_us.lock().nonzero_buckets().collect(),
        }
    }
}

fn duration_nanos(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

fn duration_micros(d: Duration) -> u64 {
    d.as_micros().min(u128::from(u64::MAX)) as u64
}

/// How long a write may stall on a peer that stopped draining before
/// the connection is evicted: a client that stops reading its socket
/// must cost a bounded amount of buffer, not hold it forever.
const WRITE_STALL_BUDGET: Duration = Duration::from_secs(1);

/// Poll tick: the upper bound on shutdown/stall-check latency.
const TICK: Duration = Duration::from_millis(25);

/// Token of the per-loop waker pipe.
const WAKER_TOKEN: usize = 0;
/// Token of the listener (loop 0 only).
const LISTENER_TOKEN: usize = 1;
/// First connection token; slab slot `i` lives at `FIRST_CONN + i`.
const FIRST_CONN: usize = 2;

/// A message into an event loop from outside its thread.
enum LoopMsg {
    /// A freshly accepted connection to adopt.
    Adopt(TcpStream),
    /// A handler finished: response for `(slot, gen, seq)`.
    Done {
        slot: usize,
        gen: u64,
        seq: u64,
        resp: Response,
    },
}

/// An event loop's inbox: a queue plus the write end of its waker pipe.
/// Messages carry their enqueue time so the loop can histogram
/// wake-to-dequeue latency — how long work sat waiting for the loop.
struct Mailbox {
    queue: Mutex<Vec<(Instant, LoopMsg)>>,
    waker: UnixStream,
}

impl Mailbox {
    fn push(&self, msg: LoopMsg) {
        self.queue.lock().push((Instant::now(), msg));
        // A full pipe already guarantees a pending wakeup.
        let _ = (&self.waker).write(&[1u8]);
    }
}

/// A unit of work for the dispatch pool.
struct DispatchJob {
    mailbox: Arc<Mailbox>,
    slot: usize,
    gen: u64,
    seq: u64,
    req: http::Request,
    /// When the loop handed the job to the pool (queue-wait telemetry).
    enqueued: Instant,
}

/// Per-connection reactor state machine.
struct RConn {
    stream: TcpStream,
    gen: u64,
    /// Incremental read buffer feeding [`http::parse_request`].
    rbuf: BytesMut,
    /// Bytes accepted for write but not yet on the wire.
    wbuf: BytesMut,
    /// Sequence assigned to the next parsed request.
    next_seq: u64,
    /// Sequence of the next response allowed onto the wire.
    next_write: u64,
    /// Out-of-order handler completions waiting their turn.
    pending: BTreeMap<u64, Response>,
    /// Dispatched-but-unwritten request count.
    inflight: usize,
    /// Parsing is halted (malformed request or injected reset).
    stop_reading: bool,
    /// An injected reset abandoned this connection's pipeline: late
    /// handler completions are dropped instead of re-entering `pending`.
    discarding: bool,
    /// Tear the connection down once `wbuf` drains.
    close_after_flush: bool,
    /// When the current write stall began.
    stall_since: Option<Instant>,
    /// Interest currently registered with the poller.
    interest: Interest,
}

impl RConn {
    fn new(stream: TcpStream, gen: u64) -> std::io::Result<RConn> {
        stream.set_nonblocking(true)?;
        Ok(RConn {
            stream,
            gen,
            rbuf: BytesMut::new(),
            wbuf: BytesMut::new(),
            next_seq: 0,
            next_write: 0,
            pending: BTreeMap::new(),
            inflight: 0,
            stop_reading: false,
            discarding: false,
            close_after_flush: false,
            stall_since: None,
            interest: Interest::READ,
        })
    }

    fn desired_interest(&self) -> Interest {
        Interest {
            read: !self.stop_reading,
            write: !self.wbuf.is_empty(),
        }
    }
}

/// One event loop: poller, slab of connections, inbox, and (on loop 0)
/// the listener.
struct EventLoop {
    poller: Box<dyn Poller>,
    waker_rx: UnixStream,
    mailbox: Arc<Mailbox>,
    /// All loops' mailboxes, for round-robin accept distribution.
    mailboxes: Arc<Vec<Arc<Mailbox>>>,
    listener: Option<TcpListener>,
    next_loop: usize,
    slab: Vec<Option<RConn>>,
    gens: Vec<u64>,
    free: Vec<usize>,
    dispatch: Sender<DispatchJob>,
    shutdown: Arc<AtomicBool>,
    config: ReactorConfig,
    metrics: Arc<ReactorMetrics>,
}

impl EventLoop {
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let wait_start = Instant::now();
            if self.poller.wait(&mut events, TICK).is_err() {
                return;
            }
            // Busy/wait split: everything after the poller returns,
            // until the next wait, is busy time; the blocking wait
            // itself is wait time. Their ratio is the loop utilization
            // gauge — the number that says whether the loop or the
            // handlers are the bottleneck.
            let busy_start = Instant::now();
            self.metrics
                .wait_nanos
                .fetch_add(duration_nanos(busy_start - wait_start), Ordering::Relaxed);
            if !events.is_empty() {
                // Empty wakeups are just the tick timeout; utilization
                // already accounts for them.
                self.metrics.poll_batch.lock().record(events.len() as u64);
            }
            // Drain the inbox before handling IO so adopted connections
            // and finished handlers are visible to this pass. Waker
            // bytes are consumed BEFORE the queue is taken: a push that
            // lands between the two steps then leaves its byte in the
            // pipe (one spurious wakeup next pass) instead of having
            // its byte eaten while the message sits queued until the
            // next poll timeout.
            let mut sink = [0u8; 256];
            while matches!((&self.waker_rx).read(&mut sink), Ok(n) if n > 0) {}
            let inbox: Vec<(Instant, LoopMsg)> = std::mem::take(&mut *self.mailbox.queue.lock());
            if !inbox.is_empty() {
                let mut wake = self.metrics.wake_us.lock();
                for (at, _) in &inbox {
                    wake.record(duration_micros(at.elapsed()));
                }
            }
            for (_, msg) in inbox {
                match msg {
                    LoopMsg::Adopt(stream) => self.adopt(stream),
                    LoopMsg::Done {
                        slot,
                        gen,
                        seq,
                        resp,
                    } => self.complete(slot, gen, seq, resp),
                }
            }
            for &ev in events.iter() {
                match ev.token {
                    // Already drained at the top of the pass, before the
                    // queue was taken.
                    WAKER_TOKEN => {}
                    LISTENER_TOKEN => self.accept_burst(),
                    token => {
                        let slot = token - FIRST_CONN;
                        if ev.closed && !ev.readable && !ev.writable {
                            self.close(slot);
                            continue;
                        }
                        if ev.readable || ev.closed {
                            self.on_readable(slot);
                        }
                        if ev.writable {
                            self.on_writable(slot);
                        }
                    }
                }
            }
            self.tick();
            self.metrics
                .busy_nanos
                .fetch_add(duration_nanos(busy_start.elapsed()), Ordering::Relaxed);
        }
    }

    /// Accepts until the listener would block, spreading connections
    /// round-robin across all loops.
    fn accept_burst(&mut self) {
        let mut mine = Vec::new();
        {
            let Some(listener) = self.listener.as_ref() else {
                return;
            };
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        self.metrics.accepts.fetch_add(1, Ordering::Relaxed);
                        let _ = stream.set_nodelay(true);
                        let target = self.next_loop % self.mailboxes.len();
                        self.next_loop = self.next_loop.wrapping_add(1);
                        if target == 0 {
                            // This loop is always loop 0 when it owns
                            // the listener; adopt directly.
                            mine.push(stream);
                        } else {
                            self.mailboxes[target].push(LoopMsg::Adopt(stream));
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => break,
                }
            }
        }
        for stream in mine {
            self.adopt(stream);
        }
    }

    fn adopt(&mut self, stream: TcpStream) {
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slab.push(None);
                self.gens.push(0);
                self.slab.len() - 1
            }
        };
        self.gens[slot] = self.gens[slot].wrapping_add(1);
        let conn = match RConn::new(stream, self.gens[slot]) {
            Ok(c) => c,
            Err(_) => {
                self.free.push(slot);
                return;
            }
        };
        let fd = conn.stream.as_raw_fd();
        if self
            .poller
            .register(fd, FIRST_CONN + slot, Interest::READ)
            .is_err()
        {
            self.free.push(slot);
            return;
        }
        self.slab[slot] = Some(conn);
        self.metrics.conns.fetch_add(1, Ordering::Relaxed);
    }

    fn close(&mut self, slot: usize) {
        if let Some(conn) = self.slab.get_mut(slot).and_then(Option::take) {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            self.free.push(slot);
            self.metrics.conns.fetch_sub(1, Ordering::Relaxed);
            drop(conn);
        }
    }

    /// Reads everything available, then parses and dispatches complete
    /// requests. EOF closes immediately (pending work is abandoned),
    /// runaway unparsed buffers are capped at `2 * MAX_BODY_BYTES`,
    /// malformed requests answer 500 and close.
    fn on_readable(&mut self, slot: usize) {
        let Some(conn) = self.slab.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if conn.stop_reading {
            return;
        }
        let mut chunk = [0u8; 4096];
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    self.close(slot);
                    return;
                }
                Ok(n) => {
                    conn.rbuf.extend_from_slice(&chunk[..n]);
                    if conn.rbuf.len() > 2 * http::MAX_BODY_BYTES {
                        self.close(slot);
                        return;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(slot);
                    return;
                }
            }
        }
        self.parse_and_dispatch(slot);
    }

    /// Parses as many complete pipelined requests as the inflight cap
    /// admits, dispatching each to the handler pool.
    fn parse_and_dispatch(&mut self, slot: usize) {
        loop {
            let Some(conn) = self.slab.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            if conn.stop_reading || conn.inflight >= self.config.max_inflight_per_conn {
                break;
            }
            match http::parse_request(&mut conn.rbuf) {
                Ok(req) => {
                    let seq = conn.next_seq;
                    conn.next_seq += 1;
                    conn.inflight += 1;
                    let job = DispatchJob {
                        mailbox: Arc::clone(&self.mailbox),
                        slot,
                        gen: conn.gen,
                        seq,
                        req,
                        enqueued: Instant::now(),
                    };
                    if self.dispatch.send(job).is_err() {
                        self.close(slot);
                        return;
                    }
                }
                Err(http::HttpError::Incomplete) => break,
                Err(http::HttpError::Malformed(_)) => {
                    // Earlier pipelined responses flush first, then a
                    // 500, then teardown.
                    let seq = conn.next_seq;
                    conn.next_seq += 1;
                    conn.inflight += 1;
                    conn.stop_reading = true;
                    conn.close_after_flush = true;
                    let gen = conn.gen;
                    self.complete(slot, gen, seq, Response::error(500, "bad request"));
                    break;
                }
            }
        }
        self.refresh_interest(slot);
    }

    /// Files a finished response and writes everything now in order.
    fn complete(&mut self, slot: usize, gen: u64, seq: u64, resp: Response) {
        let Some(conn) = self.slab.get_mut(slot).and_then(Option::as_mut) else {
            return; // connection died while the handler ran
        };
        if conn.gen != gen {
            return; // slot was recycled; stale completion
        }
        if conn.discarding {
            return; // pipeline abandoned by an injected reset
        }
        conn.pending.insert(seq, resp);
        self.flush_ready(slot);
    }

    /// Moves in-order responses from `pending` into the write buffer
    /// (handling injected resets), pushes bytes, and resumes parsing if
    /// the inflight cap had paused it.
    fn flush_ready(&mut self, slot: usize) {
        let Some(conn) = self.slab.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        let mut freed = false;
        while let Some(mut resp) = conn.pending.remove(&conn.next_write) {
            conn.next_write += 1;
            conn.inflight -= 1;
            freed = true;
            let inject_reset = resp.headers.remove(RESET_MARKER).is_some();
            let encoded = resp.encode();
            if inject_reset {
                // Chaos semantics: half the bytes, then a hard close.
                // Anything still pipelined behind this response dies
                // with the connection.
                conn.wbuf.extend_from_slice(&encoded[..encoded.len() / 2]);
                conn.stop_reading = true;
                conn.discarding = true;
                conn.close_after_flush = true;
                conn.pending.clear();
                conn.inflight = 0;
                break;
            }
            conn.wbuf.extend_from_slice(&encoded);
        }
        self.try_write(slot);
        if freed {
            // Draining may have unblocked the pipelining cap.
            self.parse_and_dispatch(slot);
        }
    }

    fn on_writable(&mut self, slot: usize) {
        self.try_write(slot);
        self.refresh_interest(slot);
    }

    /// Pushes buffered bytes until the socket would block.
    fn try_write(&mut self, slot: usize) {
        let Some(conn) = self.slab.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        while !conn.wbuf.is_empty() {
            match conn.stream.write(&conn.wbuf) {
                Ok(0) => {
                    self.close(slot);
                    return;
                }
                Ok(n) => {
                    let _ = conn.wbuf.split_to(n);
                    conn.stall_since = None;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if conn.stall_since.is_none() {
                        conn.stall_since = Some(Instant::now());
                        self.metrics.write_stalls.fetch_add(1, Ordering::Relaxed);
                    }
                    self.refresh_interest(slot);
                    return;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(slot);
                    return;
                }
            }
        }
        conn.stall_since = None;
        // "Flushed" means nothing more will ever be written: no bytes
        // buffered, no responses waiting their turn, no handlers still
        // running.
        if conn.close_after_flush && conn.pending.is_empty() && conn.inflight == 0 {
            self.close(slot);
            return;
        }
        self.refresh_interest(slot);
    }

    /// Re-registers the connection if its desired interest changed.
    fn refresh_interest(&mut self, slot: usize) {
        let Some(conn) = self.slab.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        let want = conn.desired_interest();
        if want != conn.interest {
            let fd = conn.stream.as_raw_fd();
            conn.interest = want;
            let _ = self.poller.modify(fd, FIRST_CONN + slot, want);
        }
    }

    /// Periodic housekeeping: evict connections whose peer stopped
    /// draining its socket past the stall budget.
    fn tick(&mut self) {
        let stalled: Vec<usize> = self
            .slab
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                let c = c.as_ref()?;
                let since = c.stall_since?;
                (since.elapsed() > WRITE_STALL_BUDGET).then_some(i)
            })
            .collect();
        for slot in stalled {
            self.metrics.evictions.fetch_add(1, Ordering::Relaxed);
            self.close(slot);
        }
    }
}

fn dispatch_worker(
    rx: Receiver<DispatchJob>,
    handler: Handler,
    served: Arc<AtomicU64>,
    metrics: Arc<ReactorMetrics>,
) {
    while let Ok(job) = rx.recv() {
        metrics
            .dispatch_wait_us
            .lock()
            .record(duration_micros(job.enqueued.elapsed()));
        let resp = handler(&job.req);
        served.fetch_add(1, Ordering::Relaxed);
        job.mailbox.push(LoopMsg::Done {
            slot: job.slot,
            gen: job.gen,
            seq: job.seq,
            resp,
        });
    }
}

/// A running server; dropping the handle shuts it down.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    /// Dispatch workers, then event loops. The loops see `shutdown`
    /// within one [`TICK`] and drop the dispatch channel on exit, which
    /// is what ends the workers.
    threads: Vec<JoinHandle<()>>,
    requests_served: Arc<AtomicU64>,
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests served so far.
    pub fn requests_served(&self) -> u64 {
        self.requests_served.load(Ordering::Relaxed)
    }

    /// Stops the server and joins its threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Starts a reactor server with the given route handler on an
/// OS-assigned port.
pub fn start(config: ReactorConfig, handler: Handler) -> std::io::Result<ServerHandle> {
    start_bound(TcpListener::bind(("127.0.0.1", 0))?, config, handler, None)
}

/// Starts a reactor server whose event-loop telemetry feeds `recorder`:
/// a probe installed on the recorder snapshots the loops' busy/wait
/// split, poll batches, wake and dispatch-wait histograms into every
/// `/stats` and `/metrics` scrape.
pub fn start_observed(
    config: ReactorConfig,
    handler: Handler,
    recorder: Arc<Recorder>,
) -> std::io::Result<ServerHandle> {
    start_bound(
        TcpListener::bind(("127.0.0.1", 0))?,
        config,
        handler,
        Some(recorder),
    )
}

/// Starts a reactor server on an explicit address. Used by restart
/// scenarios (and their tests): a replacement server can come back on
/// the same port its predecessor vacated, so clients holding that
/// address reconnect instead of being re-pointed.
pub fn start_on(
    addr: SocketAddr,
    config: ReactorConfig,
    handler: Handler,
) -> std::io::Result<ServerHandle> {
    start_bound(TcpListener::bind(addr)?, config, handler, None)
}

fn start_bound(
    listener: TcpListener,
    config: ReactorConfig,
    handler: Handler,
    recorder: Option<Arc<Recorder>>,
) -> std::io::Result<ServerHandle> {
    // Build the process-wide intra-op kernel pool before the first
    // request arrives: handler threads share this one pool (instead of
    // each racing to create it under load), so the first prediction
    // does not pay the thread-spawn cost.
    etude_tensor::pool::global();
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let served = Arc::new(AtomicU64::new(0));
    let loops = config.event_loops.max(1);
    let metrics = Arc::new(ReactorMetrics::new(loops));
    if let Some(recorder) = recorder {
        let probe = Arc::clone(&metrics);
        recorder.set_reactor_probe(Some(Box::new(move || probe.telemetry())));
    }

    let mut mailboxes = Vec::with_capacity(loops);
    let mut waker_reads = Vec::with_capacity(loops);
    for _ in 0..loops {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        mailboxes.push(Arc::new(Mailbox {
            queue: Mutex::new(Vec::new()),
            waker: tx,
        }));
        waker_reads.push(rx);
    }
    let mailboxes = Arc::new(mailboxes);

    let (dispatch_tx, dispatch_rx) = unbounded::<DispatchJob>();
    let mut threads = Vec::new();
    for i in 0..config.dispatch_threads.max(1) {
        let rx = dispatch_rx.clone();
        let handler = Arc::clone(&handler);
        let served = Arc::clone(&served);
        let metrics = Arc::clone(&metrics);
        threads.push(
            std::thread::Builder::new()
                .name(format!("etude-reactor-handler-{i}"))
                .spawn(move || dispatch_worker(rx, handler, served, metrics))
                .expect("spawn dispatch worker"),
        );
    }
    drop(dispatch_rx);

    let mut listener = Some(listener);
    for (i, waker_rx) in waker_reads.into_iter().enumerate() {
        let mut poller = new_poller()?;
        poller.register(waker_rx.as_raw_fd(), WAKER_TOKEN, Interest::READ)?;
        let lst = if i == 0 { listener.take() } else { None };
        if let Some(l) = lst.as_ref() {
            poller.register(l.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;
        }
        let ev_loop = EventLoop {
            poller,
            waker_rx,
            mailbox: Arc::clone(&mailboxes[i]),
            mailboxes: Arc::clone(&mailboxes),
            listener: lst,
            next_loop: 0,
            slab: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            dispatch: dispatch_tx.clone(),
            shutdown: Arc::clone(&shutdown),
            config: config.clone(),
            metrics: Arc::clone(&metrics),
        };
        threads.push(
            std::thread::Builder::new()
                .name(format!("etude-reactor-loop-{i}"))
                .spawn(move || ev_loop.run())
                .expect("spawn event loop"),
        );
    }
    drop(dispatch_tx);

    Ok(ServerHandle {
        addr,
        shutdown,
        threads,
        requests_served: served,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::HttpClient;
    use crate::http::{Method, Request};

    fn static_handler() -> Handler {
        Arc::new(|req: &Request| match (req.method, req.path.as_str()) {
            (Method::Get, "/static") => Response::ok("ok"),
            (Method::Get, "/ping") => Response::ok("pong"),
            (Method::Post, "/echo") => Response::ok(req.body.clone()),
            _ => Response::error(404, "nope"),
        })
    }

    #[test]
    fn serves_requests_over_real_sockets() {
        let server = start(ReactorConfig::default(), static_handler()).unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        for _ in 0..20 {
            let resp = client.request(&Request::get("/static")).unwrap();
            assert_eq!(resp.status, 200);
            assert_eq!(&resp.body[..], b"ok");
        }
        assert_eq!(server.requests_served(), 20);
        server.shutdown();
    }

    #[test]
    fn concurrent_clients_are_served() {
        let server = start(
            ReactorConfig {
                event_loops: 2,
                dispatch_threads: 4,
                ..Default::default()
            },
            static_handler(),
        )
        .unwrap();
        let addr = server.addr();
        let mut handles = Vec::new();
        for t in 0..8 {
            handles.push(std::thread::spawn(move || {
                let mut client = HttpClient::connect(addr).unwrap();
                for i in 0..20 {
                    let body = format!("{t}-{i}");
                    let resp = client
                        .request(&Request::post("/echo", body.clone()))
                        .unwrap();
                    assert_eq!(resp.status, 200);
                    assert_eq!(&resp.body[..], body.as_bytes());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(server.requests_served(), 160);
        server.shutdown();
    }

    #[test]
    fn observed_reactor_feeds_telemetry_into_stats_snapshots() {
        let recorder = Arc::new(Recorder::new());
        let server = start_observed(
            ReactorConfig::default(),
            static_handler(),
            Arc::clone(&recorder),
        )
        .unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        for _ in 0..50 {
            let resp = client.request(&Request::get("/ping")).unwrap();
            assert_eq!(resp.status, 200);
        }
        let snap = recorder.snapshot();
        let r = snap
            .reactor
            .clone()
            .expect("probe installed by start_observed");
        assert_eq!(r.loops, ReactorConfig::default().event_loops as u64);
        assert_eq!(r.accepts, 1, "one client connection accepted");
        assert_eq!(r.conns, 1, "still open");
        let util = r.utilization();
        assert!(
            util > 0.0 && util <= 1.0,
            "utilization in (0,1], got {util}"
        );
        assert!(
            r.dispatch_wait_histogram().count() >= 50,
            "every request crossed the dispatch pool"
        );
        assert!(!r.poll_batch.is_empty(), "poll batches recorded");
        assert!(!r.wake_us.is_empty(), "handler completions woke the loop");
        // The wire representation survives the stats round-trip.
        let parsed = etude_obs::parse_stats_json(&snap.render_json()).unwrap();
        assert_eq!(parsed.reactor.as_ref(), Some(&r));
        drop(client);
        server.shutdown();
    }

    #[test]
    fn poll_fallback_poller_serves_requests() {
        // Force the portable backend regardless of platform.
        let mut poller = PollPoller::new();
        assert_eq!(poller.name(), "poll");
        let mut events = Vec::new();
        assert_eq!(poller.wait(&mut events, Duration::ZERO).unwrap(), 0);

        // And drive a real exchange through it via the registration API.
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        poller
            .register(listener.as_raw_fd(), 7, Interest::READ)
            .unwrap();
        let _client = TcpStream::connect(addr).unwrap();
        let n = poller.wait(&mut events, Duration::from_secs(2)).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
        poller.deregister(listener.as_raw_fd()).unwrap();
        assert!(poller.deregister(listener.as_raw_fd()).is_err());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn epoll_event_layout_matches_the_kernel() {
        use std::mem::size_of;
        // The kernel's epoll_event is packed (12 bytes) on x86-64 and
        // naturally aligned (16 bytes, data at offset 8) everywhere
        // else; a mismatch makes epoll_wait scribble past the buffer.
        #[cfg(target_arch = "x86_64")]
        assert_eq!(size_of::<sys::EpollEvent>(), 12);
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(size_of::<sys::EpollEvent>(), 16);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn epoll_poller_reports_readiness() {
        let mut poller = EpollPoller::new().unwrap();
        assert_eq!(poller.name(), "epoll");
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        poller
            .register(listener.as_raw_fd(), 42, Interest::READ)
            .unwrap();
        let mut events = Vec::new();
        assert_eq!(poller.wait(&mut events, Duration::ZERO).unwrap(), 0);
        let _client = TcpStream::connect(addr).unwrap();
        let n = poller.wait(&mut events, Duration::from_secs(2)).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 42);
        assert!(events[0].readable);
        poller.deregister(listener.as_raw_fd()).unwrap();
    }

    #[test]
    fn nofile_limit_is_reported() {
        // Every process may hold one descriptor: raising toward 1 only
        // reports the current soft limit.
        let limit = raise_nofile_limit(1).unwrap();
        assert!(limit > 0);
        // Raising toward the current value is a no-op that must succeed.
        assert!(raise_nofile_limit(limit.min(1024)).unwrap() >= limit.min(1024));
    }
}
