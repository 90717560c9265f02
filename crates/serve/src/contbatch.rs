//! Continuous batching with deadline-aware admission.
//!
//! A fixed-window batcher (the paper's `batched-fn` shape: gather up to
//! 1,024 requests or 2 ms, run the whole batch, repeat) taxes the tail
//! twice under bursty arrivals: a request pays the flush window *and*
//! head-of-line blocking behind the whole batch in front of it, and
//! requests whose latency budget already expired in the queue still
//! occupy compute. That shape lives on only as the virtual-time model
//! in [`crate::simserver`]; the real server batches continuously.
//!
//! Continuous batching dissolves the window: the in-flight "batch" is
//! simply the set of inference slots ([`ContinuousConfig::slots`]
//! worker threads), and a queued request **admits the moment any slot
//! frees up**. Admission is deadline-aware at both ends:
//!
//! * at submit, a request whose [`Deadline`] is already blown is
//!   rejected without ever queueing ([`AdmitError::Expired`]) — the
//!   budget is anchored at the instant the request was parsed off the
//!   wire (`Request::arrival`), so time spent waiting for a reactor
//!   dispatch thread counts against it too,
//! * at dequeue — the instant inference *would* start — the deadline is
//!   re-checked and expired requests are shed before compute, freeing
//!   the slot for a request that can still make its budget.
//!
//! The consequence, which `tests/continuous_equivalence.rs` pins as an
//! invariant: **no admitted request's inference ever starts after its
//! deadline budget is exhausted**, and therefore the queue-wait span of
//! every *served* request is bounded by its budget.
//!
//! A full queue is answered at once, never waited on: 503 for every
//! class by default, or — for a server that opted in
//! ([`crate::rustserver::DegradationPolicy`]) — the shared
//! shed-or-fallback rule, which gives `normal` and `critical` traffic
//! the popularity fallback from the first full queue on.
//!
//! Batching is an execution strategy, never a semantic: every slot runs
//! the same deterministic per-session inference as the inline
//! [`crate::rustserver::model_routes`] handler, so at any load where
//! nothing sheds, responses are byte-identical to it (also pinned by
//! the equivalence suite).

use crate::http::Request;
use crate::rustserver::{
    deploy, popularity_fallback, prediction_routes, shed_or_fallback, DegradationPolicy, Handler,
    Inferred, Refused, Served, EXPIRED, OVERLOADED,
};
use crossbeam::channel::{bounded, Sender, TrySendError};
use etude_faults::Deadline;
use etude_models::SbrModel;
use etude_obs::{Metric, Recorder};
use etude_tensor::Device;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Request header carrying the client's latency budget in milliseconds.
/// Absent, [`ContinuousConfig::default_deadline`] applies.
pub const DEADLINE_HEADER: &str = "x-deadline-ms";

/// Continuous-batcher configuration.
#[derive(Debug, Clone)]
pub struct ContinuousConfig {
    /// Concurrent inference slots: the size of the in-flight batch and
    /// the number of worker threads draining the admission queue.
    pub slots: usize,
    /// Bounded admission queue; a full queue sheds
    /// ([`AdmitError::Overloaded`]) instead of stacking latency.
    pub max_queue: usize,
    /// Latency budget granted to requests that do not carry
    /// [`DEADLINE_HEADER`].
    pub default_deadline: Duration,
}

impl Default for ContinuousConfig {
    fn default() -> Self {
        ContinuousConfig {
            slots: 4,
            max_queue: 4096,
            default_deadline: Duration::from_secs(2),
        }
    }
}

impl ContinuousConfig {
    /// Sets the admission-queue bound.
    pub fn with_max_queue(mut self, max_queue: usize) -> Self {
        self.max_queue = max_queue;
        self
    }

    /// Sets the default per-request deadline budget.
    pub fn with_default_deadline(mut self, budget: Duration) -> Self {
        self.default_deadline = budget;
        self
    }
}

/// Why an admission failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// The admission queue is full; shed (HTTP 503).
    Overloaded,
    /// The request's deadline budget was exhausted before inference
    /// started — at submit, or while waiting in the queue. Shed without
    /// spending compute.
    Expired,
    /// The worker slots have shut down.
    Closed,
}

/// A successfully served request: the result plus the measured
/// admission wait (enqueue → slot pickup), which for served requests is
/// bounded by the deadline budget by construction.
#[derive(Debug)]
pub struct Admitted<R> {
    /// The inference result.
    pub result: R,
    /// Time spent queued before a slot picked the request up.
    pub queue_wait: Duration,
}

enum Outcome<R> {
    Served(Admitted<R>),
    Expired,
}

struct Job<T, R> {
    input: T,
    deadline: Deadline,
    enqueued: Instant,
    respond: Sender<Outcome<R>>,
}

/// The continuous batcher: a bounded admission queue in front of
/// [`ContinuousConfig::slots`] inference workers.
pub struct ContinuousBatcher<T, R> {
    submit: Sender<Job<T, R>>,
    workers: Vec<JoinHandle<()>>,
    in_flight: Arc<AtomicUsize>,
    expired_sheds: Arc<AtomicU64>,
}

impl<T: Send + 'static, R: Send + 'static> ContinuousBatcher<T, R> {
    /// Spawns the worker slots around a per-request handler.
    pub fn spawn<F>(config: ContinuousConfig, handler: F) -> ContinuousBatcher<T, R>
    where
        F: Fn(T) -> R + Send + Sync + 'static,
    {
        let (tx, rx) = bounded::<Job<T, R>>(config.max_queue.max(1));
        let handler = Arc::new(handler);
        let in_flight = Arc::new(AtomicUsize::new(0));
        let expired_sheds = Arc::new(AtomicU64::new(0));
        let mut workers = Vec::with_capacity(config.slots.max(1));
        for i in 0..config.slots.max(1) {
            let rx = rx.clone();
            let handler = Arc::clone(&handler);
            let in_flight = Arc::clone(&in_flight);
            let expired_sheds = Arc::clone(&expired_sheds);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("etude-contbatch-{i}"))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            // The slot is free and inference would start
                            // now: the last point the deadline can save
                            // the compute.
                            let queue_wait = job.enqueued.elapsed();
                            if job.deadline.expired() {
                                expired_sheds.fetch_add(1, Ordering::Relaxed);
                                let _ = job.respond.send(Outcome::Expired);
                                continue;
                            }
                            in_flight.fetch_add(1, Ordering::Relaxed);
                            let result = handler(job.input);
                            in_flight.fetch_sub(1, Ordering::Relaxed);
                            let _ = job
                                .respond
                                .send(Outcome::Served(Admitted { result, queue_wait }));
                        }
                    })
                    .expect("spawn continuous-batch worker"),
            );
        }
        ContinuousBatcher {
            submit: tx,
            workers,
            in_flight,
            expired_sheds,
        }
    }

    /// Submits one request under a deadline budget. Fails fast when the
    /// queue is full ([`AdmitError::Overloaded`]) or the budget is
    /// already blown ([`AdmitError::Expired`]); otherwise blocks until
    /// a slot serves — or sheds — the request.
    pub fn try_call(&self, input: T, deadline: Deadline) -> Result<Admitted<R>, AdmitError> {
        if deadline.expired() {
            return Err(AdmitError::Expired);
        }
        let (tx, rx) = bounded(1);
        let job = Job {
            input,
            deadline,
            enqueued: Instant::now(),
            respond: tx,
        };
        match self.submit.try_send(job) {
            Ok(()) => match rx.recv() {
                Ok(Outcome::Served(admitted)) => Ok(admitted),
                Ok(Outcome::Expired) => Err(AdmitError::Expired),
                Err(_) => Err(AdmitError::Closed),
            },
            Err(TrySendError::Full(_)) => Err(AdmitError::Overloaded),
            Err(TrySendError::Disconnected(_)) => Err(AdmitError::Closed),
        }
    }

    /// Requests queued but not yet picked up by a slot (point-in-time
    /// gauge).
    pub fn queue_depth(&self) -> usize {
        self.submit.len()
    }

    /// Requests currently inside inference slots.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// Requests shed at dequeue because their budget expired in the
    /// queue (submit-time expiries never enter the queue and are not
    /// counted here).
    pub fn expired_sheds(&self) -> u64 {
        self.expired_sheds.load(Ordering::Relaxed)
    }
}

impl<T, R> Drop for ContinuousBatcher<T, R> {
    fn drop(&mut self) {
        // Closing the channel stops the worker loops.
        let (empty_tx, _) = bounded(0);
        let _ = std::mem::replace(&mut self.submit, empty_tx);
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// No budget outlives a day: a hostile `x-deadline-ms` must not overflow
/// the deadline `Instant`. Also what "unbudgeted" means on tiers whose
/// callers set no default.
pub(crate) const MAX_BUDGET: Duration = Duration::from_secs(86_400);

/// Extracts the request's deadline budget: [`DEADLINE_HEADER`] in
/// milliseconds when present and parseable, else the configured
/// default; either way at most [`MAX_BUDGET`].
pub(crate) fn request_budget(req: &Request, default: Duration) -> Duration {
    req.headers
        .get(DEADLINE_HEADER)
        .and_then(|v| v.trim().parse::<u64>().ok())
        .map(Duration::from_millis)
        .unwrap_or(default)
        .min(MAX_BUDGET)
}

/// Builds the model-serving routes on a continuous batcher: the inline
/// tier's route table and observability, with per-request
/// deadline-aware admission into [`ContinuousConfig::slots`] inference
/// slots. `policy: Some(_)` answers a full queue with the popularity
/// fallback (the model's `top_k` items) for traffic that did not opt
/// into shedding; deadline expiries always shed with 503 — serving a
/// fallback late would still be late.
pub fn model_routes_continuous(
    model: Arc<dyn SbrModel>,
    device: Device,
    jit: bool,
    config: ContinuousConfig,
    recorder: Arc<Recorder>,
    policy: Option<DegradationPolicy>,
) -> Handler {
    let catalog_size = model.config().catalog_size;
    let fallback = policy.map(|_| popularity_fallback(catalog_size, model.config().top_k));
    let default_deadline = config.default_deadline;
    let infer = deploy(model, device, jit);
    // The continuous path is the production-shaped server, so it owns
    // starting the always-on sampling profiler (idempotent; feeds
    // `/debug/profile` and the exemplar leaf deltas on `/debug/slow`).
    etude_obs::profile::start_ticker(etude_obs::profile::DEFAULT_TICK);
    let batcher = Arc::new(ContinuousBatcher::spawn(config, move |items: Vec<u32>| {
        etude_obs::profile_scope!("contbatch::slot");
        infer(&items)
    }));
    continuous_routes(batcher, catalog_size, default_deadline, recorder, fallback)
}

/// The route table around a continuous batcher. Factored out of
/// [`model_routes_continuous`] so tests can drive a batcher whose
/// handler they control (e.g. gated, to force overload or queue aging).
/// `fallback` is the pre-encoded popularity body a full queue answers
/// with; `None` sheds every class.
pub(crate) fn continuous_routes(
    batcher: Arc<ContinuousBatcher<Vec<u32>, Inferred>>,
    catalog_size: usize,
    default_deadline: Duration,
    recorder: Arc<Recorder>,
    fallback: Option<String>,
) -> Handler {
    prediction_routes(
        recorder,
        catalog_size,
        default_deadline,
        move |ctx, items| {
            // Export the batcher backlog as a gauge: the fleet view
            // reads it off `/stats` to spot queueing pods.
            ctx.recorder
                .set(Metric::QueueDepth, batcher.queue_depth() as u64);
            match batcher.try_call(items, ctx.deadline) {
                Ok(Admitted { result, queue_wait }) => Served::by_model(result, queue_wait),
                // The budget died in (or before) the queue; 503 so the
                // client retries against a server that can still make
                // the deadline.
                Err(AdmitError::Expired) => Err(Refused::Shed(EXPIRED)),
                Err(AdmitError::Overloaded) => Err(match &fallback {
                    Some(body) => shed_or_fallback(ctx.criticality(), OVERLOADED, body),
                    None => Refused::Shed(OVERLOADED),
                }),
                Err(AdmitError::Closed) => Err(Refused::BatcherUnavailable),
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_slots() {
        let b: ContinuousBatcher<u32, u32> =
            ContinuousBatcher::spawn(ContinuousConfig::default(), |x| x * 2);
        let out = b
            .try_call(21, Deadline::after(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(out.result, 42);
        assert!(out.queue_wait < Duration::from_secs(5));
    }

    #[test]
    fn blown_budget_is_rejected_before_queueing() {
        let b: ContinuousBatcher<u32, u32> =
            ContinuousBatcher::spawn(ContinuousConfig::default(), |x| x);
        assert!(matches!(
            b.try_call(1, Deadline::after(Duration::ZERO)),
            Err(AdmitError::Expired)
        ));
        // Submit-time expiry never reaches a worker slot.
        assert_eq!(b.expired_sheds(), 0);
    }

    #[test]
    fn budget_expiring_in_queue_sheds_before_compute() {
        // One slot, blocked by a gated first request: the second
        // request's tiny budget dies in the queue and must never run.
        let gate = Arc::new(parking_lot::Mutex::new(()));
        let held = gate.lock();
        let ran = Arc::new(AtomicU64::new(0));
        let handler_gate = Arc::clone(&gate);
        let handler_ran = Arc::clone(&ran);
        let b: Arc<ContinuousBatcher<u32, u32>> = Arc::new(ContinuousBatcher::spawn(
            ContinuousConfig {
                slots: 1,
                max_queue: 8,
                default_deadline: Duration::from_secs(2),
            },
            move |x| {
                handler_ran.fetch_add(1, Ordering::SeqCst);
                let _open = handler_gate.lock();
                x
            },
        ));
        let blocker = {
            let b = Arc::clone(&b);
            std::thread::spawn(move || b.try_call(1, Deadline::after(Duration::from_secs(10))))
        };
        // Wait for the slot to pick the blocker up.
        let deadline = Instant::now() + Duration::from_secs(5);
        while b.in_flight() == 0 {
            assert!(Instant::now() < deadline, "slot never started");
            std::thread::yield_now();
        }
        let doomed = {
            let b = Arc::clone(&b);
            std::thread::spawn(move || b.try_call(2, Deadline::after(Duration::from_millis(20))))
        };
        // Let the doomed request's budget die in the queue.
        std::thread::sleep(Duration::from_millis(60));
        drop(held);
        assert_eq!(blocker.join().unwrap().unwrap().result, 1);
        assert!(matches!(doomed.join().unwrap(), Err(AdmitError::Expired)));
        assert_eq!(b.expired_sheds(), 1);
        // Only the blocker's handler ever ran.
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn full_queue_sheds_with_overloaded() {
        let gate = Arc::new(parking_lot::Mutex::new(()));
        let held = gate.lock();
        let handler_gate = Arc::clone(&gate);
        let b: Arc<ContinuousBatcher<u32, u32>> = Arc::new(ContinuousBatcher::spawn(
            ContinuousConfig {
                slots: 1,
                max_queue: 1,
                default_deadline: Duration::from_secs(2),
            },
            move |x| {
                let _open = handler_gate.lock();
                x
            },
        ));
        let blocker = {
            let b = Arc::clone(&b);
            std::thread::spawn(move || b.try_call(1, Deadline::after(Duration::from_secs(10))))
        };
        let deadline = Instant::now() + Duration::from_secs(5);
        while b.in_flight() == 0 {
            assert!(Instant::now() < deadline, "slot never started");
            std::thread::yield_now();
        }
        let queued = {
            let b = Arc::clone(&b);
            std::thread::spawn(move || b.try_call(2, Deadline::after(Duration::from_secs(10))))
        };
        let deadline = Instant::now() + Duration::from_secs(5);
        while b.queue_depth() == 0 {
            assert!(Instant::now() < deadline, "second request never queued");
            std::thread::yield_now();
        }
        assert!(matches!(
            b.try_call(3, Deadline::after(Duration::from_secs(10))),
            Err(AdmitError::Overloaded)
        ));
        drop(held);
        assert_eq!(blocker.join().unwrap().unwrap().result, 1);
        assert_eq!(queued.join().unwrap().unwrap().result, 2);
    }

    #[test]
    fn deadline_header_overrides_default_budget() {
        let req = Request::post("/predictions", "1,2,3").with_header(DEADLINE_HEADER, "250");
        assert_eq!(
            request_budget(&req, Duration::from_secs(2)),
            Duration::from_millis(250)
        );
        let plain = Request::post("/predictions", "1,2,3");
        assert_eq!(
            request_budget(&plain, Duration::from_secs(2)),
            Duration::from_secs(2)
        );
        let junk = Request::post("/predictions", "1,2,3").with_header(DEADLINE_HEADER, "soon");
        assert_eq!(
            request_budget(&junk, Duration::from_secs(2)),
            Duration::from_secs(2)
        );
    }
}
