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
//! Continuous batching dissolves the window: a queued request **admits
//! the moment any slot frees up** ([`ContinuousConfig::slots`] worker
//! threads), and the slot that picks it up also takes what is *already*
//! queued behind it — `1 + queued / slots` requests, at most
//! [`MAX_BATCH`] — so requests that would have waited for one another
//! share one pass over the catalog instead. The drain never waits for
//! company: an empty queue means a batch of one, started at once, and
//! the `queued / slots` share leaves an idle sibling slot its part of
//! the queue. Admission is deadline-aware at both ends:
//!
//! * at submit, a request whose [`Deadline`] is already blown is
//!   rejected without ever queueing ([`AdmitError::Expired`]) — the
//!   budget is anchored at the instant the request was parsed off the
//!   wire (`Request::arrival`), so time spent waiting for a reactor
//!   dispatch thread counts against it too,
//! * at the instant a member's inference *would* start — when the
//!   batch's handler pulls it, which for the second member is after the
//!   first one's encoder ran — the deadline is re-checked and an
//!   expired member is shed before compute.
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
//! Batching is an execution strategy, never a semantic: every member
//! gets the same deterministic per-session inference as the inline
//! [`crate::rustserver::model_routes`] handler (the shared catalog scan
//! is bit-identical per query), so at any load where nothing sheds,
//! responses are byte-identical to it whatever the grouping (also
//! pinned by the equivalence suite), and one member's failure is that
//! member's alone.
//!
//! What a member reports: `queue_wait` runs from enqueue to the start
//! of its batch, `handback` from the end of its batch to the instant
//! its caller resumed with the answer (the reply hop between the slot's
//! thread and the caller's), and the handler attributes the batch's
//! whole encode phase and its one shared scan to every member — each of
//! them waited for all of it — so queue + inference + top-k + hand-back
//! tile a request's time in the batcher at any batch size.

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

/// Most requests one slot takes in one pickup. Eight queries per pass is
/// where the multi-query scan's per-query time flattens out
/// (`parallel_mips`), and a member waits for every encoder in front of
/// its own, so larger batches would buy little and cost latency.
pub const MAX_BATCH: usize = 8;

/// Continuous-batcher configuration.
#[derive(Debug, Clone)]
pub struct ContinuousConfig {
    /// Concurrent inference slots: the number of worker threads draining
    /// the admission queue, each serving one batch at a time.
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
/// admission wait (enqueue → start of the batch that served it), which
/// for served requests is bounded by the deadline budget by
/// construction, and the reply hop back to the caller.
#[derive(Debug)]
pub struct Admitted<R> {
    /// The inference result.
    pub result: R,
    /// Time spent queued before a slot started the request's batch.
    pub queue_wait: Duration,
    /// Time from the slot finishing the request's batch to the caller
    /// resuming with the answer.
    pub(crate) handback: Duration,
}

enum Outcome<R> {
    Served {
        result: R,
        queue_wait: Duration,
        /// When the slot finished the batch.
        finished: Instant,
    },
    Expired,
}

struct Job<T, R> {
    /// `None` once the handler has pulled it.
    input: Option<T>,
    deadline: Deadline,
    enqueued: Instant,
    respond: Sender<Outcome<R>>,
}

/// The members of one batch as its handler sees them: an iterator over
/// the inputs of the jobs a slot drained, in queue order. Pulling a
/// member is the instant its inference starts, so that is where its
/// deadline is checked: an expired member is answered
/// [`AdmitError::Expired`] and skipped, and the handler never sees it.
struct Members<'a, T, R> {
    jobs: &'a mut [Job<T, R>],
    next: usize,
    /// Indices into `jobs` of the members handed out, in order.
    admitted: &'a mut Vec<usize>,
    expired_sheds: &'a AtomicU64,
    in_flight: &'a AtomicUsize,
}

impl<T, R> Iterator for Members<'_, T, R> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        while let Some(job) = self.jobs.get_mut(self.next) {
            self.next += 1;
            if job.deadline.expired() {
                self.expired_sheds.fetch_add(1, Ordering::Relaxed);
                let _ = job.respond.send(Outcome::Expired);
                continue;
            }
            self.in_flight.fetch_add(1, Ordering::Relaxed);
            self.admitted.push(self.next - 1);
            return job.input.take();
        }
        None
    }
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
    /// Spawns the worker slots around a per-request handler: the
    /// batched constructor with a handler that serves its members one
    /// after the other.
    pub fn spawn<F>(config: ContinuousConfig, handler: F) -> ContinuousBatcher<T, R>
    where
        F: Fn(T) -> R + Send + Sync + 'static,
    {
        Self::spawn_batched(config, move |members| members.map(&handler).collect())
    }

    /// Spawns the worker slots around a batch handler. A slot blocks
    /// for one job, takes its share of whatever else is queued at that
    /// moment (see the module docs) without waiting for more, and calls
    /// `handler` once with the batch's members. `handler` must drain the
    /// iterator — each `next()` re-checks that member's deadline, so a
    /// member whose budget died while earlier members ran is shed there
    /// and never yielded — and return one result per yielded member, in
    /// order.
    pub fn spawn_batched<F>(config: ContinuousConfig, handler: F) -> ContinuousBatcher<T, R>
    where
        F: Fn(&mut dyn Iterator<Item = T>) -> Vec<R> + Send + Sync + 'static,
    {
        let (tx, rx) = bounded::<Job<T, R>>(config.max_queue.max(1));
        let handler = Arc::new(handler);
        let in_flight = Arc::new(AtomicUsize::new(0));
        let expired_sheds = Arc::new(AtomicU64::new(0));
        let slots = config.slots.max(1);
        let mut workers = Vec::with_capacity(slots);
        for i in 0..slots {
            let rx = rx.clone();
            let handler = Arc::clone(&handler);
            let in_flight = Arc::clone(&in_flight);
            let expired_sheds = Arc::clone(&expired_sheds);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("etude-contbatch-{i}"))
                    .spawn(move || {
                        let mut jobs = Vec::with_capacity(MAX_BATCH);
                        let mut admitted = Vec::with_capacity(MAX_BATCH);
                        while let Ok(first) = rx.recv() {
                            let started = Instant::now();
                            jobs.push(first);
                            let share = (rx.len() / slots).min(MAX_BATCH - 1);
                            for _ in 0..share {
                                match rx.try_recv() {
                                    Ok(job) => jobs.push(job),
                                    Err(_) => break,
                                }
                            }
                            let results = handler(&mut Members {
                                jobs: &mut jobs,
                                next: 0,
                                admitted: &mut admitted,
                                expired_sheds: &expired_sheds,
                                in_flight: &in_flight,
                            });
                            let finished = Instant::now();
                            in_flight.fetch_sub(admitted.len(), Ordering::Relaxed);
                            // A job the handler did not pull, or returned
                            // no result for, loses its responder below:
                            // its caller sees `AdmitError::Closed`.
                            for (index, result) in admitted.drain(..).zip(results) {
                                let job = &jobs[index];
                                let queue_wait = started.saturating_duration_since(job.enqueued);
                                let _ = job.respond.send(Outcome::Served {
                                    result,
                                    queue_wait,
                                    finished,
                                });
                            }
                            jobs.clear();
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
            input: Some(input),
            deadline,
            enqueued: Instant::now(),
            respond: tx,
        };
        match self.submit.try_send(job) {
            Ok(()) => match rx.recv() {
                Ok(Outcome::Served {
                    result,
                    queue_wait,
                    finished,
                }) => Ok(Admitted {
                    result,
                    queue_wait,
                    handback: finished.elapsed(),
                }),
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
    let slot_recorder = Arc::clone(&recorder);
    let batcher = Arc::new(ContinuousBatcher::spawn_batched(config, move |sessions| {
        let replies = infer(sessions);
        slot_recorder.bump(Metric::Batches);
        slot_recorder.add(Metric::BatchedRequests, replies.len() as u64);
        replies
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
            // Export the batcher backlog as a gauge: `/stats` and
            // `/metrics` show a queueing pod.
            ctx.recorder
                .set(Metric::QueueDepth, batcher.queue_depth() as u64);
            match batcher.try_call(items, ctx.deadline) {
                Ok(Admitted {
                    result,
                    queue_wait,
                    handback,
                }) => Ok(Served {
                    handback,
                    ..Served::by_model(result, queue_wait)?
                }),
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

    /// Spins until `ready()`; the tests below sequence submissions on
    /// what the batcher itself reports, never on sleeps.
    fn wait_until(what: &str, ready: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !ready() {
            assert!(Instant::now() < deadline, "{what}");
            std::thread::yield_now();
        }
    }

    type Gate = Arc<parking_lot::Mutex<()>>;
    type Sizes = Arc<parking_lot::Mutex<Vec<usize>>>;
    type GatedBatcher = Arc<ContinuousBatcher<(u32, Duration), u32>>;

    /// A batcher over `(id, work)` jobs that answers `id` after sleeping
    /// `work`, pulling members one at a time; job 0 is the blocker, held
    /// on the returned gate while the test holds its lock. The sizes get
    /// the number of members each batch's handler was handed, the
    /// counter the members that started.
    fn gated_batches(slots: usize) -> (Gate, Sizes, Arc<AtomicU64>, GatedBatcher) {
        let gate: Gate = Arc::default();
        let sizes: Sizes = Arc::default();
        let ran = Arc::new(AtomicU64::new(0));
        let fixture = (Arc::clone(&gate), Arc::clone(&sizes), Arc::clone(&ran));
        let config = ContinuousConfig {
            slots,
            max_queue: 8,
            default_deadline: Duration::from_secs(2),
        };
        let b = Arc::new(ContinuousBatcher::spawn_batched(config, move |members| {
            let mut handed = 0;
            let replies = members
                .map(|(id, work): (u32, Duration)| {
                    handed += 1;
                    ran.fetch_add(1, Ordering::SeqCst);
                    if id == 0 {
                        let _open = gate.lock();
                    }
                    std::thread::sleep(work);
                    id
                })
                .collect();
            sizes.lock().push(handed);
            replies
        }));
        (fixture.0, fixture.1, fixture.2, b)
    }

    type Call = std::thread::JoinHandle<Result<Admitted<u32>, AdmitError>>;

    fn submit(b: &GatedBatcher, id: u32, work: Duration, budget: Duration) -> Call {
        let b = Arc::clone(b);
        std::thread::spawn(move || b.try_call((id, work), Deadline::after(budget)))
    }

    const LONG: Duration = Duration::from_secs(30);

    #[test]
    fn a_slot_drains_what_is_queued_and_never_waits_for_company() {
        let (gate, sizes, _, b) = gated_batches(1);
        let held = gate.lock();
        // The blocker finds an empty queue: a batch of one, started at once.
        let blocker = submit(&b, 0, Duration::ZERO, LONG);
        wait_until("slot never started", || b.in_flight() == 1);
        let queued: Vec<Call> = (1..=3)
            .map(|id| {
                let call = submit(&b, id, Duration::ZERO, LONG);
                wait_until("job never queued", || b.queue_depth() == id as usize);
                call
            })
            .collect();
        drop(held);
        assert_eq!(blocker.join().unwrap().unwrap().result, 0);
        for (id, call) in (1..=3).zip(queued) {
            assert_eq!(call.join().unwrap().unwrap().result, id);
        }
        // Nothing queued: served alone, without waiting for a second job.
        let lone = b.try_call((9, Duration::ZERO), Deadline::after(LONG));
        assert_eq!(lone.unwrap().result, 9);
        assert_eq!(*sizes.lock(), vec![1, 3, 1]);
    }

    #[test]
    fn two_slots_split_two_queued_jobs() {
        let (gate, sizes, _, b) = gated_batches(2);
        let held = gate.lock();
        // Both slots busy, each holding a blocker.
        let blockers: Vec<Call> = (1..=2)
            .map(|n| {
                let call = submit(&b, 0, Duration::ZERO, LONG);
                wait_until("slot never started", || b.in_flight() == n);
                call
            })
            .collect();
        let queued: Vec<Call> = (1..=2)
            .map(|id| {
                let call = submit(&b, id, Duration::ZERO, LONG);
                wait_until("job never queued", || b.queue_depth() == id as usize);
                call
            })
            .collect();
        drop(held);
        for call in blockers.into_iter().chain(queued) {
            call.join().unwrap().unwrap();
        }
        // Whichever slot frees first takes one job and leaves the other
        // to its sibling: `1 + queued / slots` with one job left queued.
        assert_eq!(*sizes.lock(), vec![1, 1, 1, 1]);
    }

    #[test]
    fn a_member_expiring_behind_its_batch_mates_is_shed_alone() {
        let (gate, sizes, ran, b) = gated_batches(1);
        let held = gate.lock();
        let blocker = submit(&b, 0, Duration::ZERO, LONG);
        wait_until("slot never started", || b.in_flight() == 1);
        // One batch of three: the first member works for 300 ms, the
        // second has 100 ms to live — its budget dies while the first
        // one runs — and the third has all the time in the world.
        let jobs = [
            (1, Duration::from_millis(300), LONG),
            (2, Duration::ZERO, Duration::from_millis(100)),
            (3, Duration::ZERO, LONG),
        ];
        let calls: Vec<Call> = jobs
            .into_iter()
            .map(|(id, work, budget)| {
                let call = submit(&b, id, work, budget);
                wait_until("job never queued", || b.queue_depth() == id as usize);
                call
            })
            .collect();
        drop(held);
        blocker.join().unwrap().unwrap();
        let outcomes: Vec<_> = calls.into_iter().map(|c| c.join().unwrap()).collect();
        assert_eq!(outcomes[0].as_ref().unwrap().result, 1);
        assert!(matches!(outcomes[1], Err(AdmitError::Expired)));
        assert_eq!(outcomes[2].as_ref().unwrap().result, 3);
        assert_eq!(b.expired_sheds(), 1);
        // The doomed member never started: the blocker, then two of the
        // three drained jobs.
        assert_eq!(ran.load(Ordering::SeqCst), 3);
        assert_eq!(*sizes.lock(), vec![1, 2]);
        // Both survivors waited from enqueue to the start of their batch.
        let waits: Vec<Duration> = [&outcomes[0], &outcomes[2]]
            .map(|o| o.as_ref().unwrap().queue_wait)
            .to_vec();
        assert!(waits[1] <= waits[0], "queued later, same batch start");
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
