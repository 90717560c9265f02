//! Equivalence and admission-invariant proptests for continuous
//! batching.
//!
//! Two contracts lock the batcher down:
//!
//! 1. **Payload equivalence** — for any arrival schedule (sessions,
//!    concurrency, ordering), the recommendation payloads served by the
//!    continuous path are byte-identical to the inline `model_routes`
//!    handler's for the same model and sessions. Batching is an
//!    execution strategy, never a semantic: per-session inference is
//!    deterministic, so how requests were grouped must be invisible in
//!    the bytes — for the eager pair, whose slots serve a drained batch
//!    member by member, and for a JIT-compiled model that decodes with
//!    a fused `ScoreTopK`, where a batch shares one multi-query scan of
//!    the catalog.
//! 2. **Deadline admission** — no admitted request's inference ever
//!    starts after its deadline budget is exhausted: a blown budget is
//!    shed at the queue (before compute), and every *served* request's
//!    measured queue wait is below its budget.

use etude_faults::Deadline;
use etude_models::{ModelConfig, ModelKind, SbrModel};
use etude_serve::contbatch::{AdmitError, ContinuousBatcher, ContinuousConfig};
use etude_serve::http::Request;
use etude_serve::rustserver::{model_routes, Handler};
use etude_serve::{model_routes_continuous, ContinuousConfig as PublicContinuousConfig};
use etude_tensor::Device;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

const CATALOG: usize = 300;

/// One shared model for the whole suite: building it is the expensive
/// part, and equivalence must hold for *any* schedule against the same
/// weights anyway.
fn shared_model() -> Arc<dyn SbrModel> {
    static MODEL: OnceLock<Arc<dyn SbrModel>> = OnceLock::new();
    Arc::clone(MODEL.get_or_init(|| {
        let cfg = ModelConfig::new(CATALOG)
            .with_max_session_len(8)
            .with_seed(17);
        Arc::from(ModelKind::Core.build(&cfg))
    }))
}

fn inline_handler() -> Handler {
    model_routes(shared_model(), Device::cpu(), false)
}

fn continuous_handler() -> Handler {
    model_routes_continuous(
        shared_model(),
        Device::cpu(),
        false,
        PublicContinuousConfig::default(),
        Arc::new(etude_obs::Recorder::new()),
        None,
    )
}

/// Fires `sessions` at a handler from `fanout` concurrent submitters
/// (submitter `t` sends sessions `t, t + fanout, …` one after the other;
/// arrival order across submitters is the thread scheduler's) and
/// returns `(status, body)` per session, indexed like the input.
fn drive_from(handler: &Handler, sessions: &[Vec<u32>], fanout: usize) -> Vec<(u16, Vec<u8>)> {
    let mut replies = vec![(0, Vec::new()); sessions.len()];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..fanout)
            .map(|t| {
                let handler = Arc::clone(handler);
                scope.spawn(move || {
                    let mine = sessions.iter().enumerate().skip(t).step_by(fanout);
                    mine.map(|(i, session)| {
                        let ids: Vec<String> = session.iter().map(|i| i.to_string()).collect();
                        let resp = handler(&Request::post("/predictions", ids.join(",")));
                        (i, (resp.status, resp.body.to_vec()))
                    })
                    .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (i, reply) in handle.join().unwrap() {
                replies[i] = reply;
            }
        }
    });
    replies
}

/// One submitter per session: everything arrives at once.
fn drive(handler: &Handler, sessions: &[Vec<u32>]) -> Vec<(u16, Vec<u8>)> {
    drive_from(handler, sessions, sessions.len())
}

/// A model that decodes with the fused `ScoreTopK`, so a JIT-compiled
/// batch reaches the multi-query scan (the suite's CORE does not: it
/// post-processes raw scores).
fn fused_decode_model() -> Arc<dyn SbrModel> {
    static MODEL: OnceLock<Arc<dyn SbrModel>> = OnceLock::new();
    Arc::clone(MODEL.get_or_init(|| {
        let cfg = ModelConfig::new(CATALOG)
            .with_max_session_len(8)
            .with_seed(23);
        Arc::from(ModelKind::Stamp.build(&cfg))
    }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any arrival schedule: inline execution and continuous batching
    /// serve byte-identical recommendation payloads.
    #[test]
    fn payloads_match_inline_execution_for_any_schedule(
        sessions in proptest::collection::vec(
            proptest::collection::vec(0u32..CATALOG as u32, 1..8),
            1..10,
        ),
    ) {
        let inline = drive(&inline_handler(), &sessions);
        let continuous = drive(&continuous_handler(), &sessions);
        for (i, (f, c)) in inline.iter().zip(&continuous).enumerate() {
            prop_assert_eq!(f.0, 200u16, "inline handler failed session {}", i);
            prop_assert_eq!(c.0, 200u16, "continuous batcher failed session {}", i);
            prop_assert_eq!(
                &f.1, &c.1,
                "payload for session {} diverged from inline execution", i
            );
        }
    }

    /// The batched scan is invisible in the bytes: a JIT-compiled
    /// fused-decode model behind **one** slot — so concurrent arrivals
    /// queue and are drained into multi-query batches — answers every
    /// session exactly as the inline handler and as the single-session
    /// compiled run do, from 1, 2 and 8 concurrent submitters.
    #[test]
    fn batched_scan_payloads_match_inline_execution_for_any_schedule(
        sessions in proptest::collection::vec(
            proptest::collection::vec(0u32..CATALOG as u32, 1..8),
            1..24,
        ),
    ) {
        use etude_models::traits::{compile, recommend_compiled};
        let model = fused_decode_model();
        let compiled = compile(model.as_ref(), etude_tensor::JitOptions::default()).unwrap();
        let reference: Vec<Vec<u8>> = sessions
            .iter()
            .map(|session| {
                let rec = recommend_compiled(model.as_ref(), &compiled, session).unwrap();
                etude_serve::http::encode_recommendations(&rec.items, &rec.scores).into_bytes()
            })
            .collect();
        let inline = drive(&model_routes(Arc::clone(&model), Device::cpu(), true), &sessions);
        for fanout in [1, 2, 8] {
            let recorder = Arc::new(etude_obs::Recorder::new());
            let batched = model_routes_continuous(
                Arc::clone(&model),
                Device::cpu(),
                true,
                PublicContinuousConfig { slots: 1, ..PublicContinuousConfig::default() },
                Arc::clone(&recorder),
                None,
            );
            let served = drive_from(&batched, &sessions, fanout);
            for (i, want) in reference.iter().enumerate() {
                prop_assert_eq!(inline[i].0, 200u16, "inline handler failed session {}", i);
                prop_assert_eq!(&inline[i].1, want, "inline payload {} diverged", i);
                prop_assert_eq!(served[i].0, 200u16, "batcher failed session {} at fanout {}", i, fanout);
                prop_assert_eq!(&served[i].1, want, "payload {} diverged at fanout {}", i, fanout);
            }
            // Every request went through exactly one batch.
            let (batches, members) = (
                recorder.get(etude_obs::Metric::Batches),
                recorder.get(etude_obs::Metric::BatchedRequests),
            );
            prop_assert_eq!(members, sessions.len() as u64);
            prop_assert!(batches >= 1 && batches <= members);
            if fanout == 1 {
                prop_assert_eq!(batches, members, "a lone submitter never finds company queued");
            }
        }
    }

    /// Any schedule of budgets and work: inference never starts on a
    /// request whose budget already expired, and served requests'
    /// queue waits stay within budget.
    #[test]
    fn inference_never_starts_past_the_deadline(
        jobs in proptest::collection::vec(
            // (budget_us, work_us): budgets down to sub-millisecond so
            // plenty expire in the queue behind slower work.
            (0u64..40_000, 0u64..4_000),
            1..24,
        ),
    ) {
        let late_starts = Arc::new(AtomicU64::new(0));
        let ran = Arc::new(AtomicU64::new(0));
        let handler_late = Arc::clone(&late_starts);
        let handler_ran = Arc::clone(&ran);
        let batcher: Arc<ContinuousBatcher<(Deadline, Duration), ()>> =
            Arc::new(ContinuousBatcher::spawn(
                ContinuousConfig {
                    // One slot: everything queues behind the head job,
                    // maximizing in-queue expiries.
                    slots: 1,
                    max_queue: 64,
                    default_deadline: Duration::from_secs(1),
                },
                move |(deadline, work): (Deadline, Duration)| {
                    // This closure IS the start of inference.
                    if deadline.expired() {
                        handler_late.fetch_add(1, Ordering::SeqCst);
                    }
                    handler_ran.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(work);
                },
            ));

        let results: Vec<Result<Duration, AdmitError>> = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for &(budget_us, work_us) in &jobs {
                let batcher = Arc::clone(&batcher);
                handles.push(scope.spawn(move || {
                    let budget = Duration::from_micros(budget_us);
                    let deadline = Deadline::after(budget);
                    batcher
                        .try_call((deadline, Duration::from_micros(work_us)), deadline)
                        .map(|admitted| admitted.queue_wait)
                }));
            }
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        // The invariant itself: zero inferences started past expiry.
        prop_assert_eq!(
            late_starts.load(Ordering::SeqCst), 0,
            "inference started after the deadline was exhausted"
        );
        let mut served = 0u64;
        for (i, result) in results.iter().enumerate() {
            match result {
                Ok(queue_wait) => {
                    served += 1;
                    prop_assert!(
                        *queue_wait <= Duration::from_micros(jobs[i].0),
                        "served request {} waited {:?} on a {}us budget",
                        i, queue_wait, jobs[i].0
                    );
                }
                Err(AdmitError::Expired) => {}
                Err(e) => prop_assert!(false, "unexpected admission error: {:?}", e),
            }
        }
        // Exactly the served requests (and the in-queue expiries, which
        // run no compute) reached a slot.
        prop_assert_eq!(
            ran.load(Ordering::SeqCst), served,
            "handler ran for a request that was not served"
        );
    }
}

/// Low-load byte-identity across the full HTTP stack, checked
/// end-to-end over real sockets: the reactor serving the inline handler
/// vs the reactor serving the continuous batcher.
#[test]
fn servers_agree_byte_for_byte_at_low_load() {
    use etude_serve::client::HttpClient;
    use etude_serve::reactor::{self, ReactorConfig};

    let inline = reactor::start(ReactorConfig::default(), inline_handler()).unwrap();
    let batched = reactor::start(ReactorConfig::default(), continuous_handler()).unwrap();
    let mut inline_client = HttpClient::connect(inline.addr()).unwrap();
    let mut batched_client = HttpClient::connect(batched.addr()).unwrap();

    let sessions = ["1", "5,2,9", "10,20,30,40", "299", "0,0,7", "42,17,42,17,8"];
    for session in sessions {
        let req = Request::post("/predictions", session);
        let a = inline_client.request(&req).unwrap();
        let b = batched_client.request(&req).unwrap();
        assert_eq!(a.status, 200, "reactor+inline failed {session}");
        assert_eq!(b.status, 200, "reactor+continuous failed {session}");
        assert_eq!(
            a.body, b.body,
            "recommendation payload diverged for session {session}"
        );
    }
    inline.shutdown();
    batched.shutdown();
}

/// In-queue expiry sheds with the standard overload contract (503 +
/// retry-after) through the full continuous route table.
#[test]
fn expired_requests_shed_with_503_before_compute() {
    let handler = model_routes_continuous(
        shared_model(),
        Device::cpu(),
        false,
        PublicContinuousConfig::default(),
        Arc::new(etude_obs::Recorder::new()),
        None,
    );
    // A zero budget via the deadline header: expired at admission.
    let req = Request::post("/predictions", "1,2,3").with_header(etude_serve::DEADLINE_HEADER, "0");
    let started = Instant::now();
    let resp = handler(&req);
    assert_eq!(resp.status, 503);
    assert_eq!(
        resp.headers.get("retry-after").map(String::as_str),
        Some("1")
    );
    // Shed BEFORE compute: far faster than an inference pass.
    assert!(started.elapsed() < Duration::from_millis(50));
}

/// The deadline budget is anchored at wire-parse time, not handler
/// entry: a request that exhausted its budget waiting for a dispatch
/// thread (the reactor runs route handlers on a pool behind a queue)
/// is shed even though the batcher's slots are free.
#[test]
fn dispatch_queue_wait_counts_against_the_budget() {
    let handler = model_routes_continuous(
        shared_model(),
        Device::cpu(),
        false,
        PublicContinuousConfig::default(),
        Arc::new(etude_obs::Recorder::new()),
        None,
    );
    let mut req =
        Request::post("/predictions", "1,2,3").with_header(etude_serve::DEADLINE_HEADER, "50");
    // Simulate the overloaded dispatch queue: the request came off the
    // wire long before the handler ran, blowing its 50 ms budget.
    req.arrival = Instant::now() - Duration::from_millis(200);
    let resp = handler(&req);
    assert_eq!(
        resp.status, 503,
        "budget spent in the dispatch queue must shed, not serve late"
    );
    assert_eq!(
        resp.headers.get("retry-after").map(String::as_str),
        Some("1")
    );

    // An identical request whose arrival is fresh serves normally.
    let fresh =
        Request::post("/predictions", "1,2,3").with_header(etude_serve::DEADLINE_HEADER, "50");
    assert_eq!(handler(&fresh).status, 200);
}
