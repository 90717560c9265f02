//! The route tables of the real Rust inference server — the
//! reproduction of the paper's Actix-based serving engine — and the one
//! request pipeline every serving tier runs its predictions through.
//!
//! The sockets are [`crate::reactor`]'s; this module is what a request
//! meets once it is parsed off the wire:
//!
//! * `GET /ping` — readiness probe (Kubernetes-style),
//! * `GET /static` — the empty-response infrastructure test (Figure 2),
//! * `POST /predictions` — session in, top-k recommendations out, with
//!   the pure inference duration reported via the
//!   `x-inference-duration-micros` response header (the paper's server
//!   "communicates metrics like the inference duration via HTTP response
//!   headers"),
//! * `GET /metrics` — Prometheus text exposition of per-stage latency
//!   summaries (parse → queue → inference → top-k → serialize),
//! * `GET /stats` — the same aggregation as JSON, scraped by the load
//!   generator at end of run,
//! * `GET /debug/slow` — the slowest-request exemplars, each with the
//!   stage spans that request measured itself.
//!
//! `prediction_routes` owns everything that is the same on every tier
//! (correlation id, parse, deadline, stage recording, and the
//! whole refusal vocabulary); a tier contributes only its executor — the
//! inline model here ([`model_routes`]), the continuous batcher
//! ([`crate::contbatch`]), admission and the brownout ladder
//! ([`crate::overload`]), the slice scan and the scatter/gather
//! ([`crate::router`]). Every prediction's stages are recorded into an
//! [`etude_obs::Recorder`] keyed by the client's `X-Request-Id` (echoed
//! back on responses; hashed to a compact correlation id for the span
//! records).

use crate::contbatch::{request_budget, MAX_BUDGET};
use crate::http::{self, Method, Request, Response};
use crate::overload::{BrownoutLevel, BROWNOUT_HEADER};
use etude_control::Criticality;
use etude_faults::{Deadline, FaultInjector};
use etude_models::traits::{self, Recommendation, StageTimings};
use etude_models::SbrModel;
use etude_obs::{request_id_hash, Metric, Recorder, Stage};
use etude_tensor::{Device, JitOptions, TensorError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use crate::reactor::ServerHandle;

/// Internal marker header: a handler that wants the connection reset
/// mid-response (chaos injection) tags its response with this; the
/// reactor strips it, writes a partial response and closes. Never sent
/// on the wire.
pub const RESET_MARKER: &str = "x-etude-inject-reset";

/// Response header flagging a degraded (popularity-fallback) response.
pub const DEGRADED_HEADER: &str = "x-degraded";

/// A request handler: route table entry.
pub type Handler = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

/// Process-local fallback ids for requests that carry no `x-request-id`.
static FALLBACK_REQUEST_ID: AtomicU64 = AtomicU64::new(1);

/// Correlation id of a request: the FNV hash of the client's
/// `x-request-id`, or a process-local counter when the client sent none.
/// Also returns the header value so responses can echo it.
fn correlation_id(req: &Request) -> (u64, Option<&str>) {
    match req.headers.get("x-request-id") {
        Some(id) => (request_id_hash(id), Some(id.as_str())),
        None => (FALLBACK_REQUEST_ID.fetch_add(1, Ordering::Relaxed), None),
    }
}

/// Echoes the client's request id back, when it sent one.
fn echo_request_id(resp: Response, id: Option<&str>) -> Response {
    match id {
        Some(id) => resp.with_header("x-request-id", id.to_string()),
        None => resp,
    }
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

/// Routes every tier shares: readiness, the static infrastructure test
/// and the observability endpoints.
fn shared_routes(req: &Request, recorder: &Recorder) -> Option<Response> {
    match (req.method, req.path.as_str()) {
        (Method::Get, "/ping") => Some(Response::ok("pong")),
        (Method::Get, "/static") => Some(Response::ok("ok")),
        (Method::Get, "/metrics") => Some(
            Response::ok(recorder.snapshot().render_prometheus())
                .with_header("content-type", "text/plain; version=0.0.4".to_string()),
        ),
        (Method::Get, "/stats") => Some(
            Response::ok(recorder.snapshot().render_json())
                .with_header("content-type", "application/json".to_string()),
        ),
        (Method::Get, "/debug/slow") => Some(
            Response::ok(recorder.exemplars().render_chrome_json())
                .with_header("content-type", "application/json".to_string()),
        ),
        _ => None,
    }
}

/// Parses and validates a prediction request body.
fn parse_prediction(body: &[u8], catalog_size: usize) -> Result<Vec<u32>, Response> {
    let items = match http::decode_session(body) {
        Ok(items) => items,
        Err(_) => return Err(Response::error(400, "malformed session")),
    };
    // Reject out-of-catalog ids at the boundary: a clean 400 instead of
    // an inference failure deep in the kernels.
    if let Some(&bad) = items.iter().find(|&&i| i as usize >= catalog_size) {
        return Err(Response::error(
            400,
            &format!("item id {bad} out of catalog"),
        ));
    }
    Ok(items)
}

/// What [`prediction_routes`] has established about a request by the
/// time the tier's executor runs.
pub(crate) struct PredictCtx<'a> {
    /// The tier's recorder, for the gauges an executor publishes.
    pub(crate) recorder: &'a Recorder,
    /// The request itself (inherited headers, the body a router forwards).
    pub(crate) req: &'a Request,
    /// Correlation id of the span records.
    pub(crate) rid: u64,
    /// The client's `x-request-id`, when it sent one.
    pub(crate) echo: Option<&'a str>,
    /// The latency budget: `x-deadline-ms`, else the tier's default.
    pub(crate) budget: Duration,
    /// `budget` anchored at the instant the request was parsed off the
    /// wire, not at handler entry: the reactor runs handlers on a
    /// dispatch pool, and time spent waiting for a dispatch thread must
    /// be charged against the deadline (and shed when blown), or
    /// overload would serve requests arbitrarily past their end-to-end
    /// budget.
    pub(crate) deadline: Deadline,
    /// Wire-parse → handler entry: the wait for a dispatch thread.
    pub(crate) dispatch_wait: Duration,
}

impl PredictCtx<'_> {
    /// The request's `x-criticality` class (absent or garbled → normal).
    pub(crate) fn criticality(&self) -> Criticality {
        Criticality::from_header(
            self.req
                .headers
                .get(Criticality::HEADER)
                .map(String::as_str),
        )
    }
}

/// A prediction an executor served: the answer plus what it measured.
/// The `Option`s are the data differences between tiers — which stages
/// are recorded and which headers are stamped.
pub(crate) struct Served {
    pub(crate) items: Vec<u32>,
    pub(crate) scores: Vec<f32>,
    /// Wait for an inference slot; zero on tiers that run inline. The
    /// pipeline adds the dispatch wait and records the sum as the Queue
    /// stage on every tier, so, for served requests, the span is bounded
    /// by the budget.
    pub(crate) queue_wait: Duration,
    /// The batcher's reply hop: slot finished → this thread resumed
    /// ([`crate::contbatch::Admitted::handback`]); zero on tiers that run
    /// inline. The pipeline records it in the Serialize stage, which
    /// therefore runs from the end of the compute to the encoded
    /// response, so the components tile `Total` everywhere.
    pub(crate) handback: Duration,
    pub(crate) inference: Duration,
    /// `None` where the top-k is fused into the scan timed as
    /// `inference` (no TopK stage).
    pub(crate) topk: Option<Duration>,
    /// Whether the tier sits on the brownout ladder, so an exact answer
    /// is stamped `x-brownout-level: 0` (the ladder's other rung never
    /// gets here: it is a [`Refused::Fallback`]).
    pub(crate) on_ladder: bool,
    /// Shard groups missing from a gather: a non-zero count is stamped
    /// as [`DEGRADED_HEADER`] and counted as degraded.
    pub(crate) lost_groups: usize,
    /// Whether `inference + topk` is compute to report as
    /// `x-inference-duration-micros` (a router's is a network fan-out).
    pub(crate) reports_compute: bool,
}

/// One session's inference result with its compute split.
pub(crate) type Inferred = Result<(Recommendation, StageTimings), TensorError>;

impl Served {
    /// An answer computed inline in `inference`, with nothing else to
    /// record or stamp; tiers override what they add.
    pub(crate) fn new(items: Vec<u32>, scores: Vec<f32>, inference: Duration) -> Served {
        Served {
            items,
            scores,
            queue_wait: Duration::ZERO,
            handback: Duration::ZERO,
            inference,
            topk: None,
            on_ladder: false,
            lost_groups: 0,
            reports_compute: true,
        }
    }

    /// The reply of a tier that runs the session through the model.
    pub(crate) fn by_model(inferred: Inferred, queue_wait: Duration) -> Result<Served, Refused> {
        let (rec, st) = inferred.map_err(|_| Refused::InferenceFailed)?;
        Ok(Served {
            queue_wait,
            topk: Some(st.topk),
            ..Served::new(rec.items, rec.scores, st.inference)
        })
    }
}

/// Every way a tier declines to serve a parsed prediction exactly.
pub(crate) enum Refused {
    /// 503 + `retry-after`, counted as shed: the budget died before
    /// compute, or there is no capacity and the request may be dropped.
    /// The text names which, so the client can tell them apart.
    Shed(&'static str),
    /// 429 + `retry-after`, counted as refused: admission control turned
    /// `shed-first` traffic away before it queued.
    OverLimit,
    /// 200 + [`DEGRADED_HEADER`] + `x-brownout-level: 3` with the given
    /// popularity-fallback body, counted as degraded and as a fallback
    /// brownout.
    Fallback(String),
    /// 500: the model failed on a validated session.
    InferenceFailed,
    /// 503 without `retry-after`: the inference slots have shut down.
    BatcherUnavailable,
    /// 503 + `retry-after`, not counted as shed (nothing was queued to
    /// shed): a router lost every shard group.
    ShardsUnavailable,
}

/// Refusal text for a budget that died before inference could start.
pub(crate) const EXPIRED: &str = "deadline exhausted before inference";
/// Refusal text for a full admission queue.
pub(crate) const OVERLOADED: &str = "server overloaded, retry later";

fn refuse(recorder: &Recorder, refused: Refused) -> Response {
    let retry_later = |resp: Response| resp.with_header("retry-after", "1".to_string());
    match refused {
        Refused::Shed(why) => {
            recorder.bump(Metric::Shed);
            retry_later(Response::error(503, why))
        }
        Refused::OverLimit => {
            recorder.bump(Metric::Refused);
            retry_later(Response::error(429, "admission refused, retry later"))
        }
        Refused::Fallback(body) => {
            recorder.bump(Metric::Degraded);
            let level = BrownoutLevel::Fallback.as_u8();
            recorder.bump(Metric::BrownoutFallback);
            Response::ok(body)
                .with_header(DEGRADED_HEADER, "1".to_string())
                .with_header(BROWNOUT_HEADER, level.to_string())
        }
        Refused::InferenceFailed => Response::error(500, "inference failed"),
        Refused::BatcherUnavailable => Response::error(503, "batcher unavailable"),
        Refused::ShardsUnavailable => {
            retry_later(Response::error(503, "all shard groups unavailable"))
        }
    }
}

/// The one `POST /predictions` sequence, around a tier's executor:
/// shared routes → correlation id → timed parse → deadline → `exec` →
/// serialize, stamp, record — or the refusal. This is the place
/// to add a stage, a header or a counter.
///
/// Ids validate against `catalog_size`; requests without
/// `x-deadline-ms` get `default_deadline`. `exec` receives the parsed
/// session and decides [`Served`] or [`Refused`]; it is monomorphised
/// into the handler, so a tier pays for nothing it does not use.
pub(crate) fn prediction_routes<E>(
    recorder: Arc<Recorder>,
    catalog_size: usize,
    default_deadline: Duration,
    exec: E,
) -> Handler
where
    E: Fn(&PredictCtx<'_>, Vec<u32>) -> Result<Served, Refused> + Send + Sync + 'static,
{
    Arc::new(move |req: &Request| -> Response {
        if let Some(resp) = shared_routes(req, &recorder) {
            return resp;
        }
        match (req.method, req.path.as_str()) {
            (Method::Post, "/predictions") => {}
            _ => return Response::error(404, "no such route"),
        }
        let t_entry = Instant::now();
        let (rid, echo) = correlation_id(req);
        let t_parse = Instant::now();
        let items = match parse_prediction(&req.body, catalog_size) {
            Ok(items) => items,
            Err(resp) => return echo_request_id(resp, echo),
        };
        let parse = t_parse.elapsed();
        let budget = request_budget(req, default_deadline);
        let ctx = PredictCtx {
            recorder: &recorder,
            req,
            rid,
            echo,
            budget,
            deadline: Deadline::at(req.arrival + budget),
            dispatch_wait: t_entry.saturating_duration_since(req.arrival),
        };
        let served = match exec(&ctx, items) {
            Ok(served) => served,
            Err(refused) => return echo_request_id(refuse(&recorder, refused), echo),
        };
        let t_ser = Instant::now();
        let mut resp = Response::ok(http::encode_recommendations(&served.items, &served.scores));
        if served.reports_compute {
            let compute = served.inference + served.topk.unwrap_or_default();
            resp = resp.with_header(
                "x-inference-duration-micros",
                compute.as_micros().to_string(),
            );
        }
        if served.on_ladder {
            let level = BrownoutLevel::Exact.as_u8();
            resp = resp.with_header(BROWNOUT_HEADER, level.to_string());
        }
        if served.lost_groups > 0 {
            recorder.bump(Metric::Degraded);
            resp = resp.with_header(DEGRADED_HEADER, served.lost_groups.to_string());
        }
        let resp = echo_request_id(resp, echo);
        let serialize = t_ser.elapsed();
        // End to end from the wire. Taken before the records: the first
        // record on a thread registers its ring, which must not be
        // billed to this request.
        let total = req.arrival.elapsed();
        let mut stages = [(Stage::Parse, nanos(parse)); 6];
        let mut n = 1;
        let mut push = |stage, took| {
            stages[n] = (stage, nanos(took));
            n += 1;
        };
        push(Stage::Queue, ctx.dispatch_wait + served.queue_wait);
        push(Stage::Inference, served.inference);
        if let Some(topk) = served.topk {
            push(Stage::TopK, topk);
        }
        push(Stage::Serialize, served.handback + serialize);
        push(Stage::Total, total);
        let stages = &stages[..n];
        for &(stage, ns) in stages {
            recorder.record(rid, stage, ns);
        }
        // Offer the complete span tree to the slowest-N store; only
        // tail outliers are retained.
        match echo {
            Some(id) => recorder.exemplars().offer(id, stages, nanos(total)),
            None => recorder
                .exemplars()
                .offer(&format!("{rid:016x}"), stages, nanos(total)),
        }
        resp
    })
}

/// Deploys a model for serving and returns the batch inference both
/// model tiers run: it pulls sessions from the iterator one at a time
/// (a session's encoder starts when it is pulled) and returns one reply
/// per session, every member carrying the batch's timings — each waited
/// for the whole batch. With `jit` the model is traced and compiled
/// here, once, and a batch shares one catalog scan; models with dynamic
/// control flow fall back to eager execution (as `torch.jit` would),
/// session by session.
pub(crate) fn deploy(
    model: Arc<dyn SbrModel>,
    device: Device,
    jit: bool,
) -> impl Fn(&mut dyn Iterator<Item = Vec<u32>>) -> Vec<Inferred> + Send + Sync + 'static {
    let compiled = if jit {
        traits::compile(model.as_ref(), JitOptions::default()).ok()
    } else {
        None
    };
    move |sessions| match &compiled {
        Some(graph) => traits::recommend_compiled_batch_timed(model.as_ref(), graph, sessions),
        None => {
            let start = Instant::now();
            let mut replies: Vec<Inferred> = sessions
                .map(|items| traits::recommend_eager_timed(model.as_ref(), &device, &items))
                .collect();
            let topk = replies.iter().flatten().map(|(_, t)| t.topk).sum();
            let shared = StageTimings {
                inference: start.elapsed().saturating_sub(topk),
                topk,
            };
            for (_, timings) in replies.iter_mut().flatten() {
                *timings = shared;
            }
            replies
        }
    }
}

/// Builds the model-serving route table of the paper's inference server:
/// the model runs inline on the handler thread, with no queue, deadline
/// or degradation — the reference the batched tiers are compared
/// against. Stage spans land in a private recorder; use
/// [`model_routes_observed`] to keep a handle on it.
pub fn model_routes(model: Arc<dyn SbrModel>, device: Device, jit: bool) -> Handler {
    model_routes_observed(model, device, jit, Arc::new(Recorder::new()))
}

/// [`model_routes`] with an externally owned span recorder, so callers
/// (tests, benchmarks) can aggregate stage latencies in-process instead
/// of scraping `/stats`.
pub fn model_routes_observed(
    model: Arc<dyn SbrModel>,
    device: Device,
    jit: bool,
    recorder: Arc<Recorder>,
) -> Handler {
    let catalog_size = model.config().catalog_size;
    let infer = deploy(model, device, jit);
    prediction_routes(recorder, catalog_size, MAX_BUDGET, move |_ctx, items| {
        let inferred = infer(&mut std::iter::once(items)).pop();
        Served::by_model(inferred.expect("one reply per session"), Duration::ZERO)
    })
}

/// Wraps a route table with deterministic server-side fault injection.
///
/// Prediction requests consult the [`FaultInjector`] at three points:
/// an active slow-down window stalls the handler, an error-response
/// window answers with the configured status instead of serving, and a
/// connection-reset window tags the response with [`RESET_MARKER`] so
/// the reactor truncates it mid-write. All decisions are pure functions
/// of the plan seed and the request id, so two runs of the same seeded
/// plan inject bit-identical faults. Fired faults are counted on the
/// recorder (surfaced as `faults` in `/stats`).
///
/// Non-prediction routes (`/ping`, `/stats`, `/metrics`, `/static`)
/// pass through untouched so probes and scrapes survive chaos runs.
pub fn inject_faults(inner: Handler, injector: FaultInjector, recorder: Arc<Recorder>) -> Handler {
    Arc::new(move |req: &Request| -> Response {
        if !(req.method == Method::Post && req.path == "/predictions") {
            return inner(req);
        }
        let (rid, echo) = correlation_id(req);
        let elapsed = injector.elapsed();
        let stall = injector.slowdown(elapsed);
        if !stall.is_zero() {
            recorder.bump(Metric::Faults);
            std::thread::sleep(stall);
        }
        if let Some(status) = injector.error_response(elapsed, rid) {
            recorder.bump(Metric::Faults);
            return echo_request_id(Response::error(status, "injected fault"), echo);
        }
        let resp = inner(req);
        if injector.resets_connection(elapsed, rid) {
            recorder.bump(Metric::Faults);
            return resp.with_header(RESET_MARKER, "1".to_string());
        }
        resp
    })
}

/// Opts the continuous-batching server into graceful degradation: with
/// it, a full queue answers `normal` and `critical` traffic with the
/// popularity fallback instead of a 503 (`shed_or_fallback`). It
/// carries no tuning — the fallback is as long as the model's `top_k`.
#[derive(Debug, Clone, Copy)]
pub struct DegradationPolicy;

/// The one answer to "no capacity, budget alive", on every tier — a
/// full batcher queue, an admission refusal, a fan-out the remaining
/// budget cannot cover. Traffic that opted into shedding gets the 503
/// (`why` names the tier's reason); `normal` and `critical` get the
/// tier's popularity fallback, because a browned-out 200 beats a 503
/// while the budget lives. A dead budget never reaches this function:
/// a late fallback would still be late.
pub(crate) fn shed_or_fallback(crit: Criticality, why: &'static str, fallback: &str) -> Refused {
    match crit {
        Criticality::ShedFirst => Refused::Shed(why),
        Criticality::Normal | Criticality::Critical => Refused::Fallback(fallback.to_string()),
    }
}

/// The degraded-mode response body: the catalog's popularity top-k (the
/// head of the item distribution — our synthetic workloads put the mass
/// on the lowest ids), scored by reciprocal rank. Stands in for the
/// popularity cache a production recommender keeps warm.
pub(crate) fn popularity_fallback(catalog_size: usize, top_k: usize) -> String {
    let k = top_k.min(catalog_size).max(1);
    let items: Vec<u32> = (0..k as u32).collect();
    let scores: Vec<f32> = (0..k).map(|rank| 1.0 / (rank as f32 + 1.0)).collect();
    http::encode_recommendations(&items, &scores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ClientError, HttpClient};
    use crate::contbatch::{
        continuous_routes, model_routes_continuous, ContinuousBatcher, ContinuousConfig,
    };
    use crate::reactor::{start, ReactorConfig};
    use etude_models::{ModelConfig, ModelKind};

    fn static_handler() -> Handler {
        Arc::new(|req: &Request| match (req.method, req.path.as_str()) {
            (Method::Get, "/static") => Response::ok("ok"),
            (Method::Get, "/ping") => Response::ok("pong"),
            _ => Response::error(404, "nope"),
        })
    }

    #[test]
    fn serves_static_content_over_real_sockets() {
        let server = start(ReactorConfig::default(), static_handler()).unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let resp = client.request(&Request::get("/static")).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(&resp.body[..], b"ok");
        server.shutdown();
    }

    #[test]
    fn keep_alive_reuses_the_connection() {
        let server = start(ReactorConfig::default(), static_handler()).unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        for _ in 0..50 {
            let resp = client.request(&Request::get("/ping")).unwrap();
            assert_eq!(resp.status, 200);
        }
        assert_eq!(server.requests_served(), 50);
        server.shutdown();
    }

    #[test]
    fn unknown_routes_return_404() {
        let server = start(ReactorConfig::default(), static_handler()).unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let resp = client.request(&Request::get("/missing")).unwrap();
        assert_eq!(resp.status, 404);
        server.shutdown();
    }

    #[test]
    fn model_route_returns_recommendations_and_metrics_header() {
        let cfg = ModelConfig::new(500).with_max_session_len(8).with_seed(5);
        let model: Arc<dyn SbrModel> = Arc::from(ModelKind::Core.build(&cfg));
        let handler = model_routes(model, Device::cpu(), true);
        let server = start(ReactorConfig::default(), handler).unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let resp = client
            .request(&Request::post("/predictions", "1,2,3"))
            .unwrap();
        assert_eq!(resp.status, 200);
        assert!(resp.headers.contains_key("x-inference-duration-micros"));
        let body = std::str::from_utf8(&resp.body).unwrap();
        let items: Vec<&str> = body.split(',').collect();
        assert_eq!(items.len(), cfg.top_k);
        assert!(items[0].contains(':'));
        server.shutdown();
    }

    /// One batch, three members, the middle one poisoned with an id the
    /// route's validation would have stopped: it alone fails, and its
    /// batch mates get — from the one shared scan — exactly what the
    /// single-session compiled run gives them, with the batch's timings.
    #[test]
    fn one_bad_member_does_not_fail_its_batch() {
        let cfg = ModelConfig::new(500).with_max_session_len(8).with_seed(5);
        let model: Arc<dyn SbrModel> = Arc::from(ModelKind::Stamp.build(&cfg));
        let compiled = traits::compile(model.as_ref(), JitOptions::default()).unwrap();
        for jit in [true, false] {
            let infer = deploy(Arc::clone(&model), Device::cpu(), jit);
            let sessions = vec![vec![1, 2, 3], vec![7, 99_999], vec![40, 2]];
            let replies = infer(&mut sessions.clone().into_iter());
            assert_eq!(replies.len(), 3);
            assert!(replies[1].is_err(), "jit={jit}: the poisoned member fails");
            for i in [0, 2] {
                let (rec, timings) = replies[i].as_ref().expect("batch mate served");
                let alone = if jit {
                    traits::recommend_compiled(model.as_ref(), &compiled, &sessions[i])
                } else {
                    traits::recommend_eager(model.as_ref(), &Device::cpu(), &sessions[i])
                };
                assert_eq!(rec, &alone.unwrap(), "jit={jit} member {i}");
                assert_eq!(*timings, replies[0].as_ref().unwrap().1, "shared timings");
            }
        }
    }

    #[test]
    fn malformed_sessions_get_400() {
        let cfg = ModelConfig::new(100).with_max_session_len(4);
        let model: Arc<dyn SbrModel> = Arc::from(ModelKind::Stamp.build(&cfg));
        let handler = model_routes(model, Device::cpu(), false);
        let server = start(ReactorConfig::default(), handler).unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let resp = client
            .request(&Request::post("/predictions", "1,oops,3"))
            .unwrap();
        assert_eq!(resp.status, 400);
        // Out-of-catalog ids are rejected at the boundary, too — they
        // must never reach (and crash) the embedding kernel.
        let resp = client
            .request(&Request::post("/predictions", "99999999"))
            .unwrap();
        assert_eq!(resp.status, 400);
        assert!(std::str::from_utf8(&resp.body)
            .unwrap()
            .contains("out of catalog"));
        // And the connection/worker survives to serve the next request.
        let resp = client
            .request(&Request::post("/predictions", "1,2"))
            .unwrap();
        assert_eq!(resp.status, 200);
        server.shutdown();
    }

    #[test]
    fn continuous_model_route_serves_identical_results() {
        let cfg = ModelConfig::new(400).with_max_session_len(8).with_seed(6);
        let model: Arc<dyn SbrModel> = Arc::from(ModelKind::Narm.build(&cfg));
        let plain = model_routes(Arc::clone(&model), Device::cpu(), true);
        let batched = model_routes_continuous(
            model,
            Device::cpu(),
            true,
            ContinuousConfig::default(),
            Arc::new(Recorder::new()),
            None,
        );
        let plain_server = start(ReactorConfig::default(), plain).unwrap();
        let batched_server = start(ReactorConfig::default(), batched).unwrap();
        let mut c1 = HttpClient::connect(plain_server.addr()).unwrap();
        let mut c2 = HttpClient::connect(batched_server.addr()).unwrap();
        for session in ["1,2,3", "7", "9,9,9,9", "300,2"] {
            let a = c1.request(&Request::post("/predictions", session)).unwrap();
            let b = c2.request(&Request::post("/predictions", session)).unwrap();
            assert_eq!(a.status, 200);
            assert_eq!(b.status, 200);
            assert_eq!(a.body, b.body, "session {session}");
        }
        plain_server.shutdown();
        batched_server.shutdown();
    }

    #[test]
    fn batched_route_survives_concurrent_load() {
        let cfg = ModelConfig::new(300).with_max_session_len(8).with_seed(8);
        let model: Arc<dyn SbrModel> = Arc::from(ModelKind::Stamp.build(&cfg));
        let handler = model_routes_continuous(
            model,
            Device::cpu(),
            true,
            ContinuousConfig::default(),
            Arc::new(Recorder::new()),
            None,
        );
        let server = Arc::new(start(ReactorConfig::default(), handler).unwrap());
        let addr = server.addr();
        let mut threads = Vec::new();
        for t in 0..6 {
            threads.push(std::thread::spawn(move || {
                let mut client = HttpClient::connect(addr).unwrap();
                for i in 0..25u32 {
                    let body = format!("{},{}", t * 10 + 1, i % 300);
                    let resp = client
                        .request(&Request::post("/predictions", body))
                        .unwrap();
                    assert_eq!(resp.status, 200);
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(server.requests_served(), 150);
    }

    /// A hostile `x-deadline-ms` — overflowing, negative, non-numeric,
    /// empty — must neither panic the deadline arithmetic nor refuse the
    /// request: it falls back to the cap or the tier's default budget.
    /// (The fifth tier, the router, needs sockets: `tests/router.rs`.)
    #[test]
    fn hostile_deadline_headers_serve_under_the_default_budget_on_every_tier() {
        use crate::contbatch::DEADLINE_HEADER;
        use crate::overload::{overload_routes_with_state, OverloadConfig};
        use etude_models::retrieval::CatalogShard;

        let cfg = ModelConfig::new(64).with_max_session_len(4).with_seed(2);
        let model: Arc<dyn SbrModel> = Arc::from(ModelKind::Stamp.build(&cfg));
        let table: Vec<f32> = (0..64 * 8).map(|i| (i % 97) as f32 / 97.0).collect();
        let recorder = || Arc::new(Recorder::new());
        let tiers: [(&str, Handler); 4] = [
            (
                "inline",
                model_routes(Arc::clone(&model), Device::cpu(), false),
            ),
            (
                "continuous",
                model_routes_continuous(
                    model,
                    Device::cpu(),
                    false,
                    ContinuousConfig::default(),
                    recorder(),
                    None,
                ),
            ),
            (
                "overload",
                overload_routes_with_state(
                    table.clone(),
                    64,
                    8,
                    7,
                    OverloadConfig::default(),
                    recorder(),
                )
                .0,
            ),
            (
                "shard",
                crate::router::shard_backend_routes(
                    CatalogShard::from_table(&table, 8, 0..64),
                    64,
                    7,
                    5,
                    recorder(),
                ),
            ),
        ];
        for (tier, handler) in &tiers {
            for budget in ["18446744073709551615", "-1", "soon", ""] {
                let req =
                    Request::post("/predictions", "1,2,3").with_header(DEADLINE_HEADER, budget);
                assert_eq!(
                    handler(&req).status,
                    200,
                    "{tier}: x-deadline-ms: {budget:?}"
                );
            }
        }
    }

    #[test]
    fn request_ids_are_echoed_on_responses() {
        let cfg = ModelConfig::new(200).with_max_session_len(4).with_seed(3);
        let model: Arc<dyn SbrModel> = Arc::from(ModelKind::Stamp.build(&cfg));
        let server = start(
            ReactorConfig::default(),
            model_routes(model, Device::cpu(), false),
        )
        .unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let mut req = Request::post("/predictions", "1,2");
        req.headers
            .insert("x-request-id".into(), "req-abc-123".into());
        let resp = client.request(&req).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(
            resp.headers.get("x-request-id").map(String::as_str),
            Some("req-abc-123")
        );
        // Without an explicit header the client generates one and the
        // server echoes it back.
        let resp = client
            .request(&Request::post("/predictions", "1,2"))
            .unwrap();
        assert!(
            resp.headers
                .get("x-request-id")
                .is_some_and(|id| id.starts_with("auto-")),
            "expected generated id, got {:?}",
            resp.headers.get("x-request-id")
        );
        server.shutdown();
    }

    #[test]
    fn metrics_and_stats_endpoints_aggregate_stage_latencies() {
        let cfg = ModelConfig::new(300).with_max_session_len(8).with_seed(4);
        let model: Arc<dyn SbrModel> = Arc::from(ModelKind::Core.build(&cfg));
        let handler = model_routes(model, Device::cpu(), true);
        let server = start(ReactorConfig::default(), handler).unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        for i in 0..5 {
            let resp = client
                .request(&Request::post(
                    "/predictions",
                    format!("{},{}", i + 1, i + 2),
                ))
                .unwrap();
            assert_eq!(resp.status, 200);
        }

        let stats = client.request(&Request::get("/stats")).unwrap();
        assert_eq!(stats.status, 200);
        assert_eq!(
            stats.headers.get("content-type").map(String::as_str),
            Some("application/json")
        );
        let snap = etude_obs::parse_stats_json(std::str::from_utf8(&stats.body).unwrap()).unwrap();
        assert_eq!(snap.requests, 5);
        assert_eq!(snap.dropped, 0);
        // The inline route has no batcher queue, but its Queue stage
        // still carries the dispatch wait.
        for stage in ["parse", "queue", "inference", "topk", "serialize", "total"] {
            let s = snap
                .stage(stage)
                .unwrap_or_else(|| panic!("missing {stage}"));
            assert_eq!(s.count, 5, "stage {stage}");
        }

        let metrics = client.request(&Request::get("/metrics")).unwrap();
        assert_eq!(metrics.status, 200);
        let text = std::str::from_utf8(&metrics.body).unwrap();
        assert!(text.contains("# TYPE etude_stage_latency_microseconds summary"));
        assert!(
            text.contains("etude_stage_latency_microseconds{stage=\"inference\",quantile=\"0.9\"}")
        );
        assert!(text.contains("etude_requests_total 5"));
        server.shutdown();
    }

    /// On the batched and the inline server alike, the recorded
    /// component stages must tile each request's wire-to-response total
    /// within 10%: the Queue span carries the dispatch wait (plus, on
    /// the batched tier, the slot wait). The one untimed segment is the
    /// slot → handler reply hop, a thread wake-up — a scheduler stall of
    /// 13–21 ms was seen there while the rest of this crate's tests ran
    /// beside this one, over the bound against the 25–50 ms totals a
    /// 40k-item catalog gave. The catalog is sized so that a debug-build
    /// scan (a few hundred milliseconds, all of it timed) dwarfs it.
    #[test]
    fn stage_components_tile_the_total_within_ten_percent() {
        let cfg = ModelConfig::new(600_000)
            .with_max_session_len(8)
            .with_seed(11);
        let model: Arc<dyn SbrModel> = Arc::from(ModelKind::Core.build(&cfg));
        for batched in [true, false] {
            let recorder = Arc::new(Recorder::new());
            recorder.set_record_retention(true);
            let handler = if batched {
                model_routes_continuous(
                    Arc::clone(&model),
                    Device::cpu(),
                    true,
                    ContinuousConfig::default(),
                    Arc::clone(&recorder),
                    None,
                )
            } else {
                model_routes_observed(
                    Arc::clone(&model),
                    Device::cpu(),
                    true,
                    Arc::clone(&recorder),
                )
            };
            assert_tiles(handler, &recorder, batched);
        }
    }

    /// Serves 4 requests over a socket and checks each one's tiling.
    fn assert_tiles(handler: Handler, recorder: &Recorder, batched: bool) {
        let server = start(ReactorConfig::default(), handler).unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let n = 4u32;
        for i in 0..n {
            let mut req = Request::post("/predictions", format!("{},{}", i % 400, (i * 7) % 400));
            req.headers
                .insert("x-request-id".into(), format!("tile-{i}"));
            let resp = client.request(&req).unwrap();
            assert_eq!(resp.status, 200);
        }
        let records = recorder.take_records();
        let mut checked = 0;
        for i in 0..n {
            let rid = request_id_hash(&format!("tile-{i}"));
            let of = |stage: Stage| {
                records
                    .iter()
                    .find(|r| r.request_id == rid && r.stage == stage)
                    .map(|r| r.duration_nanos)
                    .unwrap_or_else(|| panic!("request {i} missing {}", stage.name()))
            };
            let total = of(Stage::Total);
            let sum = Stage::COMPONENTS.iter().map(|&s| of(s)).sum::<u64>();
            let gap = total.abs_diff(sum);
            assert!(
                gap * 10 <= total,
                "batched={batched} request {i}: components {sum}ns vs total {total}ns \
                 (gap {gap}ns > 10%)"
            );
            checked += 1;
        }
        assert_eq!(checked, n);
        server.shutdown();
    }

    /// A one-slot, one-deep continuous batcher whose slot blocks on
    /// `gate` (counting pickups in `entered`) and then answers `reply()`:
    /// the fixture that lets a test hold the server in overload for as
    /// long as it likes.
    fn gated_batcher<R: Send + 'static>(
        gate: Arc<parking_lot::Mutex<()>>,
        entered: Arc<AtomicU64>,
        reply: fn() -> R,
    ) -> Arc<ContinuousBatcher<Vec<u32>, R>> {
        Arc::new(ContinuousBatcher::spawn(
            ContinuousConfig {
                slots: 1,
                max_queue: 1,
                default_deadline: Duration::from_secs(60),
            },
            move |_session: Vec<u32>| {
                entered.fetch_add(1, Ordering::SeqCst);
                let _open = gate.lock();
                reply()
            },
        ))
    }

    fn canned_inference() -> Inferred {
        Ok((
            Recommendation {
                items: vec![1],
                scores: vec![1.0],
            },
            StageTimings {
                inference: Duration::from_micros(10),
                topk: Duration::from_micros(5),
            },
        ))
    }

    /// Drives the batched server into overload (gated batcher, full
    /// queue) and back out: shed requests get `503` + `Retry-After`,
    /// recovery restores `200`s.
    #[test]
    fn overloaded_batched_server_sheds_load_and_recovers() {
        let gate = Arc::new(parking_lot::Mutex::new(()));
        let held = gate.lock();
        let handler_gate = Arc::clone(&gate);
        let entered = Arc::new(AtomicU64::new(0));
        let entered_in_closure = Arc::clone(&entered);
        let batcher = gated_batcher(handler_gate, entered_in_closure, canned_inference);
        let probe = Arc::clone(&batcher);
        let handler = continuous_routes(
            batcher,
            100,
            Duration::from_secs(60),
            Arc::new(Recorder::new()),
            None,
        );
        let server = start(ReactorConfig::default(), handler).unwrap();
        let addr = server.addr();

        let spawn_request = move || {
            std::thread::spawn(move || {
                let mut client =
                    HttpClient::connect_with_timeout(addr, Duration::from_secs(30)).unwrap();
                client
                    .request(&Request::post("/predictions", "1"))
                    .unwrap()
                    .status
            })
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        // First in-flight request: picked up by the batcher's one slot,
        // which is now held inside the gated closure.
        let mut blocked = vec![spawn_request()];
        while entered.load(Ordering::SeqCst) == 0 {
            assert!(Instant::now() < deadline, "batcher never started");
            std::thread::yield_now();
        }
        // Second in-flight request: fills the single queue slot.
        blocked.push(spawn_request());
        while probe.queue_depth() < 1 {
            assert!(Instant::now() < deadline, "queue never filled");
            std::thread::yield_now();
        }
        // Queue full: the next request is shed immediately.
        let mut client = HttpClient::connect(addr).unwrap();
        let resp = client.request(&Request::post("/predictions", "2")).unwrap();
        assert_eq!(resp.status, 503);
        assert_eq!(
            resp.headers.get("retry-after").map(String::as_str),
            Some("1")
        );

        // Out of overload: release the gate, let the queue drain.
        drop(held);
        for b in blocked {
            assert_eq!(b.join().unwrap(), 200);
        }
        let resp = client.request(&Request::post("/predictions", "3")).unwrap();
        assert_eq!(resp.status, 200);
        server.shutdown();
    }

    #[test]
    fn popularity_fallback_is_well_formed_and_ranked() {
        let body = popularity_fallback(100, 5);
        let pairs: Vec<(u32, f32)> = body
            .split(',')
            .map(|p| {
                let (id, score) = p.split_once(':').unwrap();
                (id.parse().unwrap(), score.parse().unwrap())
            })
            .collect();
        assert_eq!(pairs.len(), 5);
        assert!(pairs.windows(2).all(|w| w[0].1 >= w[1].1), "scores sorted");
        assert!(pairs.iter().all(|&(id, _)| (id as usize) < 100));
        // Tiny catalogs clamp k instead of inventing items.
        assert_eq!(popularity_fallback(2, 21).split(',').count(), 2);
    }

    /// One table for a full queue. Tier × `x-criticality`, each behind a
    /// fresh gated one-slot, one-deep batcher: the *first* request to
    /// find the queue full is shed (503 + `retry-after`) if it opted
    /// into shedding and otherwise answered from the popularity
    /// fallback — the same bytes on both tiers for the same `k` — and
    /// once the gate opens the tier serves exactly again.
    #[test]
    fn a_full_queue_gets_one_answer_on_every_tier() {
        use crate::overload::{
            overload_routes, LadderConfig, OverloadReply, OverloadState, BROWNOUT_HEADER,
        };
        use etude_control::AdmissionConfig;

        const K: usize = 4;
        type Depth = Box<dyn Fn() -> usize>;
        let budget = Duration::from_secs(60);
        for tier in ["continuous", "overload"] {
            for crit in Criticality::ALL {
                let case = format!("{tier}/{}", crit.name());
                let gate = Arc::new(parking_lot::Mutex::new(()));
                let held = gate.lock();
                let entered = Arc::new(AtomicU64::new(0));
                let recorder = Arc::new(Recorder::new());
                let (handler, depth): (Handler, Depth) = if tier == "continuous" {
                    let batcher =
                        gated_batcher(Arc::clone(&gate), Arc::clone(&entered), canned_inference);
                    let probe = Arc::clone(&batcher);
                    let fallback = Some(popularity_fallback(100, K));
                    (
                        continuous_routes(batcher, 100, budget, Arc::clone(&recorder), fallback),
                        Box::new(move || probe.queue_depth()),
                    )
                } else {
                    let batcher =
                        gated_batcher(Arc::clone(&gate), Arc::clone(&entered), || OverloadReply {
                            ids: vec![1],
                            scores: vec![1.0],
                            inference: Duration::from_micros(10),
                        });
                    let probe = Arc::clone(&batcher);
                    let state = Arc::new(OverloadState::new(
                        Some(AdmissionConfig::default()),
                        LadderConfig::default(),
                    ));
                    (
                        overload_routes(batcher, state, 100, K, budget, Arc::clone(&recorder)),
                        Box::new(move || probe.queue_depth()),
                    )
                };

                // One request held in the slot, one filling the queue.
                let spawn_request = || {
                    let handler = Arc::clone(&handler);
                    std::thread::spawn(move || handler(&Request::post("/predictions", "1")).status)
                };
                let deadline = Instant::now() + Duration::from_secs(10);
                let mut blocked = vec![spawn_request()];
                while entered.load(Ordering::SeqCst) == 0 {
                    assert!(Instant::now() < deadline, "{case}: slot never started");
                    std::thread::yield_now();
                }
                blocked.push(spawn_request());
                while depth() < 1 {
                    assert!(Instant::now() < deadline, "{case}: queue never filled");
                    std::thread::yield_now();
                }

                let resp = handler(
                    &Request::post("/predictions", "2")
                        .with_header(Criticality::HEADER, crit.name()),
                );
                let header = |name: &str| resp.headers.get(name).map(String::as_str);
                let snap = recorder.snapshot();
                if crit == Criticality::ShedFirst {
                    assert_eq!(resp.status, 503, "{case}");
                    assert_eq!(header("retry-after"), Some("1"), "{case}");
                    assert_eq!((snap.shed, snap.degraded), (1, 0), "{case}");
                } else {
                    assert_eq!(resp.status, 200, "{case}: first full queue");
                    assert_eq!(header(DEGRADED_HEADER), Some("1"), "{case}");
                    assert_eq!(header(BROWNOUT_HEADER), Some("3"), "{case}");
                    assert_eq!((snap.shed, snap.degraded), (0, 1), "{case}");
                    assert_eq!(snap.brownout_fallback, 1, "{case}");
                    // The same bytes on both tiers.
                    let want = popularity_fallback(100, K);
                    assert_eq!(&resp.body[..], want.as_bytes(), "{case}");
                }

                // Out of overload: exact service, no degraded flag.
                drop(held);
                for b in blocked {
                    assert_eq!(b.join().unwrap(), 200, "{case}");
                }
                let resp = handler(&Request::post("/predictions", "3"));
                assert_eq!(resp.status, 200, "{case}");
                assert!(!resp.headers.contains_key(DEGRADED_HEADER), "{case}");
            }
        }
    }

    #[test]
    fn reset_tagged_responses_tear_the_connection_down() {
        let handler: Handler = Arc::new(|req: &Request| match (req.method, req.path.as_str()) {
            (Method::Get, "/reset") => Response::ok("you will never read all of this body")
                .with_header(RESET_MARKER, "1".to_string()),
            _ => Response::ok("fine"),
        });
        let server = start(ReactorConfig::default(), handler).unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let resp = client.request(&Request::get("/ok")).unwrap();
        assert_eq!(resp.status, 200);
        // The tagged response arrives truncated; the client sees a dead
        // connection, not a parsed response — and the marker never
        // reaches the wire.
        match client.request(&Request::get("/reset")) {
            Ok(resp) => panic!("expected a reset, parsed {:?}", resp.status),
            Err(ClientError::Io(_) | ClientError::Protocol(_) | ClientError::Timeout) => {}
        }
        server.shutdown();
    }

    #[test]
    fn injected_faults_hit_predictions_but_spare_probes() {
        use etude_faults::{FaultKind, FaultPlan};

        let inner: Handler = Arc::new(|req: &Request| match (req.method, req.path.as_str()) {
            (Method::Post, "/predictions") => Response::ok("1:0.5"),
            (Method::Get, "/ping") => Response::ok("pong"),
            _ => Response::error(404, "no"),
        });
        let recorder = Arc::new(Recorder::new());
        let plan = FaultPlan::seeded(21).with_window(
            Duration::ZERO,
            Duration::from_secs(3600),
            FaultKind::ErrorResponse {
                prob: 1.0,
                status: 502,
            },
        );
        let handler = inject_faults(inner, FaultInjector::new(plan), Arc::clone(&recorder));
        let resp = handler(&Request::post("/predictions", "1,2"));
        assert_eq!(resp.status, 502);
        assert_eq!(&resp.body[..], b"injected fault");
        let resp = handler(&Request::get("/ping"));
        assert_eq!(resp.status, 200, "probes bypass injection");
        assert_eq!(recorder.snapshot().faults, 1);
    }

    #[test]
    fn injected_resets_tag_the_response_with_the_marker() {
        use etude_faults::{FaultKind, FaultPlan};

        let inner: Handler = Arc::new(|_: &Request| Response::ok("1:0.5"));
        let recorder = Arc::new(Recorder::new());
        let plan = FaultPlan::seeded(4).with_window(
            Duration::ZERO,
            Duration::from_secs(3600),
            FaultKind::ConnReset { prob: 1.0 },
        );
        let handler = inject_faults(inner, FaultInjector::new(plan), Arc::clone(&recorder));
        let resp = handler(&Request::post("/predictions", "7"));
        assert_eq!(resp.status, 200);
        assert!(resp.headers.contains_key(RESET_MARKER));
    }

    #[test]
    fn concurrent_clients_are_served() {
        let server = Arc::new(start(ReactorConfig::default(), static_handler()).unwrap());
        let addr = server.addr();
        let mut handles = Vec::new();
        for _ in 0..8 {
            handles.push(std::thread::spawn(move || {
                let mut client = HttpClient::connect(addr).unwrap();
                for _ in 0..20 {
                    let resp = client.request(&Request::get("/static")).unwrap();
                    assert_eq!(resp.status, 200);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(server.requests_served(), 160);
    }
}
