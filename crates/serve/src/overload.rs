//! Criticality-aware overload control: admission and the brownout
//! ladder.
//!
//! PR 8's continuous batcher made overload *safe* (blown budgets shed
//! before compute); this module makes it *graceful*. Instead of the
//! binary serve-exactly-or-503, a retrieval backend under pressure
//! answers from the popularity fallback once the measured queue delay
//! would burn most of a request's deadline budget:
//!
//! | level | name     | what is served                                |
//! |-------|----------|-----------------------------------------------|
//! | 0     | exact    | full-precision exhaustive scan, full k        |
//! | 3     | fallback | popularity fallback, no inference slot used   |
//!
//! Those are the two outcomes that are measured to cost differently.
//! Wire values 1 and 2 stay unassigned: an int8 rung and a reduced-k
//! rung would sit there, but measured the int8 scan is 1.3–1.9x
//! *slower* than the f32 scan at the paper's d ≥ 32 and k = 5 costs
//! what k = 21 costs, so neither would shed any load (DESIGN.md §16 has
//! the table).
//!
//! Every response is stamped with [`BROWNOUT_HEADER`] and fallbacks are
//! counted in `/stats` (`brownout_fallback`). The ladder preserves one
//! invariant above all: **a browned-out 200 always beats a 503 for
//! `normal` and `critical` traffic** — those classes are only ever
//! refused outright when their budget is already dead (serving a late
//! fallback would still be late). That rule is one function,
//! `rustserver::shed_or_fallback`, shared with the model tier and the
//! router.
//!
//! In front of the ladder sits an [`AdmissionController`]: an AIMD
//! concurrency limiter fed by measured service latency. Its refusals
//! are criticality-ordered — `shed-first` traffic is turned away (HTTP
//! 429 + `retry-after`) while `normal`/`critical` get the fallback, so
//! under a flash crowd the refusal mass lands almost entirely on the
//! class that opted into being shed.
//!
//! Deadline semantics are inherited from [`ContinuousBatcher`]: budgets
//! are anchored at wire-parse time and re-checked at dequeue, so *no
//! inference starts past its budget*.

use crate::contbatch::{AdmitError, Admitted, ContinuousBatcher, ContinuousConfig};
use crate::rustserver::{
    popularity_fallback, prediction_routes, shed_or_fallback, Handler, Refused, Served, EXPIRED,
    OVERLOADED,
};
use etude_control::{AdmissionConfig, AdmissionController, Criticality};
use etude_models::retrieval::{encode_session_query, CatalogShard, MipsIndex};
use etude_obs::{Metric, Recorder};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Response header naming the brownout level a request was served at
/// (`0` or `3`).
pub const BROWNOUT_HEADER: &str = "x-brownout-level";

/// One rung of the brownout ladder. Ordering is degradation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BrownoutLevel {
    /// Full-precision scan, full k.
    Exact,
    /// Popularity fallback; consumes no inference slot.
    Fallback,
}

impl BrownoutLevel {
    /// Wire value for [`BROWNOUT_HEADER`]; 1 and 2 are unassigned.
    pub fn as_u8(&self) -> u8 {
        match self {
            BrownoutLevel::Exact => 0,
            BrownoutLevel::Fallback => 3,
        }
    }
}

/// Brownout-ladder tuning: past which burn fraction of the deadline
/// budget a request is answered from the fallback
/// ([`LadderConfig::level_at`] — the overload tier burns predicted queue
/// delay, the router the share of the budget already spent).
#[derive(Debug, Clone)]
pub struct LadderConfig {
    /// Master switch; off = always exact (admission may still refuse).
    pub enabled: bool,
    /// Burn fraction past which only the fallback is worth serving.
    pub fallback_at: f64,
}

impl Default for LadderConfig {
    fn default() -> Self {
        LadderConfig {
            enabled: true,
            fallback_at: 0.75,
        }
    }
}

impl LadderConfig {
    /// The rung a burn fraction lands on; always exact when the ladder
    /// is disabled.
    pub fn level_at(&self, burn: f64) -> BrownoutLevel {
        if self.enabled && burn >= self.fallback_at {
            BrownoutLevel::Fallback
        } else {
            BrownoutLevel::Exact
        }
    }
}

/// Configuration of an overload-controlled retrieval backend.
#[derive(Debug, Clone)]
pub struct OverloadConfig {
    /// Continuous-batcher shape (slots, queue bound, default budget).
    pub batch: ContinuousConfig,
    /// Top-k served, by the scan and by the fallback alike.
    pub k: usize,
    /// Admission control; `None` disables the limiter entirely.
    pub admission: Option<AdmissionConfig>,
    /// The brownout ladder.
    pub ladder: LadderConfig,
    /// Artificial per-request service-time floor. Zero in production;
    /// benches and chaos tests use it to pin a known capacity so "5×
    /// capacity" is a statement, not a guess.
    pub service_floor: Duration,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            batch: ContinuousConfig::default(),
            k: 21,
            admission: Some(AdmissionConfig::default()),
            ladder: LadderConfig::default(),
            service_floor: Duration::ZERO,
        }
    }
}

/// Shared overload state: the admission controller plus the measured
/// queue-delay EWMA that drives the ladder.
pub struct OverloadState {
    admission: Option<AdmissionController>,
    ladder: LadderConfig,
    /// EWMA of the wait a request suffered before compute (dispatch +
    /// batcher queue), in microseconds. `new = old·7/8 + sample/8`.
    ewma_wait_us: AtomicU64,
    /// Construction time; timestamps admission-journal entries.
    epoch: Instant,
}

impl OverloadState {
    pub(crate) fn new(admission: Option<AdmissionConfig>, ladder: LadderConfig) -> OverloadState {
        OverloadState {
            admission: admission.map(AdmissionController::new),
            ladder,
            ewma_wait_us: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    fn observe_wait(&self, wait: Duration) {
        let sample = wait.as_micros().min(u64::MAX as u128) as u64;
        let old = self.ewma_wait_us.load(Ordering::Relaxed);
        self.ewma_wait_us
            .store(old - old / 8 + sample / 8, Ordering::Relaxed);
    }

    /// Picks the rung for a request whose budget has `remaining` left:
    /// the predicted queue delay (the EWMA) as a fraction of the
    /// remaining budget, against the configured thresholds.
    pub fn level_for(&self, remaining: Duration) -> BrownoutLevel {
        let remaining_us = remaining.as_micros().max(1) as f64;
        self.ladder
            .level_at(self.ewma_wait_us.load(Ordering::Relaxed) as f64 / remaining_us)
    }

    /// The admission controller, when one is installed.
    pub fn admission(&self) -> Option<&AdmissionController> {
        self.admission.as_ref()
    }
}

/// What a ladder worker computes per request.
pub(crate) struct OverloadReply {
    pub(crate) ids: Vec<u32>,
    pub(crate) scores: Vec<f32>,
    pub(crate) inference: Duration,
}

/// Builds an overload-controlled retrieval backend over a `[catalog ×
/// dim]` embedding table: admission → ladder → continuous batcher →
/// exact scan. Returns the route table and the shared
/// [`OverloadState`] so callers (benches, chaos tests) can read the
/// learned limit and drive assertions.
pub fn overload_routes_with_state(
    table: Vec<f32>,
    catalog_size: usize,
    dim: usize,
    query_seed: u64,
    config: OverloadConfig,
    recorder: Arc<Recorder>,
) -> (Handler, Arc<OverloadState>) {
    assert_eq!(table.len(), catalog_size * dim, "table shape mismatch");
    let state = Arc::new(OverloadState::new(
        config.admission.clone(),
        config.ladder.clone(),
    ));
    let k = config.k.max(1);
    let shard = CatalogShard::new(table, dim, 0);
    let floor = config.service_floor;
    let batcher: Arc<ContinuousBatcher<Vec<u32>, OverloadReply>> = Arc::new(
        ContinuousBatcher::spawn(config.batch.clone(), move |items: Vec<u32>| {
            let t = Instant::now();
            let query = encode_session_query(&items, dim, query_seed);
            let (ids, scores) = shard.search(&query, k);
            std::thread::sleep(floor.saturating_sub(t.elapsed()));
            OverloadReply {
                ids,
                scores,
                inference: t.elapsed(),
            }
        }),
    );
    let handler = overload_routes(
        batcher,
        Arc::clone(&state),
        catalog_size,
        k,
        config.batch.default_deadline,
        recorder,
    );
    (handler, state)
}

/// The route table around the tier's batcher. Factored out of
/// [`overload_routes_with_state`] so tests can drive a batcher whose
/// handler they control (gated, to hold the queue full).
pub(crate) fn overload_routes(
    batcher: Arc<ContinuousBatcher<Vec<u32>, OverloadReply>>,
    route_state: Arc<OverloadState>,
    catalog_size: usize,
    k: usize,
    default_deadline: Duration,
    recorder: Arc<Recorder>,
) -> Handler {
    // The fallback rung is PR 3's popularity fallback, shared with the
    // model-serving tier.
    let fallback_body = popularity_fallback(catalog_size, k);
    prediction_routes(
        recorder,
        catalog_size,
        default_deadline,
        move |ctx, items| {
            let crit = ctx.criticality();
            let admission = route_state.admission();
            // No capacity, budget alive: the one rule every tier shares.
            let no_capacity = || Err(shed_or_fallback(crit, OVERLOADED, &fallback_body));
            ctx.recorder
                .set(Metric::QueueDepth, batcher.queue_depth() as u64);
            if ctx.deadline.expired() {
                // Dead on arrival: a fallback would still be late.
                if let Some(a) = admission {
                    a.on_shed(route_state.now());
                }
                return Err(Refused::Shed(EXPIRED));
            }
            // ── Admission ───────────────────────────────────────────
            if let Some(a) = admission {
                ctx.recorder
                    .set(Metric::AdmissionLimitMilli, a.limit_milli());
                if !a.try_acquire(crit) {
                    return match crit {
                        // The class that opted into shedding is turned
                        // away outright — 429, not 503: refusal happened
                        // *before* queueing and is retryable elsewhere.
                        Criticality::ShedFirst => Err(Refused::OverLimit),
                        _ => no_capacity(),
                    };
                }
            }
            let admission_t0 = Instant::now();
            // ── Ladder ──────────────────────────────────────────────
            if route_state.level_for(ctx.deadline.remaining()) == BrownoutLevel::Fallback {
                // The ladder says queueing would burn the budget: serve
                // the fallback inline — to every class, this request was
                // admitted — and return the token unused (no
                // service-latency signal to feed back).
                if let Some(a) = admission {
                    a.abandon();
                }
                return Err(Refused::Fallback(fallback_body.clone()));
            }
            match batcher.try_call(items, ctx.deadline) {
                Ok(Admitted {
                    result: reply,
                    queue_wait,
                    handback,
                }) => {
                    if let Some(a) = admission {
                        a.release(route_state.now(), admission_t0.elapsed());
                        ctx.recorder
                            .set(Metric::AdmissionLimitMilli, a.limit_milli());
                    }
                    route_state.observe_wait(ctx.dispatch_wait + queue_wait);
                    Ok(Served {
                        queue_wait,
                        handback,
                        on_ladder: true,
                        ..Served::new(reply.ids, reply.scores, reply.inference)
                    })
                }
                Err(AdmitError::Expired) => {
                    // The budget died in the queue; the wait was at
                    // least the remaining budget — feed that back so
                    // the ladder reacts even while nothing is being
                    // served.
                    if let Some(a) = admission {
                        a.abandon();
                        a.on_shed(route_state.now());
                    }
                    route_state.observe_wait(ctx.deadline.remaining().max(ctx.budget));
                    Err(Refused::Shed(EXPIRED))
                }
                Err(AdmitError::Overloaded) => {
                    if let Some(a) = admission {
                        a.abandon();
                        a.on_shed(route_state.now());
                    }
                    no_capacity()
                }
                Err(AdmitError::Closed) => {
                    if let Some(a) = admission {
                        a.abandon();
                    }
                    Err(Refused::BatcherUnavailable)
                }
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Request;

    fn table(c: usize, d: usize) -> Vec<f32> {
        (0..c * d)
            .map(|i| ((i * 37 + 11) % 97) as f32 / 97.0)
            .collect()
    }

    fn backend(config: OverloadConfig) -> (Handler, Arc<OverloadState>) {
        overload_routes_with_state(table(64, 8), 64, 8, 7, config, Arc::new(Recorder::new()))
    }

    #[test]
    fn exact_level_serves_full_k_with_header() {
        let (h, _) = backend(OverloadConfig {
            k: 5,
            ..OverloadConfig::default()
        });
        let resp = h(&Request::post("/predictions", "1,2,3"));
        assert_eq!(resp.status, 200);
        assert_eq!(
            resp.headers.get(BROWNOUT_HEADER).map(String::as_str),
            Some("0")
        );
        let body = String::from_utf8(resp.body.to_vec()).unwrap();
        assert_eq!(body.split(',').count(), 5, "full k items served: {body}");
    }

    #[test]
    fn ladder_levels_order_and_round_trip() {
        assert!(BrownoutLevel::Exact < BrownoutLevel::Fallback);
        // Frozen wire: deployed clients read 0 and 3.
        assert_eq!(BrownoutLevel::Exact.as_u8(), 0);
        assert_eq!(BrownoutLevel::Fallback.as_u8(), 3);
    }

    #[test]
    fn burn_fraction_picks_the_rung() {
        let state = OverloadState::new(None, LadderConfig::default());
        // EWMA 0 → exact regardless of budget.
        assert_eq!(
            state.level_for(Duration::from_millis(100)),
            BrownoutLevel::Exact
        );
        // Pump the EWMA to ~40 ms of measured wait.
        for _ in 0..200 {
            state.observe_wait(Duration::from_millis(40));
        }
        assert_eq!(
            state.level_for(Duration::from_millis(70)),
            BrownoutLevel::Exact
        );
        assert_eq!(
            state.level_for(Duration::from_millis(20)),
            BrownoutLevel::Fallback
        );
        // Ladder off: always exact.
        let off = OverloadState::new(
            None,
            LadderConfig {
                enabled: false,
                ..LadderConfig::default()
            },
        );
        for _ in 0..200 {
            off.observe_wait(Duration::from_millis(40));
        }
        assert_eq!(
            off.level_for(Duration::from_millis(20)),
            BrownoutLevel::Exact
        );
    }

    #[test]
    fn dead_on_arrival_budgets_get_503_even_for_critical() {
        let (h, _) = backend(OverloadConfig::default());
        let resp = h(&Request::post("/predictions", "1,2")
            .with_header(crate::contbatch::DEADLINE_HEADER, "0")
            .with_header(Criticality::HEADER, "critical"));
        assert_eq!(resp.status, 503);
    }

    #[test]
    fn admission_refusal_is_criticality_ordered() {
        // A zero-capacity admission window: everything is over-limit.
        let (h, state) = backend(OverloadConfig {
            admission: Some(AdmissionConfig {
                initial: 0.0,
                min_limit: 0.0,
                ..AdmissionConfig::default()
            }),
            ..OverloadConfig::default()
        });
        let shed =
            h(&Request::post("/predictions", "1").with_header(Criticality::HEADER, "shed-first"));
        assert_eq!(shed.status, 429, "shed-first is refused outright");
        assert!(shed.headers.contains_key("retry-after"));
        let normal = h(&Request::post("/predictions", "1"));
        assert_eq!(normal.status, 200, "normal gets the browned-out 200");
        assert_eq!(
            normal.headers.get(BROWNOUT_HEADER).map(String::as_str),
            Some("3")
        );
        let critical =
            h(&Request::post("/predictions", "1").with_header(Criticality::HEADER, "critical"));
        assert_eq!(critical.status, 200);
        assert_eq!(
            critical.headers.get(BROWNOUT_HEADER).map(String::as_str),
            Some("3")
        );
        // Limiter-level refusals hit all three classes; only the
        // shed-first one surfaced as a client-visible 429.
        assert_eq!(
            state.admission().unwrap().refused(Criticality::ShedFirst),
            1
        );
        let refused: u64 = Criticality::ALL
            .iter()
            .map(|&c| state.admission().unwrap().refused(c))
            .sum();
        assert_eq!(refused, 3);
    }
}
