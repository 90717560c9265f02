//! Algorithm 2 under virtual time.
//!
//! The simulated driver executes the paper's load-generation loop
//! faithfully — tick loop, `TIMEPROP_RAMPUP`, even spreading, 1 ms
//! backpressure waits, session-order preservation — against any
//! [`SimService`] (the Rust server model, the TorchServe model, or a
//! whole simulated cluster deployment).

use crate::rampup::timeprop_rampup;
use crate::sessions::{ReplayRequest, SessionReplayer};
use etude_faults::{FaultInjector, RetryPolicy};
use etude_metrics::hdr::Histogram;
use etude_metrics::{LatencySummary, TimeSeries};
use etude_obs::{SloReport, TickAttribution};
use etude_serve::simserver::{RespondFn, SimService};
use etude_simnet::link::{FaultyLink, Link};
use etude_simnet::{shared, Shared, Sim, SimTime};
use etude_workload::SessionLog;
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::Duration;

/// How long the simulated client waits for a response before writing a
/// request off as failed (matches the real driver's 2 s socket timeout).
/// A message lost to a drop/partition window costs exactly this.
const SIM_CLIENT_TIMEOUT: Duration = Duration::from_secs(2);

/// Load-generation parameters (Algorithm 2's `r` and `d`).
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Target throughput `r` in requests/second.
    pub target_rps: u64,
    /// Ramp-up duration `d`: the rate reaches `r` at this point.
    pub ramp: Duration,
    /// Total experiment duration (>= ramp; the tail runs at full rate).
    pub duration: Duration,
    /// Backpressure handling (Algorithm 2 lines 8-12). Disabling it
    /// yields a naive open-loop generator — the ablation in
    /// `ablation_backpressure`.
    pub backpressure: bool,
    /// Seed for network jitter.
    pub seed: u64,
}

impl LoadConfig {
    /// The paper's ramp-up (the rate climbs linearly to `target_rps`
    /// over the whole run), compressed from its ten minutes to
    /// `seconds` for fast experiment iterations.
    pub fn scaled_rampup(target_rps: u64, seconds: u64) -> LoadConfig {
        LoadConfig {
            target_rps,
            ramp: Duration::from_secs(seconds),
            duration: Duration::from_secs(seconds),
            backpressure: true,
            seed: 7,
        }
    }
}

/// Outcome of a simulated load test.
#[derive(Debug, Clone)]
pub struct LoadTestResult {
    /// Per-tick measurements.
    pub series: TimeSeries,
    /// Requests sent.
    pub sent: u64,
    /// Successful responses.
    pub ok: u64,
    /// Failed responses.
    pub errors: u64,
    /// Send slots skipped by backpressure (never sent).
    pub suppressed: u64,
    /// Retries spent by the resilient client (0 when retries are off).
    /// In virtual-time runs this counts the deterministic-backoff
    /// re-attempts of [`SimLoadGen::run_resilient`].
    pub retries: u64,
    /// Responses served from the server's degraded fallback path.
    pub degraded: u64,
    /// The server's own stage-latency breakdown, scraped from `/stats`
    /// at end of run. `None` when the server exposes no stats endpoint
    /// (or in virtual-time runs, which have no server process).
    pub server_stages: Option<etude_obs::StatsSnapshot>,
    /// Coordinated-omission-corrected latency: each success measured
    /// from its *intended* send time (the slot's position on the ideal
    /// even-spread schedule), not from when the generator actually got
    /// around to sending it. Under backpressure the two diverge — the
    /// per-tick series understates user-visible latency because delayed
    /// sends hide queueing time (see DESIGN.md §10 for the caveat).
    pub corrected: Histogram,
    /// Per-tick latency attribution (compute vs queue vs network, plus
    /// fault-injected errors) — the input the SLO monitor uses to name
    /// a violation's cause. Empty in real-time runs, which cannot see
    /// inside the server per request.
    pub attribution: Vec<TickAttribution>,
    /// SLO burn-rate evaluation, attached by the capacity runner when a
    /// latency target is in force. `None` for plain load tests.
    pub slo: Option<SloReport>,
}

impl LoadTestResult {
    /// Summary over the whole run.
    pub fn summary(&self) -> LatencySummary {
        self.series.summary()
    }

    /// Summary over the last `n` ticks (steady state at the target rate).
    pub fn tail_summary(&self, n: usize) -> LatencySummary {
        self.series.tail_summary(n)
    }
}

struct GenState {
    replayer: SessionReplayer,
    ready: VecDeque<ReplayRequest>,
    pending: u64,
    sent: u64,
    ok: u64,
    errors: u64,
    suppressed: u64,
    series: TimeSeries,
    corrected: Histogram,
    attribution: Vec<TickAttribution>,
    link: FaultyLink,
    config: LoadConfig,
    start: SimTime,
    /// Correlation ids for fault draws: one per message, monotonically
    /// assigned so a seeded fault schedule replays identically. Each
    /// retry attempt is a fresh message with fresh fault draws.
    next_msg_id: u64,
    /// Client-side retry policy; `None` reproduces the plain driver
    /// (every failure is final).
    retry: Option<RetryPolicy>,
    /// Re-attempts spent across the run.
    retries: u64,
}

impl GenState {
    /// Tick index relative to the load test's start.
    fn tick_of(&self, now: SimTime) -> u64 {
        now.since(self.start).as_secs()
    }

    /// The attribution slot for `tick`, growing the (tick-indexed) table
    /// on demand — completions can land past the configured duration
    /// (a timeout fires up to 2 s after the last send).
    fn attr_mut(&mut self, tick: u64) -> &mut TickAttribution {
        let idx = tick as usize;
        while self.attribution.len() <= idx {
            let t = self.attribution.len() as u64;
            self.attribution.push(TickAttribution {
                tick: t,
                ..TickAttribution::default()
            });
        }
        &mut self.attribution[idx]
    }
}

impl GenState {
    fn next_request(&mut self) -> Option<ReplayRequest> {
        self.ready
            .pop_front()
            .or_else(|| self.replayer.next_request())
    }
}

/// Handle to a scheduled load test; collect after the simulation drains.
pub struct LoadGenHandle {
    state: Shared<GenState>,
}

impl LoadGenHandle {
    /// Extracts the result. Call only after `sim.run_to_completion()`.
    pub fn collect(self) -> LoadTestResult {
        let state = Rc::try_unwrap(self.state)
            .unwrap_or_else(|_| panic!("pending events kept state alive"))
            .into_inner();
        LoadTestResult {
            series: state.series,
            sent: state.sent,
            ok: state.ok,
            errors: state.errors,
            suppressed: state.suppressed,
            retries: state.retries,
            degraded: 0,
            server_stages: None,
            corrected: state.corrected,
            attribution: state.attribution,
            slo: None,
        }
    }
}

/// The virtual-time load generator.
pub struct SimLoadGen;

impl SimLoadGen {
    /// Schedules Algorithm 2 into an existing simulation, starting at
    /// `start` (e.g. after a deployment's readiness probes pass).
    pub fn schedule(
        sim: &mut Sim,
        service: Rc<dyn SimService>,
        log: &SessionLog,
        config: LoadConfig,
        start: SimTime,
    ) -> LoadGenHandle {
        Self::schedule_with_faults(sim, service, log, config, start, FaultInjector::calm())
    }

    /// [`SimLoadGen::schedule`] with the client-server network under a
    /// fault injector: latency-spike windows stretch deliveries, drop and
    /// partition windows lose messages (the client times out after
    /// 2 s of virtual time and counts an error). Clone the injector
    /// before passing it to keep a handle on its shared fault counters.
    pub fn schedule_with_faults(
        sim: &mut Sim,
        service: Rc<dyn SimService>,
        log: &SessionLog,
        config: LoadConfig,
        start: SimTime,
        injector: FaultInjector,
    ) -> LoadGenHandle {
        Self::schedule_inner(sim, service, log, config, start, injector, None)
    }

    /// [`SimLoadGen::schedule_with_faults`] with a client-side retry
    /// policy: a failed request (lost message, server error) is
    /// re-attempted after a deterministic exponential backoff
    /// (`base * 2^attempt`, capped) until `max_retries` is spent, and
    /// only the final failure counts as an error. Each re-attempt is a
    /// fresh message with fresh fault draws, so a retry can escape a
    /// drop window that ate the original.
    pub fn schedule_resilient(
        sim: &mut Sim,
        service: Rc<dyn SimService>,
        log: &SessionLog,
        config: LoadConfig,
        start: SimTime,
        injector: FaultInjector,
        policy: RetryPolicy,
    ) -> LoadGenHandle {
        Self::schedule_inner(sim, service, log, config, start, injector, Some(policy))
    }

    #[allow(clippy::too_many_arguments)]
    fn schedule_inner(
        sim: &mut Sim,
        service: Rc<dyn SimService>,
        log: &SessionLog,
        config: LoadConfig,
        start: SimTime,
        injector: FaultInjector,
        retry: Option<RetryPolicy>,
    ) -> LoadGenHandle {
        let state = shared(GenState {
            replayer: SessionReplayer::new(log),
            ready: VecDeque::new(),
            pending: 0,
            sent: 0,
            ok: 0,
            errors: 0,
            suppressed: 0,
            series: TimeSeries::new(),
            corrected: Histogram::new(),
            attribution: Vec::new(),
            link: FaultyLink::new(Link::cluster(config.seed), injector),
            config: config.clone(),
            start,
            next_msg_id: 0,
            retry,
            retries: 0,
        });

        // Schedule the tick loop (Algorithm 2, line 3).
        let ticks = config.duration.as_secs();
        for t in 0..ticks {
            let state = Rc::clone(&state);
            let service = Rc::clone(&service);
            sim.schedule_at(start.after(Duration::from_secs(t)), move |s| {
                let rate = {
                    let st = state.borrow();
                    timeprop_rampup(st.config.target_rps, st.config.ramp, Duration::from_secs(t))
                };
                let tick_end = {
                    let st = state.borrow();
                    st.start.after(Duration::from_secs(t + 1))
                };
                send_slot(s, state, service, 0, rate, tick_end);
            });
        }
        LoadGenHandle { state }
    }

    /// Runs Algorithm 2 against a service, replaying `log`, in a fresh
    /// simulation.
    pub fn run(
        service: Rc<dyn SimService>,
        log: &SessionLog,
        config: LoadConfig,
    ) -> LoadTestResult {
        let mut sim = Sim::new();
        let handle = Self::schedule(&mut sim, service, log, config, SimTime::ZERO);
        sim.run_to_completion();
        handle.collect()
    }

    /// [`SimLoadGen::run`] with a fault injector on the network path
    /// and client-side retries, in a fresh simulation.
    pub fn run_resilient(
        service: Rc<dyn SimService>,
        log: &SessionLog,
        config: LoadConfig,
        injector: FaultInjector,
        policy: RetryPolicy,
    ) -> LoadTestResult {
        let mut sim = Sim::new();
        let handle = Self::schedule_resilient(
            &mut sim,
            service,
            log,
            config,
            SimTime::ZERO,
            injector,
            policy,
        );
        sim.run_to_completion();
        handle.collect()
    }
}

/// One send slot of the request-generation loop (Algorithm 2 lines 6-16).
fn send_slot(
    sim: &mut Sim,
    state: Shared<GenState>,
    service: Rc<dyn SimService>,
    i: u64,
    rate: u64,
    tick_end: SimTime,
) {
    if i >= rate {
        return; // tick complete; the next tick has its own event
    }
    if sim.now() >= tick_end {
        // Slots the tick ran out of time for count as suppressed, exactly
        // like the backpressure path below and the real-time driver.
        state.borrow_mut().suppressed += rate - i;
        return;
    }
    let backpressured = {
        let st = state.borrow();
        st.config.backpressure && st.pending >= rate
    };
    if backpressured {
        // Line 9-12: wait one millisecond, unless the tick is over.
        let retry_at = sim.now().after(Duration::from_millis(1));
        if retry_at >= tick_end {
            let mut st = state.borrow_mut();
            st.suppressed += rate - i;
            return;
        }
        let state2 = Rc::clone(&state);
        let service2 = Rc::clone(&service);
        sim.schedule_at(retry_at, move |s| {
            send_slot(s, state2, service2, i, rate, tick_end);
        });
        return;
    }

    // The slot's *intended* send time on the ideal even-spread schedule:
    // slot i of a rate-r tick belongs at tick_start + i/r. The actual
    // dispatch may run late (backpressure waits, earlier slow slots);
    // measuring from the intended time is the coordinated-omission
    // correction.
    let tick_start = tick_end
        .as_duration()
        .saturating_sub(Duration::from_secs(1));
    let intended =
        SimTime::ZERO.after(tick_start + Duration::from_secs_f64(i as f64 / rate as f64));
    dispatch_one(sim, &state, &service, intended);

    // Line 16: spread remaining requests evenly across the tick.
    let remaining = tick_end.since(sim.now());
    let slots_left = rate - i;
    let gap = Duration::from_secs_f64(remaining.as_secs_f64() / slots_left as f64);
    let state2 = Rc::clone(&state);
    let service2 = Rc::clone(&service);
    sim.schedule_in(gap, move |s| {
        send_slot(s, state2, service2, i + 1, rate, tick_end);
    });
}

/// Sends a single request (Algorithm 2 line 14: SCHEDULE_REQUEST_ASYNC).
///
/// `intended` is the slot's position on the ideal send schedule: the
/// corrected latency histogram measures completions from it, so delays
/// the generator itself introduced (backpressure, late slots) count
/// against the service rather than silently vanishing.
fn dispatch_one(
    sim: &mut Sim,
    state: &Shared<GenState>,
    service: &Rc<dyn SimService>,
    intended: SimTime,
) {
    let session = {
        let mut st = state.borrow_mut();
        let Some(req) = st.next_request() else {
            return; // click log drained
        };
        st.pending += 1;
        st.sent += 1;
        let tick = st.tick_of(sim.now());
        st.series.record_sent(tick);
        req.session
    };
    attempt_one(sim, state, service, intended, sim.now(), session, 0);
}

/// One attempt of one request. `first_sent` is the original dispatch
/// time: latency is always measured from it, so a retried request pays
/// for every failed attempt before it (coordinated-omission honest).
fn attempt_one(
    sim: &mut Sim,
    state: &Shared<GenState>,
    service: &Rc<dyn SimService>,
    intended: SimTime,
    first_sent: SimTime,
    session: u64,
    attempt: u32,
) {
    let sent_at = sim.now();
    let legs = {
        let mut st = state.borrow_mut();
        // Both legs' fault draws are keyed on the message id, so a
        // seeded schedule replays bit-identically; the response leg is
        // only drawn when the request leg survives (one drop per loss).
        let id = st.next_msg_id;
        st.next_msg_id += 1;
        let out = st.link.sample(sent_at, 2 * id);
        let back = match out {
            Some(_) => st.link.sample(sent_at, 2 * id + 1),
            None => None,
        };
        out.map(|o| (o, back))
    };
    let Some((out_delay, back_delay)) = legs else {
        // Request leg dropped: the server never hears it, the client
        // holds its pending slot until the timeout, then retries (or
        // counts an error once the retry budget is spent).
        resolve_failure(
            sim,
            state,
            service,
            intended,
            first_sent,
            session,
            attempt,
            sent_at.after(SIM_CLIENT_TIMEOUT),
            true,
        );
        return;
    };
    let state2 = Rc::clone(state);
    let service2 = Rc::clone(service);
    // Request crosses the pod network, is served, and the response
    // crosses back; only then does the pending counter decrease.
    sim.schedule_in(out_delay, move |s| {
        let respond_service = Rc::clone(&service2);
        let respond: RespondFn = Box::new(move |s2, result| {
            let Some(back_delay) = back_delay else {
                // Response leg dropped: the server did the work, but the
                // client never sees the answer and times out.
                resolve_failure(
                    s2,
                    &state2,
                    &service2,
                    intended,
                    first_sent,
                    session,
                    attempt,
                    sent_at.after(SIM_CLIENT_TIMEOUT),
                    true,
                );
                return;
            };
            let state3 = Rc::clone(&state2);
            let service3 = Rc::clone(&service2);
            s2.schedule_in(back_delay, move |s3| {
                match result {
                    Ok(resp) => {
                        let mut st = state3.borrow_mut();
                        st.pending = st.pending.saturating_sub(1);
                        let tick = st.tick_of(s3.now());
                        st.ok += 1;
                        let total = s3.now().since(first_sent);
                        st.series.record_ok(tick, total);
                        st.corrected
                            .record(s3.now().since(intended).as_micros() as u64);
                        // Attribute the round trip: wire time is the two
                        // sampled legs, compute is what the server
                        // reports, everything left over waited in a
                        // queue somewhere (dispatch, batcher, worker).
                        let network = out_delay + back_delay;
                        let queue = total.saturating_sub(resp.inference + network);
                        let attr = st.attr_mut(tick);
                        attr.compute_us += resp.inference.as_micros() as u64;
                        attr.network_us += network.as_micros() as u64;
                        attr.queue_us += queue.as_micros() as u64;
                        if let Some(released) = st.replayer.acknowledge(session) {
                            st.ready.push_back(released);
                        }
                    }
                    Err(_) => {
                        // The server answered with an error: no timeout
                        // wait, the failure resolves now.
                        let now = s3.now();
                        resolve_failure(
                            s3, &state3, &service3, intended, first_sent, session, attempt, now,
                            false,
                        );
                    }
                }
            });
        });
        respond_service.submit(s, respond);
    });
}

/// Resolves a failed attempt at virtual time `at`: re-attempt after a
/// deterministic exponential backoff while the retry budget lasts,
/// otherwise record the final error and release the session. The
/// pending slot stays occupied throughout (so backpressure sees the
/// stuck request, as it would in real time). `fault` marks losses the
/// network injector caused, for the SLO monitor's attribution.
#[allow(clippy::too_many_arguments)]
fn resolve_failure(
    sim: &mut Sim,
    state: &Shared<GenState>,
    service: &Rc<dyn SimService>,
    intended: SimTime,
    first_sent: SimTime,
    session: u64,
    attempt: u32,
    at: SimTime,
    fault: bool,
) {
    let wait = at.max(sim.now()).since(sim.now());
    let state = Rc::clone(state);
    let service = Rc::clone(service);
    sim.schedule_in(wait, move |s| {
        let backoff = {
            let mut st = state.borrow_mut();
            match &st.retry {
                Some(p) if attempt < p.max_retries => {
                    let delay = p.base.saturating_mul(1 << attempt.min(16)).min(p.cap);
                    st.retries += 1;
                    Some(delay)
                }
                _ => None,
            }
        };
        match backoff {
            Some(delay) => {
                let state2 = Rc::clone(&state);
                let service2 = Rc::clone(&service);
                s.schedule_in(delay, move |s2| {
                    attempt_one(
                        s2,
                        &state2,
                        &service2,
                        intended,
                        first_sent,
                        session,
                        attempt + 1,
                    );
                });
            }
            None => {
                let mut st = state.borrow_mut();
                st.pending = st.pending.saturating_sub(1);
                let tick = st.tick_of(s.now());
                st.errors += 1;
                st.series.record_error(tick);
                if fault {
                    // Lost messages are the network fault injector's
                    // doing — count them so the SLO monitor can
                    // attribute a burn to faults.
                    st.attr_mut(tick).fault_errors += 1;
                }
                if let Some(released) = st.replayer.acknowledge(session) {
                    st.ready.push_back(released);
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use etude_serve::simserver::{RustServerConfig, SimRustServer, SimTorchServe};
    use etude_serve::{ServiceProfile, TorchServeProfile};
    use etude_tensor::Device;
    use etude_workload::{SyntheticWorkload, WorkloadConfig};

    fn workload(clicks: u64) -> SessionLog {
        let cfg = WorkloadConfig {
            catalog_size: 10_000,
            alpha_length: 2.0,
            alpha_clicks: 1.8,
            max_session_len: 50,
            seed: 5,
        };
        SyntheticWorkload::new(cfg).generate(clicks)
    }

    #[test]
    fn rust_server_sustains_ramp_without_errors() {
        let profile = ServiceProfile::static_response(&Device::cpu());
        let server = SimRustServer::new(profile, RustServerConfig::cpu(4));
        let result = SimLoadGen::run(
            server,
            &workload(100_000),
            LoadConfig::scaled_rampup(500, 20),
        );
        assert_eq!(result.errors, 0);
        assert!(result.sent > 3_000, "sent {}", result.sent);
        let tail = result.tail_summary(5);
        assert!(tail.p90 < Duration::from_millis(5), "{:?}", tail.p90);
        // The final tick approaches the target rate.
        let rows = result.series.rows();
        let last_sent = rows[rows.len() - 2].1;
        assert!(last_sent >= 400, "last tick sent only {last_sent}");
    }

    #[test]
    fn torchserve_produces_errors_under_ramp() {
        // Figure 2: TorchServe sheds load through its internal timeout —
        // lots of HTTP errors, survivors served slowly.
        let service = ServiceProfile::static_response(&Device::cpu());
        let server = SimTorchServe::new(TorchServeProfile::default(), service);
        let result = SimLoadGen::run(
            server,
            &workload(100_000),
            LoadConfig::scaled_rampup(1_000, 20),
        );
        assert!(result.errors > 100, "errors {}", result.errors);
        let tail = result.tail_summary(5);
        assert!(
            tail.p90 > Duration::from_millis(20),
            "survivors should be slow: {:?}",
            tail.p90
        );
    }

    /// An overloaded Rust server with a heavy CPU model: ~57 ms service
    /// time, no internal timeout — pending requests pile up, which is the
    /// scenario backpressure exists for.
    fn slow_cpu_server() -> Rc<SimRustServer> {
        use etude_models::{ModelConfig, ModelKind};
        let profile = ServiceProfile::build(
            ModelKind::Gru4Rec,
            &ModelConfig::new(1_000_000).without_weights(),
            &Device::cpu(),
            etude_serve::service::ExecutionKind::Jit,
        )
        .unwrap();
        SimRustServer::new(profile, RustServerConfig::cpu(4))
    }

    #[test]
    fn backpressure_limits_pending_load() {
        // With backpressure, the generator sends far fewer requests into
        // a saturated, non-timing-out server than the open-loop variant,
        // and suppression is observable.
        let with_bp = SimLoadGen::run(
            slow_cpu_server(),
            &workload(60_000),
            LoadConfig {
                backpressure: true,
                ..LoadConfig::scaled_rampup(2_000, 10)
            },
        );
        let without_bp = SimLoadGen::run(
            slow_cpu_server(),
            &workload(60_000),
            LoadConfig {
                backpressure: false,
                ..LoadConfig::scaled_rampup(2_000, 10)
            },
        );
        assert!(
            with_bp.sent < without_bp.sent / 2,
            "backpressure {} vs open loop {}",
            with_bp.sent,
            without_bp.sent
        );
        assert!(with_bp.suppressed > 0, "no slots were suppressed");
    }

    #[test]
    fn ramp_is_visible_in_the_time_series() {
        let profile = ServiceProfile::static_response(&Device::cpu());
        let server = SimRustServer::new(profile, RustServerConfig::cpu(4));
        let result = SimLoadGen::run(
            server,
            &workload(50_000),
            LoadConfig::scaled_rampup(300, 10),
        );
        let rows = result.series.rows();
        let early = rows[1].1;
        let late = rows[8].1;
        assert!(
            late > 2 * early,
            "no ramp visible: early {early}, late {late}"
        );
    }

    #[test]
    fn fault_windows_surface_as_deterministic_errors() {
        use etude_faults::{FaultKind, FaultPlan};

        let run = || {
            let profile = ServiceProfile::static_response(&Device::cpu());
            let server = SimRustServer::new(profile, RustServerConfig::cpu(2));
            let plan = FaultPlan::seeded(11).with_window(
                Duration::from_secs(2),
                Duration::from_secs(4),
                FaultKind::Drop { prob: 0.5 },
            );
            let injector = FaultInjector::new(plan);
            let mut sim = Sim::new();
            let handle = SimLoadGen::schedule_with_faults(
                &mut sim,
                server,
                &workload(20_000),
                LoadConfig::scaled_rampup(200, 6),
                SimTime::ZERO,
                injector.clone(),
            );
            sim.run_to_completion();
            (handle.collect(), injector)
        };
        let (a, ia) = run();
        let (b, ib) = run();
        assert!(
            a.errors > 10,
            "drops should surface as errors: {}",
            a.errors
        );
        assert_eq!(
            a.errors,
            ia.counters().drops(),
            "one error per lost message"
        );
        assert_eq!(a.sent, b.sent);
        assert_eq!(a.ok, b.ok);
        assert_eq!(a.errors, b.errors);
        assert_eq!(ia.counters().drops(), ib.counters().drops());
    }

    #[test]
    fn resilient_retries_ride_out_a_drop_window() {
        use etude_faults::{FaultKind, FaultPlan};

        let run = || {
            let profile = ServiceProfile::static_response(&Device::cpu());
            let server = SimRustServer::new(profile, RustServerConfig::cpu(2));
            let plan = FaultPlan::seeded(11).with_window(
                Duration::from_secs(2),
                Duration::from_secs(4),
                FaultKind::Drop { prob: 0.5 },
            );
            let injector = FaultInjector::new(plan);
            let policy = RetryPolicy {
                base: Duration::from_millis(100),
                cap: Duration::from_secs(1),
                max_retries: 4,
                jitter: 0.0,
            };
            SimLoadGen::run_resilient(
                server,
                &workload(20_000),
                LoadConfig::scaled_rampup(200, 6),
                injector,
                policy,
            )
        };
        let a = run();
        // The same drop window that surfaces as errors for the naive
        // client (see the test above) is absorbed by retries: losing
        // five independent coin flips in a row is ~3% per request even
        // inside the window, and every retry re-rolls the link.
        assert!(
            a.retries > 10,
            "retries should absorb the drop window: {}",
            a.retries
        );
        assert!(
            a.errors < a.retries / 4,
            "retries should convert most drops into successes: {} errors, {} retries",
            a.errors,
            a.retries
        );
        // Virtual-time retries stay bit-identical across runs: backoff
        // is deterministic and each attempt draws faults from its own
        // message id.
        let b = run();
        assert_eq!(a.sent, b.sent);
        assert_eq!(a.ok, b.ok);
        assert_eq!(a.errors, b.errors);
        assert_eq!(a.retries, b.retries);
        assert_eq!(a.corrected.p99(), b.corrected.p99());
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let profile = ServiceProfile::static_response(&Device::cpu());
            let server = SimRustServer::new(profile, RustServerConfig::cpu(2));
            SimLoadGen::run(server, &workload(20_000), LoadConfig::scaled_rampup(200, 5))
        };
        let a = run();
        let b = run();
        assert_eq!(a.sent, b.sent);
        assert_eq!(a.ok, b.ok);
        assert_eq!(a.summary().p90, b.summary().p90);
    }
}
