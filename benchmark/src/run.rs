//! One workload, one run: either the end-to-end numbers with tracing off
//! (`--trace 0`) or the per-layer numbers from a traced run and the layer
//! replay (`--trace 1`). The two never share a process, so the end-to-end
//! numbers cannot pay for the instrumentation.

use crate::driver::{generate_sessions, Client, Load, Outcome, Phase, Requests, Sample};
use crate::replay;
use crate::spec::{
    Plan, Workload, CLOSED_IN_FLIGHT, CONNECTIONS, SLO, STRAGGLER_GRACE, TURNS,
};
use crate::sut;
use crate::trace::{self, ServerTrace, Spans};
use crate::{median, quantile, Metric};
use bytes::Bytes;
use etude_models::traits;
use etude_models::SbrModel;
use etude_serve::http;
use etude_tensor::CompiledGraph;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

pub struct Report {
    /// No answer differed from the in-process reference.
    pub correct: bool,
    /// Requests sent, warm-ups included.
    pub attempted: u64,
    /// Requests not answered 200, plus answers that differed.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// What became of one phase's requests.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    sent: u64,
    ok: u64,
    failed: u64,
    mismatched: u64,
}

impl Tally {
    fn of(outcome: &Outcome, mismatched: u64) -> Tally {
        let sent = outcome.samples.len() as u64;
        let ok = outcome.samples.iter().filter(|s| s.status == 200).count() as u64;
        Tally {
            sent,
            ok,
            failed: sent - ok,
            mismatched,
        }
    }

    fn add(&mut self, other: Tally) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.failed += other.failed;
        self.mismatched += other.mismatched;
    }

    fn print(&self, phase: &str) {
        println!(
            "phase {phase}: sent={} ok={} failed={} mismatched={}",
            self.sent, self.ok, self.failed, self.mismatched
        );
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Ascending latencies of the 200 answers that `at` places in
/// `[from, from + window)` of their phase: by due time in an open loop (the
/// schedule is what is windowed), by completion in a closed loop.
fn window(
    samples: &[Sample],
    from: Duration,
    window: Duration,
    at: impl Fn(&Sample) -> u64,
) -> Vec<u64> {
    let from = from.as_nanos() as u64;
    let until = from + window.as_nanos() as u64;
    sorted(
        samples
            .iter()
            .filter(|s| s.status == 200 && (from..until).contains(&at(s)))
            .map(Sample::latency_ns),
    )
}

fn sorted(values: impl Iterator<Item = u64>) -> Vec<u64> {
    let mut v: Vec<u64> = values.collect();
    v.sort_unstable();
    v
}

/// The median phase's value, with all of them printed in time order.
fn median_window(label: &str, mut values: Vec<f64>) -> f64 {
    println!("windows {label}: {values:.4?}");
    median(&mut values)
}

/// The in-process reference the answers are checked against: the same
/// compiled model, called directly, its output encoded by the same function.
struct Reference<'a> {
    model: &'a dyn SbrModel,
    compiled: &'a CompiledGraph,
    requests: &'a Requests,
    /// Expected body per pool index; a phase only pays for indices no
    /// earlier phase asked about.
    bodies: BTreeMap<u32, String>,
}

impl<'a> Reference<'a> {
    fn new(model: &'a dyn SbrModel, compiled: &'a CompiledGraph, requests: &'a Requests) -> Self {
        Reference {
            model,
            compiled,
            requests,
            bodies: BTreeMap::new(),
        }
    }

    /// How many kept answers differ, byte for byte, from the reference.
    fn mismatches(&mut self, kept: &[(u32, Bytes)]) -> u64 {
        let mut missing: Vec<u32> = kept
            .iter()
            .map(|(i, _)| *i)
            .filter(|i| !self.bodies.contains_key(i))
            .collect();
        missing.sort_unstable();
        missing.dedup();
        let (model, compiled, requests) = (self.model, self.compiled, self.requests);
        let reference = |indices: &[u32]| -> Vec<(u32, String)> {
            indices
                .iter()
                .map(|&i| {
                    let rec =
                        traits::recommend_compiled(model, compiled, &requests.sessions[i as usize])
                            .expect("sessions are in catalog");
                    (i, http::encode_recommendations(&rec.items, &rec.scores))
                })
                .collect()
        };
        // Both cores: a C = 10^6 reference costs what a request costs.
        let (mine, theirs) = missing.split_at(missing.len() / 2);
        std::thread::scope(|scope| {
            let other = scope.spawn(|| reference(theirs));
            self.bodies.extend(reference(mine));
            self.bodies
                .extend(other.join().expect("reference thread panicked"));
        });
        kept.iter()
            .filter(|(i, body)| self.bodies[i].as_bytes() != &body[..])
            .count() as u64
    }
}

/// Milliseconds the hypervisor ran something else on this guest's CPUs
/// since boot (`steal` in `/proc/stat`). A run during which it grows by
/// more than a few tens of milliseconds was disturbed from outside.
fn host_steal_ms() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let ticks: f64 = stat
                .lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse()
                .ok()?;
            Some(ticks * 10.0) // USER_HZ is 100 on every Linux ABI
        })
        .unwrap_or(0.0)
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Pool indices whose answers are kept for the correctness check: about
/// 200 per run, each compared with a reference computed once.
fn keep_every(pool: usize) -> usize {
    (pool / 200).max(1)
}

fn open_phase(w: &Workload, duration: Duration, first_request: usize, keep: usize) -> Phase {
    Phase {
        load: Load::Open { rate: w.rate },
        duration,
        first_request,
        keep_every: keep,
        grace: STRAGGLER_GRACE,
    }
}

fn closed_phase(duration: Duration, keep: usize) -> Phase {
    Phase {
        load: Load::Closed {
            in_flight: CLOSED_IN_FLIGHT,
        },
        duration,
        first_request: 0,
        keep_every: keep,
        grace: STRAGGLER_GRACE,
    }
}

fn requests_for(w: &Workload, duration: Duration) -> usize {
    (w.rate * duration.as_secs_f64()).ceil() as usize
}

/// `--trace 0`: set-up time, open-loop latency, closed-loop throughput and
/// peak memory, with the handler unwrapped.
///
/// The open and the closed loop take turns (O C O C …), so that each
/// metric's windows are spread over the whole run and a disturbance of a
/// few seconds spoils a few of them, not the median.
pub fn end_to_end(w: &Workload, seed: u64, plan: &Plan) -> std::io::Result<Report> {
    let lead_in = |turn: usize| if turn == 0 { plan.warmup } else { plan.lead_in };
    let open_requests = |turn: usize| requests_for(w, lead_in(turn) + plan.open_phase);
    let pool: usize = (0..TURNS).map(open_requests).sum();
    let (sessions, _) = generate_sessions(w.catalog, seed, pool);
    let requests = Requests::encode(w.name, sessions);
    let keep = keep_every(pool);

    // Set-up, several times over: everything between "nothing" and "the
    // first request can be written".
    let mut setup_s = Vec::new();
    let mut system = None;
    let setting_up = Instant::now();
    while setup_s.len() < plan.setup_reps || setting_up.elapsed() < plan.setup_budget {
        drop(system.take());
        let started = Instant::now();
        let model = sut::build_model(w);
        let server = sut::serve(model.clone(), |routes| routes)?;
        let client = Client::connect(server.handle.addr(), CONNECTIONS)?;
        setup_s.push(started.elapsed().as_secs_f64());
        system = Some((model, server, client));
    }
    println!(
        "setups: {} in {:.3} s, first {:.6} s",
        setup_s.len(),
        setting_up.elapsed().as_secs_f64(),
        setup_s[0]
    );
    let (model, server, mut client) = system.expect("at least one set-up");

    let steal_before = host_steal_ms();
    let mut turns = Vec::with_capacity(TURNS);
    let mut first_request = 0;
    for turn in 0..TURNS {
        let open_for = lead_in(turn) + plan.open_phase;
        let open = client.run(&requests, &open_phase(w, open_for, first_request, keep))?;
        first_request += open_requests(turn);
        let closed_for = plan.lead_in + plan.closed_phase;
        let closed = client.run(&requests, &closed_phase(closed_for, keep))?;
        turns.push((open, closed));
    }
    server.handle.shutdown();
    println!(
        "host steal during the timed phases: {} ms",
        host_steal_ms() - steal_before
    );

    let compiled = replay::compile(model.as_ref());
    let mut reference = Reference::new(model.as_ref(), &compiled, &requests);
    let (mut open_tally, mut closed_tally) = (Tally::default(), Tally::default());
    let (mut p50, mut p90, mut rps) = (Vec::new(), Vec::new(), Vec::new());
    for (turn, (open, closed)) in turns.iter().enumerate() {
        open_tally.add(Tally::of(open, reference.mismatches(&open.kept)));
        closed_tally.add(Tally::of(closed, reference.mismatches(&closed.kept)));
        let latencies = window(&open.samples, lead_in(turn), plan.open_phase, |s| s.due_ns);
        p50.push(ms(quantile(&latencies, 0.5)));
        p90.push(ms(quantile(&latencies, 0.9)));
        let completed = window(&closed.samples, plan.lead_in, plan.closed_phase, |s| {
            s.done_ns
        });
        rps.push(completed.len() as f64 / plan.closed_phase.as_secs_f64());
    }
    open_tally.print("open");
    closed_tally.print("closed");
    println!("answers checked: {}", reference.bodies.len());

    let mut total = open_tally;
    total.add(closed_tally);
    Ok(Report {
        correct: total.mismatched == 0,
        attempted: total.sent,
        failed: total.failed + total.mismatched,
        metrics: vec![
            Metric::new("setup_s", median(&mut setup_s), "s"),
            Metric::new("p50_ms", median_window("open p50 ms", p50), "ms"),
            Metric::new("p90_ms", median_window("open p90 ms", p90), "ms"),
            Metric::new("throughput_rps", median_window("closed rps", rps), "req/s"),
            Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
        ],
    })
}

/// `part / base`, or 0 when there is no base to take a share of.
fn share(part: f64, base: f64) -> f64 {
    if base > 0.0 {
        part / base
    } else {
        0.0
    }
}

/// `--trace 1`: the per-layer numbers. An untraced and a traced server over
/// the same model take turns under the open loop (U T U T), so the
/// tracing overhead is a difference between neighbours in time; then a
/// short closed loop; then the layer replay.
pub fn per_layer(w: &Workload, seed: u64, plan: &Plan, out_dir: &Path) -> std::io::Result<Report> {
    const TRACE_TURNS: usize = 4;
    let turn_warmup = plan.warmup / 2;
    let turn_for = turn_warmup + plan.seconds / 6;
    let closed_for = turn_warmup + plan.seconds / 6;
    let per_turn = requests_for(w, turn_for);
    let pool = per_turn * TRACE_TURNS;
    let (sessions, clicks_per_s) = generate_sessions(w.catalog, seed, pool);
    let requests = Requests::encode(w.name, sessions);
    let keep = keep_every(pool);

    let started = Instant::now();
    let model = sut::build_model(w);
    let build_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let compiled = replay::compile(model.as_ref());
    let compile_s = started.elapsed().as_secs_f64();

    let server_trace = ServerTrace::new(pool);
    let plain = sut::serve(model.clone(), |routes| routes)?;
    let traced = sut::serve(model.clone(), |routes| server_trace.wrap(routes))?;
    let mut plain_client = Client::connect(plain.handle.addr(), CONNECTIONS)?;
    let mut traced_client = Client::connect(traced.handle.addr(), CONNECTIONS)?;

    let mut reference = Reference::new(model.as_ref(), &compiled, &requests);
    let steal_before = host_steal_ms();
    let mut tally = Tally::default();
    let mut untraced: Vec<Sample> = Vec::new();
    let mut traced_samples: Vec<Sample> = Vec::new();
    let mut spans: Vec<Spans> = Vec::new();
    let warm_ns = turn_warmup.as_nanos() as u64;
    for turn in 0..TRACE_TURNS {
        let tracing = turn % 2 == 1;
        let client = if tracing {
            &mut traced_client
        } else {
            &mut plain_client
        };
        let outcome = client.run(&requests, &open_phase(w, turn_for, turn * per_turn, keep))?;
        let turn_tally = Tally::of(&outcome, reference.mismatches(&outcome.kept));
        turn_tally.print(if tracing {
            "open traced"
        } else {
            "open untraced"
        });
        tally.add(turn_tally);
        let measured = outcome
            .samples
            .iter()
            .filter(|s| s.due_ns >= warm_ns)
            .copied();
        if tracing {
            traced_samples.extend(measured);
            spans.extend(trace::join(&outcome, &server_trace, warm_ns));
        } else {
            untraced.extend(measured);
        }
    }
    let closed = plain_client.run(&requests, &closed_phase(closed_for, keep))?;
    let closed_tally = Tally::of(&closed, reference.mismatches(&closed.kept));
    closed_tally.print("closed");
    tally.add(closed_tally);
    let steal_ms = host_steal_ms() - steal_before;
    let stats = traced.recorder.snapshot();
    plain.handle.shutdown();
    traced.handle.shutdown();

    std::fs::create_dir_all(out_dir)?;
    let trace_path = out_dir.join(format!("trace_{}.json", w.name));
    std::fs::write(
        &trace_path,
        trace::chrome_trace(w.name, &spans, 2000).to_string(),
    )?;
    println!("trace written: {}", trace_path.display());

    // loadgen: the driver's own counters.
    let open_measured = || untraced.iter().chain(&traced_samples);
    let latency = |samples: &[Sample]| {
        sorted(
            samples
                .iter()
                .filter(|s| s.status == 200)
                .map(Sample::latency_ns),
        )
    };
    let untraced_lat = latency(&untraced);
    let traced_lat = latency(&traced_samples);
    let lag = sorted(open_measured().map(Sample::send_lag_ns));
    let slo_ns = SLO.as_nanos() as u64;
    let missed = open_measured()
        .filter(|s| s.status != 200 || s.latency_ns() > slo_ns)
        .count();
    let closed_lat = sorted(
        closed
            .samples
            .iter()
            .filter(|s| s.status == 200 && s.due_ns >= warm_ns)
            .map(Sample::latency_ns),
    );
    let untraced_p50 = quantile(&untraced_lat, 0.5);
    let traced_p50 = quantile(&traced_lat, 0.5);
    let mut metrics = vec![
        Metric::new("loadgen.sent", tally.sent as f64, "count"),
        Metric::new("loadgen.ok", tally.ok as f64, "count"),
        Metric::new("loadgen.failed", tally.failed as f64, "count"),
        Metric::new("loadgen.mismatched", tally.mismatched as f64, "count"),
        Metric::new("loadgen.send_lag_p99_us", us(quantile(&lag, 0.99)), "us"),
        Metric::new("loadgen.p99_ms", ms(quantile(&untraced_lat, 0.99)), "ms"),
        Metric::new(
            "loadgen.max_ms",
            ms(untraced_lat.last().copied().unwrap_or(0)),
            "ms",
        ),
        Metric::new(
            "loadgen.slo_miss_share",
            share(missed as f64, open_measured().count() as f64),
            "share",
        ),
        Metric::new(
            "loadgen.closed_p50_ms",
            ms(quantile(&closed_lat, 0.5)),
            "ms",
        ),
        Metric::new("loadgen.host_steal_ms", steal_ms, "ms"),
        Metric::new("workload.gen_clicks_per_s", clicks_per_s, "1/s"),
    ];

    // The traced run: where a request's time went, span by span.
    let span_q = |f: fn(&Spans) -> u64, q: f64| us(quantile(&sorted(spans.iter().map(f)), q));
    let wire_in_p50 = span_q(|s| s.wire_in, 0.5);
    let wire_out_p50 = span_q(|s| s.wire_out, 0.5);
    let handler_p50 = span_q(|s| s.handler, 0.5);
    let infer_p50 = span_q(|s| s.infer, 0.5);
    println!(
        "traced requests joined: {} of {}; infer share of serve.handler p50: {:.3}",
        spans.len(),
        traced_lat.len(),
        share(infer_p50, handler_p50)
    );
    let reactor = stats.reactor.as_ref();
    let stage = |name: &str| stats.stage(name);
    metrics.extend([
        Metric::new("serve.reactor.wire_in_p50_us", wire_in_p50, "us"),
        Metric::new(
            "serve.reactor.dispatch_wait_p50_us",
            span_q(|s| s.dispatch_wait, 0.5),
            "us",
        ),
        Metric::new(
            "serve.reactor.dispatch_wait_p99_us",
            span_q(|s| s.dispatch_wait, 0.99),
            "us",
        ),
        Metric::new("serve.reactor.wire_out_p50_us", wire_out_p50, "us"),
        Metric::new(
            "serve.reactor.loop_utilization",
            reactor.map_or(0.0, |r| r.utilization()),
            "share",
        ),
        Metric::new(
            "serve.reactor.write_stalls",
            reactor.map_or(0.0, |r| r.write_stalls as f64),
            "count",
        ),
        Metric::new("serve.handler_p50_us", handler_p50, "us"),
        Metric::new("serve.handler_p99_us", span_q(|s| s.handler, 0.99), "us"),
        Metric::new(
            "serve.contbatch.overhead_p50_us",
            span_q(Spans::contbatch_overhead, 0.5),
            "us",
        ),
        Metric::new(
            "serve.contbatch.queue_wait_p50_us",
            stage("queue").map_or(0.0, |s| s.p50_us as f64),
            "us",
        ),
        Metric::new(
            "serve.contbatch.queue_wait_p99_us",
            stage("queue").map_or(0.0, |s| s.p99_us as f64),
            "us",
        ),
        Metric::new("serve.contbatch.shed", stats.shed as f64, "count"),
    ]);

    // obs: the server's own account, and how far it is from the client's.
    let components = ["parse", "queue", "inference", "topk", "serialize"];
    for name in components.iter().chain(&["total"]) {
        metrics.push(Metric::new(
            format!("obs.stage.{name}_p50_us"),
            stage(name).map_or(0.0, |s| s.p50_us as f64),
            "us",
        ));
    }
    // Means, because means add up and medians do not.
    let mean = |name: &str| stage(name).map_or(0.0, |s| s.mean_us);
    let tiled: f64 = components.iter().map(|c| mean(c)).sum();
    let server_total_p50 = stage("total").map_or(0.0, |s| s.p50_us as f64);
    let client_p50 = us(traced_p50);
    metrics.extend([
        Metric::new(
            "obs.tiling_gap_share",
            share((mean("total") - tiled).abs(), mean("total")),
            "share",
        ),
        Metric::new(
            "obs.reconcile_gap_share",
            share(
                (client_p50 - (server_total_p50 + wire_in_p50 + wire_out_p50)).abs(),
                client_p50,
            ),
            "share",
        ),
        Metric::new(
            "trace.overhead_share",
            share(traced_p50 as f64 - untraced_p50 as f64, untraced_p50 as f64),
            "share",
        ),
    ]);

    // The layer replay.
    let replayed = replay::models_layer(
        model.as_ref(),
        &compiled,
        &requests.sessions[..plan.replay_requests.min(pool)],
    );
    metrics.extend(replay::http_layer(&requests, &replayed.recs));
    metrics.push(replay::contbatch_hop(plan.hop_calls));
    metrics.extend(replayed.metrics);
    metrics.extend([
        Metric::new("models.build_s", build_s, "s"),
        Metric::new("models.compile_s", compile_s, "s"),
    ]);
    drop(model);
    metrics.extend(replay::tensor_layer(w, plan.scan_budget, plan.probe_bytes));
    metrics.push(replay::obs_record());

    Ok(Report {
        correct: tally.mismatched == 0,
        attempted: tally.sent,
        failed: tally.failed + tally.mismatched,
        metrics,
    })
}
