//! The traced run: spans recorded from the benchmark's own files, around
//! the calls into each layer.
//!
//! The server side is the public `Handler` closure wrapped so that entry,
//! exit and the request's wire-arrival stamp land in preallocated slots
//! (client and server share a process, so one clock). The client side is the
//! driver's per-request samples. Joined on the index in `x-request-id`:
//!
//! ```text
//! client.request ⊃ send_lag, wire_in, dispatch_wait,
//!                  serve.handler ⊃ { infer, contbatch.overhead }, wire_out
//! ```
//!
//! A span's self time is its duration minus its children's.

use crate::driver::Outcome;
use crate::json::{obj, Value};
use etude_serve::http::Request;
use etude_serve::rustserver::Handler;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

#[derive(Default)]
struct Slot {
    arrival_ns: AtomicU64,
    enter_ns: AtomicU64,
    infer_us: AtomicU64,
    /// Written last with `Release`; a non-zero `Acquire` read publishes
    /// the other three.
    exit_ns: AtomicU64,
}

/// Server-side stamps of one traced run, indexed by request-pool index.
pub struct ServerTrace {
    origin: Instant,
    slots: Vec<Slot>,
}

fn request_index(req: &Request) -> Option<usize> {
    req.headers
        .get("x-request-id")?
        .rsplit_once('-')?
        .1
        .parse()
        .ok()
}

impl ServerTrace {
    pub fn new(requests: usize) -> Arc<ServerTrace> {
        Arc::new(ServerTrace {
            origin: Instant::now(),
            slots: (0..requests).map(|_| Slot::default()).collect(),
        })
    }

    /// Wraps `inner` so every request that names a slot is stamped.
    pub fn wrap(self: &Arc<Self>, inner: Handler) -> Handler {
        let trace = Arc::clone(self);
        Arc::new(move |req: &Request| {
            let Some(slot) = request_index(req).and_then(|i| trace.slots.get(i)) else {
                return inner(req);
            };
            let since = |t: Instant| t.saturating_duration_since(trace.origin).as_nanos() as u64;
            let enter = Instant::now();
            let resp = inner(req);
            let exit = Instant::now();
            let infer_us = resp
                .headers
                .get("x-inference-duration-micros")
                .and_then(|v| v.parse().ok())
                .unwrap_or(0);
            slot.arrival_ns.store(since(req.arrival), Ordering::Relaxed);
            slot.enter_ns.store(since(enter), Ordering::Relaxed);
            slot.infer_us.store(infer_us, Ordering::Relaxed);
            slot.exit_ns.store(since(exit).max(1), Ordering::Release);
            resp
        })
    }
}

/// One request's spans, in nanoseconds; `due_ns` is since the run's origin.
#[derive(Debug, Clone, Copy)]
pub struct Spans {
    pub request: u32,
    pub due_ns: u64,
    pub send_lag: u64,
    pub wire_in: u64,
    pub dispatch_wait: u64,
    pub handler: u64,
    pub infer: u64,
    pub wire_out: u64,
    pub total: u64,
}

impl Spans {
    /// `serve.handler` self time: the batcher hop, queue wait, parse,
    /// serialize and recording around the model call.
    pub fn contbatch_overhead(&self) -> u64 {
        self.handler.saturating_sub(self.infer)
    }
}

/// Joins the 200 answers due at or after `from_ns` with their server stamps.
pub fn join(outcome: &Outcome, server: &ServerTrace, from_ns: u64) -> Vec<Spans> {
    // Client stamps are since the phase's origin, server stamps since the
    // trace's, which is older.
    let shift = outcome
        .origin
        .saturating_duration_since(server.origin)
        .as_nanos() as u64;
    outcome
        .samples
        .iter()
        .filter(|s| s.status == 200 && s.due_ns >= from_ns)
        .filter_map(|s| {
            let slot = server.slots.get(s.request as usize)?;
            let exit = slot.exit_ns.load(Ordering::Acquire);
            if exit == 0 {
                return None;
            }
            let arrival = slot.arrival_ns.load(Ordering::Relaxed);
            let enter = slot.enter_ns.load(Ordering::Relaxed);
            Some(Spans {
                request: s.request,
                due_ns: s.due_ns,
                send_lag: s.send_lag_ns(),
                wire_in: arrival.saturating_sub(s.sent_ns + shift),
                dispatch_wait: enter.saturating_sub(arrival),
                handler: exit.saturating_sub(enter),
                infer: slot.infer_us.load(Ordering::Relaxed) * 1000,
                wire_out: (s.done_ns + shift).saturating_sub(exit),
                total: s.latency_ns(),
            })
        })
        .collect()
}

/// Chrome `trace_event` JSON of the first `limit` requests (load it at
/// `chrome://tracing` or ui.perfetto.dev). One row per request.
pub fn chrome_trace(workload: &str, spans: &[Spans], limit: usize) -> Value {
    let mut events = Vec::new();
    for (row, s) in spans.iter().take(limit).enumerate() {
        let id = format!("{workload}-{}", s.request);
        let mut at = s.due_ns;
        let mut emit = |name: &str, start_ns: u64, dur_ns: u64| {
            events.push(obj([
                ("name", Value::Str(name.into())),
                ("ph", Value::Str("X".into())),
                ("ts", Value::Num(start_ns as f64 / 1e3)),
                ("dur", Value::Num(dur_ns as f64 / 1e3)),
                ("pid", Value::Num(1.0)),
                ("tid", Value::Num(row as f64)),
                ("args", obj([("request", Value::Str(id.clone()))])),
            ]));
        };
        emit("client.request", s.due_ns, s.total);
        for (name, dur) in [
            ("send_lag", s.send_lag),
            ("wire_in", s.wire_in),
            ("dispatch_wait", s.dispatch_wait),
        ] {
            emit(name, at, dur);
            at += dur;
        }
        emit("serve.handler", at, s.handler);
        // Where inside the handler the model ran is not observable from
        // outside it; the two children are drawn overhead first.
        emit("contbatch.overhead", at, s.contbatch_overhead());
        emit("infer", at + s.contbatch_overhead(), s.infer.min(s.handler));
        emit("wire_out", at + s.handler, s.wire_out);
    }
    obj([
        ("displayTimeUnit", Value::Str("ms".into())),
        ("traceEvents", Value::Arr(events)),
    ])
}
