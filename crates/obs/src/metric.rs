//! The one definition of every scalar metric.
//!
//! [`TABLE`] has one row per scalar a server reports, and everything
//! that touches a scalar loops over it: the recorder's atomics
//! ([`crate::Recorder::bump`]/`set`/`get`), the `/stats` JSON renderer
//! and its parser, and the `/metrics` exposition. Adding a counter is
//! one row here plus a `bump` at its call site. Two short lists below,
//! `REACTOR_SCALARS` and `REACTOR_HISTS`, do the same for the reactor
//! telemetry block.
//!
//! The wire is frozen — every surface stays byte-identical to the
//! goldens in `tests/golden/` — and two columns fix an emission order
//! besides what they say about the metric; change one and a wire moves:
//!
//! * the row's position in [`TABLE`]: `/stats`.
//! * [`MetricDef::since`]: `/metrics` runs oldest format version first,
//!   then table order (the exposition grew by appending, so a new row
//!   takes the newest version and lands last).
//!
//! The pod id is no metric (it is optional), so
//! `StatsSnapshot::render_json` names the one row it precedes. The
//! reactor Prometheus block runs gauges, counters, summaries.

use crate::stats::{ReactorTelemetry, StatsSnapshot};

/// A scalar metric: the key of [`TABLE`] and of the recorder's
/// `bump`/`set`/`get`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Metric {
    /// Requests with a recorded `total` span. Derived: the recorder
    /// overwrites it from the total-stage histogram at every fold.
    Requests,
    /// Span records lost to ring lapping. Derived at every fold too.
    Dropped,
    /// Requests shed with a 503 (queue full or budget dead).
    Shed,
    /// Requests answered from a degraded path.
    Degraded,
    /// Server-side injected faults fired.
    Faults,
    /// Requests refused with a 429 by admission control.
    Refused,
    /// Browned-out 200s: the popularity fallback (ladder level 3).
    BrownoutFallback,
    /// The admission controller's learned limit, in thousandths.
    AdmissionLimitMilli,
    /// Batcher queue depth.
    QueueDepth,
    /// Batches a batcher slot ran (one handler call, one catalog scan).
    Batches,
    /// Requests served through those batches; over `Batches`, the mean
    /// batch size.
    BatchedRequests,
}

impl Metric {
    /// Rows in [`TABLE`].
    pub const COUNT: usize = 11;

    /// This metric's table row.
    pub fn def(self) -> &'static MetricDef {
        &TABLE[self as usize]
    }
}

/// How a scalar behaves over time, which is also its Prometheus type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotonic since server start.
    Counter,
    /// A level sampled at snapshot time.
    Gauge,
    /// A gauge stored in thousandths; `/metrics` shows it in units.
    MilliGauge,
}

impl Kind {
    /// The `# TYPE` keyword.
    pub fn prom_type(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge | Kind::MilliGauge => "gauge",
        }
    }

    fn prom_value(self, value: u64) -> String {
        match self {
            Kind::MilliGauge => format!("{:.3}", value as f64 / 1000.0),
            Kind::Counter | Kind::Gauge => value.to_string(),
        }
    }
}

/// A metric's Prometheus family on `/metrics`.
#[derive(Debug, Clone, Copy)]
pub struct Prom {
    /// Family name without the `etude_` prefix.
    pub stem: &'static str,
    /// `# HELP` text.
    pub help: &'static str,
}

/// A read and a write accessor for one `u64` field of `S`.
type ScalarField<S> = (fn(&S) -> u64, fn(&mut S) -> &mut u64);

/// The [`ScalarField`] of the named snapshot field.
macro_rules! field {
    ($($path:tt)+) => {
        (|s| s.$($path)+, |s| &mut s.$($path)+)
    };
}

/// One row of [`TABLE`].
pub struct MetricDef {
    /// The row's key; equals its position in the table.
    pub metric: Metric,
    /// Key in the `/stats` JSON document.
    pub json: &'static str,
    /// Counter or gauge.
    pub kind: Kind,
    /// `/stats` format version that introduced the key. Version-1 keys
    /// are required by the parser, later ones default to 0 so documents
    /// from older servers still parse. Also the `/metrics` sort key:
    /// families are exposed oldest version first.
    pub since: u8,
    /// Prometheus family.
    pub prom: Prom,
    /// `level` label on the row's samples: the brownout family was born
    /// with one and the wire keeps it.
    pub level: Option<&'static str>,
    field: ScalarField<StatsSnapshot>,
}

/// Every scalar metric, in `/stats` emission order. Laid out by hand,
/// a few lines per row, so columns can be compared down the table.
#[rustfmt::skip]
pub static TABLE: [MetricDef; Metric::COUNT] = [
    MetricDef {
        metric: Metric::Requests, json: "requests", kind: Kind::Counter, since: 1, level: None,
        field: field!(requests),
        prom: Prom { stem: "requests_total", help: "Requests with a recorded total span." },
    },
    MetricDef {
        metric: Metric::Dropped, json: "dropped", kind: Kind::Counter, since: 1, level: None,
        field: field!(dropped),
        prom: Prom {
            stem: "spans_dropped_total",
            help: "Span records overwritten before aggregation.",
        },
    },
    MetricDef {
        metric: Metric::Shed, json: "shed", kind: Kind::Counter, since: 2, level: None,
        field: field!(shed),
        prom: Prom {
            stem: "requests_shed_total",
            help: "Requests shed with a 503 under overload.",
        },
    },
    MetricDef {
        metric: Metric::Degraded, json: "degraded", kind: Kind::Counter, since: 2, level: None,
        field: field!(degraded),
        prom: Prom {
            stem: "requests_degraded_total",
            help: "Requests answered from the degraded fallback path.",
        },
    },
    MetricDef {
        metric: Metric::Faults, json: "faults", kind: Kind::Counter, since: 2, level: None,
        field: field!(faults),
        prom: Prom { stem: "faults_injected_total", help: "Server-side injected faults fired." },
    },
    MetricDef {
        metric: Metric::Refused, json: "refused", kind: Kind::Counter, since: 4, level: None,
        field: field!(refused),
        prom: Prom {
            stem: "requests_refused_total",
            help: "Requests refused with a 429 by admission control.",
        },
    },
    MetricDef {
        metric: Metric::BrownoutFallback, json: "brownout_fallback", kind: Kind::Counter,
        since: 4, level: Some("fallback"), field: field!(brownout_fallback),
        prom: Prom {
            stem: "brownout_responses_total",
            help: "Browned-out 200s per ladder level.",
        },
    },
    MetricDef {
        metric: Metric::AdmissionLimitMilli, json: "admission_limit_milli", kind: Kind::MilliGauge,
        since: 4, level: None, field: field!(admission_limit_milli),
        prom: Prom { stem: "admission_limit", help: "Learned admission concurrency limit." },
    },
    MetricDef {
        metric: Metric::QueueDepth, json: "queue_depth", kind: Kind::Gauge, since: 3, level: None,
        field: field!(queue_depth),
        prom: Prom { stem: "queue_depth", help: "Batcher queue depth at scrape time." },
    },
    MetricDef {
        metric: Metric::Batches, json: "batches", kind: Kind::Counter, since: 5, level: None,
        field: field!(batches),
        prom: Prom {
            stem: "batches_total",
            help: "Batches run by the batcher slots (one catalog scan each).",
        },
    },
    MetricDef {
        metric: Metric::BatchedRequests, json: "batched_requests", kind: Kind::Counter, since: 5,
        level: None, field: field!(batched_requests),
        prom: Prom {
            stem: "batched_requests_total",
            help: "Requests served through those batches; over batches_total, the mean batch size.",
        },
    },
];

impl MetricDef {
    pub(crate) fn get(&self, snap: &StatsSnapshot) -> u64 {
        (self.field.0)(snap)
    }

    pub(crate) fn slot<'a>(&self, snap: &'a mut StatsSnapshot) -> &'a mut u64 {
        (self.field.1)(snap)
    }
}

/// Appends the `# HELP`/`# TYPE` header of one Prometheus family.
pub(crate) fn prom_header(out: &mut String, name: &str, kind: &str, help: &str) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
}

/// Appends every row of the table as an `etude_` family, header then
/// sample, in Prometheus emission order.
pub(crate) fn render_families(out: &mut String, snap: &StatsSnapshot) {
    let mut rows: Vec<_> = TABLE.iter().collect();
    rows.sort_by_key(|def| def.since);
    for def in rows {
        let name = format!("etude_{}", def.prom.stem);
        prom_header(out, &name, def.kind.prom_type(), def.prom.help);
        let labels = def
            .level
            .map(|level| format!("{{level=\"{level}\"}}"))
            .unwrap_or_default();
        let value = def.kind.prom_value(def.get(snap));
        out.push_str(&format!("{name}{labels} {value}\n"));
    }
}

/// Sparse HDR bucket `(index, count)` pairs, the wire form of every
/// histogram.
pub(crate) type Pairs = Vec<(u32, u64)>;

/// A read and a write accessor for one histogram of the reactor block.
type PairsField = (
    fn(&ReactorTelemetry) -> &Pairs,
    fn(&mut ReactorTelemetry) -> &mut Pairs,
);

/// One scalar of the reactor telemetry block. Those without a
/// Prometheus family only feed the derived utilization gauge.
pub(crate) struct ReactorScalar {
    pub(crate) json: &'static str,
    /// `(stem, kind, help)` on `/metrics`.
    pub(crate) prom: Option<(&'static str, Kind, &'static str)>,
    pub(crate) field: ScalarField<ReactorTelemetry>,
}

/// One histogram of the reactor telemetry block: quoted sparse pairs on
/// `/stats`, a quantile summary on `/metrics`.
pub(crate) struct ReactorHist {
    pub(crate) json: &'static str,
    pub(crate) stem: &'static str,
    pub(crate) help: &'static str,
    pub(crate) field: PairsField,
}

/// The reactor block's scalars, in `/stats` emission order. The first
/// one keys the block: a document without it carries no reactor block.
#[rustfmt::skip]
pub(crate) static REACTOR_SCALARS: [ReactorScalar; 7] = [
    ReactorScalar {
        json: "reactor_loops", field: field!(loops),
        prom: Some(("reactor_event_loops", Kind::Gauge, "Reactor event-loop threads.")),
    },
    ReactorScalar { json: "reactor_busy_nanos", field: field!(busy_nanos), prom: None },
    ReactorScalar { json: "reactor_wait_nanos", field: field!(wait_nanos), prom: None },
    ReactorScalar {
        json: "reactor_accepts", field: field!(accepts),
        prom: Some(("reactor_accepts_total", Kind::Counter, "Connections accepted since start.")),
    },
    ReactorScalar {
        json: "reactor_conns", field: field!(conns),
        prom: Some((
            "reactor_open_connections", Kind::Gauge, "Connection-slab occupancy at scrape time.",
        )),
    },
    ReactorScalar {
        json: "reactor_write_stalls", field: field!(write_stalls),
        prom: Some((
            "reactor_write_stalls_total", Kind::Counter,
            "Writes that left bytes pending on a full socket buffer.",
        )),
    },
    ReactorScalar {
        json: "reactor_evictions", field: field!(evictions),
        prom: Some((
            "reactor_evictions_total", Kind::Counter,
            "Connections evicted past the write-stall budget.",
        )),
    },
];

/// The reactor block's histograms, in emission order.
#[rustfmt::skip]
pub(crate) static REACTOR_HISTS: [ReactorHist; 3] = [
    ReactorHist {
        json: "reactor_poll_batch", stem: "reactor_poll_batch",
        help: "Events returned per poller wake.",
        field: (|r| &r.poll_batch, |r| &mut r.poll_batch),
    },
    ReactorHist {
        json: "reactor_wake_us", stem: "reactor_wake_to_dequeue_us",
        help: "Loop mailbox wake-to-dequeue latency in microseconds.",
        field: (|r| &r.wake_us, |r| &mut r.wake_us),
    },
    ReactorHist {
        json: "reactor_dispatch_wait_us", stem: "dispatch_queue_wait_us",
        help: "Dispatch-pool queue wait in microseconds.",
        field: (|r| &r.dispatch_wait_us, |r| &mut r.dispatch_wait_us),
    },
];
