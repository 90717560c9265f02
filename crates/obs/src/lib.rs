//! # etude-obs
//!
//! Server-side request tracing and stage-latency observability.
//!
//! ETUDE's whole point is *measuring* inference latency, but a load
//! generator only sees the end-to-end round trip: queue wait, batch
//! formation, model compute, top-k retrieval and serialization are
//! indistinguishable from the outside. This crate records where the
//! milliseconds go *inside* the server, cheaply enough to stay on in
//! production-style runs:
//!
//! * [`span::Stage`] — the fixed request pipeline stages
//!   (parse → queue → inference → top-k → serialize, plus the
//!   server-observed total),
//! * [`ring::SpanRing`] — a fixed-capacity, lock-free (atomic-cursor)
//!   ring buffer of POD [`span::SpanRecord`]s with per-slot seqlocks;
//!   one ring per writing thread, so the hot path takes no locks and
//!   performs no allocation,
//! * [`recorder::Recorder`] — the per-server registry of thread rings,
//!   hands out RAII [`recorder::SpanGuard`]s and aggregates ring
//!   contents into per-stage [`etude_metrics::hdr::Histogram`]s,
//! * [`metric`] — the one table that defines every scalar metric: its
//!   recorder slot, JSON key, Prometheus family, fleet rule and whether
//!   it is windowed,
//! * [`stats`] — snapshot aggregation plus rendering to the Prometheus
//!   text exposition format (`/metrics`) and a JSON document (`/stats`),
//!   and the matching parser the load generator uses to merge
//!   server-side breakdowns into its client-side reports.
//!
//! The overhead budget is enforced by tests: recording a span in steady
//! state performs zero heap allocations (a counting global allocator
//! proves it) and costs two `Instant::now()` calls plus a handful of
//! relaxed atomic stores.

//! PR 4 extends the single-server story to a fleet:
//!
//! * [`trace`] — `x-trace-ctx` propagation, pod span retention and the
//!   post-run collector that exports Chrome `trace_event` JSON,
//! * [`window`] — rolling fixed-bucket per-stage histograms (constant
//!   memory, zero steady-state allocation),
//! * [`fleet`] — merging per-pod `/stats` snapshots into bit-identical
//!   fleet histograms, skew views and Prometheus series,
//! * [`slo`] — a multi-window multi-burn-rate SLO evaluator reporting
//!   when an SLO first fell over and why.
//!
//! PR 9 adds the third layer — seeing *why* a tail is slow:
//!
//! * [`exemplar`] — a bounded slowest-N-per-window store retaining each
//!   outlier's complete stage span tree, exactly as that request
//!   measured it, exported as Chrome trace JSON (`/debug/slow`),
//! * [`stats::ReactorTelemetry`] — event-loop busy/wait utilization,
//!   poll batch, wake-to-dequeue and dispatch queue-wait histograms
//!   from the reactor tier, merged order-independently into `/fleet`.

pub mod exemplar;
pub mod fleet;
pub mod metric;
pub mod recorder;
pub mod ring;
pub mod slo;
pub mod span;
pub mod stats;
pub mod trace;
pub mod window;

pub use exemplar::ExemplarStore;
pub use fleet::{
    parse_fleet_health, parse_fleet_shards, FleetSnapshot, ShardGroupHealth, StageSkew,
};
pub use metric::Metric;
pub use recorder::{Recorder, SpanGuard};
pub use ring::SpanRing;
pub use slo::{SloCause, SloMonitor, SloPolicy, SloReport, SloViolation, TickAttribution};
pub use span::{request_id_hash, SpanRecord, Stage};
pub use stats::{parse_stats_json, ReactorTelemetry, StageCounts, StageStats, StatsSnapshot};
pub use trace::{ClientAttempt, ClientSpan, PodSpanRecord, TraceCollector, TraceCtx, TRACE_HEADER};
pub use window::{WindowConfig, WindowSnapshot};
