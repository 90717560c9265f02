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
//!   one 16 KiB ring per writing thread, so the hot path performs no
//!   allocation and takes no locks but to drain its own ring,
//! * [`recorder::Recorder`] — the per-server registry of thread rings:
//!   [`Recorder::record`] takes a stage duration the serving path timed
//!   itself, and ring contents are aggregated into per-stage
//!   [`etude_metrics::hdr::Histogram`]s, drained by each writer once its
//!   ring is half full and by every scrape,
//! * [`metric`] — the one table that defines every scalar metric: its
//!   recorder slot, JSON key and Prometheus family,
//! * [`stats`] — snapshot aggregation plus rendering to the Prometheus
//!   text exposition format (`/metrics`) and a JSON document (`/stats`),
//!   and the matching parser the load generator uses to merge
//!   server-side breakdowns into its client-side reports.
//!
//! The overhead budget is enforced by tests: recording a span in steady
//! state performs zero heap allocations (a counting global allocator
//! proves it) and costs a handful of relaxed atomic stores, and one span
//! in 256 pays for folding the 256 into the histograms.

//! One more layer sits beside it:
//!
//! * [`slo`] — a multi-window multi-burn-rate SLO evaluator reporting
//!   when an SLO first fell over and why.
//!
//! And one more shows *why* a tail is slow:
//!
//! * [`exemplar`] — a bounded slowest-N-per-window store retaining each
//!   outlier's complete stage span tree, exactly as that request
//!   measured it, exported as Chrome trace JSON (`/debug/slow`),
//! * [`stats::ReactorTelemetry`] — event-loop busy/wait utilization,
//!   poll batch, wake-to-dequeue and dispatch queue-wait histograms
//!   from the reactor tier, carried on `/stats` and `/metrics`.

pub mod exemplar;
pub mod metric;
pub mod recorder;
pub mod ring;
pub mod slo;
pub mod span;
pub mod stats;

pub use exemplar::ExemplarStore;
pub use metric::Metric;
pub use recorder::Recorder;
pub use ring::SpanRing;
pub use slo::{SloCause, SloMonitor, SloPolicy, SloReport, SloViolation, TickAttribution};
pub use span::{request_id_hash, SpanRecord, Stage};
pub use stats::{parse_stats_json, ReactorTelemetry, StageStats, StatsSnapshot};
