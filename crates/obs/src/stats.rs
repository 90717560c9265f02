//! Aggregated stage statistics and their wire formats.
//!
//! One snapshot, two renderings: the Prometheus text exposition format
//! served at `/metrics` (scrapeable by standard tooling) and a compact
//! JSON document served at `/stats`. The JSON side also has a parser so
//! the load generator can pull a server's breakdown at end of run and
//! merge it into client-side reports — both ends share this module, so
//! the format cannot drift. Which scalars exist, under which names and
//! in which order is not decided here: the renderers and the parser
//! loop over [`crate::metric::TABLE`].

use crate::metric::{
    prom_header, render_families, Kind, Metric, Pairs, REACTOR_HISTS, REACTOR_SCALARS, TABLE,
};
use etude_metrics::hdr::Histogram;

/// Aggregated latency statistics of one pipeline stage (microseconds).
#[derive(Debug, Clone, PartialEq)]
pub struct StageStats {
    /// Stage label (see [`crate::span::Stage::name`]).
    pub stage: String,
    /// Spans recorded for this stage.
    pub count: u64,
    /// Mean duration.
    pub mean_us: f64,
    /// Median duration.
    pub p50_us: u64,
    /// 90th-percentile duration (the paper's headline quantile).
    pub p90_us: u64,
    /// 99th-percentile duration.
    pub p99_us: u64,
    /// Largest observed duration.
    pub max_us: u64,
}

/// Encodes sparse `(index, count)` pairs as `index:count` tokens — a
/// flat string keeps the JSON nesting-free for the hand-rolled parser.
fn encode_pairs(pairs: &[(u32, u64)]) -> String {
    pairs
        .iter()
        .map(|(i, c)| format!("{i}:{c}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Decodes `index:count` tokens (bad tokens skipped): the inverse of
/// [`encode_pairs`].
fn decode_pairs(encoded: &str) -> Pairs {
    encoded
        .split_whitespace()
        .filter_map(|token| {
            let (i, c) = token.split_once(':')?;
            Some((i.parse().ok()?, c.parse().ok()?))
        })
        .collect()
}

/// Appends the `quantile`-labelled sample lines of one summary.
fn push_quantiles(out: &mut String, name: &str, labels: &str, [p50, p90, p99]: [u64; 3]) {
    for (q, v) in [("0.5", p50), ("0.9", p90), ("0.99", p99)] {
        out.push_str(&format!("{name}{{{labels}quantile=\"{q}\"}} {v}\n"));
    }
}

/// Reactor/event-loop telemetry carried in a pod's `/stats` snapshot:
/// where the serving tier's own time goes, as opposed to where the
/// request pipeline's time goes (the stage histograms).
///
/// Histograms travel as exact sparse HDR bucket pairs, from which
/// `/metrics` computes its quantiles. Counters are cumulative since
/// server start; the busy/wait nanos are summed over every event loop,
/// so [`ReactorTelemetry::utilization`] is the loop-average busy
/// fraction. Wire names and Prometheus families are driven by the
/// `REACTOR_SCALARS` and `REACTOR_HISTS` lists in [`crate::metric`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReactorTelemetry {
    /// Event-loop threads running.
    pub loops: u64,
    /// Nanoseconds event loops spent working (summed over loops).
    pub busy_nanos: u64,
    /// Nanoseconds event loops spent blocked in the poller wait.
    pub wait_nanos: u64,
    /// Connections accepted since start.
    pub accepts: u64,
    /// Connection-slab occupancy at snapshot time (summed over loops).
    pub conns: u64,
    /// Writes that hit a full socket buffer and left bytes pending.
    pub write_stalls: u64,
    /// Connections evicted for exceeding the write-stall budget.
    pub evictions: u64,
    /// Events returned per poller wake (sparse HDR buckets).
    pub poll_batch: Pairs,
    /// Wake-to-dequeue latency of loop mailbox messages, µs buckets.
    pub wake_us: Pairs,
    /// Dispatch-pool queue wait, µs buckets.
    pub dispatch_wait_us: Pairs,
}

impl ReactorTelemetry {
    /// Busy fraction of total event-loop wall time, in `[0, 1]`
    /// (0 before the first poll completes).
    pub fn utilization(&self) -> f64 {
        let total = self.busy_nanos + self.wait_nanos;
        if total == 0 {
            0.0
        } else {
            self.busy_nanos as f64 / total as f64
        }
    }

    /// Reconstructs the dispatch queue-wait histogram (µs).
    pub fn dispatch_wait_histogram(&self) -> Histogram {
        Histogram::from_sparse(&self.dispatch_wait_us)
    }

    /// Renders the flat key block `/stats` carries. The keys stay
    /// top-level (and the histograms are quoted pair strings), so the
    /// block sits safely in the document's pre-array head.
    fn render_json_block(&self) -> String {
        let mut out = String::with_capacity(512);
        for scalar in &REACTOR_SCALARS {
            let value = (scalar.field.0)(self);
            out.push_str(&format!("  \"{}\": {value},\n", scalar.json));
        }
        for hist in &REACTOR_HISTS {
            let pairs = encode_pairs((hist.field.0)(self));
            out.push_str(&format!("  \"{}\": \"{pairs}\",\n", hist.json));
        }
        out
    }

    /// Parses [`ReactorTelemetry::render_json_block`] output out of a
    /// `/stats` document. Keyed on the first scalar:
    /// servers without a reactor (and pre-reactor documents) simply
    /// omit the block.
    fn parse_json_block(body: &str) -> Option<ReactorTelemetry> {
        num_field::<u64>(body, REACTOR_SCALARS[0].json)?;
        let mut r = ReactorTelemetry::default();
        for scalar in &REACTOR_SCALARS {
            *(scalar.field.1)(&mut r) = num_field(body, scalar.json).unwrap_or(0);
        }
        for hist in &REACTOR_HISTS {
            let encoded = str_field(body, hist.json).unwrap_or_default();
            *(hist.field.1)(&mut r) = decode_pairs(&encoded);
        }
        Some(r)
    }

    /// Renders the Prometheus exposition block.
    fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(1024);
        let name = "etude_reactor_loop_utilization";
        let help = "Busy fraction of reactor event-loop wall time.";
        prom_header(&mut out, name, "gauge", help);
        out.push_str(&format!("{name} {:.6}\n", self.utilization()));
        for kind in [Kind::Gauge, Kind::Counter] {
            for scalar in &REACTOR_SCALARS {
                if let Some((stem, k, help)) = scalar.prom.filter(|(_, k, _)| *k == kind) {
                    let name = format!("etude_{stem}");
                    prom_header(&mut out, &name, k.prom_type(), help);
                    out.push_str(&format!("{name} {}\n", (scalar.field.0)(self)));
                }
            }
        }
        for hist in &REACTOR_HISTS {
            let h = Histogram::from_sparse((hist.field.0)(self));
            let name = format!("etude_{}", hist.stem);
            prom_header(&mut out, &name, "summary", hist.help);
            push_quantiles(&mut out, &name, "", [h.p50(), h.p90(), h.p99()]);
            out.push_str(&format!("{name}_count {}\n", h.count()));
        }
        out
    }
}

/// A full aggregation snapshot: per-stage stats plus bookkeeping. The
/// scalar fields are the columns of [`crate::metric::TABLE`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsSnapshot {
    /// Requests with a recorded `total` span.
    pub requests: u64,
    /// Span records lost to ring lapping (0 in healthy runs).
    pub dropped: u64,
    /// Requests shed with a 503 because the batch queue was full.
    pub shed: u64,
    /// Requests answered from the degraded (popularity-fallback) path.
    pub degraded: u64,
    /// Server-side injected faults fired (slow-downs, error responses,
    /// connection resets). 0 outside chaos runs.
    pub faults: u64,
    /// Requests refused with a 429 by criticality-aware admission
    /// control (distinct from `shed`: refusal happens before queueing).
    pub refused: u64,
    /// Browned-out 200s: answers from the popularity fallback (ladder
    /// level 3). Level 0 (exact) is an ordinary request.
    pub brownout_fallback: u64,
    /// Admission controller's learned concurrency limit, milli-units
    /// (0 when no admission control is installed).
    pub admission_limit_milli: u64,
    /// This pod's id (absent on standalone servers).
    pub pod: Option<u32>,
    /// Batcher queue depth at snapshot time (0 on unbatched servers).
    pub queue_depth: u64,
    /// Batches the batcher slots ran: one handler call and, for the
    /// models that decode with a fused scan, one pass over the catalog.
    pub batches: u64,
    /// Requests served through those batches (`/ batches` = mean batch
    /// size; 1.0 means nothing was ever queued behind a pickup).
    pub batched_requests: u64,
    /// Reactor/event-loop telemetry (absent on thread-pool servers).
    pub reactor: Option<ReactorTelemetry>,
    /// Stats per stage that recorded at least one span, pipeline order.
    pub stages: Vec<StageStats>,
}

impl StatsSnapshot {
    /// Looks up one stage's stats by label.
    pub fn stage(&self, name: &str) -> Option<&StageStats> {
        self.stages.iter().find(|s| s.stage == name)
    }

    /// The value of one scalar metric.
    pub fn get(&self, metric: Metric) -> u64 {
        metric.def().get(self)
    }

    /// Overwrites one scalar metric.
    pub fn set(&mut self, metric: Metric, value: u64) {
        *metric.def().slot(self) = value;
    }

    /// Renders the Prometheus text exposition format (`/metrics`).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(1024);
        let name = "etude_stage_latency_microseconds";
        prom_header(
            &mut out,
            name,
            "summary",
            "Server-side stage latency quantiles.",
        );
        for s in &self.stages {
            let stage = format!("stage=\"{}\"", s.stage);
            let quantiles = [s.p50_us, s.p90_us, s.p99_us];
            push_quantiles(&mut out, name, &format!("{stage},"), quantiles);
            let sum = s.mean_us * s.count as f64;
            out.push_str(&format!("{name}_sum{{{stage}}} {sum:.0}\n"));
            out.push_str(&format!("{name}_count{{{stage}}} {}\n", s.count));
        }
        render_families(&mut out, self);
        if let Some(r) = &self.reactor {
            out.push_str(&r.render_prometheus());
        }
        out
    }

    /// Renders the JSON document served at `/stats`.
    ///
    /// Field order matters to the hand-rolled parser: top-level scalars
    /// come first (the parser takes the *first* occurrence of each
    /// key), and `stages` last (the parser scans every `{...}` after
    /// the `"stages"` key as a stage object).
    pub fn render_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        for def in &TABLE {
            // Frozen wire: the pod id sits where format version 3 put
            // it, ahead of every later scalar.
            if let (Metric::Refused, Some(pod)) = (def.metric, self.pod) {
                out.push_str(&format!("  \"pod\": {pod},\n"));
            }
            out.push_str(&format!("  \"{}\": {},\n", def.json, def.get(self)));
        }
        if let Some(r) = &self.reactor {
            out.push_str(&r.render_json_block());
        }
        out.push_str("  \"stages\": ");
        push_objects(
            &mut out,
            self.stages.iter().map(|s| {
                format!(
                    "{{\"stage\": \"{}\", \"count\": {}, \"mean_us\": {:.3}, \
                     \"p50_us\": {}, \"p90_us\": {}, \"p99_us\": {}, \"max_us\": {}}}",
                    s.stage, s.count, s.mean_us, s.p50_us, s.p90_us, s.p99_us, s.max_us
                )
            }),
        );
        out.push_str("\n}\n");
        out
    }
}

/// Appends a JSON array of flat objects, one per line: the rendering
/// twin of [`flat_objects`].
fn push_objects(out: &mut String, objects: impl IntoIterator<Item = String>) {
    out.push('[');
    for (i, object) in objects.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        out.push_str(&object);
    }
    out.push_str("\n  ]");
}

/// Extracts `"key": <value>` from a flat JSON object fragment.
fn field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let at = obj.find(&needle)? + needle.len();
    let rest = obj[at..].trim_start();
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

fn num_field<T: std::str::FromStr>(obj: &str, key: &str) -> Option<T> {
    field(obj, key)?.parse().ok()
}

fn str_field(obj: &str, key: &str) -> Option<String> {
    Some(field(obj, key)?.trim_matches('"').to_string())
}

/// Parses every flat `{...}` object in `region` with `parse`. `None`
/// when an object is unclosed or `parse` rejects one: a truncated
/// scrape must fail, not yield a short list.
fn flat_objects<T>(mut region: &str, parse: impl Fn(&str) -> Option<T>) -> Option<Vec<T>> {
    let mut items = Vec::new();
    while let Some(open) = region.find('{') {
        let close = region[open..].find('}')? + open;
        items.push(parse(&region[open..=close])?);
        region = &region[close + 1..];
    }
    Some(items)
}

/// Parses a document produced by [`StatsSnapshot::render_json`].
///
/// Not a general JSON parser — just the inverse of our own renderer,
/// tolerant of whitespace differences. Returns `None` on anything that
/// does not look like a `/stats` document.
pub fn parse_stats_json(body: &str) -> Option<StatsSnapshot> {
    let mut snap = StatsSnapshot::default();
    for def in &TABLE {
        let value = num_field(body, def.json);
        // Keys added after the v1 format default to 0 so documents from
        // older servers still parse; `pod` stays absent. Sections
        // retired since (`window`, `hist`) are skipped.
        *def.slot(&mut snap) = if def.since == 1 {
            value?
        } else {
            value.unwrap_or(0)
        };
    }
    snap.pod = num_field(body, "pod");
    snap.reactor = ReactorTelemetry::parse_json_block(body);
    // Every `{...}` after the key is a stage object: `stages` is last.
    snap.stages = flat_objects(&body[body.find("\"stages\"")?..], |obj| {
        Some(StageStats {
            stage: str_field(obj, "stage")?,
            count: num_field(obj, "count")?,
            mean_us: num_field(obj, "mean_us")?,
            p50_us: num_field(obj, "p50_us")?,
            p90_us: num_field(obj, "p90_us")?,
            p99_us: num_field(obj, "p99_us")?,
            max_us: num_field(obj, "max_us")?,
        })
    })?;
    Some(snap)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StatsSnapshot {
        StatsSnapshot {
            requests: 42,
            dropped: 1,
            shed: 7,
            degraded: 3,
            faults: 2,
            refused: 5,
            brownout_fallback: 9,
            admission_limit_milli: 12_500,
            pod: Some(4),
            queue_depth: 6,
            batches: 11,
            batched_requests: 29,
            reactor: Some(ReactorTelemetry {
                loops: 2,
                busy_nanos: 750_000,
                wait_nanos: 2_250_000,
                accepts: 64,
                conns: 60,
                write_stalls: 3,
                evictions: 1,
                poll_batch: vec![(1, 40), (4, 9)],
                wake_us: vec![(12, 30)],
                dispatch_wait_us: vec![(80, 25), (200, 5)],
            }),
            stages: vec![
                StageStats {
                    stage: "parse".into(),
                    count: 42,
                    mean_us: 3.25,
                    p50_us: 3,
                    p90_us: 5,
                    p99_us: 9,
                    max_us: 12,
                },
                StageStats {
                    stage: "total".into(),
                    count: 42,
                    mean_us: 210.0,
                    p50_us: 200,
                    p90_us: 280,
                    p99_us: 310,
                    max_us: 333,
                },
            ],
        }
    }

    #[test]
    fn json_roundtrips_through_the_parser() {
        let snap = sample();
        let parsed = parse_stats_json(&snap.render_json()).unwrap();
        assert_eq!(parsed.requests, snap.requests);
        assert_eq!(parsed.dropped, snap.dropped);
        assert_eq!(parsed.shed, 7);
        assert_eq!(parsed.degraded, 3);
        assert_eq!(parsed.faults, 2);
        assert_eq!(parsed.stages.len(), 2);
        assert_eq!(parsed.stage("parse").unwrap().p90_us, 5);
        assert!((parsed.stage("parse").unwrap().mean_us - 3.25).abs() < 1e-9);
        assert_eq!(parsed.stage("total").unwrap().max_us, 333);
        assert_eq!(parsed.pod, Some(4));
        assert_eq!(parsed.queue_depth, 6);
    }

    /// The satellite round-trip requirement: render → parse → render is
    /// a fixpoint, byte for byte, covering the resilience counters and
    /// the reactor block.
    #[test]
    fn render_parse_render_is_a_fixpoint() {
        for snap in [sample(), StatsSnapshot::default()] {
            let first = snap.render_json();
            let parsed = parse_stats_json(&first).unwrap();
            assert_eq!(parsed, snap);
            assert_eq!(parsed.render_json(), first);
        }
    }

    #[test]
    fn empty_snapshot_renders_and_parses() {
        let snap = StatsSnapshot::default();
        let parsed = parse_stats_json(&snap.render_json()).unwrap();
        assert_eq!(parsed, snap);
    }

    #[test]
    fn prometheus_format_has_quantiles_counts_and_counters() {
        let text = sample().render_prometheus();
        assert!(text.contains("# TYPE etude_stage_latency_microseconds summary"));
        assert!(
            text.contains("etude_stage_latency_microseconds{stage=\"parse\",quantile=\"0.9\"} 5")
        );
        assert!(text.contains("etude_stage_latency_microseconds_count{stage=\"total\"} 42"));
        assert!(text.contains("etude_requests_total 42"));
        assert!(text.contains("etude_spans_dropped_total 1"));
        // sum = mean * count (136.5 here), rendered as an integer
        assert!(text.contains("etude_stage_latency_microseconds_sum{stage=\"parse\"} 136"));
    }

    #[test]
    fn garbage_does_not_parse() {
        assert!(parse_stats_json("hello").is_none());
        assert!(parse_stats_json("{}").is_none());
    }

    #[test]
    fn v1_documents_without_counters_still_parse() {
        // A document from before shed/degraded/faults existed.
        let old = "{\n  \"requests\": 5,\n  \"dropped\": 0,\n  \"stages\": [\n  ]\n}\n";
        let parsed = parse_stats_json(old).unwrap();
        assert_eq!(parsed.requests, 5);
        assert_eq!(parsed.shed, 0);
        assert_eq!(parsed.degraded, 0);
        assert_eq!(parsed.faults, 0);
        assert_eq!(parsed.reactor, None, "pre-reactor documents carry none");
        // And one from the last server that still counted the int8 and
        // reduced-k rungs: the retired keys are ignored, their
        // neighbours still land.
        let four_rung = "{\n  \"requests\": 42,\n  \"dropped\": 1,\n  \"shed\": 7,\n  \
            \"degraded\": 3,\n  \"faults\": 2,\n  \"pod\": 4,\n  \"refused\": 5,\n  \
            \"brownout_quantized\": 11,\n  \"brownout_reduced\": 4,\n  \
            \"brownout_fallback\": 9,\n  \"admission_limit_milli\": 12500,\n  \
            \"queue_depth\": 6,\n  \"hist\": [\n  ],\n  \"stages\": [\n  ]\n}\n";
        let parsed = parse_stats_json(four_rung).unwrap();
        assert_eq!(parsed.refused, 5);
        assert_eq!(parsed.brownout_fallback, 9);
        assert_eq!(parsed.admission_limit_milli, 12_500);
        assert_eq!(parsed.queue_depth, 6);
        assert!(!parsed.render_json().contains("brownout_quantized"));
    }

    #[test]
    fn reactor_telemetry_roundtrips() {
        let snap = sample();
        let r = snap.reactor.as_ref().unwrap();
        assert!((r.utilization() - 0.25).abs() < 1e-9);
        let parsed = parse_stats_json(&snap.render_json()).unwrap();
        assert_eq!(parsed.reactor.as_ref(), Some(r));
        assert_eq!(r.dispatch_wait_histogram().count(), 30);
    }

    #[test]
    fn prometheus_format_exposes_reactor_gauges() {
        let text = sample().render_prometheus();
        assert!(text.contains("etude_reactor_loop_utilization 0.250000"));
        assert!(text.contains("etude_reactor_event_loops 2"));
        assert!(text.contains("etude_reactor_open_connections 60"));
        assert!(text.contains("etude_reactor_accepts_total 64"));
        assert!(text.contains("etude_reactor_write_stalls_total 3"));
        assert!(text.contains("etude_reactor_evictions_total 1"));
        assert!(text.contains("etude_dispatch_queue_wait_us{quantile=\"0.99\"}"));
        assert!(text.contains("etude_reactor_poll_batch{quantile=\"0.5\"}"));
        assert!(text.contains("etude_reactor_wake_to_dequeue_us_count 30"));
        // Thread-pool servers carry no reactor block at all.
        let plain = StatsSnapshot::default().render_prometheus();
        assert!(!plain.contains("reactor"));
    }

    #[test]
    fn prometheus_format_exposes_resilience_counters() {
        let text = sample().render_prometheus();
        assert!(text.contains("etude_requests_shed_total 7"));
        assert!(text.contains("etude_requests_degraded_total 3"));
        assert!(text.contains("etude_faults_injected_total 2"));
        assert!(text.contains("etude_queue_depth 6"));
    }
}
