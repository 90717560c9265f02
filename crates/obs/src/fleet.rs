//! Fleet-level aggregation of per-pod `/stats` snapshots.
//!
//! A fleet view answers two questions a single pod cannot: *is the
//! fleet healthy as a whole* (merged per-stage histograms, summed
//! counters) and *are the replicas even* (per-pod p50/p99 skew, queue
//! depths). Merging happens on the exact sparse histogram buckets each
//! pod ships in its snapshot ([`crate::stats::StageCounts`]), so the
//! merged histogram is **bit-identical** to folding the pods' own
//! histograms together, in any scrape order — an acceptance criterion,
//! verified end-to-end by `etude-serve`'s fleet test.

use crate::metric::{per_pod_order, prom_header, prom_order, render_families, Metric, TABLE};
use crate::stats::{
    array_after, encode_pairs, flat_objects, num_field, parse_stage_counts, parse_stats_json,
    push_objects, push_quantiles, ReactorTelemetry, StageCounts, StatsSnapshot,
};
use crate::Stage;
use etude_metrics::hdr::Histogram;

/// Per-pod quantile spread for one stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSkew {
    /// Stage label.
    pub stage: String,
    /// Smallest per-pod median.
    pub p50_min_us: u64,
    /// Largest per-pod median.
    pub p50_max_us: u64,
    /// Smallest per-pod p99.
    pub p99_min_us: u64,
    /// Largest per-pod p99.
    pub p99_max_us: u64,
}

/// Health and residency of one shard group in a scatter/gather tier:
/// which catalog slice it owns, how many bytes each replica keeps
/// resident, and how many of its replicas answered the last scrape.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardGroupHealth {
    /// Shard group id (position in the partition).
    pub group: u32,
    /// First global catalog row of the group's slice.
    pub base: u64,
    /// Rows in the group's slice.
    pub rows: u64,
    /// Embedding-table bytes resident on *each* replica of this group.
    pub resident_bytes: u64,
    /// Configured replicas.
    pub replicas: usize,
    /// Replicas that answered the last scrape.
    pub healthy: usize,
}

/// A scrape of the whole fleet.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetSnapshot {
    /// One snapshot per reachable pod.
    pub pods: Vec<StatsSnapshot>,
    /// Pods whose `/stats` could not be scraped.
    pub unreachable: usize,
    /// Pods a stateful scraper has declared unhealthy: several
    /// *consecutive* failed scrapes, not just a blip in this one.
    pub unhealthy: usize,
    /// Shard-group topology and health, when the fleet is a
    /// scatter/gather tier (empty for replicated fleets).
    pub shards: Vec<ShardGroupHealth>,
}

impl FleetSnapshot {
    /// Wraps scraped snapshots (no health verdicts — a stateless scrape
    /// cannot tell a blip from a dead pod).
    pub fn new(pods: Vec<StatsSnapshot>, unreachable: usize) -> FleetSnapshot {
        FleetSnapshot {
            pods,
            unreachable,
            unhealthy: 0,
            shards: Vec::new(),
        }
    }

    /// Attaches a stateful scraper's unhealthy-pod count.
    pub fn with_unhealthy(mut self, unhealthy: usize) -> FleetSnapshot {
        self.unhealthy = unhealthy;
        self
    }

    /// Attaches shard-group topology/health rows (scatter/gather tiers).
    pub fn with_shards(mut self, shards: Vec<ShardGroupHealth>) -> FleetSnapshot {
        self.shards = shards;
        self
    }

    /// Sum of a metric over the fleet.
    fn sum(&self, metric: Metric) -> u64 {
        self.pods.iter().map(|pod| pod.get(metric)).sum()
    }

    /// Merges one stage's histogram across every pod from the exact
    /// sparse buckets. `None` when no pod recorded the stage.
    pub fn merged_stage(&self, stage: &str) -> Option<Histogram> {
        let mut h = Histogram::new();
        let mut seen = false;
        for pod in &self.pods {
            if let Some(counts) = pod.hist.iter().find(|c| c.stage == stage) {
                seen = true;
                for &(index, count) in &counts.counts {
                    h.add_bucket(index, count);
                }
            }
        }
        seen.then_some(h)
    }

    /// The merged sparse buckets per stage, pipeline order — the same
    /// shape a single pod ships, so fleet output can be re-verified
    /// against per-pod scrapes token by token.
    pub fn merged_counts(&self) -> Vec<StageCounts> {
        Stage::ALL
            .iter()
            .filter_map(|&stage| {
                let h = self.merged_stage(stage.name())?;
                Some(StageCounts {
                    stage: stage.name().to_string(),
                    counts: h.nonzero_buckets().collect(),
                })
            })
            .collect()
    }

    /// Merges reactor telemetry across every pod that ships it: summed
    /// counters and busy/wait nanos (so fleet utilization is the
    /// time-weighted mean), histograms folded on their exact sparse
    /// buckets — order-independent like [`FleetSnapshot::merged_stage`].
    /// `None` when no pod runs the reactor tier.
    pub fn merged_reactor(&self) -> Option<ReactorTelemetry> {
        let mut merged: Option<ReactorTelemetry> = None;
        for pod in &self.pods {
            if let Some(r) = &pod.reactor {
                match &mut merged {
                    Some(m) => m.merge(r),
                    None => merged = Some(r.clone()),
                }
            }
        }
        merged
    }

    /// Per-pod quantile spread for every stage at least two pods
    /// recorded (skew of a single replica is meaningless).
    pub fn skew(&self) -> Vec<StageSkew> {
        Stage::ALL
            .iter()
            .filter_map(|&stage| {
                let per_pod: Vec<(u64, u64)> = self
                    .pods
                    .iter()
                    .filter_map(|p| p.stage(stage.name()).map(|s| (s.p50_us, s.p99_us)))
                    .collect();
                if per_pod.len() < 2 {
                    return None;
                }
                Some(StageSkew {
                    stage: stage.name().to_string(),
                    p50_min_us: per_pod.iter().map(|x| x.0).min().unwrap_or(0),
                    p50_max_us: per_pod.iter().map(|x| x.0).max().unwrap_or(0),
                    p99_min_us: per_pod.iter().map(|x| x.1).min().unwrap_or(0),
                    p99_max_us: per_pod.iter().map(|x| x.1).max().unwrap_or(0),
                })
            })
            .collect()
    }

    /// Renders the `/fleet` JSON document: fleet totals, merged
    /// per-stage quantiles *and* their exact sparse buckets, per-stage
    /// skew, and a per-pod summary table.
    pub fn render_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str(&format!(
            "{{\n  \"pods\": {},\n  \"unreachable\": {},\n  \"unhealthy\": {},\n",
            self.pods.len(),
            self.unreachable,
            self.unhealthy,
        ));
        for def in TABLE.iter().filter(|def| def.summed) {
            out.push_str(&format!("  \"{}\": {},\n", def.json, self.sum(def.metric)));
        }
        if let Some(r) = self.merged_reactor() {
            out.push_str(&r.render_json_block());
        }
        if !self.shards.is_empty() {
            out.push_str("  \"shards\": ");
            push_objects(
                &mut out,
                self.shards.iter().map(|s| {
                    format!(
                        "{{\"group\": {}, \"base\": {}, \"rows\": {}, \
                         \"resident_bytes\": {}, \"replicas\": {}, \"healthy\": {}}}",
                        s.group, s.base, s.rows, s.resident_bytes, s.replicas, s.healthy
                    )
                }),
            );
            out.push_str(",\n");
        }
        out.push_str("  \"skew\": ");
        push_objects(
            &mut out,
            self.skew().iter().map(|s| {
                format!(
                    "{{\"stage\": \"{}\", \"p50_min_us\": {}, \"p50_max_us\": {}, \
                     \"p99_min_us\": {}, \"p99_max_us\": {}}}",
                    s.stage, s.p50_min_us, s.p50_max_us, s.p99_min_us, s.p99_max_us
                )
            }),
        );
        out.push_str(",\n  \"merged\": ");
        push_objects(
            &mut out,
            self.merged_counts().iter().map(|counts| {
                let h = counts.to_histogram();
                format!(
                    "{{\"stage\": \"{}\", \"count\": {}, \"p50_us\": {}, \
                     \"p90_us\": {}, \"p99_us\": {}, \"max_us\": {}, \"counts\": \"{}\"}}",
                    counts.stage,
                    h.count(),
                    h.p50(),
                    h.p90(),
                    h.p99(),
                    h.max(),
                    encode_pairs(&counts.counts)
                )
            }),
        );
        out.push_str(",\n  \"per_pod\": ");
        let per_pod = per_pod_order();
        push_objects(
            &mut out,
            self.pods.iter().map(|p| {
                let (p50, p99) = p
                    .stage("total")
                    .map(|s| (s.p50_us, s.p99_us))
                    .unwrap_or((0, 0));
                let pod = p.pod.map(i64::from).unwrap_or(-1);
                let metrics: String = per_pod
                    .iter()
                    .map(|def| format!(", \"{}\": {}", def.json, def.get(p)))
                    .collect();
                format!("{{\"pod\": {pod}{metrics}, \"p50_us\": {p50}, \"p99_us\": {p99}}}")
            }),
        );
        out.push_str("\n}\n");
        out
    }

    /// Renders the fleet view in the Prometheus text exposition format
    /// (`/fleet/metrics`): merged quantiles plus per-pod gauges, all
    /// labelled so per-replica skew graphs directly.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(2048);
        for (name, help, value) in [
            (
                "etude_fleet_pods",
                "Pods reached by the last fleet scrape.",
                self.pods.len(),
            ),
            (
                "etude_fleet_unreachable",
                "Pods that failed the last fleet scrape.",
                self.unreachable,
            ),
            (
                "etude_fleet_unhealthy",
                "Pods past the consecutive-failure threshold.",
                self.unhealthy,
            ),
        ] {
            prom_header(&mut out, name, "gauge", help);
            out.push_str(&format!("{name} {value}\n"));
        }
        let rows = prom_order();
        let sums = rows.iter().filter_map(|&def| {
            let help = def.prom.fleet_help?;
            Some((def, help, self.sum(def.metric)))
        });
        render_families(&mut out, "fleet_", sums);
        let name = "etude_fleet_stage_latency_microseconds";
        prom_header(&mut out, name, "summary", "Merged fleet stage quantiles.");
        for counts in self.merged_counts() {
            let h = counts.to_histogram();
            let stage = format!("stage=\"{}\"", counts.stage);
            let quantiles = [h.p50(), h.p90(), h.p99()];
            push_quantiles(&mut out, name, &format!("{stage},"), quantiles);
            out.push_str(&format!("{name}_count{{{stage}}} {}\n", h.count()));
        }
        let per_pod: Vec<_> = per_pod_order()
            .into_iter()
            .filter_map(|def| Some((def, def.prom.pod_help?)))
            .collect();
        for (def, help) in &per_pod {
            let name = format!("etude_pod_{}", def.prom.stem);
            prom_header(&mut out, &name, def.kind.prom_type(), help);
        }
        let p99 = "etude_pod_latency_p99_microseconds";
        prom_header(&mut out, p99, "gauge", "Per-pod total-stage p99.");
        for (i, p) in self.pods.iter().enumerate() {
            let pod = p.pod.map(i64::from).unwrap_or(i as i64);
            for (def, _) in &per_pod {
                let (stem, value) = (def.prom.stem, def.get(p));
                out.push_str(&format!("etude_pod_{stem}{{pod=\"{pod}\"}} {value}\n"));
            }
            if let Some(total) = p.stage("total") {
                out.push_str(&format!("{p99}{{pod=\"{pod}\"}} {}\n", total.p99_us));
            }
        }
        if let Some(r) = self.merged_reactor() {
            out.push_str(&r.render_prometheus("fleet_"));
        }
        if !self.shards.is_empty() {
            out.push_str(
                "# HELP etude_shard_healthy_replicas Replicas of each shard group that answered the last scrape.\n\
                 # TYPE etude_shard_healthy_replicas gauge\n\
                 # HELP etude_shard_resident_bytes Embedding-table bytes resident on each replica of the group.\n\
                 # TYPE etude_shard_resident_bytes gauge\n",
            );
            for s in &self.shards {
                out.push_str(&format!(
                    "etude_shard_healthy_replicas{{group=\"{}\"}} {}\n",
                    s.group, s.healthy
                ));
                out.push_str(&format!(
                    "etude_shard_resident_bytes{{group=\"{}\"}} {}\n",
                    s.group, s.resident_bytes
                ));
            }
        }
        out
    }
}

/// The merged section of a `/fleet` JSON document, parsed back into
/// sparse stage counts — what verification harnesses compare against
/// their own per-pod merge.
pub fn parse_fleet_merged(body: &str) -> Option<Vec<StageCounts>> {
    flat_objects(array_after(body, "merged")?, parse_stage_counts)
}

/// Parses the `per_pod` section of a `/fleet` JSON document into
/// `(pod, requests, queue_depth)` rows.
pub fn parse_fleet_pods(body: &str) -> Option<Vec<(i64, u64, u64)>> {
    flat_objects(array_after(body, "per_pod")?, |obj| {
        Some((
            num_field(obj, "pod")?,
            num_field(obj, Metric::Requests.def().json)?,
            num_field(obj, Metric::QueueDepth.def().json)?,
        ))
    })
}

/// Parses the health header of a `/fleet` JSON document:
/// `(pods, unreachable, unhealthy)`.
pub fn parse_fleet_health(body: &str) -> Option<(u64, u64, u64)> {
    // These fields lead the document, before any nested object can
    // shadow their names.
    let head = &body[..body.find('[').unwrap_or(body.len())];
    Some((
        num_field(head, "pods")?,
        num_field(head, "unreachable")?,
        num_field(head, "unhealthy")?,
    ))
}

/// Parses the `shards` section of a `/fleet` JSON document. `Some([])`
/// when the document has no shard section (replicated fleets).
pub fn parse_fleet_shards(body: &str) -> Option<Vec<ShardGroupHealth>> {
    if !body.contains("\"shards\"") {
        return Some(Vec::new());
    }
    flat_objects(array_after(body, "shards")?, |obj| {
        Some(ShardGroupHealth {
            group: num_field(obj, "group")?,
            base: num_field(obj, "base")?,
            rows: num_field(obj, "rows")?,
            resident_bytes: num_field(obj, "resident_bytes")?,
            replicas: num_field(obj, "replicas")?,
            healthy: num_field(obj, "healthy")?,
        })
    })
}

/// Builds a fleet snapshot from raw `/stats` bodies; unparseable or
/// missing bodies count as unreachable.
pub fn fleet_from_bodies<'a>(bodies: impl IntoIterator<Item = Option<&'a str>>) -> FleetSnapshot {
    let mut pods = Vec::new();
    let mut unreachable = 0;
    for body in bodies {
        match body.and_then(parse_stats_json) {
            Some(snap) => pods.push(snap),
            None => unreachable += 1,
        }
    }
    FleetSnapshot::new(pods, unreachable)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::StageStats;

    fn pod_snapshot(pod: u32, values: &[u64]) -> StatsSnapshot {
        let mut h = Histogram::new();
        for &v in values {
            h.record(v);
        }
        StatsSnapshot {
            requests: values.len() as u64,
            pod: Some(pod),
            queue_depth: u64::from(pod),
            hist: vec![StageCounts {
                stage: "total".into(),
                counts: h.nonzero_buckets().collect(),
            }],
            stages: vec![StageStats {
                stage: "total".into(),
                count: h.count(),
                mean_us: h.mean(),
                p50_us: h.p50(),
                p90_us: h.p90(),
                p99_us: h.p99(),
                max_us: h.max(),
            }],
            ..Default::default()
        }
    }

    #[test]
    fn merged_histogram_is_bit_identical_to_local_merge() {
        let a = [100, 120, 130, 5_000];
        let b = [90, 110, 400];
        let fleet = FleetSnapshot::new(vec![pod_snapshot(0, &a), pod_snapshot(1, &b)], 0);
        let merged = fleet.merged_stage("total").unwrap();
        // The local reference merge works from the same wire-carried
        // sparse buckets — reconstruct each pod, then fold.
        let mut local = fleet.pods[0].hist[0].to_histogram();
        local.merge(&fleet.pods[1].hist[0].to_histogram());
        assert_eq!(merged.count(), local.count());
        assert_eq!(merged.p50(), local.p50());
        assert_eq!(merged.p99(), local.p99());
        assert_eq!(merged.max(), local.max());
        assert_eq!(merged.min(), local.min());
        // Scrape order must not matter.
        let swapped = FleetSnapshot::new(vec![pod_snapshot(1, &b), pod_snapshot(0, &a)], 0);
        assert_eq!(
            swapped.merged_counts(),
            fleet.merged_counts(),
            "merge is order-independent"
        );
    }

    #[test]
    fn skew_spans_the_pod_extremes() {
        let fleet = FleetSnapshot::new(
            vec![
                pod_snapshot(0, &[100, 100, 100]),
                pod_snapshot(1, &[900, 900, 900]),
            ],
            0,
        );
        let skew = fleet.skew();
        assert_eq!(skew.len(), 1);
        assert_eq!(skew[0].stage, "total");
        assert!(skew[0].p50_min_us <= 101 && skew[0].p50_max_us >= 899);
    }

    #[test]
    fn fleet_json_roundtrips_merged_counts() {
        let fleet = FleetSnapshot::new(vec![pod_snapshot(0, &[50, 60]), pod_snapshot(1, &[70])], 1);
        let json = fleet.render_json();
        assert!(json.contains("\"unreachable\": 1"));
        let merged = parse_fleet_merged(&json).unwrap();
        assert_eq!(merged, fleet.merged_counts());
        let rows = parse_fleet_pods(&json).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], (0, 2, 0));
        assert_eq!(rows[1], (1, 1, 1));
    }

    #[test]
    fn prometheus_exposes_fleet_and_pod_series() {
        let fleet = FleetSnapshot::new(vec![pod_snapshot(0, &[100]), pod_snapshot(3, &[200])], 0);
        let text = fleet.render_prometheus();
        assert!(text.contains("etude_fleet_pods 2"));
        assert!(text.contains("etude_fleet_requests_total 2"));
        assert!(text
            .contains("etude_fleet_stage_latency_microseconds{stage=\"total\",quantile=\"0.99\"}"));
        assert!(text.contains("etude_pod_requests_total{pod=\"3\"} 1"));
        assert!(text.contains("etude_pod_queue_depth{pod=\"0\"} 0"));
    }

    #[test]
    fn unhealthy_counts_render_and_parse() {
        let fleet = FleetSnapshot::new(vec![pod_snapshot(0, &[10])], 2).with_unhealthy(1);
        let json = fleet.render_json();
        assert!(json.contains("\"unhealthy\": 1"));
        assert_eq!(parse_fleet_health(&json), Some((1, 2, 1)));
        let text = fleet.render_prometheus();
        assert!(text.contains("etude_fleet_unhealthy 1"));
        // The parsers that predate the field still work.
        assert_eq!(parse_fleet_pods(&json).map(|r| r.len()), Some(1));
    }

    #[test]
    fn shard_sections_render_and_parse() {
        let shards = vec![
            ShardGroupHealth {
                group: 0,
                base: 0,
                rows: 500_000,
                resident_bytes: 64_000_000,
                replicas: 2,
                healthy: 2,
            },
            ShardGroupHealth {
                group: 1,
                base: 500_000,
                rows: 500_000,
                resident_bytes: 64_000_000,
                replicas: 2,
                healthy: 0,
            },
        ];
        let fleet = FleetSnapshot::new(vec![pod_snapshot(0, &[10])], 2).with_shards(shards.clone());
        let json = fleet.render_json();
        assert_eq!(parse_fleet_shards(&json).unwrap(), shards);
        // The shard section must not confuse the pre-existing parsers.
        assert_eq!(parse_fleet_health(&json), Some((1, 2, 0)));
        assert_eq!(parse_fleet_pods(&json).map(|r| r.len()), Some(1));
        assert_eq!(parse_fleet_merged(&json), Some(fleet.merged_counts()));
        let text = fleet.render_prometheus();
        assert!(text.contains("etude_shard_healthy_replicas{group=\"1\"} 0"));
        assert!(text.contains("etude_shard_resident_bytes{group=\"0\"} 64000000"));
        // Replicated fleets have no section, and the parser reports that
        // as an empty topology rather than a failure.
        let plain = FleetSnapshot::new(vec![pod_snapshot(0, &[10])], 0).render_json();
        assert!(!plain.contains("\"shards\""));
        assert_eq!(parse_fleet_shards(&plain), Some(Vec::new()));
    }

    #[test]
    fn reactor_telemetry_merges_order_independently_through_fleet_json() {
        let reactor = |busy, wait, batches: Vec<(u32, u64)>| ReactorTelemetry {
            loops: 2,
            busy_nanos: busy,
            wait_nanos: wait,
            accepts: 10,
            conns: 4,
            write_stalls: 1,
            evictions: 0,
            poll_batch: batches,
            wake_us: vec![(5, 7)],
            dispatch_wait_us: vec![(40, 3)],
        };
        let mut a = pod_snapshot(0, &[100]);
        a.reactor = Some(reactor(300, 700, vec![(1, 5), (8, 2)]));
        let mut b = pod_snapshot(1, &[200]);
        b.reactor = Some(reactor(200, 800, vec![(1, 3)]));
        let fleet = FleetSnapshot::new(vec![a.clone(), b.clone()], 0);
        let swapped = FleetSnapshot::new(vec![b, a], 0);
        let merged = fleet.merged_reactor().unwrap();
        assert_eq!(swapped.merged_reactor().as_ref(), Some(&merged));
        assert_eq!(merged.busy_nanos, 500);
        assert_eq!(merged.wait_nanos, 1_500);
        assert!((merged.utilization() - 0.25).abs() < 1e-9);
        assert_eq!(merged.poll_batch, vec![(1, 8), (8, 2)]);
        // The JSON round-trip carries the merged block, and the
        // pre-reactor head parsers still work around it.
        let json = fleet.render_json();
        let parsed = ReactorTelemetry::parse_json_block(&json);
        assert_eq!(parsed.as_ref(), Some(&merged));
        assert_eq!(parse_fleet_health(&json), Some((2, 0, 0)));
        assert_eq!(parse_fleet_merged(&json), Some(fleet.merged_counts()));
        let text = fleet.render_prometheus();
        assert!(text.contains("etude_fleet_reactor_loop_utilization 0.250000"));
        assert!(text.contains("etude_fleet_dispatch_queue_wait_us_count 6"));
        // Fleets without a reactor tier omit the block entirely.
        let plain = FleetSnapshot::new(vec![pod_snapshot(0, &[10])], 0);
        let plain_json = plain.render_json();
        assert_eq!(ReactorTelemetry::parse_json_block(&plain_json), None);
        assert!(!plain.render_prometheus().contains("reactor"));
    }

    #[test]
    fn unparseable_bodies_count_as_unreachable() {
        let good = pod_snapshot(0, &[10]).render_json();
        let fleet = fleet_from_bodies([Some(good.as_str()), Some("garbage"), None]);
        assert_eq!(fleet.pods.len(), 1);
        assert_eq!(fleet.unreachable, 2);
    }
}
