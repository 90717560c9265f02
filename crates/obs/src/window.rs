//! Rolling time-window stage metrics: N fixed-duration buckets of
//! per-stage HDR histograms, constant memory, zero steady-state
//! allocation.
//!
//! The cumulative aggregate answers "what happened since boot"; fleet
//! debugging needs "what happened in the last few seconds, second by
//! second" — a crashed pod or a fault window is invisible in a
//! since-boot histogram but obvious in a bucketed one. Every structure
//! here is preallocated at construction: rotation *resets histograms in
//! place* (the counting-allocator test covers this path), so recording
//! into windows costs the same as recording into the cumulative
//! aggregate.
//!
//! Buckets are indexed by absolute bucket number since the recorder's
//! epoch (`elapsed / bucket_duration`), and a slot is lazily reclaimed
//! when a newer bucket number maps onto it — a pod idle for longer than
//! the whole window simply presents stale slots, which snapshots filter
//! by recency.

use crate::metric::Metric;
use crate::span::Stage;
use etude_metrics::hdr::Histogram;
use std::time::Duration;

/// Shape of the rolling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowConfig {
    /// Duration of one bucket.
    pub bucket: Duration,
    /// Number of buckets retained (the window spans `bucket × buckets`).
    pub buckets: usize,
}

impl Default for WindowConfig {
    /// Eight one-second buckets — matches the load generator's tick
    /// resolution with enough depth for a short burn-rate window.
    fn default() -> WindowConfig {
        WindowConfig {
            bucket: Duration::from_secs(1),
            buckets: 8,
        }
    }
}

/// A slot never written to carries this marker index.
const EMPTY: u64 = u64::MAX;

struct Slot {
    /// Absolute bucket number currently stored here (`EMPTY` = unused).
    index: u64,
    stages: [Histogram; Stage::ALL.len()],
    /// Per-bucket deltas of the table's `windowed` metrics, indexed by
    /// [`Metric`] (the other entries stay 0).
    counters: [u64; Metric::COUNT],
}

impl Slot {
    fn new() -> Slot {
        Slot {
            index: EMPTY,
            stages: std::array::from_fn(|_| Histogram::new()),
            counters: [0; Metric::COUNT],
        }
    }

    /// Reuses this slot for a new bucket, in place (no allocation).
    fn reset_for(&mut self, index: u64) {
        self.index = index;
        for h in &mut self.stages {
            h.reset();
        }
        self.counters = [0; Metric::COUNT];
    }
}

/// The rolling window: a fixed ring of per-bucket stage histograms.
pub struct StageWindows {
    config: WindowConfig,
    slots: Vec<Slot>,
}

impl StageWindows {
    /// Preallocates the full ring.
    pub fn new(config: WindowConfig) -> StageWindows {
        let buckets = config.buckets.max(2);
        StageWindows {
            config: WindowConfig {
                bucket: config.bucket.max(Duration::from_millis(1)),
                buckets,
            },
            slots: (0..buckets).map(|_| Slot::new()).collect(),
        }
    }

    /// The (possibly clamped) configuration in effect.
    pub fn config(&self) -> WindowConfig {
        self.config
    }

    /// Maps elapsed-since-epoch to an absolute bucket number.
    pub fn bucket_index(&self, elapsed: Duration) -> u64 {
        (elapsed.as_nanos() / self.config.bucket.as_nanos().max(1)) as u64
    }

    fn slot_for(&mut self, index: u64) -> &mut Slot {
        let at = (index % self.slots.len() as u64) as usize;
        let slot = &mut self.slots[at];
        if slot.index != index {
            slot.reset_for(index);
        }
        slot
    }

    /// Records one stage sample into bucket `index`.
    pub fn record(&mut self, index: u64, stage: Stage, micros: u64) {
        self.slot_for(index).stages[stage as u8 as usize].record(micros);
    }

    /// Adds a metric's increase since the last fold to bucket `index`.
    pub fn add(&mut self, index: u64, metric: Metric, delta: u64) {
        if delta > 0 {
            self.slot_for(index).counters[metric as usize] += delta;
        }
    }

    /// Snapshots the buckets still inside the window ending at
    /// `current` (inclusive), oldest first.
    pub fn snapshot(&self, current: u64) -> WindowSnapshot {
        let oldest = (current + 1).saturating_sub(self.slots.len() as u64);
        let mut buckets: Vec<WindowBucket> = self
            .slots
            .iter()
            .filter(|s| s.index != EMPTY && s.index >= oldest && s.index <= current)
            .map(|s| WindowBucket {
                index: s.index,
                counters: s.counters,
                lat: Stage::ALL
                    .iter()
                    .filter_map(|&stage| {
                        let h = &s.stages[stage as u8 as usize];
                        if h.is_empty() {
                            return None;
                        }
                        Some(WindowStage {
                            stage: stage.name().to_string(),
                            count: h.count(),
                            p50_us: h.p50(),
                            p99_us: h.p99(),
                        })
                    })
                    .collect(),
            })
            .collect();
        buckets.sort_by_key(|b| b.index);
        WindowSnapshot {
            bucket_millis: self.config.bucket.as_millis() as u64,
            buckets,
        }
    }
}

/// Per-stage quantiles of one bucket (wire form).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowStage {
    /// Stage label.
    pub stage: String,
    /// Samples in the bucket.
    pub count: u64,
    /// Median within the bucket.
    pub p50_us: u64,
    /// 99th percentile within the bucket.
    pub p99_us: u64,
}

/// One rolled-up bucket (wire form).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WindowBucket {
    /// Absolute bucket number since the recorder's epoch.
    pub index: u64,
    /// What each `windowed` metric of [`crate::metric::TABLE`] grew by
    /// in the bucket, indexed by [`Metric`].
    pub counters: [u64; Metric::COUNT],
    /// Stage quantiles (non-empty stages only, pipeline order).
    pub lat: Vec<WindowStage>,
}

impl WindowBucket {
    /// What `metric` grew by in this bucket (0 for metrics the table
    /// does not window).
    pub fn count(&self, metric: Metric) -> u64 {
        self.counters[metric as usize]
    }

    /// Encodes the stage list as `stage:count:p50:p99` tokens — a flat
    /// string keeps the `/stats` JSON free of nested objects (the
    /// hand-rolled parser stays simple).
    pub fn encode_lat(&self) -> String {
        self.lat
            .iter()
            .map(|s| format!("{}:{}:{}:{}", s.stage, s.count, s.p50_us, s.p99_us))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Decodes [`WindowBucket::encode_lat`] output (bad tokens skipped).
    pub fn decode_lat(encoded: &str) -> Vec<WindowStage> {
        encoded
            .split_whitespace()
            .filter_map(|token| {
                let mut parts = token.split(':');
                Some(WindowStage {
                    stage: parts.next()?.to_string(),
                    count: parts.next()?.parse().ok()?,
                    p50_us: parts.next()?.parse().ok()?,
                    p99_us: parts.next()?.parse().ok()?,
                })
            })
            .collect()
    }
}

/// A point-in-time view of the whole window.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WindowSnapshot {
    /// Bucket duration in milliseconds.
    pub bucket_millis: u64,
    /// Live buckets, oldest first.
    pub buckets: Vec<WindowBucket>,
}

impl WindowSnapshot {
    /// Merges two window views bucket-by-bucket, keyed on the absolute
    /// bucket index. Buckets present on only one side copy through
    /// verbatim — so merging *disjoint* windows (pods that were live at
    /// different times) is exact. Buckets present on both sides sum
    /// their counters and combine per-stage rows: counts sum, quantiles
    /// take the max — a conservative tail bound, since an exact
    /// quantile merge would need the underlying histograms, which the
    /// window wire form deliberately omits.
    pub fn merge(&self, other: &WindowSnapshot) -> WindowSnapshot {
        let mut buckets: Vec<WindowBucket> = self.buckets.clone();
        for b in &other.buckets {
            match buckets.iter_mut().find(|mine| mine.index == b.index) {
                None => buckets.push(b.clone()),
                Some(mine) => {
                    for (count, theirs) in mine.counters.iter_mut().zip(b.counters) {
                        *count += theirs;
                    }
                    for stage in &b.lat {
                        match mine.lat.iter_mut().find(|s| s.stage == stage.stage) {
                            None => mine.lat.push(stage.clone()),
                            Some(s) => {
                                s.count += stage.count;
                                s.p50_us = s.p50_us.max(stage.p50_us);
                                s.p99_us = s.p99_us.max(stage.p99_us);
                            }
                        }
                    }
                }
            }
        }
        buckets.sort_by_key(|b| b.index);
        WindowSnapshot {
            bucket_millis: self.bucket_millis.max(other.bucket_millis),
            buckets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn windows(buckets: usize) -> StageWindows {
        StageWindows::new(WindowConfig {
            bucket: Duration::from_secs(1),
            buckets,
        })
    }

    #[test]
    fn samples_land_in_their_bucket() {
        let mut w = windows(4);
        w.record(0, Stage::Total, 100);
        w.record(0, Stage::Inference, 80);
        w.record(2, Stage::Total, 300);
        let snap = w.snapshot(2);
        assert_eq!(snap.buckets.len(), 2);
        assert_eq!(snap.buckets[0].index, 0);
        assert_eq!(snap.buckets[0].lat.len(), 2);
        assert_eq!(snap.buckets[1].index, 2);
        let total = &snap.buckets[1].lat[0];
        assert_eq!(total.stage, "total");
        assert_eq!(total.p50_us, 300);
    }

    #[test]
    fn old_buckets_rotate_out() {
        let mut w = windows(3);
        for i in 0..6 {
            w.record(i, Stage::Total, 10 * (i + 1));
        }
        let snap = w.snapshot(5);
        let indices: Vec<u64> = snap.buckets.iter().map(|b| b.index).collect();
        assert_eq!(indices, vec![3, 4, 5], "only the last 3 buckets survive");
    }

    #[test]
    fn stale_slots_are_filtered_from_snapshots() {
        let mut w = windows(4);
        w.record(0, Stage::Total, 10);
        // A long idle gap: bucket 0's slot was never reused but is far
        // outside the window ending at 100.
        let snap = w.snapshot(100);
        assert!(snap.buckets.is_empty());
    }

    #[test]
    fn counters_attach_to_buckets() {
        let mut w = windows(4);
        w.add(1, Metric::Shed, 2);
        w.add(1, Metric::Degraded, 1);
        w.add(1, Metric::Faults, 3);
        w.add(1, Metric::Shed, 1);
        w.add(2, Metric::Shed, 0);
        let snap = w.snapshot(2);
        assert_eq!(snap.buckets.len(), 1, "a zero delta opens no bucket");
        assert_eq!(snap.buckets[0].count(Metric::Shed), 3);
        assert_eq!(snap.buckets[0].count(Metric::Degraded), 1);
        assert_eq!(snap.buckets[0].count(Metric::Faults), 3);
    }

    #[test]
    fn bucket_index_uses_the_configured_duration() {
        let w = StageWindows::new(WindowConfig {
            bucket: Duration::from_millis(250),
            buckets: 8,
        });
        assert_eq!(w.bucket_index(Duration::from_millis(0)), 0);
        assert_eq!(w.bucket_index(Duration::from_millis(249)), 0);
        assert_eq!(w.bucket_index(Duration::from_millis(1_000)), 4);
    }

    #[test]
    fn rollover_exactly_at_the_window_boundary_reclaims_the_slot() {
        let mut w = windows(4);
        w.record(0, Stage::Total, 111);
        // Bucket 4 maps onto bucket 0's slot: one full window later,
        // exactly at the boundary. The old samples must vanish, not
        // bleed into the new bucket.
        w.record(4, Stage::Total, 222);
        let snap = w.snapshot(4);
        let indices: Vec<u64> = snap.buckets.iter().map(|b| b.index).collect();
        assert_eq!(indices, vec![4], "bucket 0 left the window at t=4");
        assert_eq!(snap.buckets[0].lat[0].count, 1);
        assert_eq!(snap.buckets[0].lat[0].p50_us, 222, "no stale samples");
        // The boundary instant itself maps to the *new* bucket.
        assert_eq!(w.bucket_index(Duration::from_secs(4)), 4);
        assert_eq!(w.bucket_index(Duration::from_nanos(3_999_999_999)), 3);
    }

    #[test]
    fn disjoint_window_merge_is_exact_concatenation() {
        let mut early = windows(4);
        early.record(0, Stage::Total, 100);
        early.record(1, Stage::Total, 150);
        early.add(1, Metric::Requests, 1);
        let mut late = windows(4);
        late.record(7, Stage::Total, 900);
        late.add(8, Metric::Shed, 2);
        late.add(8, Metric::Faults, 1);
        let a = early.snapshot(1);
        let b = late.snapshot(8);
        let merged = a.merge(&b);
        let indices: Vec<u64> = merged.buckets.iter().map(|x| x.index).collect();
        assert_eq!(indices, vec![0, 1, 7, 8], "sorted union, nothing summed");
        assert_eq!(merged.buckets[2].lat[0].p50_us, 900);
        assert_eq!(merged.buckets[3].count(Metric::Shed), 2);
        assert_eq!(b.merge(&a), merged, "merge is symmetric on disjoint input");
        // Overlapping buckets sum counts and take the conservative
        // quantile bound.
        let mut other = windows(4);
        other.record(1, Stage::Total, 50);
        other.add(1, Metric::Requests, 1);
        let overlapped = a.merge(&other.snapshot(1));
        let b1 = overlapped.buckets.iter().find(|x| x.index == 1).unwrap();
        assert_eq!(b1.count(Metric::Requests), 2);
        assert_eq!(b1.lat[0].count, 2);
        let p99_150 = a.buckets[1].lat[0].p99_us;
        assert_eq!(b1.lat[0].p99_us, p99_150, "max of the two sides' p99");
    }

    #[test]
    fn zero_sample_buckets_answer_percentiles_without_lat_rows() {
        let mut w = windows(4);
        // A bucket created by counters alone holds zero latency samples.
        w.add(2, Metric::Shed, 1);
        let snap = w.snapshot(2);
        assert_eq!(snap.buckets.len(), 1);
        assert!(snap.buckets[0].lat.is_empty(), "empty stages are omitted");
        // Quantiles of an empty histogram are defined (zero), so even a
        // direct query on the backing slot cannot panic.
        let h = Histogram::new();
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.max(), 0);
        assert!(h.is_empty());
        // And a fully empty window snapshots to nothing at all.
        let empty = windows(4).snapshot(10);
        assert!(empty.buckets.is_empty());
        assert!(empty.merge(&snap).buckets == snap.buckets, "identity merge");
    }

    #[test]
    fn lat_encoding_roundtrips() {
        let bucket = WindowBucket {
            index: 5,
            lat: vec![
                WindowStage {
                    stage: "inference".into(),
                    count: 10,
                    p50_us: 420,
                    p99_us: 990,
                },
                WindowStage {
                    stage: "total".into(),
                    count: 10,
                    p50_us: 500,
                    p99_us: 1_200,
                },
            ],
            ..WindowBucket::default()
        };
        let encoded = bucket.encode_lat();
        assert_eq!(encoded, "inference:10:420:990 total:10:500:1200");
        assert_eq!(WindowBucket::decode_lat(&encoded), bucket.lat);
        assert!(WindowBucket::decode_lat("").is_empty());
        assert!(WindowBucket::decode_lat("garbage").is_empty());
    }
}
