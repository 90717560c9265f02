//! The per-server span recorder: thread-ring registry and aggregation
//! into per-stage histograms.

use crate::exemplar::ExemplarStore;
use crate::metric::{Metric, TABLE};
use crate::ring::SpanRing;
use crate::span::{SpanRecord, Stage};
use crate::stats::{ReactorTelemetry, StageStats, StatsSnapshot};
use etude_metrics::hdr::Histogram;
use parking_lot::Mutex;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

static NEXT_RECORDER_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Each thread's rings, keyed by recorder id. Tiny (one entry per
    /// live recorder this thread has written to), scanned linearly.
    static THREAD_RINGS: RefCell<Vec<(u64, Arc<SpanRing>)>> = const { RefCell::new(Vec::new()) };
}

/// Cumulative aggregation state, folded from the rings by scrapes and by
/// each writer whose ring is half full.
struct Aggregate {
    stages: [Histogram; Stage::ALL.len()],
    /// Raw records retained for per-request joins (tests). Only
    /// populated while retention is on.
    retained: Vec<SpanRecord>,
}

/// Records server-side stage spans into per-thread rings and aggregates
/// them into per-stage HDR histograms.
///
/// One recorder per server. Recording is allocation-free in steady
/// state (the first span a thread records registers its ring, which
/// allocates once) and lock-free but for one span in every half ring:
/// that one drains the writer's own ring into the aggregate when the
/// aggregation lock is free (see [`Recorder::record`]). Scrapes
/// ([`Recorder::snapshot`], driven by `/metrics`, `/stats` or an
/// end-of-run scrape) drain every ring under the same lock.
pub struct Recorder {
    id: u64,
    rings: Mutex<Vec<Arc<SpanRing>>>,
    agg: Mutex<Aggregate>,
    retain: AtomicBool,
    /// One cheap atomic per row of the metric table, bumped or set by
    /// the serving layer and copied into every snapshot (and from there
    /// onto `/stats` and `/metrics`).
    scalars: [AtomicU64; Metric::COUNT],
    /// This pod's id, stamped into snapshots; `None` on standalone
    /// servers.
    pod: Option<u32>,
    /// Slowest-requests-per-window forensics store (`/debug/slow`).
    exemplars: ExemplarStore,
    /// Optional probe filling [`StatsSnapshot::reactor`]; installed by
    /// the reactor serving tier, absent on thread-pool servers.
    reactor_probe: Mutex<Option<Box<dyn Fn() -> ReactorTelemetry + Send + Sync>>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// Creates a recorder with no rings yet.
    pub fn new() -> Recorder {
        Recorder {
            id: NEXT_RECORDER_ID.fetch_add(1, Ordering::Relaxed),
            rings: Mutex::new(Vec::new()),
            agg: Mutex::new(Aggregate {
                stages: std::array::from_fn(|_| Histogram::new()),
                retained: Vec::new(),
            }),
            retain: AtomicBool::new(false),
            scalars: std::array::from_fn(|_| AtomicU64::new(0)),
            pod: None,
            exemplars: ExemplarStore::new(),
            reactor_probe: Mutex::new(None),
        }
    }

    /// Creates a recorder carrying a pod id (stamped into every
    /// snapshot).
    pub fn with_pod(pod: u32) -> Recorder {
        let mut r = Recorder::new();
        r.pod = Some(pod);
        r
    }

    /// This recorder's pod id, when it has one.
    pub fn pod(&self) -> Option<u32> {
        self.pod
    }

    /// Counts one occurrence of a counter metric.
    pub fn bump(&self, metric: Metric) {
        self.add(metric, 1);
    }

    /// Adds `n` to a counter metric.
    pub fn add(&self, metric: Metric, n: u64) {
        self.scalars[metric as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Publishes a gauge metric's current level.
    pub fn set(&self, metric: Metric, value: u64) {
        self.scalars[metric as usize].store(value, Ordering::Relaxed);
    }

    /// A metric's current value ([`Metric::Requests`] and
    /// [`Metric::Dropped`]: as of the last drain).
    pub fn get(&self, metric: Metric) -> u64 {
        self.scalars[metric as usize].load(Ordering::Relaxed)
    }

    /// The slowest-requests exemplar store backing `/debug/slow`.
    pub fn exemplars(&self) -> &ExemplarStore {
        &self.exemplars
    }

    /// Installs (or clears) the probe the reactor tier uses to surface
    /// its event-loop telemetry in every snapshot.
    pub fn set_reactor_probe(
        &self,
        probe: Option<Box<dyn Fn() -> ReactorTelemetry + Send + Sync>>,
    ) {
        *self.reactor_probe.lock() = probe;
    }

    /// Turns raw-record retention on or off. While on, every record that
    /// reaches aggregation is also kept verbatim for [`Recorder::take_records`].
    pub fn set_record_retention(&self, on: bool) {
        self.retain.store(on, Ordering::Relaxed);
    }

    /// Records one finished span.
    ///
    /// Once half of this thread's ring is undrained, the writer drains it
    /// into the aggregate itself if the aggregation lock is free, and
    /// retries on its next span if a scrape holds it. Only a full ring
    /// waits for the lock: the next span would overwrite an undrained
    /// one, and a short wait behind a scrape is cheaper than a lost span.
    pub fn record(&self, request_id: u64, stage: Stage, duration_nanos: u64) {
        self.with_ring(|ring| {
            let backlog = ring.push(SpanRecord {
                request_id,
                stage,
                duration_nanos,
            });
            if backlog >= ring.capacity() as u64 / 2 {
                self.drain_own(ring, backlog);
            }
        });
    }

    /// The writer-side drain of [`Recorder::record`].
    #[cold]
    fn drain_own(&self, ring: &SpanRing, backlog: u64) {
        let agg = if backlog >= ring.capacity() as u64 {
            Some(self.agg.lock())
        } else {
            self.agg.try_lock()
        };
        if let Some(mut agg) = agg {
            self.absorb(&mut agg, [ring]);
        }
    }

    /// Runs `f` with this thread's ring, registering one on first use.
    fn with_ring<R>(&self, f: impl FnOnce(&SpanRing) -> R) -> R {
        THREAD_RINGS.with(|cell| {
            let mut rings = cell.borrow_mut();
            if let Some((_, ring)) = rings.iter().find(|(id, _)| *id == self.id) {
                return f(ring);
            }
            // Cold path: first span from this thread. Drop rings of dead
            // recorders (we hold their last Arc), then register.
            rings.retain(|(_, ring)| Arc::strong_count(ring) > 1);
            let ring = Arc::new(SpanRing::new());
            self.rings.lock().push(Arc::clone(&ring));
            rings.push((self.id, Arc::clone(&ring)));
            f(&ring)
        })
    }

    /// Folds all ring contents into the cumulative aggregate.
    ///
    /// Allocation-free while retention is off: the rings are iterated
    /// under their lock (no registry clone) and the histograms record in
    /// place.
    fn fold(&self) {
        let rings = self.rings.lock();
        self.absorb(&mut self.agg.lock(), rings.iter().map(|ring| &**ring));
    }

    /// Drains `rings` into `agg`; holding `agg`'s lock is what serialises
    /// the drains of scrapes and writers.
    fn absorb<'r>(&self, agg: &mut Aggregate, rings: impl IntoIterator<Item = &'r SpanRing>) {
        let retain = self.retain.load(Ordering::Relaxed);
        let mut dropped = 0;
        for ring in rings {
            dropped += ring.drain(|record| {
                agg.stages[record.stage as u8 as usize].record(record.duration_micros());
                if retain {
                    agg.retained.push(record);
                }
            });
        }
        // The two derived metrics: nobody bumps them, the drains do.
        self.add(Metric::Dropped, dropped);
        self.set(
            Metric::Requests,
            agg.stages[Stage::Total as u8 as usize].count(),
        );
    }

    /// Drains every thread's ring into the aggregate now, without
    /// building a snapshot, so [`Recorder::get`] sees everything recorded
    /// so far. Allocation-free while retention is off. Nothing needs it
    /// to keep rings from lapping: writers drain their own (see
    /// [`Recorder::record`]).
    pub fn sync(&self) {
        self.fold();
    }

    /// Aggregates everything recorded so far into per-stage statistics.
    pub fn snapshot(&self) -> StatsSnapshot {
        self.fold();
        let mut snap = StatsSnapshot {
            pod: self.pod,
            reactor: self.reactor_probe.lock().as_ref().map(|probe| probe()),
            ..StatsSnapshot::default()
        };
        let agg = self.agg.lock();
        for (stage, h) in Stage::ALL.iter().zip(&agg.stages) {
            if h.is_empty() {
                continue;
            }
            snap.stages.push(StageStats {
                stage: stage.name().to_string(),
                count: h.count(),
                mean_us: h.mean(),
                p50_us: h.p50(),
                p90_us: h.p90(),
                p99_us: h.p99(),
                max_us: h.max(),
            });
        }
        for def in &TABLE {
            snap.set(def.metric, self.get(def.metric));
        }
        snap
    }

    /// Drains and returns the raw records retained since retention was
    /// enabled (folding the rings first).
    pub fn take_records(&self) -> Vec<SpanRecord> {
        self.fold();
        std::mem::take(&mut self.agg.lock().retained)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorded_spans_show_up_in_the_snapshot() {
        let r = Recorder::new();
        r.record(1, Stage::Parse, 5_000);
        r.record(1, Stage::Inference, 250_000);
        r.record(1, Stage::Total, 260_000);
        let snap = r.snapshot();
        assert_eq!(snap.requests, 1);
        assert_eq!(snap.dropped, 0);
        let parse = snap.stage("parse").unwrap();
        assert_eq!(parse.count, 1);
        assert_eq!(parse.p50_us, 5);
        assert!(snap.stage("queue").is_none(), "unrecorded stages omitted");
    }

    #[test]
    fn snapshots_are_cumulative_across_folds() {
        let r = Recorder::new();
        r.record(1, Stage::Total, 1_000);
        assert_eq!(r.snapshot().requests, 1);
        r.record(2, Stage::Total, 1_000);
        assert_eq!(r.snapshot().requests, 2);
    }

    #[test]
    fn spans_from_many_threads_merge() {
        let r = Arc::new(Recorder::new());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let r = Arc::clone(&r);
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    r.record(t * 1_000 + i, Stage::Total, 1_000_000 * (t + 1));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = r.snapshot();
        assert_eq!(snap.requests, 400);
        let total = snap.stage("total").unwrap();
        assert_eq!(total.max_us, 4_000, "4ms recorded by the slowest thread");
    }

    #[test]
    fn retention_keeps_raw_records_for_joins() {
        let r = Recorder::new();
        r.set_record_retention(true);
        r.record(9, Stage::Parse, 100);
        r.record(9, Stage::Total, 300);
        let records = r.take_records();
        assert_eq!(records.len(), 2);
        assert!(records.iter().all(|rec| rec.request_id == 9));
        assert!(r.take_records().is_empty(), "take drains");
        // The aggregate still saw them.
        assert_eq!(r.snapshot().requests, 1);
    }

    #[test]
    fn resilience_counters_flow_into_snapshots() {
        let r = Recorder::new();
        r.bump(Metric::Shed);
        r.bump(Metric::Shed);
        r.bump(Metric::Degraded);
        r.bump(Metric::Faults);
        let snap = r.snapshot();
        assert_eq!(snap.shed, 2);
        assert_eq!(snap.degraded, 1);
        assert_eq!(snap.faults, 1);
        assert_eq!(r.get(Metric::Shed), 2);
        assert_eq!(r.get(Metric::Degraded), 1);
    }

    #[test]
    fn snapshots_carry_pod_and_queue() {
        let r = Recorder::with_pod(3);
        r.set(Metric::QueueDepth, 17);
        r.record(1, Stage::Inference, 2_000_000);
        r.record(1, Stage::Total, 2_500_000);
        let snap = r.snapshot();
        assert_eq!(snap.pod, Some(3));
        assert_eq!(snap.queue_depth, 17);
        assert_eq!(snap.stage("total").unwrap().count, 1);
    }

    #[test]
    fn reactor_probe_feeds_snapshots_when_installed() {
        let r = Recorder::new();
        assert!(r.snapshot().reactor.is_none(), "no probe, no telemetry");
        r.set_reactor_probe(Some(Box::new(|| ReactorTelemetry {
            loops: 3,
            busy_nanos: 10,
            wait_nanos: 30,
            ..ReactorTelemetry::default()
        })));
        let snap = r.snapshot();
        let reactor = snap.reactor.expect("probe consulted");
        assert_eq!(reactor.loops, 3);
        assert!((reactor.utilization() - 0.25).abs() < 1e-9);
        r.set_reactor_probe(None);
        assert!(r.snapshot().reactor.is_none(), "probe cleared");
    }

    #[test]
    fn two_recorders_on_one_thread_stay_separate() {
        let a = Recorder::new();
        let b = Recorder::new();
        a.record(1, Stage::Total, 10);
        b.record(2, Stage::Total, 20);
        b.record(3, Stage::Total, 30);
        assert_eq!(a.snapshot().requests, 1);
        assert_eq!(b.snapshot().requests, 2);
    }
}
