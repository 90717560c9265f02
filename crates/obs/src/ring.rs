//! A fixed-capacity, lock-free ring buffer of POD span records.
//!
//! One [`SpanRing`] belongs to exactly one writing thread (the
//! [`crate::recorder::Recorder`] hands each thread its own ring), so the
//! write side is single-producer: a relaxed atomic cursor claims the next
//! slot and a per-slot sequence word makes concurrent reads safe. The
//! hot path performs no allocation and takes no locks — pushing a record
//! is one `fetch_add` plus five plain atomic stores, and one load of the
//! read cursor to report the backlog the recorder drains by.
//!
//! The sequence word doubles as a generation tag: slot `n & mask` holds
//! `2n + 2` once push `n` has completed (and `2n + 1` while it is in
//! progress). A reader that expects push `n` therefore detects both torn
//! reads *and* slots that a faster writer has already lapped, so records
//! are folded into the aggregate histograms exactly once.

use crate::span::{SpanRecord, Stage};
use std::sync::atomic::{fence, AtomicU64, Ordering};

/// Ring capacity per writing thread (records): 16 KiB at 32 bytes per
/// slot. The recorder drains a writer's ring from the writer itself once
/// half of it is undrained (see `Recorder::record`), so the ring only
/// has to absorb the spans recorded while a scrape holds the lock.
const CAPACITY: usize = 512;

struct Slot {
    /// `2n + 2` after push `n` completed, `2n + 1` while it is written.
    seq: AtomicU64,
    request_id: AtomicU64,
    /// Stage discriminant in the low byte.
    stage: AtomicU64,
    duration_nanos: AtomicU64,
}

/// A single-writer, multi-reader ring of [`SpanRecord`]s.
pub struct SpanRing {
    slots: Box<[Slot]>,
    mask: u64,
    /// Total records ever pushed (the write cursor).
    pushed: AtomicU64,
    /// Total records folded out by [`SpanRing::drain`] (the read cursor).
    /// Only the aggregating reader advances this, under the recorder's
    /// aggregation lock.
    consumed: AtomicU64,
}

impl SpanRing {
    /// Creates a ring of `CAPACITY` slots.
    pub(crate) fn new() -> SpanRing {
        SpanRing::with_capacity(CAPACITY)
    }

    /// Creates a ring with `capacity` slots (rounded up to a power of
    /// two, minimum 64).
    fn with_capacity(capacity: usize) -> SpanRing {
        let cap = capacity.max(64).next_power_of_two();
        let slots = (0..cap)
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                request_id: AtomicU64::new(0),
                stage: AtomicU64::new(0),
                duration_nanos: AtomicU64::new(0),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        SpanRing {
            slots,
            mask: (cap - 1) as u64,
            pushed: AtomicU64::new(0),
            consumed: AtomicU64::new(0),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total records pushed over the ring's lifetime.
    pub fn pushed(&self) -> u64 {
        self.pushed.load(Ordering::Relaxed)
    }

    /// Records one span and returns the ring's undrained backlog,
    /// this record included. Lock-free and allocation-free; must only be
    /// called from the thread that owns this ring.
    pub fn push(&self, record: SpanRecord) -> u64 {
        let n = self.pushed.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(n & self.mask) as usize];
        slot.seq.store(2 * n + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        slot.request_id.store(record.request_id, Ordering::Relaxed);
        slot.stage
            .store(record.stage as u8 as u64, Ordering::Relaxed);
        slot.duration_nanos
            .store(record.duration_nanos, Ordering::Relaxed);
        slot.seq.store(2 * n + 2, Ordering::Release);
        (n + 1).saturating_sub(self.consumed.load(Ordering::Relaxed))
    }

    /// Folds every record pushed since the previous drain into `f`,
    /// advancing the read cursor. Returns the number of records lost to
    /// lapping (overwritten before this drain, or torn by a concurrent
    /// lap mid-read).
    ///
    /// Intended to be called by one aggregating reader at a time (the
    /// recorder serialises drains behind its aggregation lock, whether a
    /// scrape or the writer itself drains); the writer may keep pushing
    /// concurrently.
    pub fn drain(&self, mut f: impl FnMut(SpanRecord)) -> u64 {
        let to = self.pushed.load(Ordering::Acquire);
        let from = self.consumed.load(Ordering::Relaxed);
        let cap = self.slots.len() as u64;
        // Records older than one lap are already gone.
        let start = from.max(to.saturating_sub(cap));
        let mut dropped = start - from;
        let mut stop = to;
        for n in start..to {
            let slot = &self.slots[(n & self.mask) as usize];
            let expected = 2 * n + 2;
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 < expected {
                // Push `n` claimed its slot but has not finished writing
                // it; leave it (and everything after) for the next drain.
                stop = n;
                break;
            }
            if s1 > expected {
                // A newer push owns the slot: `n` was lapped and is gone.
                dropped += 1;
                continue;
            }
            let request_id = slot.request_id.load(Ordering::Relaxed);
            let stage = slot.stage.load(Ordering::Relaxed);
            let duration_nanos = slot.duration_nanos.load(Ordering::Relaxed);
            fence(Ordering::Acquire);
            let s2 = slot.seq.load(Ordering::Relaxed);
            if s2 != expected {
                // Overwritten mid-read; the data is torn and unusable.
                dropped += 1;
                continue;
            }
            match Stage::from_u8(stage as u8) {
                Some(stage) => f(SpanRecord {
                    request_id,
                    stage,
                    duration_nanos,
                }),
                None => dropped += 1,
            }
        }
        self.consumed.store(stop, Ordering::Relaxed);
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, nanos: u64) -> SpanRecord {
        SpanRecord {
            request_id: id,
            stage: Stage::Inference,
            duration_nanos: nanos,
        }
    }

    #[test]
    fn push_then_drain_roundtrips_in_order() {
        let ring = SpanRing::with_capacity(64);
        for i in 0..10 {
            ring.push(rec(i, i * 100));
        }
        let mut seen = Vec::new();
        let dropped = ring.drain(|r| seen.push(r.request_id));
        assert_eq!(dropped, 0);
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn drain_is_incremental() {
        let ring = SpanRing::with_capacity(64);
        ring.push(rec(1, 10));
        let mut count = 0;
        ring.drain(|_| count += 1);
        assert_eq!(count, 1);
        ring.push(rec(2, 20));
        ring.push(rec(3, 30));
        let mut ids = Vec::new();
        ring.drain(|r| ids.push(r.request_id));
        assert_eq!(ids, vec![2, 3]);
    }

    #[test]
    fn push_reports_the_undrained_backlog() {
        let ring = SpanRing::new();
        assert_eq!(ring.capacity(), CAPACITY);
        assert_eq!(ring.push(rec(1, 10)), 1);
        assert_eq!(ring.push(rec(2, 20)), 2);
        ring.drain(|_| {});
        assert_eq!(ring.push(rec(3, 30)), 1);
    }

    #[test]
    fn lapping_drops_oldest_records() {
        let ring = SpanRing::with_capacity(64); // rounds to 64 slots
        for i in 0..100 {
            ring.push(rec(i, 0));
        }
        let mut ids = Vec::new();
        let dropped = ring.drain(|r| ids.push(r.request_id));
        assert_eq!(dropped, 36);
        assert_eq!(ids.first(), Some(&36));
        assert_eq!(ids.len(), 64);
        assert_eq!(ids.last(), Some(&99));
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(SpanRing::with_capacity(100).capacity(), 128);
        assert_eq!(SpanRing::with_capacity(1).capacity(), 64);
    }

    #[test]
    fn concurrent_drain_never_yields_torn_or_duplicate_records() {
        use std::sync::Arc;
        let ring = Arc::new(SpanRing::with_capacity(256));
        let writer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                for i in 0..200_000u64 {
                    // id and duration always agree; a torn read would break that.
                    ring.push(rec(i, i * 7));
                }
            })
        };
        let mut last_seen = None;
        let mut total = 0u64;
        let mut dropped = 0u64;
        while !writer.is_finished() {
            dropped += ring.drain(|r| {
                assert_eq!(r.duration_nanos, r.request_id * 7, "torn record");
                if let Some(prev) = last_seen {
                    assert!(r.request_id > prev, "duplicate or reordered record");
                }
                last_seen = Some(r.request_id);
                total += 1;
            });
        }
        writer.join().unwrap();
        dropped += ring.drain(|r| {
            assert_eq!(r.duration_nanos, r.request_id * 7);
            total += 1;
        });
        assert_eq!(
            total + dropped,
            200_000,
            "every push accounted exactly once"
        );
    }
}
