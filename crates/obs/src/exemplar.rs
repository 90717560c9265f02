//! Tail-latency forensics: a bounded slowest-N-per-window exemplar
//! store.
//!
//! Quantiles say *that* the p99.9 is slow; an exemplar says *why*. The
//! serving layer offers each finished request to
//! [`ExemplarStore::offer`] with its complete stage span set (the
//! trace shape): only what that request measured itself, so nothing a
//! concurrent request did lands in its record. The store keeps only the
//! slowest [`SLOTS`] requests of the current time window (older windows
//! age out), so a post-hoc `/debug/slow` scrape shows the freshest
//! outliers with parse/queue/compute/serialize attribution, in Chrome
//! `trace_event` JSON.
//!
//! Budget: like the span rings, **zero steady-state allocation** on the
//! request path. Every slot is fixed-size and preallocated at
//! construction; `offer` copies bounded arrays under a mutex and never
//! touches the heap. Rendering allocates freely — it is the scrape path.

use crate::span::Stage;
use parking_lot::Mutex;
use std::time::{Duration, Instant};

/// Exemplar slots kept per window — the "N" of slowest-N.
pub const SLOTS: usize = 8;

/// Stage spans one exemplar retains (the pipeline has 6 stages, see
/// [`Stage`]; two spare for forward compatibility).
pub const MAX_STAGES: usize = 8;

/// Longest request-id prefix retained per exemplar.
pub const MAX_RID: usize = 64;

/// Default exemplar window length.
pub const DEFAULT_WINDOW: Duration = Duration::from_secs(10);

/// One row of [`ExemplarStore::snapshot`]: request id, total nanos,
/// and the retained `(stage, duration_nanos)` spans in offer order.
pub type ExemplarRow = (String, u64, Vec<(Stage, u64)>);

/// One retained slow request. Fixed-size so slot replacement is a copy.
#[derive(Clone)]
struct Slot {
    used: bool,
    /// Window bucket (store-epoch-relative) the request completed in.
    bucket: u64,
    total_nanos: u64,
    rid_len: u8,
    rid: [u8; MAX_RID],
    stages_len: u8,
    /// `(stage as u8, duration_nanos)` in offer order.
    stages: [(u8, u64); MAX_STAGES],
}

const EMPTY_SLOT: Slot = Slot {
    used: false,
    bucket: 0,
    total_nanos: 0,
    rid_len: 0,
    rid: [0; MAX_RID],
    stages_len: 0,
    stages: [(0, 0); MAX_STAGES],
};

/// The bounded slowest-N-per-window store. One per [`crate::Recorder`].
pub struct ExemplarStore {
    epoch: Instant,
    window: Duration,
    slots: Mutex<Vec<Slot>>,
}

impl Default for ExemplarStore {
    fn default() -> Self {
        Self::new()
    }
}

impl ExemplarStore {
    /// Creates a store with the default window.
    pub fn new() -> ExemplarStore {
        ExemplarStore::with_window(DEFAULT_WINDOW)
    }

    /// Creates a store with an explicit window length (clamped to at
    /// least 1 ms so bucket arithmetic stays sane).
    pub fn with_window(window: Duration) -> ExemplarStore {
        ExemplarStore {
            epoch: Instant::now(),
            window: window.max(Duration::from_millis(1)),
            slots: Mutex::new(vec![EMPTY_SLOT; SLOTS]),
        }
    }

    fn bucket_now(&self) -> u64 {
        (self.epoch.elapsed().as_nanos() / self.window.as_nanos().max(1)) as u64
    }

    /// A slot older than the previous window has aged out.
    fn expired(slot: &Slot, current: u64) -> bool {
        !slot.used || slot.bucket + 1 < current
    }

    /// Offers a finished request. It is retained iff it ranks among the
    /// slowest of the current window: free/aged slots are claimed first,
    /// then the window's current minimum is displaced when
    /// `total_nanos` beats it. Allocation-free: bounded copies only
    /// (`rid` truncates to [`MAX_RID`] bytes, stages to
    /// [`MAX_STAGES`]).
    pub fn offer(&self, rid: &str, stages: &[(Stage, u64)], total_nanos: u64) {
        let current = self.bucket_now();
        let mut slots = self.slots.lock();
        // Claim order: an expired slot, else the cheapest displaceable
        // slot — previous-window entries go before current-window ones,
        // then by total — and only if this request beats it.
        let mut target: Option<usize> = None;
        for (i, slot) in slots.iter().enumerate() {
            if Self::expired(slot, current) {
                target = Some(i);
                break;
            }
        }
        if target.is_none() {
            let victim = slots
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| (s.bucket, s.total_nanos))
                .map(|(i, _)| i);
            target =
                victim.filter(|&i| slots[i].bucket < current || slots[i].total_nanos < total_nanos);
        }
        let Some(i) = target else { return };
        let slot = &mut slots[i];
        slot.used = true;
        slot.bucket = current;
        slot.total_nanos = total_nanos;
        let rid_bytes = rid.as_bytes();
        let n = rid_bytes.len().min(MAX_RID);
        slot.rid[..n].copy_from_slice(&rid_bytes[..n]);
        slot.rid_len = n as u8;
        let m = stages.len().min(MAX_STAGES);
        for (dst, &(stage, nanos)) in slot.stages.iter_mut().zip(&stages[..m]) {
            *dst = (stage as u8, nanos);
        }
        slot.stages_len = m as u8;
    }

    /// Live (non-aged) exemplars, slowest first, as
    /// `(rid, total_nanos, stage spans)` rows. For tests and reports.
    pub fn snapshot(&self) -> Vec<ExemplarRow> {
        let current = self.bucket_now();
        let slots = self.slots.lock();
        let mut rows: Vec<ExemplarRow> = slots
            .iter()
            .filter(|s| !Self::expired(s, current))
            .map(|s| {
                let rid = String::from_utf8_lossy(&s.rid[..s.rid_len as usize]).into_owned();
                let stages = s.stages[..s.stages_len as usize]
                    .iter()
                    .filter_map(|&(code, nanos)| Some((Stage::from_u8(code)?, nanos)))
                    .collect();
                (rid, s.total_nanos, stages)
            })
            .collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.1));
        rows
    }

    /// Renders the live exemplars as Chrome `trace_event` JSON: one
    /// process row per exemplar, the `total` span enclosing the
    /// component stages tiled cumulatively.
    pub fn render_chrome_json(&self) -> String {
        let us = |nanos: u64| nanos as f64 / 1_000.0;
        let current = self.bucket_now();
        let slots = self.slots.lock();
        let mut live: Vec<&Slot> = slots
            .iter()
            .filter(|s| !Self::expired(s, current))
            .collect();
        live.sort_by_key(|s| std::cmp::Reverse(s.total_nanos));
        let mut out = String::with_capacity(1024 + live.len() * 512);
        out.push_str("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        let mut first = true;
        let mut push = |out: &mut String, ev: String| {
            if !std::mem::take(&mut first) {
                out.push_str(",\n");
            }
            out.push_str(&ev);
        };
        for (row, slot) in live.iter().enumerate() {
            let rid = String::from_utf8_lossy(&slot.rid[..slot.rid_len as usize]).into_owned();
            let rid = rid.replace(['"', '\\'], "_");
            push(
                &mut out,
                format!(
                    "{{\"ph\": \"M\", \"pid\": {row}, \"name\": \"process_name\", \
                     \"args\": {{\"name\": \"slow exemplar {row} ({}us)\"}}}}",
                    slot.total_nanos / 1_000
                ),
            );
            push(
                &mut out,
                format!(
                    "{{\"ph\": \"X\", \"name\": \"total\", \"cat\": \"exemplar\", \
                     \"pid\": {row}, \"tid\": 0, \"ts\": 0.000, \"dur\": {:.3}, \
                     \"args\": {{\"rid\": \"{rid}\", \"window\": {}}}}}",
                    us(slot.total_nanos),
                    slot.bucket,
                ),
            );
            // Component stages tile cumulatively inside the total, in
            // pipeline order (the recorded order), skipping the total
            // span itself.
            let mut at = 0u64;
            for &(code, nanos) in &slot.stages[..slot.stages_len as usize] {
                let Some(stage) = Stage::from_u8(code) else {
                    continue;
                };
                if stage == Stage::Total {
                    continue;
                }
                push(
                    &mut out,
                    format!(
                        "{{\"ph\": \"X\", \"name\": \"{}\", \"cat\": \"exemplar\", \
                         \"pid\": {row}, \"tid\": 0, \"ts\": {:.3}, \"dur\": {:.3}}}",
                        stage.name(),
                        us(at),
                        us(nanos),
                    ),
                );
                at += nanos;
            }
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stages(parse: u64, queue: u64, inf: u64) -> Vec<(Stage, u64)> {
        vec![
            (Stage::Parse, parse),
            (Stage::Queue, queue),
            (Stage::Inference, inf),
            (Stage::Total, parse + queue + inf),
        ]
    }

    #[test]
    fn slowest_requests_displace_faster_ones() {
        let store = ExemplarStore::new();
        for i in 0..SLOTS as u64 + 4 {
            let total = 1_000 * (i + 1);
            store.offer(&format!("req-{i}"), &stages(100, 200, total - 300), total);
        }
        let rows = store.snapshot();
        assert_eq!(rows.len(), SLOTS, "store is bounded");
        // The fastest 4 offers were displaced; the slowest survive,
        // slowest first.
        assert_eq!(rows[0].0, format!("req-{}", SLOTS + 3));
        assert!(rows.iter().all(|r| r.1 > 4_000));
        assert!(rows.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn fast_requests_do_not_displace_slow_ones() {
        let store = ExemplarStore::new();
        for i in 0..SLOTS as u64 {
            store.offer("slow", &stages(0, 0, 9_000_000), 9_000_000 + i);
        }
        store.offer("fast", &stages(0, 0, 10), 10);
        assert!(store.snapshot().iter().all(|r| r.0 == "slow"));
    }

    #[test]
    fn old_windows_age_out() {
        let store = ExemplarStore::with_window(Duration::from_millis(5));
        store.offer("early", &stages(1, 1, 1), 1_000_000_000);
        assert_eq!(store.snapshot().len(), 1);
        // Two windows later the exemplar is gone and its slot reusable
        // by an arbitrarily fast request.
        std::thread::sleep(Duration::from_millis(12));
        assert!(store.snapshot().is_empty(), "aged exemplar still served");
        store.offer("late", &stages(1, 1, 1), 3);
        let rows = store.snapshot();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, "late");
    }

    #[test]
    fn stage_spans_round_trip() {
        let store = ExemplarStore::new();
        store.offer("rt", &stages(100, 2_000, 30_000), 32_100);
        let rows = store.snapshot();
        assert_eq!(rows[0].2.len(), 4);
        assert_eq!(rows[0].2[1], (Stage::Queue, 2_000));
    }

    #[test]
    fn chrome_export_is_wellformed_and_tiled() {
        let store = ExemplarStore::new();
        store.offer("chrome-test", &stages(1_000, 2_000, 3_000), 6_000);
        let json = store.render_chrome_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"chrome-test\""));
        assert!(json.contains("\"queue\""));
        assert!(json.contains("\"inference\""));
        let depth = json.chars().fold(0i64, |d, c| match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0, "unbalanced JSON:\n{json}");
    }

    #[test]
    fn long_rids_truncate_instead_of_allocating() {
        let store = ExemplarStore::new();
        let long = "x".repeat(500);
        store.offer(&long, &stages(1, 1, 1), 100);
        let rows = store.snapshot();
        assert_eq!(rows[0].0.len(), MAX_RID);
    }
}
