//! An HDR-style (high dynamic range) latency histogram.
//!
//! Values are recorded in microseconds into logarithmically organised
//! buckets with bounded relative error (~1.5% with 64 sub-buckets per
//! octave), covering 1 µs to ~1 hour. Recording is O(1) and allocation
//! free; quantile queries walk the bucket array once. This mirrors what
//! HdrHistogram provides to real load generators (the paper's Java
//! implementation uses the equivalent), without the external dependency.

use std::time::Duration;

const SUB_BUCKET_BITS: u32 = 6; // 64 sub-buckets per power of two
const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS;
const OCTAVES: usize = 32; // covers 2^32 µs ~ 71 minutes

/// A fixed-size log-bucketed histogram of microsecond values.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    max: u64,
    min: u64,
    sum: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            counts: vec![0; OCTAVES * SUB_BUCKETS],
            total: 0,
            max: 0,
            min: u64::MAX,
            sum: 0,
        }
    }

    fn index_for(value: u64) -> usize {
        let v = value.max(1);
        let octave = (63 - v.leading_zeros()) as usize;
        if octave < SUB_BUCKET_BITS as usize {
            // Small values are exact (first SUB_BUCKETS slots).
            return v as usize;
        }
        let shift = octave as u32 - SUB_BUCKET_BITS;
        let sub = ((v >> shift) as usize) & (SUB_BUCKETS - 1);
        let bucket = octave - SUB_BUCKET_BITS as usize + 1;
        (bucket * SUB_BUCKETS + sub).min(OCTAVES * SUB_BUCKETS - 1)
    }

    fn value_for(index: usize) -> u64 {
        if index < SUB_BUCKETS {
            return index as u64;
        }
        let bucket = index / SUB_BUCKETS;
        let sub = index % SUB_BUCKETS;
        let shift = (bucket - 1) as u32;
        ((SUB_BUCKETS + sub) as u64) << shift
    }

    /// Records one microsecond value.
    pub fn record(&mut self, micros: u64) {
        let idx = Self::index_for(micros);
        self.counts[idx] += 1;
        self.total += 1;
        self.max = self.max.max(micros);
        self.min = self.min.min(micros);
        self.sum += micros as u128;
    }

    /// Records a duration (converted to microseconds).
    pub fn record_duration(&mut self, d: Duration) {
        self.record(d.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Largest recorded value (exact, not bucketed).
    pub fn max(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.max
        }
    }

    /// Smallest recorded value (exact, not bucketed).
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Mean of recorded values.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Value at quantile `q` in `[0, 1]` (e.g. `0.9` for p90), with the
    /// histogram's relative error. Returns 0 on an empty histogram.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        if rank >= self.total {
            return self.max; // p100 is exact by construction
        }
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            if seen >= rank {
                // Clamp to observed extremes so p100 == max.
                return Self::value_for(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// p50 convenience accessor (microseconds).
    pub fn p50(&self) -> u64 {
        self.value_at_quantile(0.50)
    }

    /// p90 convenience accessor (microseconds) — the paper's headline
    /// latency quantile.
    pub fn p90(&self) -> u64 {
        self.value_at_quantile(0.90)
    }

    /// p99 convenience accessor (microseconds).
    pub fn p99(&self) -> u64 {
        self.value_at_quantile(0.99)
    }

    /// Recorded values strictly greater than `micros`, up to bucket
    /// resolution: a value sharing `micros`'s bucket is not counted, so
    /// the answer is deterministic and identical for any two histograms
    /// with the same bucket counts.
    pub fn count_above(&self, micros: u64) -> u64 {
        let cutoff = Self::index_for(micros);
        self.counts[cutoff + 1..].iter().sum()
    }

    /// Iterates the non-empty buckets as `(bucket index, count)` pairs —
    /// the sparse wire representation of the reactor histograms on
    /// `/stats`.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i as u32, c))
    }

    /// Adds `count` observations into bucket `index`, reconstructing
    /// total/min/max/sum from the bucket's nominal value. Out-of-range
    /// indices are ignored.
    pub fn add_bucket(&mut self, index: u32, count: u64) {
        let idx = index as usize;
        if idx >= self.counts.len() || count == 0 {
            return;
        }
        let value = Self::value_for(idx);
        self.counts[idx] += count;
        self.total += count;
        self.max = self.max.max(value);
        self.min = self.min.min(value);
        self.sum += value as u128 * count as u128;
    }

    /// Rebuilds a histogram from sparse `(bucket index, count)` pairs.
    ///
    /// Min/max/sum are reconstructed from bucket nominal values, so two
    /// histograms built from the same pairs are identical regardless of
    /// where the pairs came from.
    pub fn from_sparse(pairs: &[(u32, u64)]) -> Histogram {
        let mut h = Histogram::new();
        for &(index, count) in pairs {
            h.add_bucket(index, count);
        }
        h
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        if other.total > 0 {
            self.max = self.max.max(other.max);
            self.min = self.min.min(other.min);
        }
    }

    /// Clears all recorded values.
    pub fn reset(&mut self) {
        self.counts.fill(0);
        self.total = 0;
        self.max = 0;
        self.min = u64::MAX;
        self.sum = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 10, 42, 63] {
            h.record(v);
        }
        assert_eq!(h.value_at_quantile(0.0), 1);
        assert_eq!(h.max(), 63);
        assert_eq!(h.count(), 6);
    }

    #[test]
    fn quantiles_match_exact_computation_within_error() {
        let mut h = Histogram::new();
        let values: Vec<u64> = (1..=10_000).collect();
        for &v in &values {
            h.record(v);
        }
        for &q in &[0.5, 0.9, 0.99, 0.999] {
            let exact = values[((q * values.len() as f64).ceil() as usize - 1).min(9999)];
            let est = h.value_at_quantile(q);
            let rel = (est as f64 - exact as f64).abs() / exact as f64;
            assert!(rel < 0.02, "q={q}: exact {exact}, est {est}");
        }
    }

    #[test]
    fn p100_equals_max() {
        let mut h = Histogram::new();
        for v in [5u64, 100, 90_000, 1_234_567] {
            h.record(v);
        }
        assert_eq!(h.value_at_quantile(1.0), 1_234_567);
    }

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = Histogram::new();
        assert_eq!(h.p90(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.is_empty());
    }

    #[test]
    fn merge_combines_counts_and_extremes() {
        let mut a = Histogram::new();
        a.record(10);
        a.record(20);
        let mut b = Histogram::new();
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), 1_000_000);
        assert_eq!(a.min(), 10);
    }

    #[test]
    fn record_duration_uses_micros() {
        let mut h = Histogram::new();
        h.record_duration(Duration::from_millis(50));
        assert_eq!(h.max(), 50_000);
    }

    #[test]
    fn mean_is_exact() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        assert!((h.mean() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn huge_values_do_not_panic() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        assert!(h.value_at_quantile(1.0) > 0);
    }

    #[test]
    fn reset_clears_state() {
        let mut h = Histogram::new();
        h.record(42);
        h.reset();
        assert!(h.is_empty());
        assert_eq!(h.p90(), 0);
    }

    #[test]
    fn count_above_matches_bucketed_tail() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30, 40, 50_000] {
            h.record(v);
        }
        assert_eq!(h.count_above(40), 1, "only the 50ms outlier is above");
        assert_eq!(h.count_above(9), 5, "every recorded value exceeds 9");
        assert_eq!(h.count_above(1_000_000), 0);
    }

    #[test]
    fn sparse_roundtrip_is_bit_identical() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 63, 64, 100, 9_999, 123_456, 123_457] {
            h.record(v);
        }
        let pairs: Vec<(u32, u64)> = h.nonzero_buckets().collect();
        let rebuilt = Histogram::from_sparse(&pairs);
        assert_eq!(rebuilt.count(), h.count());
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            // Quantiles are pure functions of the bucket counts (clamped
            // to reconstructed extremes), so they must agree exactly.
            assert_eq!(
                rebuilt.value_at_quantile(q),
                Histogram::from_sparse(&pairs).value_at_quantile(q)
            );
        }
    }

    #[test]
    fn sparse_merge_is_order_independent() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 1..500u64 {
            a.record(v * 3);
            b.record(v * 7);
        }
        let pa: Vec<(u32, u64)> = a.nonzero_buckets().collect();
        let pb: Vec<(u32, u64)> = b.nonzero_buckets().collect();
        let mut ab = Histogram::from_sparse(&pa);
        for &(i, c) in &pb {
            ab.add_bucket(i, c);
        }
        let mut ba = Histogram::from_sparse(&pb);
        for &(i, c) in &pa {
            ba.add_bucket(i, c);
        }
        assert_eq!(ab.count(), ba.count());
        assert_eq!(ab.p50(), ba.p50());
        assert_eq!(ab.p99(), ba.p99());
        assert_eq!(ab.min(), ba.min());
        assert_eq!(ab.max(), ba.max());
        assert_eq!(ab.mean(), ba.mean());
    }

    #[test]
    fn bucket_roundtrip_error_is_bounded() {
        for v in [1u64, 63, 64, 100, 1_000, 123_456, 10_000_000] {
            let idx = Histogram::index_for(v);
            let back = Histogram::value_for(idx);
            let rel = (v as f64 - back as f64).abs() / v as f64;
            assert!(rel <= 1.0 / 64.0 + 1e-9, "v={v} back={back}");
        }
    }
}
