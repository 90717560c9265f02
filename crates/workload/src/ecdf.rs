//! Empirical cumulative distribution functions with fast
//! inverse-transform sampling (Algorithm 1, line 14).
//!
//! The generator draws `C` click counts once (line 7) and then samples
//! item ids from their empirical CDF for every synthetic click. With
//! catalogs of up to 20 million items, sampling must be `O(log C)` and
//! allocation-free: a binary search over the cumulative weight array.

use rand::Rng;

/// An empirical CDF over items `0..n`, built from per-item weights.
#[derive(Debug, Clone)]
pub struct Ecdf {
    cumulative: Vec<f64>,
    total: f64,
}

impl Ecdf {
    /// Builds the CDF from per-item weights (e.g. click counts).
    /// Zero-weight items are never sampled.
    pub fn from_weights<I>(weights: I) -> Ecdf
    where
        I: IntoIterator<Item = f64>,
    {
        let mut cumulative = Vec::new();
        let mut acc = 0.0;
        for w in weights {
            acc += w.max(0.0);
            cumulative.push(acc);
        }
        Ecdf {
            total: acc,
            cumulative,
        }
    }

    /// Number of items covered.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Whether the CDF covers no items.
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Total weight mass.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Samples an item id by inverse-transform sampling.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        debug_assert!(!self.cumulative.is_empty() && self.total > 0.0);
        let u = rng.gen::<f64>() * self.total;
        self.quantile_index(u)
    }

    /// Index of the first cumulative weight >= `u` (binary search).
    fn quantile_index(&self, u: f64) -> u32 {
        let mut lo = 0usize;
        let mut hi = self.cumulative.len();
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.cumulative[mid] < u {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo.min(self.cumulative.len() - 1) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn samples_follow_weights() {
        let cdf = Ecdf::from_weights([1.0, 0.0, 3.0]);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut counts = [0u32; 3];
        for _ in 0..40_000 {
            counts[cdf.sample(&mut rng) as usize] += 1;
        }
        assert_eq!(counts[1], 0, "zero-weight item sampled");
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    fn quantile_index_is_monotone() {
        let cdf = Ecdf::from_weights((0..100).map(|i| (i + 1) as f64));
        let mut last = 0;
        for step in 0..50 {
            let u = cdf.total() * step as f64 / 50.0;
            let idx = cdf.quantile_index(u);
            assert!(idx >= last);
            last = idx;
        }
    }

    #[test]
    fn negative_weights_are_clamped() {
        let cdf = Ecdf::from_weights([1.0, -5.0, 1.0]);
        let mut rng = SmallRng::seed_from_u64(6);
        for _ in 0..1000 {
            assert_ne!(cdf.sample(&mut rng), 1);
        }
    }

    #[test]
    fn single_item_cdf_always_returns_it() {
        let cdf = Ecdf::from_weights([7.0]);
        let mut rng = SmallRng::seed_from_u64(7);
        assert_eq!(cdf.sample(&mut rng), 0);
    }
}
