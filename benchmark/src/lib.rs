//! The repo's benchmark: the reactor + continuous-batching serving path
//! measured end to end under an open and a closed loop, and layer by layer
//! from a traced run and a single-threaded replay. See README.md.

pub mod alloc;
pub mod driver;
pub mod json;
pub mod replay;
pub mod run;
pub mod spec;
pub mod sut;
pub mod trace;

/// One reported number. Names and units are declared in `/BENCHMARK.json`;
/// `tests/schema.rs` holds the two together.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Nearest-rank quantile of an ascending slice; 0 when it is empty.
pub fn quantile<T: Copy + Default>(sorted: &[T], q: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts and returns the median; 0 when empty.
pub fn median<T: Copy + Default + PartialOrd>(values: &mut [T]) -> T {
    values.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(quantile(&v, 0.5), 5);
        assert_eq!(quantile(&v, 0.9), 9);
        assert_eq!(quantile(&v, 0.99), 10);
        assert_eq!(quantile(&v, 0.0), 1);
        assert_eq!(quantile::<u64>(&[], 0.5), 0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    }
}
