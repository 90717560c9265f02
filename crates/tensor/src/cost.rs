//! Operation cost accounting.
//!
//! Every kernel reports a [`CostSpec`]: how much arithmetic it performs and
//! how many bytes it moves, split into a *shared* part (paid once per
//! launch, e.g. streaming a weight matrix) and a *per-item* part (paid per
//! element of a request batch). The split is what makes GPU request
//! batching profitable in the model — the catalog-wide embedding table is
//! read once per batch, not once per request — mirroring the behaviour of
//! a batched GEMM on real hardware.

use std::ops::{Add, AddAssign};

/// Aggregate execution cost of one or more operations at a fixed batch size.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Cost {
    /// Floating point operations performed.
    pub flops: f64,
    /// Bytes read from and written to device memory.
    pub bytes: f64,
    /// Number of kernel launches (dispatch overheads).
    pub launches: u64,
    /// Number of host<->device synchronisation round-trips.
    pub transfers: u64,
    /// Bytes moved across the host<->device interconnect.
    pub transfer_bytes: f64,
}

impl Cost {
    /// A zero cost.
    pub const ZERO: Cost = Cost {
        flops: 0.0,
        bytes: 0.0,
        launches: 0,
        transfers: 0,
        transfer_bytes: 0.0,
    };

    /// Cost of a single kernel launch with the given arithmetic and traffic.
    pub fn launch(flops: f64, bytes: f64) -> Cost {
        Cost {
            flops,
            bytes,
            launches: 1,
            transfers: 0,
            transfer_bytes: 0.0,
        }
    }

    /// Cost of a host<->device synchronisation moving `bytes` each way.
    pub fn transfer(bytes: f64) -> Cost {
        Cost {
            flops: 0.0,
            bytes: 0.0,
            launches: 0,
            transfers: 1,
            transfer_bytes: bytes,
        }
    }
}

impl Add for Cost {
    type Output = Cost;
    fn add(self, rhs: Cost) -> Cost {
        Cost {
            flops: self.flops + rhs.flops,
            bytes: self.bytes + rhs.bytes,
            launches: self.launches + rhs.launches,
            transfers: self.transfers + rhs.transfers,
            transfer_bytes: self.transfer_bytes + rhs.transfer_bytes,
        }
    }
}

impl AddAssign for Cost {
    fn add_assign(&mut self, rhs: Cost) {
        *self = *self + rhs;
    }
}

/// Batch-parametric cost of a single operation.
///
/// The realised [`Cost`] at batch size `b` is:
/// `launches` launches, `flops_per_item * b` FLOPs, and
/// `shared_bytes + per_item_bytes * b` bytes of memory traffic.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostSpec {
    /// FLOPs per batched request.
    pub flops_per_item: f64,
    /// Bytes of traffic paid once per launch regardless of batch size
    /// (typically weight/embedding matrices streamed from memory).
    pub shared_bytes: f64,
    /// Bytes of traffic paid per batched request (activations).
    pub per_item_bytes: f64,
    /// Kernel launches per invocation (independent of batch size).
    pub launches: u64,
    /// Host<->device round-trips forced per *request* (RecBole quirks).
    pub transfers_per_item: u64,
    /// Bytes moved per forced round-trip.
    pub transfer_bytes_per_item: f64,
}

impl CostSpec {
    /// A spec for one launch with purely per-item arithmetic and traffic.
    pub fn per_item(flops: f64, bytes: f64) -> CostSpec {
        CostSpec {
            flops_per_item: flops,
            per_item_bytes: bytes,
            shared_bytes: 0.0,
            launches: 1,
            transfers_per_item: 0,
            transfer_bytes_per_item: 0.0,
        }
    }

    /// Realises the cost at batch size `batch`.
    pub fn at_batch(&self, batch: usize) -> Cost {
        let b = batch as f64;
        Cost {
            flops: self.flops_per_item * b,
            bytes: self.shared_bytes + self.per_item_bytes * b,
            launches: self.launches,
            transfers: self.transfers_per_item * batch as u64,
            transfer_bytes: self.transfer_bytes_per_item * b,
        }
    }
}

impl Add for CostSpec {
    type Output = CostSpec;
    fn add(self, rhs: CostSpec) -> CostSpec {
        CostSpec {
            flops_per_item: self.flops_per_item + rhs.flops_per_item,
            shared_bytes: self.shared_bytes + rhs.shared_bytes,
            per_item_bytes: self.per_item_bytes + rhs.per_item_bytes,
            launches: self.launches + rhs.launches,
            transfers_per_item: self.transfers_per_item + rhs.transfers_per_item,
            transfer_bytes_per_item: self.transfer_bytes_per_item + rhs.transfer_bytes_per_item,
        }
    }
}

impl AddAssign for CostSpec {
    fn add_assign(&mut self, rhs: CostSpec) {
        *self = *self + rhs;
    }
}

/// Accumulates costs across the operations of a forward pass.
#[derive(Debug, Clone, Default)]
pub struct CostTracker {
    total: Cost,
    spec: CostSpec,
    ops: u64,
    cpu_threads: usize,
    simd_isa: &'static str,
    simd_lanes: usize,
}

impl CostTracker {
    /// Creates an empty tracker stamped with the intra-op pool width and
    /// the SIMD backend the host kernels run at (the analytic cost model
    /// itself is thread- and ISA-agnostic; the stamps travel into result
    /// records so runs at different `ETUDE_THREADS` / `ETUDE_SIMD`
    /// settings are distinguishable).
    pub fn new() -> Self {
        CostTracker {
            cpu_threads: crate::pool::current_threads(),
            simd_isa: crate::simd::isa_name(),
            simd_lanes: crate::simd::lane_width(),
            ..Self::default()
        }
    }

    /// Intra-op CPU threads recorded for this run.
    pub fn cpu_threads(&self) -> usize {
        self.cpu_threads
    }

    /// SIMD backend name the kernels dispatched to ("scalar", "avx2+fma").
    pub fn simd_isa(&self) -> &'static str {
        self.simd_isa
    }

    /// f32 lanes per SIMD block of the active backend.
    pub fn simd_lanes(&self) -> usize {
        self.simd_lanes
    }

    /// Records one operation at batch size one.
    pub fn record(&mut self, spec: CostSpec) {
        self.total += spec.at_batch(1);
        self.spec += spec;
        self.ops += 1;
    }

    /// Total realised cost (batch size one per recorded op).
    pub fn total(&self) -> Cost {
        self.total
    }

    /// The summed batch-parametric spec of all recorded operations.
    pub fn spec(&self) -> CostSpec {
        self.spec
    }

    /// Number of operations recorded.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Resets the tracker to empty (keeping the thread and ISA stamps).
    pub fn reset(&mut self) {
        *self = CostTracker {
            cpu_threads: self.cpu_threads,
            simd_isa: self.simd_isa,
            simd_lanes: self.simd_lanes,
            ..Self::default()
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_addition_accumulates_all_fields() {
        let a = Cost::launch(10.0, 100.0);
        let b = Cost::transfer(64.0);
        let c = a + b;
        assert_eq!(c.flops, 10.0);
        assert_eq!(c.bytes, 100.0);
        assert_eq!(c.launches, 1);
        assert_eq!(c.transfers, 1);
        assert_eq!(c.transfer_bytes, 64.0);
    }

    #[test]
    fn shared_bytes_amortise_across_batch() {
        // A GEMV streaming a 1 MB matrix with 1 KB of per-request traffic.
        let spec = CostSpec {
            shared_bytes: 1_048_576.0,
            ..CostSpec::per_item(1000.0, 1024.0)
        };
        let one = spec.at_batch(1);
        let many = spec.at_batch(64);
        assert_eq!(one.bytes, 1_048_576.0 + 1024.0);
        assert_eq!(many.bytes, 1_048_576.0 + 64.0 * 1024.0);
        // Per-request traffic at batch 64 is far below 64x the single cost.
        assert!(many.bytes / 64.0 < one.bytes / 2.0);
        assert_eq!(many.flops, 64.0 * 1000.0);
        assert_eq!(many.launches, 1);
    }

    #[test]
    fn tracker_accumulates_specs_and_totals() {
        let mut t = CostTracker::new();
        t.record(CostSpec::per_item(5.0, 8.0));
        t.record(CostSpec {
            shared_bytes: 100.0,
            ..CostSpec::per_item(2.0, 1.0)
        });
        assert_eq!(t.ops(), 2);
        assert_eq!(t.total().flops, 7.0);
        assert_eq!(t.total().bytes, 8.0 + 101.0);
        assert_eq!(t.total().launches, 2);
        let spec = t.spec();
        assert_eq!(spec.at_batch(2).flops, 14.0);
        t.reset();
        assert_eq!(t.ops(), 0);
    }

    #[test]
    fn transfers_scale_with_batch() {
        let spec = CostSpec {
            transfers_per_item: 2,
            transfer_bytes_per_item: 128.0,
            ..CostSpec::default()
        };
        let c = spec.at_batch(3);
        assert_eq!(c.transfers, 6);
        assert_eq!(c.transfer_bytes, 384.0);
    }
}
