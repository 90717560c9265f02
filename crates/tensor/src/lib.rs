//! # etude-tensor
//!
//! A pure-Rust tensor runtime purpose-built for reproducing the ETUDE
//! benchmarking framework (ICDE 2024). It substitutes for PyTorch / tch-rs
//! in the original system and provides:
//!
//! * dense f32 tensors with the operator set required by the ten
//!   session-based recommendation models of the paper ([`Tensor`], [`Exec`]),
//! * *phantom* (cost-only) execution, which propagates shapes and operation
//!   costs without touching data, so catalogs of 10–20 million items can be
//!   benchmarked without allocating multi-gigabyte embedding tables,
//! * analytic **device models** ([`DeviceProfile`]) for the CPU and GPU
//!   instance types of the paper (e2, NVidia T4, NVidia A100), which convert
//!   accumulated operation costs into latencies via a roofline model,
//! * **graph capture** by tracing ([`Graph`]) and a **JIT optimiser**
//!   ([`jit`]) with constant folding, elementwise fusion, dead-code
//!   elimination and weight pre-transposition — the stand-in for
//!   `torch.jit.optimize_for_inference`.
//!
//! The same model code executes eagerly, in cost-only mode, or as an
//! optimised compiled graph; this mirrors the paper's eager vs JIT
//! comparison (Figure 3) on real code paths.
//!
//! ## Example
//!
//! ```
//! use etude_tensor::{Exec, ExecMode, Device, Tensor, Param};
//!
//! let w = Param::new(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap());
//! let mut exec = Exec::new(ExecMode::Real, Device::cpu());
//! let x = exec.input(Tensor::from_vec(vec![1.0, 0.0], &[1, 2]).unwrap()).unwrap();
//! let wr = exec.param(&w).unwrap();
//! let y = exec.matmul(x, wr).unwrap();
//! assert_eq!(exec.tensor(y).unwrap().as_slice().unwrap(), &[1.0, 2.0]);
//! ```

pub mod cost;
pub mod device;
pub mod exec;
pub mod graph;
pub mod jit;
pub mod kernels;
pub mod param;
mod plan;
pub mod pool;
pub mod rng;
pub mod simd;
pub mod tensor;
pub mod topk;

pub use cost::{Cost, CostSpec};
pub use device::{Device, DeviceKind, DeviceProfile};
pub use exec::{Exec, ExecMode, SessionInput, TRef};
pub use graph::{Graph, NodeId, OpKind, OpTimes};
pub use jit::{CompiledGraph, JitError, JitOptions};
pub use param::{Param, ParamId};
pub use tensor::{Storage, Tensor, TensorError};

/// Bit-cast an item identifier into an `f32` payload.
///
/// Item ids travel through the tensor pipeline (inputs, top-k outputs)
/// without ever being used arithmetically, so we store the raw `u32` bits
/// inside an `f32` lane. This is exact for the full `u32` range — unlike a
/// numeric cast, which loses precision above 2^24 and would corrupt ids in
/// the paper's 20-million-item *Platform* scenario.
#[inline]
pub fn id_to_f32(id: u32) -> f32 {
    f32::from_bits(id)
}

/// Recover an item identifier from its bit-cast `f32` payload.
#[inline]
pub fn f32_to_id(x: f32) -> u32 {
    x.to_bits()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_bitcast_roundtrips_large_ids() {
        for id in [0u32, 1, 16_777_217, 20_000_000, u32::MAX] {
            assert_eq!(f32_to_id(id_to_f32(id)), id);
        }
    }

    #[test]
    fn id_bitcast_is_exact_beyond_f32_integer_range() {
        // 2^24 + 1 is the first integer a numeric f32 cast cannot represent.
        let id = (1u32 << 24) + 1;
        assert_eq!(f32_to_id(id_to_f32(id)), id);
        assert_ne!((id as f32) as u32, id);
    }
}
