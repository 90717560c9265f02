//! Model parameters (weights).
//!
//! A [`Param`] wraps a shared tensor with a process-unique identity. The
//! identity lets the tracer recognise that the same weight flows into a
//! graph from multiple call sites and register it as a single constant
//! node — a prerequisite for constant folding and weight pre-transposition
//! in the JIT.

use crate::tensor::Tensor;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static NEXT_PARAM_ID: AtomicU64 = AtomicU64::new(1);

/// Process-unique identifier of a parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParamId(pub u64);

/// A shared, immutable model weight.
#[derive(Debug, Clone)]
pub struct Param {
    id: ParamId,
    value: Arc<Tensor>,
}

impl Param {
    /// Wraps a tensor as a parameter with a fresh identity.
    pub fn new(value: Tensor) -> Param {
        Param {
            id: ParamId(NEXT_PARAM_ID.fetch_add(1, Ordering::Relaxed)),
            value: Arc::new(value),
        }
    }

    /// The parameter's identity.
    pub fn id(&self) -> ParamId {
        self.id
    }

    /// The underlying tensor.
    pub fn value(&self) -> &Tensor {
        &self.value
    }

    /// Shared handle to the underlying tensor.
    pub fn shared(&self) -> Arc<Tensor> {
        Arc::clone(&self.value)
    }

    /// The parameter's shape.
    pub fn shape(&self) -> &[usize] {
        self.value.shape()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_get_distinct_ids() {
        let a = Param::new(Tensor::zeros(&[2]));
        let b = Param::new(Tensor::zeros(&[2]));
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn clones_share_identity_and_storage() {
        let a = Param::new(Tensor::zeros(&[4]));
        let b = a.clone();
        assert_eq!(a.id(), b.id());
        assert!(Arc::ptr_eq(&a.shared(), &b.shared()));
    }
}
