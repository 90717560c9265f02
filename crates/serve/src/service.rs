//! Service-time profiles: the bridge between model inference costs and
//! the queueing models of [`crate::simserver`].
//!
//! A [`ServiceProfile`] answers one question: *how long does the device
//! stay busy to serve a batch of `b` requests for this model?* For
//! compiled (JIT) models the answer comes from the optimised graph's cost
//! spec; for eager models from the summed per-op costs plus an eager
//! dispatch penalty; for the infrastructure test (Figure 2) from a
//! constant.

use etude_models::{traits, ModelKind, SbrModel};
use etude_tensor::{CostSpec, Device, ExecMode, JitOptions, TensorError};
use std::time::Duration;

/// How the model is executed on the serving device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionKind {
    /// Eager execution: every operation dispatched separately.
    Eager,
    /// JIT-compiled graph (fused, folded, pre-transposed).
    Jit,
    /// No model at all — a static response (the paper's infrastructure
    /// test, Figure 2).
    Static,
}

/// A batch-parametric service-time model for one deployed model+device.
#[derive(Debug, Clone)]
pub struct ServiceProfile {
    /// Model name (or `"static"`).
    pub model: String,
    /// Execution mode this profile was built for.
    pub execution: ExecutionKind,
    /// Device the model is deployed on.
    pub device: Device,
    /// Cost of one forward pass (per batch invocation).
    cost: CostSpec,
    /// Fixed handler overhead per request (HTTP parsing, routing,
    /// serialisation) paid on the CPU regardless of device.
    pub handler_overhead: Duration,
}

impl ServiceProfile {
    /// Builds a profile for a model by probing its forward-pass cost.
    ///
    /// For [`ExecutionKind::Jit`] the model is traced and compiled; if
    /// compilation fails with dynamic control flow (quirky LightSANs) the
    /// profile silently falls back to eager execution, mirroring
    /// `torch.jit`'s behaviour of running unoptimised code.
    pub fn for_model(
        model: &dyn SbrModel,
        device: &Device,
        execution: ExecutionKind,
    ) -> Result<ServiceProfile, TensorError> {
        let cost = match execution {
            ExecutionKind::Jit => match traits::compile(model, JitOptions::default()) {
                Ok(compiled) => compiled.cost(),
                Err(_) => eager_cost(model, device)?,
            },
            ExecutionKind::Eager => eager_cost(model, device)?,
            ExecutionKind::Static => CostSpec::default(),
        };
        let cost = apply_batch_reuse(cost, device);
        Ok(ServiceProfile {
            model: model.name().to_string(),
            execution,
            device: device.clone(),
            cost,
            handler_overhead: device.profile().serving_overhead,
        })
    }

    /// The static-response profile of the infrastructure test.
    pub fn static_response(device: &Device) -> ServiceProfile {
        ServiceProfile {
            model: "static".to_string(),
            execution: ExecutionKind::Static,
            device: device.clone(),
            cost: CostSpec::default(),
            handler_overhead: Duration::from_micros(40),
        }
    }

    /// Builds profiles for a model kind directly from a config.
    pub fn build(
        kind: ModelKind,
        cfg: &etude_models::ModelConfig,
        device: &Device,
        execution: ExecutionKind,
    ) -> Result<ServiceProfile, TensorError> {
        let model = kind.build(cfg);
        Self::for_model(model.as_ref(), device, execution)
    }

    /// Device time to execute one batch of `b` requests.
    pub fn batch_latency(&self, batch: usize) -> Duration {
        if self.execution == ExecutionKind::Static {
            return Duration::ZERO;
        }
        self.device
            .profile()
            .latency(&self.cost.at_batch(batch.max(1)))
    }

    /// Single-request inference latency (batch of one).
    pub fn inference_latency(&self) -> Duration {
        self.batch_latency(1)
    }

    /// The underlying cost spec.
    pub fn cost(&self) -> CostSpec {
        self.cost
    }
}

/// Reclassifies the fraction of constant-weight traffic that the device
/// fails to amortise across request batches as per-request traffic (see
/// [`etude_tensor::DeviceProfile::batch_reuse`]). Single-request latency
/// is unchanged (`shared + per_item` is preserved at batch one); batched
/// throughput ceilings drop to the calibrated levels of the paper's
/// Table I measurements.
fn apply_batch_reuse(cost: CostSpec, device: &Device) -> CostSpec {
    let reuse = device.profile().batch_reuse.clamp(0.0, 1.0);
    CostSpec {
        shared_bytes: cost.shared_bytes * reuse,
        per_item_bytes: cost.per_item_bytes + cost.shared_bytes * (1.0 - reuse),
        ..cost
    }
}

/// Cost of one eager forward pass, including the per-op dispatch penalty
/// that eager execution pays over a compiled graph.
fn eager_cost(model: &dyn SbrModel, device: &Device) -> Result<CostSpec, TensorError> {
    // Session length barely matters for cost (padding dominates); use a
    // representative short session.
    let mode = if model.config().materialize_weights {
        ExecMode::Real
    } else {
        ExecMode::CostOnly
    };
    let cost = traits::forward_cost(model, device, mode, 3)?;
    Ok(CostSpec {
        // forward_cost returns a realised Cost at batch one; rebuild a
        // spec treating arithmetic as per-item and weight traffic as
        // amortisable is not possible after the fact, so eager profiles
        // are conservatively non-amortising: eager PyTorch cannot batch
        // across requests either without explicit batching code.
        flops_per_item: cost.flops,
        shared_bytes: 0.0,
        per_item_bytes: cost.bytes,
        launches: cost.launches,
        transfers_per_item: cost.transfers,
        transfer_bytes_per_item: cost.transfer_bytes,
    })
}

/// The TorchServe baseline's architectural constants (Figure 2).
///
/// Derived from the paper's observations and TorchServe's documented
/// design: a Java (Netty) frontend dispatches to a small pool of Python
/// worker processes over a local socket; each request pays Python
/// interpreter and IPC overhead; an internal 100 ms timeout fails
/// requests under backlog.
#[derive(Debug, Clone)]
pub struct TorchServeProfile {
    /// Python worker processes (TorchServe default: one per vCPU; the
    /// paper's infra test machine had 2 vCPUs).
    pub workers: usize,
    /// Serialized frontend dispatch cost per request.
    pub frontend_overhead: Duration,
    /// Per-request Python handler + IPC overhead inside a worker.
    pub worker_overhead: Duration,
    /// Internal request timeout (the paper observed 100 ms).
    pub timeout: Duration,
}

impl Default for TorchServeProfile {
    fn default() -> Self {
        TorchServeProfile {
            workers: 2,
            frontend_overhead: Duration::from_micros(250),
            worker_overhead: Duration::from_micros(2_500),
            timeout: Duration::from_millis(100),
        }
    }
}

impl TorchServeProfile {
    /// Sustainable throughput ceiling of the worker pool (requests/s),
    /// ignoring the frontend.
    pub fn worker_capacity(&self) -> f64 {
        self.workers as f64 / self.worker_overhead.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etude_models::ModelConfig;

    fn cfg() -> ModelConfig {
        ModelConfig::new(1_000).with_max_session_len(8).with_seed(3)
    }

    #[test]
    fn jit_profile_is_no_slower_than_eager() {
        for kind in [ModelKind::Gru4Rec, ModelKind::SasRec, ModelKind::Core] {
            let cpu = Device::cpu();
            let eager = ServiceProfile::build(kind, &cfg(), &cpu, ExecutionKind::Eager).unwrap();
            let jit = ServiceProfile::build(kind, &cfg(), &cpu, ExecutionKind::Jit).unwrap();
            assert!(
                jit.inference_latency() <= eager.inference_latency(),
                "{}: jit {:?} > eager {:?}",
                kind.name(),
                jit.inference_latency(),
                eager.inference_latency()
            );
        }
    }

    #[test]
    fn quirky_lightsans_falls_back_to_eager() {
        let cpu = Device::cpu();
        let jit =
            ServiceProfile::build(ModelKind::LightSans, &cfg(), &cpu, ExecutionKind::Jit).unwrap();
        let eager = ServiceProfile::build(ModelKind::LightSans, &cfg(), &cpu, ExecutionKind::Eager)
            .unwrap();
        assert_eq!(jit.inference_latency(), eager.inference_latency());
    }

    #[test]
    fn gpu_batching_amortises_latency_imperfectly() {
        let t4 = Device::t4();
        let p = ServiceProfile::build(
            ModelKind::SasRec,
            &ModelConfig::new(1_000_000).without_weights(),
            &t4,
            ExecutionKind::Jit,
        )
        .unwrap();
        let one = p.batch_latency(1).as_secs_f64();
        let batch = p.batch_latency(64).as_secs_f64();
        // With batch_reuse = 0.7, most of the table scan amortises but a
        // calibrated remainder scales per request: the batch costs far
        // less than 64 singles, yet clearly more than a perfect GEMM
        // would (the gap behind the paper's measured per-GPU ceilings).
        assert!(
            batch < 48.0 * one,
            "batching should save a lot: {one} vs {batch}"
        );
        assert!(
            batch > 4.0 * one,
            "amortisation must stay imperfect (calibrated): {one} vs {batch}"
        );
    }

    #[test]
    fn static_profile_is_free() {
        let p = ServiceProfile::static_response(&Device::cpu());
        assert_eq!(p.batch_latency(1024), Duration::ZERO);
        assert!(p.handler_overhead > Duration::ZERO);
    }

    #[test]
    fn torchserve_capacity_is_below_one_thousand_rps() {
        // The architectural reason Figure 2's baseline collapses.
        let p = TorchServeProfile::default();
        assert!(p.worker_capacity() < 1_000.0, "{}", p.worker_capacity());
    }

    #[test]
    fn cpu_inference_latency_exceeds_50ms_at_one_million_items() {
        // Section III-B: CPU > 50 ms per prediction at C = 1e6.
        let p = ServiceProfile::build(
            ModelKind::Gru4Rec,
            &ModelConfig::new(1_000_000).without_weights(),
            &Device::cpu(),
            ExecutionKind::Jit,
        )
        .unwrap();
        assert!(p.inference_latency() > Duration::from_millis(45));
    }
}
