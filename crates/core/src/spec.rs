//! Declarative experiment specification.
//!
//! Mirrors the paper's workflow: "ETUDE users declaratively specify the
//! model(s) to deploy and the type of hardware to use. Furthermore, they
//! specify the catalog size C, the statistics for click generation and
//! the target throughput to which the load generator should ramp up."

use etude_cluster::InstanceType;
use etude_control::AutoscalerConfig;
use etude_faults::FaultPlan;
use etude_models::{ModelConfig, ModelKind};
use etude_workload::WorkloadConfig;
use std::time::Duration;

/// How the deployed model executes (the paper benchmarks both).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// Eager per-op execution.
    Eager,
    /// JIT-compiled (`torch.jit.optimize_for_inference` analogue).
    Jit,
}

/// A complete declarative experiment description.
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    /// Model under test.
    pub model: ModelKind,
    /// Catalog size `C` — the dominant latency factor.
    pub catalog_size: usize,
    /// Session-length power-law exponent (`alpha_l`).
    pub alpha_length: f64,
    /// Click-count power-law exponent (`alpha_c`).
    pub alpha_clicks: f64,
    /// Instance type to deploy on.
    pub instance: InstanceType,
    /// Replicas behind the ClusterIP service.
    pub replicas: usize,
    /// Target throughput to ramp to (requests/second).
    pub target_rps: u64,
    /// Ramp-up / experiment duration (paper: ten minutes).
    pub ramp: Duration,
    /// Latency constraint the deployment must meet (paper: 50 ms p90).
    pub latency_slo: Duration,
    /// Execution mode.
    pub execution: ExecutionMode,
    /// Emulate RecBole implementation quirks (paper measurements) or use
    /// the repaired models.
    pub recbole_quirks: bool,
    /// Master seed: workload, jitter and weight initialisation derive
    /// from it.
    pub seed: u64,
    /// Fault schedule injected into the run (network drops/spikes, pod
    /// crashes). Calm by default: no faults, bit-identical to specs that
    /// predate fault injection.
    pub faults: FaultPlan,
    /// When set, the runner reconciles the replica set once per virtual
    /// second with the control plane's SLO-driven autoscaler, starting
    /// from [`Self::replicas`]. `None` (the default) keeps the replica
    /// count fixed for the whole run, as every pre-control-plane spec
    /// did.
    pub autoscaler: Option<AutoscalerConfig>,
}

impl ExperimentSpec {
    /// A spec with the paper's defaults for the given model/catalog/
    /// hardware triple.
    pub fn new(model: ModelKind, catalog_size: usize, instance: InstanceType) -> ExperimentSpec {
        ExperimentSpec {
            model,
            catalog_size,
            alpha_length: 2.0,
            alpha_clicks: 1.8,
            instance,
            replicas: 1,
            target_rps: 1_000,
            ramp: Duration::from_secs(600),
            latency_slo: Duration::from_millis(50),
            execution: ExecutionMode::Jit,
            recbole_quirks: true,
            seed: 42,
            faults: FaultPlan::calm(),
            autoscaler: None,
        }
    }

    /// Overrides the target throughput.
    pub fn with_target_rps(mut self, rps: u64) -> Self {
        self.target_rps = rps;
        self
    }

    /// Overrides the replica count.
    pub fn with_replicas(mut self, replicas: usize) -> Self {
        self.replicas = replicas.max(1);
        self
    }

    /// Overrides the ramp duration (scaled-down experiments).
    pub fn with_ramp(mut self, ramp: Duration) -> Self {
        self.ramp = ramp;
        self
    }

    /// Overrides the execution mode.
    pub fn with_execution(mut self, execution: ExecutionMode) -> Self {
        self.execution = execution;
        self
    }

    /// Overrides quirk emulation.
    pub fn with_quirks(mut self, quirks: bool) -> Self {
        self.recbole_quirks = quirks;
        self
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Injects a fault schedule into the run.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Enables SLO-driven autoscaling for the run.
    pub fn with_autoscaler(mut self, config: AutoscalerConfig) -> Self {
        self.autoscaler = Some(config);
        self
    }

    /// The model configuration implied by this spec. Weights are phantom:
    /// simulated benchmarks only need operation costs, so even the
    /// 20M-item Platform catalog needs no multi-gigabyte table.
    pub fn model_config(&self) -> ModelConfig {
        ModelConfig::new(self.catalog_size)
            .with_quirks(self.recbole_quirks)
            .with_seed(self.seed)
            .without_weights()
    }

    /// The workload generator configuration implied by this spec.
    pub fn workload_config(&self) -> WorkloadConfig {
        WorkloadConfig {
            catalog_size: self.catalog_size,
            alpha_length: self.alpha_length,
            alpha_clicks: self.alpha_clicks,
            max_session_len: 200,
            seed: self.seed ^ 0x5eed,
        }
    }

    /// Size of the serialised model in bytes (embedding table dominates).
    pub fn model_bytes(&self) -> u64 {
        self.model_config().embedding_table_bytes()
    }

    /// A short identifier for reports: `model@catalog/instance xN`.
    pub fn label(&self) -> String {
        format!(
            "{}@{}/{} x{}",
            self.model.name(),
            self.catalog_size,
            self.instance.name(),
            self.replicas
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let spec = ExperimentSpec::new(ModelKind::Core, 1_000_000, InstanceType::GpuT4);
        assert_eq!(spec.latency_slo, Duration::from_millis(50));
        assert_eq!(spec.ramp, Duration::from_secs(600));
        assert_eq!(spec.target_rps, 1_000);
        assert!(spec.recbole_quirks);
        assert_eq!(spec.execution, ExecutionMode::Jit);
        assert!(spec.faults.windows.is_empty(), "no faults unless asked for");
    }

    #[test]
    fn fault_plans_attach_to_specs() {
        use etude_faults::FaultKind;

        let plan = FaultPlan::seeded(9).with_window(
            Duration::from_secs(1),
            Duration::from_secs(2),
            FaultKind::Partition,
        );
        let spec =
            ExperimentSpec::new(ModelKind::Core, 10_000, InstanceType::CpuE2).with_faults(plan);
        assert_eq!(spec.faults.windows.len(), 1);
    }

    #[test]
    fn model_config_uses_phantom_weights_and_heuristic_dims() {
        let spec = ExperimentSpec::new(ModelKind::SasRec, 10_000_000, InstanceType::GpuA100);
        let cfg = spec.model_config();
        assert!(!cfg.materialize_weights);
        assert_eq!(cfg.embedding_dim, 57);
    }

    #[test]
    fn model_bytes_track_catalog_size() {
        let spec = ExperimentSpec::new(ModelKind::Narm, 20_000_000, InstanceType::GpuA100);
        assert_eq!(spec.model_bytes(), 4 * 20_000_000 * 67);
    }

    #[test]
    fn label_is_informative() {
        let spec =
            ExperimentSpec::new(ModelKind::Stamp, 10_000, InstanceType::CpuE2).with_replicas(3);
        assert_eq!(spec.label(), "stamp@10000/CPU x3");
    }
}
