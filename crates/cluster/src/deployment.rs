//! Deployments: model + instance type + replicas → a routable service.
//!
//! A [`Deployment`] assembles what the paper's `make run_deployed_benchmark`
//! sets up: one inference-server pod per instance, a ClusterIP service in
//! front, readiness gating, and the monthly cost of the whole setup.
//!
//! Beyond static creation the deployment is *reconciled*:
//! [`Deployment::scale_to`] grows or shrinks the replica set (scale-down
//! drains before it terminates) — the actuator the control plane's
//! autoscaler drives.

use crate::instances::InstanceType;
use crate::pod::Pod;
use crate::service::ClusterIpService;
use etude_control::{ControlAction, DecisionJournal};
use etude_serve::simserver::{RustServerConfig, SimRustServer};
use etude_serve::ServiceProfile;
use etude_simnet::{shared, Shared, Sim, SimTime};
use std::cell::Cell;
use std::fmt;
use std::rc::Rc;
use std::time::Duration;

/// Why a deployment was rejected at admission.
///
/// Every replica of a deployment holds the *entire* model, so a catalog
/// whose embedding table exceeds what one node can dedicate to it cannot
/// be served by replication at any replica count — the fix is a smaller
/// model, a bigger node, or a partitioned ([`crate::shard`]) deployment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeployError {
    /// Zero replicas were requested.
    NoReplicas,
    /// The model does not fit the instance's inference device at all.
    DeviceCapacity {
        /// Instance class that was asked to hold the model.
        instance: InstanceType,
        /// Bytes the model needs resident.
        model_bytes: u64,
        /// Bytes the device offers.
        capacity: u64,
    },
    /// The model fits the device, but exceeds the operator-configured
    /// per-node memory budget.
    NodeBudgetExceeded {
        /// Bytes each replica would need resident.
        model_bytes: u64,
        /// The configured per-node budget.
        node_budget: u64,
    },
}

impl fmt::Display for DeployError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeployError::NoReplicas => write!(f, "deployment needs at least one replica"),
            DeployError::DeviceCapacity {
                instance,
                model_bytes,
                capacity,
            } => write!(
                f,
                "model needs {model_bytes} bytes but a {} device holds {capacity}; \
                 every replica carries the full model — shard the catalog instead",
                instance.name()
            ),
            DeployError::NodeBudgetExceeded {
                model_bytes,
                node_budget,
            } => write!(
                f,
                "full-catalog replica needs {model_bytes} bytes resident, over the \
                 {node_budget}-byte node budget; replication cannot fix this — \
                 shard the catalog instead"
            ),
        }
    }
}

impl std::error::Error for DeployError {}

/// What to deploy.
#[derive(Debug, Clone)]
pub struct DeploymentSpec {
    /// Machine type for every replica.
    pub instance: InstanceType,
    /// Number of replicas behind the service.
    pub replicas: usize,
    /// Bytes of the serialised model (drives pod startup time and device
    /// memory feasibility).
    pub model_bytes: u64,
    /// Operator-configured per-node memory budget in bytes. `None`
    /// defers to the device capacity alone; `Some(b)` additionally
    /// rejects any replica whose resident model exceeds `b` — the knob
    /// that forces large catalogs onto a sharded deployment.
    pub node_budget: Option<u64>,
}

impl DeploymentSpec {
    /// A single-replica deployment.
    pub fn single(instance: InstanceType, model_bytes: u64) -> DeploymentSpec {
        DeploymentSpec {
            instance,
            replicas: 1,
            model_bytes,
            node_budget: None,
        }
    }

    /// Monthly cost of the deployment.
    pub fn monthly_cost(&self) -> f64 {
        self.instance.monthly_cost() * self.replicas as f64
    }

    /// Admission check: replica count, device capacity, node budget.
    pub fn admit(&self) -> Result<(), DeployError> {
        if self.replicas == 0 {
            return Err(DeployError::NoReplicas);
        }
        if !self.instance.fits_model(self.model_bytes) {
            return Err(DeployError::DeviceCapacity {
                instance: self.instance,
                model_bytes: self.model_bytes,
                capacity: self.instance.device().profile().memory_capacity,
            });
        }
        if let Some(budget) = self.node_budget {
            if self.model_bytes > budget {
                return Err(DeployError::NodeBudgetExceeded {
                    model_bytes: self.model_bytes,
                    node_budget: budget,
                });
            }
        }
        Ok(())
    }

    /// Whether the deployment passes admission at all.
    pub fn feasible(&self) -> bool {
        self.admit().is_ok()
    }
}

/// A deployed, routable model service.
pub struct Deployment {
    spec: DeploymentSpec,
    profile: ServiceProfile,
    service: Rc<ClusterIpService>,
    ready_at: SimTime,
    next_id: Cell<u32>,
    journal: Shared<DecisionJournal>,
}

/// Cadence at which a draining scale-down victim is checked for its
/// last in-flight response.
const DRAIN_POLL: Duration = Duration::from_millis(100);

impl Deployment {
    /// Deploys `replicas` pods, each running the inference server
    /// configured for the instance class (worker pool on CPU, batcher on
    /// GPU), and schedules their startup. Rejects specs that fail
    /// admission ([`DeploymentSpec::admit`]) before any pod is created.
    pub fn create(
        sim: &mut Sim,
        spec: DeploymentSpec,
        profile: &ServiceProfile,
    ) -> Result<Deployment, DeployError> {
        spec.admit()?;
        let mut pods = Vec::with_capacity(spec.replicas);
        let mut ready_at = sim.now();
        for replica in 0..spec.replicas {
            let pod = make_pod(sim, &spec, profile, replica as u32);
            ready_at = ready_at.max(sim.now().after(pod.startup_duration()));
            pods.push(pod);
        }
        Ok(Deployment {
            next_id: Cell::new(spec.replicas as u32),
            spec,
            profile: profile.clone(),
            service: ClusterIpService::new(pods),
            ready_at,
            journal: shared(DecisionJournal::new()),
        })
    }

    /// The deployment's spec (replica count as originally deployed;
    /// after scaling, `pods().len()` is the live count).
    pub fn spec(&self) -> &DeploymentSpec {
        &self.spec
    }

    /// The ClusterIP service routing to the replicas.
    pub fn service(&self) -> Rc<ClusterIpService> {
        Rc::clone(&self.service)
    }

    /// Virtual time at which every readiness probe passes; the runner
    /// starts the load generator no earlier than this.
    pub fn ready_at(&self) -> SimTime {
        self.ready_at
    }

    /// The deployment's current pods.
    pub fn pods(&self) -> Vec<Rc<Pod>> {
        self.service.pods()
    }

    /// Live replica count (pods behind the service, ready or not).
    pub fn replicas(&self) -> usize {
        self.service.backends()
    }

    /// The control-decision journal this deployment writes into.
    pub fn journal(&self) -> Shared<DecisionJournal> {
        Rc::clone(&self.journal)
    }

    /// Reconciles the replica set to `n`. Scale-up pods start cold
    /// (model download + readiness gate); scale-down victims drain
    /// before termination, newest first. The autoscaler's decision
    /// itself is journaled by the caller — this journals the pod steps.
    pub fn scale_to(&self, sim: &mut Sim, n: usize) {
        let current = self.service.backends();
        if n > current {
            for _ in current..n {
                let id = self.next_id.get();
                self.next_id.set(id + 1);
                let pod = make_pod(sim, &self.spec, &self.profile, id);
                self.journal.borrow_mut().push(
                    sim.now().as_duration(),
                    ControlAction::SurgeCreate,
                    id as i64,
                    0,
                );
                self.service.add_pod(pod);
            }
        } else if n < current {
            // Retire the newest pods first (Kubernetes' default victim
            // order for scale-down is effectively youngest-first).
            let mut pods = self.pods();
            pods.sort_by_key(|p| p.id());
            for pod in pods.into_iter().rev().take(current - n) {
                pod.begin_drain();
                self.journal.borrow_mut().push(
                    sim.now().as_duration(),
                    ControlAction::DrainBegin,
                    pod.id() as i64,
                    0,
                );
                watch_drain(
                    sim,
                    Rc::clone(&self.service),
                    Rc::clone(&self.journal),
                    pod,
                    600,
                );
            }
        }
    }
}

/// Builds and starts one pod for the deployment's instance class.
fn make_pod(sim: &mut Sim, spec: &DeploymentSpec, profile: &ServiceProfile, id: u32) -> Rc<Pod> {
    let server_config = if spec.instance.has_gpu() {
        RustServerConfig::gpu()
    } else {
        RustServerConfig::cpu(spec.instance.vcpus())
    };
    let server = SimRustServer::new(profile.clone(), server_config);
    let pod = Pod::new(server, spec.model_bytes, id);
    pod.start(sim);
    pod
}

/// Polls a draining scale-down victim until its in-flight work is gone,
/// then terminates it and removes it from the service. `polls_left`
/// bounds the wait (a minute at the default cadence) so a wedged pod
/// cannot keep the event queue alive forever.
fn watch_drain(
    sim: &mut Sim,
    service: Rc<ClusterIpService>,
    journal: Shared<DecisionJournal>,
    pod: Rc<Pod>,
    polls_left: u32,
) {
    sim.schedule_in(DRAIN_POLL, move |s| {
        if pod.is_drained() || polls_left == 0 {
            pod.terminate();
            journal.borrow_mut().push(
                s.now().as_duration(),
                ControlAction::Terminate,
                pod.id() as i64,
                0,
            );
            service.remove_pod(pod.id());
        } else {
            watch_drain(s, service, journal, pod, polls_left - 1);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use etude_serve::simserver::SimService;
    use etude_tensor::Device;
    use std::time::Duration;

    #[test]
    fn deployment_cost_scales_with_replicas() {
        let spec = DeploymentSpec {
            instance: InstanceType::GpuT4,
            replicas: 5,
            model_bytes: 0,
            node_budget: None,
        };
        assert!((spec.monthly_cost() - 1_340.45).abs() < 1e-9);
    }

    #[test]
    fn deployment_becomes_ready_and_serves() {
        let mut sim = Sim::new();
        let profile = ServiceProfile::static_response(&Device::cpu());
        let spec = DeploymentSpec {
            instance: InstanceType::CpuE2,
            replicas: 3,
            model_bytes: 100_000_000,
            node_budget: None,
        };
        let deployment = Deployment::create(&mut sim, spec, &profile).unwrap();
        assert!(!deployment.service().all_ready());
        sim.run_until(deployment.ready_at());
        assert!(deployment.service().all_ready());
        // And traffic flows.
        let ok = etude_simnet::shared(false);
        let o = Rc::clone(&ok);
        deployment.service().submit(
            &mut sim,
            Box::new(move |_, result| {
                *o.borrow_mut() = result.is_ok();
            }),
        );
        sim.run_to_completion();
        assert!(*ok.borrow());
    }

    #[test]
    fn infeasible_models_are_flagged() {
        // A 20 GB table cannot be served from a T4.
        let spec = DeploymentSpec::single(InstanceType::GpuT4, 20 * (1 << 30));
        assert!(!spec.feasible());
        assert!(matches!(
            spec.admit(),
            Err(DeployError::DeviceCapacity { .. })
        ));
        let spec = DeploymentSpec::single(InstanceType::GpuA100, 20 * (1 << 30));
        assert!(spec.feasible());
        assert_eq!(spec.admit(), Ok(()));
    }

    #[test]
    fn node_budget_rejects_full_catalog_replicas() {
        // C = 10^7 at d = 57: a 2.28 GB table fits the device, but an
        // operator budget of 1 GB per node rejects replication outright.
        let table = 10_000_000u64 * 57 * 4;
        let spec = DeploymentSpec {
            instance: InstanceType::CpuE2,
            replicas: 4,
            model_bytes: table,
            node_budget: Some(1 << 30),
        };
        let err = spec.admit().unwrap_err();
        assert_eq!(
            err,
            DeployError::NodeBudgetExceeded {
                model_bytes: table,
                node_budget: 1 << 30,
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("shard the catalog"), "{msg}");
        // The budget is per node: adding replicas cannot help.
        let mut sim = Sim::new();
        let profile = ServiceProfile::static_response(&Device::cpu());
        let more = DeploymentSpec {
            replicas: 64,
            ..spec.clone()
        };
        assert!(Deployment::create(&mut sim, more, &profile).is_err());
        // A shard-sized slice under the budget is admitted.
        let slice = DeploymentSpec {
            model_bytes: table / 4,
            ..spec
        };
        assert_eq!(slice.admit(), Ok(()));
        assert!(Deployment::create(&mut sim, slice, &profile).is_ok());
    }

    #[test]
    fn zero_replicas_are_rejected() {
        let spec = DeploymentSpec {
            instance: InstanceType::CpuE2,
            replicas: 0,
            model_bytes: 0,
            node_budget: None,
        };
        assert_eq!(spec.admit(), Err(DeployError::NoReplicas));
    }

    #[test]
    fn startup_time_grows_with_model_size() {
        let mut sim = Sim::new();
        let profile = ServiceProfile::static_response(&Device::cpu());
        let small = Deployment::create(
            &mut sim,
            DeploymentSpec::single(InstanceType::CpuE2, 0),
            &profile,
        )
        .unwrap();
        let large = Deployment::create(
            &mut sim,
            DeploymentSpec::single(InstanceType::CpuE2, 5_000_000_000),
            &profile,
        )
        .unwrap();
        assert!(
            large.ready_at().since(small.ready_at()) > Duration::from_secs(10),
            "5 GB of model weights should add noticeable startup time"
        );
    }

    #[test]
    fn replicas_carry_distinct_ids() {
        let mut sim = Sim::new();
        let profile = ServiceProfile::static_response(&Device::cpu());
        let d = Deployment::create(
            &mut sim,
            DeploymentSpec {
                instance: InstanceType::CpuE2,
                replicas: 4,
                model_bytes: 0,
                node_budget: None,
            },
            &profile,
        )
        .unwrap();
        let ids: Vec<u32> = d.pods().iter().map(|p| p.id()).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        let summaries = d.service().pod_summaries();
        assert_eq!(summaries.len(), 4);
        assert!(summaries.iter().all(|s| s.served == 0 && s.refused == 0));
    }

    #[test]
    fn gpu_deployments_enable_batching() {
        let mut sim = Sim::new();
        let profile = ServiceProfile::static_response(&Device::t4());
        let d = Deployment::create(
            &mut sim,
            DeploymentSpec::single(InstanceType::GpuT4, 0),
            &profile,
        )
        .unwrap();
        assert_eq!(d.pods().len(), 1);
    }

    #[test]
    fn scale_up_adds_cold_replicas_with_fresh_ids() {
        let mut sim = Sim::new();
        let profile = ServiceProfile::static_response(&Device::cpu());
        let d = Deployment::create(
            &mut sim,
            DeploymentSpec {
                instance: InstanceType::CpuE2,
                replicas: 2,
                model_bytes: 0,
                node_budget: None,
            },
            &profile,
        )
        .unwrap();
        sim.run_until(d.ready_at());
        d.scale_to(&mut sim, 4);
        assert_eq!(d.replicas(), 4);
        let ids: Vec<u32> = d.pods().iter().map(|p| p.id()).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        // New pods gate on readiness like any other.
        assert_eq!(d.service().ready_backends(), 2);
        sim.run_until(sim.now().after(Duration::from_secs(10)));
        assert_eq!(d.service().ready_backends(), 4);
        assert_eq!(d.journal().borrow().of(ControlAction::SurgeCreate).len(), 2);
    }

    #[test]
    fn scale_down_drains_then_terminates_newest_first() {
        let mut sim = Sim::new();
        let profile = ServiceProfile::static_response(&Device::cpu());
        let d = Deployment::create(
            &mut sim,
            DeploymentSpec {
                instance: InstanceType::CpuE2,
                replicas: 3,
                model_bytes: 0,
                node_budget: None,
            },
            &profile,
        )
        .unwrap();
        sim.run_until(d.ready_at());
        d.scale_to(&mut sim, 2);
        // Pod 2 drains; with no in-flight work the next poll reaps it.
        sim.run_until(sim.now().after(Duration::from_secs(1)));
        assert_eq!(d.replicas(), 2);
        let ids: Vec<u32> = d.pods().iter().map(|p| p.id()).collect();
        assert_eq!(ids, vec![0, 1], "newest pod retired first");
        let journal = d.journal();
        assert_eq!(journal.borrow().of(ControlAction::DrainBegin).len(), 1);
        assert_eq!(journal.borrow().of(ControlAction::Terminate).len(), 1);
        assert_eq!(journal.borrow().of(ControlAction::DrainBegin)[0].a, 2);
    }
}
