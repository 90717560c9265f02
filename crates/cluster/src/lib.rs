//! # etude-cluster
//!
//! The cloud/Kubernetes environment of the ETUDE paper, as a simulation:
//!
//! * [`instances`] — the GCP instance catalog the paper deploys on
//!   (`e2` CPU, `e2` + Tesla T4, A100) with their monthly prices,
//! * [`pod`] — pod lifecycle with model-download/load time and
//!   Kubernetes-style readiness probes ("Once the model deployment is
//!   finished (determined via Kubernetes's readiness probes) ..."),
//! * [`service`] — a ClusterIP service: round-robin routing over ready
//!   replicas,
//! * [`deployment`] — ties a model + instance type + replica count into a
//!   deployable, routable unit with a monthly cost, reconciled at runtime
//!   via `scale_to`,
//! * [`shard`] — catalog partitioning: a [`shard::ShardPlan`] splits the
//!   embedding table into contiguous slices and deploys one replica set
//!   per slice, admitting catalogs whose full table the per-node memory
//!   budget rejects.

pub mod deployment;
pub mod instances;
pub mod pod;
pub mod service;
pub mod shard;

pub use deployment::{DeployError, Deployment, DeploymentSpec};
pub use instances::InstanceType;
pub use pod::{Pod, PodLoadStats, PodPhase};
pub use service::ClusterIpService;
pub use shard::{ShardPlan, ShardSlice, ShardedDeployment};
