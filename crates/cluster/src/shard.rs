//! Catalog sharding: partition the embedding table across shard groups.
//!
//! Replication copies the *whole* model onto every node, so the node
//! memory budget caps the catalog size no matter how many replicas are
//! bought ([`DeployError::NodeBudgetExceeded`]). A [`ShardPlan`] instead
//! splits the catalog's row range into `groups` contiguous slices —
//! the same `shard_ranges` partition the kernel layer and the serving
//! router use, so the three layers agree on which rows live where — and
//! [`ShardedDeployment::create`] deploys one replica set per slice, each
//! pod holding only its slice's bytes.
//!
//! The admission story is the point: a full-catalog spec that the node
//! budget rejects becomes deployable once the plan has enough groups
//! that its largest slice fits the budget. [`ShardPlan::min_groups`]
//! computes that count.

use crate::deployment::{DeployError, Deployment, DeploymentSpec};
use crate::instances::InstanceType;
use etude_serve::ServiceProfile;
use etude_simnet::{Sim, SimTime};
use etude_tensor::pool::shard_ranges;

/// How to partition a catalog across shard groups.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// Total catalog rows.
    pub catalog_size: usize,
    /// Embedding dimension (f32 columns per row).
    pub dim: usize,
    /// Number of shard groups (contiguous catalog slices).
    pub groups: usize,
    /// Replicas per shard group — redundancy *within* a slice.
    pub replicas_per_group: usize,
}

/// One shard group's slice of the catalog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSlice {
    /// Group index.
    pub group: u32,
    /// First catalog row held by this group.
    pub base: usize,
    /// Rows held by this group.
    pub rows: usize,
    /// Bytes of embedding table resident on each of the group's pods.
    pub model_bytes: u64,
}

impl ShardPlan {
    /// A plan partitioning `catalog_size × dim` f32 rows into `groups`
    /// slices, each served by `replicas_per_group` pods.
    pub fn new(
        catalog_size: usize,
        dim: usize,
        groups: usize,
        replicas_per_group: usize,
    ) -> ShardPlan {
        ShardPlan {
            catalog_size,
            dim,
            groups,
            replicas_per_group,
        }
    }

    /// Bytes of the full (unsharded) embedding table.
    pub fn full_table_bytes(&self) -> u64 {
        4 * self.catalog_size as u64 * self.dim as u64
    }

    /// The contiguous slices, in catalog order. Row counts differ by at
    /// most one; `base` values tile `0..catalog_size` exactly.
    pub fn slices(&self) -> Vec<ShardSlice> {
        shard_ranges(self.catalog_size, self.groups)
            .into_iter()
            .enumerate()
            .map(|(group, range)| ShardSlice {
                group: group as u32,
                base: range.start,
                rows: range.len(),
                model_bytes: 4 * range.len() as u64 * self.dim as u64,
            })
            .collect()
    }

    /// Fewest groups that bring every slice under `node_budget` bytes.
    /// Returns `None` when even one row per group would not fit (the
    /// budget is smaller than a single embedding row).
    pub fn min_groups(catalog_size: usize, dim: usize, node_budget: u64) -> Option<usize> {
        let row_bytes = 4 * dim as u64;
        if row_bytes > node_budget || catalog_size == 0 {
            return (catalog_size == 0).then_some(1);
        }
        let rows_per_group = (node_budget / row_bytes) as usize;
        Some(catalog_size.div_ceil(rows_per_group))
    }
}

/// A deployed shard plan: one [`Deployment`] (replica set + ClusterIP
/// service) per shard group.
pub struct ShardedDeployment {
    plan: ShardPlan,
    slices: Vec<ShardSlice>,
    groups: Vec<Deployment>,
}

impl ShardedDeployment {
    /// Deploys every shard group, each replica admitted against
    /// `node_budget`. The whole point: this succeeds for catalogs whose
    /// *full* table [`DeploymentSpec::admit`] rejects, because each pod
    /// only holds its slice.
    pub fn create(
        sim: &mut Sim,
        plan: ShardPlan,
        instance: InstanceType,
        node_budget: u64,
        profile: &ServiceProfile,
    ) -> Result<ShardedDeployment, DeployError> {
        let slices = plan.slices();
        let mut groups = Vec::with_capacity(slices.len());
        for slice in &slices {
            let spec = DeploymentSpec {
                instance,
                replicas: plan.replicas_per_group,
                model_bytes: slice.model_bytes,
                node_budget: Some(node_budget),
            };
            groups.push(Deployment::create(sim, spec, profile)?);
        }
        Ok(ShardedDeployment {
            plan,
            slices,
            groups,
        })
    }

    /// The plan this deployment realises.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// The slices, aligned with [`ShardedDeployment::groups`].
    pub fn slices(&self) -> &[ShardSlice] {
        &self.slices
    }

    /// One deployment per shard group, in catalog order.
    pub fn groups(&self) -> &[Deployment] {
        &self.groups
    }

    /// Virtual time at which every group's every replica is ready.
    pub fn ready_at(&self) -> SimTime {
        self.groups
            .iter()
            .map(|g| g.ready_at())
            .max()
            .expect("a plan has at least one group")
    }

    /// Monthly cost across all groups.
    pub fn monthly_cost(&self) -> f64 {
        self.groups.iter().map(|g| g.spec().monthly_cost()).sum()
    }

    /// Bytes resident per pod, per group — honest slice sizes, not the
    /// full table.
    pub fn resident_bytes(&self) -> Vec<u64> {
        self.slices.iter().map(|s| s.model_bytes).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etude_tensor::Device;

    /// C = 10^7 at d = 57 — the paper's largest scenario: a 2.28 GB
    /// table.
    const C: usize = 10_000_000;
    const D: usize = 57;

    #[test]
    fn slices_tile_the_catalog() {
        let plan = ShardPlan::new(C, D, 7, 2);
        let slices = plan.slices();
        assert_eq!(slices.len(), 7);
        let mut next = 0;
        for (i, s) in slices.iter().enumerate() {
            assert_eq!(s.group, i as u32);
            assert_eq!(s.base, next);
            assert_eq!(s.model_bytes, 4 * s.rows as u64 * D as u64);
            next += s.rows;
        }
        assert_eq!(next, C);
        let total: u64 = slices.iter().map(|s| s.model_bytes).sum();
        assert_eq!(total, plan.full_table_bytes());
    }

    #[test]
    fn min_groups_brings_slices_under_budget() {
        let budget = 1 << 30; // 1 GiB per node
        let full = ShardPlan::new(C, D, 1, 1);
        assert!(full.full_table_bytes() > budget);
        let groups = ShardPlan::min_groups(C, D, budget).unwrap();
        assert_eq!(groups, 3, "2.28 GB over 1 GiB nodes needs 3 slices");
        let largest = |plan: ShardPlan| plan.slices().iter().map(|s| s.model_bytes).max();
        assert!(largest(ShardPlan::new(C, D, groups, 2)).unwrap() <= budget);
        // One fewer group would not fit.
        assert!(largest(ShardPlan::new(C, D, groups - 1, 2)).unwrap() > budget);
        // Degenerate budgets are refused rather than looping forever.
        assert_eq!(ShardPlan::min_groups(C, D, 8), None);
    }

    #[test]
    fn sharding_admits_catalogs_replication_cannot() {
        let budget = 1u64 << 30;
        let mut sim = Sim::new();
        let profile = ServiceProfile::static_response(&Device::cpu());
        let plan = ShardPlan::new(C, D, 1, 1);

        // Replicated: every node needs the full 2.28 GB — rejected, and
        // more replicas do not help.
        let replicated = DeploymentSpec {
            instance: InstanceType::CpuE2,
            replicas: 6,
            model_bytes: plan.full_table_bytes(),
            node_budget: Some(budget),
        };
        assert!(matches!(
            Deployment::create(&mut sim, replicated, &profile),
            Err(DeployError::NodeBudgetExceeded { .. })
        ));

        // Sharded at min_groups: admitted, honest per-pod bytes.
        let groups = ShardPlan::min_groups(C, D, budget).unwrap();
        let plan = ShardPlan::new(C, D, groups, 2);
        let sharded =
            ShardedDeployment::create(&mut sim, plan, InstanceType::CpuE2, budget, &profile)
                .unwrap();
        assert_eq!(sharded.groups().len(), groups);
        for (deployment, slice) in sharded.groups().iter().zip(sharded.slices()) {
            assert_eq!(deployment.replicas(), 2);
            for pod in deployment.pods() {
                assert_eq!(pod.model_bytes(), slice.model_bytes);
                assert!(pod.model_bytes() <= budget);
            }
        }
        // Pods start; the fleet becomes ready like any deployment.
        sim.run_until(sharded.ready_at());
        for group in sharded.groups() {
            assert!(group.service().all_ready());
        }
        // Cost scales with total pods.
        let pods = sharded.plan().groups * sharded.plan().replicas_per_group;
        let expected = InstanceType::CpuE2.monthly_cost() * pods as f64;
        assert!((sharded.monthly_cost() - expected).abs() < 1e-9);
    }
}
