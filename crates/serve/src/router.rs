//! The scatter/gather routing tier for partitioned-catalog serving.
//!
//! At C = 10^7–10^8 the embedding table alone outgrows a single node, so
//! the catalog is partitioned across *shard groups*: each group is a
//! replica set of pods holding only its contiguous slice of the
//! embedding table ([`etude_models::retrieval::CatalogShard`]). A router
//! pod fans every prediction out to one healthy replica per group,
//! merges the partial top-k results, and answers the client — paying a
//! fan-out/merge cost instead of a memory wall.
//!
//! Correctness contract (verified by proptests and the chaos suite):
//!
//! * **Full health**: the merged top-k is **bit-identical** to an
//!   unsharded fused [`etude_tensor::topk::score_topk`] scan of the full
//!   table. Each shard runs the same kernel over its slice reporting
//!   global ids; scores survive the wire exactly (Rust's shortest
//!   round-trip f32 formatting); the merge comparator
//!   ([`etude_tensor::topk::merge_shard_topk`]) equals the kernel's.
//! * **Partial health**: when every replica of a group is unreachable,
//!   the router serves the exact top-k of the *surviving* slices —
//!   a `200` tagged [`crate::DEGRADED_HEADER`], counted as `degraded` on
//!   `/stats` — instead of failing the request. Only the loss of every
//!   group yields an error (`503`).
//!
//! * **Burned budget**: a request that reaches the router with most of
//!   its deadline budget spent ([`RouterConfig::ladder`]) is not fanned
//!   out; it gets the tier-independent shed-or-fallback answer. Legs
//!   carry the remaining budget and the criticality, never a brownout
//!   level: a shard backend always scans its f32 slice at `k`.
//!
//! Within a group the router reuses [`ResilientClient`]: per-replica
//! circuit breakers and bounded retries are scoped to that group's
//! replica set, and a group whose every breaker is open fails its leg
//! at once instead of spending the leg budget. Scatter legs run concurrently (scoped
//! threads); leg `i` carries the request id `{id}-s{i}`, so a shard's
//! spans and slow exemplars correlate with the routed request.

use crate::client::ResilientClient;
use crate::contbatch::{DEADLINE_HEADER, MAX_BUDGET};
use crate::http::{self, Request};
use crate::overload::{BrownoutLevel, LadderConfig};
use crate::rustserver::{
    popularity_fallback, prediction_routes, shed_or_fallback, Handler, Refused, Served,
};
use etude_control::{BreakerConfig, Criticality};
use etude_faults::RetryPolicy;
use etude_models::retrieval::{encode_session_query, CatalogShard, MipsIndex};
use etude_obs::Recorder;
use etude_tensor::topk::merge_shard_topk;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One shard group: a contiguous catalog slice and the replica set
/// serving it.
#[derive(Debug, Clone)]
pub struct ShardGroupSpec {
    /// Group id (position in the partition).
    pub id: u32,
    /// First global catalog row of this group's slice.
    pub base: u32,
    /// Rows in the slice.
    pub rows: usize,
    /// Embedding-table bytes resident on each replica (4·rows·d).
    pub resident_bytes: u64,
    /// Addresses of the group's replicas.
    pub replicas: Vec<SocketAddr>,
}

/// The catalog partition a router serves: which rows live where, plus
/// the query-embedding parameters every backend shares.
#[derive(Debug, Clone)]
pub struct ShardTopology {
    /// Total catalog rows (shard slices tile `0..catalog_size`).
    pub catalog_size: usize,
    /// Embedding dimension.
    pub dim: usize,
    /// Seed of the shared [`encode_session_query`] hash embedding.
    pub query_seed: u64,
    /// The shard groups, in slice order.
    pub groups: Vec<ShardGroupSpec>,
}

impl ShardTopology {
    /// Partitions `catalog_size` rows into `groups` contiguous slices
    /// (the same split [`etude_tensor::pool::shard_ranges`] uses, so the
    /// proptest reference and the serving tier agree). Replica addresses
    /// start empty; fill them as backends come up.
    pub fn partition(
        catalog_size: usize,
        dim: usize,
        query_seed: u64,
        groups: usize,
    ) -> ShardTopology {
        let ranges = etude_tensor::pool::shard_ranges(catalog_size, groups.clamp(1, catalog_size));
        ShardTopology {
            catalog_size,
            dim,
            query_seed,
            groups: ranges
                .iter()
                .enumerate()
                .map(|(i, r)| ShardGroupSpec {
                    id: i as u32,
                    base: r.start as u32,
                    rows: r.len(),
                    resident_bytes: 4 * (r.len() * dim) as u64,
                    replicas: Vec::new(),
                })
                .collect(),
        }
    }

    /// The slice of `table` owned by group `i`, as a servable shard.
    pub fn shard_of(&self, table: &[f32], i: usize) -> CatalogShard {
        let g = &self.groups[i];
        CatalogShard::from_table(table, self.dim, g.base as usize..g.base as usize + g.rows)
    }
}

/// Router tuning knobs.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Recommendations returned to the client (and requested per shard).
    pub k: usize,
    /// Wall-clock budget for one scatter leg (retries included). A lost
    /// shard group costs at most this much extra latency.
    pub leg_budget: Duration,
    /// Retry schedule within a leg.
    pub policy: RetryPolicy,
    /// Per-replica circuit breakers (`None` disables them).
    pub breakers: Option<BreakerConfig>,
    /// Seed for the clients' deterministic backoff jitter.
    pub seed: u64,
    /// Budget granted to requests without an `x-deadline-ms` header.
    /// The router decrements the remaining budget into each shard leg.
    pub default_deadline: Duration,
    /// Brownout threshold on the *already burned* fraction of the
    /// budget at scatter time: past it the router answers from its own
    /// fallback instead of fanning out.
    pub ladder: LadderConfig,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            k: 21,
            leg_budget: Duration::from_millis(250),
            policy: RetryPolicy::default_chaos(),
            breakers: Some(BreakerConfig::default()),
            seed: 0,
            default_deadline: Duration::from_secs(2),
            ladder: LadderConfig::default(),
        }
    }
}

/// Builds the route table of a **shard backend** pod: `/predictions`
/// over one catalog slice, answering with *global* item ids.
///
/// The session query is the shared deterministic hash embedding
/// ([`encode_session_query`]) — a shard pod cannot embed items outside
/// its slice, so the (tiny) session encoder is replicated as a pure
/// function while only the catalog scan is partitioned. Passing the
/// full-catalog range makes this the unsharded reference server, which
/// is exactly how the bit-identity acceptance test uses it.
pub fn shard_backend_routes(
    shard: CatalogShard,
    catalog_size: usize,
    query_seed: u64,
    k: usize,
    recorder: Arc<Recorder>,
) -> Handler {
    let dim = shard.dim();
    // Ids validate against the *full* catalog: a shard serves a slice
    // but speaks the global id space. Absent the router's decremented
    // `x-deadline-ms`, a leg is effectively unbudgeted.
    prediction_routes(recorder, catalog_size, MAX_BUDGET, move |ctx, items| {
        // Propagated deadline: a leg whose budget died in transit (or
        // in the dispatch queue) is shed before its scan starts — the
        // no-late-inference invariant, extended to the fan-out tier.
        if ctx.deadline.expired() {
            return Err(Refused::Shed("leg budget exhausted before scan"));
        }
        let t_inf = Instant::now();
        let query = encode_session_query(&items, dim, query_seed);
        let (ids, scores) = shard.search(&query, k);
        Ok(Served {
            on_ladder: true,
            ..Served::new(ids, scores, t_inf.elapsed())
        })
    })
}

/// One scatter leg's client state: a [`ResilientClient`] over the
/// group's replica set. Wrapped in a mutex because the retry loop is
/// `&mut self`; the router serialises in-flight legs per group, which
/// also keeps breaker state coherent.
struct GroupClient {
    client: parking_lot::Mutex<ResilientClient>,
}

/// Builds the **router** route table over a shard topology.
///
/// * `POST /predictions` — validate, scatter to one healthy replica per
///   group (concurrently), gather, merge, answer. Partial gathers are
///   degraded `200`s; an empty gather is a `503`.
/// * `/ping`, `/static`, `/stats`, `/metrics` — the shared routes, over
///   the router's own recorder (degraded counts land here).
pub fn router_routes(
    topology: ShardTopology,
    config: RouterConfig,
    recorder: Arc<Recorder>,
) -> Handler {
    assert!(
        !topology.groups.is_empty(),
        "a router needs at least one shard group"
    );
    for g in &topology.groups {
        assert!(
            !g.replicas.is_empty(),
            "shard group {} has no replicas",
            g.id
        );
    }
    let clients: Vec<GroupClient> = topology
        .groups
        .iter()
        .map(|g| {
            let mut c = ResilientClient::new_multi(
                g.replicas.clone(),
                config.policy.clone(),
                config.seed ^ u64::from(g.id),
            )
            .with_attempt_timeout(config.leg_budget);
            if let Some(b) = config.breakers {
                c = c.with_breakers(b);
            }
            GroupClient {
                client: parking_lot::Mutex::new(c),
            }
        })
        .collect();
    let clients = Arc::new(clients);
    let k = config.k;
    let leg_budget = config.leg_budget;
    let ladder = config.ladder.clone();
    // The router's own fallback rung: the global popularity fallback,
    // served locally when the budget is nearly burned — cheaper and
    // more useful than fanning out a scatter that cannot finish. Legs
    // always scan their f32 slice at `k`.
    let fallback_body = popularity_fallback(topology.catalog_size, k);

    // Reject at the edge (shards never see bad input), then scatter,
    // gather, merge: the scatter is this tier's Inference stage, the
    // merge its TopK.
    prediction_routes(
        recorder,
        topology.catalog_size,
        config.default_deadline,
        move |ctx, _items| {
            // Deadline propagation: shed before the fan-out when the
            // budget is already burned, and decrement what remains into
            // every leg.
            let remaining = ctx.deadline.remaining();
            let crit = ctx.criticality();
            if remaining.is_zero() {
                return Err(Refused::Shed("deadline exhausted before fan-out"));
            }
            // Brownout: past the fallback threshold of burned budget a
            // scatter cannot finish in time, so the router serves its
            // local popularity fallback — for traffic that did not opt
            // into shedding.
            let burned = 1.0 - remaining.as_secs_f64() / ctx.budget.as_secs_f64().max(1e-9);
            if ladder.level_at(burned) == BrownoutLevel::Fallback {
                let why = "budget too burned to fan out";
                return Err(shed_or_fallback(crit, why, &fallback_body));
            }
            let leg_deadline_ms = remaining.as_millis().max(1).to_string();
            let leg_budget = leg_budget.min(remaining);

            // Scatter: one leg per shard group, concurrently. Each leg
            // forwards the session body untouched.
            let t_scatter = Instant::now();
            let mut partials: Vec<Option<(Vec<u32>, Vec<f32>)>> = Vec::with_capacity(clients.len());
            partials.resize_with(clients.len(), || None);
            std::thread::scope(|scope| {
                for (i, (gc, slot)) in clients.iter().zip(partials.iter_mut()).enumerate() {
                    let mut leg = Request::post("/predictions", ctx.req.body.clone());
                    // Always stamp the leg with a per-shard request id
                    // — derived from the client's id when it sent one,
                    // from the router's correlation id hash otherwise —
                    // so shard-side `/stats` spans and slow exemplars
                    // correlate with the router-side request even for
                    // anonymous traffic.
                    let leg_id = match ctx.echo {
                        Some(id) => format!("{id}-s{i}"),
                        None => format!("{:016x}-s{i}", ctx.rid),
                    };
                    leg.headers.insert("x-request-id".into(), leg_id);
                    // Decremented budget and criticality ride every leg.
                    leg.headers
                        .insert(DEADLINE_HEADER.into(), leg_deadline_ms.clone());
                    if crit != Criticality::Normal {
                        leg.headers
                            .insert(Criticality::HEADER.into(), crit.name().to_string());
                    }
                    scope.spawn(move || {
                        let mut client = gc.client.lock();
                        if let Ok(r) = client.request_within(&leg, leg_budget) {
                            if r.response.status == 200 {
                                if let Ok(partial) = http::decode_recommendations(&r.response.body)
                                {
                                    *slot = Some(partial);
                                }
                            }
                        }
                    });
                }
            });
            let scatter = t_scatter.elapsed();

            // Gather + merge.
            let t_merge = Instant::now();
            let survivors: Vec<(Vec<u32>, Vec<f32>)> = partials.into_iter().flatten().collect();
            if survivors.is_empty() {
                return Err(Refused::ShardsUnavailable);
            }
            let (items, scores) = merge_shard_topk(&survivors, k);
            Ok(Served {
                topk: Some(t_merge.elapsed()),
                on_ladder: true,
                lost_groups: clients.len() - survivors.len(),
                reports_compute: false,
                ..Served::new(items, scores, scatter)
            })
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_tiles_the_catalog() {
        let topo = ShardTopology::partition(1_000, 18, 7, 4);
        assert_eq!(topo.groups.len(), 4);
        assert_eq!(topo.groups[0].base, 0);
        let mut next = 0u32;
        let mut total = 0usize;
        for g in &topo.groups {
            assert_eq!(g.base, next, "slices are contiguous");
            assert_eq!(g.resident_bytes, 4 * (g.rows * 18) as u64);
            next += g.rows as u32;
            total += g.rows;
        }
        assert_eq!(total, 1_000);
        // One group = the whole catalog.
        let one = ShardTopology::partition(100, 4, 0, 1);
        assert_eq!(one.groups.len(), 1);
        assert_eq!(one.groups[0].rows, 100);
    }

    #[test]
    fn shard_of_extracts_the_right_rows() {
        let (c, d) = (120usize, 6usize);
        let table: Vec<f32> = (0..c * d).map(|i| i as f32).collect();
        let topo = ShardTopology::partition(c, d, 0, 3);
        let mut rows = 0;
        for i in 0..topo.groups.len() {
            let shard = topo.shard_of(&table, i);
            assert_eq!(shard.base(), topo.groups[i].base);
            assert_eq!(shard.rows(), topo.groups[i].rows);
            rows += shard.rows();
        }
        assert_eq!(rows, c);
    }
}
