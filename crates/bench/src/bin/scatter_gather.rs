//! **scatter_gather** — replicated vs partitioned catalog serving.
//!
//! The paper's scaling axis is catalog size C: the embedding table is
//! `4·C·d` bytes with `d = ceil(C^0.25)`, so at C = 10^7 the table
//! alone is ~2.3 GB and replication stops being an option once the
//! operator's per-node memory budget is tighter than the table
//! ([`DeploymentSpec::admit`]). This bench measures what the
//! alternative costs: at C ∈ {10^5, 10^6, 10^7} it drives identical
//! session traffic through
//!
//! * a **replicated** full-catalog pod (the unsharded reference), and
//! * a **sharded** scatter/gather router over one pod per catalog
//!   slice ([`ShardPlan::min_groups`] at a 1 GiB node budget, floor 2),
//!
//! verifying the routed answers are **byte-identical** to the
//! reference before timing anything, then killing one shard group and
//! measuring the degraded path (responses must stay `200` + tagged).
//! A machine-readable summary goes to
//! `results/BENCH_scatter_gather.json`. Run with `--smoke` for the
//! C = 10^5 cell only (used by `scripts/verify.sh`).

use etude_cluster::{DeploymentSpec, InstanceType, ShardPlan};
use etude_models::retrieval::CatalogShard;
use etude_obs::Recorder;
use etude_serve::http::Request;
use etude_serve::reactor::{start, ReactorConfig};
use etude_serve::rustserver::{ServerHandle, DEGRADED_HEADER};
use etude_serve::{router_routes, shard_backend_routes, HttpClient, RouterConfig, ShardTopology};
use etude_tensor::rng::Initializer;
use std::sync::Arc;
use std::time::{Duration, Instant};

const K: usize = 21;
const QUERY_SEED: u64 = 21;
/// Operator budget: 1 GiB of embedding table per node. C = 10^7 (2.28
/// GB) is the scale where replication is rejected and sharding is the
/// only deployment that admits.
const NODE_BUDGET: u64 = 1 << 30;
/// The paper's latency SLO. A lost shard group must cost the smoke
/// cell's degraded requests no more than this at p90.
const SLO_US: u64 = 100_000;

/// `d = ceil(C^0.25)` — the paper's embedding-dimension heuristic.
fn dim_for(c: usize) -> usize {
    (c as f64).powf(0.25).ceil() as usize
}

struct CellPlan {
    catalog: usize,
    requests: usize,
    degraded_requests: usize,
}

/// Client-side latency summary over one measured pass.
struct Summary {
    requests: usize,
    mean_us: f64,
    p50_us: u64,
    p90_us: u64,
}

fn summarize(samples: &mut [Duration]) -> Summary {
    samples.sort_unstable();
    let q = |p: f64| -> u64 {
        let at = ((samples.len() as f64 - 1.0) * p).round() as usize;
        samples[at].as_micros() as u64
    };
    let mean_us =
        samples.iter().map(Duration::as_micros).sum::<u128>() as f64 / samples.len() as f64;
    Summary {
        requests: samples.len(),
        mean_us,
        p50_us: q(0.5),
        p90_us: q(0.9),
    }
}

/// One cell's results, ready for the JSON artifact.
struct Cell {
    catalog: usize,
    dim: usize,
    table_bytes: u64,
    replicated_feasible: bool,
    shards: usize,
    resident_bytes: Vec<u64>,
    bit_identical: bool,
    replicated: Summary,
    sharded: Summary,
    degraded: Summary,
    degraded_tagged: usize,
}

/// Deterministic session for request `i` of a cell.
fn session(i: usize, catalog: usize) -> String {
    let c = catalog as u64;
    let mut items = Vec::with_capacity(3);
    let mut state = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    for _ in 0..3 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        items.push((state % c).to_string());
    }
    items.join(",")
}

/// Fires the cell's sessions at `addr`, returning per-request wall
/// times and response bodies.
fn drive(addr: std::net::SocketAddr, plan: &CellPlan, n: usize) -> (Vec<Duration>, Vec<Vec<u8>>) {
    let mut client = HttpClient::connect_with_timeout(addr, Duration::from_secs(30)).unwrap();
    let mut times = Vec::with_capacity(n);
    let mut bodies = Vec::with_capacity(n);
    for i in 0..n {
        let req = Request::post("/predictions", session(i, plan.catalog));
        let start = Instant::now();
        let resp = client.request(&req).expect("bench request failed");
        times.push(start.elapsed());
        assert_eq!(resp.status, 200, "request {i} failed");
        bodies.push(resp.body.to_vec());
    }
    (times, bodies)
}

fn spawn_backend(shard: CatalogShard, catalog: usize, pod: u32) -> ServerHandle {
    let handler = shard_backend_routes(
        shard,
        catalog,
        QUERY_SEED,
        K,
        Arc::new(Recorder::with_pod(pod)),
    );
    start(ReactorConfig::default(), handler).unwrap()
}

fn run_cell(plan: &CellPlan, smoke: bool) -> Cell {
    let c = plan.catalog;
    let d = dim_for(c);
    println!("-- C = {c}, d = {d} --");

    let shard_plan = ShardPlan::new(c, d, 2, 1);
    let table_bytes = shard_plan.full_table_bytes();
    // Replication admits only while the full table fits one node.
    let replicated_feasible = DeploymentSpec {
        instance: InstanceType::CpuE2,
        replicas: 2,
        model_bytes: table_bytes,
        node_budget: Some(NODE_BUDGET),
    }
    .admit()
    .is_ok();
    let groups = if smoke {
        2
    } else {
        ShardPlan::min_groups(c, d, NODE_BUDGET)
            .expect("budget fits at least one row")
            .max(2)
    };
    println!(
        "table: {:.1} MB, replicated feasible at {} MB/node: {}, shard groups: {groups}",
        table_bytes as f64 / 1e6,
        NODE_BUDGET / (1 << 20),
        replicated_feasible,
    );

    let mut init = Initializer::new(4242);
    let table = init.embedding(c, d).into_vec().expect("dense");

    // Build the shard slices while the table is still around, then move
    // the table itself into the reference index (no second full copy).
    let topo_template = ShardTopology::partition(c, d, QUERY_SEED, groups);
    let slices: Vec<CatalogShard> = (0..groups)
        .map(|i| topo_template.shard_of(&table, i))
        .collect();
    let reference_shard = CatalogShard::new(table, d, 0);

    // Replicated pass: one full-catalog pod, measured directly — then
    // torn down (and its table freed) before the sharded fleet starts.
    let reference = spawn_backend(reference_shard, c, 99);
    let (mut ref_times, ref_bodies) = drive(reference.addr(), plan, plan.requests);
    reference.shutdown();
    let replicated = summarize(&mut ref_times);

    // Sharded pass: one pod per slice behind the router.
    let mut topo = topo_template;
    let mut backends = Vec::with_capacity(groups);
    for (i, shard) in slices.into_iter().enumerate() {
        let server = spawn_backend(shard, c, i as u32);
        topo.groups[i].replicas.push(server.addr());
        backends.push(server);
    }
    let resident_bytes: Vec<u64> = topo.groups.iter().map(|g| g.resident_bytes).collect();
    // The budget is sized for the slowest healthy scan. A one-strike
    // breaker opens on the lost group's first refused connect; from then
    // on its leg fails at once without dialling, so a dead group costs a
    // degraded request microseconds, not its leg budget.
    let config = RouterConfig {
        k: K,
        leg_budget: Duration::from_secs(2),
        breakers: Some(etude_control::BreakerConfig {
            failure_threshold: 1,
            open_for: Duration::from_secs(600),
            half_open_successes: 1,
        }),
        ..Default::default()
    };
    let router = start(
        ReactorConfig::default(),
        router_routes(topo, config, Arc::new(Recorder::new())),
    )
    .unwrap();
    let (mut shard_times, shard_bodies) = drive(router.addr(), plan, plan.requests);
    let sharded = summarize(&mut shard_times);
    let bit_identical = ref_bodies == shard_bodies;
    println!(
        "  [{}] full-health routed answers byte-identical to the unsharded reference",
        if bit_identical { "ok" } else { "!!" }
    );

    // Degraded pass: kill every pod of group 0, keep serving.
    backends.remove(0).shutdown();
    let mut client =
        HttpClient::connect_with_timeout(router.addr(), Duration::from_secs(30)).unwrap();
    let mut degraded_times = Vec::with_capacity(plan.degraded_requests);
    let mut degraded_tagged = 0usize;
    for i in 0..plan.degraded_requests {
        let req = Request::post("/predictions", session(i, c));
        let start = Instant::now();
        let resp = client.request(&req).expect("degraded request failed");
        degraded_times.push(start.elapsed());
        assert_eq!(resp.status, 200, "degraded request {i} must still succeed");
        if resp.headers.get(DEGRADED_HEADER).map(String::as_str) == Some("1") {
            degraded_tagged += 1;
        }
    }
    let degraded = summarize(&mut degraded_times);
    println!(
        "  [{}] one-group loss: {}/{} responses served degraded\n",
        if degraded_tagged == plan.degraded_requests {
            "ok"
        } else {
            "!!"
        },
        degraded_tagged,
        plan.degraded_requests
    );

    router.shutdown();
    for b in backends {
        b.shutdown();
    }

    Cell {
        catalog: c,
        dim: d,
        table_bytes,
        replicated_feasible,
        shards: groups,
        resident_bytes,
        bit_identical,
        replicated,
        sharded,
        degraded,
        degraded_tagged,
    }
}

fn summary_json(s: &Summary) -> String {
    format!(
        "{{\"requests\": {}, \"mean_us\": {:.1}, \"p50_us\": {}, \"p90_us\": {}}}",
        s.requests, s.mean_us, s.p50_us, s.p90_us
    )
}

fn write_summary(cells: &[Cell], smoke: bool) {
    let mut body = String::new();
    for cell in cells {
        if !body.is_empty() {
            body.push_str(",\n");
        }
        let resident: Vec<String> = cell.resident_bytes.iter().map(u64::to_string).collect();
        body.push_str(&format!(
            "    {{\"catalog\": {}, \"dim\": {}, \"k\": {K}, \"table_bytes\": {}, \
             \"node_budget_bytes\": {NODE_BUDGET}, \"replicated_feasible\": {}, \
             \"shards\": {}, \"per_pod_resident_bytes\": [{}], \"bit_identical\": {}, \
             \"replicated\": {}, \"sharded\": {}, \
             \"degraded_one_group_lost\": {}, \"degraded_tagged\": {}}}",
            cell.catalog,
            cell.dim,
            cell.table_bytes,
            cell.replicated_feasible,
            cell.shards,
            resident.join(", "),
            cell.bit_identical,
            summary_json(&cell.replicated),
            summary_json(&cell.sharded),
            summary_json(&cell.degraded),
            cell.degraded_tagged,
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"scatter_gather\",\n  \"mode\": \"{}\",\n  \
         \"cells\": [\n{body}\n  ]\n}}\n",
        if smoke { "smoke" } else { "full" }
    );
    etude_bench::write_result("scatter_gather", smoke, &json);
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    println!(
        "== scatter_gather: replicated vs sharded catalog serving ({} mode) ==\n",
        if smoke { "smoke" } else { "full" }
    );
    let plans: Vec<CellPlan> = if smoke {
        vec![CellPlan {
            catalog: 100_000,
            requests: 30,
            degraded_requests: 10,
        }]
    } else {
        vec![
            CellPlan {
                catalog: 100_000,
                requests: 200,
                degraded_requests: 50,
            },
            CellPlan {
                catalog: 1_000_000,
                requests: 80,
                degraded_requests: 25,
            },
            CellPlan {
                catalog: 10_000_000,
                requests: 20,
                degraded_requests: 8,
            },
        ]
    };
    let cells: Vec<Cell> = plans.iter().map(|p| run_cell(p, smoke)).collect();

    println!("catalog      replicated p90   sharded p90   degraded p90   shards");
    for cell in &cells {
        println!(
            "{:<12} {:>12}us {:>12}us {:>13}us {:>8}",
            cell.catalog,
            cell.replicated.p90_us,
            cell.sharded.p90_us,
            cell.degraded.p90_us,
            cell.shards
        );
    }
    write_summary(&cells, smoke);

    if smoke {
        let p90 = cells[0].degraded.p90_us;
        println!(
            "  [{}] one-group loss: degraded p90 {p90} us within the {} ms SLO",
            if p90 <= SLO_US { "ok" } else { "!!" },
            SLO_US / 1000
        );
        assert!(p90 <= SLO_US, "a lost shard group must fail fast");
    }
    assert!(
        cells.iter().all(|c| c.bit_identical),
        "sharded serving must be byte-identical to the reference at full health"
    );
}
