//! **latency_breakdown** — Where a prediction's milliseconds go.
//!
//! Starts live HTTP servers (the inline JIT route and the continuously
//! batched route, both on the reactor),
//! drives real POST `/predictions` traffic at them, then scrapes each
//! server's `/stats` endpoint and reports the per-stage latency
//! breakdown recorded by `etude-obs` (parse → queue → inference →
//! top-k → serialize → total). This is the observability subsystem's
//! end-to-end exercise: everything flows through real sockets and the
//! same Prometheus/JSON surface operators would scrape.
//!
//! A machine-readable summary is written to
//! `results/BENCH_latency_breakdown.json`. Run with `--smoke` for a
//! seconds-long single-model pass (used by `scripts/verify.sh`).

use etude_models::{ModelConfig, ModelKind, SbrModel};
use etude_obs::{parse_stats_json, Recorder, Stage, StatsSnapshot};
use etude_serve::client::HttpClient;
use etude_serve::http::{self, Request};
use etude_serve::reactor::{start, ReactorConfig};
use etude_serve::rustserver::{model_routes, Handler};
use etude_serve::{model_routes_continuous, ContinuousConfig};
use etude_tensor::Device;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

struct BenchPlan {
    models: Vec<ModelKind>,
    catalog: usize,
    requests: usize,
}

struct Cell {
    model: &'static str,
    route: &'static str,
    ok: usize,
    stats: StatsSnapshot,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let plan = if smoke {
        BenchPlan {
            models: vec![ModelKind::Core],
            catalog: 300,
            requests: 40,
        }
    } else {
        BenchPlan {
            models: vec![ModelKind::Core, ModelKind::Gru4Rec, ModelKind::Narm],
            catalog: 10_000,
            requests: 300,
        }
    };
    println!(
        "== latency_breakdown: server-side stage latencies ({} mode) ==\n",
        if smoke { "smoke" } else { "full" }
    );

    let mut cells = Vec::new();
    for &model in &plan.models {
        let cfg = ModelConfig::new(plan.catalog)
            .with_max_session_len(16)
            .with_seed(11);
        for route in ["plain_jit", "batched_jit"] {
            let shared: Arc<dyn SbrModel> = Arc::from(model.build(&cfg));
            let handler: Handler = match route {
                "plain_jit" => model_routes(shared, Device::cpu(), true),
                _ => model_routes_continuous(
                    shared,
                    Device::cpu(),
                    true,
                    ContinuousConfig::default(),
                    Arc::new(Recorder::new()),
                    None,
                ),
            };
            match drive(handler, &plan, model.name()) {
                Some((ok, stats)) => {
                    println!("-- {} / {} --", model.name(), route);
                    println!("{}", stats.render_table());
                    report_tiling(&stats);
                    cells.push(Cell {
                        model: model.name(),
                        route,
                        ok,
                        stats,
                    });
                }
                None => eprintln!("!! {} / {route}: run failed", model.name()),
            }
        }
    }
    write_summary(&cells, smoke);
}

/// Starts a server around `handler`, fires the plan's requests at it and
/// returns `(ok count, scraped /stats snapshot)`.
fn drive(handler: Handler, plan: &BenchPlan, model: &str) -> Option<(usize, StatsSnapshot)> {
    let server = start(ReactorConfig::default(), handler).ok()?;
    let mut client =
        HttpClient::connect_with_timeout(server.addr(), Duration::from_secs(5)).ok()?;
    let mut rng = SmallRng::seed_from_u64(7);
    let mut ok = 0usize;
    for i in 0..plan.requests {
        let len = rng.gen_range(1..=12usize);
        let items: Vec<u32> = (0..len)
            .map(|_| rng.gen_range(0..plan.catalog as u32))
            .collect();
        let mut req = Request::post("/predictions", http::encode_session(&items));
        req.headers
            .insert("x-request-id".into(), format!("bench-{model}-{i}"));
        if matches!(client.request(&req), Ok(resp) if resp.status == 200) {
            ok += 1;
        }
    }
    // Scrape the same surface operators would: GET /stats as JSON.
    let resp = client.request(&Request::get("/stats")).ok()?;
    let stats = (resp.status == 200)
        .then(|| parse_stats_json(std::str::from_utf8(&resp.body).ok()?))
        .flatten()?;
    server.shutdown();
    Some((ok, stats))
}

/// Prints whether the component stage means tile the observed total —
/// the subsystem's core accounting invariant, checked here on live data.
fn report_tiling(stats: &StatsSnapshot) {
    let total = match stats.stage(Stage::Total.name()) {
        Some(t) if t.count > 0 => t.mean_us,
        _ => return,
    };
    let sum: f64 = Stage::COMPONENTS
        .iter()
        .filter_map(|s| stats.stage(s.name()))
        .map(|s| s.mean_us)
        .sum();
    let gap = (total - sum).abs();
    println!(
        "  [{}] component means sum to {:.1}us vs total {:.1}us\n",
        if gap <= total * 0.1 { "ok" } else { "!!" },
        sum,
        total
    );
}

/// Writes the JSON artifact the results pipeline consumes.
fn write_summary(cells: &[Cell], smoke: bool) {
    let mut body = String::new();
    for cell in cells {
        if !body.is_empty() {
            body.push_str(",\n");
        }
        let mut stages = String::new();
        for s in &cell.stats.stages {
            if !stages.is_empty() {
                stages.push_str(", ");
            }
            stages.push_str(&format!(
                "{{\"stage\": \"{}\", \"count\": {}, \"mean_us\": {:.3}, \"p50_us\": {}, \
                 \"p90_us\": {}, \"p99_us\": {}, \"max_us\": {}}}",
                s.stage, s.count, s.mean_us, s.p50_us, s.p90_us, s.p99_us, s.max_us
            ));
        }
        body.push_str(&format!(
            "    {{\"model\": \"{}\", \"route\": \"{}\", \"ok\": {}, \"requests\": {}, \
             \"dropped\": {}, \"stages\": [{stages}]}}",
            cell.model, cell.route, cell.ok, cell.stats.requests, cell.stats.dropped
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"latency_breakdown\",\n  \"mode\": \"{}\",\n  \
         \"cells\": [\n{body}\n  ]\n}}\n",
        if smoke { "smoke" } else { "full" }
    );
    // Binaries may run from any cwd; anchor on the workspace root.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let path = dir.join("BENCH_latency_breakdown.json");
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &json)) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}
