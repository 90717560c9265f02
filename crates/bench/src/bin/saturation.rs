//! **saturation** — open-connection capacity of the serving tier.
//!
//! Production session-based recommenders hold tens of thousands of
//! mostly-idle keep-alive connections; the request rate is modest but
//! every client keeps its socket open. This bench measures what that
//! costs the epoll event-loop server (idle connections cost one
//! registration) feeding the continuous batcher.
//!
//! Each cell parks N open connections and drives a fixed low request
//! rate through them via the coordinated-omission-corrected
//! open-connection driver ([`etude_loadgen::openconn`]): latency is
//! measured from *intended* send time, so a server that stalls the
//! load generator cannot hide its tail. The headline is the largest N
//! sustained with p99 within the SLO and zero errors. (The blocking
//! accept/worker server this sweep used to include lost every cell;
//! its last numbers are in DESIGN §14.) A machine-readable summary
//! goes to `results/BENCH_saturation.json`. Run with `--smoke` for a
//! scaled-down grid (used by `scripts/verify.sh`).

use etude_loadgen::openconn::{run_open_conn, OpenConnConfig};
use etude_models::{ModelConfig, ModelKind, SbrModel};
use etude_obs::Recorder;
use etude_serve::contbatch::ContinuousConfig;
use etude_serve::model_routes_continuous;
use etude_serve::reactor::{self, raise_nofile_limit, ReactorConfig};
use etude_serve::rustserver::ServerHandle;
use etude_tensor::Device;
use std::sync::Arc;
use std::time::Duration;

const CATALOG: usize = 1_000;
/// "Equal p99" bar for the headline: a cell is sustained when its
/// CO-corrected p99 stays inside this and nothing errored. 10ms is the
/// serving budget the paper's end-to-end scenarios leave the serving
/// tier after model time.
const SLO_P99_US: u64 = 10_000;
/// Steady-state only: requests in the first half second warm caches and
/// absorb the connect burst, and are excluded from the histogram.
const WARMUP_SECS: f64 = 0.5;

/// Tier label of every cell in the JSON artifact and logs.
const TIER: &str = "reactor+continuous";

struct Cell {
    connections: usize,
    rps: f64,
    duration: Duration,
    sent: u64,
    ok: u64,
    shed: u64,
    errors: u64,
    p50_us: u64,
    p99_us: u64,
    max_us: u64,
    /// Reactor busy / (busy + poll wait) over the run, scraped from the
    /// server's own `/stats` after the schedule drains.
    loop_utilization: Option<f64>,
    /// p99 microseconds a parsed request waited in the dispatch queue
    /// before a worker picked it up — queueing delay the latency
    /// histogram can see but not attribute without this column.
    dispatch_wait_p99_us: Option<u64>,
}

impl Cell {
    /// Within SLO and clean: this tier carries this many open
    /// connections.
    fn sustained(&self) -> bool {
        self.errors == 0 && self.ok > 0 && self.p99_us <= SLO_P99_US
    }
}

fn model() -> Arc<dyn SbrModel> {
    let cfg = ModelConfig::new(CATALOG)
        .with_max_session_len(8)
        .with_seed(7);
    Arc::from(ModelKind::Core.build(&cfg))
}

fn start_server() -> ServerHandle {
    // One recorder serves both roles: the handler renders it at /stats,
    // and `start_observed` installs the reactor's telemetry probe on it
    // — so the loop-utilization and dispatch-wait columns come from the
    // same snapshot the load driver scrapes.
    let recorder = Arc::new(Recorder::new());
    let handler = model_routes_continuous(
        model(),
        Device::cpu(),
        false,
        ContinuousConfig::default(),
        Arc::clone(&recorder),
        None,
    );
    reactor::start_observed(ReactorConfig::default(), handler, recorder).unwrap()
}

fn run_cell(connections: usize, rps: f64, duration: Duration) -> Cell {
    let server = start_server();
    let config = OpenConnConfig {
        connections,
        rps,
        duration: duration + Duration::from_secs_f64(WARMUP_SECS),
        body: "1,2,3".to_string(),
        warmup: (rps * WARMUP_SECS).round() as u64,
        ..OpenConnConfig::default()
    };
    let result = run_open_conn(server.addr(), &config).expect("open-conn run failed");
    server.shutdown();
    let reactor_stats = result.server_stats.as_ref().and_then(|s| s.reactor.clone());
    let cell = Cell {
        connections: result.connections,
        rps,
        duration,
        sent: result.sent,
        ok: result.ok,
        shed: result.shed,
        errors: result.errors,
        p50_us: result.corrected.p50(),
        p99_us: result.corrected.p99(),
        max_us: result.corrected.max(),
        loop_utilization: reactor_stats.as_ref().map(|r| r.utilization()),
        dispatch_wait_p99_us: reactor_stats
            .as_ref()
            .map(|r| r.dispatch_wait_histogram().p99()),
    };
    println!(
        "  {TIER} @ {:>6} conns: {:>4} ok, {} shed, {} errors, \
         p50 {}us, p99 {}us{} [{}]",
        cell.connections,
        cell.ok,
        cell.shed,
        cell.errors,
        cell.p50_us,
        cell.p99_us,
        match (cell.loop_utilization, cell.dispatch_wait_p99_us) {
            (Some(u), Some(w)) => format!(", loop util {u:.3}, dispatch wait p99 {w}us"),
            _ => String::new(),
        },
        if cell.sustained() {
            "sustained"
        } else {
            "BLOWN"
        },
    );
    cell
}

fn cell_json(c: &Cell) -> String {
    let util = c
        .loop_utilization
        .map_or("null".to_string(), |u| format!("{u:.4}"));
    let wait = c
        .dispatch_wait_p99_us
        .map_or("null".to_string(), |w| w.to_string());
    format!(
        "    {{\"mode\": \"{TIER}\", \"connections\": {}, \"rps\": {:.0}, \
         \"duration_s\": {:.1}, \"sent\": {}, \"ok\": {}, \"shed\": {}, \
         \"errors\": {}, \"co_corrected\": true, \"p50_us\": {}, \
         \"p99_us\": {}, \"max_us\": {}, \"loop_utilization\": {util}, \
         \"dispatch_wait_p99_us\": {wait}, \"sustained\": {}}}",
        c.connections,
        c.rps,
        c.duration.as_secs_f64(),
        c.sent,
        c.ok,
        c.shed,
        c.errors,
        c.p50_us,
        c.p99_us,
        c.max_us,
        c.sustained(),
    )
}

fn write_summary(cells: &[Cell], smoke: bool) {
    let max_conns = cells
        .iter()
        .filter(|c| c.sustained())
        .map(|c| c.connections)
        .max()
        .unwrap_or(0);
    println!("\nheadline: {TIER} sustains {max_conns} open conns at p99 <= {SLO_P99_US}us");

    let body: Vec<String> = cells.iter().map(cell_json).collect();
    let json = format!(
        "{{\n  \"bench\": \"saturation\",\n  \"mode\": \"{}\",\n  \
         \"poller\": \"{}\",\n  \"event_loops\": {},\n  \"simd_isa\": \"{}\",\n  \
         \"slo_p99_us\": {SLO_P99_US},\n  \"headline\": {{\
         \"reactor_continuous_max_conns\": {max_conns}}},\n  \"cells\": [\n{}\n  ]\n}}\n",
        if smoke { "smoke" } else { "full" },
        reactor::poller_backend_name(),
        ReactorConfig::default().event_loops,
        etude_tensor::simd::isa_name(),
        body.join(",\n"),
    );
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let path = dir.join("BENCH_saturation.json");
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &json)) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// A/B measurement of the always-on profiler's cost on the hot kernel
/// it tags: interleaved rounds of the fused score+top-k scan with
/// scope recording + sampling on vs off, compared by median round
/// ratio (the median cancels one-off scheduler noise that a mean of
/// wall times would not).
fn profiler_overhead_check() {
    use etude_tensor::topk::{score_topk_into, TopkScratch};

    const C: usize = 20_000;
    const D: usize = 64;
    const K: usize = 50;
    const REPS: usize = 50;
    const ROUNDS: usize = 7;

    let mut state = 0x2545_f491_4f6c_dd1du64;
    let table: Vec<f32> = (0..C * D)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1u64 << 23) as f32 - 1.0
        })
        .collect();
    let query: Vec<f32> = table[..D].to_vec();
    let mut scratch = TopkScratch::default();
    let mut ids = Vec::new();
    let mut scores = Vec::new();

    // The ticker is part of the cost under test: it is what production
    // servers run. `set_enabled(false)` parks both it and the scopes.
    etude_obs::profile::start_ticker(etude_obs::profile::DEFAULT_TICK);
    let mut rep = |enabled: bool| {
        etude_obs::profile::set_enabled(enabled);
        let start = std::time::Instant::now();
        score_topk_into(&table, &query, C, K, &mut scratch, &mut ids, &mut scores);
        start.elapsed().as_secs_f64()
    };
    // Warm both paths (page the table in, intern the sites).
    for _ in 0..16 {
        rep(false);
        rep(true);
    }
    // Strictly interleaved per-rep samples: every "on" rep has an
    // adjacent "off" rep, so frequency drift and scheduler hiccups land
    // on both sides equally and the per-side medians stay comparable.
    let mut on = Vec::with_capacity(ROUNDS * REPS);
    let mut off = Vec::with_capacity(ROUNDS * REPS);
    for _ in 0..ROUNDS * REPS {
        off.push(rep(false));
        on.push(rep(true));
    }
    etude_obs::profile::set_enabled(true);
    let median = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[v.len() / 2]
    };
    let ratio = median(&mut on) / median(&mut off);
    let overhead_pct = (ratio - 1.0) * 100.0;
    println!(
        "profiler overhead on score_topk: {overhead_pct:+.2}% \
         (median of {} interleaved reps per side)\n",
        ROUNDS * REPS
    );
    assert!(
        ratio <= 1.02,
        "always-on profiler costs {overhead_pct:.2}% on the hot kernel (budget 2%)"
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    println!(
        "== saturation: open-connection capacity of {TIER} ({} mode) ==\n",
        if smoke { "smoke" } else { "full" }
    );
    if smoke {
        profiler_overhead_check();
    }

    // Two fds per in-process connection, plus headroom for the servers
    // and harness; scale the grid down rather than fail on boxes where
    // the limit cannot be raised.
    let limit = raise_nofile_limit(120_000).unwrap_or(1024);
    let usable = (limit.saturating_sub(2_000) / 2) as usize;
    let grid: Vec<usize> = if smoke {
        vec![100, 1_000]
    } else {
        vec![1_000, 10_000, 50_000]
    };
    let grid: Vec<usize> = {
        let mut g: Vec<usize> = grid.into_iter().map(|n| n.min(usable)).collect();
        g.dedup();
        g
    };
    println!("fd limit {limit} -> grid {grid:?}\n");

    let (rps, duration) = if smoke {
        (150.0, Duration::from_secs(1))
    } else {
        (300.0, Duration::from_secs(3))
    };

    let mut cells = Vec::new();
    for &connections in &grid {
        cells.push(run_cell(connections, rps, duration));
    }
    write_summary(&cells, smoke);
}
