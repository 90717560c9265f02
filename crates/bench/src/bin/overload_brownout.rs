//! **overload_brownout** — the overload-control sweep under a flash
//! crowd (DESIGN.md §16).
//!
//! One seeded flash-crowd schedule (peak ≈ 5× the pinned scan
//! capacity, 30/50/20 shed-first/normal/critical) is replayed against
//! the overload-controlled retrieval tier three times:
//!
//! * **off** — no admission limiter, ladder disabled: the continuous
//!   batcher's queue and deadline checks are the only defense,
//! * **admission** — the AIMD limiter alone: concurrency is clamped,
//!   shed-first traffic refused with 429s and refused normal/critical
//!   traffic answered from the fallback, but every admitted request
//!   queues for the scan,
//! * **full** — limiter plus early fallback: an admitted request whose
//!   predicted queue wait would burn `fallback_at` of its budget takes
//!   the popularity fallback instead of queueing.
//!
//! Each cell reports per-class goodput (200 within the deadline
//! budget), the refusal split, the fallback count from the server's
//! own recorder, and client-observed latency quantiles of 200s. The
//! headline is critical-class goodput per cell of the sweep. A
//! machine-readable summary goes to `results/BENCH_overload.json`;
//! `--smoke` shortens the horizon (used by `scripts/verify.sh`).

use etude_control::{AdmissionConfig, Criticality};
use etude_metrics::hdr::Histogram;
use etude_obs::Recorder;
use etude_serve::http::Request;
use etude_serve::reactor::{self, ReactorConfig};
use etude_serve::{
    overload_routes_with_state, ContinuousConfig, HttpClient, LadderConfig, OverloadConfig,
};
use etude_workload::FlashCrowdSpec;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const C: usize = 256;
const D: usize = 8;
const K: usize = 21;
const QUERY_SEED: u64 = 5;
/// Tight enough that the AIMD equilibrium queue wait (limit · floor /
/// slots ≈ 50ms) is a *meaningful* fraction of the budget — the burn
/// threshold must be reachable or the full cell degenerates into the
/// admission-only cell — and tight enough that the uncontrolled
/// cell's backlog (queue waits past 130ms at this crowd) reliably blows
/// it, so the off cell shows the cliff overload control exists to
/// remove.
const BUDGET: Duration = Duration::from_millis(100);
const FLOOR: Duration = Duration::from_millis(4);
const SLOTS: usize = 2;
const DRIVER_THREADS: usize = 64;
const DISPATCH_THREADS: usize = 64;
const MAX_LIMIT: f64 = 32.0;
/// Scan capacity the spike is measured against.
const CAPACITY_RPS: f64 = SLOTS as f64 / 0.004;

fn table() -> Vec<f32> {
    let mut state = 0x51ed_270b_u64;
    (0..C * D)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1u64 << 23) as f32 - 1.0
        })
        .collect()
}

fn spec(horizon: Duration) -> FlashCrowdSpec {
    let mut s = FlashCrowdSpec::flash(C, CAPACITY_RPS, 5.0, horizon).with_seed(11);
    s.criticality_mix = [0.3, 0.5, 0.2];
    s.workload.max_session_len = 16;
    s
}

#[derive(Clone, Copy)]
enum Ladder {
    Off,
    AdmissionOnly,
    Full,
}

impl Ladder {
    fn label(self) -> &'static str {
        match self {
            Ladder::Off => "off",
            Ladder::AdmissionOnly => "admission",
            Ladder::Full => "full",
        }
    }
}

fn overload_config(ladder: Ladder) -> OverloadConfig {
    let admission = match ladder {
        Ladder::Off => None,
        // The latency target sits *above* the ladder's burn threshold
        // (0.6 · 100ms = 60ms): the limiter tolerates queueing deep
        // enough for the early fallback to engage, so the full cell
        // can differ from the admission-only cell at all.
        _ => Some(AdmissionConfig {
            max_limit: MAX_LIMIT,
            target: Duration::from_millis(120),
            ..AdmissionConfig::default()
        }),
    };
    OverloadConfig {
        batch: ContinuousConfig {
            slots: SLOTS,
            // Deep enough that, unclamped, the queue's drain time
            // (256 · 4ms / 2 = 512ms) overruns the 100ms budget — the
            // failure mode admission control exists to prevent.
            max_queue: 256,
            default_deadline: BUDGET,
        },
        k: K,
        admission,
        // A lower threshold than the default 0.75: under the clamped
        // limit the queue wait tops out near 0.6 of the budget (the
        // cells' `queue_max_us`), so the default would never fire.
        ladder: LadderConfig {
            enabled: matches!(ladder, Ladder::Full),
            fallback_at: 0.6,
        },
        service_floor: FLOOR,
    }
}

struct Outcome {
    criticality: u8,
    status: u16,
    brownout: bool,
    latency: Duration,
}

/// Replays the schedule from `DRIVER_THREADS` keep-alive connections,
/// honouring each request's send offset.
fn drive(
    addr: std::net::SocketAddr,
    schedule: &[etude_workload::ScheduledRequest],
) -> Vec<Outcome> {
    let outcomes = Mutex::new(Vec::with_capacity(schedule.len()));
    let t0 = Instant::now() + Duration::from_millis(50);
    std::thread::scope(|scope| {
        for tid in 0..DRIVER_THREADS {
            let outcomes = &outcomes;
            let slice: Vec<_> = schedule.iter().skip(tid).step_by(DRIVER_THREADS).collect();
            scope.spawn(move || {
                let mut client = HttpClient::connect(addr).expect("connect");
                let mut local = Vec::with_capacity(slice.len());
                for r in slice {
                    let due = t0 + r.at;
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let class = Criticality::ALL[r.criticality as usize];
                    let req = Request::post("/predictions", r.body())
                        .with_header("x-deadline-ms", BUDGET.as_millis().to_string())
                        .with_header(Criticality::HEADER, class.name());
                    let sent = Instant::now();
                    let resp = client.request(&req).expect("keep-alive request");
                    let brownout = resp
                        .headers
                        .get("x-brownout-level")
                        .is_some_and(|v| v.trim() != "0")
                        || resp.headers.contains_key("x-degraded");
                    local.push(Outcome {
                        criticality: r.criticality,
                        status: resp.status,
                        brownout,
                        latency: sent.elapsed(),
                    });
                }
                outcomes.lock().unwrap().extend(local);
            });
        }
    });
    outcomes.into_inner().unwrap()
}

struct Cell {
    ladder: &'static str,
    sent: usize,
    ok: u64,
    brownout_200s: u64,
    refused_429: u64,
    shed_503: u64,
    errors: u64,
    class_sent: [u64; 3],
    class_good: [u64; 3],
    shed_first_refusals: u64,
    total_refusals: u64,
    p50_us: u64,
    p99_us: u64,
    server_brownout: u64,
    admission_limit: Option<f64>,
    queue_max_us: u64,
}

fn run_cell(ladder: Ladder, schedule: &[etude_workload::ScheduledRequest]) -> Cell {
    let recorder = Arc::new(Recorder::new());
    let (handler, state) = overload_routes_with_state(
        table(),
        C,
        D,
        QUERY_SEED,
        overload_config(ladder),
        Arc::clone(&recorder),
    );
    let server = reactor::start(
        ReactorConfig {
            dispatch_threads: DISPATCH_THREADS,
            ..ReactorConfig::default()
        },
        handler,
    )
    .unwrap();
    let outcomes = drive(server.addr(), schedule);
    let snap = recorder.snapshot();
    let admission_limit = state.admission().map(|a| a.limit_milli() as f64 / 1_000.0);
    server.shutdown();

    let mut cell = Cell {
        ladder: ladder.label(),
        sent: outcomes.len(),
        ok: 0,
        brownout_200s: 0,
        refused_429: 0,
        shed_503: 0,
        errors: 0,
        class_sent: [0; 3],
        class_good: [0; 3],
        shed_first_refusals: 0,
        total_refusals: 0,
        p50_us: 0,
        p99_us: 0,
        server_brownout: snap.brownout_fallback,
        admission_limit,
        queue_max_us: snap.stage("queue").map_or(0, |s| s.max_us),
    };
    let mut hist = Histogram::new();
    for o in &outcomes {
        cell.class_sent[o.criticality as usize] += 1;
        match o.status {
            200 => {
                cell.ok += 1;
                if o.brownout {
                    cell.brownout_200s += 1;
                }
                if o.latency <= BUDGET {
                    cell.class_good[o.criticality as usize] += 1;
                }
                hist.record_duration(o.latency);
            }
            429 => cell.refused_429 += 1,
            503 => cell.shed_503 += 1,
            _ => cell.errors += 1,
        }
        if o.status == 429 || o.status == 503 {
            cell.total_refusals += 1;
            if o.criticality == 0 {
                cell.shed_first_refusals += 1;
            }
        }
    }
    cell.p50_us = hist.p50();
    cell.p99_us = hist.p99();
    println!(
        "  {:>9}: {} sent, {} ok ({} browned out), {} x 429, {} x 503, \
         critical goodput {}/{}, p99 {}us, queue max {}us, limit {:?}",
        cell.ladder,
        cell.sent,
        cell.ok,
        cell.brownout_200s,
        cell.refused_429,
        cell.shed_503,
        cell.class_good[2],
        cell.class_sent[2],
        cell.p99_us,
        cell.queue_max_us,
        cell.admission_limit,
    );
    cell
}

fn goodput_pct(cell: &Cell, class: usize) -> f64 {
    if cell.class_sent[class] == 0 {
        return 100.0;
    }
    100.0 * cell.class_good[class] as f64 / cell.class_sent[class] as f64
}

fn cell_json(c: &Cell) -> String {
    let limit = c
        .admission_limit
        .map_or("null".to_string(), |l| format!("{l:.3}"));
    format!(
        "    {{\"ladder\": \"{}\", \"sent\": {}, \"ok\": {}, \"brownout_200s\": {}, \
         \"refused_429\": {}, \"shed_503\": {}, \"errors\": {}, \
         \"class_sent\": [{}, {}, {}], \"goodput_within_slo\": [{}, {}, {}], \
         \"critical_goodput_pct\": {:.2}, \"shed_first_share_of_refusals\": {:.3}, \
         \"p50_us\": {}, \"p99_us\": {}, \
         \"server_brownout\": {}, \"admission_limit\": {limit}, \
         \"queue_max_us\": {}}}",
        c.ladder,
        c.sent,
        c.ok,
        c.brownout_200s,
        c.refused_429,
        c.shed_503,
        c.errors,
        c.class_sent[0],
        c.class_sent[1],
        c.class_sent[2],
        c.class_good[0],
        c.class_good[1],
        c.class_good[2],
        goodput_pct(c, 2),
        if c.total_refusals == 0 {
            1.0
        } else {
            c.shed_first_refusals as f64 / c.total_refusals as f64
        },
        c.p50_us,
        c.p99_us,
        c.server_brownout,
        c.queue_max_us,
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let horizon = if smoke {
        Duration::from_millis(1_200)
    } else {
        Duration::from_secs(4)
    };
    let schedule = spec(horizon).schedule();
    println!(
        "overload_brownout ({}): {} requests over {:.1}s, peak ~{:.0} req/s vs {:.0} req/s capacity",
        if smoke { "smoke" } else { "full" },
        schedule.len(),
        horizon.as_secs_f64(),
        spec(horizon).peak_rate(),
        CAPACITY_RPS,
    );

    let cells: Vec<Cell> = [Ladder::Off, Ladder::AdmissionOnly, Ladder::Full]
        .into_iter()
        .map(|l| run_cell(l, &schedule))
        .collect();

    let headline: Vec<String> = cells
        .iter()
        .map(|c| format!("\"{}\": {:.2}", c.ladder, goodput_pct(c, 2)))
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"overload_brownout\",\n  \"mode\": \"{}\",\n  \
         \"budget_ms\": {},\n  \"capacity_rps\": {:.0},\n  \"peak_multiplier\": 5.0,\n  \
         \"criticality_mix\": [0.3, 0.5, 0.2],\n  \
         \"headline\": {{\"critical_goodput_pct\": {{{}}}}},\n  \"cells\": [\n{}\n  ]\n}}\n",
        if smoke { "smoke" } else { "full" },
        BUDGET.as_millis(),
        CAPACITY_RPS,
        headline.join(", "),
        cells.iter().map(cell_json).collect::<Vec<_>>().join(",\n"),
    );
    etude_bench::write_result("overload", smoke, &json);
}
