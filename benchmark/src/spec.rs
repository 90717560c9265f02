//! The fixed parts of the benchmark: the four workloads and how one run's
//! `--seconds` is split into phases. Nothing here is calibrated at run
//! time; a change to any number is a change to the benchmark.

use etude_models::ModelKind;
use std::time::Duration;

/// Recommendations per request (the paper's k).
pub const TOP_K: usize = 21;
/// Seed of the model weights; the workload seed only shapes the requests.
pub const MODEL_SEED: u64 = 7;
/// Keep-alive connections the load generator holds (= cores of the box the
/// rates were sized on; a constant so the traffic shape is the same anywhere).
pub const CONNECTIONS: usize = 2;
/// Requests in flight in the closed loop (4 pipelined per connection).
pub const CLOSED_IN_FLIGHT: usize = 8;
/// The paper's latency limit; a slower or failed request misses it.
pub const SLO: Duration = Duration::from_millis(100);
/// An open-loop request unanswered this long after the schedule ends failed.
pub const STRAGGLER_GRACE: Duration = Duration::from_secs(5);

/// One traffic mix. `why` lives in `/BENCHMARK.json` and the README.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub model: ModelKind,
    /// Catalog size C; the embedding dimension follows the paper's
    /// `ceil(C^(1/4))` heuristic.
    pub catalog: usize,
    /// Padded session length L.
    pub session_len: usize,
    /// Open-loop arrival rate in requests per second, ≈0.3–0.4× of the
    /// 2-slot capacity measured when the benchmark was defined.
    pub rate: f64,
    /// Listed in `/BENCHMARK.json`, so a change is held to its bounds. An
    /// ungated workload is run and reported by the ledger only.
    pub gated: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "wire_tiny",
        model: ModelKind::Stamp,
        catalog: 1_000,
        session_len: 8,
        rate: 2000.0,
        gated: true,
    },
    Workload {
        name: "encoder_1e4",
        model: ModelKind::SasRec,
        catalog: 10_000,
        session_len: 50,
        rate: 300.0,
        gated: true,
    },
    Workload {
        name: "scan_1e5",
        model: ModelKind::Narm,
        catalog: 100_000,
        session_len: 50,
        rate: 300.0,
        gated: true,
    },
    // Ungated: its 128 MB table is half of the host's shared last-level
    // cache, so whether a request streams it from that cache or from DRAM
    // (5 ms or 15 ms a scan) is the neighbours' doing for minutes on end.
    // Runs of the same code spread by 25 % (p50) to 80 % (throughput).
    Workload {
        name: "scan_1e6",
        model: ModelKind::Gru4Rec,
        catalog: 1_000_000,
        session_len: 50,
        rate: 25.0,
        gated: false,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How one run spends its time. The open and the closed loop take turns,
/// every quantile or rate is taken per phase and the reported value is the
/// median over a run's phases. Which threads share a core is dealt again at
/// every switch and holds for the phase (`wire_tiny`'s median reads 0.115 ms
/// in one phase and 0.17 ms in the next), so many short phases steady a run
/// where a few long ones cannot (ten runs of `wire_tiny` spread by 14 % on
/// `p50_ms` with 11 phases of 2 s, by 6 % with 21 of 1 s), and a stall of a
/// few seconds spoils a few of them, not the median.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// `--seconds`: how long a run measures.
    pub seconds: Duration,
    /// Discarded start of a run's first phase.
    pub warmup: Duration,
    /// Discarded start of every later phase: the switch between the open
    /// and the closed loop, and the closed loop filling its window.
    pub lead_in: Duration,
    /// Measured part of one open-loop phase.
    pub open_phase: Duration,
    /// Measured part of one closed-loop phase.
    pub closed_phase: Duration,
    /// The system is set up at least this many times, and until
    /// `setup_budget` is spent; `setup_s` is the median. A millisecond
    /// set-up needs many repetitions to give a steady median, a
    /// 100 ms one cannot afford them.
    pub setup_reps: usize,
    pub setup_budget: Duration,
    /// Requests pushed through the single-threaded model replay.
    pub replay_requests: usize,
    /// Round trips through an idle batcher.
    pub hop_calls: usize,
    /// Time spent repeating each catalog scan.
    pub scan_budget: Duration,
    /// Size of the memory-bandwidth probe's buffer.
    pub probe_bytes: usize,
}

/// Open-loop and closed-loop phases of a run, taking turns; odd, so the
/// median is one of them.
pub const TURNS: usize = 21;
/// `run_seconds` in `/BENCHMARK.json`; `--smoke` runs this many instead.
pub const RUN_SECONDS: f64 = 33.0;
pub const SMOKE_SECONDS: f64 = 3.0;

impl Plan {
    /// Splits `seconds` of measuring 2:1 between the open and the closed
    /// loop (at the declared 33 s: 21 × 1.05 s open, 21 × 0.52 s closed).
    pub fn new(seconds: f64, smoke: bool) -> Plan {
        let unit = seconds / (TURNS as f64 * 3.0);
        Plan {
            seconds: Duration::from_secs_f64(seconds),
            warmup: Duration::from_secs_f64(if smoke { 0.3 } else { 1.0 }),
            lead_in: Duration::from_secs_f64(0.1),
            open_phase: Duration::from_secs_f64(2.0 * unit),
            closed_phase: Duration::from_secs_f64(unit),
            setup_reps: if smoke { 1 } else { 5 },
            setup_budget: Duration::from_millis(if smoke { 0 } else { 1000 }),
            replay_requests: if smoke { 40 } else { 200 },
            hop_calls: if smoke { 500 } else { 3000 },
            scan_budget: Duration::from_millis(if smoke { 100 } else { 400 }),
            probe_bytes: if smoke { 64 << 20 } else { 256 << 20 },
        }
    }
}
