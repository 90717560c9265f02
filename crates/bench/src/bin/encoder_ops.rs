//! **encoder_ops** — where a compiled model's time goes, op kind by op
//! kind, at the benchmark's three gated shapes: STAMP (C = 10^3, L = 8),
//! SASRec (C = 10^4, L = 50) and NARM (C = 10^5, L = 50).
//!
//! For each model it replays deterministic sessions and prints:
//!
//! * per op kind: calls, self time and subnormal operand floats per
//!   request (each op timed alone through `graph::eval_into`, the one
//!   definition both the plan and the eager graph run);
//! * the whole run on the compiled plan against `Graph::run` of the same
//!   graph: wall time, time inside ops, and the rest — the per-node
//!   overhead of the executor itself;
//! * what is still left on the encoder: every `MatMul`/`MatMulBT` with
//!   more than one output column computed on the catalog scan's tile
//!   kernel (`simd::score_tiles`, the left rows as queries against the
//!   right operand's transposed rows), checked bit for bit against the
//!   op.
//!
//! `--smoke` replays 20 requests instead of 200 and writes under
//! `target/tmp/`. Bit-identity of the plan and of the tile kernel is
//! asserted, and the run exits non-zero if any op sees a subnormal
//! operand: every multiply by a denormal takes the slow microcode path,
//! so one that creeps back into the encoder (a masked softmax weight,
//! say) is a performance defect. The timings are printed, never gated.

use etude_bench::HarnessOptions;
use etude_metrics::report::Table;
use etude_models::{common, ModelConfig, ModelKind, SbrModel};
use etude_tensor::graph::{self, Graph, OpKind, View};
use etude_tensor::{kernels, simd, CompiledGraph, JitOptions, Tensor};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The benchmark's gated workloads: name, model, catalog, session length.
const SHAPES: [(&str, ModelKind, usize, usize); 3] = [
    ("wire_tiny", ModelKind::Stamp, 1_000, 8),
    ("encoder_1e4", ModelKind::SasRec, 10_000, 50),
    ("scan_1e5", ModelKind::Narm, 100_000, 50),
];

#[derive(Default)]
struct OpStat {
    calls: u64,
    time: Duration,
    subnormal: u64,
}

/// The tile-kernel measurement of one model, summed over requests: per
/// `[m,k]·[k,n]` shape, calls, time as the op, time on the tile kernel.
type TileStudy = BTreeMap<String, (u64, Duration, Duration)>;

/// Deterministic sessions of 1..=len clicks over the catalog.
fn sessions(catalog: usize, len: usize, n: usize) -> Vec<Vec<u32>> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n)
        .map(|_| {
            let clicks = 1 + next() as usize % len;
            (0..clicks)
                .map(|_| (next() % catalog as u64) as u32)
                .collect()
        })
        .collect()
}

fn is_view(kind: &OpKind) -> bool {
    matches!(
        kind,
        OpKind::Reshape(_) | OpKind::HostOp | OpKind::SliceRows { .. }
    )
}

/// Whether operand `k` of `kind` holds bit-cast item ids or indices
/// (small ids *are* subnormal bit patterns, and are never multiplied),
/// or belongs to a view, whose floats are counted where they are read.
fn carries_ids(kind: &OpKind, k: usize) -> bool {
    is_view(kind)
        || matches!(
            (kind, k),
            (OpKind::Embedding | OpKind::GatherRow, 1)
                | (
                    OpKind::SessionGraph { .. }
                        | OpKind::OneHotRows { .. }
                        | OpKind::ScatterAddDense { .. },
                    0
                )
        )
}

/// `a[m,k] · b` on the tile kernel: `b_t` holds `b`'s columns as rows
/// (`[n, k]`), the `m` rows of `a` are the queries.
fn matmul_on_tiles(a: &[f32], b_t: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    simd::score_tiles(b_t, k, a, m, 0..n, |q, row, scores, count| {
        out[q * n + row..q * n + row + count].copy_from_slice(&scores[..count]);
    });
}

/// Evaluates every node of `graph` for one request, timing each op alone.
fn profile_request(
    graph: &Graph,
    inputs: &[Tensor],
    ops: &mut BTreeMap<&'static str, OpStat>,
    study: &mut TileStudy,
) {
    let mut values: Vec<Cow<[f32]>> = Vec::with_capacity(graph.output + 1);
    for (id, node) in graph.nodes[..=graph.output].iter().enumerate() {
        let value = match &node.kind {
            OpKind::Input(pos) => Cow::Borrowed(inputs[*pos].as_slice().expect("dense input")),
            OpKind::Const(_) => Cow::Borrowed(graph.consts[&id].as_slice().expect("dense weights")),
            kind => {
                let operands: Vec<View> = node
                    .inputs
                    .iter()
                    .map(|&i| View {
                        data: &values[i],
                        shape: &graph.nodes[i].shape,
                    })
                    .collect();
                let mut out = vec![0.0f32; node.shape.iter().product()];
                let mut scratch = vec![0.0f32; graph::scratch_len(kind, &node.shape)];
                let start = Instant::now();
                graph::eval_into(kind, &operands, &mut out, &mut scratch).expect("op runs");
                let elapsed = start.elapsed();
                let subnormal: usize = operands
                    .iter()
                    .enumerate()
                    .filter(|&(k, _)| !carries_ids(kind, k))
                    .map(|(_, v)| v.data.iter().filter(|x| x.is_subnormal()).count())
                    .sum();
                let name = if is_view(kind) { "(view)" } else { kind.name() };
                let stat = ops.entry(name).or_default();
                stat.calls += 1;
                stat.time += elapsed;
                stat.subnormal += subnormal as u64;
                if matches!(kind, OpKind::MatMul | OpKind::MatMulBT) {
                    study_matmul(kind, &operands, &out, elapsed, study);
                }
                Cow::Owned(out)
            }
        };
        values.push(value);
    }
}

fn study_matmul(
    kind: &OpKind,
    operands: &[View],
    out: &[f32],
    elapsed: Duration,
    study: &mut TileStudy,
) {
    let (a, b) = (operands[0], operands[1]);
    let mut scratch_out = vec![0.0f32; out.len()];
    let (m, k) = (a.shape[0], a.shape[1]);
    let n = out.len() / m.max(1);
    if n < 2 {
        return;
    }
    let start = Instant::now();
    match kind {
        // The weight is already `[n, k]`: its rows are the table.
        OpKind::MatMulBT => matmul_on_tiles(a.data, b.data, m, k, n, &mut scratch_out),
        _ => {
            let mut b_t = vec![0.0f32; k * n];
            kernels::transpose(b.data, &mut b_t, k, n);
            matmul_on_tiles(a.data, &b_t, m, k, n, &mut scratch_out);
        }
    }
    let tiles = start.elapsed();
    assert!(
        scratch_out
            .iter()
            .zip(out)
            .all(|(x, y)| x.to_bits() == y.to_bits()),
        "the tile kernel must reproduce {} [{m},{k}]·[{k},{n}] bit for bit",
        kind.name()
    );
    let cell = study
        .entry(format!("{} [{m},{k}]·[{k},{n}]", kind.name()))
        .or_default();
    cell.0 += 1;
    cell.1 += elapsed;
    cell.2 += tiles;
}

fn inputs_of(model: &dyn SbrModel, session: &[u32]) -> [Tensor; 3] {
    let (items, mask, last) = common::prepare_session(session, model.config());
    [items, mask, last]
}

/// Wall time and op time of one run, plan or eager.
fn executor_time(
    run: impl Fn() -> (Tensor, etude_tensor::OpTimes),
) -> (Tensor, Duration, Duration) {
    let start = Instant::now();
    let (out, ops) = run();
    (out, start.elapsed(), ops.total())
}

fn us(d: Duration, n: usize) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e6 / n as f64)
}

fn main() {
    let opts = HarnessOptions::from_args();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let requests = if smoke { 20 } else { 200 };
    println!("== encoder_ops: per-op time of the compiled models ({requests} requests each) ==");
    println!("isa: {}\n", simd::isa_name());
    let mut table = Table::new([
        "workload",
        "op",
        "calls/req",
        "self_us/req",
        "subnormal_floats/req",
    ]);
    let mut executors = Table::new([
        "workload",
        "executor",
        "wall_us/req",
        "in_ops_us/req",
        "outside_ops_us/req",
    ]);
    let mut subnormal_ops = Vec::new();
    for (name, kind, catalog, len) in SHAPES {
        let cfg = ModelConfig::new(catalog)
            .with_max_session_len(len)
            .with_top_k(21)
            .with_seed(7);
        let model = kind.build(&cfg);
        let compiled: CompiledGraph =
            etude_models::traits::compile(model.as_ref(), JitOptions::default())
                .expect("the gated models compile");
        let graph = compiled.graph();
        let replay = sessions(catalog, len, requests);
        let mut ops = BTreeMap::new();
        let mut study = TileStudy::new();
        let (mut plan_wall, mut plan_ops, mut eager_wall, mut eager_ops) = (
            Duration::ZERO,
            Duration::ZERO,
            Duration::ZERO,
            Duration::ZERO,
        );
        for (i, session) in replay.iter().enumerate() {
            let inputs = inputs_of(model.as_ref(), session);
            let (planned, wall, in_ops) = executor_time(|| {
                let (out, _, ops) = compiled.run_timed(&inputs).expect("plan runs");
                (out, ops)
            });
            let (eager, ewall, ein_ops) = executor_time(|| {
                let (out, _, ops) = graph.run_timed(&inputs).expect("graph runs");
                (out, ops)
            });
            assert_eq!(
                planned, eager,
                "{name}: the plan must reproduce the eager graph"
            );
            profile_request(graph, &inputs, &mut ops, &mut study);
            // The first requests size the thread's arena and scratch.
            if i >= 3 {
                plan_wall += wall;
                plan_ops += in_ops;
                eager_wall += ewall;
                eager_ops += ein_ops;
            }
        }
        let n = requests;
        let timed = requests - 3;
        let mut rows: Vec<_> = ops.into_iter().collect();
        rows.sort_by_key(|(_, stat)| std::cmp::Reverse(stat.time));
        for (op, stat) in &rows {
            if stat.subnormal > 0 {
                subnormal_ops.push(format!("{name} {op}: {} floats", stat.subnormal));
            }
            table.row([
                name.to_string(),
                op.to_string(),
                format!("{:.1}", stat.calls as f64 / n as f64),
                us(stat.time, n),
                format!("{:.0}", stat.subnormal as f64 / n as f64),
            ]);
        }
        for (executor, wall, in_ops) in [
            ("plan", plan_wall, plan_ops),
            ("eager graph", eager_wall, eager_ops),
        ] {
            executors.row([
                name.to_string(),
                executor.to_string(),
                us(wall, timed),
                us(in_ops, timed),
                us(wall.saturating_sub(in_ops), timed),
            ]);
        }
        println!("-- {name}: {} (C = {catalog}, L = {len}) --", kind.name());
        for (shape, (calls, op, tiles)) in &study {
            println!(
                "{shape}: {:.1}/req, {} µs/req as the op, {} µs/req on score_tiles (bit-identical)",
                *calls as f64 / n as f64,
                us(*op, n),
                us(*tiles, n)
            );
        }
        println!();
    }
    opts.emit("encoder_ops", &table);
    opts.emit("encoder_ops_executors", &executors);
    if !subnormal_ops.is_empty() {
        eprintln!(
            "encoder_ops: subnormal operands over {requests} requests: {}",
            subnormal_ops.join("; ")
        );
        std::process::exit(1);
    }
}
