//! The layer replay: the run's own request bytes pushed, on one thread and
//! with no server, through each layer's public functions. It gives the cost
//! of a layer's work with nothing waiting on anything; the traced run gives
//! the waiting.

use crate::alloc;
use crate::driver::Requests;
use crate::spec::{Workload, TOP_K};
use crate::sut;
use crate::{median, Metric};
use bytes::BytesMut;
use etude_faults::Deadline;
use etude_models::retrieval::{ExactIndex, QuantizedIndex, SearchScratch};
use etude_models::traits::{self, Recommendation};
use etude_models::SbrModel;
use etude_obs::{Recorder, Stage};
use etude_serve::http::{self, Response};
use etude_serve::ContinuousBatcher;
use etude_tensor::{CompiledGraph, JitOptions};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Median over `reps` passes of one pass's wall time in nanoseconds;
/// `setup` runs untimed before each pass.
fn median_pass_ns<S>(reps: usize, mut setup: impl FnMut() -> S, mut pass: impl FnMut(S)) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let state = setup();
            let started = Instant::now();
            pass(state);
            started.elapsed().as_nanos() as f64
        })
        .collect();
    median(&mut times)
}

/// [`median_pass_ns`] for a pass that needs no fresh state.
fn median_ns(reps: usize, mut pass: impl FnMut()) -> f64 {
    median_pass_ns(reps, || (), |()| pass())
}

const PASSES: usize = 9;

/// `serve.http.*`: the four wire-format functions a request crosses.
pub fn http_layer(requests: &Requests, recs: &[Recommendation]) -> Vec<Metric> {
    let n = requests.len().min(512);
    let parse = median_pass_ns(
        PASSES,
        || {
            (0..n)
                .map(|i| BytesMut::from(requests.wire(i)))
                .collect::<Vec<_>>()
        },
        |mut bufs| {
            for buf in &mut bufs {
                black_box(http::parse_request(buf).expect("the pool holds whole requests"));
            }
        },
    ) / n as f64;
    let bodies: Vec<String> = requests.sessions[..n]
        .iter()
        .map(|s| http::encode_session(s))
        .collect();
    let decode = median_ns(PASSES, || {
        for body in &bodies {
            black_box(http::decode_session(black_box(body.as_bytes())).expect("valid body"));
        }
    }) / n as f64;
    let encode_recs = median_ns(PASSES, || {
        for rec in recs {
            black_box(http::encode_recommendations(&rec.items, &rec.scores));
        }
    }) / recs.len() as f64;
    let responses: Vec<Response> = recs
        .iter()
        .enumerate()
        .map(|(i, rec)| {
            Response::ok(http::encode_recommendations(&rec.items, &rec.scores))
                .with_header("x-inference-duration-micros", "1234".to_string())
                .with_header("x-request-id", format!("replay-{i}"))
        })
        .collect();
    let encode_resp = median_ns(PASSES, || {
        for resp in &responses {
            black_box(resp.encode());
        }
    }) / responses.len() as f64;
    vec![
        Metric::new("serve.http.parse_request_ns", parse, "ns"),
        Metric::new("serve.http.decode_session_ns", decode, "ns"),
        Metric::new("serve.http.encode_recommendations_ns", encode_recs, "ns"),
        Metric::new("serve.http.response_encode_ns", encode_resp, "ns"),
    ]
}

/// `serve.contbatch.hop_ns`: a round trip through the batcher's queue and
/// a slot thread with nothing to compute.
pub fn contbatch_hop(calls: usize) -> Metric {
    let batcher: ContinuousBatcher<u32, u32> =
        ContinuousBatcher::spawn(sut::batcher_config(), |x| x);
    let mut hops: Vec<f64> = (0..calls as u32)
        .map(|i| {
            let started = Instant::now();
            let out = batcher
                .try_call(i, Deadline::after(Duration::from_secs(2)))
                .expect("an idle batcher admits");
            black_box(out.result);
            started.elapsed().as_nanos() as f64
        })
        .collect();
    Metric::new("serve.contbatch.hop_ns", median(&mut hops), "ns")
}

/// `obs.record_ns`: the six stage records the route makes per request.
pub fn obs_record() -> Metric {
    const REQUESTS: u64 = 1000;
    let recorder = Recorder::new();
    let per_request = median_ns(PASSES, || {
        for rid in 0..REQUESTS {
            for stage in [
                Stage::Parse,
                Stage::Queue,
                Stage::Inference,
                Stage::TopK,
                Stage::Serialize,
                Stage::Total,
            ] {
                recorder.record(black_box(rid), stage, black_box(1234));
            }
        }
    }) / REQUESTS as f64;
    Metric::new("obs.record_ns", per_request, "ns")
}

pub struct ModelReplay {
    pub metrics: Vec<Metric>,
    pub recs: Vec<Recommendation>,
}

/// `models.*`: the compiled model called directly on the run's sessions.
/// The allocation numbers are exact counts of this thread's allocations.
pub fn models_layer(
    model: &dyn SbrModel,
    compiled: &CompiledGraph,
    sessions: &[Vec<u32>],
) -> ModelReplay {
    let infer = |s: &Vec<u32>| {
        traits::recommend_compiled_timed(model, compiled, s).expect("sessions are in catalog")
    };
    // Thread-local scratch is sized on first use; that is start-up, not a
    // request's cost.
    for session in sessions.iter().take(3) {
        black_box(infer(session));
    }
    let mut recs = Vec::with_capacity(sessions.len());
    let mut encode_us = Vec::with_capacity(sessions.len());
    let mut topk_us = Vec::with_capacity(sessions.len());
    let (allocs0, bytes0) = alloc::thread_counts();
    for session in sessions {
        let (rec, timings) = infer(session);
        encode_us.push(timings.inference.as_nanos() as f64 / 1e3);
        topk_us.push(timings.topk.as_nanos() as f64 / 1e3);
        recs.push(rec);
    }
    let (allocs1, bytes1) = alloc::thread_counts();
    let n = sessions.len() as f64;
    ModelReplay {
        metrics: vec![
            Metric::new("models.encode_us", median(&mut encode_us), "us"),
            Metric::new("models.topk_us", median(&mut topk_us), "us"),
            Metric::new(
                "models.allocs_per_request",
                (allocs1 - allocs0) as f64 / n,
                "count",
            ),
            Metric::new(
                "models.alloc_bytes_per_request",
                (bytes1 - bytes0) as f64 / n,
                "B",
            ),
        ],
        recs,
    }
}

pub fn compile(model: &dyn SbrModel) -> CompiledGraph {
    traits::compile(model, JitOptions::default()).expect("the benchmark's models trace")
}

/// xorshift64*: the replay needs plausible floats, not good randomness.
fn fill_random(out: &mut [f32], mut state: u64) {
    for x in out {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let bits = state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 40;
        *x = bits as f32 / (1u64 << 23) as f32 - 1.0;
    }
}

/// Median time of `call`, repeated until about `budget` has been spent.
fn median_call_ns(budget: Duration, mut call: impl FnMut()) -> f64 {
    let started = Instant::now();
    call();
    let first = started.elapsed();
    let reps = (budget.as_secs_f64() / first.as_secs_f64().max(1e-9)) as usize;
    median_ns(reps.clamp(5, 2000), call)
}

/// Bytes per second one thread reads from memory, in GB/s: the best of a
/// few passes summing a buffer far larger than the last-level cache.
pub fn membw_probe_gbps(bytes: usize) -> f64 {
    let buf = vec![1.0f32; bytes / 4];
    let mut best = 0.0f64;
    for _ in 0..5 {
        let started = Instant::now();
        // Sixteen independent sums so the adds vectorise and the loop is
        // bound by loads, not by one dependency chain.
        let mut lanes = [0.0f32; 16];
        for chunk in black_box(&buf[..]).chunks_exact(16) {
            for (lane, x) in lanes.iter_mut().zip(chunk) {
                *lane += x;
            }
        }
        black_box(lanes);
        best = best.max(buf.len() as f64 * 4.0 / started.elapsed().as_secs_f64() / 1e9);
    }
    best
}

/// `tensor.*`: the fused score+top-k scan at the workload's C, d and k over
/// a table of the benchmark's own, against the memory-bandwidth probe.
/// `scan_gbps` is computed bytes (C·d·4 over the time), not a hardware counter.
pub fn tensor_layer(w: &Workload, budget: Duration, probe_bytes: usize) -> Vec<Metric> {
    let (c, d) = (w.catalog, sut::model_config(w).embedding_dim);
    let mut table = vec![0.0f32; c * d];
    fill_random(&mut table, 0x9e37_79b9_7f4a_7c15);
    let mut query = vec![0.0f32; d];
    fill_random(&mut query, 0x1234_5678_9abc_def1);
    let exact = ExactIndex::new(table, c, d);
    let quantized = QuantizedIndex::from_f32(exact.table(), c, d);
    let mut scratch = SearchScratch::default();
    let (mut ids, mut scores) = (Vec::new(), Vec::new());
    let f32_ns = median_call_ns(budget, || {
        exact.search_into(
            black_box(&query),
            TOP_K,
            &mut scratch,
            &mut ids,
            &mut scores,
        );
        black_box(&ids);
    });
    let q8_ns = median_call_ns(budget, || {
        quantized.search_into(
            black_box(&query),
            TOP_K,
            &mut scratch,
            &mut ids,
            &mut scores,
        );
        black_box(&ids);
    });
    let scan_gbps = (c * d * 4) as f64 / f32_ns;
    let membw = membw_probe_gbps(probe_bytes);
    vec![
        Metric::new("tensor.score_topk_ns", f32_ns, "ns"),
        Metric::new("tensor.score_topk_q8_ns", q8_ns, "ns"),
        Metric::new("tensor.scan_gbps", scan_gbps, "GB/s"),
        Metric::new("tensor.membw_probe_gbps", membw, "GB/s"),
        Metric::new("tensor.scan_pct_of_membw", 100.0 * scan_gbps / membw, "%"),
    ]
}
