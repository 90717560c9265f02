//! Top-k selection over catalog score vectors.
//!
//! Every SBR model ends inference with a maximum-inner-product search: the
//! session representation is scored against all `C` catalog items and the
//! `k` best are returned. This module provides the `O(C log k)` bounded
//! min-heap selection used by the [`crate::exec::Exec::topk`] operation.
//!
//! There is one scaffold, `select_sharded`: split the rows into
//! contiguous shards, run a bounded-heap selection per shard and query
//! on the global [`crate::pool`] (through [`crate::pool::for_each_shard`],
//! into heaps kept in [`TopkScratch`]), concatenate each query's
//! survivors, sort with the serial comparator, keep `k`. The union of
//! per-shard top-k is a superset of the global top-k and the comparator
//! is total, so the result is **bit-identical** for every shard count;
//! serial — [`topk`], the reference — is the one-shard call, and a warm
//! scratch makes any shard count allocation-free. The entry points
//! differ only in what a shard selects from and who picks the shard
//! count:
//!
//! * [`topk_sharded`], [`topk_auto`], [`topk_auto_into`], [`topk_into`]
//!   — a materialised score vector (explicit shards,
//!   [`crate::pool::auto_shards`] twice, one shard),
//! * the **fused** family [`score_topk`], [`score_topk_into`],
//!   [`score_topk_sharded`], [`score_topk_multi_into`],
//!   [`score_topk_q8_into`] — catalog rows scored by the [`crate::simd`]
//!   tile scan and fed straight into the running heaps, never
//!   materialising a `C`-length score vector: the serving hot path for
//!   `ExactIndex` / `QuantizedIndex` and the `ScoreTopK` graph op. The
//!   f32 scan is **one** kernel for any number of queries — it scores
//!   each 4-row tile against every query while the tile is in L1, so a
//!   batch streams the table once — and the single-query entry points
//!   are its `nq = 1` calls. Scores are the same SIMD dot products and
//!   every row the heap would keep reaches it in the same order, so the
//!   fused results are bit-identical to scoring-then-[`topk`].
//!
//! Whether a multi-shard call runs in parallel is the pool's decision
//! at run time (shards run inline when another section holds the pool;
//! DESIGN §12 has the measurement behind keeping both).

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::ops::Range;

/// One query's answer: row ids, best first, and their aligned scores.
pub type Ranked = (Vec<u32>, Vec<f32>);

/// A `(score, index)` candidate ordered for a min-heap by score.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Candidate {
    score: f32,
    index: u32,
}

impl Eq for Candidate {}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering turns std's max-heap into a min-heap on score;
        // ties broken by index so the result is fully deterministic.
        other
            .score
            .partial_cmp(&self.score)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.index.cmp(&other.index))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Descending result order: score desc, index asc. Total because NaN
/// scores are mapped to `NEG_INFINITY` at selection time.
#[inline]
fn result_order(a: &Candidate, b: &Candidate) -> Ordering {
    b.score
        .partial_cmp(&a.score)
        .unwrap_or(Ordering::Equal)
        .then_with(|| a.index.cmp(&b.index))
}

/// One heap update of the bounded selection: the *only* place scores
/// enter the heap, shared by the score-vector and fused paths so their
/// update sequences are identical. NaN scores map to `NEG_INFINITY`
/// (total order, deterministic rejection).
#[inline(always)]
fn offer(heap: &mut BinaryHeap<Candidate>, k: usize, index: u32, score: f32) {
    let s = if score.is_nan() {
        f32::NEG_INFINITY
    } else {
        score
    };
    let c = Candidate { score: s, index };
    if heap.len() < k {
        heap.push(c);
    } else if let Some(min) = heap.peek() {
        // Replace the current minimum if strictly better, or equal with
        // a smaller index (deterministic tie-break).
        let better = s > min.score || (s == min.score && c.index < min.index);
        if better {
            heap.pop();
            heap.push(c);
        }
    }
}

/// Selection of the `k` best entries of `scores[rows]`, reported with
/// their indices in `scores`.
fn select_candidates(
    scores: &[f32],
    rows: Range<usize>,
    k: usize,
    heap: &mut BinaryHeap<Candidate>,
) {
    for (i, &s) in rows.clone().zip(&scores[rows]) {
        offer(heap, k, i as u32, s);
    }
}

/// Fused selection over `rows` of a `[c, d]` table for `heaps.len()`
/// queries at once: scores stream from the SIMD tile scan, four rows of
/// one query at a time, straight into that query's heap.
///
/// The tile gate: once a heap is full, a tile none of whose scores
/// beats the heap's minimum is dropped without entering [`offer`]. Rows
/// arrive in ascending order, so every index in the heap is smaller
/// than the tile's and `s > min` is exactly `offer`'s accept condition
/// (its tie-break clause needs a smaller index); a NaN compares false,
/// as its `NEG_INFINITY` image would against any full heap's minimum.
/// Later rows of an admitted tile meet a minimum that only rose, so the
/// gate never drops a row `offer` would keep.
fn select_scored(
    table: &[f32],
    d: usize,
    queries: &[f32],
    rows: Range<usize>,
    k: usize,
    heaps: &mut [BinaryHeap<Candidate>],
) {
    crate::simd::score_tiles(table, d, queries, heaps.len(), rows, |q, i, scores, n| {
        let heap = &mut heaps[q];
        if heap.len() == k {
            let min = heap.peek().map_or(f32::NEG_INFINITY, |c| c.score);
            // All four lanes, without short-circuit: the lanes past `n`
            // repeat a gated row, and one vector compare beats branches.
            let [a, b, c, d] = scores.map(|s| s > min);
            if !(a | b | c | d) {
                return;
            }
        }
        offer_tile(heap, k, i, &scores[..n]);
    });
}

/// Kept out of line so the gate above stays small enough to be inlined
/// into the scan kernel: past the first `k` rows this runs for a few
/// hundred tiles of a scan, the gate for all of them.
#[inline(never)]
fn offer_tile(heap: &mut BinaryHeap<Candidate>, k: usize, first_row: usize, scores: &[f32]) {
    for (j, &s) in scores.iter().enumerate() {
        offer(heap, k, (first_row + j) as u32, s);
    }
}

/// Fused int8 selection: raw integer dots are dequantised in-register
/// (`raw * scales[i] * qscale`, matching the unfused kernel's exact
/// expression) before entering the heap. Rows longer than
/// [`crate::simd::Q8_EXACT_DIM`] fall back to a plain `i32` loop so the
/// accumulation stays exact.
fn select_scored_q8(
    data: &[i8],
    scales: &[f32],
    q8: &[i32],
    qscale: f32,
    rows: Range<usize>,
    k: usize,
    heap: &mut BinaryHeap<Candidate>,
) {
    let d = q8.len();
    if d <= crate::simd::Q8_EXACT_DIM {
        crate::simd::score_rows_q8(data, d, q8, rows, |i, raw| {
            offer(heap, k, i as u32, raw * scales[i] * qscale);
        });
    } else {
        for i in rows {
            let row = &data[i * d..(i + 1) * d];
            let acc: i32 = row.iter().zip(q8).map(|(&a, &b)| a as i32 * b).sum();
            offer(heap, k, i as u32, acc as f32 * scales[i] * qscale);
        }
    }
}

/// Appends `best` to a result's id and score columns.
fn push_ranked(best: &[Candidate], ids: &mut Vec<u32>, scores: &mut Vec<f32>) {
    ids.extend(best.iter().map(|c| c.index));
    scores.extend(best.iter().map(|c| c.score));
}

/// Reusable selection state for [`topk_into`] and the fused
/// `score_topk_*` family: one bounded heap per shard and query plus the
/// merge buffer, so steady-state selection — serial, sharded or
/// multi-query — performs no heap allocation.
#[derive(Debug, Default)]
pub struct TopkScratch {
    /// `shards[shard][query]`.
    shards: Vec<Vec<BinaryHeap<Candidate>>>,
    merged: Vec<Candidate>,
}

/// The sharded-selection scaffold every entry point below is a caller
/// of: for each of `shards` (clamped to `1..=c`) contiguous ranges of
/// `0..c`, `select(rows, k, heaps)` leaves the best `k` of `rows` for
/// each of `nq` queries in `heaps` (emptied first; `k` already clamped
/// to the range); per query the survivors of all shards are
/// concatenated, sorted with [`result_order`] and the leading `k`
/// handed to `emit(query, best)`. Nothing is emitted when `k.min(c)`
/// is zero.
fn select_sharded(
    c: usize,
    k: usize,
    nq: usize,
    shards: usize,
    scratch: &mut TopkScratch,
    select: impl Fn(Range<usize>, usize, &mut [BinaryHeap<Candidate>]) + Sync,
    mut emit: impl FnMut(usize, &[Candidate]),
) {
    let k = k.min(c);
    if k == 0 {
        return;
    }
    let shards = shards.clamp(1, c);
    if scratch.shards.len() < shards {
        scratch.shards.resize_with(shards, Vec::new);
    }
    let slots = &mut scratch.shards[..shards];
    crate::pool::for_each_shard(c, slots, |rows, heaps| {
        if heaps.len() < nq {
            heaps.resize_with(nq, BinaryHeap::new);
        }
        let k = k.min(rows.len());
        for heap in &mut heaps[..nq] {
            heap.clear();
            heap.reserve(k + 1);
        }
        if k > 0 {
            select(rows, k, &mut heaps[..nq]);
        }
    });
    let merged = &mut scratch.merged;
    for q in 0..nq {
        merged.clear();
        for heaps in slots.iter_mut() {
            merged.extend(heaps[q].drain());
        }
        merged.sort_unstable_by(result_order);
        merged.truncate(k);
        emit(q, merged);
    }
}

/// [`select_sharded`] for one query, written to the (cleared) outputs.
fn select_one_into(
    c: usize,
    k: usize,
    shards: usize,
    scratch: &mut TopkScratch,
    out_indices: &mut Vec<u32>,
    out_scores: &mut Vec<f32>,
    select: impl Fn(Range<usize>, usize, &mut BinaryHeap<Candidate>) + Sync,
) {
    out_indices.clear();
    out_scores.clear();
    select_sharded(
        c,
        k,
        1,
        shards,
        scratch,
        |rows, k, heaps| select(rows, k, &mut heaps[0]),
        |_, best| push_ranked(best, out_indices, out_scores),
    );
}

/// Returns the indices and scores of the `k` largest entries of `scores`,
/// in descending score order. Ties are broken towards the lower index.
pub fn topk(scores: &[f32], k: usize) -> (Vec<u32>, Vec<f32>) {
    topk_sharded(scores, k, 1)
}

/// Sharded [`topk`]: splits `scores` into `shards` contiguous ranges,
/// selects each range's `k` best on the global [`crate::pool`], then
/// merges with the serial comparator. Bit-identical to [`topk`] for any
/// `shards >= 1`.
pub fn topk_sharded(scores: &[f32], k: usize, shards: usize) -> (Vec<u32>, Vec<f32>) {
    let (mut ids, mut vals) = (Vec::new(), Vec::new());
    let mut scratch = TopkScratch::default();
    select_one_into(
        scores.len(),
        k,
        shards,
        &mut scratch,
        &mut ids,
        &mut vals,
        |rows, k, heap| select_candidates(scores, rows, k, heap),
    );
    (ids, vals)
}

/// [`topk_sharded`] at the shard count [`crate::pool::auto_shards`]
/// picks for the input size and pool width.
pub fn topk_auto(scores: &[f32], k: usize) -> (Vec<u32>, Vec<f32>) {
    topk_sharded(scores, k, crate::pool::auto_shards(scores.len()))
}

/// Allocation-free [`topk`]: selects serially using `scratch`'s reused
/// buffers and writes the results into `out_indices` / `out_scores`
/// (cleared first). Output is bit-identical to [`topk`].
pub fn topk_into(
    scores: &[f32],
    k: usize,
    scratch: &mut TopkScratch,
    out_indices: &mut Vec<u32>,
    out_scores: &mut Vec<f32>,
) {
    select_one_into(
        scores.len(),
        k,
        1,
        scratch,
        out_indices,
        out_scores,
        |rows, k, heap| select_candidates(scores, rows, k, heap),
    );
}

/// Allocation-free [`topk_auto`]: the shard count of
/// [`crate::pool::auto_shards`], `scratch`'s reused buffers, results
/// written into `out_indices` / `out_scores` (cleared first).
pub fn topk_auto_into(
    scores: &[f32],
    k: usize,
    scratch: &mut TopkScratch,
    out_indices: &mut Vec<u32>,
    out_scores: &mut Vec<f32>,
) {
    select_one_into(
        scores.len(),
        k,
        crate::pool::auto_shards(scores.len()),
        scratch,
        out_indices,
        out_scores,
        |rows, k, heap| select_candidates(scores, rows, k, heap),
    );
}

// ----------------------------------------------------------------------
// Fused score + top-k.
// ----------------------------------------------------------------------

/// Fused MIPS: the `k` best rows of a `[c, d]` table by inner product
/// with `query`, scored and selected in one streaming pass (the
/// `C`-length score vector is never materialised). Bit-identical to
/// `topk(scores, k)` over per-row [`crate::simd::dot`] scores.
/// Shard count adapts to catalog size and pool width.
pub fn score_topk(table: &[f32], query: &[f32], c: usize, k: usize) -> (Vec<u32>, Vec<f32>) {
    let (mut ids, mut vals) = (Vec::new(), Vec::new());
    let mut scratch = TopkScratch::default();
    score_topk_into(table, query, c, k, &mut scratch, &mut ids, &mut vals);
    (ids, vals)
}

/// [`score_topk`] with an explicit shard count (bench sweeps); results
/// are bit-identical for any `shards >= 1`.
pub fn score_topk_sharded(
    table: &[f32],
    query: &[f32],
    c: usize,
    k: usize,
    shards: usize,
) -> (Vec<u32>, Vec<f32>) {
    let mut out = [(Vec::new(), Vec::new())];
    let mut scratch = TopkScratch::default();
    score_topk_multi_sharded_into(table, query, 1, c, k, shards, &mut scratch, &mut out);
    let [best] = out;
    best
}

/// Allocation-free fused MIPS with thread-and-size-adaptive sharding
/// ([`crate::pool::auto_shards`]): one shard below the crossover or on
/// a one-thread pool. The one-query call of the multi-query scan.
pub fn score_topk_into(
    table: &[f32],
    query: &[f32],
    c: usize,
    k: usize,
    scratch: &mut TopkScratch,
    out_indices: &mut Vec<u32>,
    out_scores: &mut Vec<f32>,
) {
    // The outputs travel as the one-element result slice and come back
    // with their capacity: no allocation either way.
    let mut out = [(std::mem::take(out_indices), std::mem::take(out_scores))];
    score_topk_multi_into(table, query, 1, c, k, scratch, &mut out);
    let [(ids, scores)] = out;
    (*out_indices, *out_scores) = (ids, scores);
}

/// Fused MIPS for `nq` queries in **one** pass over the table:
/// `queries` is `[nq, d]` row-major and `out[q]` receives query `q`'s
/// `(ids, scores)`, bit-identical to [`score_topk`] of that query alone
/// — each 4-row tile is scored against every query while it sits in L1,
/// so the table is streamed once, not `nq` times. A warm `scratch` and
/// warm output vectors make the call allocation-free. More than one
/// query runs one shard: a batch exists because requests were queued,
/// which is the observable fact that the other cores are busy.
pub fn score_topk_multi_into(
    table: &[f32],
    queries: &[f32],
    nq: usize,
    c: usize,
    k: usize,
    scratch: &mut TopkScratch,
    out: &mut [Ranked],
) {
    let shards = if nq > 1 {
        1
    } else {
        crate::pool::auto_shards(c)
    };
    score_topk_multi_sharded_into(table, queries, nq, c, k, shards, scratch, out);
}

/// [`score_topk_multi_into`] with an explicit shard count, for the
/// equivalence tests and the bench sweep; not a serving knob.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn score_topk_multi_sharded_into(
    table: &[f32],
    queries: &[f32],
    nq: usize,
    c: usize,
    k: usize,
    shards: usize,
    scratch: &mut TopkScratch,
    out: &mut [Ranked],
) {
    assert_eq!(out.len(), nq, "one output per query");
    if nq == 0 {
        return;
    }
    assert_eq!(queries.len() % nq, 0, "queries are not [nq, d]");
    let d = queries.len() / nq;
    assert_eq!(table.len(), c * d, "table shape mismatch");
    for (ids, scores) in out.iter_mut() {
        ids.clear();
        scores.clear();
    }
    select_sharded(
        c,
        k,
        nq,
        shards,
        scratch,
        |rows, k, heaps| select_scored(table, d, queries, rows, k, heaps),
        |q, best| push_ranked(best, &mut out[q].0, &mut out[q].1),
    );
}

/// Allocation-free fused int8 MIPS over a `[c, d]` quantised table with
/// per-row `scales` and a pre-quantised query `q8` (per-tensor scale
/// `qscale`): dequantisation happens in-register per score. Sharding is
/// adaptive like [`score_topk_into`].
#[allow(clippy::too_many_arguments)]
pub fn score_topk_q8_into(
    data: &[i8],
    scales: &[f32],
    q8: &[i32],
    qscale: f32,
    c: usize,
    k: usize,
    scratch: &mut TopkScratch,
    out_indices: &mut Vec<u32>,
    out_scores: &mut Vec<f32>,
) {
    let shards = crate::pool::auto_shards(c);
    score_topk_q8_sharded_into(
        data,
        scales,
        q8,
        qscale,
        c,
        k,
        shards,
        scratch,
        out_indices,
        out_scores,
    );
}

/// [`score_topk_q8_into`] with an explicit shard count, for the
/// sharded ≡ serial equivalence tests; not a serving knob.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn score_topk_q8_sharded_into(
    data: &[i8],
    scales: &[f32],
    q8: &[i32],
    qscale: f32,
    c: usize,
    k: usize,
    shards: usize,
    scratch: &mut TopkScratch,
    out_indices: &mut Vec<u32>,
    out_scores: &mut Vec<f32>,
) {
    debug_assert_eq!(data.len(), c * q8.len(), "table shape mismatch");
    debug_assert_eq!(scales.len(), c, "per-row scales mismatch");
    select_one_into(
        c,
        k,
        shards,
        scratch,
        out_indices,
        out_scores,
        |rows, k, heap| select_scored_q8(data, scales, q8, qscale, rows, k, heap),
    );
}

// ----------------------------------------------------------------------
// Cross-shard merge (scatter/gather serving tier).
// ----------------------------------------------------------------------

/// Merges per-shard top-k partials — `(global_ids, scores)` pairs as
/// produced by a [`score_topk`] scan over a contiguous catalog slice
/// with its ids offset to global row numbers — into the overall top-k.
///
/// The comparator is `result_order`, the same one used by every
/// selection path in this module (score descending, global id ascending
/// on ties, NaN mapped to `NEG_INFINITY`). Because each partial is the
/// complete top-k of its slice and slices tile the catalog, the merged
/// result is **bit-identical** to a single [`score_topk`] over the whole
/// table. Partials may be shorter than `k` (small or empty shards) and
/// any subset of shards may be supplied (the degraded serving path):
/// the merge is then the exact top-k of the surviving slices.
pub fn merge_shard_topk(partials: &[(Vec<u32>, Vec<f32>)], k: usize) -> (Vec<u32>, Vec<f32>) {
    let mut items: Vec<Candidate> = Vec::with_capacity(partials.iter().map(|(i, _)| i.len()).sum());
    for (ids, scores) in partials {
        debug_assert_eq!(ids.len(), scores.len(), "ragged partial");
        for (&index, &score) in ids.iter().zip(scores) {
            let score = if score.is_nan() {
                f32::NEG_INFINITY
            } else {
                score
            };
            items.push(Candidate { score, index });
        }
    }
    items.sort_unstable_by(result_order);
    items.truncate(k);
    let mut merged = Ranked::default();
    push_ranked(&items, &mut merged.0, &mut merged.1);
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selects_largest_in_order() {
        let scores = [0.1, 0.9, 0.5, 0.7, 0.3];
        let (idx, val) = topk(&scores, 3);
        assert_eq!(idx, vec![1, 3, 2]);
        assert_eq!(val, vec![0.9, 0.7, 0.5]);
    }

    #[test]
    fn k_larger_than_input_returns_all_sorted() {
        let scores = [2.0, 1.0, 3.0];
        let (idx, val) = topk(&scores, 10);
        assert_eq!(idx, vec![2, 0, 1]);
        assert_eq!(val, vec![3.0, 2.0, 1.0]);
    }

    #[test]
    fn k_zero_is_empty() {
        let (idx, val) = topk(&[1.0, 2.0], 0);
        assert!(idx.is_empty() && val.is_empty());
    }

    #[test]
    fn ties_break_towards_lower_index() {
        let scores = [1.0, 1.0, 1.0, 1.0];
        let (idx, _) = topk(&scores, 2);
        assert_eq!(idx, vec![0, 1]);
    }

    #[test]
    fn matches_full_sort_on_random_input() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        for _ in 0..20 {
            let n = rng.gen_range(1..200);
            let k = rng.gen_range(1..=n);
            let scores: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let (idx, val) = topk(&scores, k);
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&a, &b| {
                scores[b]
                    .partial_cmp(&scores[a])
                    .unwrap()
                    .then_with(|| a.cmp(&b))
            });
            let expect_idx: Vec<u32> = order[..k].iter().map(|&i| i as u32).collect();
            assert_eq!(idx, expect_idx);
            for (v, &i) in val.iter().zip(&idx) {
                assert_eq!(*v, scores[i as usize]);
            }
        }
    }

    #[test]
    fn handles_nan_without_panicking() {
        let scores = [0.5, f32::NAN, 0.9];
        let (idx, _) = topk(&scores, 2);
        assert_eq!(idx.len(), 2);
        assert!(idx.contains(&2));
    }

    #[test]
    fn sharded_matches_serial_for_every_shard_count() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(11);
        for _ in 0..10 {
            let n = rng.gen_range(1..500);
            let k = rng.gen_range(1..30);
            let scores: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let serial = topk(&scores, k);
            for shards in 1..=8 {
                assert_eq!(
                    topk_sharded(&scores, k, shards),
                    serial,
                    "n={n} k={k} shards={shards}"
                );
            }
        }
    }

    #[test]
    fn sharded_handles_ties_and_nan_identically() {
        let mut scores = vec![1.0f32; 100];
        scores[37] = f32::NAN;
        scores[61] = 2.0;
        for shards in 1..=6 {
            assert_eq!(topk_sharded(&scores, 5, shards), topk(&scores, 5));
        }
    }

    #[test]
    fn into_variant_matches_and_reuses_buffers() {
        let scores: Vec<f32> = (0..300).map(|i| ((i * 37) % 101) as f32).collect();
        let mut scratch = TopkScratch::default();
        let mut idx = Vec::new();
        let mut val = Vec::new();
        for _ in 0..3 {
            topk_into(&scores, 21, &mut scratch, &mut idx, &mut val);
            let (eidx, eval) = topk(&scores, 21);
            assert_eq!(idx, eidx);
            assert_eq!(val, eval);
        }
    }

    #[test]
    fn fused_score_topk_matches_score_then_topk() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(23);
        for &(c, d) in &[(1usize, 1usize), (5, 3), (97, 8), (300, 17), (1000, 32)] {
            let table: Vec<f32> = (0..c * d).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let query: Vec<f32> = (0..d).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let k = rng.gen_range(1..=c.min(25));
            let scores: Vec<f32> = (0..c)
                .map(|i| crate::simd::dot(&table[i * d..(i + 1) * d], &query))
                .collect();
            let expect = topk(&scores, k);
            assert_eq!(
                score_topk(&table, &query, c, k),
                expect,
                "c={c} d={d} k={k}"
            );
            for shards in 1..=6 {
                assert_eq!(
                    score_topk_sharded(&table, &query, c, k, shards),
                    expect,
                    "c={c} d={d} k={k} shards={shards}"
                );
            }
        }
    }

    #[test]
    fn fused_q8_matches_unfused_int8_scan() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(29);
        let (c, d, k) = (500usize, 16usize, 21usize);
        let data: Vec<i8> = (0..c * d)
            .map(|_| rng.gen_range(-127i32..=127) as i8)
            .collect();
        let scales: Vec<f32> = (0..c).map(|_| rng.gen_range(0.001f32..0.02)).collect();
        let q8: Vec<i32> = (0..d).map(|_| rng.gen_range(-127i32..=127)).collect();
        let qscale = 0.0137f32;
        let scores: Vec<f32> = (0..c)
            .map(|r| {
                let row = &data[r * d..(r + 1) * d];
                let acc: i32 = row.iter().zip(&q8).map(|(&a, &b)| a as i32 * b).sum();
                acc as f32 * scales[r] * qscale
            })
            .collect();
        let mut scratch = TopkScratch::default();
        let (mut ids, mut vals) = (Vec::new(), Vec::new());
        score_topk_q8_into(
            &data,
            &scales,
            &q8,
            qscale,
            c,
            k,
            &mut scratch,
            &mut ids,
            &mut vals,
        );
        assert_eq!((ids, vals), topk(&scores, k));
    }

    #[test]
    fn fused_rejects_nan_scores_deterministically() {
        // A NaN query poisons every dot product; the fused scan must map
        // them all to NEG_INFINITY and fall back to index order, exactly
        // like the unfused reference.
        let (c, d) = (50usize, 4usize);
        let table: Vec<f32> = (0..c * d).map(|i| i as f32 * 0.01).collect();
        let mut query = vec![1.0f32; d];
        query[2] = f32::NAN;
        let (ids, vals) = score_topk(&table, &query, c, 5);
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        assert!(vals.iter().all(|v| *v == f32::NEG_INFINITY));
        // One NaN row (not the whole query) is rejected deterministically.
        let query = vec![1.0f32; d];
        let mut table = table;
        table[7 * d] = f32::NAN;
        let scores: Vec<f32> = (0..c)
            .map(|i| crate::simd::dot(&table[i * d..(i + 1) * d], &query))
            .collect();
        assert_eq!(score_topk(&table, &query, c, 10), topk(&scores, 10));
    }

    #[test]
    fn auto_shard_choice_is_serial_below_crossover() {
        // Satellite regression: the adaptive path must pick the serial
        // kernel (1 shard) whenever the pool has one thread or the input
        // is below the measured crossover — so it cannot lose to serial.
        assert_eq!(crate::pool::shard_count(10_000, 1), 1);
        assert_eq!(crate::pool::shard_count(10_000, 8), 1);
        assert_eq!(crate::pool::shard_count(1_000_000, 1), 1);
        assert!(crate::pool::auto_shards(10_000) == 1 || crate::pool::current_threads() > 1);
    }

    #[test]
    fn auto_is_not_slower_than_serial_at_small_catalogs() {
        // Not by a stopwatch: below the crossover `topk_auto` *is* the
        // serial path — the policy answers one shard for every such
        // size, whatever the pool width — so there is nothing to lose,
        // and at C = 10^4 the two agree bit for bit.
        for n in 0..crate::pool::PAR_THRESHOLD {
            assert_eq!(crate::pool::auto_shards(n), 1, "n = {n}");
        }
        let scores: Vec<f32> = (0..10_000)
            .map(|i| ((i * 2_654_435_761usize) % 1_000_003) as f32)
            .collect();
        let (ids, top) = topk(&scores, 21);
        let (auto_ids, auto_top) = topk_auto(&scores, 21);
        assert_eq!(auto_ids, ids);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&auto_top), bits(&top));
    }

    #[test]
    fn merge_of_slice_partials_matches_global_scan() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(41);
        for _ in 0..10 {
            let c = rng.gen_range(20..400);
            let d = rng.gen_range(1..16);
            let k = rng.gen_range(1..40);
            let table: Vec<f32> = (0..c * d).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let query: Vec<f32> = (0..d).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let expect = score_topk(&table, &query, c, k);
            for groups in 1..=5 {
                let ranges = crate::pool::shard_ranges(c, groups.min(c));
                let partials: Vec<(Vec<u32>, Vec<f32>)> = ranges
                    .iter()
                    .map(|r| {
                        let slice = &table[r.start * d..r.end * d];
                        let (ids, scores) = score_topk(slice, &query, r.len(), k);
                        (ids.iter().map(|i| i + r.start as u32).collect(), scores)
                    })
                    .collect();
                assert_eq!(
                    merge_shard_topk(&partials, k),
                    expect,
                    "c={c} d={d} k={k} groups={groups}"
                );
            }
        }
    }

    #[test]
    fn merge_breaks_cross_shard_ties_by_global_id() {
        // Identical scores on different shards: the lower global id wins,
        // exactly as in the unsharded scan.
        let a = (vec![4u32, 0], vec![1.0f32, 0.5]);
        let b = (vec![2u32, 9], vec![1.0f32, 0.5]);
        let (ids, scores) = merge_shard_topk(&[a, b], 3);
        assert_eq!(ids, vec![2, 4, 0]);
        assert_eq!(scores, vec![1.0, 1.0, 0.5]);
    }

    #[test]
    fn merge_handles_empty_and_short_partials() {
        let empty = (Vec::new(), Vec::new());
        let short = (vec![7u32], vec![0.25f32]);
        let (ids, scores) = merge_shard_topk(&[empty, short], 21);
        assert_eq!(ids, vec![7]);
        assert_eq!(scores, vec![0.25]);
        let (ids, scores) = merge_shard_topk(&[], 21);
        assert!(ids.is_empty() && scores.is_empty());
    }

    #[test]
    fn merge_maps_nan_to_neg_infinity() {
        let bad = (vec![3u32], vec![f32::NAN]);
        let good = (vec![5u32], vec![-1.0f32]);
        let (ids, scores) = merge_shard_topk(&[bad, good], 2);
        assert_eq!(ids, vec![5, 3]);
        assert_eq!(scores[1], f32::NEG_INFINITY);
    }

    #[test]
    fn auto_routes_large_inputs_through_shards() {
        // Above the parallel threshold the auto path must still be
        // bit-identical to the serial reference.
        let n = crate::pool::PAR_THRESHOLD * 2;
        let scores: Vec<f32> = (0..n)
            .map(|i| ((i * 2_654_435_761) % 1_000_003) as f32)
            .collect();
        assert_eq!(topk_auto(&scores, 21), topk(&scores, 21));
    }
}
