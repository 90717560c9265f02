//! Property tests pinning the SIMD kernel layer to its scalar reference.
//!
//! The dispatch contract (DESIGN.md §12) has two tiers:
//!
//! * **bit-identical** — `dot`, the fused `score_topk` family and every
//!   kernel built on the shared block/reduction layout must return the
//!   exact same bits on every backend, because top-k *ordering* (and
//!   therefore recommendation output) must not depend on the host ISA;
//!   the elementwise transcendentals (the dispatched kernel against the
//!   scalar `UnOp::apply`) are pinned the same way, underflow included;
//! * **ULP-bounded** — `softmax_rows` goes through the shared polynomial
//!   `exp_f32` instead of libm's `exp`, so its outputs are allowed to
//!   drift by at most [`MAX_SOFTMAX_ULP`] ULPs from the same summation
//!   algorithm run with `f32::exp`. `layernorm_rows` performs no
//!   transcendental math and stays bit-identical.
//!
//! Edge cases (length 0, 1, `LANES±1`) and NaN handling are pinned
//! explicitly alongside the randomized sweeps.

use etude_tensor::kernels::UnOp;
use etude_tensor::topk::{
    score_topk, score_topk_multi_sharded_into, score_topk_q8_sharded_into, score_topk_sharded,
    topk, TopkScratch,
};
use etude_tensor::{kernels, simd};
use proptest::prelude::*;

/// Batch sizes and shard counts the multi-query scan is pinned at.
const BATCHES: [usize; 4] = [1, 2, 3, 8];
const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 7];

/// Deterministic values in `[-1, 1)` from a seed (splitmix-style).
fn unit_values(n: usize, seed: u64) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let h = seed
                .wrapping_add(i as u64 + 1)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            ((h >> 40) as f32 / 8388608.0) - 1.0
        })
        .collect()
}

/// `(ids, score bits)`: equality that tells `-0.0` from `0.0`.
fn bits(result: &(Vec<u32>, Vec<f32>)) -> (Vec<u32>, Vec<u32>) {
    let scores = result.1.iter().map(|s| s.to_bits()).collect();
    (result.0.clone(), scores)
}

/// Asserts that one multi-query scan of `queries` (`[nq, d]`) over
/// `shards` shards answers every query exactly as the one-query scan
/// and as scalar-reference scoring followed by heap selection do.
fn assert_multi_matches_single(
    table: &[f32],
    queries: &[f32],
    nq: usize,
    c: usize,
    d: usize,
    k: usize,
    shards: usize,
) {
    let mut out = vec![(Vec::new(), Vec::new()); nq];
    let mut scratch = TopkScratch::default();
    score_topk_multi_sharded_into(table, queries, nq, c, k, shards, &mut scratch, &mut out);
    for (q, got) in out.iter().enumerate() {
        let query = &queries[q * d..(q + 1) * d];
        let scores: Vec<f32> = (0..c)
            .map(|r| simd::dot_scalar_ref(&table[r * d..(r + 1) * d], query))
            .collect();
        let what = format!("c={c} d={d} k={k} nq={nq} shards={shards} query={q}");
        assert_eq!(bits(got), bits(&topk(&scores, k)), "vs reference: {what}");
        let single = score_topk_sharded(table, query, c, k, 1);
        assert_eq!(bits(got), bits(&single), "vs single: {what}");
    }
}

/// Documented ULP tolerance for the softmax path (see DESIGN.md §12):
/// the polynomial `exp_f32` is within ~2 ULP of libm over the clamped
/// domain, and the final division adds at most one rounding apiece to
/// numerator and denominator.
const MAX_SOFTMAX_ULP: u64 = 4;

/// Distance between two finite f32 values in units in the last place,
/// via the standard monotone mapping of the IEEE bit patterns.
fn ulp_distance(a: f32, b: f32) -> u64 {
    fn ordered(x: f32) -> i64 {
        let bits = x.to_bits() as i32;
        i64::from(if bits < 0 { i32::MIN - bits } else { bits })
    }
    assert!(a.is_finite() && b.is_finite(), "ulp distance needs finites");
    (ordered(a) - ordered(b)).unsigned_abs()
}

/// The seed's textbook row softmax with libm `exp`, kept as the
/// reference: identical max-fold, summation order and final division,
/// differing only in which exponential is used.
fn softmax_rows_reference(a: &[f32], out: &mut [f32], m: usize, n: usize) {
    for i in 0..m {
        let row = &a[i * n..(i + 1) * n];
        let orow = &mut out[i * n..(i + 1) * n];
        let max = row.iter().fold(f32::NEG_INFINITY, |acc, &x| acc.max(x));
        let mut sum = 0.0f32;
        for (o, &x) in orow.iter_mut().zip(row) {
            let e = (x - max).exp();
            *o = e;
            sum += e;
        }
        if sum > 0.0 {
            for o in orow.iter_mut() {
                *o /= sum;
            }
        }
    }
}

/// The seed's textbook layer norm; the SIMD kernel computes mean and
/// variance in the same sequential order and the affine pass performs
/// per-element identical arithmetic, so this must match bitwise.
fn layernorm_rows_reference(
    a: &[f32],
    gamma: &[f32],
    beta: &[f32],
    out: &mut [f32],
    m: usize,
    n: usize,
) {
    const EPS: f32 = 1e-5;
    for i in 0..m {
        let row = &a[i * n..(i + 1) * n];
        let orow = &mut out[i * n..(i + 1) * n];
        let mean = row.iter().sum::<f32>() / n as f32;
        let var = row.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        let inv = 1.0 / (var + EPS).sqrt();
        for j in 0..n {
            orow[j] = (row[j] - mean) * inv * gamma[j] + beta[j];
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The dispatched dot (scalar or wide, whatever this host runs)
    /// returns the exact bits of the scalar-backend reference for every
    /// length, including lengths straddling the block width.
    #[test]
    fn dot_is_bit_identical_to_scalar_reference(
        a in proptest::collection::vec(-8.0f32..8.0, 0..200),
        seed in any::<u64>(),
    ) {
        let b: Vec<f32> = a
            .iter()
            .enumerate()
            .map(|(i, _)| {
                let h = seed.wrapping_mul(i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                ((h >> 40) as f32 / 8388608.0) - 1.0
            })
            .collect();
        let got = simd::dot(&a, &b);
        let want = simd::dot_scalar_ref(&a, &b);
        prop_assert_eq!(got.to_bits(), want.to_bits());
    }

    /// The fused streaming top-k returns the same indices in the same
    /// order as scoring with the scalar reference followed by the heap
    /// selection — for any shard count, so the merge is order-stable too.
    /// The int8 scan is held to the same standard against a plain `i32`
    /// loop over the same rows (ragged tails and `k` above the rows per
    /// shard included).
    #[test]
    fn fused_topk_index_order_matches_scalar_reference(
        c in 1usize..400,
        d in 1usize..40,
        k in 1usize..30,
        shards in 1usize..6,
        qseed in any::<u64>(),
    ) {
        let table: Vec<f32> = (0..c * d)
            .map(|i| {
                let h = (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                ((h >> 40) as f32 / 8388608.0) - 1.0
            })
            .collect();
        let query: Vec<f32> = (0..d)
            .map(|i| {
                let h = qseed.wrapping_add(i as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                ((h >> 40) as f32 / 8388608.0) - 1.0
            })
            .collect();
        let mut scores = vec![0.0f32; c];
        for (r, s) in scores.iter_mut().enumerate() {
            *s = simd::dot_scalar_ref(&table[r * d..(r + 1) * d], &query);
        }
        let (want_ids, want_scores) = topk(&scores, k);
        let (got_ids, got_scores) = score_topk(&table, &query, c, k);
        prop_assert_eq!(&got_ids, &want_ids);
        prop_assert_eq!(&got_scores, &want_scores);
        let (sh_ids, sh_scores) = score_topk_sharded(&table, &query, c, k, shards);
        prop_assert_eq!(&sh_ids, &want_ids);
        prop_assert_eq!(&sh_scores, &want_scores);

        let data: Vec<i8> = table.iter().map(|&x| (x * 127.0) as i8).collect();
        let q8: Vec<i32> = query.iter().map(|&x| (x * 127.0) as i32).collect();
        let scales: Vec<f32> = (0..c).map(|r| 0.001 + (r % 17) as f32 * 1e-4).collect();
        let qscale = 0.0137f32;
        for (r, s) in scores.iter_mut().enumerate() {
            let row = &data[r * d..(r + 1) * d];
            let acc: i32 = row.iter().zip(&q8).map(|(&a, &b)| a as i32 * b).sum();
            *s = acc as f32 * scales[r] * qscale;
        }
        let (mut q8_ids, mut q8_scores) = (Vec::new(), Vec::new());
        score_topk_q8_sharded_into(
            &data, &scales, &q8, qscale, c, k, shards,
            &mut TopkScratch::default(), &mut q8_ids, &mut q8_scores,
        );
        prop_assert_eq!((q8_ids, q8_scores), topk(&scores, k));
    }

    /// Multi ≡ single, bit for bit, on hostile values: rows drawn from a
    /// handful of distinct rows (ties must resolve to the smaller index
    /// whatever the shard count), NaN and ±∞ planted in the table or in
    /// the queries (a NaN score is `NEG_INFINITY` on every path), and
    /// `k` on either side of `c`.
    #[test]
    fn multi_query_scan_matches_single_on_ties_and_non_finite_values(
        c in 0usize..160,
        d in 1usize..=40,
        k in 1usize..200,
        batch in 0usize..4,
        shard in 0usize..4,
        flavour in 0usize..4,
        seed in any::<u64>(),
    ) {
        let nq = BATCHES[batch];
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0];
        let mut table = unit_values(c * d, seed);
        let mut queries = unit_values(nq * d, seed ^ 0xA5A5);
        match flavour {
            // Three distinct rows, repeated: scores tie in long runs.
            1 => {
                for r in 3..c {
                    let src = (r % 3) * d;
                    table.copy_within(src..src + d, r * d);
                }
            }
            2 => {
                for i in (0..table.len()).step_by(7) {
                    table[i] = specials[(seed as usize + i) % specials.len()];
                }
            }
            3 => {
                for i in (0..queries.len()).step_by(5) {
                    queries[i] = specials[(seed as usize + i) % specials.len()];
                }
            }
            _ => {}
        }
        assert_multi_matches_single(&table, &queries, nq, c, d, k, SHARD_COUNTS[shard]);
    }

    /// Vectorized softmax stays within the documented ULP envelope of the
    /// libm-based reference (same algorithm, different exponential).
    #[test]
    fn softmax_is_ulp_bounded_against_libm_reference(
        m in 1usize..6,
        n in 1usize..40,
        lo in -20.0f32..0.0,
        hi in 0.0f32..20.0,
        seed in any::<u64>(),
    ) {
        let a: Vec<f32> = (0..m * n)
            .map(|i| {
                let h = seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let u = (h >> 40) as f32 / 16777216.0; // [0, 1)
                lo + (hi - lo) * u
            })
            .collect();
        let mut got = vec![0.0f32; m * n];
        let mut want = vec![0.0f32; m * n];
        kernels::softmax_rows(&a, &mut got, n);
        softmax_rows_reference(&a, &mut want, m, n);
        for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
            let ulp = ulp_distance(g, w);
            prop_assert!(
                ulp <= MAX_SOFTMAX_ULP,
                "softmax[{}] {} vs {}: {} ulp",
                i, g, w, ulp
            );
        }
    }

    /// The dispatched elementwise `exp`, `sigmoid` and `tanh` return the
    /// exact bits of the scalar functions `UnOp::apply` runs, over a range
    /// reaching well below `exp`'s underflow point (`-87`) and above its
    /// saturation point (`88`), padded with `-inf` and a masked logit.
    #[test]
    fn transcendentals_are_bit_identical_across_backends(
        xs in proptest::collection::vec(-200.0f32..100.0, 0..70),
    ) {
        let mut xs = xs;
        xs.extend([f32::NEG_INFINITY, -1e9, -87.0, -87.01]);
        for op in [UnOp::Exp, UnOp::Sigmoid, UnOp::Tanh] {
            let mut got = vec![0.0f32; xs.len()];
            simd::unary(op, &xs, &mut got);
            for (&x, &g) in xs.iter().zip(&got) {
                prop_assert_eq!(g.to_bits(), op.apply(x).to_bits(), "{}({})", op.name(), x);
            }
        }
    }

    /// Vectorized layer norm is bit-identical to the textbook reference:
    /// mean/variance folds are sequential in both, and the affine pass
    /// performs the same per-element expression.
    #[test]
    fn layernorm_is_bit_identical_to_reference(
        m in 1usize..6,
        n in 1usize..40,
        seed in any::<u64>(),
    ) {
        let a: Vec<f32> = (0..m * n)
            .map(|i| {
                let h = seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                ((h >> 40) as f32 / 8388608.0) - 1.0
            })
            .collect();
        let gamma: Vec<f32> = (0..n).map(|j| 0.5 + 0.01 * j as f32).collect();
        let beta: Vec<f32> = (0..n).map(|j| -0.2 + 0.02 * j as f32).collect();
        let mut got = vec![0.0f32; m * n];
        let mut want = vec![0.0f32; m * n];
        kernels::layernorm_rows(&a, &gamma, &beta, &mut got, n, 1e-5);
        layernorm_rows_reference(&a, &gamma, &beta, &mut want, m, n);
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(g.to_bits(), w.to_bits());
        }
    }
}

/// `exp` underflows to an exact `+0.0` below `-87` and is a normal float
/// everywhere on `[-87, 88]`, through the scalar function and through the
/// dispatched kernel (the wide backend on AVX2 hosts, the scalar one
/// under `ETUDE_SIMD=scalar`).
#[test]
fn exp_underflows_to_exact_zero_and_is_never_subnormal() {
    let under = [-87.01f32, -100.0, -1e9, f32::NEG_INFINITY];
    // 17 copies: two full blocks and a masked tail.
    let under_wide: Vec<f32> = under.iter().flat_map(|&x| [x; 17]).collect();
    let mut got = vec![1.0f32; under_wide.len()];
    simd::unary(UnOp::Exp, &under_wide, &mut got);
    for (&x, &g) in under_wide.iter().zip(&got) {
        assert_eq!(simd::exp_f32(x).to_bits(), 0, "scalar exp({x})");
        assert_eq!(g.to_bits(), 0, "dispatched exp({x})");
    }
    let normal: Vec<f32> = (0..=17_500).map(|i| -87.0 + i as f32 * 0.01).collect();
    let mut got = vec![0.0f32; normal.len()];
    simd::unary(UnOp::Exp, &normal, &mut got);
    for (&x, &g) in normal.iter().zip(&got) {
        assert!(simd::exp_f32(x).is_normal(), "scalar exp({x})");
        assert!(g.is_normal(), "dispatched exp({x}) = {g:e}");
    }
}

/// A row with masked (`-1e9`) logits gives those positions an exact zero
/// weight, not a denormal one, and the rest still sums to one.
#[test]
fn softmax_gives_masked_logits_exact_zeros() {
    let row = [0.5f32, -1e9, 1.5, -1e9, -1e9, 0.25, -1e9, -1e9, -1e9, 2.0];
    let mut out = [1.0f32; 10];
    kernels::softmax_rows(&row, &mut out, row.len());
    for (&x, &w) in row.iter().zip(&out) {
        if x == -1e9 {
            assert_eq!(w.to_bits(), 0, "masked weight {w:e}");
        } else {
            assert!(w.is_normal(), "unmasked weight {w:e}");
        }
    }
    assert!((out.iter().sum::<f32>() - 1.0).abs() < 1e-6);
}

/// Lengths around the block width are where masked epilogues go wrong;
/// pin 0, 1, `LANES - 1`, `LANES`, `LANES + 1` and a two-block straddle
/// explicitly.
#[test]
fn dot_edge_lengths_match_scalar_reference() {
    let lens = [
        0,
        1,
        simd::LANES - 1,
        simd::LANES,
        simd::LANES + 1,
        2 * simd::LANES + 3,
    ];
    for &len in &lens {
        let a: Vec<f32> = (0..len).map(|i| (i as f32 * 0.37).sin()).collect();
        let b: Vec<f32> = (0..len).map(|i| (i as f32 * 0.71).cos()).collect();
        assert_eq!(
            simd::dot(&a, &b).to_bits(),
            simd::dot_scalar_ref(&a, &b).to_bits(),
            "len {len}"
        );
    }
}

/// Multi ≡ single over every shape the tile kernel distinguishes: each
/// tail length (`d % 8`) with zero to five full blocks, each partial
/// final tile (`c % 4`) including the empty catalog and shards shorter
/// than a tile, every pinned batch size and shard count, `k` below and
/// above `c`.
#[test]
fn multi_query_scan_matches_single_for_every_tail_and_tile_shape() {
    for d in 1..=40 {
        for c in [0, 1, 2, 3, 4, 5, 6, 7, 61, 62, 63, 64] {
            let table = unit_values(c * d, (c * 41 + d) as u64);
            for nq in BATCHES {
                let queries = unit_values(nq * d, (nq * 97 + d) as u64);
                for shards in SHARD_COUNTS {
                    for k in [3, 70] {
                        assert_multi_matches_single(&table, &queries, nq, c, d, k, shards);
                    }
                }
            }
        }
    }
}

/// The GRU cell before its gates moved onto the tile scan: one
/// scalar-reference dot per gate row and unit, gates one unit at a time.
#[allow(clippy::too_many_arguments)]
fn gru_cell_per_row_reference(
    x: &[f32],
    h: &[f32],
    w_ih: &[f32],
    w_hh: &[f32],
    b_ih: &[f32],
    b_hh: &[f32],
    out: &mut [f32],
    hidden: usize,
    input: usize,
) {
    use kernels::UnOp;
    for j in 0..hidden {
        let gi = |g: usize| {
            let row = &w_ih[(g * hidden + j) * input..(g * hidden + j + 1) * input];
            simd::dot_scalar_ref(row, x) + b_ih[g * hidden + j]
        };
        let gh = |g: usize| {
            let row = &w_hh[(g * hidden + j) * hidden..(g * hidden + j + 1) * hidden];
            simd::dot_scalar_ref(row, h) + b_hh[g * hidden + j]
        };
        let r = UnOp::Sigmoid.apply(gi(0) + gh(0));
        let z = UnOp::Sigmoid.apply(gi(1) + gh(1));
        let n = simd::tanh_f32(gi(2) + r * gh(2));
        out[j] = (1.0 - z) * n + z * h[j];
    }
}

/// `kernels::gru_cell` (gate rows on the 4-row tile, gates as one vector
/// pass) returns the bits of the per-row formula for every hidden and
/// input size in 1..=40: every tile remainder and tail length, with
/// weights large enough to saturate some gates.
#[test]
fn gru_cell_is_bit_identical_to_the_per_row_formula() {
    for hidden in 1..=40 {
        for input in 1..=40 {
            let seed = (hidden * 64 + input) as u64;
            let scaled = |n: usize, s: u64, by: f32| -> Vec<f32> {
                unit_values(n, s).iter().map(|v| v * by).collect()
            };
            let x = scaled(input, seed, 3.0);
            let h = unit_values(hidden, seed ^ 1);
            let w_ih = scaled(3 * hidden * input, seed ^ 2, 2.0);
            let w_hh = scaled(3 * hidden * hidden, seed ^ 3, 2.0);
            let b_ih = unit_values(3 * hidden, seed ^ 4);
            let b_hh = unit_values(3 * hidden, seed ^ 5);
            let mut got = vec![0.0f32; hidden];
            let mut scratch = vec![0.0f32; kernels::GRU_SCRATCH_PER_UNIT * hidden];
            kernels::gru_cell(
                &x,
                &h,
                &w_ih,
                &w_hh,
                &b_ih,
                &b_hh,
                &mut got,
                hidden,
                input,
                &mut scratch,
            );
            let mut want = vec![0.0f32; hidden];
            gru_cell_per_row_reference(
                &x, &h, &w_ih, &w_hh, &b_ih, &b_hh, &mut want, hidden, input,
            );
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "hidden={hidden} input={input}");
        }
    }
}

/// Fused top-k with degenerate shapes: empty catalog, single row, k
/// larger than the catalog.
#[test]
fn fused_topk_edge_shapes() {
    let (ids, scores) = score_topk(&[], &[], 0, 5);
    assert!(ids.is_empty() && scores.is_empty());

    let (ids, scores) = score_topk(&[1.0, 2.0], &[3.0, 4.0], 1, 5);
    assert_eq!(ids, vec![0]);
    assert_eq!(scores, vec![11.0]);

    let table = [1.0, 0.0, 0.0, 1.0, 1.0, 1.0];
    let (ids, _) = score_topk(&table, &[2.0, 1.0], 3, 10);
    assert_eq!(ids, vec![2, 0, 1]); // 3.0, 2.0, 1.0
}

/// NaN scores are rejected deterministically: a NaN query maps every
/// score to `NEG_INFINITY`, so selection degrades to ascending index
/// order instead of depending on comparison quirks.
#[test]
fn nan_scores_are_rejected_deterministically() {
    let d = 4;
    let c = 8;
    let table: Vec<f32> = (0..c * d).map(|i| i as f32).collect();
    let query = [f32::NAN, 0.0, 0.0, 0.0];
    let (ids, scores) = score_topk(&table, &query, c, 3);
    assert_eq!(ids, vec![0, 1, 2]);
    assert!(scores.iter().all(|s| *s == f32::NEG_INFINITY));
}
