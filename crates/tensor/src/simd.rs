//! Explicit-width SIMD kernel layer.
//!
//! The MIPS hot path (`score · catalog row` over millions of rows) cannot
//! rely on the autovectorizer: the seed kernels compile against the
//! x86-64 *baseline* (SSE2, no FMA), so the scan runs 4-wide without
//! fused multiply-adds. This module provides the explicit lane layer the
//! rest of `etude-tensor` builds on:
//!
//! * every kernel is written **once** against fixed-width
//!   `[f32; LANES]` blocks (a shape the vectorizer cannot miss), as an
//!   `#[inline(always)]` generic implementation,
//! * the implementation is instantiated twice: a plain build (the
//!   *scalar* backend — `f32::mul_add` per lane) and inside
//!   `#[target_feature(enable = "avx2,fma")]` wrappers (the *wide*
//!   backend — the same code compiled to 8-wide `vfmadd`). One kernel
//!   is the exception: the fused catalog scan ([`score_tiles`]) is
//!   written a second time with AVX2 intrinsics, confined to the `wide`
//!   module, because the portable block style leaves half its speed on
//!   the table at the row lengths catalogs have (d = 6 … 32); it runs
//!   the same operation sequence and is tested bit for bit against the
//!   portable form,
//! * the backend is picked **once per process** ([`active`]): runtime
//!   CPU detection, overridable with `ETUDE_SIMD=scalar|wide|auto`, and
//!   the detected ISA name / lane width are recorded for cost tracking
//!   and bench metadata.
//!
//! ## Determinism contract
//!
//! Both backends execute the *identical* sequence of IEEE-754
//! operations: `f32::mul_add` is a single-rounding fused multiply-add on
//! every backend (libm `fmaf` is correctly rounded, hardware `vfmadd` is
//! the same function), blocks use a fixed two-accumulator layout with a
//! fixed pairwise reduction tree, and odd lengths are handled by **one
//! zero-padded masked epilogue block** (`fma(0, 0, acc) == acc`) rather
//! than a per-element scalar tail. Consequently `dot`, `matmul`,
//! `matmul_bt` and the fused [`score_tiles`] scan are **bit-identical**
//! across backends and across each other for a shared `(row, query)`
//! pair — the top-k selection downstream needs no tolerance gate.
//!
//! Transcendentals ([`exp_f32`], [`sigmoid_f32`], [`tanh_f32`],
//! [`gelu_f32`]) are shared polynomial implementations (Cephes-style
//! `expf`, ~2 ulp) used by *both* the vectorized elementwise kernels and
//! the scalar `UnOp::apply` path (JIT fusion), so eager, fused and wide
//! execution agree bitwise. Accuracy vs `std` (`x.exp()` etc.) is
//! bounded at ≤ 4 ulp — the tolerance policy documented in DESIGN.md
//! §12 and enforced by the `simd_equivalence` proptests.

use std::ops::Range;
use std::sync::OnceLock;

use crate::kernels::{BinOp, UnOp};

/// Lane count of one SIMD block: 8 × f32 = one AVX2 `ymm` register.
/// The scalar backend processes the same 8-wide blocks one lane at a
/// time, which is what makes the two backends bit-identical.
pub const LANES: usize = 8;

/// One fixed-width register block.
type Block = [f32; LANES];

/// Maximum reduction length for which the int8 dot's f32-lane
/// accumulation is exact: every partial sum of `i8 × i8` products stays
/// below 2^24 (`1024 · 127 · 127 < 2^24`), so FMA order cannot round.
/// Longer rows fall back to a plain `i32` loop.
pub const Q8_EXACT_DIM: usize = 1024;

// ----------------------------------------------------------------------
// Backend selection.
// ----------------------------------------------------------------------

/// Instruction-set backend the process dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// Portable fallback: same block algorithm, one lane at a time.
    Scalar,
    /// AVX2 + FMA, 8 × f32 per instruction (x86-64 only).
    Avx2Fma,
}

impl Isa {
    /// Stable name for logs / bench metadata.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2Fma => "avx2+fma",
        }
    }

    /// Effective f32 lanes per instruction (1 for the scalar backend).
    pub fn lanes(self) -> usize {
        match self {
            Isa::Scalar => 1,
            Isa::Avx2Fma => LANES,
        }
    }
}

static ACTIVE: OnceLock<Isa> = OnceLock::new();

/// The backend every kernel in this module dispatches to, detected once
/// per process. `ETUDE_SIMD=scalar` forces the fallback; `wide`/`auto`
/// use the widest ISA the CPU supports (forcing `wide` on unsupported
/// hardware would be UB, so it degrades to detection).
pub fn active() -> Isa {
    *ACTIVE.get_or_init(detect)
}

fn detect() -> Isa {
    if let Ok(v) = std::env::var("ETUDE_SIMD") {
        if matches!(v.trim(), "scalar" | "off" | "0") {
            return Isa::Scalar;
        }
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return Isa::Avx2Fma;
        }
    }
    Isa::Scalar
}

/// Name of the active backend (recorded in cost tracking and benches).
pub fn isa_name() -> &'static str {
    active().name()
}

/// Effective lane width of the active backend.
pub fn lane_width() -> usize {
    active().lanes()
}

// ----------------------------------------------------------------------
// Block primitives (shared by both backends).
// ----------------------------------------------------------------------

#[inline(always)]
fn load_block(src: &[f32], p: usize) -> Block {
    let mut b = [0.0f32; LANES];
    b.copy_from_slice(&src[p..p + LANES]);
    b
}

/// Zero-padded partial block: the masked epilogue load. Padding lanes
/// contribute `fma(0, 0, acc) == acc` to the accumulators, so one
/// full-width FMA step replaces the per-element tail branch.
#[inline(always)]
fn load_block_tail(src: &[f32], p: usize, len: usize) -> Block {
    let mut b = [0.0f32; LANES];
    b[..len - p].copy_from_slice(&src[p..len]);
    b
}

#[inline(always)]
fn fma_block(acc: &mut Block, a: &Block, b: &Block) {
    for l in 0..LANES {
        acc[l] = a[l].mul_add(b[l], acc[l]);
    }
}

/// Fixed pairwise reduction tree over one block; part of the
/// determinism contract (never reassociated).
#[inline(always)]
fn hsum_block(acc: &Block) -> f32 {
    ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7]))
}

/// Core reduction: `R` row slices against one shared right-hand fetch.
/// Two independent accumulator blocks per row break the FMA latency
/// chain; `fetch` supplies a full block at `p`, `fetch_tail` the
/// zero-padded final block. Register tiling (`R = 4` in [`matmul_bt`]
/// and the fused scan) amortises the right-hand loads across rows
/// without changing any row's accumulation order.
#[inline(always)]
fn dot_rows_core<const R: usize>(
    rows: &[&[f32]; R],
    len: usize,
    fetch: impl Fn(usize) -> Block,
    fetch_tail: impl Fn(usize) -> Block,
) -> [f32; R] {
    let mut acc0 = [[0.0f32; LANES]; R];
    let mut acc1 = [[0.0f32; LANES]; R];
    let mut p = 0;
    while p + 2 * LANES <= len {
        let b0 = fetch(p);
        let b1 = fetch(p + LANES);
        for r in 0..R {
            fma_block(&mut acc0[r], &load_block(rows[r], p), &b0);
            fma_block(&mut acc1[r], &load_block(rows[r], p + LANES), &b1);
        }
        p += 2 * LANES;
    }
    if p + LANES <= len {
        let b0 = fetch(p);
        for r in 0..R {
            fma_block(&mut acc0[r], &load_block(rows[r], p), &b0);
        }
        p += LANES;
    }
    if p < len {
        let bt = fetch_tail(p);
        for r in 0..R {
            fma_block(&mut acc1[r], &load_block_tail(rows[r], p, len), &bt);
        }
    }
    let mut out = [0.0f32; R];
    for r in 0..R {
        for l in 0..LANES {
            acc0[r][l] += acc1[r][l];
        }
        out[r] = hsum_block(&acc0[r]);
    }
    out
}

#[inline(always)]
fn dot_impl(a: &[f32], b: &[f32]) -> f32 {
    let len = a.len();
    dot_rows_core(
        &[a],
        len,
        |p| load_block(b, p),
        |p| load_block_tail(b, p, len),
    )[0]
}

#[inline(always)]
fn dot4_impl(rows: &[&[f32]; 4], b: &[f32]) -> [f32; 4] {
    let len = b.len();
    dot_rows_core(
        rows,
        len,
        |p| load_block(b, p),
        |p| load_block_tail(b, p, len),
    )
}

/// `Σ a[p] · b[offset + p·stride]`: the column-strided case of
/// [`matmul`](crate::kernels::matmul), gathered into blocks so the
/// accumulation order equals the contiguous [`dot`].
#[inline(always)]
fn dot_strided_impl(a: &[f32], b: &[f32], offset: usize, stride: usize) -> f32 {
    let len = a.len();
    let gather = |p: usize| {
        let mut blk = [0.0f32; LANES];
        for (l, v) in blk.iter_mut().enumerate() {
            *v = b[offset + (p + l) * stride];
        }
        blk
    };
    let gather_tail = |p: usize| {
        let mut blk = [0.0f32; LANES];
        for (l, v) in blk.iter_mut().enumerate().take(len - p) {
            *v = b[offset + (p + l) * stride];
        }
        blk
    };
    dot_rows_core(&[a], len, gather, gather_tail)[0]
}

/// Rows per tile of the fused scan: four rows share each query block
/// fetch and, on the wide backend, one transposed reduction tree.
pub const TILE_ROWS: usize = 4;

/// Fused tile scan, portable form: for every tile of up to
/// [`TILE_ROWS`] rows of `rows`, in ascending order, and for every one
/// of the `nq` queries (`queries` is `[nq, d]` row-major),
/// `sink(query, first_row, scores, n)`: `scores[..n]` are the scores of
/// rows `first_row..first_row + n`, and the lanes past `n` — only the
/// final tile has any — repeat the last of them, so a sink may test all
/// four without looking at `n`. A tile's rows are fetched from memory
/// by the first query and are in L1 for the others, so `nq` queries
/// stream the table once. Each score is bit-identical to [`dot`]. This
/// is the scalar backend and the reference the wide kernel is tested
/// against; the sink maintains the running heaps, so no `C`-length
/// score vector is ever materialised.
#[inline(always)]
fn score_tiles_impl(
    table: &[f32],
    d: usize,
    queries: &[f32],
    nq: usize,
    rows: Range<usize>,
    sink: &mut impl FnMut(usize, usize, [f32; TILE_ROWS], usize),
) {
    let mut i = rows.start;
    while i < rows.end {
        let n = (rows.end - i).min(TILE_ROWS);
        // A short final tile repeats its last row: one code path, and
        // the surplus scores are simply not reported.
        let row = |j: usize| {
            let r = i + j.min(n - 1);
            &table[r * d..(r + 1) * d]
        };
        let tile = [row(0), row(1), row(2), row(3)];
        for q in 0..nq {
            sink(q, i, dot4_impl(&tile, &queries[q * d..(q + 1) * d]), n);
        }
        i += n;
    }
}

/// Int8 row scan for the quantized index: `sink(i, Σ row[p]·q[p])` with
/// the products accumulated in f32 lanes. All intermediates are exact
/// integers below 2^24 (guarded by [`Q8_EXACT_DIM`] in the caller), so
/// the result equals the reference `i32` accumulation bit-for-bit.
#[inline(always)]
fn score_rows_q8_impl(
    data: &[i8],
    d: usize,
    q: &[i32],
    rows: Range<usize>,
    sink: &mut impl FnMut(usize, f32),
) {
    // Stack-resident zero-padded f32 copy of the query: keeps the scan
    // allocation-free (the serving path guarantees zero steady-state
    // allocations) and gives the tail a full zero block to multiply.
    assert!(d <= Q8_EXACT_DIM, "q8 kernel requires d <= {Q8_EXACT_DIM}");
    let mut qf = [0.0f32; Q8_EXACT_DIM + LANES];
    for (dst, &v) in qf.iter_mut().zip(q) {
        *dst = v as f32;
    }
    for i in rows {
        let row = &data[i * d..(i + 1) * d];
        let mut acc = [0.0f32; LANES];
        let mut p = 0;
        while p + LANES <= d {
            for l in 0..LANES {
                acc[l] = (row[p + l] as f32).mul_add(qf[p + l], acc[l]);
            }
            p += LANES;
        }
        if p < d {
            let mut blk = [0.0f32; LANES];
            for (l, v) in blk.iter_mut().enumerate().take(d - p) {
                *v = row[p + l] as f32;
            }
            // qf is zero-padded to a full block, so this is the same
            // masked epilogue as the f32 kernels.
            for l in 0..LANES {
                acc[l] = blk[l].mul_add(qf[p + l], acc[l]);
            }
        }
        sink(i, hsum_block(&acc));
    }
}

#[inline(always)]
fn matmul_bt_impl(a: &[f32], b_t: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    for j in 0..n {
        let brow = &b_t[j * k..(j + 1) * k];
        let mut i = 0;
        while i + 4 <= m {
            let s = dot4_impl(
                &[
                    &a[i * k..(i + 1) * k],
                    &a[(i + 1) * k..(i + 2) * k],
                    &a[(i + 2) * k..(i + 3) * k],
                    &a[(i + 3) * k..(i + 4) * k],
                ],
                brow,
            );
            for (r, &v) in s.iter().enumerate() {
                out[(i + r) * n + j] = v;
            }
            i += 4;
        }
        while i < m {
            out[i * n + j] = dot_impl(&a[i * k..(i + 1) * k], brow);
            i += 1;
        }
    }
}

#[inline(always)]
fn matmul_strided_impl(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert!(n > 1);
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        for j in 0..n {
            out[i * n + j] = dot_strided_impl(arow, b, j, n);
        }
    }
}

// ----------------------------------------------------------------------
// Shared polynomial transcendentals.
// ----------------------------------------------------------------------

/// Branch-free Cephes-style `expf` (~2 ulp), used by every backend and
/// by `UnOp::apply`, so eager, vectorized and JIT-fused paths agree
/// bitwise. Inputs are clamped to `[-87, 88]` for the polynomial; the
/// high end saturates at ~1.65e38 instead of `inf`, and below `-87`
/// (`-inf` included) the result is an exact `+0.0`, picked by a select
/// after the polynomial rather than a branch, so it vectorizes like the
/// rest. Every non-zero result is therefore a *normal* float.
///
/// The exact zero is what keeps arithmetic downstream normal too: a
/// masked logit (`-1e9`) leaves softmax as a zero weight instead of a
/// denormal one, which every later multiply would take through the slow
/// microcode path (SASRec's attention; `encoder_ops` fails if any op of
/// the gated models still sees a subnormal operand). `sigmoid` and
/// `tanh` round to 1 / −1 there either way, and dropping a weight below
/// 1.6e-38 cannot move a sum of O(1) terms.
#[inline(always)]
pub fn exp_f32(x: f32) -> f32 {
    const LOG2EF: f32 = std::f32::consts::LOG2_E;
    // Exact hi/lo split of ln(2): the hi part is 0x1.63p-1, written out
    // in full so the split stays visibly exact.
    #[allow(clippy::excessive_precision)]
    const LN2_HI: f32 = 0.693_359_375;
    const LN2_LO: f32 = -2.121_944_4e-4;
    // 1.5·2^23: adding and subtracting rounds to the nearest integer
    // (ties-to-even) without a rounding instruction, so the sequence
    // vectorizes on every backend.
    const ROUND_MAGIC: f32 = 12_582_912.0;
    let underflows = x < -87.0;
    let x = x.clamp(-87.0, 88.0);
    let n = (x * LOG2EF + ROUND_MAGIC) - ROUND_MAGIC;
    let r = n.mul_add(-LN2_HI, x);
    let r = n.mul_add(-LN2_LO, r);
    let mut p = 1.987_569_1e-4f32;
    p = p.mul_add(r, 1.398_199_9e-3);
    p = p.mul_add(r, 8.333_452e-3);
    p = p.mul_add(r, 4.166_579_6e-2);
    p = p.mul_add(r, 1.666_666_6e-1);
    p = p.mul_add(r, 0.5);
    let y = p.mul_add(r * r, r) + 1.0;
    let scale = f32::from_bits((((n as i32) + 127) as u32) << 23);
    if underflows {
        0.0
    } else {
        y * scale
    }
}

/// Logistic sigmoid on the shared [`exp_f32`].
#[inline(always)]
pub fn sigmoid_f32(x: f32) -> f32 {
    1.0 / (1.0 + exp_f32(-x))
}

/// Hyperbolic tangent on the shared [`exp_f32`]; saturates to ±1.
#[inline(always)]
pub fn tanh_f32(x: f32) -> f32 {
    let e = exp_f32(2.0 * x);
    (e - 1.0) / (e + 1.0)
}

/// GELU (tanh approximation) on the shared [`tanh_f32`].
#[inline(always)]
pub fn gelu_f32(x: f32) -> f32 {
    let c = (2.0f32 / std::f32::consts::PI).sqrt();
    0.5 * x * (1.0 + tanh_f32(c * (x + 0.044_715 * x * x * x)))
}

// ----------------------------------------------------------------------
// Elementwise map cores.
// ----------------------------------------------------------------------

#[inline(always)]
fn unary_impl(op: UnOp, a: &[f32], out: &mut [f32]) {
    // One match per call (not per element): each arm is a clean
    // vectorizable loop over a single scalar function.
    match op {
        UnOp::Sigmoid => map(a, out, sigmoid_f32),
        UnOp::Tanh => map(a, out, tanh_f32),
        UnOp::Relu => map(a, out, |x| x.max(0.0)),
        UnOp::Gelu => map(a, out, gelu_f32),
        UnOp::Exp => map(a, out, exp_f32),
        UnOp::Neg => map(a, out, |x| -x),
        UnOp::Sqrt => map(a, out, |x| x.sqrt()),
        UnOp::Recip => map(a, out, |x| 1.0 / x),
    }
}

#[inline(always)]
fn map(a: &[f32], out: &mut [f32], f: impl Fn(f32) -> f32) {
    for (o, &x) in out.iter_mut().zip(a) {
        *o = f(x);
    }
}

#[inline(always)]
fn binary_impl(op: BinOp, a: &[f32], b: &[f32], out: &mut [f32]) {
    match op {
        BinOp::Add => zip(a, b, out, |x, y| x + y),
        BinOp::Sub => zip(a, b, out, |x, y| x - y),
        BinOp::Mul => zip(a, b, out, |x, y| x * y),
        BinOp::Div => zip(a, b, out, |x, y| x / y),
        BinOp::Max => zip(a, b, out, |x, y| x.max(y)),
    }
}

#[inline(always)]
fn zip(a: &[f32], b: &[f32], out: &mut [f32], f: impl Fn(f32, f32) -> f32) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = f(x, y);
    }
}

#[inline(always)]
fn binary_scalar_impl(op: BinOp, a: &[f32], s: f32, out: &mut [f32]) {
    match op {
        BinOp::Add => map(a, out, |x| x + s),
        BinOp::Sub => map(a, out, |x| x - s),
        BinOp::Mul => map(a, out, |x| x * s),
        BinOp::Div => map(a, out, |x| x / s),
        BinOp::Max => map(a, out, |x| x.max(s)),
    }
}

#[inline(always)]
fn exp_sub_impl(a: &[f32], max: f32, out: &mut [f32]) {
    map(a, out, |x| exp_f32(x - max));
}

#[inline(always)]
fn div_inplace_impl(buf: &mut [f32], s: f32) {
    for v in buf.iter_mut() {
        *v /= s;
    }
}

/// The GRU gates over pre-activations `gi`, `gh` (`[r | z | n]`, `3h`
/// floats each, biases included) and the previous state `h`, per unit
/// `j` the scalar expression: `r`, `z` the sigmoids of `gi + gh`,
/// `n = tanh(gi_n + r·gh_n)`, `out[j] = (1 - z)·n + z·h[j]`. One loop
/// over the units, so the three transcendentals vectorise like
/// [`unary`]'s.
#[inline(always)]
fn gru_gates_impl(gi: &[f32], gh: &[f32], h: &[f32], out: &mut [f32]) {
    let n = out.len();
    let (gi_r, gi_z, gi_n) = (&gi[..n], &gi[n..2 * n], &gi[2 * n..3 * n]);
    let (gh_r, gh_z, gh_n) = (&gh[..n], &gh[n..2 * n], &gh[2 * n..3 * n]);
    let h = &h[..n];
    for j in 0..n {
        let r = sigmoid_f32(gi_r[j] + gh_r[j]);
        let z = sigmoid_f32(gi_z[j] + gh_z[j]);
        let c = tanh_f32(gi_n[j] + r * gh_n[j]);
        out[j] = (1.0 - z) * c + z * h[j];
    }
}

/// `out[j] = (a[j] - mean) * inv * gamma[j] + beta[j]`: the layernorm
/// affine pass, per-element identical to the pre-SIMD kernel.
#[inline(always)]
fn layernorm_affine_impl(
    a: &[f32],
    gamma: &[f32],
    beta: &[f32],
    out: &mut [f32],
    mean: f32,
    inv: f32,
) {
    for (j, (o, &x)) in out.iter_mut().zip(a).enumerate() {
        *o = (x - mean) * inv * gamma[j] + beta[j];
    }
}

// ----------------------------------------------------------------------
// Wide backend: the same implementations compiled with AVX2+FMA.
// ----------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod wide {
    use super::*;
    use std::arch::x86_64::*;

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        dot_impl(a, b)
    }

    /// `_mm256_maskload_ps` masks by tail length `d % 8`: the first
    /// `t` lanes of row `t` are selected.
    static TAIL_MASKS: [[i32; LANES]; LANES] = {
        let mut m = [[0i32; LANES]; LANES];
        let mut t = 0;
        while t < LANES {
            let mut l = 0;
            while l < t {
                m[t][l] = -1;
                l += 1;
            }
            t += 1;
        }
        m
    };

    /// Four row · query dot products in the exact operation sequence of
    /// `dot_rows_core::<4>`: two accumulators per row (full blocks
    /// alternate `acc0`, `acc1`; an odd full block lands in `acc0`, the
    /// masked tail in `acc1`), `acc0 + acc1`, then `hsum_block`'s tree
    /// — low half + high half, adjacent pairs, pair of pairs — run for
    /// the four rows at once by three `hadd`s. Lane `r` of the result
    /// is row `r`'s score.
    ///
    /// # Safety
    ///
    /// AVX2 and FMA must be available; `q` and every pointer in `rows`
    /// must be valid for reads of `d` floats. Nothing past those `d`
    /// floats is read: full blocks end at or below `d`, and the tail
    /// goes through `tail_mask` (the mask for `d % 8`), whose masked-off
    /// lanes are not accessed.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn dot4(rows: [*const f32; 4], q: *const f32, d: usize, tail_mask: __m256i) -> __m128 {
        let mut acc0 = [_mm256_setzero_ps(); 4];
        let mut acc1 = [_mm256_setzero_ps(); 4];
        let mut p = 0;
        while p + 2 * LANES <= d {
            let b0 = _mm256_loadu_ps(q.add(p));
            let b1 = _mm256_loadu_ps(q.add(p + LANES));
            for r in 0..4 {
                acc0[r] = _mm256_fmadd_ps(_mm256_loadu_ps(rows[r].add(p)), b0, acc0[r]);
                acc1[r] = _mm256_fmadd_ps(_mm256_loadu_ps(rows[r].add(p + LANES)), b1, acc1[r]);
            }
            p += 2 * LANES;
        }
        if p + LANES <= d {
            let b0 = _mm256_loadu_ps(q.add(p));
            for r in 0..4 {
                acc0[r] = _mm256_fmadd_ps(_mm256_loadu_ps(rows[r].add(p)), b0, acc0[r]);
            }
            p += LANES;
        }
        if p < d {
            // Masked-off lanes read as zero and touch no memory: the
            // zero-padded epilogue block without the copy.
            let bt = _mm256_maskload_ps(q.add(p), tail_mask);
            for r in 0..4 {
                let a = _mm256_maskload_ps(rows[r].add(p), tail_mask);
                acc1[r] = _mm256_fmadd_ps(a, bt, acc1[r]);
            }
        }
        let mut half = [_mm_setzero_ps(); 4];
        for r in 0..4 {
            let acc = _mm256_add_ps(acc0[r], acc1[r]);
            half[r] = _mm_add_ps(_mm256_castps256_ps128(acc), _mm256_extractf128_ps::<1>(acc));
        }
        _mm_hadd_ps(_mm_hadd_ps(half[0], half[1]), _mm_hadd_ps(half[2], half[3]))
    }

    /// The wide instantiation of `score_tiles_impl`: same tiles, same
    /// sink calls, bit-identical scores.
    ///
    /// # Safety
    ///
    /// AVX2 and FMA must be available. The slices need no promise from
    /// the caller: their bounds are asserted before any pointer is made.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn score_tiles<F: FnMut(usize, usize, [f32; TILE_ROWS], usize)>(
        table: &[f32],
        d: usize,
        queries: &[f32],
        nq: usize,
        rows: Range<usize>,
        sink: &mut F,
    ) {
        // Live in release: everything below reads through raw pointers.
        assert!(
            rows.end.checked_mul(d).is_some_and(|n| n <= table.len())
                && nq.checked_mul(d) == Some(queries.len()),
            "score_tiles: rows or queries outside their slices"
        );
        // SAFETY: a row of `TAIL_MASKS` is `[i32; 8]`, exactly the one
        // unaligned 256-bit load made from its first element.
        let tail_mask = unsafe { _mm256_loadu_si256(TAIL_MASKS[d % LANES].as_ptr().cast()) };
        let mut i = rows.start;
        while i < rows.end {
            let n = (rows.end - i).min(TILE_ROWS);
            // SAFETY: `i + n <= rows.end` and `rows.end * d <= table.len()`
            // (asserted), so rows `i..i + n` each start inside `table`; a
            // short final tile repeats its last row, as the portable scan
            // does, instead of stepping past it.
            let tile = unsafe {
                let r0 = table.as_ptr().add(i * d);
                let r1 = if n > 1 { r0.add(d) } else { r0 };
                let r2 = if n > 2 { r1.add(d) } else { r1 };
                let r3 = if n > 3 { r2.add(d) } else { r2 };
                [r0, r1, r2, r3]
            };
            for q in 0..nq {
                let mut s = [0.0f32; TILE_ROWS];
                // SAFETY: `q < nq` and `queries.len() == nq * d` (asserted),
                // so query `q` is `d` floats inside `queries`, and each
                // tile pointer is the start of a `d`-float row inside
                // `table` (above): what `dot4` requires. `s` is four
                // floats, one unaligned 128-bit store.
                unsafe {
                    let scores = dot4(tile, queries.as_ptr().add(q * d), d, tail_mask);
                    _mm_storeu_ps(s.as_mut_ptr(), scores);
                }
                sink(q, i, s, n);
            }
            i += n;
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn score_rows_q8<F: FnMut(usize, f32)>(
        data: &[i8],
        d: usize,
        q: &[i32],
        rows: Range<usize>,
        sink: &mut F,
    ) {
        score_rows_q8_impl(data, d, q, rows, sink)
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn matmul_bt(a: &[f32], b_t: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        matmul_bt_impl(a, b_t, out, m, k, n)
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn matmul_strided(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        matmul_strided_impl(a, b, out, m, k, n)
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn unary(op: UnOp, a: &[f32], out: &mut [f32]) {
        unary_impl(op, a, out)
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn binary(op: BinOp, a: &[f32], b: &[f32], out: &mut [f32]) {
        binary_impl(op, a, b, out)
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn binary_scalar(op: BinOp, a: &[f32], s: f32, out: &mut [f32]) {
        binary_scalar_impl(op, a, s, out)
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn exp_sub(a: &[f32], max: f32, out: &mut [f32]) {
        exp_sub_impl(a, max, out)
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn div_inplace(buf: &mut [f32], s: f32) {
        div_inplace_impl(buf, s)
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn gru_gates(gi: &[f32], gh: &[f32], h: &[f32], out: &mut [f32]) {
        gru_gates_impl(gi, gh, h, out)
    }

    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn layernorm_affine(
        a: &[f32],
        gamma: &[f32],
        beta: &[f32],
        out: &mut [f32],
        mean: f32,
        inv: f32,
    ) {
        layernorm_affine_impl(a, gamma, beta, out, mean, inv)
    }
}

// ----------------------------------------------------------------------
// Dispatched public API.
// ----------------------------------------------------------------------

macro_rules! dispatch {
    ($wide:expr, $fallback:expr) => {
        match active() {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2Fma => unsafe { $wide },
            _ => $fallback,
        }
    };
}

/// Fused-multiply-add dot product; bit-identical across backends.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    dispatch!(wide::dot(a, b), dot_impl(a, b))
}

/// The scalar-backend [`dot`]: the bit-identity reference used by the
/// equivalence proptests regardless of the dispatched backend.
#[inline]
pub fn dot_scalar_ref(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    dot_impl(a, b)
}

/// The fused scan under every `score_topk*`: `sink(query, first_row,
/// scores, n)` for each tile of `n ≤` [`TILE_ROWS`] rows of
/// `table[rows]` (row-major `[c, d]`, read in place) and each of the
/// `nq` queries of `queries` (`[nq, d]` row-major), tiles ascending,
/// queries ascending within a tile; lanes of `scores` past `n` repeat
/// lane `n - 1` (see `score_tiles_impl`). Bit-identical across backends
/// and to [`dot`].
#[inline]
pub fn score_tiles(
    table: &[f32],
    d: usize,
    queries: &[f32],
    nq: usize,
    rows: Range<usize>,
    mut sink: impl FnMut(usize, usize, [f32; TILE_ROWS], usize),
) {
    dispatch!(
        wide::score_tiles(table, d, queries, nq, rows, &mut sink),
        score_tiles_impl(table, d, queries, nq, rows, &mut sink)
    )
}

/// Streaming row scores: `sink(i, row_i · query)` for every row of
/// `table[rows]` in ascending order — the one-query [`score_tiles`].
#[inline]
pub fn score_rows(
    table: &[f32],
    d: usize,
    query: &[f32],
    rows: Range<usize>,
    mut sink: impl FnMut(usize, f32),
) {
    debug_assert_eq!(query.len(), d);
    score_tiles(table, d, query, 1, rows, |_, i, scores, n| {
        for (j, &s) in scores[..n].iter().enumerate() {
            sink(i + j, s);
        }
    })
}

/// Streaming int8 row scores (raw `Σ row·q` as an exact-integer f32);
/// callers must guard `d <= Q8_EXACT_DIM` (checked here in debug).
#[inline]
pub fn score_rows_q8(
    data: &[i8],
    d: usize,
    q: &[i32],
    rows: Range<usize>,
    mut sink: impl FnMut(usize, f32),
) {
    debug_assert!(d <= Q8_EXACT_DIM);
    debug_assert_eq!(q.len(), d);
    dispatch!(
        wide::score_rows_q8(data, d, q, rows, &mut sink),
        score_rows_q8_impl(data, d, q, rows, &mut sink)
    )
}

/// `out[m,n] = a[m,k] · b_t[n,k]^T`, 4-row register tiled.
#[inline]
pub fn matmul_bt(a: &[f32], b_t: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    dispatch!(
        wide::matmul_bt(a, b_t, out, m, k, n),
        matmul_bt_impl(a, b_t, out, m, k, n)
    )
}

/// `out[m,n] = a[m,k] · b[k,n]` for `n > 1` (column gathers); `n == 1`
/// is routed through [`score_rows`] by the caller.
#[inline]
pub fn matmul_strided(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    dispatch!(
        wide::matmul_strided(a, b, out, m, k, n),
        matmul_strided_impl(a, b, out, m, k, n)
    )
}

/// Vectorized elementwise unary map (same scalar functions as
/// `UnOp::apply`, so results are backend-independent).
#[inline]
pub fn unary(op: UnOp, a: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), out.len());
    dispatch!(wide::unary(op, a, out), unary_impl(op, a, out))
}

/// Vectorized elementwise binary map.
#[inline]
pub fn binary(op: BinOp, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len());
    dispatch!(wide::binary(op, a, b, out), binary_impl(op, a, b, out))
}

/// Vectorized elementwise op against a broadcast scalar.
#[inline]
pub fn binary_scalar(op: BinOp, a: &[f32], s: f32, out: &mut [f32]) {
    debug_assert_eq!(a.len(), out.len());
    dispatch!(
        wide::binary_scalar(op, a, s, out),
        binary_scalar_impl(op, a, s, out)
    )
}

/// `out[i] = exp(a[i] - max)`: the softmax numerator pass.
#[inline]
pub fn exp_sub(a: &[f32], max: f32, out: &mut [f32]) {
    debug_assert_eq!(a.len(), out.len());
    dispatch!(wide::exp_sub(a, max, out), exp_sub_impl(a, max, out))
}

/// In-place division by a scalar: the softmax normalisation pass.
#[inline]
pub fn div_inplace(buf: &mut [f32], s: f32) {
    dispatch!(wide::div_inplace(buf, s), div_inplace_impl(buf, s))
}

/// The GRU cell's gate pass: `out` (`h` floats) from the `3h`-float
/// gate pre-activations `gi`, `gh` and the previous state `h` (see
/// `gru_gates_impl`); bit-identical across backends and to the
/// per-unit scalar formula.
#[inline]
pub fn gru_gates(gi: &[f32], gh: &[f32], h: &[f32], out: &mut [f32]) {
    debug_assert_eq!(gi.len(), 3 * out.len());
    debug_assert_eq!(gh.len(), 3 * out.len());
    debug_assert_eq!(h.len(), out.len());
    dispatch!(
        wide::gru_gates(gi, gh, h, out),
        gru_gates_impl(gi, gh, h, out)
    )
}

/// The layernorm affine pass (normalise + scale + shift).
#[inline]
pub fn layernorm_affine(
    a: &[f32],
    gamma: &[f32],
    beta: &[f32],
    out: &mut [f32],
    mean: f32,
    inv: f32,
) {
    debug_assert_eq!(a.len(), out.len());
    dispatch!(
        wide::layernorm_affine(a, gamma, beta, out, mean, inv),
        layernorm_affine_impl(a, gamma, beta, out, mean, inv)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ulp_diff(a: f32, b: f32) -> u32 {
        if a == b {
            return 0;
        }
        let (ia, ib) = (a.to_bits() as i64, b.to_bits() as i64);
        // Map the sign-magnitude bit patterns onto a monotonic line.
        let fix = |i: i64| if i < 0 { i64::MIN - i } else { i };
        fix(ia).abs_diff(fix(ib)).min(u32::MAX as u64) as u32
    }

    #[test]
    fn detection_reports_consistent_metadata() {
        let isa = active();
        assert_eq!(isa.name(), isa_name());
        assert_eq!(isa.lanes(), lane_width());
        assert!(isa.lanes() == 1 || isa.lanes() == LANES);
    }

    #[test]
    fn dispatched_dot_is_bit_identical_to_scalar_ref() {
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 100] {
            let a: Vec<f32> = (0..len).map(|i| (i as f32 * 0.37).sin()).collect();
            let b: Vec<f32> = (0..len).map(|i| (i as f32 * 0.91).cos()).collect();
            assert_eq!(
                dot(&a, &b).to_bits(),
                dot_scalar_ref(&a, &b).to_bits(),
                "len={len}"
            );
        }
    }

    #[test]
    fn dot_matches_naive_sum_closely() {
        let a: Vec<f32> = (0..37).map(|i| (i as f32) * 0.11 - 2.0).collect();
        let b: Vec<f32> = (0..37).map(|i| 1.5 - (i as f32) * 0.07).collect();
        let naive: f64 = a.iter().zip(&b).map(|(&x, &y)| x as f64 * y as f64).sum();
        assert!((dot(&a, &b) as f64 - naive).abs() < 1e-4);
    }

    #[test]
    fn score_rows_visits_rows_in_order_and_matches_dot() {
        let d = 13;
        let c = 11;
        let table: Vec<f32> = (0..c * d).map(|i| ((i * 31 % 17) as f32) - 8.0).collect();
        let q: Vec<f32> = (0..d).map(|i| (i as f32) * 0.3 - 1.0).collect();
        let mut seen = Vec::new();
        score_rows(&table, d, &q, 0..c, |i, s| seen.push((i, s)));
        assert_eq!(seen.len(), c);
        for (pos, &(i, s)) in seen.iter().enumerate() {
            assert_eq!(i, pos);
            assert_eq!(s.to_bits(), dot(&table[i * d..(i + 1) * d], &q).to_bits());
        }
    }

    #[test]
    fn q8_scan_equals_i32_reference_exactly() {
        let d = 67;
        let c = 9;
        let data: Vec<i8> = (0..c * d).map(|i| ((i * 37) % 255) as i8).collect();
        let q: Vec<i32> = (0..d).map(|i| (i as i32 * 13 % 255) - 127).collect();
        let mut got = vec![0.0f32; c];
        score_rows_q8(&data, d, &q, 0..c, |i, s| got[i] = s);
        for i in 0..c {
            let acc: i32 = data[i * d..(i + 1) * d]
                .iter()
                .zip(&q)
                .map(|(&x, &y)| x as i32 * y)
                .sum();
            assert_eq!(got[i], acc as f32, "row {i}");
        }
    }

    #[test]
    fn exp_poly_stays_within_4_ulp_of_std() {
        for i in -800..=800 {
            let x = i as f32 * 0.1;
            let (got, want) = (exp_f32(x), x.exp());
            assert!(ulp_diff(got, want) <= 4, "exp({x}): {got} vs {want}");
        }
    }

    #[test]
    fn transcendentals_hit_exact_anchor_points() {
        assert_eq!(exp_f32(0.0), 1.0);
        assert_eq!(sigmoid_f32(0.0), 0.5);
        assert_eq!(tanh_f32(0.0), 0.0);
        assert_eq!(gelu_f32(0.0), 0.0);
        assert!((tanh_f32(100.0) - 1.0).abs() < 1e-6);
        assert!((tanh_f32(-100.0) + 1.0).abs() < 1e-6);
        assert!(sigmoid_f32(40.0) <= 1.0 && sigmoid_f32(-40.0) >= 0.0);
    }

    #[test]
    fn strided_matmul_equals_contiguous_dot_order() {
        let (m, k, n) = (3usize, 21usize, 5usize);
        let a: Vec<f32> = (0..m * k).map(|i| (i as f32 * 0.13).sin()).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i as f32 * 0.29).cos()).collect();
        let mut out = vec![0.0f32; m * n];
        matmul_strided(&a, &b, &mut out, m, k, n);
        for i in 0..m {
            for j in 0..n {
                let col: Vec<f32> = (0..k).map(|p| b[p * n + j]).collect();
                let want = dot(&a[i * k..(i + 1) * k], &col);
                assert_eq!(out[i * n + j].to_bits(), want.to_bits(), "({i},{j})");
            }
        }
    }
}
