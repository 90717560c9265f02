//! Raw computational kernels on `f32` slices.
//!
//! These functions implement the arithmetic shared by eager execution
//! ([`crate::exec::Exec`]) and compiled-graph execution
//! ([`crate::jit::CompiledGraph`]). They are deliberately straightforward
//! loops: the reproduction models *framework* behaviour (eager dispatch vs
//! JIT fusion, CPU vs accelerator rooflines), not hand-tuned BLAS.
//! Shape checking happens in the callers; kernels assume consistent sizes.

/// The pre-SIMD 8-accumulator reduction, kept (as [`dot_autovec`]) as
/// the *scalar baseline* for the `parallel_mips` bench: it is what the
/// autovectorizer produces against the x86-64 baseline ISA (SSE2, no
/// FMA), i.e. the kernel the explicit [`crate::simd`] layer replaces.
#[inline(always)]
fn dot_gather(a: &[f32], fetch: impl Fn(usize) -> f32) -> f32 {
    let len = a.len();
    let mut acc = [0.0f32; 8];
    let mut p = 0;
    while p + 8 <= len {
        acc[0] += a[p] * fetch(p);
        acc[1] += a[p + 1] * fetch(p + 1);
        acc[2] += a[p + 2] * fetch(p + 2);
        acc[3] += a[p + 3] * fetch(p + 3);
        acc[4] += a[p + 4] * fetch(p + 4);
        acc[5] += a[p + 5] * fetch(p + 5);
        acc[6] += a[p + 6] * fetch(p + 6);
        acc[7] += a[p + 7] * fetch(p + 7);
        p += 8;
    }
    let mut tail = 0.0f32;
    while p < len {
        tail += a[p] * fetch(p);
        p += 1;
    }
    let lo = (acc[0] + acc[4]) + (acc[1] + acc[5]);
    let hi = (acc[2] + acc[6]) + (acc[3] + acc[7]);
    (lo + hi) + tail
}

/// `out[m*n] = a[m*k] * b[k*n]` (row-major).
///
/// Every matmul variant reduces through the same
/// [`crate::simd`] block core, so `matmul`, [`matmul_bt`] and [`dot`]
/// produce **bit-identical** sums for a given `(row, column)` pair. For
/// `n == 1` — the full-catalog MIPS shape `[C,d] x [d,1]` — the column
/// is contiguous and this is the 4-row-tiled streaming scan; `n > 1`
/// gathers the strided columns into blocks.
pub fn matmul(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if n == 1 {
        crate::simd::score_rows(a, k, b, 0..m, |i, s| out[i] = s);
    } else {
        crate::simd::matmul_strided(a, b, out, m, k, n);
    }
}

/// `out[m*n] = a[m*k] * b^T` where `b` is stored as `[n, k]` (row-major).
///
/// This layout is the JIT weight pre-transposition target: dot products
/// walk both operands contiguously, register-tiled four rows at a time.
pub fn matmul_bt(a: &[f32], b_t: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b_t.len(), n * k);
    debug_assert_eq!(out.len(), m * n);
    crate::simd::matmul_bt(a, b_t, out, m, k, n);
}

/// Dot product of two equally sized slices (explicit-SIMD, FMA).
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    crate::simd::dot(a, b)
}

/// The pre-SIMD autovectorized dot kernel (no FMA, baseline ISA): the
/// "scalar" baseline the `parallel_mips` bench sweeps against.
#[inline]
pub fn dot_autovec(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    dot_gather(a, |p| b[p])
}

/// `out[n*m] = a^T` for `a: [m, n]`.
pub fn transpose(a: &[f32], out: &mut [f32], m: usize, n: usize) {
    debug_assert_eq!(a.len(), m * n);
    debug_assert_eq!(out.len(), m * n);
    for i in 0..m {
        for j in 0..n {
            out[j * m + i] = a[i * n + j];
        }
    }
}

/// Elementwise binary operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a * b`
    Mul,
    /// `a / b`
    Div,
    /// `max(a, b)`
    Max,
}

impl BinOp {
    /// Applies the operation to a pair of scalars.
    #[inline]
    pub fn apply(self, a: f32, b: f32) -> f32 {
        match self {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => a / b,
            BinOp::Max => a.max(b),
        }
    }

    /// Stable name for diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Max => "max",
        }
    }
}

/// Elementwise unary operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Rectified linear unit.
    Relu,
    /// Gaussian error linear unit (tanh approximation).
    Gelu,
    /// Natural exponential.
    Exp,
    /// Negation.
    Neg,
    /// Square root.
    Sqrt,
    /// Reciprocal.
    Recip,
}

impl UnOp {
    /// Applies the operation to a scalar.
    ///
    /// Transcendentals delegate to the shared [`crate::simd`] polynomial
    /// implementations, so this scalar path (used by JIT elementwise
    /// fusion) is bit-identical to the vectorized [`unary`] kernel.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            UnOp::Sigmoid => crate::simd::sigmoid_f32(x),
            UnOp::Tanh => crate::simd::tanh_f32(x),
            UnOp::Relu => x.max(0.0),
            UnOp::Gelu => crate::simd::gelu_f32(x),
            UnOp::Exp => crate::simd::exp_f32(x),
            UnOp::Neg => -x,
            UnOp::Sqrt => x.sqrt(),
            UnOp::Recip => 1.0 / x,
        }
    }

    /// Stable name for diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            UnOp::Sigmoid => "sigmoid",
            UnOp::Tanh => "tanh",
            UnOp::Relu => "relu",
            UnOp::Gelu => "gelu",
            UnOp::Exp => "exp",
            UnOp::Neg => "neg",
            UnOp::Sqrt => "sqrt",
            UnOp::Recip => "recip",
        }
    }
}

/// `out = op(a, b)` elementwise over equally sized slices (vectorized).
pub fn binary(op: BinOp, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len());
    crate::simd::binary(op, a, b, out);
}

/// `out[i*n + j] = op(a[i*n + j], row[j])`: broadcast `row` over rows of `a`.
pub fn binary_rowbcast(op: BinOp, a: &[f32], row: &[f32], out: &mut [f32]) {
    let n = row.len();
    debug_assert_eq!(a.len(), out.len());
    debug_assert!(n > 0 && a.len().is_multiple_of(n));
    for (orow, arow) in out.chunks_mut(n).zip(a.chunks(n)) {
        crate::simd::binary(op, arow, row, orow);
    }
}

/// `out = op(a, scalar)` elementwise (vectorized).
pub fn binary_scalar(op: BinOp, a: &[f32], scalar: f32, out: &mut [f32]) {
    debug_assert_eq!(a.len(), out.len());
    crate::simd::binary_scalar(op, a, scalar, out);
}

/// `out = op(a)` elementwise (vectorized; bit-identical to per-element
/// [`UnOp::apply`] — both use the shared [`crate::simd`] scalar math).
pub fn unary(op: UnOp, a: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), out.len());
    crate::simd::unary(op, a, out);
}

/// Numerically stable softmax over each row of an `[m, n]` matrix.
///
/// The max and sum passes stay sequential (deterministic regardless of
/// backend); the exponential pass — the dominant cost — runs on the
/// vectorized polynomial `exp`. The sequential `sum += e` matches the
/// seed kernel's accumulation order exactly.
pub fn softmax_rows(a: &[f32], out: &mut [f32], n: usize) {
    debug_assert_eq!(a.len(), out.len());
    debug_assert!(n > 0 && a.len().is_multiple_of(n));
    for (orow, arow) in out.chunks_mut(n).zip(a.chunks(n)) {
        let max = arow.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        crate::simd::exp_sub(arow, max, orow);
        let mut sum = 0.0f32;
        for &e in orow.iter() {
            sum += e;
        }
        if sum > 0.0 {
            crate::simd::div_inplace(orow, sum);
        }
    }
}

/// Layer normalisation over each row of an `[m, n]` matrix with affine
/// parameters `gamma`, `beta` of length `n`. The mean/variance passes
/// stay sequential; the affine pass is vectorized with per-element
/// arithmetic identical to the seed kernel (bit-identical output).
pub fn layernorm_rows(a: &[f32], gamma: &[f32], beta: &[f32], out: &mut [f32], n: usize, eps: f32) {
    debug_assert_eq!(a.len(), out.len());
    debug_assert_eq!(gamma.len(), n);
    debug_assert_eq!(beta.len(), n);
    for (orow, arow) in out.chunks_mut(n).zip(a.chunks(n)) {
        let mean = arow.iter().sum::<f32>() / n as f32;
        let var = arow.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        let inv = 1.0 / (var + eps).sqrt();
        crate::simd::layernorm_affine(arow, gamma, beta, orow, mean, inv);
    }
}

/// Embedding lookup: `out[i] = table[ids[i]]` with bit-cast ids.
///
/// `table` is `[c, d]` row-major; `ids` holds `l` bit-cast `u32` ids;
/// `out` is `[l, d]`.
pub fn embedding(table: &[f32], ids: &[f32], out: &mut [f32], d: usize) {
    debug_assert_eq!(out.len(), ids.len() * d);
    for (row, &idf) in out.chunks_mut(d).zip(ids) {
        let id = crate::f32_to_id(idf) as usize;
        let src = &table[id * d..(id + 1) * d];
        row.copy_from_slice(src);
    }
}

/// Sum of the rows of an `[m, n]` matrix into a length-`n` vector.
pub fn sum_rows(a: &[f32], out: &mut [f32], n: usize) {
    debug_assert!(n > 0 && a.len().is_multiple_of(n));
    debug_assert_eq!(out.len(), n);
    out.fill(0.0);
    for row in a.chunks(n) {
        for (o, &x) in out.iter_mut().zip(row) {
            *o += x;
        }
    }
}

/// Floats of scratch [`gru_cell`] needs per hidden unit: the input and
/// the hidden gate pre-activations, three per unit each.
pub const GRU_SCRATCH_PER_UNIT: usize = 6;

/// A single GRU cell step.
///
/// Gate layout follows PyTorch: `w_ih: [3h, in]`, `w_hh: [3h, h]`,
/// `b_ih`, `b_hh: [3h]` with gates ordered reset (r), update (z), new (n):
///
/// ```text
/// r = sigmoid(W_ir x + b_ir + W_hr h + b_hr)
/// z = sigmoid(W_iz x + b_iz + W_hz h + b_hz)
/// n = tanh(W_in x + b_in + r * (W_hn h + b_hn))
/// h' = (1 - z) * n + z * h
/// ```
///
/// Each weight matrix's `3h` gate rows are scored against their one
/// query (`x`, `h`) on the catalog scan's 4-row tile
/// ([`crate::simd::score_rows`]), every row bit-identical to [`dot`];
/// the gates then run as one vector pass ([`crate::simd::gru_gates`]).
/// `scratch` holds the `6h` pre-activations
/// ([`GRU_SCRATCH_PER_UNIT`]` · hidden` floats).
#[allow(clippy::too_many_arguments)]
pub fn gru_cell(
    x: &[f32],
    h: &[f32],
    w_ih: &[f32],
    w_hh: &[f32],
    b_ih: &[f32],
    b_hh: &[f32],
    out: &mut [f32],
    hidden: usize,
    input: usize,
    scratch: &mut [f32],
) {
    debug_assert_eq!(x.len(), input);
    debug_assert_eq!(h.len(), hidden);
    debug_assert_eq!(w_ih.len(), 3 * hidden * input);
    debug_assert_eq!(w_hh.len(), 3 * hidden * hidden);
    debug_assert_eq!(b_ih.len(), 3 * hidden);
    debug_assert_eq!(b_hh.len(), 3 * hidden);
    debug_assert_eq!(out.len(), hidden);
    let (gi, rest) = scratch.split_at_mut(3 * hidden);
    let gh = &mut rest[..3 * hidden];
    crate::simd::score_rows(w_ih, input, x, 0..3 * hidden, |i, s| gi[i] = s + b_ih[i]);
    crate::simd::score_rows(w_hh, hidden, h, 0..3 * hidden, |i, s| gh[i] = s + b_hh[i]);
    crate::simd::gru_gates(gi, gh, h, out);
}

/// Scatter-add of `vals` at bit-cast `ids` into a dense length-`c` vector.
///
/// This is the kernel behind the RepeatNet RecBole quirk: a handful of
/// session scores are materialised into (and subsequently processed as) a
/// full catalog-wide dense vector.
pub fn scatter_add_dense(ids: &[f32], vals: &[f32], out: &mut [f32]) {
    debug_assert_eq!(ids.len(), vals.len());
    out.fill(0.0);
    for (&idf, &v) in ids.iter().zip(vals) {
        let id = crate::f32_to_id(idf) as usize;
        if id < out.len() {
            out[id] += v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() <= tol, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn matmul_matches_hand_computed() {
        // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        let mut out = [0.0; 4];
        matmul(&a, &b, &mut out, 2, 2, 2);
        assert_close(&out, &[19.0, 22.0, 43.0, 50.0], 1e-6);
    }

    #[test]
    fn matmul_bt_equals_matmul_with_transpose() {
        let m = 3;
        let k = 4;
        let n = 5;
        let a: Vec<f32> = (0..m * k).map(|i| (i as f32) * 0.3 - 1.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i as f32) * 0.1 - 0.7).collect();
        let mut expected = vec![0.0; m * n];
        matmul(&a, &b, &mut expected, m, k, n);
        let mut bt = vec![0.0; k * n];
        transpose(&b, &mut bt, k, n);
        let mut got = vec![0.0; m * n];
        matmul_bt(&a, &bt, &mut got, m, k, n);
        assert_close(&got, &expected, 1e-5);
    }

    #[test]
    fn transpose_involutes() {
        let a: Vec<f32> = (0..6).map(|i| i as f32).collect();
        let mut t = vec![0.0; 6];
        transpose(&a, &mut t, 2, 3);
        let mut tt = vec![0.0; 6];
        transpose(&t, &mut tt, 3, 2);
        assert_close(&tt, &a, 0.0);
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order_preserving() {
        let a = [1.0, 2.0, 3.0, -1.0, 0.0, 1.0];
        let mut out = [0.0; 6];
        softmax_rows(&a, &mut out, 3);
        for row in out.chunks(3) {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
            assert!(row[0] < row[1] && row[1] < row[2]);
        }
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let a = [1000.0, 1001.0];
        let mut out = [0.0; 2];
        softmax_rows(&a, &mut out, 2);
        assert!(out.iter().all(|x| x.is_finite()));
        assert!((out.iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn layernorm_produces_zero_mean_unit_variance() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let gamma = [1.0; 4];
        let beta = [0.0; 4];
        let mut out = [0.0; 4];
        layernorm_rows(&a, &gamma, &beta, &mut out, 4, 1e-5);
        let mean: f32 = out.iter().sum::<f32>() / 4.0;
        let var: f32 = out.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn embedding_gathers_rows() {
        let table = [0.0, 0.1, 1.0, 1.1, 2.0, 2.1]; // 3 items, d = 2
        let ids = [crate::id_to_f32(2), crate::id_to_f32(0)];
        let mut out = [0.0; 4];
        embedding(&table, &ids, &mut out, 2);
        assert_close(&out, &[2.0, 2.1, 0.0, 0.1], 0.0);
    }

    #[test]
    fn gru_cell_respects_gating_extremes() {
        // With weights at zero and b_ih update-gate bias very negative,
        // z ~= 0 so h' ~= tanh(b_in).
        let hidden = 2;
        let input = 2;
        let x = [0.5, -0.5];
        let h = [0.9, -0.9];
        let w_ih = vec![0.0; 3 * hidden * input];
        let w_hh = vec![0.0; 3 * hidden * hidden];
        let mut b_ih = vec![0.0; 3 * hidden];
        let b_hh = vec![0.0; 3 * hidden];
        b_ih[hidden] = -100.0; // z gate bias for unit 0
        b_ih[hidden + 1] = -100.0;
        b_ih[2 * hidden] = 0.7; // n gate bias
        let mut out = [0.0; 2];
        let mut scratch = [0.0; GRU_SCRATCH_PER_UNIT * 2];
        gru_cell(
            &x,
            &h,
            &w_ih,
            &w_hh,
            &b_ih,
            &b_hh,
            &mut out,
            hidden,
            input,
            &mut scratch,
        );
        assert!((out[0] - 0.7f32.tanh()).abs() < 1e-4);
        assert!((out[1] - 0.0).abs() < 1e-4);
    }

    #[test]
    fn gru_cell_with_saturated_update_gate_keeps_state() {
        let hidden = 1;
        let input = 1;
        let x = [3.0];
        let h = [0.42];
        let w_ih = vec![0.0; 3];
        let w_hh = vec![0.0; 3];
        let mut b_ih = vec![0.0; 3];
        b_ih[1] = 100.0; // z ~= 1 keeps previous hidden state
        let b_hh = vec![0.0; 3];
        let mut out = [0.0];
        let mut scratch = [0.0; GRU_SCRATCH_PER_UNIT];
        gru_cell(
            &x,
            &h,
            &w_ih,
            &w_hh,
            &b_ih,
            &b_hh,
            &mut out,
            hidden,
            input,
            &mut scratch,
        );
        assert!((out[0] - 0.42).abs() < 1e-5);
    }

    #[test]
    fn scatter_add_accumulates_duplicates() {
        let ids = [
            crate::id_to_f32(1),
            crate::id_to_f32(1),
            crate::id_to_f32(3),
        ];
        let vals = [0.5, 0.25, 1.0];
        let mut out = vec![9.0; 5];
        scatter_add_dense(&ids, &vals, &mut out);
        assert_close(&out, &[0.0, 0.75, 0.0, 1.0, 0.0], 1e-6);
    }

    #[test]
    fn binary_ops_elementwise() {
        let a = [1.0, 4.0, -2.0];
        let b = [2.0, 2.0, 2.0];
        let mut out = [0.0; 3];
        binary(BinOp::Div, &a, &b, &mut out);
        assert_close(&out, &[0.5, 2.0, -1.0], 1e-6);
        binary(BinOp::Max, &a, &b, &mut out);
        assert_close(&out, &[2.0, 4.0, 2.0], 1e-6);
    }

    #[test]
    fn rowbcast_applies_per_row() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let row = [10.0, 20.0];
        let mut out = [0.0; 4];
        binary_rowbcast(BinOp::Add, &a, &row, &mut out);
        assert_close(&out, &[11.0, 22.0, 13.0, 24.0], 1e-6);
    }

    #[test]
    fn unary_gelu_and_sigmoid_bounds() {
        let xs = [-5.0, -1.0, 0.0, 1.0, 5.0];
        let mut out = [0.0; 5];
        unary(UnOp::Sigmoid, &xs, &mut out);
        assert!(out.iter().all(|&y| (0.0..=1.0).contains(&y)));
        assert!((out[2] - 0.5).abs() < 1e-6);
        unary(UnOp::Gelu, &xs, &mut out);
        assert!(out[2].abs() < 1e-6);
        assert!((out[4] - 5.0).abs() < 1e-2); // gelu(x) -> x for large x
    }

    #[test]
    fn sum_rows_reduces_axis_zero() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let mut out = [0.0; 2];
        sum_rows(&a, &mut out, 2);
        assert_close(&out, &[9.0, 12.0], 1e-6);
    }
}
