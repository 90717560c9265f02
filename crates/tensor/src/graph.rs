//! Dataflow graph IR: captured by tracing, optimised by [`crate::jit`],
//! executed by [`Graph::run`].
//!
//! A graph is a topologically ordered list of [`Node`]s. Each node carries
//! its operator, operand node ids, inferred output shape and a
//! batch-parametric [`CostSpec`]. Because SBR inference is shape-static
//! (sessions are padded to a fixed maximum length, as RecBole does), a
//! traced graph is reusable across requests, and its *total cost spec* can
//! be evaluated without walking the graph — which is what lets the
//! discrete-event serving simulation price millions of requests cheaply.

use crate::cost::{Cost, CostSpec};
use crate::kernels::{self, BinOp, UnOp};
use crate::param::ParamId;
use crate::tensor::{Tensor, TensorError};
use crate::topk::{self, Ranked, TopkScratch};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

/// Index of a node within its graph.
pub type NodeId = usize;

/// One step of a fused elementwise kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FusedStep {
    /// Apply a unary function.
    Unary(UnOp),
    /// Apply a binary function against a fixed scalar.
    Scalar(BinOp, f32),
}

impl FusedStep {
    /// Applies the step to a scalar lane.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            FusedStep::Unary(u) => u.apply(x),
            FusedStep::Scalar(b, s) => b.apply(x, s),
        }
    }
}

/// Operator kinds of the IR.
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    /// The `i`-th external graph input.
    Input(usize),
    /// A captured model weight.
    Const(ParamId),
    /// `[m,k] x [k,n] -> [m,n]`.
    MatMul,
    /// `[m,k] x [n,k] -> [m,n]` with a pre-transposed right operand.
    MatMulBT,
    /// Elementwise binary over equal shapes.
    Binary(BinOp),
    /// `[m,n] op [n]`: broadcast a row vector over matrix rows.
    BinaryRow(BinOp),
    /// Elementwise binary against a compile-time scalar.
    BinaryScalar(BinOp, f32),
    /// Elementwise unary.
    Unary(UnOp),
    /// Row-wise softmax (rank-1 tensors are one row).
    Softmax,
    /// Row-wise layer normalisation: `(x, gamma, beta)`.
    LayerNorm {
        /// Numerical stabiliser added to the variance.
        eps: f32,
    },
    /// `(table [c,d], ids [l]) -> [l,d]` with bit-cast ids.
    Embedding,
    /// Concatenate along the last dimension.
    Concat,
    /// `[m,n] -> [n,m]`.
    Transpose,
    /// `[m,n] -> [n]`: sum over rows.
    SumRows,
    /// One GRU step: `(x, h, w_ih, w_hh, b_ih, b_hh) -> h'`.
    GruCell,
    /// `(matrix [l,d], idx [1]) -> [d]`: select a row by bit-cast index.
    GatherRow,
    /// `scores [c] -> [2,k]`: row 0 bit-cast indices, row 1 scores.
    TopK {
        /// Number of items to return.
        k: usize,
    },
    /// `(table [c,d], s [d]) -> [2,k]`: fused MIPS decode — scores all
    /// `c` catalog rows against `s` and maintains the running top-k in
    /// one streaming SIMD pass (row 0 bit-cast indices, row 1 scores).
    /// Unlike `MatMul` + `TopK`, the `[c]` score vector is never
    /// materialised, halving memory traffic on large catalogs.
    ScoreTopK {
        /// Number of items to return.
        k: usize,
    },
    /// `(ids [l], vals [l]) -> [c]`: dense scatter-add into a full-catalog
    /// vector (the RepeatNet RecBole quirk).
    ScatterAddDense {
        /// Catalog size.
        c: usize,
    },
    /// Identity executed on the *host*: on GPU devices this forces a
    /// device-to-host-and-back round-trip (the SR-GNN / GC-SAN quirk,
    /// where NumPy code runs inside the inference path).
    HostOp,
    /// View with a new shape (free).
    Reshape(Vec<usize>),
    /// `[m,n] -> [m, end-start]`: contiguous column slice.
    SliceCols {
        /// First column (inclusive).
        start: usize,
        /// Last column (exclusive).
        end: usize,
    },
    /// `[m,n] -> [end-start, n]`: contiguous row slice.
    SliceRows {
        /// First row (inclusive).
        start: usize,
        /// Last row (exclusive).
        end: usize,
    },
    /// `(ids [l], mask [l]) -> [l,l]`: row-normalised session-graph
    /// adjacency over consecutive interactions (SR-GNN / GC-SAN).
    ///
    /// With `host: true` the construction runs on the host — the RecBole
    /// quirk where NumPy code sits inside the inference path, forcing
    /// device-to-host round-trips on GPUs.
    SessionGraph {
        /// Outgoing (`true`) or incoming (`false`) edges.
        outgoing: bool,
        /// Whether the op executes on the host (quirk enabled).
        host: bool,
    },
    /// `ids [l] -> [l,c]`: dense one-hot rows over the full catalog — the
    /// RepeatNet RecBole quirk (sparse structure materialised densely).
    OneHotRows {
        /// Catalog size.
        c: usize,
    },
    /// JIT-fused elementwise chain (optionally seeded by a binary op over
    /// two inputs, then a pipeline of scalar steps).
    Fused {
        /// Optional leading binary combine of two operands.
        seed: Option<BinOp>,
        /// Elementwise pipeline applied after the seed (or to the single
        /// operand when there is no seed).
        steps: Vec<FusedStep>,
    },
}

impl OpKind {
    /// Human-readable operator name for diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            OpKind::Input(_) => "input",
            OpKind::Const(_) => "const",
            OpKind::MatMul => "matmul",
            OpKind::MatMulBT => "matmul_bt",
            OpKind::Binary(_) => "binary",
            OpKind::BinaryRow(_) => "binary_row",
            OpKind::BinaryScalar(..) => "binary_scalar",
            OpKind::Unary(_) => "unary",
            OpKind::Softmax => "softmax",
            OpKind::LayerNorm { .. } => "layernorm",
            OpKind::Embedding => "embedding",
            OpKind::Concat => "concat",
            OpKind::Transpose => "transpose",
            OpKind::SumRows => "sum_rows",
            OpKind::GruCell => "gru_cell",
            OpKind::GatherRow => "gather_row",
            OpKind::TopK { .. } => "topk",
            OpKind::ScoreTopK { .. } => "score_topk",
            OpKind::ScatterAddDense { .. } => "scatter_add_dense",
            OpKind::HostOp => "host_op",
            OpKind::Reshape(_) => "reshape",
            OpKind::SliceCols { .. } => "slice_cols",
            OpKind::SliceRows { .. } => "slice_rows",
            OpKind::SessionGraph { .. } => "session_graph",
            OpKind::OneHotRows { .. } => "one_hot_rows",
            OpKind::Fused { .. } => "fused",
        }
    }

    /// Whether the op is a pure elementwise map (fusion candidate).
    pub fn is_elementwise(&self) -> bool {
        matches!(
            self,
            OpKind::Unary(_) | OpKind::BinaryScalar(..) | OpKind::Binary(_)
        )
    }
}

/// Infers the output shape of `kind` applied to operands of `shapes`.
pub fn infer_shape(kind: &OpKind, shapes: &[&[usize]]) -> Result<Vec<usize>, TensorError> {
    let need = |n: usize| -> Result<(), TensorError> {
        if shapes.len() != n {
            return Err(TensorError::Invalid("wrong operand count"));
        }
        Ok(())
    };
    match kind {
        OpKind::Input(_) | OpKind::Const(_) => Err(TensorError::Invalid(
            "input/const shapes are set at creation",
        )),
        OpKind::MatMul => {
            need(2)?;
            let (a, b) = (shapes[0], shapes[1]);
            if a.len() != 2 || b.len() != 2 || a[1] != b[0] {
                return Err(TensorError::ShapeMismatch {
                    op: "matmul",
                    lhs: a.to_vec(),
                    rhs: b.to_vec(),
                });
            }
            Ok(vec![a[0], b[1]])
        }
        OpKind::MatMulBT => {
            need(2)?;
            let (a, b) = (shapes[0], shapes[1]);
            if a.len() != 2 || b.len() != 2 || a[1] != b[1] {
                return Err(TensorError::ShapeMismatch {
                    op: "matmul_bt",
                    lhs: a.to_vec(),
                    rhs: b.to_vec(),
                });
            }
            Ok(vec![a[0], b[0]])
        }
        OpKind::Binary(op) => {
            need(2)?;
            if shapes[0] != shapes[1] {
                return Err(TensorError::ShapeMismatch {
                    op: op.name(),
                    lhs: shapes[0].to_vec(),
                    rhs: shapes[1].to_vec(),
                });
            }
            Ok(shapes[0].to_vec())
        }
        OpKind::BinaryRow(op) => {
            need(2)?;
            let (a, r) = (shapes[0], shapes[1]);
            let n = *a.last().unwrap_or(&0);
            if r.len() != 1 || r[0] != n {
                return Err(TensorError::ShapeMismatch {
                    op: op.name(),
                    lhs: a.to_vec(),
                    rhs: r.to_vec(),
                });
            }
            Ok(a.to_vec())
        }
        OpKind::BinaryScalar(..) | OpKind::Unary(_) | OpKind::HostOp => {
            need(1)?;
            Ok(shapes[0].to_vec())
        }
        OpKind::Softmax => {
            need(1)?;
            Ok(shapes[0].to_vec())
        }
        OpKind::LayerNorm { .. } => {
            need(3)?;
            let n = *shapes[0].last().unwrap_or(&0);
            if shapes[1] != [n] || shapes[2] != [n] {
                return Err(TensorError::ShapeMismatch {
                    op: "layernorm",
                    lhs: shapes[0].to_vec(),
                    rhs: shapes[1].to_vec(),
                });
            }
            Ok(shapes[0].to_vec())
        }
        OpKind::Embedding => {
            need(2)?;
            let (t, ids) = (shapes[0], shapes[1]);
            if t.len() != 2 || ids.len() != 1 {
                return Err(TensorError::ShapeMismatch {
                    op: "embedding",
                    lhs: t.to_vec(),
                    rhs: ids.to_vec(),
                });
            }
            Ok(vec![ids[0], t[1]])
        }
        OpKind::Concat => {
            need(2)?;
            let (a, b) = (shapes[0], shapes[1]);
            match (a.len(), b.len()) {
                (1, 1) => Ok(vec![a[0] + b[0]]),
                (2, 2) if a[0] == b[0] => Ok(vec![a[0], a[1] + b[1]]),
                _ => Err(TensorError::ShapeMismatch {
                    op: "concat",
                    lhs: a.to_vec(),
                    rhs: b.to_vec(),
                }),
            }
        }
        OpKind::Transpose => {
            need(1)?;
            let a = shapes[0];
            if a.len() != 2 {
                return Err(TensorError::RankMismatch {
                    op: "transpose",
                    expected: 2,
                    got: a.len(),
                });
            }
            Ok(vec![a[1], a[0]])
        }
        OpKind::SumRows => {
            need(1)?;
            let a = shapes[0];
            if a.len() != 2 {
                return Err(TensorError::RankMismatch {
                    op: "sum_rows",
                    expected: 2,
                    got: a.len(),
                });
            }
            Ok(vec![a[1]])
        }
        OpKind::GruCell => {
            need(6)?;
            let h = shapes[1];
            if h.len() != 1 {
                return Err(TensorError::RankMismatch {
                    op: "gru_cell",
                    expected: 1,
                    got: h.len(),
                });
            }
            Ok(h.to_vec())
        }
        OpKind::GatherRow => {
            need(2)?;
            let m = shapes[0];
            if m.len() != 2 || shapes[1] != [1] {
                return Err(TensorError::ShapeMismatch {
                    op: "gather_row",
                    lhs: m.to_vec(),
                    rhs: shapes[1].to_vec(),
                });
            }
            Ok(vec![m[1]])
        }
        OpKind::TopK { k } => {
            need(1)?;
            let a = shapes[0];
            if a.len() != 1 {
                return Err(TensorError::RankMismatch {
                    op: "topk",
                    expected: 1,
                    got: a.len(),
                });
            }
            Ok(vec![2, (*k).min(a[0])])
        }
        OpKind::ScoreTopK { k } => {
            need(2)?;
            let (t, s) = (shapes[0], shapes[1]);
            if t.len() != 2 || s.len() != 1 || s[0] != t[1] {
                return Err(TensorError::ShapeMismatch {
                    op: "score_topk",
                    lhs: t.to_vec(),
                    rhs: s.to_vec(),
                });
            }
            Ok(vec![2, (*k).min(t[0])])
        }
        OpKind::ScatterAddDense { c } => {
            need(2)?;
            if shapes[0] != shapes[1] || shapes[0].len() != 1 {
                return Err(TensorError::ShapeMismatch {
                    op: "scatter_add_dense",
                    lhs: shapes[0].to_vec(),
                    rhs: shapes[1].to_vec(),
                });
            }
            Ok(vec![*c])
        }
        OpKind::Reshape(shape) => {
            need(1)?;
            let n: usize = shapes[0].iter().product();
            let m: usize = shape.iter().product();
            if n != m {
                return Err(TensorError::ShapeDataMismatch {
                    shape: shape.clone(),
                    data_len: n,
                });
            }
            Ok(shape.clone())
        }
        OpKind::SliceCols { start, end } => {
            need(1)?;
            let a = shapes[0];
            if a.len() != 2 || *end > a[1] || start >= end {
                return Err(TensorError::Invalid("invalid column slice"));
            }
            Ok(vec![a[0], end - start])
        }
        OpKind::SliceRows { start, end } => {
            need(1)?;
            let a = shapes[0];
            if a.len() != 2 || *end > a[0] || start >= end {
                return Err(TensorError::Invalid("invalid row slice"));
            }
            Ok(vec![end - start, a[1]])
        }
        OpKind::SessionGraph { .. } => {
            need(2)?;
            let (ids, mask) = (shapes[0], shapes[1]);
            if ids.len() != 1 || mask != ids {
                return Err(TensorError::ShapeMismatch {
                    op: "session_graph",
                    lhs: ids.to_vec(),
                    rhs: mask.to_vec(),
                });
            }
            Ok(vec![ids[0], ids[0]])
        }
        OpKind::OneHotRows { c } => {
            need(1)?;
            let ids = shapes[0];
            if ids.len() != 1 {
                return Err(TensorError::RankMismatch {
                    op: "one_hot_rows",
                    expected: 1,
                    got: ids.len(),
                });
            }
            Ok(vec![ids[0], *c])
        }
        OpKind::Fused { seed, .. } => {
            if seed.is_some() {
                need(2)?;
                if shapes[0] != shapes[1] {
                    return Err(TensorError::ShapeMismatch {
                        op: "fused",
                        lhs: shapes[0].to_vec(),
                        rhs: shapes[1].to_vec(),
                    });
                }
            } else {
                need(1)?;
            }
            Ok(shapes[0].to_vec())
        }
    }
}

const F32: f64 = 4.0;

/// Computes the batch-parametric cost of `kind`.
///
/// `const_input[i]` marks operands that are captured weights; their memory
/// traffic is *shared* across a request batch (a batched GEMM streams the
/// weight matrix once), while activation traffic is per-item.
pub fn op_cost(
    kind: &OpKind,
    shapes: &[&[usize]],
    const_input: &[bool],
    out_shape: &[usize],
) -> CostSpec {
    let numel = |s: &[usize]| s.iter().product::<usize>() as f64;
    let out_n = numel(out_shape);
    // Split operand read traffic into shared (const) and per-item parts.
    let mut shared = 0.0;
    let mut per_item = out_n * F32; // output write
    for (s, &is_const) in shapes.iter().zip(const_input) {
        let b = numel(s) * F32;
        if is_const {
            shared += b;
        } else {
            per_item += b;
        }
    }
    match kind {
        OpKind::Input(_) | OpKind::Const(_) | OpKind::Reshape(_) => CostSpec::default(),
        OpKind::MatMul | OpKind::MatMulBT => {
            let (m, k) = (shapes[0][0] as f64, shapes[0][1] as f64);
            let n = out_shape[1] as f64;
            CostSpec {
                flops_per_item: 2.0 * m * k * n,
                shared_bytes: shared,
                per_item_bytes: per_item,
                launches: 1,
                ..CostSpec::default()
            }
        }
        OpKind::GruCell => {
            let h = out_shape[0] as f64;
            let i = shapes[0][0] as f64;
            CostSpec {
                flops_per_item: 6.0 * h * i + 6.0 * h * h + 12.0 * h,
                shared_bytes: shared,
                per_item_bytes: per_item,
                launches: 1,
                ..CostSpec::default()
            }
        }
        OpKind::Softmax => CostSpec {
            flops_per_item: 4.0 * out_n,
            shared_bytes: shared,
            per_item_bytes: per_item,
            launches: 1,
            ..CostSpec::default()
        },
        OpKind::LayerNorm { .. } => CostSpec {
            flops_per_item: 8.0 * out_n,
            shared_bytes: shared,
            per_item_bytes: per_item,
            launches: 1,
            ..CostSpec::default()
        },
        OpKind::Embedding => {
            // Only the selected rows are touched, not the whole table.
            let touched = out_n * F32;
            CostSpec {
                flops_per_item: 0.0,
                shared_bytes: 0.0,
                per_item_bytes: touched * 2.0 + numel(shapes[1]) * F32,
                launches: 1,
                ..CostSpec::default()
            }
        }
        OpKind::TopK { .. } => {
            let c = numel(shapes[0]);
            CostSpec {
                flops_per_item: 2.0 * c,
                shared_bytes: 0.0,
                per_item_bytes: c * F32 + out_n * F32,
                launches: 1,
                ..CostSpec::default()
            }
        }
        OpKind::ScoreTopK { .. } => {
            let (c, d) = (shapes[0][0] as f64, shapes[0][1] as f64);
            CostSpec {
                // 2cd scoring + 2c heap maintenance. The generic split
                // already covers table (shared when const), query and
                // output traffic; crucially there is no `[c]` score
                // vector written or re-read — that is the fusion saving
                // over a MatMul + TopK pair.
                flops_per_item: 2.0 * c * d + 2.0 * c,
                shared_bytes: shared,
                per_item_bytes: per_item,
                launches: 1,
                ..CostSpec::default()
            }
        }
        OpKind::ScatterAddDense { c } => CostSpec {
            flops_per_item: numel(shapes[0]),
            shared_bytes: 0.0,
            // The dense catalog-wide vector is zeroed and written per
            // request — this is exactly why the quirk is expensive.
            per_item_bytes: 2.0 * *c as f64 * F32 + numel(shapes[0]) * 2.0 * F32,
            launches: 1,
            ..CostSpec::default()
        },
        OpKind::HostOp => {
            let b = numel(shapes[0]) * F32;
            CostSpec {
                flops_per_item: 0.0,
                shared_bytes: 0.0,
                per_item_bytes: 0.0,
                launches: 0,
                transfers_per_item: 2,
                transfer_bytes_per_item: 2.0 * b,
            }
        }
        OpKind::SessionGraph { host, .. } => {
            let l = shapes[0][0] as f64;
            let base = CostSpec {
                flops_per_item: 4.0 * l * l,
                shared_bytes: 0.0,
                per_item_bytes: (l * l + 2.0 * l) * F32,
                launches: 1,
                ..CostSpec::default()
            };
            if *host {
                // Built "in NumPy": the RecBole code assembles the
                // adjacency row by row in Python, so every session
                // position costs a host<->device round-trip and the
                // device pipeline stalls for each — the root cause of
                // the paper's "repeated data transfers between CPU and
                // GPU at inference time".
                CostSpec {
                    transfers_per_item: shapes[0][0] as u64,
                    transfer_bytes_per_item: (l + l * l) * F32,
                    ..base
                }
            } else {
                base
            }
        }
        OpKind::OneHotRows { c } => {
            let l = numel(shapes[0]);
            CostSpec {
                flops_per_item: 0.0,
                shared_bytes: 0.0,
                // The full dense [l, C] matrix is zero-filled and written.
                per_item_bytes: l * *c as f64 * F32 + l * F32,
                launches: 1,
                ..CostSpec::default()
            }
        }
        OpKind::Fused { seed, steps } => {
            // One flop per step per lane — the same rate the unfused
            // elementwise ops are charged, so fusion saves launches and
            // intermediate traffic but never changes arithmetic.
            let ops_per_lane = steps.len() as f64 + if seed.is_some() { 1.0 } else { 0.0 };
            CostSpec {
                flops_per_item: ops_per_lane * out_n,
                shared_bytes: shared,
                per_item_bytes: per_item,
                launches: 1,
                ..CostSpec::default()
            }
        }
        // Remaining ops are memory-movement dominated: one launch, traffic
        // as computed, roughly one flop per output lane.
        _ => CostSpec {
            flops_per_item: out_n,
            shared_bytes: shared,
            per_item_bytes: per_item,
            launches: 1,
            ..CostSpec::default()
        },
    }
}

/// A dense operand of [`eval_into`]: a value's elements and its shape.
#[derive(Debug, Clone, Copy)]
pub struct View<'a> {
    /// Row-major elements.
    pub data: &'a [f32],
    /// The value's shape.
    pub shape: &'a [usize],
}

impl View<'_> {
    /// The operand of no op: what unused operand positions hold.
    pub const EMPTY: View<'static> = View {
        data: &[],
        shape: &[],
    };

    fn dims2(&self, op: &'static str) -> Result<(usize, usize), TensorError> {
        match *self.shape {
            [m, n] => Ok((m, n)),
            _ => Err(TensorError::RankMismatch {
                op,
                expected: 2,
                got: self.shape.len(),
            }),
        }
    }

    fn dims1(&self, op: &'static str) -> Result<usize, TensorError> {
        match *self.shape {
            [n] => Ok(n),
            _ => Err(TensorError::RankMismatch {
                op,
                expected: 1,
                got: self.shape.len(),
            }),
        }
    }
}

/// Floats of working memory [`eval_into`] needs for `kind` besides its
/// output of `out_shape`: the GRU gate pre-activations; no other op needs
/// any.
pub fn scratch_len(kind: &OpKind, out_shape: &[usize]) -> usize {
    match kind {
        OpKind::GruCell => kernels::GRU_SCRATCH_PER_UNIT * out_shape.iter().product::<usize>(),
        _ => 0,
    }
}

thread_local! {
    /// The top-k ops' selection state, reused across calls on a thread so
    /// that a warm [`eval_into`] allocates nothing.
    static TOPK: RefCell<(TopkScratch, Ranked)> = RefCell::new(Default::default());
}

/// Runs `f` on this thread's top-k state (a fresh one if it is in use).
fn with_topk<R>(f: impl FnOnce(&mut TopkScratch, &mut Ranked) -> R) -> R {
    TOPK.with(|cell| match cell.try_borrow_mut() {
        Ok(mut state) => {
            let (scratch, best) = &mut *state;
            f(scratch, best)
        }
        Err(_) => f(&mut TopkScratch::default(), &mut Ranked::default()),
    })
}

/// Writes a top-k answer as the `[2, k]` op output: row 0 bit-cast ids,
/// row 1 scores.
fn write_ranked((ids, scores): &Ranked, out: &mut [f32]) -> Result<(), TensorError> {
    if out.len() != 2 * ids.len() {
        return Err(TensorError::Invalid("top-k output shape"));
    }
    let (id_row, score_row) = out.split_at_mut(ids.len());
    for (o, &id) in id_row.iter_mut().zip(ids) {
        *o = crate::id_to_f32(id);
    }
    score_row.copy_from_slice(scores);
    Ok(())
}

/// Evaluates `kind` on dense operands, producing a dense output: the
/// allocating wrapper of [`eval_into`] that eager execution and constant
/// folding call.
pub fn eval(kind: &OpKind, inputs: &[&Tensor], out_shape: &[usize]) -> Result<Tensor, TensorError> {
    // Phantom propagation: if any operand lacks data, so does the result.
    if inputs.iter().any(|t| t.is_phantom()) {
        return Ok(Tensor::phantom(out_shape));
    }
    let operands = inputs
        .iter()
        .map(|t| {
            Ok(View {
                data: t.as_slice()?,
                shape: t.shape(),
            })
        })
        .collect::<Result<Vec<_>, TensorError>>()?;
    let mut out = vec![0.0; out_shape.iter().product()];
    let mut scratch = vec![0.0; scratch_len(kind, out_shape)];
    eval_into(kind, &operands, &mut out, &mut scratch)?;
    Tensor::from_vec(out, out_shape)
}

/// The one definition of every op: evaluates `kind` on `operands` into
/// `out` (the output's elements, each of which is written) with
/// `scratch` ([`scratch_len`] floats) as working memory. Operand shapes
/// are the ones [`infer_shape`] accepted. Allocation-free once the
/// thread's top-k state is warm, which is what lets a compiled plan run
/// on one arena.
pub fn eval_into(
    kind: &OpKind,
    operands: &[View],
    out: &mut [f32],
    scratch: &mut [f32],
) -> Result<(), TensorError> {
    let a = operands.first().copied().unwrap_or(View::EMPTY);
    let b = operands.get(1).copied().unwrap_or(View::EMPTY);
    match kind {
        OpKind::Input(_) | OpKind::Const(_) => {
            return Err(TensorError::Invalid("input/const nodes are not evaluated"))
        }
        OpKind::MatMul => {
            let (m, k) = a.dims2("matmul")?;
            let (_, n) = b.dims2("matmul")?;
            // Row-shard large left operands (the [C,d] x [d,1] MIPS
            // shape) over the intra-op pool; rows are independent, so
            // per-shard kernel calls are bit-identical to one serial call.
            crate::pool::parallel_rows(out, m, n, |rows, chunk| {
                let lhs = &a.data[rows.start * k..rows.end * k];
                kernels::matmul(lhs, b.data, chunk, rows.len(), k, n);
            });
        }
        OpKind::MatMulBT => {
            let (m, k) = a.dims2("matmul_bt")?;
            let (n, _) = b.dims2("matmul_bt")?;
            crate::pool::parallel_rows(out, m, n, |rows, chunk| {
                let lhs = &a.data[rows.start * k..rows.end * k];
                kernels::matmul_bt(lhs, b.data, chunk, rows.len(), k, n);
            });
        }
        OpKind::Binary(op) => kernels::binary(*op, a.data, b.data, out),
        OpKind::BinaryRow(op) => kernels::binary_rowbcast(*op, a.data, b.data, out),
        OpKind::BinaryScalar(op, s) => kernels::binary_scalar(*op, a.data, *s, out),
        OpKind::Unary(op) => kernels::unary(*op, a.data, out),
        OpKind::Softmax => {
            let n = *a.shape.last().unwrap_or(&1);
            kernels::softmax_rows(a.data, out, n.max(1));
        }
        OpKind::LayerNorm { eps } => {
            let n = *a.shape.last().unwrap_or(&1);
            kernels::layernorm_rows(a.data, b.data, operands[2].data, out, n, *eps);
        }
        OpKind::Embedding => {
            let (c, d) = a.dims2("embedding")?;
            b.dims1("embedding")?;
            // Ids are runtime data from the request path: validate them
            // here so a hostile or buggy id yields an error response, not
            // a panicked worker thread.
            for &idf in b.data {
                let id = crate::f32_to_id(idf) as usize;
                if id >= c {
                    return Err(TensorError::IndexOutOfBounds {
                        index: id,
                        bound: c,
                    });
                }
            }
            kernels::embedding(a.data, b.data, out, d);
        }
        OpKind::Concat => {
            if a.shape.len() == 1 {
                let (head, tail) = out.split_at_mut(a.data.len());
                head.copy_from_slice(a.data);
                tail.copy_from_slice(b.data);
            } else {
                let (m, n1) = a.dims2("concat")?;
                let (_, n2) = b.dims2("concat")?;
                let w = n1 + n2;
                for i in 0..m {
                    out[i * w..i * w + n1].copy_from_slice(&a.data[i * n1..(i + 1) * n1]);
                    out[i * w + n1..(i + 1) * w].copy_from_slice(&b.data[i * n2..(i + 1) * n2]);
                }
            }
        }
        OpKind::Transpose => {
            let (m, n) = a.dims2("transpose")?;
            kernels::transpose(a.data, out, m, n);
        }
        OpKind::SumRows => {
            let (_, n) = a.dims2("sum_rows")?;
            kernels::sum_rows(a.data, out, n);
        }
        OpKind::GruCell => {
            let input = a.dims1("gru_cell")?;
            let hidden = b.dims1("gru_cell")?;
            kernels::gru_cell(
                a.data,
                b.data,
                operands[2].data,
                operands[3].data,
                operands[4].data,
                operands[5].data,
                out,
                hidden,
                input,
                scratch,
            );
        }
        OpKind::GatherRow => {
            let (l, d) = a.dims2("gather_row")?;
            let idf = *b
                .data
                .first()
                .ok_or(TensorError::IndexOutOfBounds { index: 0, bound: 0 })?;
            let idx = crate::f32_to_id(idf) as usize;
            if idx >= l {
                return Err(TensorError::IndexOutOfBounds {
                    index: idx,
                    bound: l,
                });
            }
            out.copy_from_slice(&a.data[idx * d..(idx + 1) * d]);
        }
        OpKind::TopK { k } => with_topk(|scratch, best| {
            topk::topk_auto_into(a.data, *k, scratch, &mut best.0, &mut best.1);
            write_ranked(best, out)
        })?,
        OpKind::ScoreTopK { k } => {
            let (c, _d) = a.dims2("score_topk")?;
            with_topk(|scratch, best| {
                topk::score_topk_into(a.data, b.data, c, *k, scratch, &mut best.0, &mut best.1);
                write_ranked(best, out)
            })?
        }
        OpKind::ScatterAddDense { .. } => kernels::scatter_add_dense(a.data, b.data, out),
        OpKind::HostOp | OpKind::Reshape(_) => out.copy_from_slice(a.data),
        OpKind::SliceCols { start, end } => {
            let (m, n) = a.dims2("slice_cols")?;
            let w = end - start;
            for i in 0..m {
                out[i * w..(i + 1) * w].copy_from_slice(&a.data[i * n + start..i * n + end]);
            }
        }
        OpKind::SliceRows { start, end } => {
            let (_, n) = a.dims2("slice_rows")?;
            out.copy_from_slice(&a.data[start * n..end * n]);
        }
        OpKind::SessionGraph { outgoing, .. } => {
            let l = a.dims1("session_graph")?;
            let (ids, mask) = (a.data, b.data);
            out.fill(0.0);
            // Edges between consecutive valid interactions. Repeated item
            // pairs accumulate, as in SR-GNN's weighted session graph.
            for i in 0..l.saturating_sub(1) {
                if mask[i] > 0.0 && mask[i + 1] > 0.0 && ids[i] != ids[i + 1] {
                    if *outgoing {
                        out[i * l + (i + 1)] += 1.0;
                    } else {
                        out[(i + 1) * l + i] += 1.0;
                    }
                }
            }
            // Row-normalise (out-degree / in-degree normalisation).
            for row in out.chunks_mut(l.max(1)) {
                let s: f32 = row.iter().sum();
                if s > 0.0 {
                    for v in row.iter_mut() {
                        *v /= s;
                    }
                }
            }
        }
        OpKind::OneHotRows { c } => {
            a.dims1("one_hot_rows")?;
            out.fill(0.0);
            for (i, &idf) in a.data.iter().enumerate() {
                let id = crate::f32_to_id(idf) as usize;
                if id < *c {
                    out[i * *c + id] = 1.0;
                }
            }
        }
        OpKind::Fused { seed, steps } => match seed {
            Some(op) => {
                for ((o, &x), &y) in out.iter_mut().zip(a.data).zip(b.data) {
                    let mut v = op.apply(x, y);
                    for s in steps {
                        v = s.apply(v);
                    }
                    *o = v;
                }
            }
            None => {
                for (o, &x) in out.iter_mut().zip(a.data) {
                    let mut v = x;
                    for s in steps {
                        v = s.apply(v);
                    }
                    *o = v;
                }
            }
        },
    }
    Ok(())
}

/// The `[2, k]` result of a top-k op: row 0 bit-cast ids, row 1 scores.
pub(crate) fn topk_tensor(ids: &[u32], scores: &[f32]) -> Result<Tensor, TensorError> {
    let mut out = Vec::with_capacity(2 * ids.len());
    out.extend(ids.iter().map(|&i| crate::id_to_f32(i)));
    out.extend_from_slice(scores);
    Tensor::from_vec(out, &[2, ids.len()])
}

/// A node of the dataflow graph.
#[derive(Debug, Clone)]
pub struct Node {
    /// The operator.
    pub kind: OpKind,
    /// Operand node ids (always earlier in the node list).
    pub inputs: Vec<NodeId>,
    /// Inferred output shape.
    pub shape: Vec<usize>,
    /// Batch-parametric cost of the node.
    pub cost: CostSpec,
}

/// A traced, shape-static dataflow graph.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    /// Topologically ordered nodes.
    pub nodes: Vec<Node>,
    /// Constant payloads of `Const` nodes.
    pub consts: HashMap<NodeId, Arc<Tensor>>,
    /// Number of external inputs (positions `0..n_inputs`).
    pub n_inputs: usize,
    /// The node whose value is the graph result.
    pub output: NodeId,
}

impl Graph {
    /// Sums the cost specs of all nodes.
    pub fn total_cost(&self) -> CostSpec {
        let mut total = CostSpec::default();
        for node in &self.nodes {
            total += node.cost;
        }
        total
    }

    /// Executes the graph on dense (or phantom) inputs, one freshly
    /// allocated tensor per op: the eager reference a compiled plan is
    /// held to bit for bit.
    ///
    /// Returns the output tensor and the realised cost at batch size one.
    pub fn run(&self, inputs: &[Tensor]) -> Result<(Tensor, Cost), TensorError> {
        self.run_nodes(inputs, None)
    }

    /// Executes the graph while timing each op, bucketed into top-k vs
    /// everything else (see [`OpTimes`]).
    ///
    /// Timing adds two `Instant` reads per op — negligible next to the
    /// ops themselves, but kept off [`Graph::run`] so the default path
    /// pays nothing.
    pub fn run_timed(&self, inputs: &[Tensor]) -> Result<(Tensor, Cost, OpTimes), TensorError> {
        let mut times = OpTimes::default();
        let (out, cost) = self.run_nodes(inputs, Some(&mut times))?;
        Ok((out, cost, times))
    }

    /// Evaluates nodes `0..=output` (a superset of the output's operands:
    /// the node list is topologically ordered) and returns the output.
    fn run_nodes(
        &self,
        inputs: &[Tensor],
        mut times: Option<&mut OpTimes>,
    ) -> Result<(Tensor, Cost), TensorError> {
        let target = self.output;
        let nodes = self
            .nodes
            .get(..=target)
            .ok_or(TensorError::InvalidRef { index: target })?;
        let mut values: Vec<Option<Arc<Tensor>>> = vec![None; nodes.len()];
        let mut cost = Cost::ZERO;
        for (id, node) in nodes.iter().enumerate() {
            let value = match &node.kind {
                OpKind::Input(pos) => {
                    let t = inputs
                        .get(*pos)
                        .ok_or(TensorError::Invalid("missing graph input"))?;
                    if t.shape() != node.shape.as_slice() {
                        return Err(TensorError::ShapeMismatch {
                            op: "graph input",
                            lhs: t.shape().to_vec(),
                            rhs: node.shape.clone(),
                        });
                    }
                    Arc::new(t.clone())
                }
                OpKind::Const(_) => Arc::clone(
                    self.consts
                        .get(&id)
                        .ok_or(TensorError::Invalid("missing const payload"))?,
                ),
                kind => {
                    let operand_arcs: Vec<&Arc<Tensor>> = node
                        .inputs
                        .iter()
                        .map(|&i| {
                            values[i]
                                .as_ref()
                                .ok_or(TensorError::InvalidRef { index: i })
                        })
                        .collect::<Result<_, _>>()?;
                    let operands: Vec<&Tensor> = operand_arcs.iter().map(|a| a.as_ref()).collect();
                    cost += node.cost.at_batch(1);
                    match times.as_deref_mut() {
                        Some(t) => {
                            let start = std::time::Instant::now();
                            let out = eval(kind, &operands, &node.shape)?;
                            t.add(kind, start.elapsed());
                            Arc::new(out)
                        }
                        None => Arc::new(eval(kind, &operands, &node.shape)?),
                    }
                }
            };
            values[id] = Some(value);
        }
        let out = values[target]
            .take()
            .ok_or(TensorError::InvalidRef { index: target })?;
        Ok((Arc::try_unwrap(out).unwrap_or_else(|a| (*a).clone()), cost))
    }
}

/// Wall time spent executing graph ops, split into the top-k selection
/// over the catalogue versus the rest of the forward pass.
///
/// The serving layer needs this split because top-k runs *inside* the
/// forward graph (it is an [`OpKind::TopK`] node), yet the paper reports
/// it as its own pipeline stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpTimes {
    /// Time spent in `TopK` and fused `ScoreTopK` ops.
    pub topk: std::time::Duration,
    /// Time spent in every other op.
    pub other: std::time::Duration,
}

impl OpTimes {
    /// Attributes one op's elapsed time to the right bucket.
    pub fn add(&mut self, kind: &OpKind, elapsed: std::time::Duration) {
        match kind {
            OpKind::TopK { .. } | OpKind::ScoreTopK { .. } => self.topk += elapsed,
            _ => self.other += elapsed,
        }
    }

    /// Sum of both buckets.
    pub fn total(&self) -> std::time::Duration {
        self.topk + self.other
    }

    /// Accumulates another measurement into this one.
    pub fn merge(&mut self, other: &OpTimes) {
        self.topk += other.topk;
        self.other += other.other;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Param;

    fn leaf(kind: OpKind, shape: &[usize]) -> Node {
        Node {
            kind,
            inputs: vec![],
            shape: shape.to_vec(),
            cost: CostSpec::default(),
        }
    }

    fn op_node(kind: OpKind, inputs: Vec<NodeId>, shapes: &[&[usize]]) -> Node {
        let shape = infer_shape(&kind, shapes).unwrap();
        let consts = vec![false; shapes.len()];
        let cost = op_cost(&kind, shapes, &consts, &shape);
        Node {
            kind,
            inputs,
            shape,
            cost,
        }
    }

    #[test]
    fn infer_shapes_for_core_ops() {
        assert_eq!(
            infer_shape(&OpKind::MatMul, &[&[2, 3], &[3, 4]]).unwrap(),
            vec![2, 4]
        );
        assert!(infer_shape(&OpKind::MatMul, &[&[2, 3], &[4, 4]]).is_err());
        assert_eq!(
            infer_shape(&OpKind::Embedding, &[&[100, 8], &[5]]).unwrap(),
            vec![5, 8]
        );
        assert_eq!(
            infer_shape(&OpKind::TopK { k: 3 }, &[&[10]]).unwrap(),
            vec![2, 3]
        );
        assert_eq!(
            infer_shape(&OpKind::Concat, &[&[4], &[6]]).unwrap(),
            vec![10]
        );
        assert_eq!(
            infer_shape(&OpKind::SliceCols { start: 1, end: 3 }, &[&[5, 4]]).unwrap(),
            vec![5, 2]
        );
    }

    #[test]
    fn matmul_cost_distinguishes_const_operands() {
        let shapes: Vec<&[usize]> = vec![&[1000, 32], &[32, 1]];
        let out = vec![1000, 1];
        let act = op_cost(&OpKind::MatMul, &shapes, &[false, false], &out);
        let wgt = op_cost(&OpKind::MatMul, &shapes, &[true, false], &out);
        assert_eq!(act.shared_bytes, 0.0);
        assert!(wgt.shared_bytes > 0.0);
        assert_eq!(
            act.flops_per_item, wgt.flops_per_item,
            "flops do not depend on const-ness"
        );
        // Total single-request traffic is identical either way.
        assert!(
            (act.at_batch(1).bytes - wgt.at_batch(1).bytes).abs() < 1e-6,
            "{} vs {}",
            act.at_batch(1).bytes,
            wgt.at_batch(1).bytes
        );
    }

    #[test]
    fn graph_runs_a_tiny_pipeline() {
        // y = sigmoid(x * W), x: [1,2], W: [2,2]
        let w = Param::new(Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]).unwrap());
        let mut g = Graph::default();
        g.nodes.push(leaf(OpKind::Input(0), &[1, 2]));
        g.nodes.push(leaf(OpKind::Const(w.id()), &[2, 2]));
        g.consts.insert(1, w.shared());
        g.nodes
            .push(op_node(OpKind::MatMul, vec![0, 1], &[&[1, 2], &[2, 2]]));
        g.nodes
            .push(op_node(OpKind::Unary(UnOp::Sigmoid), vec![2], &[&[1, 2]]));
        g.n_inputs = 1;
        g.output = 3;
        let x = Tensor::from_vec(vec![0.0, 100.0], &[1, 2]).unwrap();
        let (y, cost) = g.run(&[x]).unwrap();
        let v = y.as_slice().unwrap();
        assert!((v[0] - 0.5).abs() < 1e-6);
        assert!((v[1] - 1.0).abs() < 1e-4);
        assert_eq!(cost.launches, 2);
    }

    #[test]
    fn graph_phantom_inputs_produce_phantom_output_with_cost() {
        let mut g = Graph::default();
        g.nodes.push(leaf(OpKind::Input(0), &[4]));
        g.nodes
            .push(op_node(OpKind::Unary(UnOp::Relu), vec![0], &[&[4]]));
        g.n_inputs = 1;
        g.output = 1;
        let (y, cost) = g.run(&[Tensor::phantom(&[4])]).unwrap();
        assert!(y.is_phantom());
        assert!(cost.bytes > 0.0);
    }

    #[test]
    fn graph_input_shape_mismatch_is_rejected() {
        let mut g = Graph::default();
        g.nodes.push(leaf(OpKind::Input(0), &[4]));
        g.n_inputs = 1;
        g.output = 0;
        assert!(g.run(&[Tensor::zeros(&[5])]).is_err());
    }

    #[test]
    fn fused_chain_matches_unfused_ops() {
        let x = Tensor::from_vec(vec![-1.0, 0.5, 2.0], &[3]).unwrap();
        let fused = OpKind::Fused {
            seed: None,
            steps: vec![
                FusedStep::Scalar(BinOp::Mul, 2.0),
                FusedStep::Unary(UnOp::Tanh),
            ],
        };
        let y = eval(&fused, &[&x], &[3]).unwrap();
        for (a, &b) in y.as_slice().unwrap().iter().zip(x.as_slice().unwrap()) {
            assert!((a - (2.0 * b).tanh()).abs() < 1e-6);
        }
    }

    #[test]
    fn fused_seed_combines_two_operands() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, -1.0], &[2]).unwrap();
        let fused = OpKind::Fused {
            seed: Some(BinOp::Add),
            steps: vec![FusedStep::Unary(UnOp::Relu)],
        };
        let y = eval(&fused, &[&a, &b], &[2]).unwrap();
        assert_eq!(y.as_slice().unwrap(), &[4.0, 1.0]);
    }

    #[test]
    fn host_op_costs_transfers_only() {
        let shapes: Vec<&[usize]> = vec![&[64]];
        let c = op_cost(&OpKind::HostOp, &shapes, &[false], &[64]);
        assert_eq!(c.launches, 0);
        assert_eq!(c.transfers_per_item, 2);
        assert!(c.transfer_bytes_per_item > 0.0);
    }

    #[test]
    fn scatter_add_dense_cost_scales_with_catalog() {
        let shapes: Vec<&[usize]> = vec![&[10], &[10]];
        let small = op_cost(
            &OpKind::ScatterAddDense { c: 1_000 },
            &shapes,
            &[false, false],
            &[1_000],
        );
        let big = op_cost(
            &OpKind::ScatterAddDense { c: 1_000_000 },
            &shapes,
            &[false, false],
            &[1_000_000],
        );
        assert!(big.per_item_bytes > 500.0 * small.per_item_bytes);
    }
}
