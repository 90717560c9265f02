//! Execution context: eager, cost-only and tracing modes.
//!
//! Model forward passes are written once against [`Exec`]'s operator
//! methods and run in three modes:
//!
//! * [`ExecMode::Real`] — kernels execute immediately on dense data
//!   (PyTorch "eager" execution in the paper's terms),
//! * [`ExecMode::CostOnly`] — shapes propagate, costs accumulate, no data
//!   is touched; this is how catalogs of 10–20M items are priced without
//!   allocating their embedding tables,
//! * [`ExecMode::Trace`] — operations are recorded into a [`Graph`] for
//!   JIT optimisation (the analogue of `torch.jit.trace`).
//!
//! Data-dependent control flow ([`Exec::item`]) works in `Real` mode but
//! poisons tracing — exactly the reason the paper found LightSANs
//! impossible to JIT-optimise.

use crate::cost::CostTracker;
use crate::device::Device;
use crate::graph::{self, Graph, Node, OpKind, OpTimes};
use crate::kernels::{BinOp, UnOp};
use crate::param::{Param, ParamId};
use crate::tensor::{Tensor, TensorError};
use std::collections::HashMap;
use std::sync::Arc;

/// Execution mode of an [`Exec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Eager execution on dense data.
    Real,
    /// Shape/cost propagation without data.
    CostOnly,
    /// Graph capture.
    Trace,
}

/// Handle to a tensor inside an [`Exec`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TRef(usize);

/// The standard inputs of an SBR model forward pass: a padded item-id
/// sequence, its validity mask and the index of the last real item.
#[derive(Debug, Clone, Copy)]
pub struct SessionInput {
    /// `[max_len]` bit-cast item ids (padded positions hold item 0).
    pub items: TRef,
    /// `[max_len]` mask: 1.0 for real positions, 0.0 for padding.
    pub mask: TRef,
    /// `[1]` bit-cast index of the last real position.
    pub last: TRef,
}

struct Entry {
    tensor: Arc<Tensor>,
    is_const: bool,
}

/// An execution context holding intermediate tensors and, in trace mode,
/// the graph being captured.
pub struct Exec {
    mode: ExecMode,
    device: Device,
    arena: Vec<Entry>,
    tracker: CostTracker,
    // Trace state: node per arena slot, plus captured const payloads.
    nodes: Vec<Node>,
    consts: HashMap<usize, Arc<Tensor>>,
    const_cache: HashMap<ParamId, TRef>,
    n_inputs: usize,
    // Per-op wall-time accounting, off unless enabled (Real mode only).
    op_times: Option<OpTimes>,
}

impl Exec {
    /// Creates an execution context.
    pub fn new(mode: ExecMode, device: Device) -> Exec {
        Exec {
            mode,
            device,
            arena: Vec::new(),
            tracker: CostTracker::new(),
            nodes: Vec::new(),
            consts: HashMap::new(),
            const_cache: HashMap::new(),
            n_inputs: 0,
            op_times: None,
        }
    }

    /// Turns on per-op wall-time accounting ([`Exec::op_times`]). Only
    /// meaningful in [`ExecMode::Real`]; the other modes never execute
    /// kernels, so their buckets stay zero.
    pub fn enable_op_timing(&mut self) {
        self.op_times = Some(OpTimes::default());
    }

    /// Accumulated per-op wall time since [`Exec::enable_op_timing`], or
    /// `None` if timing was never enabled.
    pub fn op_times(&self) -> Option<OpTimes> {
        self.op_times
    }

    /// The execution mode.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// The device this context models.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Accumulated cost of all executed operations (Real/CostOnly modes).
    pub fn cost(&self) -> &CostTracker {
        &self.tracker
    }

    /// Borrows a tensor from the arena.
    pub fn tensor(&self, r: TRef) -> Result<&Tensor, TensorError> {
        self.arena
            .get(r.0)
            .map(|e| e.tensor.as_ref())
            .ok_or(TensorError::InvalidRef { index: r.0 })
    }

    /// Registers an external input tensor.
    pub fn input(&mut self, t: Tensor) -> Result<TRef, TensorError> {
        let pos = self.n_inputs;
        self.n_inputs += 1;
        let t = if self.mode == ExecMode::CostOnly {
            Tensor::phantom(t.shape())
        } else {
            t
        };
        let shape = t.shape().to_vec();
        let r = self.push_entry(Arc::new(t), false);
        if self.mode == ExecMode::Trace {
            self.nodes.push(Node {
                kind: OpKind::Input(pos),
                inputs: vec![],
                shape,
                cost: Default::default(),
            });
        }
        Ok(r)
    }

    /// Registers a model weight. In trace mode repeated registration of the
    /// same parameter returns the same constant node.
    pub fn param(&mut self, p: &Param) -> Result<TRef, TensorError> {
        if self.mode == ExecMode::Trace {
            if let Some(&r) = self.const_cache.get(&p.id()) {
                return Ok(r);
            }
        }
        let r = self.push_entry(p.shared(), true);
        if self.mode == ExecMode::Trace {
            self.nodes.push(Node {
                kind: OpKind::Const(p.id()),
                inputs: vec![],
                shape: p.shape().to_vec(),
                cost: Default::default(),
            });
            self.consts.insert(r.0, p.shared());
            self.const_cache.insert(p.id(), r);
        }
        Ok(r)
    }

    fn push_entry(&mut self, tensor: Arc<Tensor>, is_const: bool) -> TRef {
        self.arena.push(Entry { tensor, is_const });
        TRef(self.arena.len() - 1)
    }

    /// Core operator application shared by all op methods.
    pub fn apply(&mut self, kind: OpKind, operands: &[TRef]) -> Result<TRef, TensorError> {
        let shapes: Vec<&[usize]> = operands
            .iter()
            .map(|&r| self.tensor(r).map(|t| t.shape()))
            .collect::<Result<_, _>>()?;
        let out_shape = graph::infer_shape(&kind, &shapes)?;
        let const_flags: Vec<bool> = operands.iter().map(|&r| self.arena[r.0].is_const).collect();
        let cost = graph::op_cost(&kind, &shapes, &const_flags, &out_shape);

        match self.mode {
            ExecMode::Real | ExecMode::CostOnly => {
                self.tracker.record(cost);
                let inputs: Vec<&Tensor> = operands
                    .iter()
                    .map(|&r| self.arena[r.0].tensor.as_ref())
                    .collect();
                let timed_start = self.op_times.is_some().then(std::time::Instant::now);
                let out = if self.mode == ExecMode::CostOnly {
                    Tensor::phantom(&out_shape)
                } else {
                    graph::eval(&kind, &inputs, &out_shape)?
                };
                if let (Some(start), Some(times)) = (timed_start, self.op_times.as_mut()) {
                    times.add(&kind, start.elapsed());
                }
                Ok(self.push_entry(Arc::new(out), false))
            }
            ExecMode::Trace => {
                let node_inputs: Vec<usize> = operands.iter().map(|r| r.0).collect();
                self.nodes.push(Node {
                    kind,
                    inputs: node_inputs,
                    shape: out_shape.clone(),
                    cost,
                });
                Ok(self.push_entry(Arc::new(Tensor::phantom(&out_shape)), false))
            }
        }
    }

    /// Finalises tracing and returns the captured graph with `output` as
    /// its result node.
    pub fn finish_trace(self, output: TRef) -> Result<Graph, TensorError> {
        if self.mode != ExecMode::Trace {
            return Err(TensorError::Invalid("finish_trace requires Trace mode"));
        }
        if output.0 >= self.nodes.len() {
            return Err(TensorError::InvalidRef { index: output.0 });
        }
        Ok(Graph {
            nodes: self.nodes,
            consts: self.consts,
            n_inputs: self.n_inputs,
            output: output.0,
        })
    }

    /// Reads a scalar out of a tensor — data-dependent control flow.
    ///
    /// * `Real`: returns the value.
    /// * `CostOnly`: returns `0.0` (control flow proceeds along the
    ///   default branch; documented behaviour for cost estimation).
    /// * `Trace`: fails with [`TensorError::NotTraceable`] — a graph cannot
    ///   capture a branch on runtime data. This is the mechanism behind
    ///   the paper's LightSANs JIT failure.
    pub fn item(&self, r: TRef, index: usize) -> Result<f32, TensorError> {
        match self.mode {
            ExecMode::Real => self.tensor(r)?.get(index),
            ExecMode::CostOnly => Ok(0.0),
            ExecMode::Trace => Err(TensorError::NotTraceable { op: "item" }),
        }
    }

    // ------------------------------------------------------------------
    // Operator sugar.
    // ------------------------------------------------------------------

    /// Matrix multiplication `[m,k] x [k,n]`.
    pub fn matmul(&mut self, a: TRef, b: TRef) -> Result<TRef, TensorError> {
        self.apply(OpKind::MatMul, &[a, b])
    }

    /// Matrix multiplication with pre-transposed right operand `[n,k]`.
    pub fn matmul_bt(&mut self, a: TRef, bt: TRef) -> Result<TRef, TensorError> {
        self.apply(OpKind::MatMulBT, &[a, bt])
    }

    /// Elementwise addition.
    pub fn add(&mut self, a: TRef, b: TRef) -> Result<TRef, TensorError> {
        self.apply(OpKind::Binary(BinOp::Add), &[a, b])
    }

    /// Elementwise subtraction.
    pub fn sub(&mut self, a: TRef, b: TRef) -> Result<TRef, TensorError> {
        self.apply(OpKind::Binary(BinOp::Sub), &[a, b])
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&mut self, a: TRef, b: TRef) -> Result<TRef, TensorError> {
        self.apply(OpKind::Binary(BinOp::Mul), &[a, b])
    }

    /// Broadcast a row vector over matrix rows with `op`.
    pub fn binary_row(&mut self, op: BinOp, a: TRef, row: TRef) -> Result<TRef, TensorError> {
        self.apply(OpKind::BinaryRow(op), &[a, row])
    }

    /// Elementwise binary against a scalar.
    pub fn scalar(&mut self, op: BinOp, a: TRef, s: f32) -> Result<TRef, TensorError> {
        self.apply(OpKind::BinaryScalar(op, s), &[a])
    }

    /// Elementwise unary function.
    pub fn unary(&mut self, op: UnOp, a: TRef) -> Result<TRef, TensorError> {
        self.apply(OpKind::Unary(op), &[a])
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: TRef) -> Result<TRef, TensorError> {
        self.unary(UnOp::Sigmoid, a)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: TRef) -> Result<TRef, TensorError> {
        self.unary(UnOp::Tanh, a)
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: TRef) -> Result<TRef, TensorError> {
        self.unary(UnOp::Relu, a)
    }

    /// Gaussian error linear unit.
    pub fn gelu(&mut self, a: TRef) -> Result<TRef, TensorError> {
        self.unary(UnOp::Gelu, a)
    }

    /// Row-wise softmax.
    pub fn softmax(&mut self, a: TRef) -> Result<TRef, TensorError> {
        self.apply(OpKind::Softmax, &[a])
    }

    /// Row-wise layer normalisation with affine parameters.
    pub fn layernorm(&mut self, a: TRef, gamma: TRef, beta: TRef) -> Result<TRef, TensorError> {
        self.apply(OpKind::LayerNorm { eps: 1e-5 }, &[a, gamma, beta])
    }

    /// Embedding lookup.
    pub fn embedding(&mut self, table: TRef, ids: TRef) -> Result<TRef, TensorError> {
        self.apply(OpKind::Embedding, &[table, ids])
    }

    /// Concatenation along the last dimension.
    pub fn concat(&mut self, a: TRef, b: TRef) -> Result<TRef, TensorError> {
        self.apply(OpKind::Concat, &[a, b])
    }

    /// Matrix transpose.
    pub fn transpose(&mut self, a: TRef) -> Result<TRef, TensorError> {
        self.apply(OpKind::Transpose, &[a])
    }

    /// Sum over rows of a matrix.
    pub fn sum_rows(&mut self, a: TRef) -> Result<TRef, TensorError> {
        self.apply(OpKind::SumRows, &[a])
    }

    /// One GRU cell step.
    pub fn gru_cell(
        &mut self,
        x: TRef,
        h: TRef,
        w_ih: TRef,
        w_hh: TRef,
        b_ih: TRef,
        b_hh: TRef,
    ) -> Result<TRef, TensorError> {
        self.apply(OpKind::GruCell, &[x, h, w_ih, w_hh, b_ih, b_hh])
    }

    /// Select a matrix row by a runtime (bit-cast) index tensor.
    pub fn gather_row(&mut self, m: TRef, idx: TRef) -> Result<TRef, TensorError> {
        self.apply(OpKind::GatherRow, &[m, idx])
    }

    /// Top-k over a score vector; returns a `[2,k]` tensor of bit-cast
    /// indices (row 0) and scores (row 1).
    pub fn topk(&mut self, scores: TRef, k: usize) -> Result<TRef, TensorError> {
        self.apply(OpKind::TopK { k }, &[scores])
    }

    /// Fused MIPS decode: scores every row of `table` (`[c,d]`) against
    /// `s` (`[d]`) and selects the top `k` in one streaming pass,
    /// without materialising the `[c]` score vector. Returns the same
    /// `[2,k]` layout as [`Exec::topk`].
    pub fn score_topk(&mut self, table: TRef, s: TRef, k: usize) -> Result<TRef, TensorError> {
        self.apply(OpKind::ScoreTopK { k }, &[table, s])
    }

    /// Dense scatter-add into a full catalog vector (RepeatNet quirk).
    pub fn scatter_add_dense(
        &mut self,
        ids: TRef,
        vals: TRef,
        c: usize,
    ) -> Result<TRef, TensorError> {
        self.apply(OpKind::ScatterAddDense { c }, &[ids, vals])
    }

    /// Marks a value as produced by host-side code (SR-GNN/GC-SAN quirk).
    pub fn host_op(&mut self, a: TRef) -> Result<TRef, TensorError> {
        self.apply(OpKind::HostOp, &[a])
    }

    /// Reshape to a new shape of equal element count.
    pub fn reshape(&mut self, a: TRef, shape: &[usize]) -> Result<TRef, TensorError> {
        self.apply(OpKind::Reshape(shape.to_vec()), &[a])
    }

    /// Contiguous column slice of a matrix.
    pub fn slice_cols(&mut self, a: TRef, start: usize, end: usize) -> Result<TRef, TensorError> {
        self.apply(OpKind::SliceCols { start, end }, &[a])
    }

    /// Contiguous row slice of a matrix.
    pub fn slice_rows(&mut self, a: TRef, start: usize, end: usize) -> Result<TRef, TensorError> {
        self.apply(OpKind::SliceRows { start, end }, &[a])
    }

    /// Builds the session-graph adjacency matrix (SR-GNN / GC-SAN). With
    /// `host`, the construction is modelled as host-side NumPy code.
    pub fn session_graph(
        &mut self,
        ids: TRef,
        mask: TRef,
        outgoing: bool,
        host: bool,
    ) -> Result<TRef, TensorError> {
        self.apply(OpKind::SessionGraph { outgoing, host }, &[ids, mask])
    }

    /// Materialises dense one-hot rows over the catalog (RepeatNet quirk).
    pub fn one_hot_rows(&mut self, ids: TRef, c: usize) -> Result<TRef, TensorError> {
        self.apply(OpKind::OneHotRows { c }, &[ids])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(mode: ExecMode) -> Exec {
        Exec::new(mode, Device::cpu())
    }

    #[test]
    fn eager_matmul_computes() {
        let mut e = ctx(ExecMode::Real);
        let a = e
            .input(Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap())
            .unwrap();
        let w = Param::new(Tensor::from_vec(vec![3.0, 0.0, 0.0, 3.0], &[2, 2]).unwrap());
        let wr = e.param(&w).unwrap();
        let y = e.matmul(a, wr).unwrap();
        assert_eq!(e.tensor(y).unwrap().as_slice().unwrap(), &[3.0, 6.0]);
        assert_eq!(e.cost().ops(), 1);
        assert!(e.cost().total().flops > 0.0);
    }

    #[test]
    fn cost_only_mode_never_touches_data() {
        let mut e = ctx(ExecMode::CostOnly);
        // A "huge" input that would be expensive to materialise is passed
        // as phantom via input() conversion.
        let a = e.input(Tensor::phantom(&[1, 64])).unwrap();
        let w = Param::new(Tensor::zeros(&[64, 64]));
        let wr = e.param(&w).unwrap();
        let y = e.matmul(a, wr).unwrap();
        assert!(e.tensor(y).unwrap().is_phantom());
        assert!(e.cost().total().flops > 0.0);
    }

    #[test]
    fn cost_only_matches_real_cost() {
        let run = |mode: ExecMode| {
            let mut e = ctx(mode);
            let a = e
                .input(Tensor::from_vec(vec![0.5; 8], &[1, 8]).unwrap())
                .unwrap();
            let w = Param::new(Tensor::zeros(&[8, 8]));
            let wr = e.param(&w).unwrap();
            let y = e.matmul(a, wr).unwrap();
            let y = e.sigmoid(y).unwrap();
            let _ = y;
            e.cost().total()
        };
        let real = run(ExecMode::Real);
        let phantom = run(ExecMode::CostOnly);
        assert_eq!(real, phantom);
    }

    #[test]
    fn trace_captures_graph_and_replays() {
        let w = Param::new(Tensor::from_vec(vec![2.0, 0.0, 0.0, 2.0], &[2, 2]).unwrap());
        let mut t = ctx(ExecMode::Trace);
        let x = t.input(Tensor::phantom(&[1, 2])).unwrap();
        let wr = t.param(&w).unwrap();
        let y = t.matmul(x, wr).unwrap();
        let y = t.relu(y).unwrap();
        let g = t.finish_trace(y).unwrap();
        assert_eq!(g.n_inputs, 1);
        let (out, cost) = g
            .run(&[Tensor::from_vec(vec![-1.0, 3.0], &[1, 2]).unwrap()])
            .unwrap();
        assert_eq!(out.as_slice().unwrap(), &[0.0, 6.0]);
        assert_eq!(cost.launches, 2);
    }

    #[test]
    fn trace_dedups_repeated_params() {
        let w = Param::new(Tensor::zeros(&[2, 2]));
        let mut t = ctx(ExecMode::Trace);
        let a = t.param(&w).unwrap();
        let b = t.param(&w).unwrap();
        assert_eq!(a, b);
        let g = t.finish_trace(a).unwrap();
        assert_eq!(g.nodes.len(), 1);
    }

    #[test]
    fn item_reads_in_real_mode_only() {
        let mut r = ctx(ExecMode::Real);
        let x = r.input(Tensor::from_vec(vec![7.0], &[1]).unwrap()).unwrap();
        assert_eq!(r.item(x, 0).unwrap(), 7.0);

        let mut c = ctx(ExecMode::CostOnly);
        let x = c.input(Tensor::zeros(&[1])).unwrap();
        assert_eq!(c.item(x, 0).unwrap(), 0.0);

        let mut t = ctx(ExecMode::Trace);
        let x = t.input(Tensor::zeros(&[1])).unwrap();
        assert!(matches!(
            t.item(x, 0),
            Err(TensorError::NotTraceable { .. })
        ));
    }

    #[test]
    fn traced_graph_cost_matches_eager_cost() {
        let w = Param::new(Tensor::zeros(&[4, 4]));
        let build = |e: &mut Exec| {
            let x = e.input(Tensor::zeros(&[1, 4])).unwrap();
            let wr = e.param(&w).unwrap();
            let y = e.matmul(x, wr).unwrap();
            e.tanh(y).unwrap()
        };
        let mut eager = ctx(ExecMode::Real);
        build(&mut eager);
        let mut tr = ctx(ExecMode::Trace);
        let out = build(&mut tr);
        let g = tr.finish_trace(out).unwrap();
        let eager_cost = eager.cost().total();
        let graph_cost = g.total_cost().at_batch(1);
        assert_eq!(eager_cost.flops, graph_cost.flops);
        assert_eq!(eager_cost.launches, graph_cost.launches);
        assert_eq!(eager_cost.bytes, graph_cost.bytes);
    }

    #[test]
    fn topk_returns_bitcast_indices() {
        let mut e = ctx(ExecMode::Real);
        let s = e
            .input(Tensor::from_vec(vec![0.2, 0.9, 0.4], &[3]).unwrap())
            .unwrap();
        let t = e.topk(s, 2).unwrap();
        let out = e.tensor(t).unwrap();
        assert_eq!(out.shape(), &[2, 2]);
        let ids: Vec<u32> = out.as_slice().unwrap()[..2]
            .iter()
            .map(|&x| crate::f32_to_id(x))
            .collect();
        assert_eq!(ids, vec![1, 2]);
    }
}
