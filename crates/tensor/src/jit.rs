//! JIT graph optimisation — the stand-in for
//! `torch.jit.optimize_for_inference`.
//!
//! A traced [`Graph`] is rewritten by four passes:
//!
//! 1. **Constant folding** — subgraphs depending only on weights are
//!    evaluated once at compile time and replaced by constants.
//! 2. **Weight pre-transposition** — `MatMul(x, W)` with a constant right
//!    operand becomes `MatMulBT(x, Wᵀ)`, whose dot products walk both
//!    operands contiguously.
//! 3. **Elementwise fusion** — chains of unary/scalar maps (optionally
//!    seeded by a binary combine) collapse into a single [`OpKind::Fused`]
//!    kernel: one launch and one memory pass instead of one per op.
//! 4. **Dead-code elimination** — nodes unreachable from the output are
//!    dropped.
//!
//! The optimised graph is then lowered into an execution plan
//! (`crate::plan`): ops in order, every value at a liveness-assigned
//! offset of one reused arena, views for reshapes — so a compiled run
//! allocates nothing per op.
//!
//! Each pass preserves semantics (verified by property tests comparing
//! eager and compiled outputs) while reducing launches and memory traffic,
//! which is exactly how the paper's "JIT optimisation is always
//! beneficial" finding manifests in the cost model.

use crate::cost::{Cost, CostSpec};
use crate::device::DeviceProfile;
use crate::graph::{op_cost, topk_tensor, FusedStep, Graph, Node, NodeId, OpKind, OpTimes};
use crate::param::Param;
use crate::plan::Plan;
use crate::tensor::{Tensor, TensorError};
use crate::topk;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Why a model could not be JIT-compiled.
#[derive(Debug, Clone, PartialEq)]
pub enum JitError {
    /// The forward pass branches on runtime data and cannot be traced.
    /// (The paper hit this with LightSANs.)
    DynamicControlFlow(String),
    /// Tracing or rewriting failed.
    Trace(TensorError),
}

impl fmt::Display for JitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JitError::DynamicControlFlow(what) => {
                write!(f, "dynamic control flow prevents tracing: {what}")
            }
            JitError::Trace(e) => write!(f, "trace failed: {e}"),
        }
    }
}

impl std::error::Error for JitError {}

impl From<TensorError> for JitError {
    fn from(e: TensorError) -> Self {
        if matches!(e, TensorError::NotTraceable { .. }) {
            JitError::DynamicControlFlow("untraceable operation".into())
        } else {
            JitError::Trace(e)
        }
    }
}

/// Which optimisation passes to run (all on by default).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JitOptions {
    /// Evaluate weight-only subgraphs at compile time.
    pub const_fold: bool,
    /// Rewrite `MatMul(x, W)` to `MatMulBT(x, Wᵀ)`.
    pub pre_transpose: bool,
    /// Fuse elementwise chains into single kernels.
    pub fuse: bool,
    /// Remove unreachable nodes.
    pub dce: bool,
}

impl Default for JitOptions {
    fn default() -> Self {
        JitOptions {
            const_fold: true,
            pre_transpose: true,
            fuse: true,
            dce: true,
        }
    }
}

impl JitOptions {
    /// All passes disabled — compiles the graph verbatim.
    pub fn none() -> JitOptions {
        JitOptions {
            const_fold: false,
            pre_transpose: false,
            fuse: false,
            dce: false,
        }
    }
}

/// An optimised, executable graph with a precomputed cost spec, lowered
/// into an execution plan that runs it on one reused arena.
#[derive(Debug, Clone)]
pub struct CompiledGraph {
    graph: Graph,
    cost: CostSpec,
    /// `None` for phantom weights, which run eagerly.
    plan: Option<Plan>,
    decode: Option<FusedDecode>,
}

/// The shape every model but two decodes with: the graph's output is a
/// `ScoreTopK` of a constant table against the session representation.
/// A batch run evaluates each session up to `query` and scores all of
/// them in one pass over `table`.
#[derive(Debug, Clone, Copy)]
struct FusedDecode {
    table: NodeId,
    query: NodeId,
    k: usize,
}

impl FusedDecode {
    fn of(graph: &Graph) -> Option<FusedDecode> {
        let out = &graph.nodes[graph.output];
        let (OpKind::ScoreTopK { k }, &[table, query]) = (&out.kind, out.inputs.as_slice()) else {
            return None;
        };
        matches!(graph.nodes[table].kind, OpKind::Const(_)).then_some(FusedDecode {
            table,
            query,
            k: *k,
        })
    }
}

impl CompiledGraph {
    /// The optimised graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Total batch-parametric cost of one forward pass.
    pub fn cost(&self) -> CostSpec {
        self.cost
    }

    /// The plan, unless weights or `inputs` are phantom: those propagate
    /// through the eager graph.
    fn plan_for(&self, inputs: &[Tensor]) -> Option<&Plan> {
        self.plan
            .as_ref()
            .filter(|_| !inputs.iter().any(Tensor::is_phantom))
    }

    /// Executes the compiled graph on its plan: bit-identical to
    /// [`Graph::run`] of [`CompiledGraph::graph`], without its per-op
    /// allocations.
    pub fn run(&self, inputs: &[Tensor]) -> Result<(Tensor, Cost), TensorError> {
        match self.plan_for(inputs) {
            Some(plan) => plan.run(&self.graph, inputs, None),
            None => self.graph.run(inputs),
        }
    }

    /// Executes the compiled graph with per-op timing (see
    /// [`Graph::run_timed`]).
    pub fn run_timed(&self, inputs: &[Tensor]) -> Result<(Tensor, Cost, OpTimes), TensorError> {
        match self.plan_for(inputs) {
            Some(plan) => {
                let mut times = OpTimes::default();
                let (out, cost) = plan.run(&self.graph, inputs, Some(&mut times))?;
                Ok((out, cost, times))
            }
            None => self.graph.run_timed(inputs),
        }
    }

    /// Executes the graph for a batch of sessions, pulled from
    /// `sessions` one at a time (a session's encoder starts when it is
    /// pulled), and returns one output per session plus the batch's op
    /// times. When the graph ends in a `ScoreTopK` over a constant
    /// table, each session is evaluated up to its query vector and the
    /// whole batch is scored by **one** multi-query scan of the table —
    /// bit-identical per session to [`CompiledGraph::run`]; any other
    /// graph runs session by session. A session that fails (say, an
    /// out-of-range item id) fails alone.
    pub fn run_batch_timed(
        &self,
        sessions: &mut dyn Iterator<Item = Vec<Tensor>>,
    ) -> (Vec<Result<Tensor, TensorError>>, OpTimes) {
        let mut times = OpTimes::default();
        let (Some(decode), Some(plan)) = (self.decode, &self.plan) else {
            let outs = sessions
                .map(|inputs| {
                    let (out, _, ops) = self.run_timed(&inputs)?;
                    times.merge(&ops);
                    Ok(out)
                })
                .collect();
            return (outs, times);
        };
        // `Ok(q)`: the session's query is row `q` of `queries`.
        let (mut queries, mut nq) = (Vec::new(), 0);
        let rows: Vec<Result<usize, TensorError>> = sessions
            .map(|inputs| {
                plan.run_query(&self.graph, &inputs, decode.query, &mut times, |query| {
                    queries.extend_from_slice(query)
                })?;
                nq += 1;
                Ok(nq - 1)
            })
            .collect();
        let start = std::time::Instant::now();
        let best = self.scan(decode, &queries, nq);
        times.topk += start.elapsed();
        let outs = rows
            .into_iter()
            .map(|row| {
                let (ids, scores) = &best.as_ref().map_err(Clone::clone)?[row?];
                topk_tensor(ids, scores)
            })
            .collect();
        (outs, times)
    }

    /// The one pass over the catalog table for `nq` encoded sessions.
    fn scan(
        &self,
        decode: FusedDecode,
        queries: &[f32],
        nq: usize,
    ) -> Result<Vec<topk::Ranked>, TensorError> {
        let table = self
            .graph
            .consts
            .get(&decode.table)
            .ok_or(TensorError::Invalid("missing const payload"))?;
        let (c, _d) = table.dims2("score_topk")?;
        let mut best = vec![(Vec::new(), Vec::new()); nq];
        topk::score_topk_multi_into(
            table.as_slice()?,
            queries,
            nq,
            c,
            decode.k,
            &mut topk::TopkScratch::default(),
            &mut best,
        );
        Ok(best)
    }

    /// Latency of a forward pass over `batch` fused requests on `device`.
    pub fn latency(&self, device: &DeviceProfile, batch: usize) -> Duration {
        device.latency(&self.cost.at_batch(batch))
    }
}

/// Compiles a traced graph with the given passes.
pub fn compile(graph: Graph, options: JitOptions) -> Result<CompiledGraph, JitError> {
    let mut g = graph;
    if options.const_fold {
        g = const_fold(g)?;
    }
    if options.pre_transpose {
        g = pre_transpose(g)?;
    }
    if options.fuse {
        g = fuse_elementwise(g)?;
    }
    if options.dce {
        g = dce(g);
    }
    let cost = g.total_cost();
    let decode = FusedDecode::of(&g);
    let plan = Plan::lower(&g)?;
    Ok(CompiledGraph {
        graph: g,
        cost,
        plan,
        decode,
    })
}

fn node_shapes<'a>(g: &'a Graph, inputs: &[NodeId]) -> Vec<&'a [usize]> {
    inputs
        .iter()
        .map(|&i| g.nodes[i].shape.as_slice())
        .collect()
}

fn recost(g: &Graph, kind: &OpKind, inputs: &[NodeId], shape: &[usize]) -> CostSpec {
    let shapes = node_shapes(g, inputs);
    let const_flags: Vec<bool> = inputs
        .iter()
        .map(|&i| matches!(g.nodes[i].kind, OpKind::Const(_)))
        .collect();
    op_cost(kind, &shapes, &const_flags, shape)
}

/// Evaluates weight-only subgraphs at compile time.
fn const_fold(mut g: Graph) -> Result<Graph, JitError> {
    // values[i] holds the materialised constant for foldable nodes.
    let mut values: HashMap<NodeId, Arc<Tensor>> = HashMap::new();
    for (&id, t) in &g.consts {
        values.insert(id, Arc::clone(t));
    }
    for id in 0..g.nodes.len() {
        let node = &g.nodes[id];
        match &node.kind {
            OpKind::Input(_) | OpKind::Const(_) => continue,
            // Folding TopK/ScoreTopK/HostOp would hide quirk semantics;
            // skip them.
            OpKind::TopK { .. } | OpKind::ScoreTopK { .. } | OpKind::HostOp => continue,
            kind => {
                if !node.inputs.iter().all(|i| values.contains_key(i)) {
                    continue;
                }
                let operand_arcs: Vec<Arc<Tensor>> =
                    node.inputs.iter().map(|i| Arc::clone(&values[i])).collect();
                let operands: Vec<&Tensor> = operand_arcs.iter().map(|a| a.as_ref()).collect();
                let folded = crate::graph::eval(kind, &operands, &node.shape)?;
                let param = Param::new(folded);
                let shape = node.shape.clone();
                g.nodes[id] = Node {
                    kind: OpKind::Const(param.id()),
                    inputs: vec![],
                    shape,
                    cost: CostSpec::default(),
                };
                g.consts.insert(id, param.shared());
                values.insert(id, param.shared());
            }
        }
    }
    Ok(g)
}

/// Rewrites `MatMul(x, W)` with constant `W` into `MatMulBT(x, Wᵀ)`.
fn pre_transpose(mut g: Graph) -> Result<Graph, JitError> {
    for id in 0..g.nodes.len() {
        if g.nodes[id].kind != OpKind::MatMul {
            continue;
        }
        let rhs = g.nodes[id].inputs[1];
        if !matches!(g.nodes[rhs].kind, OpKind::Const(_)) {
            continue;
        }
        // Only transpose weights that feed solely matmuls; a shared weight
        // consumed elsewhere keeps its original layout and we skip it.
        let shared_elsewhere = g.nodes.iter().enumerate().any(|(j, n)| {
            j != id && n.inputs.contains(&rhs) && !(n.kind == OpKind::MatMul && n.inputs[1] == rhs)
        });
        if shared_elsewhere {
            continue;
        }
        let w = Arc::clone(&g.consts[&rhs]);
        let (k, n) = w.dims2("pre_transpose")?;
        // Phantom weights (cost-only model instances) keep phantom
        // transposes; dense weights are transposed for real.
        let wt = if w.is_phantom() {
            Param::new(Tensor::phantom(&[n, k]))
        } else {
            let mut out = vec![0.0; k * n];
            crate::kernels::transpose(w.as_slice()?, &mut out, k, n);
            Param::new(Tensor::from_vec(out, &[n, k])?)
        };
        g.nodes[rhs] = Node {
            kind: OpKind::Const(wt.id()),
            inputs: vec![],
            shape: vec![n, k],
            cost: CostSpec::default(),
        };
        g.consts.insert(rhs, wt.shared());
        let inputs = g.nodes[id].inputs.clone();
        let shape = g.nodes[id].shape.clone();
        let cost = recost(&g, &OpKind::MatMulBT, &inputs, &shape);
        g.nodes[id].kind = OpKind::MatMulBT;
        g.nodes[id].cost = cost;
        // Rewrite sibling matmuls that shared this weight.
        for j in 0..g.nodes.len() {
            if j != id && g.nodes[j].kind == OpKind::MatMul && g.nodes[j].inputs[1] == rhs {
                let inputs = g.nodes[j].inputs.clone();
                let shape = g.nodes[j].shape.clone();
                let cost = recost(&g, &OpKind::MatMulBT, &inputs, &shape);
                g.nodes[j].kind = OpKind::MatMulBT;
                g.nodes[j].cost = cost;
            }
        }
    }
    Ok(g)
}

fn consumer_counts(g: &Graph) -> Vec<usize> {
    let mut counts = vec![0usize; g.nodes.len()];
    for node in &g.nodes {
        for &i in &node.inputs {
            counts[i] += 1;
        }
    }
    counts[g.output] += 1;
    counts
}

/// Fuses elementwise chains into single kernels.
///
/// A chain starts at a `Binary`, `Unary` or `BinaryScalar` node and
/// extends through successive `Unary`/`BinaryScalar` nodes that are each
/// the *sole* consumer of their predecessor. The chain is replaced by one
/// [`OpKind::Fused`] node.
fn fuse_elementwise(g: Graph) -> Result<Graph, JitError> {
    let counts = consumer_counts(&g);
    // For each node, find the node that extends it (its unique elementwise
    // consumer), if any.
    let mut extended_by: Vec<Option<NodeId>> = vec![None; g.nodes.len()];
    for (id, node) in g.nodes.iter().enumerate() {
        if let OpKind::Unary(_) | OpKind::BinaryScalar(..) = node.kind {
            let prev = node.inputs[0];
            if g.nodes[prev].kind.is_elementwise() && counts[prev] == 1 && g.output != prev {
                extended_by[prev] = Some(id);
            }
        }
    }
    // A node is absorbed if some chain passes through it (it has an
    // extension and is itself elementwise).
    let mut absorbed = vec![false; g.nodes.len()];
    for (id, ext) in extended_by.iter().enumerate() {
        if ext.is_some() && g.nodes[id].kind.is_elementwise() {
            absorbed[id] = true;
        }
    }
    // Rebuild: chain heads become Fused nodes placed at the position of the
    // chain's *tail* (so all operands precede them); absorbed nodes vanish.
    let mut new_nodes: Vec<Node> = Vec::with_capacity(g.nodes.len());
    let mut new_consts = HashMap::new();
    let mut remap: Vec<Option<NodeId>> = vec![None; g.nodes.len()];

    for (id, node) in g.nodes.iter().enumerate() {
        if absorbed[id] {
            continue;
        }
        // Is this node the tail of a chain of length >= 2?
        let mut chain = vec![id];
        let mut cur = id;
        while let OpKind::Unary(_) | OpKind::BinaryScalar(..) = g.nodes[cur].kind {
            let prev = g.nodes[cur].inputs[0];
            if absorbed[prev] {
                chain.push(prev);
                cur = prev;
            } else {
                break;
            }
        }
        let new_id = new_nodes.len();
        if chain.len() >= 2 {
            chain.reverse(); // head first
            let head = chain[0];
            let head_node = &g.nodes[head];
            let (seed, mut steps, operands) = match &head_node.kind {
                OpKind::Binary(op) => (Some(*op), Vec::new(), head_node.inputs.clone()),
                OpKind::Unary(u) => (None, vec![FusedStep::Unary(*u)], head_node.inputs.clone()),
                OpKind::BinaryScalar(op, s) => (
                    None,
                    vec![FusedStep::Scalar(*op, *s)],
                    head_node.inputs.clone(),
                ),
                _ => unreachable!("chain heads are elementwise"),
            };
            for &link in &chain[1..] {
                match &g.nodes[link].kind {
                    OpKind::Unary(u) => steps.push(FusedStep::Unary(*u)),
                    OpKind::BinaryScalar(op, s) => steps.push(FusedStep::Scalar(*op, *s)),
                    _ => unreachable!("chain links are unary/scalar"),
                }
            }
            let inputs: Vec<NodeId> = operands
                .iter()
                .map(|&i| remap[i].ok_or(TensorError::InvalidRef { index: i }))
                .collect::<Result<_, _>>()?;
            let kind = OpKind::Fused { seed, steps };
            let shape = node.shape.clone();
            let shapes: Vec<&[usize]> = inputs
                .iter()
                .map(|&i| new_nodes[i].shape.as_slice())
                .collect();
            let const_flags: Vec<bool> = inputs
                .iter()
                .map(|&i| matches!(new_nodes[i].kind, OpKind::Const(_)))
                .collect();
            let cost = op_cost(&kind, &shapes, &const_flags, &shape);
            new_nodes.push(Node {
                kind,
                inputs,
                shape,
                cost,
            });
        } else {
            let inputs: Vec<NodeId> = node
                .inputs
                .iter()
                .map(|&i| remap[i].ok_or(TensorError::InvalidRef { index: i }))
                .collect::<Result<_, _>>()?;
            let mut n = node.clone();
            n.inputs = inputs;
            if let OpKind::Const(_) = n.kind {
                new_consts.insert(new_id, Arc::clone(&g.consts[&id]));
            }
            new_nodes.push(n);
        }
        remap[id] = Some(new_id);
    }
    let output = remap[g.output].ok_or(TensorError::InvalidRef { index: g.output })?;
    Ok(Graph {
        nodes: new_nodes,
        consts: new_consts,
        n_inputs: g.n_inputs,
        output,
    })
}

/// Removes nodes unreachable from the output. Inputs are always retained
/// so graph arity is stable.
fn dce(g: Graph) -> Graph {
    let mut live = vec![false; g.nodes.len()];
    let mut stack = vec![g.output];
    while let Some(id) = stack.pop() {
        if live[id] {
            continue;
        }
        live[id] = true;
        for &i in &g.nodes[id].inputs {
            stack.push(i);
        }
    }
    for (id, node) in g.nodes.iter().enumerate() {
        if matches!(node.kind, OpKind::Input(_)) {
            live[id] = true;
        }
    }
    let mut remap: Vec<Option<NodeId>> = vec![None; g.nodes.len()];
    let mut new_nodes = Vec::new();
    let mut new_consts = HashMap::new();
    for (id, node) in g.nodes.iter().enumerate() {
        if !live[id] {
            continue;
        }
        let new_id = new_nodes.len();
        let mut n = node.clone();
        n.inputs = n
            .inputs
            .iter()
            .map(|&i| remap[i].expect("live inputs"))
            .collect();
        if let OpKind::Const(_) = n.kind {
            new_consts.insert(new_id, Arc::clone(&g.consts[&id]));
        }
        new_nodes.push(n);
        remap[id] = Some(new_id);
    }
    Graph {
        nodes: new_nodes,
        consts: new_consts,
        n_inputs: g.n_inputs,
        output: remap[g.output].expect("output is live"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;
    use crate::exec::{Exec, ExecMode};
    use crate::kernels::{BinOp, UnOp};

    /// Builds `tanh(relu(x*2 + noise_const) @ W)`-style graph exercising
    /// every pass.
    fn sample_graph() -> (Graph, Tensor) {
        let w = Param::new(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap());
        let bias_a = Param::new(Tensor::from_vec(vec![1.0, 1.0], &[2]).unwrap());
        let bias_b = Param::new(Tensor::from_vec(vec![0.5, -0.5], &[2]).unwrap());
        let mut t = Exec::new(ExecMode::Trace, Device::cpu());
        let x = t.input(Tensor::phantom(&[1, 2])).unwrap();
        // const-foldable subgraph: bias = bias_a + bias_b
        let ba = t.param(&bias_a).unwrap();
        let bb = t.param(&bias_b).unwrap();
        let bias = t.add(ba, bb).unwrap();
        let wr = t.param(&w).unwrap();
        let y = t.matmul(x, wr).unwrap();
        let y = t.binary_row(BinOp::Add, y, bias).unwrap();
        // fusible chain
        let y = t.scalar(BinOp::Mul, y, 0.5).unwrap();
        let y = t.unary(UnOp::Tanh, y).unwrap();
        // dead code
        let _dead = t.relu(y).unwrap();
        let out = t.scalar(BinOp::Add, y, 1.0).unwrap();
        let g = t.finish_trace(out).unwrap();
        let input = Tensor::from_vec(vec![0.3, -0.7], &[1, 2]).unwrap();
        (g, input)
    }

    #[test]
    fn compiled_output_matches_uncompiled() {
        let (g, x) = sample_graph();
        let (expected, _) = g.run(std::slice::from_ref(&x)).unwrap();
        let compiled = compile(g, JitOptions::default()).unwrap();
        let (got, _) = compiled.run(std::slice::from_ref(&x)).unwrap();
        assert!(expected.max_abs_diff(&got).unwrap() < 1e-6);
    }

    #[test]
    fn plan_reuses_dead_values_and_aliases_reshapes() {
        // relu → reshape → tanh → reshape → sigmoid ... over [64]: with
        // fusion off, every op's value dies at the next op, so the arena
        // holds two values however long the chain, and reshapes take none.
        let mut t = Exec::new(ExecMode::Trace, Device::cpu());
        let mut y = t.input(Tensor::phantom(&[64])).unwrap();
        for i in 0..12 {
            y = t
                .unary([UnOp::Relu, UnOp::Tanh, UnOp::Sigmoid][i % 3], y)
                .unwrap();
            y = t
                .reshape(y, if i % 2 == 0 { &[8, 8] } else { &[64] })
                .unwrap();
        }
        let g = t.finish_trace(y).unwrap();
        let options = JitOptions {
            fuse: false,
            ..JitOptions::default()
        };
        let compiled = compile(g, options).unwrap();
        assert_eq!(compiled.plan.as_ref().unwrap().arena_len(), 2 * 64);
        let x = Tensor::from_vec((0..64).map(|i| i as f32 / 8.0 - 4.0).collect(), &[64]).unwrap();
        let (got, _) = compiled.run(std::slice::from_ref(&x)).unwrap();
        let (want, _) = compiled.graph().run(&[x]).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn phantom_weights_run_eagerly() {
        let w = Param::new(Tensor::phantom(&[4, 4]));
        let mut t = Exec::new(ExecMode::Trace, Device::cpu());
        let x = t.input(Tensor::phantom(&[1, 4])).unwrap();
        let wr = t.param(&w).unwrap();
        let y = t.matmul(x, wr).unwrap();
        let compiled = compile(t.finish_trace(y).unwrap(), JitOptions::default()).unwrap();
        assert!(compiled.plan.is_none());
        let (out, cost) = compiled.run(&[Tensor::zeros(&[1, 4])]).unwrap();
        assert!(out.is_phantom());
        assert_eq!(cost.launches, 1);
    }

    #[test]
    fn jit_reduces_launches_and_never_increases_cost() {
        let (g, _) = sample_graph();
        let base = compile(g.clone(), JitOptions::none()).unwrap();
        let opt = compile(g, JitOptions::default()).unwrap();
        let b = base.cost().at_batch(1);
        let o = opt.cost().at_batch(1);
        assert!(o.launches < b.launches, "{} !< {}", o.launches, b.launches);
        assert!(o.bytes <= b.bytes);
        assert!(o.flops <= b.flops + 1.0);
    }

    #[test]
    fn const_fold_removes_weight_only_ops() {
        let (g, _) = sample_graph();
        let folded = const_fold(g).unwrap();
        // bias add became a const
        let const_count = folded
            .nodes
            .iter()
            .filter(|n| matches!(n.kind, OpKind::Const(_)))
            .count();
        assert!(const_count >= 4, "expected folded const, got {const_count}");
        let binary_adds = folded
            .nodes
            .iter()
            .filter(|n| matches!(n.kind, OpKind::Binary(BinOp::Add)))
            .count();
        assert_eq!(binary_adds, 0);
    }

    #[test]
    fn pre_transpose_rewrites_const_matmuls() {
        let (g, x) = sample_graph();
        let (expected, _) = g.run(std::slice::from_ref(&x)).unwrap();
        let g2 = pre_transpose(g).unwrap();
        assert!(g2.nodes.iter().any(|n| n.kind == OpKind::MatMulBT));
        assert!(!g2.nodes.iter().any(|n| n.kind == OpKind::MatMul));
        let (got, _) = g2.run(&[x]).unwrap();
        assert!(expected.max_abs_diff(&got).unwrap() < 1e-6);
    }

    #[test]
    fn fusion_preserves_semantics_on_branching_graphs() {
        // y is consumed twice: chain must NOT absorb it.
        let mut t = Exec::new(ExecMode::Trace, Device::cpu());
        let x = t.input(Tensor::phantom(&[4])).unwrap();
        let y = t.relu(x).unwrap();
        let a = t.tanh(y).unwrap();
        let b = t.sigmoid(y).unwrap();
        let out = t.add(a, b).unwrap();
        let g = t.finish_trace(out).unwrap();
        let input = Tensor::from_vec(vec![-1.0, 0.0, 0.5, 2.0], &[4]).unwrap();
        let (expected, _) = g.run(std::slice::from_ref(&input)).unwrap();
        let fused = fuse_elementwise(g).unwrap();
        let (got, _) = fused.run(&[input]).unwrap();
        assert!(expected.max_abs_diff(&got).unwrap() < 1e-6);
    }

    #[test]
    fn dce_drops_dead_nodes_only() {
        let (g, x) = sample_graph();
        let before = g.nodes.len();
        let (expected, _) = g.run(std::slice::from_ref(&x)).unwrap();
        let g2 = dce(g);
        assert!(g2.nodes.len() < before);
        let (got, _) = g2.run(&[x]).unwrap();
        assert!(expected.max_abs_diff(&got).unwrap() < 1e-6);
    }

    #[test]
    fn compiled_latency_scales_with_batch_sublinearly_on_gpu() {
        // A weight-dominated graph should amortise across a batch.
        let w = Param::new(Tensor::zeros(&[512, 512]));
        let mut t = Exec::new(ExecMode::Trace, Device::t4());
        let x = t.input(Tensor::phantom(&[1, 512])).unwrap();
        let wr = t.param(&w).unwrap();
        let y = t.matmul(x, wr).unwrap();
        let g = t.finish_trace(y).unwrap();
        let c = compile(g, JitOptions::default()).unwrap();
        let t4 = crate::device::DeviceProfile::gpu_t4();
        let l1 = c.latency(&t4, 1).as_secs_f64();
        let l64 = c.latency(&t4, 64).as_secs_f64();
        assert!(
            l64 < 64.0 * l1 * 0.25,
            "batching should amortise: {l1} vs {l64}"
        );
    }
}
