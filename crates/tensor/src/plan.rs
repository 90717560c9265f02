//! The execution plan a [`crate::jit::CompiledGraph`] runs on.
//!
//! [`Plan::lower`] turns an optimised graph into what its run needs and
//! nothing else, decided once at compile time:
//!
//! * the ops in topological order, each with its operand slots;
//! * every value an offset in **one** `f32` arena, assigned by liveness:
//!   a value's floats are handed to a later value once the last op that
//!   reads them has run, so the arena is as large as the most floats
//!   alive at once, not as the sum of all values;
//! * `Reshape` and `HostOp` as aliases of their operand and `SliceRows`
//!   as a window of it, not copies;
//! * constants borrowed from the graph's payloads (one `Arc` per
//!   constant, cloned at lowering, never per run);
//! * the run's [`Cost`], summed in [`Graph::run`]'s order.
//!
//! A run executes the steps on a per-thread arena that is sized on first
//! use and then reused, so a warm run makes no heap allocation of its
//! own: the only allocation left on the path is the output tensor. Every
//! op is [`graph::eval_into`], the definition eager [`Graph::run`] calls
//! too, so a plan's result is bit-identical to the eager reference.

use crate::cost::Cost;
use crate::graph::{self, Graph, NodeId, OpKind, OpTimes, View};
use crate::tensor::{Tensor, TensorError};
use std::cell::RefCell;
use std::sync::Arc;

/// Most operands any op takes (`GruCell`'s six).
const MAX_OPERANDS: usize = 6;

/// Arena offsets are multiples of this many floats (32 bytes).
const ALIGN: usize = 8;

/// Where a value's elements live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Home {
    /// The run's external input at this position.
    Input(usize),
    /// `Plan::consts[i]`.
    Const(usize),
    /// The per-thread arena.
    Arena,
}

/// A value: `len` floats from `offset` of its home.
#[derive(Debug, Clone, Copy)]
struct Slot {
    home: Home,
    offset: usize,
    len: usize,
}

/// One op of the plan: its node, and the arena floats after its output
/// that it may use as scratch while it runs.
#[derive(Debug, Clone, Copy)]
struct Step {
    node: NodeId,
    scratch: usize,
}

/// A lowered graph: see the module docs.
#[derive(Debug, Clone)]
pub(crate) struct Plan {
    steps: Vec<Step>,
    /// One per node `0..=output`.
    slots: Vec<Slot>,
    consts: Vec<Arc<Tensor>>,
    arena_len: usize,
    cost: Cost,
}

impl Plan {
    /// Lowers nodes `0..=graph.output`. `None` when a constant is
    /// phantom: a cost-only model has no data to plan for, and its graph
    /// runs eagerly, propagating phantoms.
    pub(crate) fn lower(graph: &Graph) -> Result<Option<Plan>, TensorError> {
        let nodes = graph
            .nodes
            .get(..=graph.output)
            .ok_or(TensorError::InvalidRef {
                index: graph.output,
            })?;
        // `root[v]`: the node whose storage value `v` lives in (itself,
        // unless `v` is an alias); `last_use[r]`: the last node reading
        // storage `r`. The output's storage is never released.
        let mut root: Vec<NodeId> = (0..nodes.len()).collect();
        let mut last_use: Vec<usize> = (0..nodes.len()).collect();
        for (id, node) in nodes.iter().enumerate() {
            if node.inputs.len() > MAX_OPERANDS {
                return Err(TensorError::Invalid("op has too many operands"));
            }
            if is_view(&node.kind) {
                root[id] = root[node.inputs[0]];
            }
            for &i in &node.inputs {
                last_use[root[i]] = id;
            }
        }
        last_use[root[graph.output]] = usize::MAX;

        let mut arena = FirstFit::default();
        let mut slots: Vec<Slot> = Vec::with_capacity(nodes.len());
        let mut steps = Vec::new();
        let mut consts = Vec::new();
        let mut cost = Cost::ZERO;
        for (id, node) in nodes.iter().enumerate() {
            let len = node.shape.iter().product();
            let slot = match &node.kind {
                OpKind::Input(pos) => Slot {
                    home: Home::Input(*pos),
                    offset: 0,
                    len,
                },
                OpKind::Const(_) => {
                    let payload = graph
                        .consts
                        .get(&id)
                        .ok_or(TensorError::Invalid("missing const payload"))?;
                    if payload.is_phantom() {
                        return Ok(None);
                    }
                    consts.push(Arc::clone(payload));
                    Slot {
                        home: Home::Const(consts.len() - 1),
                        offset: 0,
                        len,
                    }
                }
                OpKind::Reshape(_) | OpKind::HostOp => slots[node.inputs[0]],
                OpKind::SliceRows { start, .. } => {
                    let of = slots[node.inputs[0]];
                    let width = graph.nodes[node.inputs[0]].shape[1];
                    Slot {
                        offset: of.offset + start * width,
                        len,
                        ..of
                    }
                }
                kind => {
                    // The scratch follows the output and is free again
                    // for every later op.
                    let scratch = graph::scratch_len(kind, &node.shape);
                    let out_len = len.next_multiple_of(ALIGN);
                    let offset = arena.take(out_len + scratch);
                    arena.give(offset + out_len, scratch);
                    steps.push(Step { node: id, scratch });
                    Slot {
                        home: Home::Arena,
                        offset,
                        len,
                    }
                }
            };
            slots.push(slot);
            if !matches!(node.kind, OpKind::Input(_) | OpKind::Const(_)) {
                cost += node.cost.at_batch(1);
            }
            // Storage whose last reader is this node goes back to the
            // arena, once however many operands share it, and so does
            // this node's own if nothing reads it.
            let mut released = [usize::MAX; MAX_OPERANDS + 1];
            let own = (root[id] == id).then_some(id);
            for (k, r) in node.inputs.iter().map(|&i| root[i]).chain(own).enumerate() {
                if last_use[r] == id && !released.contains(&r) && slots[r].home == Home::Arena {
                    arena.give(slots[r].offset, slots[r].len);
                    released[k] = r;
                }
            }
        }
        Ok(Some(Plan {
            steps,
            slots,
            consts,
            arena_len: arena.top,
            cost,
        }))
    }

    /// Floats of arena a run needs.
    #[cfg(test)]
    pub(crate) fn arena_len(&self) -> usize {
        self.arena_len
    }

    /// Runs the whole plan on dense `inputs` and returns the graph's
    /// output, the realised cost at batch size one and, when `times` is
    /// given, the op times added to it.
    pub(crate) fn run(
        &self,
        graph: &Graph,
        inputs: &[Tensor],
        times: Option<&mut OpTimes>,
    ) -> Result<(Tensor, Cost), TensorError> {
        let out =
            self.run_prefix(graph, inputs, self.steps.len(), graph.output, times, |v| {
                Tensor::from_vec(v.to_vec(), &graph.nodes[graph.output].shape)
            })??;
        Ok((out, self.cost))
    }

    /// Runs every step but the last — the decode scan of a graph whose
    /// output is a `ScoreTopK` over `query` — and returns `f` of the
    /// query vector, still in the arena: its storage is released only
    /// after the scan that reads it.
    pub(crate) fn run_query<R>(
        &self,
        graph: &Graph,
        inputs: &[Tensor],
        query: NodeId,
        times: &mut OpTimes,
        f: impl FnOnce(&[f32]) -> R,
    ) -> Result<R, TensorError> {
        let steps = self.steps.len().saturating_sub(1);
        self.run_prefix(graph, inputs, steps, query, Some(times), f)
    }

    /// Runs `steps[..steps]` on this thread's arena and hands `f` the
    /// value of node `value`.
    fn run_prefix<R>(
        &self,
        graph: &Graph,
        inputs: &[Tensor],
        steps: usize,
        value: NodeId,
        mut times: Option<&mut OpTimes>,
        f: impl FnOnce(&[f32]) -> R,
    ) -> Result<R, TensorError> {
        self.check_inputs(graph, inputs)?;
        with_arena(self.arena_len, |arena| {
            for step in &self.steps[..steps] {
                self.exec(graph, inputs, arena, *step, times.as_deref_mut())?;
            }
            let slot = self.slots[value];
            Ok(f(self.read(slot, inputs, arena)?))
        })
    }

    /// [`Graph::run`]'s input checks: every input the plan reads is
    /// present, dense and of its node's shape.
    fn check_inputs(&self, graph: &Graph, inputs: &[Tensor]) -> Result<(), TensorError> {
        for node in &graph.nodes[..self.slots.len()] {
            let OpKind::Input(pos) = node.kind else {
                continue;
            };
            let t = inputs
                .get(pos)
                .ok_or(TensorError::Invalid("missing graph input"))?;
            if t.shape() != node.shape.as_slice() {
                return Err(TensorError::ShapeMismatch {
                    op: "graph input",
                    lhs: t.shape().to_vec(),
                    rhs: node.shape.clone(),
                });
            }
            t.as_slice()?;
        }
        Ok(())
    }

    /// Runs one op. The arena is split around the op's output and
    /// scratch; lowering placed every operand it reads outside that
    /// range, in `below` or `above`.
    fn exec(
        &self,
        graph: &Graph,
        inputs: &[Tensor],
        arena: &mut [f32],
        step: Step,
        times: Option<&mut OpTimes>,
    ) -> Result<(), TensorError> {
        let node = &graph.nodes[step.node];
        let out = self.slots[step.node];
        let end = out.offset + out.len + step.scratch;
        let (below, rest) = arena.split_at_mut(out.offset);
        let (mine, above) = rest.split_at_mut(end - out.offset);
        let (out_data, scratch) = mine.split_at_mut(out.len);
        let (below, above): (&[f32], &[f32]) = (below, above);
        let mut operands = [View::EMPTY; MAX_OPERANDS];
        for (view, &i) in operands.iter_mut().zip(&node.inputs) {
            let slot = self.slots[i];
            let data = match slot.home {
                Home::Arena if slot.offset + slot.len <= out.offset => {
                    &below[slot.offset..slot.offset + slot.len]
                }
                Home::Arena if slot.offset >= end => {
                    &above[slot.offset - end..slot.offset - end + slot.len]
                }
                Home::Arena => {
                    return Err(TensorError::Invalid("operand overlaps its op's output"))
                }
                _ => self.read(slot, inputs, &[])?,
            };
            *view = View {
                data,
                shape: &graph.nodes[i].shape,
            };
        }
        let operands = &operands[..node.inputs.len()];
        match times {
            Some(t) => {
                let start = std::time::Instant::now();
                graph::eval_into(&node.kind, operands, out_data, scratch)?;
                t.add(&node.kind, start.elapsed());
            }
            None => graph::eval_into(&node.kind, operands, out_data, scratch)?,
        }
        Ok(())
    }

    /// The elements of `slot`.
    fn read<'a>(
        &'a self,
        slot: Slot,
        inputs: &'a [Tensor],
        arena: &'a [f32],
    ) -> Result<&'a [f32], TensorError> {
        let data = match slot.home {
            Home::Input(pos) => inputs[pos].as_slice()?,
            Home::Const(i) => self.consts[i].as_slice()?,
            Home::Arena => arena,
        };
        Ok(&data[slot.offset..slot.offset + slot.len])
    }
}

/// Whether `kind`'s value is (a window of) its operand's storage.
fn is_view(kind: &OpKind) -> bool {
    matches!(
        kind,
        OpKind::Reshape(_) | OpKind::HostOp | OpKind::SliceRows { .. }
    )
}

/// First-fit assignment of arena ranges, run once at lowering: a range
/// given back is reused by the first later request it fits, and the
/// arena grows only when none does.
#[derive(Debug, Default)]
struct FirstFit {
    /// Free ranges `(offset, len)`, sorted, never adjacent.
    free: Vec<(usize, usize)>,
    /// The arena's length so far.
    top: usize,
}

impl FirstFit {
    fn take(&mut self, len: usize) -> usize {
        let len = len.next_multiple_of(ALIGN);
        if len == 0 {
            return 0;
        }
        if let Some(k) = self.free.iter().position(|&(_, l)| l >= len) {
            let (offset, l) = self.free[k];
            if l == len {
                self.free.remove(k);
            } else {
                self.free[k] = (offset + len, l - len);
            }
            return offset;
        }
        // A free range at the end grows in place.
        let offset = match self.free.last() {
            Some(&(offset, l)) if offset + l == self.top => {
                self.free.pop();
                offset
            }
            _ => self.top,
        };
        self.top = offset + len;
        offset
    }

    fn give(&mut self, offset: usize, len: usize) {
        let len = len.next_multiple_of(ALIGN);
        if len == 0 {
            return;
        }
        let k = self.free.partition_point(|&(o, _)| o < offset);
        self.free.insert(k, (offset, len));
        if k + 1 < self.free.len() && offset + len == self.free[k + 1].0 {
            self.free[k].1 += self.free.remove(k + 1).1;
        }
        if k > 0 && self.free[k - 1].0 + self.free[k - 1].1 == offset {
            self.free[k - 1].1 += self.free.remove(k).1;
        }
    }
}

thread_local! {
    /// The arena every plan run on this thread executes in, grown to the
    /// largest plan it has run.
    static ARENA: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` on `len` floats of this thread's arena (a fresh buffer if a
/// run is already using it).
fn with_arena<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    ARENA.with(|cell| match cell.try_borrow_mut() {
        Ok(mut arena) => {
            if arena.len() < len {
                arena.resize(len, 0.0);
            }
            f(&mut arena[..len])
        }
        Err(_) => f(&mut vec![0.0; len]),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_fit_reuses_given_ranges_and_coalesces() {
        let mut a = FirstFit::default();
        let x = a.take(10); // 16 floats
        let y = a.take(8);
        let z = a.take(3);
        assert_eq!((x, y, z), (0, 16, 24));
        a.give(x, 10);
        a.give(y, 8);
        // The two neighbours merged: 24 floats fit without growing.
        assert_eq!(a.take(24), 0);
        assert_eq!(a.top, 32);
        a.give(z, 3);
        // A range ending at the top grows in place.
        assert_eq!(a.take(16), 24);
        assert_eq!(a.top, 40);
    }
}
