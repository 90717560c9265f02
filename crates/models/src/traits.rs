//! The [`SbrModel`] trait, the model registry and execution helpers
//! (eager recommendation, cost probing, tracing and JIT compilation).

use crate::common::{prepare_session, register_session};
use crate::config::ModelConfig;
use etude_tensor::{
    f32_to_id, jit, CompiledGraph, Cost, Device, Exec, ExecMode, JitError, JitOptions,
    SessionInput, TRef, Tensor, TensorError,
};

/// A session-based recommendation model.
///
/// `forward` encodes the (padded) session and returns a `[2, k]` tensor:
/// row 0 holds bit-cast item ids, row 1 their scores. The same
/// implementation serves eager execution, cost-only estimation and JIT
/// tracing, depending on the [`Exec`] mode.
pub trait SbrModel: Send + Sync {
    /// Stable model name as used in the paper (e.g. `"gru4rec"`).
    fn name(&self) -> &'static str;

    /// The model's configuration.
    fn config(&self) -> &ModelConfig;

    /// Runs inference for one session.
    fn forward(&self, exec: &mut Exec, input: SessionInput) -> Result<TRef, TensorError>;
}

/// The result of one inference: ranked item ids with scores.
#[derive(Debug, Clone, PartialEq)]
pub struct Recommendation {
    /// Recommended item ids, best first.
    pub items: Vec<u32>,
    /// Inner-product scores aligned with `items`.
    pub scores: Vec<f32>,
}

impl Recommendation {
    /// Decodes a `[2, k]` output tensor into a recommendation.
    pub fn from_output(t: &Tensor) -> Result<Recommendation, TensorError> {
        let (rows, k) = t.dims2("recommendation output")?;
        if rows != 2 {
            return Err(TensorError::Invalid("expected [2, k] output"));
        }
        if t.is_phantom() {
            // Cost-only runs produce no item data.
            return Ok(Recommendation {
                items: vec![0; k],
                scores: vec![0.0; k],
            });
        }
        let data = t.as_slice()?;
        Ok(Recommendation {
            items: data[..k].iter().map(|&x| f32_to_id(x)).collect(),
            scores: data[k..].to_vec(),
        })
    }
}

/// Runs eager inference for a session and returns the recommendation.
pub fn recommend_eager(
    model: &dyn SbrModel,
    device: &Device,
    session: &[u32],
) -> Result<Recommendation, TensorError> {
    let cfg = model.config();
    let (items, mask, last) = prepare_session(session, cfg);
    let mut exec = Exec::new(ExecMode::Real, device.clone());
    let input = register_session(&mut exec, items, mask, last)?;
    let out = model.forward(&mut exec, input)?;
    Recommendation::from_output(exec.tensor(out)?)
}

/// Wall-time decomposition of one forward pass into the serving
/// pipeline's model-side stages.
///
/// The top-k selection over the catalogue executes *inside* the forward
/// graph (it is a `TopK` op), yet the paper reports it as its own
/// pipeline stage — this struct carries the split out of the tensor
/// layer's [`etude_tensor::OpTimes`] accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Forward-pass time excluding top-k selection.
    pub inference: std::time::Duration,
    /// Time spent selecting the top-k items over the catalogue.
    pub topk: std::time::Duration,
}

impl StageTimings {
    fn from_op_times(wall: std::time::Duration, ops: etude_tensor::OpTimes) -> StageTimings {
        // Attribute non-op overhead (session prep, arena bookkeeping) to
        // inference so the two components tile the measured wall time.
        StageTimings {
            inference: wall.saturating_sub(ops.topk),
            topk: ops.topk,
        }
    }
}

/// Like [`recommend_eager`], but also returns the inference/top-k wall
/// time split for stage-level observability.
pub fn recommend_eager_timed(
    model: &dyn SbrModel,
    device: &Device,
    session: &[u32],
) -> Result<(Recommendation, StageTimings), TensorError> {
    let cfg = model.config();
    let (items, mask, last) = prepare_session(session, cfg);
    let start = std::time::Instant::now();
    let mut exec = Exec::new(ExecMode::Real, device.clone());
    exec.enable_op_timing();
    let input = register_session(&mut exec, items, mask, last)?;
    let out = model.forward(&mut exec, input)?;
    let rec = Recommendation::from_output(exec.tensor(out)?)?;
    let timings = StageTimings::from_op_times(start.elapsed(), exec.op_times().unwrap_or_default());
    Ok((rec, timings))
}

/// Measures the total operation cost of one forward pass.
///
/// `session_len` controls only the *content* of the inputs; the padded
/// shape (and therefore the cost) is determined by the configuration.
pub fn forward_cost(
    model: &dyn SbrModel,
    device: &Device,
    mode: ExecMode,
    session_len: usize,
) -> Result<Cost, TensorError> {
    let cfg = model.config();
    let session: Vec<u32> = (1..=session_len.max(1) as u32)
        .map(|i| i % cfg.catalog_size.max(1) as u32)
        .collect();
    let (items, mask, last) = prepare_session(&session, cfg);
    let mut exec = Exec::new(mode, device.clone());
    let input = register_session(&mut exec, items, mask, last)?;
    model.forward(&mut exec, input)?;
    Ok(exec.cost().total())
}

/// Traces a model's forward pass into a dataflow graph.
pub fn trace(model: &dyn SbrModel) -> Result<etude_tensor::Graph, JitError> {
    let cfg = model.config();
    let (items, mask, last) = prepare_session(&[1, 2], cfg);
    let mut exec = Exec::new(ExecMode::Trace, Device::cpu());
    let input = register_session(&mut exec, items, mask, last)?;
    let out = model.forward(&mut exec, input)?;
    Ok(exec.finish_trace(out)?)
}

/// Traces and JIT-compiles a model — the reproduction of
/// `torch.jit.optimize_for_inference`. Models with data-dependent control
/// flow (quirky LightSANs) fail with
/// [`JitError::DynamicControlFlow`], matching the paper's finding.
pub fn compile(model: &dyn SbrModel, options: JitOptions) -> Result<CompiledGraph, JitError> {
    let graph = trace(model)?;
    jit::compile(graph, options)
}

/// Runs inference through a compiled graph.
pub fn recommend_compiled(
    model: &dyn SbrModel,
    compiled: &CompiledGraph,
    session: &[u32],
) -> Result<Recommendation, TensorError> {
    let (items, mask, last) = prepare_session(session, model.config());
    let (out, _) = compiled.run(&[items, mask, last])?;
    Recommendation::from_output(&out)
}

/// Like [`recommend_compiled`], but also returns the inference/top-k
/// wall time split for stage-level observability.
pub fn recommend_compiled_timed(
    model: &dyn SbrModel,
    compiled: &CompiledGraph,
    session: &[u32],
) -> Result<(Recommendation, StageTimings), TensorError> {
    let start = std::time::Instant::now();
    let (items, mask, last) = prepare_session(session, model.config());
    let (out, _, ops) = compiled.run_timed(&[items, mask, last])?;
    let rec = Recommendation::from_output(&out)?;
    Ok((rec, StageTimings::from_op_times(start.elapsed(), ops)))
}

/// [`recommend_compiled_timed`] for a batch of sessions, pulled from
/// `sessions` one at a time (a session's encoder starts when it is
/// pulled): one result per session, each bit-identical to the
/// single-session call, with the catalog scanned **once** for the whole
/// batch where the model decodes with a fused `ScoreTopK`
/// ([`CompiledGraph::run_batch_timed`]). Every member reports the same
/// timings — the batch's whole encode phase as `inference`, its shared
/// scan as `topk` — because every member waited for all of it. A
/// session that fails fails alone.
pub fn recommend_compiled_batch_timed<S: AsRef<[u32]>>(
    model: &dyn SbrModel,
    compiled: &CompiledGraph,
    sessions: impl Iterator<Item = S>,
) -> Vec<Result<(Recommendation, StageTimings), TensorError>> {
    let start = std::time::Instant::now();
    let mut inputs = sessions.map(|session| {
        let (items, mask, last) = prepare_session(session.as_ref(), model.config());
        vec![items, mask, last]
    });
    let (outs, ops) = compiled.run_batch_timed(&mut inputs);
    let timings = StageTimings::from_op_times(start.elapsed(), ops);
    outs.into_iter()
        .map(|out| Ok((Recommendation::from_output(&out?)?, timings)))
        .collect()
}

/// The ten SBR models of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ModelKind {
    /// CORE (Hou et al., SIGIR 2022) — consistent representation space.
    Core,
    /// GRU4Rec (Tan et al., DLRS 2016) — gated recurrent units.
    Gru4Rec,
    /// LightSANs (Fan et al., SIGIR 2021) — low-rank self-attention.
    LightSans,
    /// NARM (Li et al., CIKM 2017) — neural attentive recommendation.
    Narm,
    /// RepeatNet (Ren et al., AAAI 2019) — repeat-explore decoding.
    RepeatNet,
    /// SASRec (Kang & McAuley, ICDM 2018) — self-attentive sequences.
    SasRec,
    /// SINE (Tan et al., WSDM 2021) — sparse interest extraction.
    Sine,
    /// SR-GNN (Wu et al., AAAI 2019) — gated session graphs.
    SrGnn,
    /// GC-SAN (Xu et al., IJCAI 2019) — graph-contextualised attention.
    GcSan,
    /// STAMP (Liu et al., KDD 2018) — short-term attention/memory priority.
    Stamp,
}

impl ModelKind {
    /// All ten models in the paper's presentation order.
    pub const ALL: [ModelKind; 10] = [
        ModelKind::Gru4Rec,
        ModelKind::RepeatNet,
        ModelKind::GcSan,
        ModelKind::SrGnn,
        ModelKind::Narm,
        ModelKind::Sine,
        ModelKind::Stamp,
        ModelKind::LightSans,
        ModelKind::Core,
        ModelKind::SasRec,
    ];

    /// The six models the paper retains for Table I (the four with
    /// implementation errors removed).
    pub const TABLE1: [ModelKind; 6] = [
        ModelKind::Core,
        ModelKind::Gru4Rec,
        ModelKind::Narm,
        ModelKind::SasRec,
        ModelKind::Sine,
        ModelKind::Stamp,
    ];

    /// Models the paper flags as having RecBole implementation errors.
    pub const WITH_IMPLEMENTATION_ERRORS: [ModelKind; 4] = [
        ModelKind::SrGnn,
        ModelKind::GcSan,
        ModelKind::RepeatNet,
        ModelKind::LightSans,
    ];

    /// Stable lowercase name.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::Core => "core",
            ModelKind::Gru4Rec => "gru4rec",
            ModelKind::LightSans => "lightsans",
            ModelKind::Narm => "narm",
            ModelKind::RepeatNet => "repeatnet",
            ModelKind::SasRec => "sasrec",
            ModelKind::Sine => "sine",
            ModelKind::SrGnn => "srgnn",
            ModelKind::GcSan => "gcsan",
            ModelKind::Stamp => "stamp",
        }
    }

    /// Parses a model name.
    pub fn parse(name: &str) -> Option<ModelKind> {
        ModelKind::ALL
            .iter()
            .copied()
            .find(|k| k.name() == name.to_ascii_lowercase())
    }

    /// Builds the model for a configuration.
    pub fn build(&self, cfg: &ModelConfig) -> Box<dyn SbrModel> {
        match self {
            ModelKind::Core => Box::new(crate::core_model::Core::new(cfg.clone())),
            ModelKind::Gru4Rec => Box::new(crate::gru4rec::Gru4Rec::new(cfg.clone())),
            ModelKind::LightSans => Box::new(crate::lightsans::LightSans::new(cfg.clone())),
            ModelKind::Narm => Box::new(crate::narm::Narm::new(cfg.clone())),
            ModelKind::RepeatNet => Box::new(crate::repeatnet::RepeatNet::new(cfg.clone())),
            ModelKind::SasRec => Box::new(crate::sasrec::SasRec::new(cfg.clone())),
            ModelKind::Sine => Box::new(crate::sine::Sine::new(cfg.clone())),
            ModelKind::SrGnn => Box::new(crate::srgnn::SrGnn::new(cfg.clone())),
            ModelKind::GcSan => Box::new(crate::gcsan::GcSan::new(cfg.clone())),
            ModelKind::Stamp => Box::new(crate::stamp::Stamp::new(cfg.clone())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_parse_roundtrip() {
        for kind in ModelKind::ALL {
            assert_eq!(ModelKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(ModelKind::parse("SASRec"), Some(ModelKind::SasRec));
        assert_eq!(ModelKind::parse("bert4rec"), None);
    }

    #[test]
    fn table1_excludes_flagged_models() {
        for kind in ModelKind::WITH_IMPLEMENTATION_ERRORS {
            assert!(!ModelKind::TABLE1.contains(&kind));
        }
        assert_eq!(
            ModelKind::TABLE1.len() + ModelKind::WITH_IMPLEMENTATION_ERRORS.len(),
            10
        );
    }

    #[test]
    fn recommendation_decodes_phantom_outputs() {
        let t = Tensor::phantom(&[2, 5]);
        let r = Recommendation::from_output(&t).unwrap();
        assert_eq!(r.items.len(), 5);
    }

    #[test]
    fn recommendation_rejects_bad_shapes() {
        let t = Tensor::zeros(&[3, 5]);
        assert!(Recommendation::from_output(&t).is_err());
    }

    fn tiny_model() -> Box<dyn SbrModel> {
        let cfg = ModelConfig::new(1_000)
            .with_max_session_len(16)
            .with_top_k(5);
        ModelKind::Stamp.build(&cfg)
    }

    #[test]
    fn timed_eager_matches_untimed_and_tiles_wall_time() {
        let model = tiny_model();
        let device = Device::cpu();
        let session = [3u32, 9, 42];
        let plain = recommend_eager(model.as_ref(), &device, &session).unwrap();
        let (timed, stages) = recommend_eager_timed(model.as_ref(), &device, &session).unwrap();
        assert_eq!(plain.items, timed.items, "timing must not change results");
        assert!(stages.inference > std::time::Duration::ZERO);
        assert!(stages.topk > std::time::Duration::ZERO, "topk op was timed");
    }

    #[test]
    fn timed_compiled_matches_untimed() {
        let model = tiny_model();
        let compiled = compile(model.as_ref(), JitOptions::default()).unwrap();
        let session = [7u32, 1];
        let plain = recommend_compiled(model.as_ref(), &compiled, &session).unwrap();
        let (timed, stages) =
            recommend_compiled_timed(model.as_ref(), &compiled, &session).unwrap();
        assert_eq!(plain.items, timed.items);
        assert!(stages.topk > std::time::Duration::ZERO);
        assert!(stages.inference + stages.topk > std::time::Duration::ZERO);
    }
}
