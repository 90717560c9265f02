//! GRU4Rec (Tan et al., 2016): stacked GRU layers over item embeddings.
//!
//! Inference path (after RecBole's `GRU4Rec.full_sort_predict`):
//! embed the padded session, run the GRU stack, project the hidden state
//! at the last valid position through a dense layer, then score the full
//! catalog.

use crate::common::{
    self, decode, embedding_table, gather_last, gru_sequence, linear_vec, weight, GruWeights,
};
use crate::config::ModelConfig;
use crate::traits::SbrModel;
use etude_tensor::rng::Initializer;
use etude_tensor::{Exec, Param, SessionInput, TRef, TensorError};

/// The GRU4Rec model.
pub struct Gru4Rec {
    cfg: ModelConfig,
    embedding: Param,
    layers: Vec<GruWeights>,
    dense: Param,
    dense_bias: Param,
}

impl Gru4Rec {
    /// Builds the model with randomly initialised weights.
    pub fn new(cfg: ModelConfig) -> Gru4Rec {
        let mut init = Initializer::new(cfg.seed).child("gru4rec");
        let embedding = embedding_table(&mut init, &cfg);
        let mut layers = Vec::with_capacity(cfg.num_layers);
        for i in 0..cfg.num_layers {
            let input = if i == 0 {
                cfg.embedding_dim
            } else {
                cfg.hidden_size
            };
            layers.push(GruWeights::new(&mut init, &cfg, input, cfg.hidden_size));
        }
        let dense = weight(&mut init, &cfg, &[cfg.hidden_size, cfg.embedding_dim]);
        let dense_bias = common::bias(&cfg, cfg.embedding_dim);
        Gru4Rec {
            cfg,
            embedding,
            layers,
            dense,
            dense_bias,
        }
    }
}

impl SbrModel for Gru4Rec {
    fn name(&self) -> &'static str {
        "gru4rec"
    }

    fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    fn forward(&self, exec: &mut Exec, input: SessionInput) -> Result<TRef, TensorError> {
        let table = exec.param(&self.embedding)?;
        let mut x = exec.embedding(table, input.items)?; // [l, d]
        for layer in &self.layers {
            x = gru_sequence(exec, x, layer, self.cfg.hidden_size)?; // [l, h]
        }
        let h_last = gather_last(exec, x, input.last)?; // [h]
        let s = linear_vec(exec, h_last, &self.dense, Some(&self.dense_bias))?; // [d]
        decode(exec, &self.embedding, s, &self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::recommend_eager;
    use etude_tensor::Device;

    fn model() -> Gru4Rec {
        Gru4Rec::new(ModelConfig::new(50).with_max_session_len(5).with_seed(1))
    }

    #[test]
    fn produces_k_recommendations() {
        let m = model();
        let r = recommend_eager(&m, &Device::cpu(), &[1, 2, 3]).unwrap();
        assert_eq!(r.items.len(), m.cfg.top_k);
    }

    #[test]
    fn last_item_position_matters() {
        // Sessions differing only in their last item should encode
        // differently because the hidden state is gathered at `last`.
        let m = model();
        let a = recommend_eager(&m, &Device::cpu(), &[1, 2, 3]).unwrap();
        let b = recommend_eager(&m, &Device::cpu(), &[1, 2, 48]).unwrap();
        assert_ne!(a.scores, b.scores);
    }

    #[test]
    fn stacked_layers_increase_cost() {
        let base = model();
        let deep = Gru4Rec::new(ModelConfig {
            num_layers: 2,
            ..ModelConfig::new(50).with_max_session_len(5).with_seed(1)
        });
        let c1 =
            crate::traits::forward_cost(&base, &Device::cpu(), etude_tensor::ExecMode::Real, 3)
                .unwrap();
        let c2 =
            crate::traits::forward_cost(&deep, &Device::cpu(), etude_tensor::ExecMode::Real, 3)
                .unwrap();
        assert!(c2.flops > c1.flops);
    }
}
