//! SASRec (Kang & McAuley, ICDM 2018): a causal transformer over the
//! session, taking the representation at the last valid position.

use crate::common::{self, causal_mask, decode, gather_last, positional_table, TransformerBlock};
use crate::config::ModelConfig;
use crate::traits::SbrModel;
use etude_tensor::rng::Initializer;
use etude_tensor::{Exec, Param, SessionInput, TRef, TensorError};

/// The SASRec model.
pub struct SasRec {
    cfg: ModelConfig,
    embedding: Param,
    positions: Param,
    blocks: Vec<TransformerBlock>,
    causal: Param,
    final_ln: common::LayerNormWeights,
}

impl SasRec {
    /// Builds the model with randomly initialised weights.
    pub fn new(cfg: ModelConfig) -> SasRec {
        let mut init = Initializer::new(cfg.seed).child("sasrec");
        let blocks = (0..cfg.num_layers)
            .map(|_| TransformerBlock::new(&mut init, &cfg))
            .collect();
        SasRec {
            embedding: common::embedding_table(&mut init, &cfg),
            positions: positional_table(&mut init, &cfg),
            blocks,
            causal: causal_mask(&cfg),
            final_ln: common::LayerNormWeights::new(&cfg, cfg.embedding_dim),
            cfg,
        }
    }
}

impl SbrModel for SasRec {
    fn name(&self) -> &'static str {
        "sasrec"
    }

    fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    fn forward(&self, exec: &mut Exec, input: SessionInput) -> Result<TRef, TensorError> {
        let table = exec.param(&self.embedding)?;
        let x = exec.embedding(table, input.items)?; // [l, d]
        let pos = exec.param(&self.positions)?;
        let mut x = exec.add(x, pos)?;
        for block in &self.blocks {
            x = block.forward(
                exec,
                x,
                self.cfg.num_heads,
                Some(&self.causal),
                Some(input.mask),
            )?;
        }
        let x = common::layer_norm(exec, x, &self.final_ln)?;
        let s = gather_last(exec, x, input.last)?; // [d]
        decode(exec, &self.embedding, s, &self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{compile, recommend_compiled, recommend_eager};
    use etude_tensor::Device;

    fn model() -> SasRec {
        SasRec::new(ModelConfig {
            num_heads: 2,
            ..ModelConfig::new(64)
                .with_max_session_len(6)
                .with_embedding_dim(8)
                .with_seed(6)
        })
    }

    #[test]
    fn recommends_k_items() {
        let m = model();
        let r = recommend_eager(&m, &Device::cpu(), &[1, 2]).unwrap();
        assert_eq!(r.items.len(), m.cfg.top_k);
    }

    #[test]
    fn causal_masking_hides_padding_from_early_positions() {
        // Appending items must not change nothing — but more importantly
        // the output must be finite despite -1e9 masks.
        let m = model();
        let r = recommend_eager(&m, &Device::cpu(), &[5]).unwrap();
        assert!(r.scores.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn jit_compilation_matches_eager() {
        let m = model();
        let compiled = compile(&m, Default::default()).unwrap();
        let session = [3u32, 9, 1];
        let eager = recommend_eager(&m, &Device::cpu(), &session).unwrap();
        let jit = recommend_compiled(&m, &compiled, &session).unwrap();
        assert_eq!(eager.items, jit.items);
    }

    #[test]
    fn multi_layer_variant_builds() {
        let m = SasRec::new(ModelConfig {
            num_layers: 2,
            ..ModelConfig::new(64)
                .with_max_session_len(4)
                .with_embedding_dim(8)
        });
        let r = recommend_eager(&m, &Device::cpu(), &[2, 3]).unwrap();
        assert_eq!(r.items.len(), m.cfg.top_k);
    }
}
