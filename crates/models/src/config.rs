//! Model configuration and the paper's hyperparameter heuristics.

/// Configuration shared by all ten SBR models.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelConfig {
    /// Catalog size `C` — the dominant factor of inference latency.
    pub catalog_size: usize,
    /// Sessions are padded/truncated to this length (RecBole behaviour).
    pub max_session_len: usize,
    /// Number of recommendations to return (`k`).
    pub top_k: usize,
    /// Embedding dimension `d`. Defaults to the paper's heuristic
    /// `ceil(C^(1/4))` (see [`embedding_dim_for`]).
    pub embedding_dim: usize,
    /// Hidden size of recurrent/GNN blocks (defaults to `embedding_dim`).
    pub hidden_size: usize,
    /// Number of stacked layers (transformer blocks, GRU layers, GGNN steps).
    pub num_layers: usize,
    /// Attention heads for the transformer models.
    pub num_heads: usize,
    /// Emulate the buggy RecBole implementations the paper measured.
    pub recbole_quirks: bool,
    /// Materialise weights. When `false`, weights are phantom tensors —
    /// only usable for cost-only execution, but free of the multi-gigabyte
    /// embedding tables that 10–20M-item catalogs would require.
    pub materialize_weights: bool,
    /// Seed for deterministic random initialisation.
    pub seed: u64,
}

/// The paper's embedding-size heuristic: "rounding up the fourth root of
/// the catalog size C" (Section III, citing the TensorFlow feature-columns
/// guidance).
pub fn embedding_dim_for(catalog_size: usize) -> usize {
    (catalog_size as f64).powf(0.25).ceil() as usize
}

impl ModelConfig {
    /// A configuration for catalog size `c` with all paper defaults.
    pub fn new(catalog_size: usize) -> ModelConfig {
        let d = embedding_dim_for(catalog_size);
        ModelConfig {
            catalog_size,
            max_session_len: 50,
            top_k: 21,
            embedding_dim: d,
            hidden_size: d,
            num_layers: 1,
            num_heads: 1,
            recbole_quirks: true,
            materialize_weights: true,
            seed: 42,
        }
    }

    /// Overrides the padded session length.
    pub fn with_max_session_len(mut self, l: usize) -> Self {
        self.max_session_len = l;
        self
    }

    /// Overrides the number of returned recommendations.
    pub fn with_top_k(mut self, k: usize) -> Self {
        self.top_k = k;
        self
    }

    /// Overrides the embedding dimension (and hidden size, when they were
    /// equal before).
    pub fn with_embedding_dim(mut self, d: usize) -> Self {
        if self.hidden_size == self.embedding_dim {
            self.hidden_size = d;
        }
        self.embedding_dim = d;
        self
    }

    /// Enables or disables the RecBole quirk emulation.
    pub fn with_quirks(mut self, quirks: bool) -> Self {
        self.recbole_quirks = quirks;
        self
    }

    /// Overrides the initialisation seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Switches to phantom (cost-only) weights.
    pub fn without_weights(mut self) -> Self {
        self.materialize_weights = false;
        self
    }

    /// Size in bytes of the item embedding table (`4 * C * d`).
    pub fn embedding_table_bytes(&self) -> u64 {
        4 * self.catalog_size as u64 * self.embedding_dim as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heuristic_matches_paper_catalog_sizes() {
        // Fourth roots: 1e4 -> 10, 1e5 -> 18, 1e6 -> 32, 1e7 -> 57,
        // 2e7 -> 67.
        assert_eq!(embedding_dim_for(10_000), 10);
        assert_eq!(embedding_dim_for(100_000), 18);
        assert_eq!(embedding_dim_for(1_000_000), 32);
        assert_eq!(embedding_dim_for(10_000_000), 57);
        assert_eq!(embedding_dim_for(20_000_000), 67);
    }

    #[test]
    fn defaults_follow_the_heuristic() {
        let cfg = ModelConfig::new(1_000_000);
        assert_eq!(cfg.embedding_dim, 32);
        assert_eq!(cfg.hidden_size, 32);
        assert!(cfg.recbole_quirks);
        assert_eq!(cfg.top_k, 21);
    }

    #[test]
    fn with_embedding_dim_keeps_hidden_in_sync() {
        let cfg = ModelConfig::new(10_000).with_embedding_dim(16);
        assert_eq!(cfg.hidden_size, 16);
    }

    #[test]
    fn embedding_table_bytes_scale() {
        let cfg = ModelConfig::new(10_000_000);
        // 10M * 57 * 4 ≈ 2.28 GB
        assert_eq!(cfg.embedding_table_bytes(), 4 * 10_000_000 * 57);
    }

    #[test]
    fn without_weights_flips_materialisation() {
        assert!(!ModelConfig::new(10).without_weights().materialize_weights);
    }
}
