//! # etude-models
//!
//! The ten session-based recommendation models evaluated by the ETUDE
//! paper (ICDE 2024), implemented from scratch on [`etude_tensor`]:
//!
//! * recursive: **GRU4Rec**, **RepeatNet**
//! * graph neural networks: **SR-GNN**, **GC-SAN**
//! * attention: **NARM**, **SINE**, **STAMP**
//! * transformers: **LightSANs**, **CORE**, **SASRec**
//!
//! Each model implements [`SbrModel::forward`] once; the same code runs
//! eagerly, in cost-only mode, and under tracing for JIT compilation.
//! All models share the inference skeleton the paper analyses: a session
//! encoder producing a `d`-dimensional representation, followed by a
//! maximum-inner-product search over the `C`-item catalog — hence the
//! common `O(C (d + log k))` asymptotic inference complexity.
//!
//! ## RecBole implementation quirks
//!
//! The paper root-causes severe performance bugs in four RecBole model
//! implementations. With [`ModelConfig::recbole_quirks`] enabled (the
//! default, matching what the paper measured), the reproductions exhibit
//! the same pathologies:
//!
//! * **RepeatNet** materialises sparse session/catalog interactions as
//!   dense catalog-wide matrices,
//! * **SR-GNN** / **GC-SAN** build their session graphs in host-side
//!   (NumPy) code inside the inference path, forcing host/device
//!   round-trips per request,
//! * **LightSANs** branches on runtime data, defeating JIT tracing.
//!
//! Setting `recbole_quirks = false` selects repaired implementations,
//! enabling the ablation study of the bug reports the authors filed.

pub mod common;
pub mod config;
pub mod core_model;
pub mod gcsan;
pub mod gru4rec;
pub mod lightsans;
pub mod narm;
pub mod repeatnet;
pub mod retrieval;
pub mod sasrec;
pub mod sine;
pub mod srgnn;
pub mod stamp;
pub mod traits;

pub use config::ModelConfig;
pub use traits::{ModelKind, Recommendation, SbrModel, StageTimings};
