//! # klotski-moe — the native reference MoE transformer
//!
//! A real (tiny) Mixtral-style decoder executed on the CPU: RMSNorm,
//! multi-head causal attention with per-sequence KV caches and optional
//! StreamingLLM or heavy-hitter masking, softmax-top-k gating, SwiGLU
//! experts, tied LM head, greedy decoding. Every mask runs through the
//! same two attention shapes; the heavy-hitter policy's state
//! ([`h2o`]) lives in each sequence's [`kv::KvCache`].
//!
//! Its purpose in the reproduction is *ground truth*: the reference runner
//! ([`model::MoeModel::generate`]) executes tokens in canonical order, and
//! Klotski's pipelined native executor must produce **bit-identical**
//! hidden states despite reordering expert computations across batches —
//! which holds because [`model::MoeModel::combine`] sums contributions in
//! fixed expert-index order.
//!
//! ```
//! use klotski_moe::attention::AttnMask;
//! use klotski_moe::config::MoeConfig;
//! use klotski_moe::model::MoeModel;
//!
//! let model = MoeModel::new(MoeConfig::tiny(42));
//! let prompts = vec![vec![1, 2, 3, 4]];
//! let out = model.generate(&prompts, 4, AttnMask::Dense);
//! assert_eq!(out.tokens[0].len(), 4);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod attention;
pub mod config;
pub mod gate;
pub mod h2o;
pub mod kv;
pub mod model;
pub mod weights;

/// Convenience re-exports of the most used types.
pub mod prelude {
    pub use crate::attention::AttnMask;
    pub use crate::config::MoeConfig;
    pub use crate::gate::Routing;
    pub use crate::kv::KvCache;
    pub use crate::model::{GenerationResult, MoeModel, Phase, RoutingEvent};
    pub use crate::weights::{
        AttnWeights, ExpertWeights, LayerWeights, MoeWeights, QuantizedExpertWeights,
    };
}
