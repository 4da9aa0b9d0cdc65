//! The native execution path: Klotski's pipeline run **for real** on the
//! tiny CPU MoE model.
//!
//! The simulated engine (crate::engine) reproduces the paper's *numbers*;
//! this module validates the paper's *algorithm*: an I/O thread stages
//! (and, optionally, dequantizes) expert weights from a DRAM-tier store
//! into a bounded VRAM-tier slot pool while the inference thread computes
//! attention, gates, and experts in Klotski's expert-major, hot-first,
//! arrival-ordered schedule. Because expert contributions are combined in
//! fixed expert-index order ([`klotski_moe::model::MoeModel::combine`]),
//! the pipelined result is **bit-identical** to the sequential reference
//! runner — the property the whole reordering scheme rests on.

mod pipeline;
mod store;

pub use pipeline::{run_pipeline, NativePipelineConfig, NativeRunResult};
pub use store::ExpertStore;
