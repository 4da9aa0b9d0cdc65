//! # klotski-sim — discrete-event substrate
//!
//! A deterministic discrete-event simulator of the heterogeneous machine the
//! Klotski paper targets: a GPU compute stream, a CPU compute pool, the two
//! directions of a PCIe link, a disk link, and capacity-tracked
//! VRAM/DRAM/disk memory pools.
//!
//! Inference engines (Klotski and the baselines) are *policies* over this
//! substrate: they submit tasks with explicit dependencies
//! ([`sim::Simulator::task`] returns a [`task::TaskSpec`] to fill in and
//! submit) and react to [`sim::Completion`]s, which is how data-dependent
//! decisions (which experts the gate selected) happen at the simulated
//! time the information becomes available.
//!
//! The kernel allocates nothing per task: tasks are plain records in one
//! arena, their memory effects and dependents live in shared pools, and
//! each resource's ready queue is a binary heap keyed by (priority,
//! enqueue sequence). See [`sim`] for the layout and the tie rules.
//!
//! ## Example
//!
//! ```
//! use klotski_sim::prelude::*;
//!
//! # fn main() -> Result<(), klotski_sim::sim::SimError> {
//! let mut sim = Simulator::new(TierCapacities::unbounded());
//! // Prefetch an expert while attention computes, then run the expert.
//! let attn = sim
//!     .task(
//!         Resource::GpuCompute,
//!         SimDuration::from_millis_f64(2.6),
//!         TaskMeta::of(OpClass::AttentionCompute).layer(0),
//!     )
//!     .submit();
//! let load = sim
//!     .task(
//!         Resource::LinkH2d,
//!         SimDuration::from_millis(21),
//!         TaskMeta::of(OpClass::ExpertTransfer).layer(0).expert(2),
//!     )
//!     .submit();
//! sim.task(
//!     Resource::GpuCompute,
//!     SimDuration::from_millis(1),
//!     TaskMeta::of(OpClass::ExpertCompute).layer(0).expert(2),
//! )
//! .after(attn)
//! .after(load)
//! .submit();
//! while sim.step()?.is_some() {}
//! // The expert compute had to wait for its 21ms transfer: inter-layer bubble.
//! assert!(sim.bubble(Resource::GpuCompute) > SimDuration::from_millis(18));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod event;
pub mod memory;
pub mod metrics;
pub mod resource;
pub mod sim;
pub mod task;
pub mod time;

/// Convenience re-exports of the most used types.
pub mod prelude {
    pub use crate::memory::{MemDelta, MemoryPool, OomError, Tier};
    pub use crate::metrics::{Metrics, TimelineEntry};
    pub use crate::resource::Resource;
    pub use crate::sim::{Completion, SimError, Simulator, TierCapacities};
    pub use crate::task::{OpClass, TaskId, TaskMeta, TaskSpec, NONE_IDX};
    pub use crate::time::{SimDuration, SimTime};
}
