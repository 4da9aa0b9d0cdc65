//! Tasks: the unit of work the simulator executes.
//!
//! A [`TaskSpec`] names a [`Resource`] — a service
//! duration, a set of dependencies, optional memory effects, and a semantic
//! [`TaskMeta`] label used by the metrics layer (bubble accounting, timeline
//! export) and by schedulers reacting to completions.

use std::fmt;

use crate::memory::{MemDelta, Tier};
use crate::resource::Resource;
use crate::sim::Simulator;
use crate::time::SimDuration;

/// Identifier of a submitted task, unique within one [`Simulator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub(crate) u32);

impl TaskId {
    /// The raw index of this task in submission order.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task#{}", self.0)
    }
}

/// Semantic class of an operation, used for metrics and scheduling decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Attention (plus its normalization) for one batch at one layer.
    AttentionCompute,
    /// Gate (router) computation for one batch at one layer.
    GateCompute,
    /// One expert's FFN over its assigned tokens.
    ExpertCompute,
    /// Dense FFN compute (dense baselines / dense models).
    DenseCompute,
    /// Expert FFN executed on the CPU (Fiddler-style orchestration).
    CpuExpertCompute,
    /// Transfer of attention/norm/dense weights into VRAM.
    WeightTransfer,
    /// Transfer of gate weights into VRAM.
    GateTransfer,
    /// Transfer of one expert's weights into VRAM.
    ExpertTransfer,
    /// KV-cache prefetch into VRAM.
    KvLoad,
    /// KV-cache writeback to DRAM.
    KvStore,
    /// Activation / hidden-state transfer.
    ActivationTransfer,
    /// Disk → DRAM staging of a layer (adaptive placement window).
    DiskStage,
    /// Eviction bookkeeping (usually zero-duration).
    Offload,
    /// Anything else.
    Misc,
}

impl OpClass {
    /// Whether this class occupies a compute resource (vs. a link).
    pub fn is_compute(self) -> bool {
        matches!(
            self,
            OpClass::AttentionCompute
                | OpClass::GateCompute
                | OpClass::ExpertCompute
                | OpClass::DenseCompute
                | OpClass::CpuExpertCompute
        )
    }

    /// Whether this class moves bytes over a link.
    #[cfg(test)]
    fn is_transfer(self) -> bool {
        matches!(
            self,
            OpClass::WeightTransfer
                | OpClass::GateTransfer
                | OpClass::ExpertTransfer
                | OpClass::KvLoad
                | OpClass::KvStore
                | OpClass::ActivationTransfer
                | OpClass::DiskStage
        )
    }

    /// Short label used in timeline rendering.
    pub fn short_name(self) -> &'static str {
        match self {
            OpClass::AttentionCompute => "attn",
            OpClass::GateCompute => "gate",
            OpClass::ExpertCompute => "expert",
            OpClass::DenseCompute => "ffn",
            OpClass::CpuExpertCompute => "cpu-expert",
            OpClass::WeightTransfer => "w-load",
            OpClass::GateTransfer => "g-load",
            OpClass::ExpertTransfer => "e-load",
            OpClass::KvLoad => "kv-load",
            OpClass::KvStore => "kv-store",
            OpClass::ActivationTransfer => "act",
            OpClass::DiskStage => "disk",
            OpClass::Offload => "offload",
            OpClass::Misc => "misc",
        }
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short_name())
    }
}

/// Sentinel for "not applicable" in [`TaskMeta`] fields.
pub const NONE_IDX: u32 = u32::MAX;

/// Semantic label attached to every task.
///
/// `layer`, `batch` and `expert` use [`NONE_IDX`] when not applicable
/// (e.g. a weight transfer has no batch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskMeta {
    /// Operation class.
    pub class: OpClass,
    /// Model layer index, or [`NONE_IDX`].
    pub layer: u32,
    /// Batch index within the batch group, or [`NONE_IDX`].
    pub batch: u32,
    /// Expert index within the layer, or [`NONE_IDX`].
    pub expert: u32,
    /// Token-step index (autoregressive step), or [`NONE_IDX`].
    pub step: u32,
}

impl TaskMeta {
    /// A label with every field unset except the class.
    pub fn of(class: OpClass) -> Self {
        TaskMeta {
            class,
            layer: NONE_IDX,
            batch: NONE_IDX,
            expert: NONE_IDX,
            step: NONE_IDX,
        }
    }

    /// Sets the layer index.
    pub fn layer(mut self, layer: u32) -> Self {
        self.layer = layer;
        self
    }

    /// Sets the batch index.
    pub fn batch(mut self, batch: u32) -> Self {
        self.batch = batch;
        self
    }

    /// Sets the expert index.
    pub fn expert(mut self, expert: u32) -> Self {
        self.expert = expert;
        self
    }

    /// Sets the token-step index.
    pub fn step(mut self, step: u32) -> Self {
        self.step = step;
        self
    }
}

impl fmt::Display for TaskMeta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.class)?;
        if self.layer != NONE_IDX {
            write!(f, " L{}", self.layer)?;
        }
        if self.batch != NONE_IDX {
            write!(f, " b{}", self.batch)?;
        }
        if self.expert != NONE_IDX {
            write!(f, " e{}", self.expert)?;
        }
        if self.step != NONE_IDX {
            write!(f, " s{}", self.step)?;
        }
        Ok(())
    }
}

/// A task being specified, borrowed from the [`Simulator`] it will run on.
///
/// Start one with [`Simulator::task`], chain the setters, and finish with
/// [`TaskSpec::submit`]. The spec owns no buffers: its dependencies and
/// memory effects are staged in the simulator's own, and a spec dropped
/// without being submitted leaves no trace.
///
/// # Examples
///
/// ```
/// use klotski_sim::prelude::*;
///
/// let mut sim = Simulator::new(TierCapacities::unbounded());
/// let load = sim
///     .task(
///         Resource::LinkH2d,
///         SimDuration::from_millis(21),
///         TaskMeta::of(OpClass::ExpertTransfer).layer(3).expert(5),
///     )
///     .alloc_on_start(Tier::Vram, 100)
///     .submit();
/// let spec = sim
///     .task(
///         Resource::GpuCompute,
///         SimDuration::from_millis(1),
///         TaskMeta::of(OpClass::ExpertCompute).layer(3).expert(5),
///     )
///     .after(load)
///     .free_on_end(Tier::Vram, 100);
/// assert_eq!(spec.resource, Resource::GpuCompute);
/// assert_eq!(spec.deps(), [load]);
/// spec.submit();
/// ```
#[derive(Debug)]
#[must_use = "a task spec does nothing until it is submitted"]
pub struct TaskSpec<'s> {
    sim: &'s mut Simulator,
    /// The serial resource that services this task.
    pub resource: Resource,
    /// Service time on the resource.
    pub duration: SimDuration,
    /// Semantic label.
    pub meta: TaskMeta,
    priority: i32,
}

impl<'s> TaskSpec<'s> {
    #[inline]
    pub(crate) fn new(
        sim: &'s mut Simulator,
        resource: Resource,
        duration: SimDuration,
        meta: TaskMeta,
    ) -> Self {
        TaskSpec {
            sim,
            resource,
            duration,
            meta,
            priority: 0,
        }
    }

    /// Adds one dependency.
    #[inline]
    pub fn after(self, dep: TaskId) -> Self {
        self.sim.staged_deps.push(dep);
        self
    }

    /// Adds many dependencies.
    #[inline]
    pub fn after_all<I: IntoIterator<Item = TaskId>>(self, deps: I) -> Self {
        self.sim.staged_deps.extend(deps);
        self
    }

    /// Allocates `bytes` on `tier` when the task starts.
    #[inline]
    pub fn alloc_on_start(self, tier: Tier, bytes: u64) -> Self {
        self.sim.deltas.push(MemDelta::alloc(tier, bytes));
        self
    }

    /// Frees `bytes` on `tier` when the task ends.
    #[inline]
    pub fn free_on_end(self, tier: Tier, bytes: u64) -> Self {
        self.sim.staged_ends.push(MemDelta::free(tier, bytes));
        self
    }

    /// Allocates `bytes` on `tier` when the task ends (e.g. data the task
    /// writes back to a slower tier).
    #[inline]
    pub fn alloc_on_end(self, tier: Tier, bytes: u64) -> Self {
        self.sim.staged_ends.push(MemDelta::alloc(tier, bytes));
        self
    }

    /// Sets the service priority: lower values are serviced first among
    /// tasks ready on the same resource (urgent on-demand expert transfers
    /// overtake background prefetches). The default is 0.
    #[inline]
    pub fn priority(mut self, priority: i32) -> Self {
        self.priority = priority;
        self
    }

    /// The dependencies added so far, in order.
    pub fn deps(&self) -> &[TaskId] {
        &self.sim.staged_deps
    }

    /// The start-of-task memory effects added so far, in order.
    pub fn mem_on_start(&self) -> &[MemDelta] {
        &self.sim.deltas[self.sim.committed_deltas()..]
    }

    /// The end-of-task memory effects added so far, in order.
    pub fn mem_on_end(&self) -> &[MemDelta] {
        &self.sim.staged_ends
    }

    /// Submits the task and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if a dependency refers to a task that was never submitted.
    #[inline]
    pub fn submit(self) -> TaskId {
        self.sim
            .commit(self.resource, self.duration, self.meta, self.priority)
    }
}

/// Lifecycle state of a task inside the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskState {
    /// Waiting on dependencies.
    Blocked,
    /// Dependencies met; queued on its resource.
    Ready,
    /// Currently occupying its resource.
    Running,
    /// Finished.
    Done,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_builder_sets_fields() {
        let m = TaskMeta::of(OpClass::ExpertCompute)
            .layer(7)
            .batch(2)
            .expert(5)
            .step(1);
        assert_eq!(m.layer, 7);
        assert_eq!(m.batch, 2);
        assert_eq!(m.expert, 5);
        assert_eq!(m.step, 1);
        assert_eq!(m.to_string(), "expert L7 b2 e5 s1");
    }

    #[test]
    fn class_partitions_compute_and_transfer() {
        let all = [
            OpClass::AttentionCompute,
            OpClass::GateCompute,
            OpClass::ExpertCompute,
            OpClass::DenseCompute,
            OpClass::CpuExpertCompute,
            OpClass::WeightTransfer,
            OpClass::GateTransfer,
            OpClass::ExpertTransfer,
            OpClass::KvLoad,
            OpClass::KvStore,
            OpClass::ActivationTransfer,
            OpClass::DiskStage,
            OpClass::Offload,
            OpClass::Misc,
        ];
        for class in all {
            assert!(
                !(class.is_compute() && class.is_transfer()),
                "{class} is both compute and transfer"
            );
        }
        assert!(OpClass::ExpertCompute.is_compute());
        assert!(OpClass::ExpertTransfer.is_transfer());
        assert!(!OpClass::Offload.is_compute());
        assert!(!OpClass::Offload.is_transfer());
    }

    #[test]
    fn spec_builder_accumulates() {
        let mut sim = Simulator::new(crate::sim::TierCapacities::unbounded());
        for _ in 0..3 {
            sim.task(
                Resource::GpuCompute,
                SimDuration::ZERO,
                TaskMeta::of(OpClass::Misc),
            )
            .submit();
        }
        let spec = sim
            .task(
                Resource::GpuCompute,
                SimDuration::from_micros(10),
                TaskMeta::of(OpClass::GateCompute),
            )
            .after(TaskId(0))
            .after_all([TaskId(1), TaskId(2)])
            .alloc_on_start(Tier::Vram, 100)
            .free_on_end(Tier::Vram, 100);
        assert_eq!(spec.deps(), vec![TaskId(0), TaskId(1), TaskId(2)]);
        assert_eq!(spec.mem_on_start().len(), 1);
        assert_eq!(spec.mem_on_end().len(), 1);
    }

    #[test]
    fn display_skips_unset_fields() {
        let m = TaskMeta::of(OpClass::WeightTransfer).layer(4);
        assert_eq!(m.to_string(), "w-load L4");
    }
}
