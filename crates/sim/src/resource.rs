//! Serial hardware resources.
//!
//! Each [`Resource`] services one task at a time in ready order, modelling a
//! GPU compute stream, a CPU worker pool, or a DMA/copy engine in one
//! direction of a link. This mirrors how CUDA serializes same-direction
//! copies on a copy engine and kernels on a compute stream.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

use crate::task::TaskId;
use crate::time::{SimDuration, SimTime};

/// The serial resources of the simulated machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// The GPU compute stream (kernels execute serially).
    GpuCompute,
    /// The CPU compute pool (Fiddler-style expert execution).
    CpuCompute,
    /// Host-to-device copy engine (DRAM → VRAM over PCIe).
    LinkH2d,
    /// Device-to-host copy engine (VRAM → DRAM over PCIe).
    LinkD2h,
    /// Disk → DRAM staging link.
    LinkDisk,
}

impl Resource {
    /// All resources, in a fixed order (indexable by [`Resource::index`]).
    pub const ALL: [Resource; 5] = [
        Resource::GpuCompute,
        Resource::CpuCompute,
        Resource::LinkH2d,
        Resource::LinkD2h,
        Resource::LinkDisk,
    ];

    /// Dense index of this resource in [`Resource::ALL`].
    pub fn index(self) -> usize {
        match self {
            Resource::GpuCompute => 0,
            Resource::CpuCompute => 1,
            Resource::LinkH2d => 2,
            Resource::LinkD2h => 3,
            Resource::LinkDisk => 4,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Resource::GpuCompute => "gpu",
            Resource::CpuCompute => "cpu",
            Resource::LinkH2d => "h2d",
            Resource::LinkD2h => "d2h",
            Resource::LinkDisk => "disk",
        }
    }
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Ready tasks of one resource, in service order.
///
/// A binary min-heap keyed by (priority, enqueue sequence): the lowest
/// priority value pops first, and among equal priorities the task that
/// became ready first. That is exactly what a stable priority insertion
/// into a FIFO list pops. The key packs into one `u64`: the priority,
/// mapped order-preservingly to `u32`, above the `u32` sequence number (a
/// queue sees at most one enqueue per task, and task ids are `u32`).
#[derive(Debug, Clone, Default)]
pub(crate) struct ReadyQueue {
    heap: BinaryHeap<Reverse<(u64, TaskId)>>,
    seq: u32,
}

impl ReadyQueue {
    /// Queues `id` behind every ready task of priority `<= priority`.
    #[inline]
    pub fn push(&mut self, priority: i32, id: TaskId) {
        let rank = (priority as u32 ^ 0x8000_0000) as u64;
        self.heap.push(Reverse((rank << 32 | self.seq as u64, id)));
        self.seq = self.seq.wrapping_add(1);
    }

    /// Removes the next task to service.
    #[inline]
    pub fn pop(&mut self) -> Option<TaskId> {
        self.heap.pop().map(|Reverse((_, id))| id)
    }
}

/// Run-time state of one serial resource inside the simulator.
#[derive(Debug, Clone, Default)]
pub(crate) struct ResourceState {
    /// Ready tasks waiting for the resource.
    pub queue: ReadyQueue,
    /// The task currently being serviced, if any.
    pub running: Option<TaskId>,
    /// When the running task started.
    pub started: SimTime,
    /// When the running task ends.
    pub ends: SimTime,
    /// The running task's place in the simulator's start order.
    pub start_seq: u64,
    /// Accumulated busy time (for utilization/bubble metrics).
    pub busy: SimDuration,
    /// Completion time of the most recent task.
    pub last_end: SimTime,
    /// Start time of the first task ever serviced.
    pub first_start: Option<SimTime>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_match_all_order() {
        for (i, r) in Resource::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = Resource::ALL.iter().map(|r| r.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Resource::ALL.len());
    }

    #[test]
    fn ready_queue_pops_by_priority_then_enqueue_order() {
        let mut q = ReadyQueue::default();
        let pushes = [(0, 0), (1, 1), (-1, 2), (0, 3), (-1, 4), (1, 5)];
        for (prio, id) in pushes.into_iter().chain([(i32::MAX, 6), (i32::MIN, 7)]) {
            q.push(prio, TaskId(id));
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|t| t.0).collect();
        assert_eq!(order, vec![7, 2, 4, 0, 3, 1, 5, 6]);
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(Resource::GpuCompute.to_string(), "gpu");
        assert_eq!(Resource::LinkH2d.to_string(), "h2d");
    }
}
