//! The discrete-event simulator.
//!
//! Engines submit tasks ([`Simulator::task`] … [`TaskSpec::submit`]) —
//! compute kernels, transfers, bookkeeping — with explicit dependencies,
//! then repeatedly call [`Simulator::step`] and react to completions (this
//! is how gate results trigger on-demand expert transfers *at the simulated
//! time they become known*, exactly like the real engine's I/O thread
//! reacting to the inference thread).
//!
//! # Arenas
//!
//! Every task is a plain 56-byte record in one `Vec`, addressed by its
//! [`TaskId`]. Nothing a task carries owns a buffer:
//!
//! * its memory effects are one index range of a shared delta pool, start
//!   effects first, applied in order by range when it starts and ends (a
//!   failing start effect leaves the earlier ones applied);
//! * its dependencies are staged in a reused buffer while it is specified
//!   and consumed when it is submitted: each unfinished dependency gains
//!   one edge in the edge pool, where every task's dependents form a
//!   singly linked list in insertion order.
//!
//! The arenas live as long as the simulator. They grow by doubling, or
//! are reserved once with [`Simulator::with_capacity`] when the caller
//! can bound its graph, so a run allocates a handful of buffers however
//! many tasks it submits.
//!
//! # Determinism
//!
//! All state is integer-clocked. Each resource keeps its ready tasks in a
//! binary heap keyed by (priority, enqueue sequence): lower priority values
//! first, and among equal priorities the task that became ready first —
//! exactly the order of a stable priority insertion into a FIFO list. A
//! resource runs one task at a time, so the next completion is the
//! earliest end among at most five running tasks; tasks ending at the same
//! instant complete in the order they started. A given submission sequence
//! therefore always produces the same trajectory.

use std::error::Error;
use std::fmt;
use std::ops::Range;

use crate::memory::{MemDelta, MemoryPool, OomError, Tier};
use crate::metrics::{Metrics, TimelineEntry};
use crate::resource::{Resource, ResourceState};
use crate::task::{TaskId, TaskMeta, TaskSpec, TaskState};
use crate::time::{SimDuration, SimTime};

/// Capacities for the three memory tiers, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierCapacities {
    /// GPU memory bytes.
    pub vram: u64,
    /// Host memory bytes.
    pub dram: u64,
    /// Disk bytes.
    pub disk: u64,
}

impl TierCapacities {
    /// Effectively unbounded capacities (useful in unit tests).
    pub fn unbounded() -> Self {
        TierCapacities {
            vram: u64::MAX / 4,
            dram: u64::MAX / 4,
            disk: u64::MAX / 4,
        }
    }
}

/// A completed task, as reported by [`Simulator::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The completed task.
    pub task: TaskId,
    /// Its semantic label.
    pub meta: TaskMeta,
    /// The resource that serviced it.
    pub resource: Resource,
    /// Service start time.
    pub start: SimTime,
    /// Completion time (equals the simulator clock when reported).
    pub end: SimTime,
}

/// Errors surfaced while stepping the simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A task's start-of-task allocation exceeded a pool's capacity.
    Oom {
        /// The task whose allocation failed.
        task: TaskId,
        /// Its label.
        meta: TaskMeta,
        /// The underlying pool error.
        source: OomError,
    },
    /// No task can make progress but some are not done (dependency cycle or
    /// a dependency that was never submitted to a resource).
    Deadlock {
        /// Number of unfinished tasks.
        remaining: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Oom { task, meta, source } => {
                write!(f, "{task} ({meta}) failed to start: {source}")
            }
            SimError::Deadlock { remaining } => {
                write!(f, "simulation deadlock with {remaining} unfinished tasks")
            }
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Oom { source, .. } => Some(source),
            SimError::Deadlock { .. } => None,
        }
    }
}

/// End marker of a dependents list.
const NIL: u32 = u32::MAX;

/// A `u32` arena index for an arena currently `len` entries long.
fn arena_index(len: usize) -> u32 {
    u32::try_from(len).expect("simulation arena exceeds u32 indices")
}

/// One task's record in the task arena (56 bytes).
#[derive(Debug, Clone, Copy)]
struct Task {
    duration: SimDuration,
    meta: TaskMeta,
    priority: i32,
    /// Dependencies that have not completed yet.
    unmet: u32,
    /// Where this task's end effects begin and its range ends in the
    /// delta pool. Tasks own consecutive ranges, so each starts where the
    /// previous task's ends.
    ends_at: u32,
    deltas_end: u32,
    /// First and last edges of the dependents list (`NIL` when empty).
    first_dependent: u32,
    last_dependent: u32,
    resource: Resource,
    state: TaskState,
}

/// One entry of a dependents list.
#[derive(Debug, Clone, Copy)]
struct Edge {
    task: TaskId,
    next: u32,
}

/// The discrete-event simulator: clock, resources, memory pools, metrics.
///
/// # Examples
///
/// ```
/// use klotski_sim::prelude::*;
///
/// # fn main() -> Result<(), klotski_sim::sim::SimError> {
/// let mut sim = Simulator::new(TierCapacities::unbounded());
/// let load = sim
///     .task(
///         Resource::LinkH2d,
///         SimDuration::from_millis(21),
///         TaskMeta::of(OpClass::ExpertTransfer).expert(4),
///     )
///     .submit();
/// let compute = sim
///     .task(
///         Resource::GpuCompute,
///         SimDuration::from_millis(3),
///         TaskMeta::of(OpClass::ExpertCompute).expert(4),
///     )
///     .after(load)
///     .submit();
/// let mut order = Vec::new();
/// while let Some(done) = sim.step()? {
///     order.push(done.task);
/// }
/// assert_eq!(order, vec![load, compute]);
/// assert_eq!(sim.now().as_millis_f64(), 24.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Simulator {
    clock: SimTime,
    /// Tasks started so far (orders completions that fall on one instant).
    starts: u64,
    /// The task arena, indexed by [`TaskId`].
    tasks: Vec<Task>,
    /// Dependencies of the task being specified; consumed on submit.
    pub(crate) staged_deps: Vec<TaskId>,
    /// End-of-task memory effects of the task being specified; moved
    /// into the delta pool on submit.
    pub(crate) staged_ends: Vec<MemDelta>,
    /// Memory effects: each task owns one range, its start effects then
    /// its end effects. A spec writes its start effects at the end.
    pub(crate) deltas: Vec<MemDelta>,
    /// Dependents lists of every task.
    edges: Vec<Edge>,
    resources: [ResourceState; 5],
    pools: [MemoryPool; 3],
    metrics: Metrics,
    unfinished: usize,
}

impl Simulator {
    /// Creates a simulator with the given tier capacities. Allocates
    /// nothing until the first task is submitted.
    pub fn new(caps: TierCapacities) -> Self {
        Simulator {
            clock: SimTime::ZERO,
            starts: 0,
            tasks: Vec::new(),
            staged_deps: Vec::new(),
            staged_ends: Vec::new(),
            deltas: Vec::new(),
            edges: Vec::new(),
            resources: Default::default(),
            pools: [
                MemoryPool::new(Tier::Vram, caps.vram),
                MemoryPool::new(Tier::Dram, caps.dram),
                MemoryPool::new(Tier::Disk, caps.disk),
            ],
            metrics: Metrics::new(),
            unfinished: 0,
        }
    }

    /// Creates a simulator whose arenas have room for a graph of `tasks`
    /// tasks with, on average, one memory effect and two dependents each;
    /// past that they grow. One reservation sized from a bound on the
    /// graph replaces a dozen doubling steps per arena, whose copies, and
    /// the fresh pages the allocator maps for them on every run, would
    /// otherwise cost each run.
    pub fn with_capacity(caps: TierCapacities, tasks: usize) -> Self {
        let mut sim = Simulator::new(caps);
        sim.tasks.reserve_exact(tasks);
        sim.deltas.reserve_exact(tasks);
        sim.edges.reserve_exact(2 * tasks);
        sim
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Read access to a memory pool.
    pub fn pool(&self, tier: Tier) -> &MemoryPool {
        &self.pools[tier.index()]
    }

    /// Write access to a memory pool, for engine-managed residency
    /// (e.g. parking resident weights during the offline placement phase).
    pub fn pool_mut(&mut self, tier: Tier) -> &mut MemoryPool {
        &mut self.pools[tier.index()]
    }

    /// Metrics collected so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Mutable metrics access (to enable timeline/memory recording).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// Number of submitted tasks that have not completed.
    pub fn unfinished(&self) -> usize {
        self.unfinished
    }

    /// Starts specifying a task of `duration` on `resource`, labelled
    /// `meta`. Add dependencies, memory effects and a priority on the
    /// returned [`TaskSpec`], then [`submit`](TaskSpec::submit) it.
    #[inline]
    pub fn task(
        &mut self,
        resource: Resource,
        duration: SimDuration,
        meta: TaskMeta,
    ) -> TaskSpec<'_> {
        // Drop whatever a spec that was never submitted staged.
        self.staged_deps.clear();
        self.staged_ends.clear();
        self.deltas.truncate(self.committed_deltas());
        TaskSpec::new(self, resource, duration, meta)
    }

    /// Length of the delta pool up to the last submitted task.
    #[inline]
    pub(crate) fn committed_deltas(&self) -> usize {
        self.tasks.last().map_or(0, |t| t.deltas_end as usize)
    }

    /// `id`'s start and end effects, as ranges of the delta pool.
    #[inline]
    fn delta_ranges(&self, id: TaskId) -> (Range<usize>, Range<usize>) {
        let lo = match id.index() {
            0 => 0,
            i => self.tasks[i - 1].deltas_end as usize,
        };
        let task = &self.tasks[id.index()];
        let ends_at = task.ends_at as usize;
        (lo..ends_at, ends_at..task.deltas_end as usize)
    }

    /// Submits the task whose dependencies and memory effects are staged:
    /// links it behind every unfinished dependency, and queues it on its
    /// resource if none is left.
    ///
    /// # Panics
    ///
    /// Panics if a dependency refers to a task that was never submitted.
    pub(crate) fn commit(
        &mut self,
        resource: Resource,
        duration: SimDuration,
        meta: TaskMeta,
        priority: i32,
    ) -> TaskId {
        let id = TaskId(arena_index(self.tasks.len()));
        let mut unmet = 0;
        for i in 0..self.staged_deps.len() {
            let dep = self.staged_deps[i];
            assert!(
                dep.index() < self.tasks.len(),
                "dependency {dep} of {id} does not exist"
            );
            if self.tasks[dep.index()].state != TaskState::Done {
                unmet += 1;
                self.link_dependent(dep, id);
            }
        }
        self.staged_deps.clear();
        let ends_at = arena_index(self.deltas.len());
        self.deltas.extend_from_slice(&self.staged_ends);
        self.staged_ends.clear();
        let state = if unmet == 0 {
            TaskState::Ready
        } else {
            TaskState::Blocked
        };
        self.tasks.push(Task {
            duration,
            meta,
            priority,
            unmet,
            ends_at,
            deltas_end: arena_index(self.deltas.len()),
            first_dependent: NIL,
            last_dependent: NIL,
            resource,
            state,
        });
        self.unfinished += 1;
        if state == TaskState::Ready {
            self.resources[resource.index()].queue.push(priority, id);
        }
        id
    }

    /// Appends `dependent` to the end of `dep`'s dependents list.
    fn link_dependent(&mut self, dep: TaskId, dependent: TaskId) {
        let edge = arena_index(self.edges.len());
        self.edges.push(Edge {
            task: dependent,
            next: NIL,
        });
        let task = &mut self.tasks[dep.index()];
        if task.last_dependent == NIL {
            task.first_dependent = edge;
        } else {
            self.edges[task.last_dependent as usize].next = edge;
        }
        task.last_dependent = edge;
    }

    /// Starts every startable task at the current clock.
    fn dispatch_all(&mut self) -> Result<(), SimError> {
        for res in Resource::ALL {
            let state = &mut self.resources[res.index()];
            // A resource services one task at a time.
            if state.running.is_some() {
                continue;
            }
            if let Some(id) = state.queue.pop() {
                self.start_task(id)?;
            }
        }
        Ok(())
    }

    /// Applies `id`'s start-of-task memory effects in order and puts it on
    /// its resource. A failing effect leaves the earlier ones applied and
    /// the task off its queue, never to run.
    // analyze: no_alloc
    fn start_task(&mut self, id: TaskId) -> Result<(), SimError> {
        let Task {
            resource,
            duration,
            meta,
            ..
        } = self.tasks[id.index()];
        for i in self.delta_ranges(id).0 {
            let d = self.deltas[i];
            let pool = &mut self.pools[d.tier.index()];
            if let Err(source) = pool.apply(d.bytes) {
                return Err(SimError::Oom {
                    task: id,
                    meta,
                    source,
                });
            }
            self.metrics
                .record_memory(self.clock, d.tier, pool.in_use());
        }
        self.tasks[id.index()].state = TaskState::Running;
        let res = &mut self.resources[resource.index()];
        res.running = Some(id);
        res.started = self.clock;
        res.ends = self.clock + duration;
        res.start_seq = self.starts;
        res.first_start.get_or_insert(self.clock);
        self.starts += 1;
        Ok(())
    }

    /// Advances the simulation to the next completion.
    ///
    /// Returns `Ok(None)` when every submitted task has completed.
    ///
    /// # Errors
    ///
    /// * [`SimError::Oom`] if a starting task's allocation fails.
    /// * [`SimError::Deadlock`] if unfinished tasks remain but none can run.
    // analyze: no_alloc
    pub fn step(&mut self) -> Result<Option<Completion>, SimError> {
        self.dispatch_all()?;
        // A resource services one task at a time, so the next completion
        // is the earliest end among the running tasks; of tasks ending at
        // one instant, the one started first completes first.
        let next = self
            .resources
            .iter()
            .filter_map(|r| r.running.map(|id| (r.ends, r.start_seq, id)))
            .min();
        let Some((time, _, id)) = next else {
            if self.unfinished > 0 {
                return Err(SimError::Deadlock {
                    remaining: self.unfinished,
                });
            }
            return Ok(None);
        };
        debug_assert!(time >= self.clock, "completions went backwards");
        self.clock = time;
        Ok(Some(self.complete_task(id)))
    }

    // analyze: no_alloc
    fn complete_task(&mut self, id: TaskId) -> Completion {
        let task = &mut self.tasks[id.index()];
        task.state = TaskState::Done;
        let Task {
            resource,
            duration,
            meta,
            first_dependent,
            ..
        } = *task;
        let start = self.resources[resource.index()].started;
        let end = start + duration;
        for i in self.delta_ranges(id).1 {
            let d = self.deltas[i];
            let pool = &mut self.pools[d.tier.index()];
            pool.apply(d.bytes)
                .expect("end-of-task memory release cannot overflow");
            self.metrics
                .record_memory(self.clock, d.tier, pool.in_use());
        }
        let res = &mut self.resources[resource.index()];
        res.running = None;
        res.busy += duration;
        res.last_end = end;
        self.metrics.record_task(TimelineEntry {
            resource,
            meta,
            start,
            end,
        });
        let mut edge = first_dependent;
        while edge != NIL {
            let Edge { task: dep, next } = self.edges[edge as usize];
            let task = &mut self.tasks[dep.index()];
            task.unmet -= 1;
            if task.unmet == 0 && task.state == TaskState::Blocked {
                task.state = TaskState::Ready;
                self.resources[task.resource.index()]
                    .queue
                    .push(task.priority, dep);
            }
            edge = next;
        }
        self.unfinished -= 1;
        Completion {
            task: id,
            meta,
            resource,
            start,
            end,
        }
    }

    /// Runs until all tasks complete, invoking `on_complete` after each one
    /// so the caller can submit follow-up work.
    ///
    /// # Errors
    ///
    /// Propagates the first [`SimError`].
    pub fn run<F>(&mut self, mut on_complete: F) -> Result<(), SimError>
    where
        F: FnMut(&mut Simulator, Completion),
    {
        while let Some(done) = self.step()? {
            on_complete(self, done);
        }
        Ok(())
    }

    /// Busy time accumulated on `resource`.
    pub fn busy(&self, resource: Resource) -> SimDuration {
        self.resources[resource.index()].busy
    }

    /// The active span of `resource`: first task start to last task end.
    pub fn span(&self, resource: Resource) -> SimDuration {
        let state = &self.resources[resource.index()];
        match state.first_start {
            Some(first) => state.last_end.saturating_since(first),
            None => SimDuration::ZERO,
        }
    }

    /// Idle ("bubble") time on `resource` within its active span.
    pub fn bubble(&self, resource: Resource) -> SimDuration {
        self.span(resource).saturating_sub(self.busy(resource))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::OpClass;

    fn meta(class: OpClass) -> TaskMeta {
        TaskMeta::of(class)
    }

    fn drain(sim: &mut Simulator) -> Vec<Completion> {
        let mut out = Vec::new();
        while let Some(c) = sim.step().expect("sim error") {
            out.push(c);
        }
        out
    }

    #[test]
    fn task_records_stay_compact() {
        assert_eq!(std::mem::size_of::<Task>(), 56);
    }

    #[test]
    fn serial_resource_queues_tasks() {
        let mut sim = Simulator::new(TierCapacities::unbounded());
        let a = sim
            .task(
                Resource::GpuCompute,
                SimDuration::from_millis(10),
                meta(OpClass::AttentionCompute),
            )
            .submit();
        let b = sim
            .task(
                Resource::GpuCompute,
                SimDuration::from_millis(5),
                meta(OpClass::GateCompute),
            )
            .submit();
        let done = drain(&mut sim);
        assert_eq!(done[0].task, a);
        assert_eq!(done[1].task, b);
        assert_eq!(done[1].start.as_millis_f64(), 10.0);
        assert_eq!(done[1].end.as_millis_f64(), 15.0);
    }

    #[test]
    fn parallel_resources_overlap() {
        let mut sim = Simulator::new(TierCapacities::unbounded());
        sim.task(
            Resource::GpuCompute,
            SimDuration::from_millis(10),
            meta(OpClass::AttentionCompute),
        )
        .submit();
        sim.task(
            Resource::LinkH2d,
            SimDuration::from_millis(10),
            meta(OpClass::WeightTransfer),
        )
        .submit();
        drain(&mut sim);
        assert_eq!(sim.now().as_millis_f64(), 10.0);
    }

    #[test]
    fn dependencies_delay_start() {
        let mut sim = Simulator::new(TierCapacities::unbounded());
        let load = sim
            .task(
                Resource::LinkH2d,
                SimDuration::from_millis(21),
                meta(OpClass::ExpertTransfer),
            )
            .submit();
        let compute = sim
            .task(
                Resource::GpuCompute,
                SimDuration::from_millis(1),
                meta(OpClass::ExpertCompute),
            )
            .after(load)
            .submit();
        let done = drain(&mut sim);
        assert_eq!(done.len(), 2);
        assert_eq!(done[1].task, compute);
        assert_eq!(done[1].start.as_millis_f64(), 21.0);
        // The GPU stalled 21ms waiting: bubble accounting sees an empty span
        // because the GPU's first task started at 21ms.
        assert_eq!(sim.bubble(Resource::GpuCompute), SimDuration::ZERO);
    }

    #[test]
    fn bubble_is_idle_between_gpu_tasks() {
        let mut sim = Simulator::new(TierCapacities::unbounded());
        let first = sim
            .task(
                Resource::GpuCompute,
                SimDuration::from_millis(2),
                meta(OpClass::AttentionCompute),
            )
            .submit();
        let load = sim
            .task(
                Resource::LinkH2d,
                SimDuration::from_millis(20),
                meta(OpClass::ExpertTransfer),
            )
            .submit();
        sim.task(
            Resource::GpuCompute,
            SimDuration::from_millis(3),
            meta(OpClass::ExpertCompute),
        )
        .after(load)
        .after(first)
        .submit();
        drain(&mut sim);
        // GPU: busy 2 + 3 = 5ms over span 23ms → 18ms bubble.
        assert_eq!(sim.busy(Resource::GpuCompute).as_millis_f64(), 5.0);
        assert_eq!(sim.span(Resource::GpuCompute).as_millis_f64(), 23.0);
        assert_eq!(sim.bubble(Resource::GpuCompute).as_millis_f64(), 18.0);
    }

    #[test]
    fn memory_effects_apply_at_start_and_end() {
        let mut sim = Simulator::new(TierCapacities {
            vram: 1000,
            dram: 1000,
            disk: 1000,
        });
        let load = sim
            .task(
                Resource::LinkH2d,
                SimDuration::from_millis(1),
                meta(OpClass::ExpertTransfer),
            )
            .alloc_on_start(Tier::Vram, 600)
            .submit();
        sim.task(
            Resource::GpuCompute,
            SimDuration::from_millis(1),
            meta(OpClass::ExpertCompute),
        )
        .after(load)
        .free_on_end(Tier::Vram, 600)
        .submit();
        drain(&mut sim);
        assert_eq!(sim.pool(Tier::Vram).in_use(), 0);
        assert_eq!(sim.pool(Tier::Vram).peak(), 600);
    }

    #[test]
    fn oom_surfaces_with_task_context() {
        let mut sim = Simulator::new(TierCapacities {
            vram: 100,
            dram: 1000,
            disk: 1000,
        });
        sim.task(
            Resource::LinkH2d,
            SimDuration::from_millis(1),
            meta(OpClass::ExpertTransfer).expert(3),
        )
        .alloc_on_start(Tier::Vram, 200)
        .submit();
        let err = sim.step().unwrap_err();
        match err {
            SimError::Oom { meta, source, .. } => {
                assert_eq!(meta.expert, 3);
                assert_eq!(source.requested, 200);
            }
            other => panic!("expected OOM, got {other}"),
        }
    }

    #[test]
    fn oom_strands_the_failed_task_and_its_dependents_as_deadlock() {
        let mut sim = Simulator::new(TierCapacities {
            vram: 100,
            dram: 1000,
            disk: 1000,
        });
        let load = sim
            .task(
                Resource::LinkH2d,
                SimDuration::from_millis(1),
                meta(OpClass::ExpertTransfer),
            )
            .alloc_on_start(Tier::Vram, 200)
            .submit();
        sim.task(
            Resource::GpuCompute,
            SimDuration::from_millis(1),
            meta(OpClass::ExpertCompute),
        )
        .after(load)
        .submit();
        assert!(matches!(sim.step(), Err(SimError::Oom { task, .. }) if task == load));
        // The failed task left its queue without starting, so neither it
        // nor its dependent can ever run.
        assert_eq!(sim.step(), Err(SimError::Deadlock { remaining: 2 }));
    }

    #[test]
    fn failed_start_keeps_earlier_deltas_applied() {
        let mut sim = Simulator::new(TierCapacities {
            vram: 120,
            dram: 1000,
            disk: 1000,
        });
        sim.task(
            Resource::LinkH2d,
            SimDuration::from_millis(1),
            meta(OpClass::WeightTransfer),
        )
        .alloc_on_start(Tier::Vram, 60)
        .alloc_on_start(Tier::Vram, 100)
        .submit();
        assert!(matches!(sim.step(), Err(SimError::Oom { .. })));
        assert_eq!(sim.pool(Tier::Vram).in_use(), 60);
    }

    #[test]
    fn depending_on_a_completed_task_does_not_block() {
        let mut sim = Simulator::new(TierCapacities::unbounded());
        let a = sim
            .task(
                Resource::GpuCompute,
                SimDuration::from_millis(1),
                meta(OpClass::Misc),
            )
            .submit();
        while sim.unfinished() > 0 {
            sim.step().unwrap();
        }
        // `a` is already done when this task is submitted: it is ready at
        // once rather than waiting on a completion that already happened.
        sim.task(
            Resource::GpuCompute,
            SimDuration::from_millis(1),
            meta(OpClass::Misc),
        )
        .after(a)
        .submit();
        assert!(drain(&mut sim).len() == 1);
    }

    #[test]
    fn unsubmitted_specs_leave_no_trace() {
        let mut sim = Simulator::new(TierCapacities {
            vram: 100,
            dram: 100,
            disk: 100,
        });
        let a = sim
            .task(Resource::GpuCompute, SimDuration::ZERO, meta(OpClass::Misc))
            .submit();
        let abandoned = sim
            .task(Resource::LinkH2d, SimDuration::ZERO, meta(OpClass::Misc))
            .after(a)
            .alloc_on_start(Tier::Vram, 1000)
            .free_on_end(Tier::Vram, 1000);
        drop(abandoned);
        let b = sim
            .task(Resource::LinkH2d, SimDuration::ZERO, meta(OpClass::Misc))
            .alloc_on_start(Tier::Vram, 10);
        assert!(b.deps().is_empty());
        assert_eq!(b.mem_on_start(), [MemDelta::alloc(Tier::Vram, 10)]);
        assert!(b.mem_on_end().is_empty());
        b.submit();
        assert_eq!(drain(&mut sim).len(), 2);
        assert_eq!(sim.pool(Tier::Vram).in_use(), 10);
    }

    #[test]
    fn priority_reorders_ready_queue() {
        let mut sim = Simulator::new(TierCapacities::unbounded());
        // Occupy the link so subsequent submissions queue up.
        let head = sim
            .task(
                Resource::LinkH2d,
                SimDuration::from_millis(5),
                meta(OpClass::WeightTransfer),
            )
            .submit();
        // Must dispatch `head` before the queue forms behind it.
        sim.dispatch_all().unwrap();
        let background = sim
            .task(
                Resource::LinkH2d,
                SimDuration::from_millis(5),
                meta(OpClass::WeightTransfer),
            )
            .submit();
        let urgent = sim
            .task(
                Resource::LinkH2d,
                SimDuration::from_millis(5),
                meta(OpClass::ExpertTransfer),
            )
            .priority(-1)
            .submit();
        let done = drain(&mut sim);
        let order: Vec<TaskId> = done.iter().map(|c| c.task).collect();
        assert_eq!(order, vec![head, urgent, background]);
    }

    #[test]
    fn run_callback_can_submit_followups() {
        let mut sim = Simulator::new(TierCapacities::unbounded());
        sim.task(
            Resource::GpuCompute,
            SimDuration::from_millis(1),
            meta(OpClass::GateCompute),
        )
        .submit();
        let mut chained = false;
        sim.run(|sim, done| {
            if done.meta.class == OpClass::GateCompute && !chained {
                chained = true;
                sim.task(
                    Resource::LinkH2d,
                    SimDuration::from_millis(2),
                    meta(OpClass::ExpertTransfer),
                )
                .submit();
            }
        })
        .unwrap();
        assert!(chained);
        assert_eq!(sim.now().as_millis_f64(), 3.0);
    }

    #[test]
    fn zero_duration_tasks_complete_in_submission_order() {
        let mut sim = Simulator::new(TierCapacities::unbounded());
        let a = sim
            .task(
                Resource::GpuCompute,
                SimDuration::ZERO,
                meta(OpClass::Offload),
            )
            .submit();
        let b = sim
            .task(
                Resource::GpuCompute,
                SimDuration::ZERO,
                meta(OpClass::Offload),
            )
            .submit();
        let done = drain(&mut sim);
        assert_eq!(done[0].task, a);
        assert_eq!(done[1].task, b);
        assert_eq!(sim.now(), SimTime::ZERO);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::task::OpClass;
    use proptest::prelude::*;

    proptest! {
        /// Random linear chains: completion order equals submission order and
        /// the makespan equals the sum of durations.
        #[test]
        fn chains_serialize(durs in proptest::collection::vec(1u64..100, 1..40)) {
            let mut sim = Simulator::new(TierCapacities::unbounded());
            let mut prev: Option<TaskId> = None;
            for &d in &durs {
                let id = sim
                    .task(
                        Resource::GpuCompute,
                        SimDuration::from_micros(d),
                        TaskMeta::of(OpClass::Misc),
                    )
                    .after_all(prev)
                    .submit();
                prev = Some(id);
            }
            let mut count = 0;
            while sim.step().unwrap().is_some() {
                count += 1;
            }
            prop_assert_eq!(count, durs.len());
            let total: u64 = durs.iter().sum();
            prop_assert_eq!(sim.now().as_nanos(), total * 1000);
        }

        /// Tasks on independent resources overlap: the makespan is the max
        /// per-resource sum, not the total sum.
        #[test]
        fn independent_resources_overlap(
            gpu in proptest::collection::vec(1u64..50, 1..20),
            link in proptest::collection::vec(1u64..50, 1..20),
        ) {
            let mut sim = Simulator::new(TierCapacities::unbounded());
            for &d in &gpu {
                sim.task(
                    Resource::GpuCompute,
                    SimDuration::from_micros(d),
                    TaskMeta::of(OpClass::Misc),
                )
                .submit();
            }
            for &d in &link {
                sim.task(
                    Resource::LinkH2d,
                    SimDuration::from_micros(d),
                    TaskMeta::of(OpClass::Misc),
                )
                .submit();
            }
            while sim.step().unwrap().is_some() {}
            let gpu_total: u64 = gpu.iter().sum();
            let link_total: u64 = link.iter().sum();
            prop_assert_eq!(
                sim.now().as_nanos(),
                gpu_total.max(link_total) * 1000
            );
        }

        /// Memory conservation: every alloc paired with a free leaves pools
        /// empty, and no step ever exceeds capacity.
        #[test]
        fn paired_memory_effects_conserve(sizes in proptest::collection::vec(1u64..1000, 1..30)) {
            let cap: u64 = sizes.iter().sum();
            let mut sim = Simulator::new(TierCapacities { vram: cap, dram: cap, disk: cap });
            let mut prev: Option<TaskId> = None;
            for &sz in &sizes {
                let load = sim
                    .task(
                        Resource::LinkH2d,
                        SimDuration::from_micros(1),
                        TaskMeta::of(OpClass::ExpertTransfer),
                    )
                    .alloc_on_start(Tier::Vram, sz)
                    .after_all(prev)
                    .submit();
                let free = sim
                    .task(
                        Resource::GpuCompute,
                        SimDuration::from_micros(1),
                        TaskMeta::of(OpClass::ExpertCompute),
                    )
                    .after(load)
                    .free_on_end(Tier::Vram, sz)
                    .submit();
                prev = Some(free);
            }
            while sim.step().unwrap().is_some() {}
            prop_assert_eq!(sim.pool(Tier::Vram).in_use(), 0);
            prop_assert!(sim.pool(Tier::Vram).peak() <= cap);
        }
    }
}

/// The simulator kernel as it was before the arena rewrite, kept as the
/// reference of the differential property test below: each task owns its
/// dependency list, memory effects and dependents as `Vec`s, and each
/// resource queues ready tasks in a `VecDeque` by stable priority
/// insertion.
#[cfg(test)]
mod reference {
    use std::collections::VecDeque;

    use super::{Completion, SimError, TierCapacities};
    use crate::event::EventQueue;
    use crate::memory::{MemDelta, MemoryPool, Tier};
    use crate::metrics::{Metrics, TimelineEntry};
    use crate::resource::Resource;
    use crate::task::{TaskId, TaskMeta, TaskState};
    use crate::time::{SimDuration, SimTime};

    /// A task as the reference kernel takes it: owned lists.
    #[derive(Debug, Clone)]
    pub struct RefSpec {
        pub resource: Resource,
        pub duration: SimDuration,
        pub meta: TaskMeta,
        pub deps: Vec<TaskId>,
        pub mem_on_start: Vec<MemDelta>,
        pub mem_on_end: Vec<MemDelta>,
    }

    #[derive(Debug)]
    struct Task {
        resource: Resource,
        duration: SimDuration,
        meta: TaskMeta,
        mem_on_start: Vec<MemDelta>,
        mem_on_end: Vec<MemDelta>,
        priority: i32,
        state: TaskState,
        unmet: u32,
        dependents: Vec<TaskId>,
        start: SimTime,
        end: SimTime,
    }

    #[derive(Debug, Default)]
    struct ResourceState {
        queue: VecDeque<TaskId>,
        running: Option<TaskId>,
        busy: SimDuration,
        last_end: SimTime,
        first_start: Option<SimTime>,
    }

    #[derive(Debug)]
    pub struct RefSimulator {
        clock: SimTime,
        events: EventQueue<TaskId>,
        tasks: Vec<Task>,
        resources: [ResourceState; 5],
        pools: [MemoryPool; 3],
        metrics: Metrics,
        unfinished: usize,
    }

    impl RefSimulator {
        pub fn new(caps: TierCapacities) -> Self {
            RefSimulator {
                clock: SimTime::ZERO,
                events: EventQueue::new(),
                tasks: Vec::new(),
                resources: Default::default(),
                pools: [
                    MemoryPool::new(Tier::Vram, caps.vram),
                    MemoryPool::new(Tier::Dram, caps.dram),
                    MemoryPool::new(Tier::Disk, caps.disk),
                ],
                metrics: Metrics::new(),
                unfinished: 0,
            }
        }

        pub fn pool(&self, tier: Tier) -> &MemoryPool {
            &self.pools[tier.index()]
        }

        pub fn metrics(&self) -> &Metrics {
            &self.metrics
        }

        pub fn metrics_mut(&mut self) -> &mut Metrics {
            &mut self.metrics
        }

        pub fn unfinished(&self) -> usize {
            self.unfinished
        }

        pub fn submit_with_priority(&mut self, spec: RefSpec, priority: i32) -> TaskId {
            let id = TaskId(u32::try_from(self.tasks.len()).expect("too many tasks"));
            let mut unmet = 0;
            for &dep in &spec.deps {
                assert!(
                    dep.index() < self.tasks.len(),
                    "dependency {dep} of {id} does not exist"
                );
                if self.tasks[dep.index()].state != TaskState::Done {
                    unmet += 1;
                    self.tasks[dep.index()].dependents.push(id);
                }
            }
            let state = if unmet == 0 {
                TaskState::Ready
            } else {
                TaskState::Blocked
            };
            self.tasks.push(Task {
                resource: spec.resource,
                duration: spec.duration,
                meta: spec.meta,
                mem_on_start: spec.mem_on_start,
                mem_on_end: spec.mem_on_end,
                priority,
                state,
                unmet,
                dependents: Vec::new(),
                start: SimTime::ZERO,
                end: SimTime::ZERO,
            });
            self.unfinished += 1;
            if state == TaskState::Ready {
                self.enqueue_ready(id);
            }
            id
        }

        fn enqueue_ready(&mut self, id: TaskId) {
            let prio = self.tasks[id.index()].priority;
            let res = self.tasks[id.index()].resource;
            let queue = &mut self.resources[res.index()].queue;
            let pos = queue
                .iter()
                .position(|&other| self.tasks[other.index()].priority > prio)
                .unwrap_or(queue.len());
            queue.insert(pos, id);
        }

        fn dispatch_all(&mut self) -> Result<(), SimError> {
            for res in Resource::ALL {
                let state = &mut self.resources[res.index()];
                if state.running.is_some() {
                    continue;
                }
                if let Some(id) = state.queue.pop_front() {
                    self.start_task(id)?;
                }
            }
            Ok(())
        }

        fn start_task(&mut self, id: TaskId) -> Result<(), SimError> {
            let (meta, deltas) = {
                let task = &self.tasks[id.index()];
                (task.meta, task.mem_on_start.clone())
            };
            for d in &deltas {
                if let Err(source) = self.pools[d.tier.index()].apply(d.bytes) {
                    return Err(SimError::Oom {
                        task: id,
                        meta,
                        source,
                    });
                }
                self.metrics
                    .record_memory(self.clock, d.tier, self.pools[d.tier.index()].in_use());
            }
            let task = &mut self.tasks[id.index()];
            task.state = TaskState::Running;
            task.start = self.clock;
            task.end = self.clock + task.duration;
            let res = &mut self.resources[task.resource.index()];
            res.running = Some(id);
            res.first_start.get_or_insert(self.clock);
            self.events.push(task.end, id);
            Ok(())
        }

        pub fn step(&mut self) -> Result<Option<Completion>, SimError> {
            self.dispatch_all()?;
            let Some((time, id)) = self.events.pop() else {
                if self.unfinished > 0 {
                    return Err(SimError::Deadlock {
                        remaining: self.unfinished,
                    });
                }
                return Ok(None);
            };
            self.clock = time;
            Ok(Some(self.complete_task(id)))
        }

        fn complete_task(&mut self, id: TaskId) -> Completion {
            let (resource, meta, start, end, duration, dependents, deltas) = {
                let task = &mut self.tasks[id.index()];
                task.state = TaskState::Done;
                (
                    task.resource,
                    task.meta,
                    task.start,
                    task.end,
                    task.duration,
                    std::mem::take(&mut task.dependents),
                    std::mem::take(&mut task.mem_on_end),
                )
            };
            for d in &deltas {
                self.pools[d.tier.index()]
                    .apply(d.bytes)
                    .expect("end-of-task memory release cannot overflow");
                self.metrics
                    .record_memory(self.clock, d.tier, self.pools[d.tier.index()].in_use());
            }
            let res = &mut self.resources[resource.index()];
            res.running = None;
            res.busy += duration;
            res.last_end = end;
            self.metrics.record_task(TimelineEntry {
                resource,
                meta,
                start,
                end,
            });
            for dep in dependents {
                let task = &mut self.tasks[dep.index()];
                task.unmet -= 1;
                if task.unmet == 0 && task.state == TaskState::Blocked {
                    task.state = TaskState::Ready;
                    self.enqueue_ready(dep);
                }
            }
            self.unfinished -= 1;
            Completion {
                task: id,
                meta,
                resource,
                start,
                end,
            }
        }

        pub fn run<F>(&mut self, mut on_complete: F) -> Result<(), SimError>
        where
            F: FnMut(&mut RefSimulator, Completion),
        {
            while let Some(done) = self.step()? {
                on_complete(self, done);
            }
            Ok(())
        }

        pub fn busy(&self, resource: Resource) -> SimDuration {
            self.resources[resource.index()].busy
        }

        pub fn span(&self, resource: Resource) -> SimDuration {
            let state = &self.resources[resource.index()];
            match state.first_start {
                Some(first) => state.last_end.saturating_since(first),
                None => SimDuration::ZERO,
            }
        }
    }
}

/// Differential property test: random task graphs run on [`Simulator`]
/// and on the reference kernel must be indistinguishable.
#[cfg(test)]
mod differential {
    use super::reference::{RefSimulator, RefSpec};
    use super::*;
    use crate::metrics::MemorySample;
    use crate::task::OpClass;
    use proptest::prelude::*;

    /// A fully resolved task description both kernels can take.
    #[derive(Debug, Clone)]
    struct Desc {
        resource: Resource,
        duration: SimDuration,
        meta: TaskMeta,
        priority: i32,
        deps: Vec<TaskId>,
        on_start: Vec<MemDelta>,
        on_end: Vec<MemDelta>,
        /// Spawn a follow-up task from `run`'s callback when this completes.
        follow_up: bool,
        /// Specify (and drop) a task that is never submitted right before
        /// submitting this one.
        abandon_first: bool,
    }

    /// One generated task: resource, duration class, priority, dependency
    /// picks, start allocations (tier, bytes), mask of those freed at end,
    /// bytes allocated at end, flag bits.
    type RawTask = (u8, u64, i32, Vec<u16>, Vec<(u8, u64)>, u8, u64, u8);

    fn resolve(i: usize, raw: &RawTask) -> Desc {
        let (res, dur, priority, deps, starts, free_mask, end_alloc, flags) = raw;
        // Half the durations are zero, and the rest sit on a coarse grid,
        // so simultaneous completions are common.
        let duration = SimDuration::from_nanos(dur.saturating_sub(3) * 5);
        let on_start: Vec<MemDelta> = starts
            .iter()
            .map(|&(tier, bytes)| MemDelta::alloc(Tier::ALL[tier as usize], bytes))
            .collect();
        let mut on_end: Vec<MemDelta> = on_start
            .iter()
            .enumerate()
            .filter(|&(k, _)| free_mask & (1 << k) != 0)
            .map(|(_, d)| MemDelta::free(d.tier, d.bytes as u64))
            .collect();
        if *end_alloc > 0 {
            // End-of-task allocations never fail in either kernel by
            // contract, so they target the unbounded disk pool.
            let at = (*flags as usize >> 3) % (on_end.len() + 1);
            on_end.insert(at, MemDelta::alloc(Tier::Disk, *end_alloc));
        }
        Desc {
            resource: Resource::ALL[*res as usize],
            duration,
            meta: TaskMeta::of(OpClass::Misc).layer(i as u32),
            priority: *priority,
            deps: if i == 0 {
                Vec::new()
            } else {
                deps.iter().map(|&d| TaskId(d as u32 % i as u32)).collect()
            },
            on_start,
            on_end,
            follow_up: flags & 3 == 0,
            abandon_first: flags & 4 != 0,
        }
    }

    /// The follow-up spawned when initial task `done` completes: it
    /// depends on `done` (already complete) and on an earlier task that
    /// may still be pending.
    fn follow_up(done: &Completion, src: &Desc, n_tasks: usize) -> Desc {
        let i = done.task.index();
        Desc {
            resource: Resource::ALL[(i * 3 + 1) % 5],
            duration: SimDuration::from_nanos(src.duration.as_nanos() / 2),
            meta: TaskMeta::of(OpClass::Offload).layer(i as u32),
            priority: 1 - src.priority,
            deps: vec![done.task, TaskId(((i * 7 + 3) % n_tasks) as u32)],
            on_start: vec![MemDelta::alloc(Tier::Vram, 7)],
            on_end: vec![MemDelta::free(Tier::Vram, 7)],
            follow_up: false,
            abandon_first: false,
        }
    }

    /// Everything observable about a run.
    #[derive(Debug, PartialEq)]
    struct Observed {
        log: Vec<Result<Completion, SimError>>,
        unfinished: usize,
        in_use: Vec<u64>,
        peaks: Vec<u64>,
        busy: Vec<SimDuration>,
        span: Vec<SimDuration>,
        timeline: Vec<TimelineEntry>,
        memory: Vec<MemorySample>,
    }

    trait Kernel: Sized {
        fn create(caps: TierCapacities) -> Self;
        fn submit_desc(&mut self, d: &Desc) -> TaskId;
        fn step_once(&mut self) -> Result<Option<Completion>, SimError>;
        fn run_with<F: FnMut(&mut Self, Completion)>(&mut self, f: F) -> Result<(), SimError>;
        fn observe(&self, log: Vec<Result<Completion, SimError>>) -> Observed;
    }

    impl Kernel for Simulator {
        fn create(caps: TierCapacities) -> Self {
            let mut sim = Simulator::new(caps);
            sim.metrics_mut().set_record_timeline(true);
            sim.metrics_mut().set_record_memory(true);
            sim
        }

        fn submit_desc(&mut self, d: &Desc) -> TaskId {
            if d.abandon_first {
                let _ = self
                    .task(Resource::LinkDisk, SimDuration::ZERO, d.meta)
                    .after_all(d.deps.iter().copied())
                    .alloc_on_start(Tier::Vram, 1)
                    .free_on_end(Tier::Vram, 1)
                    .alloc_on_end(Tier::Dram, 1);
            }
            let mut spec = self
                .task(d.resource, d.duration, d.meta)
                .priority(d.priority)
                .after_all(d.deps.iter().copied());
            for m in &d.on_start {
                spec = spec.alloc_on_start(m.tier, m.bytes as u64);
            }
            for m in &d.on_end {
                spec = if m.bytes < 0 {
                    spec.free_on_end(m.tier, m.bytes.unsigned_abs())
                } else {
                    spec.alloc_on_end(m.tier, m.bytes as u64)
                };
            }
            spec.submit()
        }

        fn step_once(&mut self) -> Result<Option<Completion>, SimError> {
            self.step()
        }

        fn run_with<F: FnMut(&mut Self, Completion)>(&mut self, f: F) -> Result<(), SimError> {
            self.run(f)
        }

        fn observe(&self, log: Vec<Result<Completion, SimError>>) -> Observed {
            Observed {
                log,
                unfinished: self.unfinished(),
                in_use: Tier::ALL.iter().map(|&t| self.pool(t).in_use()).collect(),
                peaks: Tier::ALL.iter().map(|&t| self.pool(t).peak()).collect(),
                busy: Resource::ALL.iter().map(|&r| self.busy(r)).collect(),
                span: Resource::ALL.iter().map(|&r| self.span(r)).collect(),
                timeline: self.metrics().timeline().to_vec(),
                memory: self.metrics().memory_samples().to_vec(),
            }
        }
    }

    impl Kernel for RefSimulator {
        fn create(caps: TierCapacities) -> Self {
            let mut sim = RefSimulator::new(caps);
            sim.metrics_mut().set_record_timeline(true);
            sim.metrics_mut().set_record_memory(true);
            sim
        }

        fn submit_desc(&mut self, d: &Desc) -> TaskId {
            self.submit_with_priority(
                RefSpec {
                    resource: d.resource,
                    duration: d.duration,
                    meta: d.meta,
                    deps: d.deps.clone(),
                    mem_on_start: d.on_start.clone(),
                    mem_on_end: d.on_end.clone(),
                },
                d.priority,
            )
        }

        fn step_once(&mut self) -> Result<Option<Completion>, SimError> {
            self.step()
        }

        fn run_with<F: FnMut(&mut Self, Completion)>(&mut self, f: F) -> Result<(), SimError> {
            self.run(f)
        }

        fn observe(&self, log: Vec<Result<Completion, SimError>>) -> Observed {
            Observed {
                log,
                unfinished: self.unfinished(),
                in_use: Tier::ALL.iter().map(|&t| self.pool(t).in_use()).collect(),
                peaks: Tier::ALL.iter().map(|&t| self.pool(t).peak()).collect(),
                busy: Resource::ALL.iter().map(|&r| self.busy(r)).collect(),
                span: Resource::ALL.iter().map(|&r| self.span(r)).collect(),
                timeline: self.metrics().timeline().to_vec(),
                memory: self.metrics().memory_samples().to_vec(),
            }
        }
    }

    /// Submits `descs`, runs with follow-ups spawned from the callback, and
    /// after an error keeps stepping until the kernel drains or deadlocks.
    fn drive<K: Kernel>(caps: TierCapacities, descs: &[Desc]) -> Observed {
        let mut k = K::create(caps);
        for d in descs {
            k.submit_desc(d);
        }
        let mut log = Vec::new();
        let mut n_tasks = descs.len();
        let result = k.run_with(|k, done| {
            log.push(Ok(done));
            let src = descs.get(done.task.index()).filter(|d| d.follow_up);
            if let Some(src) = src {
                k.submit_desc(&follow_up(&done, src, n_tasks));
                n_tasks += 1;
            }
        });
        if let Err(e) = result {
            log.push(Err(e));
            for _ in 0..4 * n_tasks + 8 {
                match k.step_once() {
                    Ok(Some(done)) => log.push(Ok(done)),
                    Ok(None) => break,
                    Err(e) => {
                        let stuck = matches!(e, SimError::Deadlock { .. });
                        log.push(Err(e));
                        if stuck {
                            break;
                        }
                    }
                }
            }
        }
        k.observe(log)
    }

    proptest! {
        /// Random DAGs — random resources, zero and non-zero durations,
        /// priorities −2..=1, dependencies on earlier tasks, memory
        /// effects against tight capacities, follow-ups submitted from
        /// `run`'s callback — produce the same completions, errors, pool
        /// peaks, busy/span, timeline and memory trace on both kernels.
        #[test]
        fn arena_kernel_matches_the_reference(
            raw in proptest::collection::vec(
                (
                    0u8..5,
                    0u64..8,
                    -2i32..=1,
                    proptest::collection::vec(0u16..1000, 0..4),
                    proptest::collection::vec((0u8..3, 0u64..80), 0..3),
                    0u8..8,
                    0u64..40,
                    0u8..64,
                ),
                1..48,
            ),
            vram in 0u64..250,
            dram in 0u64..250,
        ) {
            let caps = TierCapacities { vram, dram, disk: u64::MAX / 4 };
            let descs: Vec<Desc> = raw.iter().enumerate().map(|(i, r)| resolve(i, r)).collect();
            let arena = drive::<Simulator>(caps, &descs);
            let reference = drive::<RefSimulator>(caps, &descs);
            prop_assert_eq!(arena, reference);
        }
    }
}
