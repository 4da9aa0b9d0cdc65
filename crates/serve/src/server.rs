//! The serving loop's vocabulary: requests in, batch groups through an
//! engine, timed outcomes out.
//!
//! A `Replica` owns one engine's admission queue and clock, forms batch
//! groups with the [`AdmissionPolicy`], and runs them over simulated time;
//! an `ArrivalSource` replays the open- or closed-loop request stream.
//! The fleet loop in [`cluster`](crate::cluster) drives them: the
//! single-engine [`serve`] entry point is that loop over a fixed fleet of
//! one replica, the multi-replica [`dispatcher`](crate::dispatcher) is the
//! same fixed fleet with `R` replicas, and the cluster entry points add an
//! autoscaler and faults. Every path executes the identical per-replica
//! code, so their results are directly comparable, and every report is
//! cut by [`ServeReport`]'s one assembly, which folds the per-replica
//! counts from the outcomes and group records.
//!
//! While a group runs, new requests queue; when the engine frees, the
//! admission policy decides when to cut the next group and how large. Each
//! group becomes one [`Workload`] (padded to its longest prompt/output) and
//! one [`Scenario`], so Klotski and every baseline engine can serve the
//! same traffic and be compared policy-for-policy.
//!
//! Per-request timings carry the queueing delay the offline harness never
//! sees: `TTFT = wait + group prefill`, and a request's last token lands at
//! its own `gen_len` (shorter requests in a padded group finish earlier,
//! while the pace-setting requests finish exactly when the engine frees).

use std::collections::VecDeque;

use klotski_core::scenario::{Engine, EngineError, Scenario, StepPlan};
use klotski_model::cost::CostModel;
use klotski_model::hardware::HardwareSpec;
use klotski_model::spec::ModelSpec;
use klotski_model::workload::Workload;
use klotski_sim::event::EventQueue;
use klotski_sim::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::admission::{estimate_group_service, AdmissionPolicy, GroupTrigger};
use crate::cluster::fleet::Fleet;
use crate::dispatcher::DispatchPolicy;
use crate::traffic::{Request, TrafficConfig};

/// Traffic fed to the serving loop.
#[derive(Debug, Clone)]
pub enum Traffic {
    /// Open loop: a pre-generated arrival stream (see
    /// [`traffic::generate`](crate::traffic::generate)).
    Open(Vec<Request>),
    /// Closed loop: `clients` concurrent users; each issues its next
    /// request `think` after its previous one completes, until
    /// `cfg.num_requests` have been issued in total.
    Closed {
        /// Concurrent clients (all issue their first request at t = 0).
        clients: u32,
        /// Think time between a completion and the next request.
        think: SimDuration,
        /// Stream shape (lengths + total request count + seed).
        cfg: TrafficConfig,
    },
}

/// Serving-loop configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Sequences per batch within a group.
    pub batch_size: u32,
    /// The admission policy forming batch groups.
    pub policy: AdmissionPolicy,
    /// Seed for per-group scenario generation (gating traces).
    pub seed: u64,
}

/// How a request's service concluded under the fault-tolerance machinery
/// (see [`cluster::faults`](crate::cluster::faults)). Fault-free paths
/// always record [`RetryOutcome::FirstTry`], so adding this field changes
/// no existing byte-identity: every pinned path produces identical values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryOutcome {
    /// Served on its first dispatch — the only value non-fault runs emit.
    FirstTry,
    /// Served after this many crash-driven redispatches (≥ 1).
    Retried(u32),
    /// Rejected at admission by the degradation policy; never served.
    /// Timing fields all equal the arrival instant and `failed` is set.
    Shed,
    /// Lost to a crash with its retry budget exhausted. Timing fields all
    /// equal the crash instant and `failed` is set.
    Dropped,
}

impl RetryOutcome {
    /// Whether the request was actually served (first try or retried).
    pub fn served(&self) -> bool {
        matches!(self, RetryOutcome::FirstTry | RetryOutcome::Retried(_))
    }
}

/// One served request with its full timing breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestOutcome {
    /// Request id (stable from the traffic stream).
    pub id: u64,
    /// Arrival time.
    pub arrival: SimTime,
    /// When the request's group was dispatched to the engine.
    pub dispatched: SimTime,
    /// When the request's first generated token landed (end of the group's
    /// prefill).
    pub first_token: SimTime,
    /// When the request's *own* last token landed.
    pub finished: SimTime,
    /// Prompt tokens.
    pub prompt_len: u32,
    /// Generated tokens.
    pub gen_len: u32,
    /// Index of the group that served this request.
    pub group: u32,
    /// Replica that served this request (0 for single-engine [`serve`]).
    pub replica: u32,
    /// Whether the request failed: its group aborted (OOM), it was shed at
    /// admission, or it was dropped after a crash — timings are then
    /// meaningless and the request counts as an SLO violation.
    pub failed: bool,
    /// Retry/shed disposition ([`RetryOutcome::FirstTry`] on every
    /// fault-free path).
    pub retry: RetryOutcome,
}

impl RequestOutcome {
    /// Time spent queued before dispatch.
    pub fn queue_delay(&self) -> SimDuration {
        self.dispatched.saturating_since(self.arrival)
    }

    /// Time to first token (queueing delay + group prefill).
    pub fn ttft(&self) -> SimDuration {
        self.first_token.saturating_since(self.arrival)
    }

    /// Time per output token after the first (zero for 1-token outputs).
    pub fn tpot(&self) -> SimDuration {
        if self.gen_len <= 1 {
            return SimDuration::ZERO;
        }
        self.finished.saturating_since(self.first_token) / (self.gen_len - 1) as u64
    }

    /// End-to-end latency (arrival → own last token).
    pub fn e2e(&self) -> SimDuration {
        self.finished.saturating_since(self.arrival)
    }
}

/// One dispatched batch group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupRecord {
    /// Group index, in dispatch order across all replicas.
    pub index: u32,
    /// Replica that ran the group (0 for single-engine [`serve`]).
    pub replica: u32,
    /// Dispatch (= formation) time.
    pub dispatched: SimTime,
    /// The padded workload handed to the engine.
    pub workload: Workload,
    /// Requests in the group (`= workload.total_seqs()`).
    pub n_requests: u32,
    /// What cut the group.
    pub trigger: GroupTrigger,
    /// The engine's service time for the group.
    pub service_time: SimDuration,
    /// The group's prefill span.
    pub prefill_time: SimDuration,
    /// Whether the engine aborted with OOM.
    pub oom: bool,
}

/// How one replica spent a serving run.
///
/// Static fleets ([`serve`] / [`serve_scaled`](crate::dispatcher::serve_scaled))
/// report `spawned == SimTime::ZERO`, `retired == None`, and
/// `lifetime == makespan`; cluster runs
/// ([`serve_cluster`](crate::cluster::serve_cluster)) report the actual
/// birth/retirement span, so `utilization` is always busy time over the
/// window the replica *existed*, not over the whole run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicaUtilization {
    /// Replica id (always 0 for single-engine [`serve`]).
    pub replica: u32,
    /// Groups this replica dispatched.
    pub groups: u32,
    /// Requests this replica served (failed ones included).
    pub requests: u32,
    /// Engine-busy time: the sum of this replica's group service times.
    pub busy: SimDuration,
    /// Generated tokens of this replica's completed (non-OOM) requests.
    pub tokens: u64,
    /// When the replica was born (`ZERO` for static fleets).
    pub spawned: SimTime,
    /// When the replica retired (`None` if it outlived the run).
    pub retired: Option<SimTime>,
    /// The span the replica existed within the run: birth (or first
    /// arrival, whichever is later) → retirement (or run end). Equals the
    /// makespan for static fleets.
    pub lifetime: SimDuration,
    /// `busy` over `lifetime` (0 when the lifetime is zero).
    pub utilization: f64,
}

/// Everything one serving run produced.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Engine name.
    pub engine: String,
    /// Per-request outcomes, in request-id order.
    pub outcomes: Vec<RequestOutcome>,
    /// Per-group records, in dispatch order (interleaved across replicas).
    pub groups: Vec<GroupRecord>,
    /// Per-replica utilization, in replica-id order (one entry for
    /// single-engine [`serve`]).
    pub replicas: Vec<ReplicaUtilization>,
    /// First arrival → last completed token.
    pub makespan: SimDuration,
}

impl ServeReport {
    /// Cuts the report at the end of a run: outcomes in id order, the
    /// makespan from the first arrival to the last finish, and one
    /// [`ReplicaUtilization`] per entry of `replicas`, in replica-id order.
    ///
    /// Each entry gives what the records cannot show: the replica's birth,
    /// its retirement (`None` if it outlived the run) and its engine-busy
    /// time. Its groups, requests and tokens are folds over `groups` and
    /// `outcomes`, and its lifetime spans birth (or the first arrival,
    /// whichever is later) to retirement (or the last finish), so a
    /// never-retired replica born at `ZERO` reports exactly the makespan.
    pub(crate) fn assemble(
        engine: String,
        mut outcomes: Vec<RequestOutcome>,
        groups: Vec<GroupRecord>,
        replicas: impl IntoIterator<Item = (SimTime, Option<SimTime>, SimDuration)>,
    ) -> ServeReport {
        outcomes.sort_by_key(|o| o.id);
        let first_arrival = outcomes
            .iter()
            .map(|o| o.arrival)
            .min()
            .unwrap_or(SimTime::ZERO);
        let last_finish = outcomes
            .iter()
            .map(|o| o.finished)
            .max()
            .unwrap_or(SimTime::ZERO);
        let mut replicas: Vec<ReplicaUtilization> = replicas
            .into_iter()
            .enumerate()
            .map(|(id, (spawned, retired, busy))| {
                let lifetime = retired
                    .unwrap_or(last_finish)
                    .saturating_since(spawned.max(first_arrival));
                ReplicaUtilization {
                    replica: id as u32,
                    groups: 0,
                    requests: 0,
                    busy,
                    tokens: 0,
                    spawned,
                    retired,
                    lifetime,
                    utilization: if lifetime.is_zero() {
                        0.0
                    } else {
                        busy.as_secs_f64() / lifetime.as_secs_f64()
                    },
                }
            })
            .collect();
        for g in &groups {
            replicas[g.replica as usize].groups += 1;
        }
        for o in outcomes.iter().filter(|o| o.retry.served()) {
            let r = &mut replicas[o.replica as usize];
            r.requests += 1;
            if !o.failed {
                r.tokens += u64::from(o.gen_len);
            }
        }
        ServeReport {
            engine,
            outcomes,
            groups,
            replicas,
            makespan: last_finish.saturating_since(first_arrival),
        }
    }

    /// Total replica-hours consumed: the sum of every replica's lifetime,
    /// in hours — the fleet-cost metric autoscaling trades against SLO
    /// attainment. For a static fleet this is `R × makespan`.
    pub fn replica_hours(&self) -> f64 {
        self.replicas
            .iter()
            .map(|r| r.lifetime.as_secs_f64() / 3600.0)
            .sum()
    }
}

/// Drives `engine` over `traffic` and returns per-request outcomes.
///
/// One replica on the fleet event loop (see [`cluster`](crate::cluster)):
/// a fixed fleet of size one, with no autoscaler and no faults.
///
/// # Errors
///
/// Returns [`EngineError`] if the engine rejects a scenario as invalid
/// (configuration errors — OOM is a per-group *result*, not an error).
///
/// # Panics
///
/// Panics if `cfg.batch_size` is zero, the policy's group size is zero,
/// or closed-loop traffic promises requests but has no clients to issue
/// them.
pub fn serve(
    engine: &dyn Engine,
    spec: &ModelSpec,
    hw: &HardwareSpec,
    traffic: &Traffic,
    cfg: &ServeConfig,
) -> Result<ServeReport, EngineError> {
    let ctx = EngineCtx::new(engine, spec, hw, cfg);
    let fleet = Fleet::fixed(ctx, traffic, 1, DispatchPolicy::RoundRobin);
    Ok(fleet.run()?.serve)
}

/// The configuration checks every serving entry point shares.
///
/// # Panics
///
/// Panics if `cfg.batch_size` is zero, the policy's group size is zero,
/// or closed-loop traffic promises requests but has no clients to issue
/// them.
pub(crate) fn validate(cfg: &ServeConfig, traffic: &Traffic) {
    assert!(cfg.batch_size > 0, "batch_size must be positive");
    assert!(cfg.policy.max_batches() > 0, "group size must be positive");
    if let Traffic::Closed {
        clients, cfg: tc, ..
    } = traffic
    {
        assert!(
            *clients > 0 || tc.num_requests == 0,
            "closed-loop traffic needs at least one client"
        );
    }
}

/// Everything [`Replica::run_group`] needs beyond replica-local state.
pub(crate) struct EngineCtx<'a> {
    engine: &'a dyn Engine,
    spec: &'a ModelSpec,
    hw: &'a HardwareSpec,
    cost: CostModel,
    cfg: &'a ServeConfig,
}

impl<'a> EngineCtx<'a> {
    pub(crate) fn new(
        engine: &'a dyn Engine,
        spec: &'a ModelSpec,
        hw: &'a HardwareSpec,
        cfg: &'a ServeConfig,
    ) -> Self {
        EngineCtx {
            engine,
            spec,
            hw,
            cost: CostModel::new(spec.clone(), hw.clone()),
            cfg,
        }
    }

    pub(crate) fn engine_name(&self) -> String {
        self.engine.name()
    }

    pub(crate) fn cost(&self) -> &CostModel {
        &self.cost
    }

    pub(crate) fn spec(&self) -> &ModelSpec {
        self.spec
    }

    pub(crate) fn cfg(&self) -> &ServeConfig {
        self.cfg
    }
}

/// A completed request, reported back so closed-loop clients can react.
pub(crate) struct Completion {
    pub(crate) finished: SimTime,
    pub(crate) failed: bool,
}

/// One engine replica's serving state: its admission queue, its clock, and
/// what the report cannot fold from its records (birth, retirement and
/// engine-busy time). Every fleet slot holds one, whatever entry point
/// configured the fleet.
pub(crate) struct Replica {
    id: u32,
    /// Per-replica scenario-seed base (replica 0 preserves the
    /// single-engine seed stream exactly).
    seed: u64,
    queue: VecDeque<Request>,
    t_free: SimTime,
    queued_tokens: u64,
    /// Tokens of the group currently on the engine (count toward the
    /// backlog until `t_free`, prorated by remaining service time).
    inflight_tokens: u64,
    /// Service time of the group currently on the engine.
    inflight_service: SimDuration,
    /// Dispatch instant of the group currently on the engine.
    inflight_at: SimTime,
    /// Requests of the group currently on the engine with their own
    /// finish instants — what a crash loses (see [`Replica::crash`]).
    inflight: Vec<(Request, SimTime)>,
    /// Injected straggler multiplier in percent; 100 is healthy and takes
    /// the exact pre-fault arithmetic path.
    slowdown_pct: u32,
    local_groups: u64,
    /// Engine-busy time: the sum of this replica's group service times,
    /// cut at a crash.
    pub(crate) busy: SimDuration,
    /// Birth instant (`ZERO` for static fleets).
    pub(crate) spawned: SimTime,
    /// Retirement instant, once the cluster loop drains and retires it.
    pub(crate) retired: Option<SimTime>,
}

impl Replica {
    pub(crate) fn new(id: u32, seed: u64) -> Self {
        Replica::new_at(id, seed, SimTime::ZERO)
    }

    /// A replica born mid-run (cluster scale-up); its scenario seed stream
    /// depends only on `(id, seed)`, never on the birth time, so a static
    /// cluster reproduces `serve_scaled` exactly.
    pub(crate) fn new_at(id: u32, seed: u64, spawned: SimTime) -> Self {
        let salt = u64::from(id).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        Replica {
            id,
            seed: seed.wrapping_add(salt),
            queue: VecDeque::new(),
            t_free: spawned,
            queued_tokens: 0,
            inflight_tokens: 0,
            inflight_service: SimDuration::ZERO,
            inflight_at: spawned,
            inflight: Vec::new(),
            slowdown_pct: 100,
            local_groups: 0,
            busy: SimDuration::ZERO,
            spawned,
            retired: None,
        }
    }

    /// Marks the replica retired at `at` (drained, engine free).
    pub(crate) fn retire(&mut self, at: SimTime) {
        debug_assert!(self.queue.is_empty(), "retiring with queued work");
        self.retired = Some(at);
    }

    /// When this replica's engine frees (or freed).
    pub(crate) fn t_free(&self) -> SimTime {
        self.t_free
    }

    /// Requests waiting in the admission queue.
    pub(crate) fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Tokens (prompt + requested output) in the system as of `at`: the
    /// admission queue plus the *unserved remainder* of the group still on
    /// the engine — the join-shortest-queue dispatch metric. Counting
    /// in-flight work keeps a busy engine with a freshly drained queue
    /// from dogpiling; prorating it by remaining service time keeps a
    /// nearly finished group from repelling work it no longer represents.
    pub(crate) fn backlog_tokens(&self, at: SimTime) -> u64 {
        let inflight = if self.t_free > at && !self.inflight_service.is_zero() {
            let remaining = self.t_free.saturating_since(at).as_nanos() as u128;
            let service = self.inflight_service.as_nanos() as u128;
            (self.inflight_tokens as u128 * remaining.min(service) / service) as u64
        } else {
            0
        };
        self.queued_tokens + inflight
    }

    /// Padded shape (max prompt, max gen) of the current queue; `(1, 1)`
    /// when empty.
    pub(crate) fn queue_shape(&self) -> (u32, u32) {
        self.queue
            .iter()
            .fold((1, 1), |(p, g), r| (p.max(r.prompt_len), g.max(r.gen_len)))
    }

    pub(crate) fn enqueue(&mut self, r: Request) {
        self.queued_tokens += u64::from(r.prompt_len) + u64::from(r.gen_len);
        self.queue.push_back(r);
    }

    /// The earliest instant at which this replica would cut a group, given
    /// the requests routed to it so far — `None` while the policy is
    /// waiting on arrivals that have not happened yet. An end-of-stream
    /// flush is never backdated before `last_arrival`, the instant the
    /// stream was known to be drained.
    pub(crate) fn next_form_time(
        &self,
        cfg: &ServeConfig,
        eos: bool,
        last_arrival: SimTime,
    ) -> Option<SimTime> {
        let front = self.queue.front()?;
        let bs = cfg.batch_size as usize;
        // The instant the queue first held `n` full batches (the requests
        // only leave at formation, so it is the n·bs-th arrival).
        let full_at = |n: u32| self.queue.get(n as usize * bs - 1).map(|r| r.arrival);
        let ready_at = if eos {
            Some(front.arrival.max(last_arrival))
        } else {
            match cfg.policy {
                AdmissionPolicy::FixedN { n } => full_at(n),
                AdmissionPolicy::Deadline { n, deadline } => {
                    let by_deadline = front.arrival + deadline;
                    Some(full_at(n).map_or(by_deadline, |t| t.min(by_deadline)))
                }
                AdmissionPolicy::CostAware { .. } => Some(front.arrival),
            }
        };
        ready_at.map(|t| t.max(self.t_free))
    }

    /// Cuts a group at `t_form`, runs it through the engine, and records
    /// outcomes; returns the completions so closed-loop clients can issue
    /// their next requests.
    pub(crate) fn run_group(
        &mut self,
        t_form: SimTime,
        eos: bool,
        ctx: &EngineCtx<'_>,
        outcomes: &mut Vec<RequestOutcome>,
        groups: &mut Vec<GroupRecord>,
    ) -> Result<Vec<Completion>, EngineError> {
        let cfg = ctx.cfg;
        let front = self.queue.front().expect("formation needs a queue");
        let wait = t_form.saturating_since(front.arrival);
        // Padded shape of the group actually being cut: only the front of
        // the queue (up to the policy's cap) is dispatchable, so requests
        // beyond it must not inflate the estimate.
        let horizon = (cfg.policy.max_batches() as usize) * cfg.batch_size as usize;
        let (prompt, gen) = self
            .queue
            .iter()
            .take(horizon)
            .fold((1, 1), |(p, g), r| (p.max(r.prompt_len), g.max(r.gen_len)));
        let estimate = |n: u32| estimate_group_service(&ctx.cost, cfg.batch_size, n, prompt, gen);
        let (count, trigger) =
            cfg.policy
                .take(self.queue.len(), wait, eos, cfg.batch_size, &estimate);
        // A ragged drain beyond one batch cannot be represented by the
        // padded workload shape; defer the tail to a trailing partial
        // group instead of silently dropping it from the engine's work.
        let count = clamp_drain(count, cfg.batch_size as usize);
        let batch: Vec<Request> = self.queue.drain(..count).collect();
        let batch_tokens: u64 = batch
            .iter()
            .map(|r| u64::from(r.prompt_len) + u64::from(r.gen_len))
            .sum();
        self.queued_tokens -= batch_tokens;
        self.inflight_tokens = batch_tokens;
        let wl = group_workload(&batch, cfg.batch_size);
        let seed = self.seed.wrapping_add(3 * self.local_groups);
        let scenario = Scenario::generate(ctx.spec.clone(), ctx.hw.clone(), wl, seed);
        // The engine/serve boundary is step-level: the run is consumed as a
        // StepPlan (prefill + uniform decode steps, remainder pinned to the
        // last step), with each request finishing at its own step boundary.
        // The plan reconstructs the atomic run's total exactly, so this
        // run-to-completion path is byte-identical to the run itself — the
        // golden pins hold it there.
        let plan = StepPlan::from_report(&ctx.engine.run(&scenario)?, wl.gen_len);
        let oom = plan.oom;
        let (service, prefill) = if oom {
            (SimDuration::ZERO, SimDuration::ZERO)
        } else {
            (plan.total(), plan.prefill)
        };
        // An injected straggler runs every span of the group at the
        // multiplier; 100% bypasses the scaling entirely so healthy
        // replicas keep the exact pre-fault arithmetic (golden-pinned).
        let pct = self.slowdown_pct;
        let (service, prefill) = (scale_pct(service, pct), scale_pct(prefill, pct));
        let first_token = t_form + prefill;
        let group_end = t_form + service;
        // Decode pace of the padded group; each request stops at its own
        // gen_len. The step quantum truncates, so pace-setting requests
        // (gen_len == padded) are pinned to the exact engine-free instant
        // rather than drifting early by the accumulated remainder.
        let padded_gen = wl.gen_len;
        let mut done = Vec::with_capacity(batch.len());
        let mut latest = SimTime::ZERO;
        self.inflight.clear();
        for r in &batch {
            let finished = if oom {
                t_form
            } else {
                t_form + scale_pct(plan.finish_offset(r.gen_len, padded_gen), pct)
            };
            latest = latest.max(finished);
            outcomes.push(RequestOutcome {
                id: r.id,
                arrival: r.arrival,
                dispatched: t_form,
                first_token,
                finished,
                prompt_len: r.prompt_len,
                gen_len: r.gen_len,
                group: groups.len() as u32,
                replica: self.id,
                failed: oom,
                retry: RetryOutcome::FirstTry,
            });
            done.push(Completion {
                finished,
                failed: oom,
            });
            self.inflight.push((*r, finished));
        }
        assert!(
            oom || latest == group_end,
            "finish times must span the engine-busy horizon \
             (max finished {latest} != group end {group_end})"
        );
        groups.push(GroupRecord {
            index: groups.len() as u32,
            replica: self.id,
            dispatched: t_form,
            workload: wl,
            n_requests: batch.len() as u32,
            trigger,
            service_time: service,
            prefill_time: prefill,
            oom,
        });
        self.t_free = group_end;
        self.inflight_service = service;
        self.inflight_at = t_form;
        self.local_groups += 1;
        self.busy += service;
        Ok(done)
    }

    /// Sets the injected straggler multiplier (percent; 100 = healthy).
    /// Applies to groups *dispatched* while the multiplier is in force.
    pub(crate) fn set_slowdown(&mut self, pct: u32) {
        assert!(pct >= 100, "slowdown below 100% would speed the engine up");
        self.slowdown_pct = pct;
    }

    /// The engine dies at `at`. Every queued request and every in-flight
    /// request whose own last token had not landed by `at` is lost — the
    /// group's KV state and any partially generated tokens are gone, so
    /// lost requests must be re-served from scratch. Requests whose last
    /// token landed at or before `at` stay served. Busy time is cut at the
    /// crash instant. The replica retires at `at` and must not be routed
    /// to again.
    pub(crate) fn crash(&mut self, at: SimTime) -> CrashLoss {
        let mut inflight = Vec::new();
        let mut wasted = SimDuration::ZERO;
        if self.t_free > at {
            wasted = at.saturating_since(self.inflight_at);
            self.busy = self.busy.saturating_sub(self.t_free.saturating_since(at));
            inflight = self
                .inflight
                .iter()
                .filter(|&&(_, finished)| finished > at)
                .map(|&(r, _)| r)
                .collect();
        }
        let queued: Vec<Request> = self.queue.drain(..).collect();
        self.queued_tokens = 0;
        self.inflight.clear();
        self.inflight_tokens = 0;
        self.inflight_service = SimDuration::ZERO;
        self.t_free = at;
        self.retired = Some(at);
        CrashLoss {
            inflight,
            queued,
            wasted,
        }
    }

    /// Removes every queued request matching `pred` (queue order kept for
    /// the rest) — the hedged-redispatch extraction path.
    pub(crate) fn take_queued_where(
        &mut self,
        pred: &mut dyn FnMut(&Request) -> bool,
    ) -> Vec<Request> {
        let mut taken = Vec::new();
        let mut kept = VecDeque::with_capacity(self.queue.len());
        for r in self.queue.drain(..) {
            if pred(&r) {
                self.queued_tokens -= u64::from(r.prompt_len) + u64::from(r.gen_len);
                taken.push(r);
            } else {
                kept.push_back(r);
            }
        }
        self.queue = kept;
        taken
    }
}

/// What a crash took from a replica (see [`Replica::crash`]).
pub(crate) struct CrashLoss {
    /// In-flight requests whose last token had not landed at the crash.
    pub(crate) inflight: Vec<Request>,
    /// Requests still waiting in the admission queue.
    pub(crate) queued: Vec<Request>,
    /// Engine-busy time the killed group burned before the crash — work
    /// that produced nothing deliverable.
    pub(crate) wasted: SimDuration,
}

/// Scales a duration by an integer percentage (exact in nanoseconds,
/// truncating). `pct == 100` is the identity by construction — the scaled
/// value never re-rounds, so healthy replicas are byte-identical to the
/// pre-fault arithmetic.
fn scale_pct(d: SimDuration, pct: u32) -> SimDuration {
    if pct == 100 {
        return d;
    }
    SimDuration::from_nanos((u128::from(d.as_nanos()) * u128::from(pct) / 100) as u64)
}

/// Clamps a requested drain to a shape [`group_workload`] represents
/// exactly: sub-batch drains pass through (one ragged batch), anything
/// larger rounds down to whole batches so the remainder stays queued for a
/// trailing partial group instead of being silently dropped.
pub(crate) fn clamp_drain(count: usize, batch_size: usize) -> usize {
    if count <= batch_size {
        count
    } else {
        count / batch_size * batch_size
    }
}

/// Pads a drained batch into one engine workload: whole batches of
/// `batch_size` when possible, otherwise a single ragged batch.
///
/// # Panics
///
/// Panics on a ragged multi-batch drain (`count > batch_size` and not a
/// whole number of batches): the padded shape cannot represent it, and
/// truncating `count / batch_size` would silently drop the remainder
/// requests from the engine's work while still emitting outcomes for them.
fn group_workload(batch: &[Request], batch_size: u32) -> Workload {
    let count = batch.len() as u32;
    let prompt = batch.iter().map(|r| r.prompt_len).max().expect("non-empty");
    let gen = batch.iter().map(|r| r.gen_len).max().expect("non-empty");
    if count < batch_size {
        Workload::new(count, 1, prompt, gen)
    } else {
        assert_eq!(
            count % batch_size,
            0,
            "drains beyond one batch must be whole batches"
        );
        Workload::new(batch_size, count / batch_size, prompt, gen)
    }
}

/// The request stream feeding the fleet loop and the continuous slot
/// machine: pre-generated open-loop arrivals plus the closed-loop state
/// that issues follow-up requests as completions happen.
///
/// Built on the simulator's [`EventQueue`], whose FIFO-among-ties rule is
/// the one ordering definition the whole tree uses. Same-instant arrivals
/// come out in request-id order because they are pushed in id order: open
/// streams are sorted by `(arrival, id)` before insertion, and closed-loop
/// follow-ups mint monotonically increasing ids as they are pushed.
pub(crate) struct ArrivalSource {
    /// Future arrivals, earliest first.
    future: EventQueue<(u64, u32, u32)>, // (id, prompt, gen)
    /// Closed-loop state: requests still to issue, lengths, think time.
    closed: Option<ClosedState>,
}

struct ClosedState {
    remaining: u32,
    think: SimDuration,
    cfg: TrafficConfig,
    rng: StdRng,
    next_id: u64,
}

impl ArrivalSource {
    pub(crate) fn new(traffic: &Traffic) -> Self {
        let mut future = EventQueue::new();
        let mut closed = None;
        match traffic {
            Traffic::Open(requests) => {
                // Push in (arrival, id) order so the queue's FIFO-at-ties
                // rule reproduces the id order the loop always ingested
                // same-instant arrivals in.
                let mut sorted: Vec<&Request> = requests.iter().collect();
                sorted.sort_by_key(|r| (r.arrival, r.id));
                for r in sorted {
                    future.push(r.arrival, (r.id, r.prompt_len, r.gen_len));
                }
            }
            Traffic::Closed {
                clients,
                think,
                cfg: tc,
            } => {
                let mut rng = StdRng::seed_from_u64(tc.seed);
                let initial = (*clients).min(tc.num_requests);
                for id in 0..initial as u64 {
                    let prompt = tc.prompt.sample(&mut rng);
                    let gen = tc.gen.sample(&mut rng);
                    future.push(SimTime::ZERO, (id, prompt, gen));
                }
                closed = Some(ClosedState {
                    remaining: tc.num_requests - initial,
                    think: *think,
                    cfg: *tc,
                    rng,
                    next_id: initial as u64,
                });
            }
        }
        ArrivalSource { future, closed }
    }

    /// The next arrival instant, if any request is already in flight.
    pub(crate) fn peek(&self) -> Option<SimTime> {
        self.future.peek_time()
    }

    /// Pops the earliest pending arrival (FIFO among ties — request-id
    /// order, the same order the single-engine queue always ingested them).
    pub(crate) fn pop(&mut self) -> Option<Request> {
        let (at, (id, prompt, gen)) = self.future.pop()?;
        Some(Request {
            id,
            arrival: at,
            prompt_len: prompt,
            gen_len: gen,
        })
    }

    /// A request completed at `finished`; in closed-loop mode its client
    /// issues the next request after thinking (unless the group failed —
    /// a failed client walks away, which also guarantees progress).
    pub(crate) fn on_complete(&mut self, finished: SimTime, failed: bool) {
        let Some(state) = self.closed.as_mut() else {
            return;
        };
        if failed || state.remaining == 0 {
            return;
        }
        state.remaining -= 1;
        let arrival = finished + state.think;
        let prompt = state.cfg.prompt.sample(&mut state.rng);
        let gen = state.cfg.gen.sample(&mut state.rng);
        self.future.push(arrival, (state.next_id, prompt, gen));
        state.next_id += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{generate, Arrivals, LengthDist};
    use klotski_core::report::InferenceReport;
    use proptest::prelude::*;

    /// A stub engine with a fixed per-batch cost: service = base +
    /// per_batch × num_batches, prefill = base. Makes queueing arithmetic
    /// exact in tests without running the simulator.
    struct StubEngine {
        base: SimDuration,
        per_batch: SimDuration,
    }

    impl StubEngine {
        fn new() -> Self {
            StubEngine {
                base: SimDuration::from_secs(1),
                per_batch: SimDuration::from_secs(1),
            }
        }
    }

    impl Engine for StubEngine {
        fn name(&self) -> String {
            "Stub".into()
        }

        fn run(&self, sc: &Scenario) -> Result<InferenceReport, EngineError> {
            let total = self.base + self.per_batch * sc.workload.num_batches as u64;
            Ok(InferenceReport {
                engine: self.name(),
                model: sc.spec.name.clone(),
                total_time: total,
                prefill_time: self.base,
                decode_time: total - self.base,
                generated_tokens: sc.workload.total_generated(),
                gpu_busy: total,
                gpu_bubble: SimDuration::ZERO,
                peak_vram: 0,
                peak_dram: 0,
                oom: None,
                metrics: None,
            })
        }
    }

    fn mixtral() -> (ModelSpec, HardwareSpec) {
        (ModelSpec::mixtral_8x7b(), HardwareSpec::env1_rtx3090())
    }

    fn serve_stub(traffic: &Traffic, cfg: &ServeConfig) -> ServeReport {
        let (spec, hw) = mixtral();
        serve(&StubEngine::new(), &spec, &hw, traffic, cfg).expect("serve")
    }

    #[test]
    fn all_requests_served_exactly_once() {
        let stream = generate(
            Arrivals::Poisson { rate: 4.0 },
            &TrafficConfig::fixed(37, 64, 4, 5),
        );
        let report = serve_stub(
            &Traffic::Open(stream),
            &ServeConfig {
                batch_size: 4,
                policy: AdmissionPolicy::FixedN { n: 3 },
                seed: 1,
            },
        );
        assert_eq!(report.outcomes.len(), 37);
        let ids: Vec<u64> = report.outcomes.iter().map(|o| o.id).collect();
        assert_eq!(ids, (0..37).collect::<Vec<_>>());
        let grouped: u32 = report.groups.iter().map(|g| g.n_requests).sum();
        assert_eq!(grouped, 37);
        // One replica served everything.
        assert_eq!(report.replicas.len(), 1);
        assert_eq!(report.replicas[0].requests, 37);
        assert!(report.outcomes.iter().all(|o| o.replica == 0));
    }

    #[test]
    fn timings_are_causally_ordered() {
        let stream = generate(
            Arrivals::Poisson { rate: 2.0 },
            &TrafficConfig {
                num_requests: 20,
                prompt: LengthDist::Uniform { lo: 16, hi: 64 },
                gen: LengthDist::Uniform { lo: 2, hi: 8 },
                seed: 11,
            },
        );
        let report = serve_stub(
            &Traffic::Open(stream.clone()),
            &ServeConfig {
                batch_size: 4,
                policy: AdmissionPolicy::Deadline {
                    n: 4,
                    deadline: SimDuration::from_secs(2),
                },
                seed: 1,
            },
        );
        for o in &report.outcomes {
            assert!(o.dispatched >= o.arrival);
            assert!(o.first_token >= o.dispatched);
            assert!(o.finished >= o.first_token);
            assert!(o.ttft() >= o.queue_delay());
            assert!(o.e2e() >= o.ttft());
        }
        // Groups are dispatched in time order and never overlap.
        for w in report.groups.windows(2) {
            assert!(w[1].dispatched >= w[0].dispatched + w[0].service_time);
        }
    }

    #[test]
    fn fixed_n_groups_are_full_until_the_flush() {
        let stream = generate(
            Arrivals::Poisson { rate: 100.0 },
            &TrafficConfig::fixed(30, 64, 4, 5),
        );
        let report = serve_stub(
            &Traffic::Open(stream),
            &ServeConfig {
                batch_size: 4,
                policy: AdmissionPolicy::FixedN { n: 2 },
                seed: 1,
            },
        );
        for g in &report.groups {
            assert!(g.workload.num_batches <= 2);
            assert_eq!(g.n_requests as u64, g.workload.total_seqs());
            match g.trigger {
                GroupTrigger::Full => assert_eq!(g.n_requests, 8),
                GroupTrigger::Flush => assert!(g.n_requests < 8),
                other => panic!("unexpected trigger {other:?}"),
            }
        }
    }

    #[test]
    fn deadline_bounds_queue_delay_when_engine_is_idle() {
        // 1 request at t=0, nothing else until t=100 s: the deadline (2 s)
        // must dispatch a partial group at exactly t=2 s.
        let reqs = vec![
            Request {
                id: 0,
                arrival: SimTime::ZERO,
                prompt_len: 64,
                gen_len: 4,
            },
            Request {
                id: 1,
                arrival: SimTime::from_nanos(100_000_000_000),
                prompt_len: 64,
                gen_len: 4,
            },
        ];
        let report = serve_stub(
            &Traffic::Open(reqs),
            &ServeConfig {
                batch_size: 4,
                policy: AdmissionPolicy::Deadline {
                    n: 4,
                    deadline: SimDuration::from_secs(2),
                },
                seed: 1,
            },
        );
        assert_eq!(report.groups.len(), 2);
        assert_eq!(report.outcomes[0].queue_delay(), SimDuration::from_secs(2));
        assert_eq!(report.groups[0].trigger, GroupTrigger::DeadlineExpired);
        // The straggler is flushed as end-of-stream.
        assert_eq!(report.groups[1].trigger, GroupTrigger::Flush);
    }

    #[test]
    fn padding_lets_short_requests_finish_early() {
        let reqs = vec![
            Request {
                id: 0,
                arrival: SimTime::ZERO,
                prompt_len: 64,
                gen_len: 2,
            },
            Request {
                id: 1,
                arrival: SimTime::ZERO,
                prompt_len: 32,
                gen_len: 8,
            },
        ];
        let report = serve_stub(
            &Traffic::Open(reqs),
            &ServeConfig {
                batch_size: 2,
                policy: AdmissionPolicy::CostAware {
                    max_n: 4,
                    slo_e2e: SimDuration::from_secs(3600),
                },
                seed: 1,
            },
        );
        assert_eq!(report.groups.len(), 1);
        let wl = report.groups[0].workload;
        assert_eq!((wl.prompt_len, wl.gen_len), (64, 8), "padded to maxima");
        let [a, b] = report.outcomes[..] else {
            panic!("expected 2 outcomes")
        };
        assert!(a.finished < b.finished, "2-token request finishes first");
        assert_eq!(a.first_token, b.first_token);
    }

    /// Regression (finish-time truncation drift): with a decode span not
    /// divisible by `padded_gen − 1`, integer tpot used to strand the
    /// pace-setting request's last token *before* the engine freed,
    /// under-reporting the makespan and inflating throughput.
    #[test]
    fn pace_setting_requests_finish_exactly_when_the_engine_frees() {
        // decode = service − prefill = 10 s + 7 ns over padded_gen − 1 = 3
        // steps: truncates to 3_333_333_335 ns per step, 2 ns short over
        // the full span.
        struct RaggedStub;
        impl Engine for RaggedStub {
            fn name(&self) -> String {
                "RaggedStub".into()
            }
            fn run(&self, sc: &Scenario) -> Result<InferenceReport, EngineError> {
                let prefill = SimDuration::from_secs(1);
                let total = prefill + SimDuration::from_nanos(10_000_000_007);
                Ok(InferenceReport {
                    engine: self.name(),
                    model: sc.spec.name.clone(),
                    total_time: total,
                    prefill_time: prefill,
                    decode_time: total - prefill,
                    generated_tokens: sc.workload.total_generated(),
                    gpu_busy: total,
                    gpu_bubble: SimDuration::ZERO,
                    peak_vram: 0,
                    peak_dram: 0,
                    oom: None,
                    metrics: None,
                })
            }
        }
        let reqs = vec![
            Request {
                id: 0,
                arrival: SimTime::ZERO,
                prompt_len: 64,
                gen_len: 4, // pace-setter: padded_gen
            },
            Request {
                id: 1,
                arrival: SimTime::ZERO,
                prompt_len: 64,
                gen_len: 2,
            },
        ];
        let (spec, hw) = mixtral();
        let report = serve(
            &RaggedStub,
            &spec,
            &hw,
            &Traffic::Open(reqs),
            &ServeConfig {
                batch_size: 2,
                policy: AdmissionPolicy::CostAware {
                    max_n: 4,
                    slo_e2e: SimDuration::from_secs(3600),
                },
                seed: 1,
            },
        )
        .expect("serve");
        let g = &report.groups[0];
        let group_end = g.dispatched + g.service_time;
        // The longest request's last token lands exactly when the engine
        // frees — no truncation drift.
        assert_eq!(report.outcomes[0].finished, group_end);
        // And the makespan covers the whole engine-busy horizon.
        assert_eq!(
            report.makespan,
            group_end.saturating_since(SimTime::ZERO),
            "makespan must not under-report the engine-busy horizon"
        );
        // Shorter requests still pace at truncated tpot, strictly earlier.
        assert!(report.outcomes[1].finished < group_end);
    }

    /// Regression (ragged drain): a multi-batch drain that is not a whole
    /// number of batches must be rejected loudly — in release builds the
    /// old `debug_assert` let `count / batch_size` silently drop the
    /// remainder requests from the workload shape.
    #[test]
    #[should_panic(expected = "whole batches")]
    fn ragged_multi_batch_drain_is_rejected() {
        let reqs: Vec<Request> = (0..7)
            .map(|id| Request {
                id,
                arrival: SimTime::ZERO,
                prompt_len: 16,
                gen_len: 2,
            })
            .collect();
        let _ = group_workload(&reqs, 4);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Draining any backlog through `clamp_drain` covers every request
        /// in finitely many valid groups — no silent truncation for any
        /// (backlog, batch size) shape, including non-multiple drains.
        #[test]
        fn clamp_drain_covers_ragged_backlogs(backlog in 1usize..200, bs in 1usize..9) {
            let mut remaining = backlog;
            while remaining > 0 {
                let take = clamp_drain(remaining, bs);
                prop_assert!(take >= 1 && take <= remaining);
                // Only a sub-batch backlog may drain ragged…
                if take < bs {
                    prop_assert_eq!(take, remaining, "ragged drains only at the tail");
                } else {
                    prop_assert_eq!(take % bs, 0, "larger drains are whole batches");
                }
                // …and every drained shape is representable: the padded
                // workload holds exactly the drained requests.
                let batch: Vec<Request> = (0..take as u64).map(|id| Request {
                    id, arrival: SimTime::ZERO, prompt_len: 8, gen_len: 2,
                }).collect();
                prop_assert_eq!(group_workload(&batch, bs as u32).total_seqs(), take as u64);
                remaining -= take;
            }
        }
    }

    #[test]
    fn closed_loop_issues_exactly_num_requests() {
        let traffic = Traffic::Closed {
            clients: 3,
            think: SimDuration::from_secs(1),
            cfg: TrafficConfig::fixed(11, 64, 4, 5),
        };
        let report = serve_stub(
            &traffic,
            &ServeConfig {
                batch_size: 2,
                policy: AdmissionPolicy::CostAware {
                    max_n: 4,
                    slo_e2e: SimDuration::from_secs(3600),
                },
                seed: 1,
            },
        );
        assert_eq!(report.outcomes.len(), 11);
        // A client's next request arrives strictly after its previous one
        // finished (ids are issue-ordered).
        assert!(report.makespan > SimDuration::from_secs(4));
    }

    #[test]
    fn serving_is_deterministic() {
        let stream = generate(
            Arrivals::Poisson { rate: 3.0 },
            &TrafficConfig {
                num_requests: 25,
                prompt: LengthDist::Uniform { lo: 16, hi: 128 },
                gen: LengthDist::Uniform { lo: 2, hi: 8 },
                seed: 21,
            },
        );
        let cfg = ServeConfig {
            batch_size: 4,
            policy: AdmissionPolicy::Deadline {
                n: 4,
                deadline: SimDuration::from_secs(1),
            },
            seed: 7,
        };
        let a = serve_stub(&Traffic::Open(stream.clone()), &cfg);
        let b = serve_stub(&Traffic::Open(stream), &cfg);
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.groups, b.groups);
        assert_eq!(a.replicas, b.replicas);
    }

    #[test]
    fn utilization_accounts_engine_busy_time() {
        let stream = generate(
            Arrivals::Poisson { rate: 4.0 },
            &TrafficConfig::fixed(16, 64, 4, 5),
        );
        let report = serve_stub(
            &Traffic::Open(stream),
            &ServeConfig {
                batch_size: 4,
                policy: AdmissionPolicy::FixedN { n: 2 },
                seed: 1,
            },
        );
        let total_service: SimDuration = report.groups.iter().map(|g| g.service_time).sum();
        assert_eq!(report.replicas[0].busy, total_service);
        let expected = total_service.as_secs_f64() / report.makespan.as_secs_f64();
        assert!((report.replicas[0].utilization - expected).abs() < 1e-12);
        assert!(report.replicas[0].utilization <= 1.0 + 1e-12);
        let tokens: u64 = report
            .outcomes
            .iter()
            .filter(|o| !o.failed)
            .map(|o| o.gen_len as u64)
            .sum();
        assert_eq!(report.replicas[0].tokens, tokens);
    }

    #[test]
    fn real_engine_round_trip() {
        // End-to-end with the actual Klotski engine at a tiny scale: the
        // reported group times come from the simulator, not the stub.
        use klotski_core::engine::{KlotskiConfig, KlotskiEngine};
        let (spec, hw) = mixtral();
        let stream = generate(
            Arrivals::Poisson { rate: 0.5 },
            &TrafficConfig::fixed(8, 32, 3, 2),
        );
        let report = serve(
            &KlotskiEngine::new(KlotskiConfig::full()),
            &spec,
            &hw,
            &Traffic::Open(stream),
            &ServeConfig {
                batch_size: 4,
                policy: AdmissionPolicy::CostAware {
                    max_n: 2,
                    slo_e2e: SimDuration::from_secs(600),
                },
                seed: 3,
            },
        )
        .expect("serve");
        assert_eq!(report.outcomes.len(), 8);
        assert!(report.outcomes.iter().all(|o| !o.failed));
        let slo = crate::metrics::SloSpec::relaxed();
        assert!(crate::metrics::summarize(&report, &slo).throughput_tps > 0.0);
        assert!(report
            .groups
            .iter()
            .all(|g| g.service_time > SimDuration::ZERO));
    }
}
