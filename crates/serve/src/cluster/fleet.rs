//! The fleet event loop: every group-serving entry point runs it.
//!
//! A [`Fleet`] holds one run's whole state: the request stream, the fleet
//! slots with their replicas, the autoscaler (if any), the fault injector,
//! and the recovery ledger. [`Fleet::next_event`] returns the earliest
//! pending `(time, Event)`, and each [`Event`] kind has one handler
//! method. The entry points differ only in how they configure the fleet:
//!
//! * [`serve`](crate::server::serve) and
//!   [`serve_scaled`](crate::dispatcher::serve_scaled) run a fixed fleet
//!   ([`Fleet::fixed`]) with no autoscaler, so the loop never ticks, and
//!   no faults;
//! * [`serve_cluster`](super::serve_cluster) and
//!   [`serve_cluster_faulty`](super::serve_cluster_faulty) run an
//!   autoscaled fleet ([`Fleet::autoscaled`]) under a fault plan;
//! * [`serve_continuous`](crate::continuous::serve_continuous) without
//!   refill is `serve`; with refill, its slot machine picks its next
//!   event under the same [`Event`] order.

use std::collections::{BTreeMap, BTreeSet};

use klotski_core::scenario::EngineError;
use klotski_sim::event::EventQueue;
use klotski_sim::time::{SimDuration, SimTime};

use super::faults::{ColdFault, FaultInjector, InjectorEvent};
use super::{
    AutoscalePolicy, ClusterConfig, ClusterReport, DegradationPolicy, FaultPlan, FaultStats,
    FleetObservation, ScaleEvent, ToleranceConfig,
};
use crate::admission::estimate_group_service;
use crate::continuous::RequestClass;
use crate::dispatcher::{route_pick, DispatchPolicy, RouterState};
use crate::metrics::SloSpec;
use crate::server::{
    validate, ArrivalSource, EngineCtx, GroupRecord, Replica, RequestOutcome, RetryOutcome,
    ServeReport, Traffic,
};
use crate::traffic::Request;

/// What happens next in a serving run.
///
/// The declaration order is the whole tie rule: events at one simulated
/// instant run in this order, and formations on several slots run in slot
/// order. `(SimTime, Event)` tuples therefore sort into execution order,
/// and both loops pick their next event with [`Event::first`].
///
/// * Warm-up completions come first, so a fault or tick at the same
///   instant sees the replica warm.
/// * Injected faults precede the system's reaction to them.
/// * The autoscaler tick sees the fleet before the instant's arrivals
///   and formations land.
/// * Fresh arrivals precede crash-driven retries, so faults leave the
///   fault-free arrival interleave untouched.
/// * Arrivals and retries precede formations, so a request arriving
///   exactly when an engine frees still joins that group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Event {
    /// A warming slot finishes its cold start.
    Warm,
    /// The fault injector's next event fires.
    Fault,
    /// The autoscaler evaluates the fleet.
    Tick,
    /// The next request of the traffic stream arrives.
    Arrival,
    /// A crash-lost or stalled request re-enters dispatch.
    Retry,
    /// The slot at this index cuts a batch group.
    Form(usize),
}

impl Event {
    /// The earliest of the pending `candidates` under the tie rule.
    pub(crate) fn first(
        candidates: impl IntoIterator<Item = Option<(SimTime, Event)>>,
    ) -> Option<(SimTime, Event)> {
        candidates.into_iter().flatten().min()
    }
}

/// A fleet slot's lifecycle. Slots are append-only and replica ids are
/// never reused, so scenario seed streams stay stable across scale events.
enum SlotState {
    /// Paying the cold start; not routable. Cancelled (never-warmed)
    /// replicas retire straight from this state; a `doomed` warm-up is an
    /// injected cold-start failure — the slot retires at `ready_at`
    /// without ever serving.
    Warming { ready_at: SimTime, doomed: bool },
    /// Routable.
    Warm,
    /// No longer routable; flushes its queue as if at end-of-stream, then
    /// retires.
    Draining { since: SimTime },
    /// Done; excluded from every fleet computation.
    Retired,
}

struct Slot {
    rep: Replica,
    state: SlotState,
    /// Straggler-detector EWMA of observed/estimated group service time,
    /// in per-mille (1000 = exactly as estimated). Meaningless until
    /// `h_groups` reaches the detector's minimum sample count.
    ewma_pm: u64,
    /// Groups this slot has dispatched (the detector's sample count).
    h_groups: u32,
}

impl Slot {
    fn new(rep: Replica, state: SlotState) -> Self {
        Slot {
            rep,
            state,
            ewma_pm: 0,
            h_groups: 0,
        }
    }

    fn is_warm(&self) -> bool {
        matches!(self.state, SlotState::Warm)
    }

    /// Retires a draining slot once its queue is flushed; the retirement
    /// instant is drain-mark or engine-free, whichever is later,
    /// independent of when the sweep runs.
    fn sweep(&mut self) {
        if let SlotState::Draining { since } = self.state {
            if self.rep.queue_len() == 0 {
                self.rep.retire(since.max(self.rep.t_free()));
                self.state = SlotState::Retired;
            }
        }
    }
}

/// Per-request bookkeeping for requests a fault (or stall/hedge) touched:
/// latency clocks must run from the original arrival even though the
/// request re-enters the queues at a later instant.
struct RetryMeta {
    orig_arrival: SimTime,
    attempts: u32,
}

/// The autoscaler's side of the loop: the policy, its tick clock, and the
/// attainment window it observes.
struct Scaler<'a> {
    policy: &'a mut dyn AutoscalePolicy,
    floor: u32,
    cap: u32,
    tick: SimDuration,
    slo: SloSpec,
    next_tick: SimTime,
    /// Per-request SLO verdicts keyed by finish time and tagged with the
    /// request's serving attempt, drained into the policy's attainment
    /// window at each tick.
    finishes: EventQueue<(u64, u32, bool)>,
    /// `(id, attempt)` verdicts a crash revoked; skipped at drain.
    revoked: BTreeSet<(u64, u32)>,
    /// Requests shed since the previous tick.
    window_shed: u32,
    scale_events: Vec<ScaleEvent>,
}

impl Scaler<'_> {
    /// Drains the verdicts that landed by `now` into a `(finished, met)`
    /// attainment window, skipping revoked ones.
    fn drain_window(&mut self, now: SimTime) -> (u32, u32) {
        let mut window = (0, 0);
        while self.finishes.peek_time().is_some_and(|t| t <= now) {
            let Some((_, (id, attempt, met))) = self.finishes.pop() else {
                break;
            };
            if !self.revoked.contains(&(id, attempt)) {
                window.0 += 1;
                window.1 += u32::from(met);
            }
        }
        window
    }
}

/// One serving run's whole state (see the module docs).
pub(crate) struct Fleet<'a> {
    ctx: EngineCtx<'a>,
    dispatch: DispatchPolicy,
    tol: ToleranceConfig,
    /// `None` for a fixed fleet: the loop then never ticks.
    scaler: Option<Scaler<'a>>,
    /// The cold-start delay every mid-run spawn pays.
    warmup: SimDuration,
    initial: u32,
    source: ArrivalSource,
    injector: FaultInjector,
    stats: FaultStats,
    slots: Vec<Slot>,
    rr: RouterState,
    /// Pending warm-up completions, keyed by ready instant.
    warmups: EventQueue<usize>,
    /// Crash-lost requests waiting out their backoff (and stalled
    /// arrivals waiting for capacity), keyed by the retry instant. The
    /// queued Request carries that instant as its arrival, so a
    /// redispatched request can never form a group before the crash that
    /// necessitated it — retries are real arrivals, never backdated.
    retries: EventQueue<Request>,
    /// id → (original arrival, redispatch count) for every request a fault
    /// touched; outcomes are rewritten from this before the report is cut.
    meta: BTreeMap<u64, RetryMeta>,
    outcomes: Vec<RequestOutcome>,
    groups: Vec<GroupRecord>,
    /// The instant end-of-stream became knowable: a flush can be cut no
    /// earlier than the last arrival that proved the queue complete.
    last_arrival: SimTime,
}

impl<'a> Fleet<'a> {
    fn new(
        ctx: EngineCtx<'a>,
        traffic: &Traffic,
        initial: u32,
        dispatch: DispatchPolicy,
        faults: &FaultPlan,
        tol: ToleranceConfig,
    ) -> Self {
        validate(ctx.cfg(), traffic);
        let seed = ctx.cfg().seed;
        Fleet {
            ctx,
            dispatch,
            tol,
            scaler: None,
            warmup: SimDuration::ZERO,
            initial,
            source: ArrivalSource::new(traffic),
            injector: FaultInjector::new(faults),
            stats: FaultStats::default(),
            slots: (0..initial)
                .map(|id| Slot::new(Replica::new(id, seed), SlotState::Warm))
                .collect(),
            rr: RouterState::new(),
            warmups: EventQueue::new(),
            retries: EventQueue::new(),
            meta: BTreeMap::new(),
            outcomes: Vec::new(),
            groups: Vec::new(),
            last_arrival: SimTime::ZERO,
        }
    }

    /// A fixed fleet of `replicas`, warm from t = 0 and never resized: no
    /// autoscaler (so the loop never ticks) and no faults.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is zero, plus [`validate`]'s checks.
    pub(crate) fn fixed(
        ctx: EngineCtx<'a>,
        traffic: &Traffic,
        replicas: u32,
        dispatch: DispatchPolicy,
    ) -> Self {
        assert!(replicas > 0, "need at least one replica");
        Fleet::new(
            ctx,
            traffic,
            replicas,
            dispatch,
            &FaultPlan::none(),
            ToleranceConfig::naive(),
        )
    }

    /// A fleet sized by `policy` every `cfg.tick`, under `faults`, with
    /// `tol` choosing the recovery behavior.
    ///
    /// # Panics
    ///
    /// Panics on the configurations
    /// [`serve_cluster_faulty`](super::serve_cluster_faulty) rejects.
    pub(crate) fn autoscaled(
        ctx: EngineCtx<'a>,
        traffic: &Traffic,
        cfg: &ClusterConfig,
        policy: &'a mut dyn AutoscalePolicy,
        faults: &FaultPlan,
        tol: &ToleranceConfig,
    ) -> Self {
        assert!(!cfg.tick.is_zero(), "autoscaler tick must be positive");
        let floor = policy.floor().max(1);
        let cap = policy.cap();
        assert!(cap >= floor, "autoscaler cap ({cap}) below floor ({floor})");
        if matches!(traffic, Traffic::Closed { .. }) {
            assert!(
                faults.is_none(),
                "fault injection requires open-loop traffic: revoking a crashed \
                 completion cannot un-issue the follow-up request it triggered"
            );
        }
        if tol.health_aware {
            assert!(
                tol.suspect_pct > 100,
                "suspect threshold must exceed 100% of the fleet's best"
            );
        }
        let initial = policy.initial().clamp(floor, cap);
        let warmup = cfg.coldstart.warmup(ctx.cost(), ctx.spec());
        let mut fleet = Fleet::new(ctx, traffic, initial, cfg.dispatch, faults, *tol);
        fleet.warmup = warmup;
        fleet.scaler = Some(Scaler {
            policy,
            floor,
            cap,
            tick: cfg.tick,
            slo: cfg.slo,
            next_tick: SimTime::ZERO + cfg.tick,
            finishes: EventQueue::new(),
            revoked: BTreeSet::new(),
            window_shed: 0,
            scale_events: Vec::new(),
        });
        fleet
    }

    /// Runs the loop to completion and cuts the report.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] if the engine rejects a group's scenario as
    /// invalid.
    pub(crate) fn run(mut self) -> Result<ClusterReport, EngineError> {
        while let Some((t, event)) = self.next_event() {
            match event {
                Event::Warm => self.on_warm(),
                Event::Fault => self.on_fault(),
                Event::Tick => self.on_tick(t),
                Event::Arrival => {
                    if let Some(r) = self.source.pop() {
                        self.on_arrival(r, false);
                    }
                }
                Event::Retry => {
                    if let Some((_, r)) = self.retries.pop() {
                        self.on_arrival(r, true);
                    }
                }
                Event::Form(i) => self.on_form(t, i)?,
            }
        }
        Ok(self.finish())
    }

    /// No arrival or retry is pending: queues flush as at end-of-stream.
    /// ("End of stream" means no *known* future arrival; a closed-loop
    /// completion may still push more, so flushes between think-time gaps
    /// are intended.)
    fn eos(&self) -> bool {
        self.source.peek().is_none() && self.retries.peek_time().is_none()
    }

    /// When slot `s` would cut its next group. Warm replicas form groups
    /// under the admission policy; draining replicas flush as if at
    /// end-of-stream (no more work is coming *to them*), never backdated
    /// before the drain mark.
    fn form_time(&self, s: &Slot, eos: bool) -> Option<SimTime> {
        let cfg = self.ctx.cfg();
        match s.state {
            SlotState::Warm => s.rep.next_form_time(cfg, eos, self.last_arrival),
            SlotState::Draining { since } => {
                s.rep
                    .next_form_time(cfg, true, self.last_arrival.max(since))
            }
            SlotState::Warming { .. } | SlotState::Retired => None,
        }
    }

    /// The earliest pending event, or `None` once the run is over.
    ///
    /// The run ends when nothing is left to serve and no fault is
    /// pending: warm-ups and ticks alone never extend it. Ticks stop once
    /// the serving stream is drained, but pending faults still fire — a
    /// late crash can revive serving by scheduling retries.
    fn next_event(&self) -> Option<(SimTime, Event)> {
        let eos = self.eos();
        let form = Event::first(
            self.slots
                .iter()
                .enumerate()
                .map(|(i, s)| self.form_time(s, eos).map(|t| (t, Event::Form(i)))),
        );
        let serving = Event::first([
            self.source.peek().map(|t| (t, Event::Arrival)),
            self.retries.peek_time().map(|t| (t, Event::Retry)),
            form,
        ]);
        let fault = self.injector.peek().map(|t| (t, Event::Fault));
        if serving.is_none() && fault.is_none() {
            return None;
        }
        let tick = match (&self.scaler, serving) {
            (Some(sc), Some(_)) => Some((sc.next_tick, Event::Tick)),
            _ => None,
        };
        let warm = self.warmups.peek_time().map(|t| (t, Event::Warm));
        Event::first([warm, fault, tick, serving])
    }

    fn on_warm(&mut self) {
        let Some((t, i)) = self.warmups.pop() else {
            return;
        };
        // A cancelled (retired-while-warming) slot just drops its stale
        // warm-up event.
        if let SlotState::Warming { ready_at, doomed } = self.slots[i].state {
            debug_assert_eq!(ready_at, t, "warm-up event drifted");
            if doomed {
                // Injected cold-start failure: the slot never becomes
                // routable. The autoscaler sees the missing capacity at
                // its next tick and replaces it through its normal
                // signals.
                self.slots[i].rep.retire(t);
                self.slots[i].state = SlotState::Retired;
            } else {
                self.slots[i].state = SlotState::Warm;
            }
        }
    }

    fn on_fault(&mut self) {
        let Some((t, ev)) = self.injector.pop() else {
            return;
        };
        match ev {
            InjectorEvent::Crash {
                victim,
                restart_after,
            } => self.crash(t, victim, restart_after),
            InjectorEvent::DegradeStart {
                victim,
                slowdown_pct,
                until,
            } => match self.victim(victim, Slot::is_warm) {
                Some(i) => {
                    self.slots[i].rep.set_slowdown(slowdown_pct);
                    self.injector.push_degrade_end(until, i);
                    self.stats.degraded += 1;
                }
                None => self.stats.fizzled += 1,
            },
            // A crash may have retired the slot mid-window; clearing the
            // multiplier is then a no-op.
            InjectorEvent::DegradeEnd { slot } => self.slots[slot].rep.set_slowdown(100),
            InjectorEvent::Restart => {
                self.stats.restarts += 1;
                self.spawn(t);
            }
        }
    }

    /// Resolves a fault's victim hint: the `hint % n`-th of the `n` slots
    /// that are `eligible`, or `None` when no slot is.
    fn victim(&self, hint: u32, eligible: impl Fn(&Slot) -> bool) -> Option<usize> {
        let n = self.slots.iter().filter(|s| eligible(s)).count();
        if n == 0 {
            return None;
        }
        (0..self.slots.len())
            .filter(|&i| eligible(&self.slots[i]))
            .nth(hint as usize % n)
    }

    /// The `victim % crashable`-th warm or draining replica dies at `t`:
    /// its queue and the unfinished part of its in-flight group are lost,
    /// and each lost request is retried after its backoff or dropped once
    /// its budget runs out.
    fn crash(&mut self, t: SimTime, victim: u32, restart_after: Option<SimDuration>) {
        let crashable = |s: &Slot| matches!(s.state, SlotState::Warm | SlotState::Draining { .. });
        let Some(i) = self.victim(victim, crashable) else {
            self.stats.fizzled += 1;
            return;
        };
        let loss = self.slots[i].rep.crash(t);
        self.slots[i].state = SlotState::Retired;
        self.stats.crashes += 1;
        self.stats.lost_inflight += loss.inflight.len() as u32;
        self.stats.lost_queued += loss.queued.len() as u32;
        self.stats.wasted_busy += loss.wasted;
        if !loss.inflight.is_empty() {
            // Revoke the eagerly recorded outcomes of requests whose
            // tokens died with the replica — and their windowed SLO
            // verdicts, which the autoscaler must never count.
            let lost: BTreeSet<u64> = loss.inflight.iter().map(|r| r.id).collect();
            self.outcomes.retain(|o| !lost.contains(&o.id));
            if let Some(sc) = self.scaler.as_mut() {
                for r in &loss.inflight {
                    let attempt = self.meta.get(&r.id).map_or(0, |m| m.attempts);
                    sc.revoked.insert((r.id, attempt));
                }
            }
        }
        for r in loss.inflight.into_iter().chain(loss.queued) {
            let (orig, attempts) = self
                .meta
                .get(&r.id)
                .map_or((r.arrival, 0), |m| (m.orig_arrival, m.attempts));
            if attempts < self.tol.max_retries {
                let next = attempts + 1;
                let at = t + self.tol.backoff(next);
                self.meta.insert(
                    r.id,
                    RetryMeta {
                        orig_arrival: orig,
                        attempts: next,
                    },
                );
                self.retries.push(at, Request { arrival: at, ..r });
                self.stats.retries += 1;
            } else {
                self.outcomes.push(RequestOutcome {
                    id: r.id,
                    arrival: orig,
                    dispatched: t,
                    first_token: t,
                    finished: t,
                    prompt_len: r.prompt_len,
                    gen_len: r.gen_len,
                    group: u32::MAX,
                    replica: i as u32,
                    failed: true,
                    retry: RetryOutcome::Dropped,
                });
            }
        }
        if let Some(delay) = restart_after {
            self.injector.push_restart(t + delay);
        }
    }

    /// Appends a fresh slot at `now` (autoscaler growth or crash
    /// replacement), attaching any pending injected cold-start fault: a
    /// stall extends the warm-up, a failure dooms the slot to retire at
    /// its intended ready instant without ever serving.
    fn spawn(&mut self, now: SimTime) {
        let i = self.slots.len();
        let mut rep = Replica::new_at(i as u32, self.ctx.cfg().seed, now);
        let (extra, doomed) = match self.injector.on_spawn(now) {
            None => (SimDuration::ZERO, false),
            Some(ColdFault::Stall(extra)) => {
                self.stats.coldstart_stalls += 1;
                (extra, false)
            }
            Some(ColdFault::Fail) => {
                self.stats.coldstart_failures += 1;
                (SimDuration::ZERO, true)
            }
        };
        let total = self.warmup + extra;
        let state = if total.is_zero() {
            if doomed {
                rep.retire(now);
                SlotState::Retired
            } else {
                SlotState::Warm
            }
        } else {
            let ready_at = now + total;
            self.warmups.push(ready_at, i);
            SlotState::Warming { ready_at, doomed }
        };
        self.slots.push(Slot::new(rep, state));
    }

    fn on_tick(&mut self, now: SimTime) {
        let Some(mut sc) = self.scaler.take() else {
            return;
        };
        let window = sc.drain_window(now);
        for s in &mut self.slots {
            s.sweep();
        }
        self.hedge(now);
        let obs = self.observe(now, window, sc.window_shed);
        let provisioned = obs.provisioned();
        let desired = sc.policy.desired(&obs).clamp(sc.floor, sc.cap);
        if desired > provisioned {
            self.grow(now, desired - provisioned);
        } else if desired < provisioned {
            self.shrink(now, provisioned - desired);
        }
        if desired != provisioned {
            sc.scale_events.push(ScaleEvent {
                at: now,
                from: provisioned,
                to: desired,
                warm: obs.warm,
                backlog_tokens: obs.backlog_tokens,
            });
        }
        sc.window_shed = 0;
        sc.next_tick = now + sc.tick;
        self.scaler = Some(sc);
    }

    /// Hedged redispatch: chat-class requests stuck on a suspect replica
    /// for at least `hedge_after` move to the healthiest warm replica
    /// before the policy observes the fleet. The request *moves* — it is
    /// never duplicated — so service stays exactly-once; its queue clock
    /// restarts at the tick (never backdated), while its latency clock
    /// keeps running from the original arrival via `meta`.
    fn hedge(&mut self, now: SimTime) {
        let Some(hedge_after) = self.tol.hedge_after.filter(|_| self.tol.health_aware) else {
            return;
        };
        let sus = self.suspect_warm();
        if sus.is_empty() {
            return;
        }
        let target = (0..self.slots.len())
            .filter(|i| self.slots[*i].is_warm() && !sus.contains(i))
            .min_by_key(|&i| (self.slots[i].rep.backlog_tokens(now), i));
        let Some(ti) = target else {
            return;
        };
        let classes = self.tol.classes;
        let mut moved = Vec::new();
        for &si in &sus {
            moved.extend(self.slots[si].rep.take_queued_where(&mut |r| {
                classes.class_of(r.id) == RequestClass::Chat
                    && now.saturating_since(r.arrival) >= hedge_after
            }));
        }
        for r in moved {
            self.stats.hedges += 1;
            self.meta.entry(r.id).or_insert(RetryMeta {
                orig_arrival: r.arrival,
                attempts: 0,
            });
            self.slots[ti].rep.enqueue(Request { arrival: now, ..r });
        }
    }

    /// Snapshots the fleet for the autoscaler.
    fn observe(&self, now: SimTime, window: (u32, u32), window_shed: u32) -> FleetObservation {
        let (mut warm, mut warming, mut draining) = (0, 0, 0);
        let mut queued_requests = 0u32;
        let mut backlog_tokens = 0u64;
        for s in &self.slots {
            match s.state {
                SlotState::Warm => {
                    warm += 1;
                    queued_requests += s.rep.queue_len() as u32;
                    backlog_tokens += s.rep.backlog_tokens(now);
                }
                SlotState::Warming { .. } => warming += 1,
                SlotState::Draining { .. } => draining += 1,
                SlotState::Retired => {}
            }
        }
        FleetObservation {
            now,
            warm,
            warming,
            draining,
            queued_requests,
            backlog_tokens,
            window_finished: window.0,
            window_slo_met: window.1,
            crashed: self.stats.crashes,
            window_shed,
        }
    }

    /// Scale-up by `grow` replicas.
    ///
    /// Drain cancellation first: a scale-up landing while replicas are
    /// still draining reclaims them — the engine never unloaded, so
    /// flipping back to Warm skips the cold start entirely. Newest-first,
    /// mirroring the drain order; retired slots are never resurrected (ids
    /// and seed streams stay append-only).
    fn grow(&mut self, now: SimTime, mut grow: u32) {
        for s in self.slots.iter_mut().rev() {
            if grow == 0 {
                break;
            }
            if matches!(s.state, SlotState::Draining { .. }) {
                s.state = SlotState::Warm;
                grow -= 1;
            }
        }
        for _ in 0..grow {
            self.spawn(now);
        }
    }

    /// Scale-down by `shrink` replicas.
    ///
    /// Cancel replicas still paying their cold start first (no work is
    /// lost, only the partial warm-up spend), newest first; then drain
    /// warm replicas newest-first. Because warming is exhausted before any
    /// warm replica drains and `desired >= 1`, at least one warm replica
    /// always remains.
    fn shrink(&mut self, now: SimTime, mut shrink: u32) {
        for s in self.slots.iter_mut().rev() {
            if shrink == 0 {
                break;
            }
            if matches!(s.state, SlotState::Warming { .. }) {
                s.rep.retire(now);
                s.state = SlotState::Retired;
                shrink -= 1;
            }
        }
        for s in self.slots.iter_mut().rev() {
            if shrink == 0 {
                break;
            }
            if s.is_warm() {
                s.state = SlotState::Draining { since: now };
                s.sweep();
                shrink -= 1;
            }
        }
    }

    /// Warm slots currently suspected of straggling: their observed-vs-
    /// estimated service-time EWMA is at least `suspect_pct`% of the
    /// healthiest *qualified* warm replica's (one with enough completed
    /// groups). Comparing against the fleet minimum rather than an
    /// absolute threshold cancels any systematic engine-vs-cost-model bias
    /// — only *relative* slowness marks a straggler. The healthiest
    /// qualified slot is never suspect (the threshold is strictly above
    /// 100%), so filtering suspects always leaves a routable candidate.
    fn suspect_warm(&self) -> Vec<usize> {
        let qualified = |s: &Slot| s.is_warm() && s.h_groups >= self.tol.min_groups;
        let best = self
            .slots
            .iter()
            .filter(|s| qualified(s))
            .map(|s| s.ewma_pm)
            .min();
        let Some(best) = best.filter(|&b| b > 0) else {
            return Vec::new();
        };
        (0..self.slots.len())
            .filter(|&i| {
                let s = &self.slots[i];
                qualified(s)
                    && u128::from(s.ewma_pm) * 100
                        >= u128::from(best) * u128::from(self.tol.suspect_pct)
            })
            .collect()
    }

    /// Routes one arrival (`retry`: a crash-driven redispatch or a
    /// stalled arrival coming back) to a warm replica.
    fn on_arrival(&mut self, r: Request, retry: bool) {
        self.last_arrival = self.last_arrival.max(r.arrival);
        // Graceful degradation is an admission decision on *fresh*
        // arrivals only: a retry already cost one service attempt and is
        // never shed.
        if !retry && self.shed(&r) {
            return;
        }
        let mut candidates: Vec<(usize, &Replica)> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_warm())
            .map(|(i, s)| (i, &s.rep))
            .collect();
        if candidates.is_empty() {
            // Crashes outran the autoscaler: no routable replica exists
            // right now. Defer the arrival to the next instant capacity
            // can appear (a pending warm-up or the next autoscaler tick) —
            // stalled, never dropped. Only autoscaled fleets take faults,
            // so a tick is always pending here.
            let next_tick = self.scaler.as_ref().map(|sc| sc.next_tick);
            if let Some(defer_to) = self.warmups.peek_time().into_iter().chain(next_tick).min() {
                self.stats.stalled += 1;
                self.meta.entry(r.id).or_insert(RetryMeta {
                    orig_arrival: r.arrival,
                    attempts: 0,
                });
                self.retries.push(
                    defer_to,
                    Request {
                        arrival: defer_to,
                        ..r
                    },
                );
                return;
            }
        }
        // Health-aware dispatch: exclude suspected stragglers while a
        // healthy candidate exists.
        if self.tol.health_aware && candidates.len() > 1 {
            let sus = self.suspect_warm();
            if !sus.is_empty() {
                let healthy: Vec<(usize, &Replica)> = candidates
                    .iter()
                    .copied()
                    .filter(|(i, _)| !sus.contains(i))
                    .collect();
                if !healthy.is_empty() {
                    candidates = healthy;
                }
            }
        }
        let idx = route_pick(
            self.dispatch,
            &mut self.rr,
            &r,
            &candidates,
            self.ctx.cost(),
            self.ctx.cfg(),
        );
        debug_assert!(self.slots[idx].is_warm(), "routed to a non-warm replica");
        self.slots[idx].rep.enqueue(r);
    }

    /// Sheds `r` at admission if the degradation policy says so: a
    /// batch-class arrival while the warm fleet's backlog per warm
    /// replica is over the watermark. Returns whether it was shed.
    fn shed(&mut self, r: &Request) -> bool {
        let DegradationPolicy::ShedBatchOver {
            backlog_per_replica,
        } = self.tol.degradation
        else {
            return false;
        };
        if self.tol.classes.class_of(r.id) != RequestClass::Batch {
            return false;
        }
        let (mut warm_n, mut backlog) = (0u64, 0u64);
        for s in self.slots.iter().filter(|s| s.is_warm()) {
            warm_n += 1;
            backlog += s.rep.backlog_tokens(r.arrival);
        }
        if warm_n == 0 || backlog / warm_n <= backlog_per_replica {
            return false;
        }
        if let Some(sc) = self.scaler.as_mut() {
            sc.window_shed += 1;
        }
        self.outcomes.push(RequestOutcome {
            id: r.id,
            arrival: r.arrival,
            dispatched: r.arrival,
            first_token: r.arrival,
            finished: r.arrival,
            prompt_len: r.prompt_len,
            gen_len: r.gen_len,
            group: u32::MAX,
            replica: u32::MAX,
            failed: true,
            retry: RetryOutcome::Shed,
        });
        self.source.on_complete(r.arrival, true);
        true
    }

    /// Slot `i` cuts a group at `t_form` and runs it.
    fn on_form(&mut self, t_form: SimTime, i: usize) -> Result<(), EngineError> {
        let eos = matches!(self.slots[i].state, SlotState::Draining { .. }) || self.eos();
        let n_before = self.outcomes.len();
        let done = self.slots[i].rep.run_group(
            t_form,
            eos,
            &self.ctx,
            &mut self.outcomes,
            &mut self.groups,
        )?;
        for c in &done {
            self.source.on_complete(c.finished, c.failed);
        }
        if let Some(sc) = self.scaler.as_mut() {
            for o in &self.outcomes[n_before..] {
                // A retried request's latency clock runs from its original
                // arrival, not the redispatch instant.
                let (arr, attempt) = self
                    .meta
                    .get(&o.id)
                    .map_or((o.arrival, 0), |m| (m.orig_arrival, m.attempts));
                let ttft = o.first_token.saturating_since(arr);
                let met = !o.failed && ttft <= sc.slo.ttft && o.tpot() <= sc.slo.tpot;
                sc.finishes.push(o.finished, (o.id, attempt, met));
            }
        }
        // Straggler detection: fold the group's observed/estimated service
        // ratio into the slot's health EWMA. The ratio is shape-normalized
        // by the cost model, so a straggler stands out however uneven the
        // dispatch mix is.
        if self.tol.health_aware {
            if let Some(g) = self.groups.last().filter(|g| !g.oom) {
                let est = estimate_group_service(
                    self.ctx.cost(),
                    self.ctx.cfg().batch_size,
                    g.workload.num_batches,
                    g.workload.prompt_len,
                    g.workload.gen_len,
                );
                let ratio_pm = (u128::from(g.service_time.as_nanos()) * 1000
                    / u128::from(est.as_nanos().max(1))) as u64;
                let s = &mut self.slots[i];
                s.ewma_pm = if s.h_groups == 0 {
                    ratio_pm
                } else {
                    (3 * s.ewma_pm + ratio_pm) / 4
                };
                s.h_groups += 1;
            }
        }
        self.slots[i].sweep();
        Ok(())
    }

    fn finish(mut self) -> ClusterReport {
        // Replicas still draining at end-of-stream retire now (their
        // queues are flushed — the loop cannot end with queued work).
        // Replicas still *warming* at end-of-stream never served; they
        // stay unretired and their lifetime runs to the end of the run —
        // provisioning that late is a cost the policy rightly pays for.
        for s in &mut self.slots {
            s.sweep();
        }
        // Restore fault-touched requests: latency clocks run from the
        // original arrival, and the outcome records how many redispatches
        // the request survived. Dropped and shed outcomes already carry
        // their final form.
        if !self.meta.is_empty() {
            for o in &mut self.outcomes {
                if let Some(m) = self.meta.get(&o.id) {
                    if matches!(o.retry, RetryOutcome::FirstTry) {
                        o.arrival = m.orig_arrival;
                        if m.attempts > 0 {
                            o.retry = RetryOutcome::Retried(m.attempts);
                        }
                    }
                }
            }
        }
        let scale_events = self.scaler.map_or_else(Vec::new, |sc| sc.scale_events);
        let peak_provisioned = scale_events
            .iter()
            .map(|e| e.to)
            .fold(self.initial, u32::max);
        let serve = ServeReport::assemble(
            self.ctx.engine_name(),
            self.outcomes,
            self.groups,
            self.slots
                .iter()
                .map(|s| (s.rep.spawned, s.rep.retired, s.rep.busy)),
        );
        ClusterReport {
            serve,
            scale_events,
            initial_replicas: self.initial,
            peak_provisioned,
            spawned_total: self.slots.len() as u32,
            warmup: self.warmup,
            faults: self.stats,
        }
    }
}
