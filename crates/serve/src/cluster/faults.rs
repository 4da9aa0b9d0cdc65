//! Deterministic fault injection for the cluster loop.
//!
//! Real fleets fail constantly: replicas crash mid-group, stragglers run
//! at a fraction of nominal speed, and cold starts stall or never
//! complete. This module makes failure a first-class, *seeded* axis of
//! every cluster experiment: a [`FaultPlan`] is an explicit list of
//! [`Fault`]s (hand-written or generated from a [`FaultScenario`] with a
//! seed), and the `FaultInjector` replays it as simulation events merged
//! into the fleet loop's deterministic event order. Reruns of the same
//! plan are byte-identical, and [`FaultPlan::none()`] leaves the loop
//! byte-identical to the fault-free cluster (golden-pinned).
//!
//! Fault targets are *hints*, not slot indices: a crash resolves its
//! victim against the live fleet at the fault instant (`hint % alive`),
//! so plans stay meaningful whatever the autoscaler did in the meantime.
//! A fault with no eligible victim fizzles and is counted, never
//! silently dropped.
//!
//! The recovery side lives in [`ToleranceConfig`]: crash-lost requests
//! are re-enqueued with capped exponential backoff under a per-request
//! retry budget, suspected stragglers are excluded from dispatch by an
//! observed-vs-estimated service-time detector (the request-level
//! analogue of capacity-aware expert routing), stuck chat-class requests
//! can be hedged off suspect replicas, and a [`DegradationPolicy`] sheds
//! batch-class load at admission under sustained failure pressure instead
//! of letting queues grow without bound.

use klotski_sim::event::EventQueue;
use klotski_sim::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::continuous::ClassAssign;

/// One injected fault. Times are absolute simulation instants; victims
/// are hints resolved against the live fleet when the fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// At `at`, the `victim % alive`-th routable (warm or draining)
    /// replica crashes: its queue and the unfinished part of its
    /// in-flight group are lost, and it retires on the spot. With
    /// `restart_after`, a replacement slot spawns that much later and
    /// pays the configured cold start before becoming routable.
    Crash {
        /// Crash instant.
        at: SimTime,
        /// Victim hint, resolved modulo the crashable fleet at `at`.
        victim: u32,
        /// Delay until a replacement spawn, if any.
        restart_after: Option<SimDuration>,
    },
    /// From `from` until `until`, the chosen warm replica dispatches
    /// every group at `slowdown_pct`% of nominal service time (a
    /// straggler). The multiplier applies to groups *dispatched* inside
    /// the window; a group already running keeps its timing.
    Degrade {
        /// Degradation onset.
        from: SimTime,
        /// End of the window (the replica recovers).
        until: SimTime,
        /// Victim hint, resolved modulo the warm fleet at `from`.
        victim: u32,
        /// Service-time multiplier in percent (> 100).
        slowdown_pct: u32,
    },
    /// The first cold start that *begins* at or after `at` stalls: the
    /// replica becomes routable `extra` later than the cold-start model
    /// says.
    ColdStartStall {
        /// Earliest spawn instant this stall can attach to.
        at: SimTime,
        /// Extra warm-up delay.
        extra: SimDuration,
    },
    /// The first cold start that begins at or after `at` fails outright:
    /// the slot never becomes routable and retires at its intended ready
    /// instant. The autoscaler sees the missing capacity at its next
    /// tick and re-spawns through its normal signals.
    ColdStartFail {
        /// Earliest spawn instant this failure can attach to.
        at: SimTime,
    },
}

impl Fault {
    /// The instant the fault first matters (used for ordering).
    fn at(&self) -> SimTime {
        match *self {
            Fault::Crash { at, .. } => at,
            Fault::Degrade { from, .. } => from,
            Fault::ColdStartStall { at, .. } => at,
            Fault::ColdStartFail { at } => at,
        }
    }
}

/// A deterministic fault schedule: the complete list of faults a cluster
/// run will experience. Construct directly for tests, or generate a
/// seeded schedule from a [`FaultScenario`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// The faults, in any order (the injector sorts by onset).
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// The empty plan: the cluster loop must be byte-identical to the
    /// fault-free path (golden-pinned).
    pub fn none() -> Self {
        FaultPlan { faults: Vec::new() }
    }

    /// Whether this plan injects nothing.
    pub fn is_none(&self) -> bool {
        self.faults.is_empty()
    }

    /// Generates a seeded schedule from a scenario: crash instants,
    /// degrade windows, and cold-start faults drawn uniformly over the
    /// horizon. Same scenario → same plan, always.
    pub fn generate(sc: &FaultScenario) -> Self {
        assert!(!sc.horizon.is_zero(), "fault horizon must be positive");
        let mut rng = StdRng::seed_from_u64(sc.seed);
        let span = sc.horizon.as_nanos();
        let mut faults = Vec::new();
        for _ in 0..sc.crashes {
            faults.push(Fault::Crash {
                at: SimTime::from_nanos(rng.gen_range(0..span)),
                victim: rng.gen_range(0..64u32),
                restart_after: sc.restart_after,
            });
        }
        for _ in 0..sc.degraded {
            let from = SimTime::from_nanos(rng.gen_range(0..span));
            faults.push(Fault::Degrade {
                from,
                until: from + sc.degrade_width,
                victim: rng.gen_range(0..64u32),
                slowdown_pct: sc.slowdown_pct,
            });
        }
        for _ in 0..sc.coldstart_stalls {
            faults.push(Fault::ColdStartStall {
                at: SimTime::from_nanos(rng.gen_range(0..span)),
                extra: sc.coldstart_stall,
            });
        }
        for _ in 0..sc.coldstart_fails {
            faults.push(Fault::ColdStartFail {
                at: SimTime::from_nanos(rng.gen_range(0..span)),
            });
        }
        FaultPlan { faults }
    }
}

/// Parameters for a seeded [`FaultPlan::generate`] schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultScenario {
    /// Seed for the fault-time/victim draws.
    pub seed: u64,
    /// Faults land uniformly in `[0, horizon)`.
    pub horizon: SimDuration,
    /// Number of replica crashes.
    pub crashes: u32,
    /// Replacement delay after each crash (`None`: capacity is gone for
    /// good and only the autoscaler can replace it).
    pub restart_after: Option<SimDuration>,
    /// Number of straggler windows.
    pub degraded: u32,
    /// Straggler service-time multiplier in percent (> 100).
    pub slowdown_pct: u32,
    /// Width of each straggler window.
    pub degrade_width: SimDuration,
    /// Cold starts that stall.
    pub coldstart_stalls: u32,
    /// Extra delay each stalled cold start pays.
    pub coldstart_stall: SimDuration,
    /// Cold starts that fail outright.
    pub coldstart_fails: u32,
}

/// Recovery behavior of the cluster loop under faults. The default is
/// the full tolerance stack (retries + health-aware dispatch); the
/// fault-*oblivious* baseline is [`ToleranceConfig::naive`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ToleranceConfig {
    /// Redispatch budget per request after crashes lose it. `0` is the
    /// fault-oblivious baseline: lost work is dropped (and reported as
    /// [`RetryOutcome::Dropped`](crate::server::RetryOutcome::Dropped) —
    /// never silently).
    pub max_retries: u32,
    /// First retry delay; doubles per attempt.
    pub backoff_base: SimDuration,
    /// Upper bound on the backoff delay.
    pub backoff_cap: SimDuration,
    /// Exclude suspected stragglers from dispatch while healthy
    /// candidates exist.
    pub health_aware: bool,
    /// A replica is suspect when its observed/estimated service-time
    /// EWMA is at least this percentage of the healthiest warm replica's
    /// (e.g. `180` = 1.8× the fleet's best ratio).
    pub suspect_pct: u32,
    /// Completed groups a replica needs before the detector will judge
    /// it (and before it can anchor the fleet baseline).
    pub min_groups: u32,
    /// Hedged redispatch: at each autoscaler tick, chat-class requests
    /// queued on a *suspect* replica longer than this move to the
    /// healthiest warm replica (dispatch-time cancellation keeps service
    /// exactly-once). `None` disables hedging.
    pub hedge_after: Option<SimDuration>,
    /// Load shedding under failure pressure.
    pub degradation: DegradationPolicy,
    /// Chat/batch split used by hedging (chat is hedged) and shedding
    /// (batch is shed).
    pub classes: ClassAssign,
}

impl Default for ToleranceConfig {
    fn default() -> Self {
        ToleranceConfig {
            max_retries: 3,
            backoff_base: SimDuration::from_millis(50),
            backoff_cap: SimDuration::from_secs(2),
            health_aware: true,
            suspect_pct: 180,
            min_groups: 2,
            hedge_after: None,
            degradation: DegradationPolicy::None,
            classes: ClassAssign::Uniform,
        }
    }
}

impl ToleranceConfig {
    /// The fault-oblivious baseline: no retries, no health awareness, no
    /// hedging, no shedding — what a fleet that pretends failures don't
    /// happen delivers.
    pub fn naive() -> Self {
        ToleranceConfig {
            max_retries: 0,
            health_aware: false,
            ..ToleranceConfig::default()
        }
    }

    /// The retry delay before redispatch attempt `attempt` (1-based):
    /// `backoff_base × 2^(attempt-1)`, capped at `backoff_cap`.
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        let shift = attempt.saturating_sub(1).min(32);
        let nanos = u128::from(self.backoff_base.as_nanos()) << shift;
        let capped = nanos.min(u128::from(self.backoff_cap.as_nanos()));
        SimDuration::from_nanos(capped as u64)
    }
}

/// Graceful degradation under sustained failure pressure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradationPolicy {
    /// Admit everything (queues may grow without bound).
    None,
    /// Reject batch-class arrivals at admission while the warm fleet's
    /// token backlog per warm replica exceeds the watermark; shed
    /// requests get an explicit
    /// [`RetryOutcome::Shed`](crate::server::RetryOutcome::Shed) outcome
    /// instead of an unbounded queue slot. Chat-class requests are always
    /// admitted.
    ShedBatchOver {
        /// Backlog tokens per warm replica above which batch arrivals
        /// are shed.
        backlog_per_replica: u64,
    },
}

/// What the injected faults did to a run — the failure-side ledger of a
/// [`ClusterReport`](super::ClusterReport). Lost work is never silent:
/// every lost request shows up as a retry here, or as a
/// [`Dropped`](crate::server::RetryOutcome::Dropped) or
/// [`Shed`](crate::server::RetryOutcome::Shed) outcome, which
/// [`SloSummary`](crate::metrics::SloSummary) counts; every fault that
/// found no victim is counted as fizzled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Replica crashes that found a victim.
    pub crashes: u32,
    /// Faults that fired with no eligible victim (fleet too small).
    pub fizzled: u32,
    /// Straggler windows that attached to a warm replica.
    pub degraded: u32,
    /// Replacement replicas spawned after crashes.
    pub restarts: u32,
    /// In-flight requests whose tokens were lost to a crash.
    pub lost_inflight: u32,
    /// Queued requests lost to a crash.
    pub lost_queued: u32,
    /// Re-dispatches scheduled for crash-lost requests.
    pub retries: u32,
    /// Queued requests moved off suspect replicas by hedged redispatch.
    pub hedges: u32,
    /// Arrivals that found no routable replica and had to wait for
    /// capacity (crashes outran the autoscaler).
    pub stalled: u32,
    /// Cold starts that paid an injected stall.
    pub coldstart_stalls: u32,
    /// Cold starts that failed outright (the slot never served).
    pub coldstart_failures: u32,
    /// Engine-busy time burned by groups a crash killed — work that
    /// produced nothing deliverable.
    pub wasted_busy: SimDuration,
}

/// What a crash/restart/degrade event tells the cluster loop to do.
/// Produced by [`FaultInjector::pop`] in deterministic time order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum InjectorEvent {
    /// Crash the `victim % crashable`-th routable replica now.
    Crash {
        victim: u32,
        restart_after: Option<SimDuration>,
    },
    /// Start degrading the `victim % warm`-th warm replica now.
    DegradeStart {
        victim: u32,
        slowdown_pct: u32,
        until: SimTime,
    },
    /// End the degradation of fleet slot `slot` (resolved at start).
    DegradeEnd { slot: usize },
    /// Spawn the replacement for an earlier crash now.
    Restart,
}

/// What the injector does to one cold start (consumed at spawn time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ColdFault {
    /// The warm-up takes `extra` longer than the model says.
    Stall(SimDuration),
    /// The warm-up never completes; the slot retires at its intended
    /// ready instant.
    Fail,
}

/// Replays a [`FaultPlan`] as timed events. Pure deterministic state: a
/// sorted timeline (the simulator's [`EventQueue`], FIFO among ties) plus
/// a sorted list of pending cold-start faults — no wall clock, no hashed
/// collections.
pub(crate) struct FaultInjector {
    timeline: EventQueue<InjectorEvent>,
    /// Cold-start faults not yet attached to a spawn, sorted by onset.
    cold: Vec<(SimTime, ColdFault)>,
}

impl FaultInjector {
    pub(crate) fn new(plan: &FaultPlan) -> Self {
        let mut timed: Vec<&Fault> = plan
            .faults
            .iter()
            .filter(|f| {
                !matches!(
                    f,
                    Fault::ColdStartStall { .. } | Fault::ColdStartFail { .. }
                )
            })
            .collect();
        // Stable sort by onset: plan order breaks ties, so a plan is its
        // own tie rule and regeneration is byte-stable.
        timed.sort_by_key(|f| f.at());
        let mut timeline = EventQueue::new();
        for f in timed {
            match *f {
                Fault::Crash {
                    at,
                    victim,
                    restart_after,
                } => timeline.push(
                    at,
                    InjectorEvent::Crash {
                        victim,
                        restart_after,
                    },
                ),
                Fault::Degrade {
                    from,
                    until,
                    victim,
                    slowdown_pct,
                } => {
                    assert!(slowdown_pct > 100, "a straggler must be slower than 100%");
                    assert!(until > from, "degrade window must be non-empty");
                    timeline.push(
                        from,
                        InjectorEvent::DegradeStart {
                            victim,
                            slowdown_pct,
                            until,
                        },
                    );
                }
                _ => unreachable!("cold-start faults filtered above"),
            }
        }
        let mut cold: Vec<(SimTime, ColdFault)> = plan
            .faults
            .iter()
            .filter_map(|f| match *f {
                Fault::ColdStartStall { at, extra } => Some((at, ColdFault::Stall(extra))),
                Fault::ColdStartFail { at } => Some((at, ColdFault::Fail)),
                _ => None,
            })
            .collect();
        cold.sort_by_key(|&(at, _)| at);
        FaultInjector { timeline, cold }
    }

    /// The next timed fault instant, if any.
    pub(crate) fn peek(&self) -> Option<SimTime> {
        self.timeline.peek_time()
    }

    /// Pops the earliest timed fault event.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, InjectorEvent)> {
        self.timeline.pop()
    }

    /// Schedules the end of a degradation resolved to `slot`.
    pub(crate) fn push_degrade_end(&mut self, until: SimTime, slot: usize) {
        self.timeline
            .push(until, InjectorEvent::DegradeEnd { slot });
    }

    /// Schedules a crash's replacement spawn.
    pub(crate) fn push_restart(&mut self, at: SimTime) {
        self.timeline.push(at, InjectorEvent::Restart);
    }

    /// A cold start begins at `now`: consume the earliest pending
    /// cold-start fault with onset ≤ `now`, if any.
    pub(crate) fn on_spawn(&mut self, now: SimTime) -> Option<ColdFault> {
        let idx = self.cold.iter().position(|&(at, _)| at <= now)?;
        Some(self.cold.remove(idx).1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario(seed: u64) -> FaultScenario {
        FaultScenario {
            seed,
            horizon: SimDuration::from_secs(60),
            crashes: 3,
            restart_after: Some(SimDuration::from_secs(5)),
            degraded: 2,
            slowdown_pct: 300,
            degrade_width: SimDuration::from_secs(10),
            coldstart_stalls: 1,
            coldstart_stall: SimDuration::from_secs(2),
            coldstart_fails: 1,
        }
    }

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let a = FaultPlan::generate(&scenario(1));
        let b = FaultPlan::generate(&scenario(1));
        let c = FaultPlan::generate(&scenario(2));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.faults.len(), 7);
        assert!(!a.is_none());
        assert!(FaultPlan::none().is_none());
    }

    #[test]
    fn generated_faults_land_inside_the_horizon() {
        let sc = scenario(7);
        let plan = FaultPlan::generate(&sc);
        let end = SimTime::ZERO + sc.horizon;
        for f in &plan.faults {
            assert!(f.at() < end, "{f:?} outside horizon");
            if let Fault::Degrade { from, until, .. } = f {
                assert_eq!(*until, *from + sc.degrade_width);
            }
        }
    }

    #[test]
    fn injector_replays_timed_faults_in_onset_order() {
        let plan = FaultPlan {
            faults: vec![
                Fault::Degrade {
                    from: SimTime::from_nanos(500),
                    until: SimTime::from_nanos(900),
                    victim: 1,
                    slowdown_pct: 200,
                },
                Fault::Crash {
                    at: SimTime::from_nanos(100),
                    victim: 0,
                    restart_after: None,
                },
                Fault::ColdStartFail {
                    at: SimTime::from_nanos(50),
                },
            ],
        };
        let mut inj = FaultInjector::new(&plan);
        let (t1, e1) = inj.pop().expect("crash event");
        assert_eq!(t1, SimTime::from_nanos(100));
        assert!(matches!(e1, InjectorEvent::Crash { victim: 0, .. }));
        let (t2, e2) = inj.pop().expect("degrade event");
        assert_eq!(t2, SimTime::from_nanos(500));
        assert!(matches!(e2, InjectorEvent::DegradeStart { .. }));
        assert!(inj.peek().is_none());
        // The cold-start fault attaches to the first spawn at/after its
        // onset, and only once.
        assert_eq!(inj.on_spawn(SimTime::from_nanos(10)), None);
        assert_eq!(inj.on_spawn(SimTime::from_nanos(60)), Some(ColdFault::Fail));
        assert_eq!(inj.on_spawn(SimTime::from_nanos(70)), None);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let tol = ToleranceConfig {
            backoff_base: SimDuration::from_millis(100),
            backoff_cap: SimDuration::from_millis(350),
            ..ToleranceConfig::default()
        };
        assert_eq!(tol.backoff(1), SimDuration::from_millis(100));
        assert_eq!(tol.backoff(2), SimDuration::from_millis(200));
        assert_eq!(tol.backoff(3), SimDuration::from_millis(350));
        assert_eq!(tol.backoff(30), SimDuration::from_millis(350));
    }

    #[test]
    #[should_panic(expected = "slower than 100%")]
    fn speedup_degrade_rejected() {
        let plan = FaultPlan {
            faults: vec![Fault::Degrade {
                from: SimTime::ZERO,
                until: SimTime::from_nanos(1),
                victim: 0,
                slowdown_pct: 50,
            }],
        };
        let _ = FaultInjector::new(&plan);
    }
}
