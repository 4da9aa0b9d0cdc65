//! Cluster-scale serving: a dynamic fleet under an autoscaling policy.
//!
//! The static dispatcher ([`serve_scaled`](crate::dispatcher::serve_scaled))
//! answers "how does a fleet of `R` replicas behave?"; this module answers
//! the operator's question one level up: *how many replicas should exist,
//! when, and what does elasticity cost?* A [`serve_cluster`] run drives the
//! same per-replica serving state the whole crate shares, but the fleet
//! itself changes over time:
//!
//! * an [`AutoscalePolicy`] is evaluated every `tick` against a
//!   [`FleetObservation`] (fleet composition, token backlog, windowed SLO
//!   attainment) and returns a desired replica count;
//! * scale-up spawns replicas that pay a [`ColdStartModel`] warm-up —
//!   derived from the calibrated [`CostModel`](klotski_model::cost::CostModel)
//!   transfer times and the model's real weight bytes — before they are
//!   routable;
//! * scale-down cancels still-warming replicas first, then drains warm
//!   ones newest-first: a draining replica takes no new requests but
//!   flushes its queue, then retires.
//!
//! Arrivals route through the same [`DispatchPolicy`] axis as the static
//! dispatcher, restricted to warm replicas. With a [`StaticFleet`] policy
//! and a [`Prewarmed`](ColdStartModel::Prewarmed) cold start a cluster run
//! reproduces [`serve_scaled`](crate::dispatcher::serve_scaled) byte for
//! byte (the crate's proptests pin this).
//!
//! # The fleet event loop
//!
//! This module hosts the fleet event loop (the private `fleet` module),
//! and every group-serving entry point runs it:
//! [`serve`](crate::server::serve) and
//! [`serve_scaled`](crate::dispatcher::serve_scaled) as a fixed fleet with
//! no autoscaler (so it never ticks) and no faults, the cluster entry
//! points as an autoscaled fleet under a fault plan, and
//! [`serve_continuous`](crate::continuous::serve_continuous) without
//! refill as `serve`. One state struct returns the earliest pending
//! `(time, event)`, and each event kind has one handler. Events at one
//! simulated instant run in the declaration order of the event kinds —
//! warm-up completion, injected fault, autoscaler tick, fresh arrival,
//! crash-driven retry, group formation (in slot order) — which is the
//! whole tie rule, so runs are byte-deterministic. With refill,
//! `serve_continuous` runs the slot machine's own loop instead, which
//! picks its next event under the same order.
//!
//! The cost of elasticity shows up in
//! [`ServeReport::replica_hours`](crate::server::ServeReport::replica_hours):
//! replica lifetimes span birth to retirement, so an autoscaled fleet that
//! tracks a diurnal load pays for far fewer replica-hours than a
//! peak-sized static fleet — the trade the `serve_cluster` bench sweeps.
//!
//! # Fault tolerance
//!
//! [`serve_cluster_faulty`] extends the loop with a deterministic failure
//! axis (see [`faults`]): a seeded [`FaultPlan`] injects replica crashes,
//! straggler windows, and cold-start stalls/failures as simulation events,
//! and a [`ToleranceConfig`] chooses the recovery behavior — retry with
//! capped exponential backoff for crash-lost requests, health-aware
//! dispatch that excludes suspected stragglers, hedged redispatch of stuck
//! chat-class requests, and admission-time load shedding under a
//! [`DegradationPolicy`]. [`serve_cluster`] is the degenerate case
//! ([`FaultPlan::none()`] with the fault-oblivious
//! [`ToleranceConfig::naive`]) and stays byte-identical to the fault-free
//! loop — the crate's golden pins hold it there. Every fault-touched
//! request is accounted for explicitly in its outcome: served after
//! retries, dropped when the budget ran out, or shed at admission — never
//! silently lost. [`FaultStats`] counts the faults and the retries, and
//! [`SloSummary`](crate::metrics::SloSummary) the drops and sheds.

pub mod autoscale;
pub mod coldstart;
pub mod faults;
pub(crate) mod fleet;

pub use autoscale::{
    AutoscalePolicy, FleetObservation, QueueDepthReactive, SloReactive, StaticFleet,
};
pub use coldstart::ColdStartModel;
pub use faults::{DegradationPolicy, Fault, FaultPlan, FaultScenario, FaultStats, ToleranceConfig};

use klotski_core::scenario::{Engine, EngineError};
use klotski_model::hardware::HardwareSpec;
use klotski_model::spec::ModelSpec;
use klotski_sim::time::{SimDuration, SimTime};

use crate::dispatcher::DispatchPolicy;
use crate::metrics::SloSpec;
use crate::server::{EngineCtx, ServeConfig, ServeReport, Traffic};

use fleet::Fleet;

/// Cluster serving configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Per-replica serving configuration (batch size, admission policy,
    /// seed).
    pub serve: ServeConfig,
    /// How arrivals are routed over the *warm* fleet.
    pub dispatch: DispatchPolicy,
    /// What a freshly spawned replica pays before it is routable.
    pub coldstart: ColdStartModel,
    /// Autoscaler evaluation period (> 0).
    pub tick: SimDuration,
    /// The SLO that windowed attainment (and the report's attainment
    /// metrics) are measured against.
    pub slo: SloSpec,
}

/// One autoscaling decision that changed the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleEvent {
    /// The tick instant.
    pub at: SimTime,
    /// Provisioned replicas (warm + warming) before the decision.
    pub from: u32,
    /// Provisioned replicas after (clamped into `[floor, cap]`).
    pub to: u32,
    /// Warm replicas at decision time.
    pub warm: u32,
    /// Token backlog across warm replicas at decision time.
    pub backlog_tokens: u64,
}

/// Everything a cluster run produced.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// The merged serving report (outcomes, groups, per-replica lifetimes).
    pub serve: ServeReport,
    /// Fleet-size changes, in tick order (empty for a static fleet).
    pub scale_events: Vec<ScaleEvent>,
    /// Fleet size at t = 0 (warm from the start).
    pub initial_replicas: u32,
    /// Peak provisioned (warm + warming) count over the run: the largest
    /// of `initial_replicas` and every scale event's `to`.
    pub peak_provisioned: u32,
    /// Total replicas that ever existed (initial + spawned).
    pub spawned_total: u32,
    /// The cold-start delay every mid-run spawn paid.
    pub warmup: SimDuration,
    /// What the injected faults did (all-zero for a fault-free run).
    pub faults: FaultStats,
}

/// Serves `traffic` over a dynamic fleet sized by `policy`.
///
/// The initial fleet ([`AutoscalePolicy::initial`], the floor by default)
/// is warm at t = 0 — the steady-state fleet an operator would already be
/// running; only mid-run spawns pay `cfg.coldstart`. Scale-down never
/// aborts work: draining replicas flush their queues before retiring, so
/// every request is served exactly once regardless of scale events.
///
/// This is the fault-free loop: equivalent to [`serve_cluster_faulty`]
/// with [`FaultPlan::none()`] and the inert [`ToleranceConfig::naive`]
/// (byte for byte — the golden pins hold it there).
///
/// # Errors
///
/// Returns [`EngineError`] if the engine rejects a scenario as invalid
/// (configuration errors — OOM is a per-group *result*, not an error).
///
/// # Panics
///
/// Panics if `cfg.tick` is zero, the policy's bounds are inverted
/// (`cap < floor.max(1)`), plus the same configuration panics as
/// [`serve`](crate::server::serve).
pub fn serve_cluster(
    engine: &dyn Engine,
    spec: &ModelSpec,
    hw: &HardwareSpec,
    traffic: &Traffic,
    cfg: &ClusterConfig,
    policy: &mut dyn AutoscalePolicy,
) -> Result<ClusterReport, EngineError> {
    serve_cluster_faulty(
        engine,
        spec,
        hw,
        traffic,
        cfg,
        policy,
        &FaultPlan::none(),
        &ToleranceConfig::naive(),
    )
}

/// Serves `traffic` over a dynamic fleet while `faults` injects replica
/// crashes, straggler windows, and cold-start failures, and `tol` chooses
/// the recovery behavior (retry/backoff, health-aware dispatch, hedging,
/// load shedding).
///
/// Fault events are merged into the loop's deterministic event order
/// (warm-up completions, then faults, then the autoscaler tick, then the
/// serving event at each instant), so any plan's reruns are
/// byte-identical. A crash loses the victim's queue and the unfinished
/// part of its in-flight group; lost requests are re-enqueued after a
/// capped exponential backoff until their retry budget runs out, at which
/// point they are recorded as
/// [`RetryOutcome::Dropped`](crate::server::RetryOutcome::Dropped) — and with
/// `tol.max_retries == 0` (the [`naive`](ToleranceConfig::naive)
/// baseline) every lost request is dropped on the spot. Shed and dropped
/// requests carry sentinel outcomes (`group == u32::MAX`; a shed request
/// also has `replica == u32::MAX` — it was never assigned one).
///
/// # Errors
///
/// Returns [`EngineError`] if the engine rejects a scenario as invalid.
///
/// # Panics
///
/// Panics like [`serve_cluster`], plus if a non-empty plan is combined
/// with [`Traffic::Closed`] (revoking a crashed completion cannot un-issue
/// the closed-loop follow-up it already triggered), or if
/// `tol.health_aware` with `tol.suspect_pct <= 100` (the healthiest
/// replica would suspect itself).
#[allow(clippy::too_many_arguments)] // the fault axis is two orthogonal knobs
pub fn serve_cluster_faulty(
    engine: &dyn Engine,
    spec: &ModelSpec,
    hw: &HardwareSpec,
    traffic: &Traffic,
    cfg: &ClusterConfig,
    policy: &mut dyn AutoscalePolicy,
    faults: &FaultPlan,
    tol: &ToleranceConfig,
) -> Result<ClusterReport, EngineError> {
    let ctx = EngineCtx::new(engine, spec, hw, &cfg.serve);
    Fleet::autoscaled(ctx, traffic, cfg, policy, faults, tol).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionPolicy;
    use crate::continuous::RequestClass;
    use crate::dispatcher::{serve_scaled, ScaleConfig};
    use crate::metrics::summarize;
    use crate::server::RetryOutcome;
    use crate::traffic::{generate, Arrivals, LengthDist, TrafficConfig};
    use klotski_core::report::InferenceReport;
    use klotski_core::scenario::Scenario;
    use proptest::prelude::*;

    /// Same stub as the server tests: service = 1 s + 1 s × num_batches.
    struct StubEngine;

    impl Engine for StubEngine {
        fn name(&self) -> String {
            "Stub".into()
        }

        fn run(&self, sc: &Scenario) -> Result<InferenceReport, EngineError> {
            let base = SimDuration::from_secs(1);
            let total = base + SimDuration::from_secs(1) * sc.workload.num_batches as u64;
            Ok(InferenceReport {
                engine: self.name(),
                model: sc.spec.name.clone(),
                total_time: total,
                prefill_time: base,
                decode_time: total - base,
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

    fn base_cfg(dispatch: DispatchPolicy, coldstart: ColdStartModel) -> ClusterConfig {
        ClusterConfig {
            serve: ServeConfig {
                batch_size: 4,
                policy: AdmissionPolicy::Deadline {
                    n: 2,
                    deadline: SimDuration::from_secs(1),
                },
                seed: 7,
            },
            dispatch,
            coldstart,
            tick: SimDuration::from_millis(500),
            slo: SloSpec::relaxed(),
        }
    }

    fn cluster(
        traffic: &Traffic,
        cfg: &ClusterConfig,
        policy: &mut dyn AutoscalePolicy,
    ) -> ClusterReport {
        let (spec, hw) = mixtral();
        serve_cluster(&StubEngine, &spec, &hw, traffic, cfg, policy).expect("serve_cluster")
    }

    /// A burst that overloads one replica: 40 requests in ~0.4 s against a
    /// ~2 s/group engine.
    fn burst() -> Vec<crate::traffic::Request> {
        generate(
            Arrivals::Poisson { rate: 100.0 },
            &TrafficConfig::fixed(40, 64, 4, 5),
        )
    }

    #[test]
    fn static_cluster_is_byte_identical_to_serve_scaled() {
        let stream = generate(
            Arrivals::Poisson { rate: 3.0 },
            &TrafficConfig {
                num_requests: 24,
                prompt: LengthDist::Uniform { lo: 16, hi: 96 },
                gen: LengthDist::Uniform { lo: 2, hi: 8 },
                seed: 13,
            },
        );
        let (spec, hw) = mixtral();
        for dispatch in DispatchPolicy::ALL {
            let cfg = base_cfg(dispatch, ColdStartModel::Prewarmed);
            let scaled = serve_scaled(
                &StubEngine,
                &spec,
                &hw,
                &Traffic::Open(stream.clone()),
                &ScaleConfig {
                    serve: cfg.serve,
                    replicas: 3,
                    dispatch,
                },
            )
            .expect("serve_scaled");
            let report = cluster(
                &Traffic::Open(stream.clone()),
                &cfg,
                &mut StaticFleet { replicas: 3 },
            );
            assert!(report.scale_events.is_empty(), "{}", dispatch.label());
            assert_eq!(
                scaled.outcomes,
                report.serve.outcomes,
                "{}",
                dispatch.label()
            );
            assert_eq!(scaled.groups, report.serve.groups, "{}", dispatch.label());
            assert_eq!(
                scaled.replicas,
                report.serve.replicas,
                "{}",
                dispatch.label()
            );
            assert_eq!(
                scaled.makespan,
                report.serve.makespan,
                "{}",
                dispatch.label()
            );
        }
    }

    #[test]
    fn burst_triggers_scale_up_then_drain_back() {
        let cfg = base_cfg(
            DispatchPolicy::JoinShortestQueue,
            ColdStartModel::Fixed(SimDuration::from_secs(1)),
        );
        let mut policy = QueueDepthReactive::new(1, 4, 300, 50, 2);
        // A burst, then a long quiet tail with two stragglers: the gap is
        // when the autoscaler sees calm ticks and shrinks the fleet.
        let mut stream = burst();
        for (i, at) in [(40u64, 120u64), (41, 150)] {
            stream.push(crate::traffic::Request {
                id: i,
                arrival: SimTime::ZERO + SimDuration::from_secs(at),
                prompt_len: 64,
                gen_len: 4,
            });
        }
        let report = cluster(&Traffic::Open(stream), &cfg, &mut policy);
        // All requests served exactly once.
        let ids: Vec<u64> = report.serve.outcomes.iter().map(|o| o.id).collect();
        assert_eq!(ids, (0..42).collect::<Vec<_>>());
        // The burst forced growth beyond the floor…
        assert!(report.peak_provisioned > 1, "burst must trigger scale-up");
        assert!(!report.scale_events.is_empty());
        // …and the quiet tail drained the extras: someone retired.
        assert!(
            report.serve.replicas.iter().any(|r| r.retired.is_some()),
            "surplus replicas must retire after the burst"
        );
        // Replica-hours are strictly below peak × makespan: elasticity
        // saved fleet time.
        let peak_hours =
            report.peak_provisioned as f64 * report.serve.makespan.as_secs_f64() / 3600.0;
        assert!(report.serve.replica_hours() < peak_hours);
    }

    /// Scripted fleet sizes, one per tick (the last repeats): lets tests
    /// force exact scale transitions regardless of load signals. Keeps
    /// every observation it is shown.
    struct Scripted {
        sizes: Vec<u32>,
        seen: Vec<FleetObservation>,
    }

    impl Scripted {
        fn new(sizes: Vec<u32>) -> Self {
            Scripted {
                sizes,
                seen: Vec::new(),
            }
        }
    }

    impl AutoscalePolicy for Scripted {
        fn name(&self) -> &'static str {
            "scripted"
        }
        fn floor(&self) -> u32 {
            1
        }
        fn cap(&self) -> u32 {
            8
        }
        fn desired(&mut self, obs: &FleetObservation) -> u32 {
            let v = self.sizes[self.seen.len().min(self.sizes.len() - 1)];
            self.seen.push(*obs);
            v
        }
        fn initial(&self) -> u32 {
            self.sizes[0]
        }
    }

    #[test]
    fn scale_up_while_draining_reclaims_the_replica_without_a_cold_start() {
        // Cold starts cost 10 s; ticks land every 500 ms. The script holds
        // 2 replicas, drains one at tick 2 (t = 1 s), and scales back to 2
        // at tick 3 (t = 1.5 s) while the drained replica still has a deep
        // burst queue to flush — so the scale-up must reclaim it.
        let cfg = base_cfg(
            DispatchPolicy::JoinShortestQueue,
            ColdStartModel::Fixed(SimDuration::from_secs(10)),
        );
        let mut policy = Scripted::new(vec![2, 2, 1, 2]);
        let report = cluster(&Traffic::Open(burst()), &cfg, &mut policy);
        // The cold start was skipped entirely: no third slot was ever
        // spawned (pre-reclaim behavior paid a fresh 10 s warm-up here).
        assert_eq!(
            report.spawned_total, 2,
            "scale-up over a draining replica must not spawn"
        );
        // The reclaimed replica went back to Warm instead of retiring.
        assert!(
            report.serve.replicas.iter().all(|r| r.retired.is_none()),
            "reclaimed replica must not retire"
        );
        // Both transitions were recorded…
        let moves: Vec<(u32, u32)> = report.scale_events.iter().map(|e| (e.from, e.to)).collect();
        assert!(moves.contains(&(2, 1)), "drain event missing: {moves:?}");
        assert!(moves.contains(&(1, 2)), "reclaim event missing: {moves:?}");
        // …and the reclaimed replica keeps serving well before a fresh
        // cold start could have finished (reclaim tick + 10 s warm-up).
        let reclaim_at = SimTime::ZERO + SimDuration::from_millis(1_500);
        assert!(
            report.serve.outcomes.iter().any(|o| o.replica == 1
                && o.dispatched > reclaim_at
                && o.dispatched < reclaim_at + report.warmup),
            "reclaimed replica must dispatch inside the skipped warm-up window"
        );
        // Work conservation across the whole dance.
        let ids: Vec<u64> = report.serve.outcomes.iter().map(|o| o.id).collect();
        assert_eq!(ids, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn cold_replicas_serve_nothing_before_warmup() {
        let cfg = base_cfg(
            DispatchPolicy::JoinShortestQueue,
            ColdStartModel::Fixed(SimDuration::from_secs(2)),
        );
        let mut policy = QueueDepthReactive::new(1, 4, 200, 50, 2);
        let report = cluster(&Traffic::Open(burst()), &cfg, &mut policy);
        assert!(report.spawned_total > report.initial_replicas);
        for o in &report.serve.outcomes {
            // Only mid-run spawns pay the cold start; the initial fleet is
            // warm at t = 0.
            if o.replica < report.initial_replicas {
                continue;
            }
            let rep = &report.serve.replicas[o.replica as usize];
            assert!(
                o.dispatched >= rep.spawned + report.warmup,
                "request {} dispatched at {} on replica {} warm at {}",
                o.id,
                o.dispatched,
                o.replica,
                rep.spawned + report.warmup
            );
        }
    }

    #[test]
    fn weight_streaming_coldstart_delays_first_service() {
        // Same run with a heavier cold start: the late spawns become
        // routable later, so makespan can only grow (and warm-up is the
        // calibrated weight-transfer time, seconds not nanos).
        let cfg_fast = base_cfg(DispatchPolicy::JoinShortestQueue, ColdStartModel::Prewarmed);
        let cfg_slow = base_cfg(
            DispatchPolicy::JoinShortestQueue,
            ColdStartModel::WeightStreaming {
                provision: SimDuration::from_secs(2),
                resident_experts_per_layer: 2,
            },
        );
        let fast = cluster(
            &Traffic::Open(burst()),
            &cfg_fast,
            &mut QueueDepthReactive::new(1, 4, 300, 50, 2),
        );
        let slow = cluster(
            &Traffic::Open(burst()),
            &cfg_slow,
            &mut QueueDepthReactive::new(1, 4, 300, 50, 2),
        );
        assert!(slow.warmup > SimDuration::from_secs(2));
        assert!(fast.warmup.is_zero());
        assert!(slow.serve.makespan >= fast.serve.makespan);
    }

    #[test]
    fn slo_reactive_grows_under_violations() {
        let cfg = base_cfg(DispatchPolicy::JoinShortestQueue, ColdStartModel::Prewarmed);
        // Tight SLO the overloaded single replica cannot hold.
        let cfg = ClusterConfig {
            slo: SloSpec {
                ttft: SimDuration::from_secs(3),
                tpot: SimDuration::from_secs(1),
            },
            ..cfg
        };
        let mut policy = SloReactive::new(1, 4, 0.95, 3);
        let report = cluster(&Traffic::Open(burst()), &cfg, &mut policy);
        assert!(
            report.peak_provisioned > 1,
            "SLO violations must trigger scale-up"
        );
    }

    #[test]
    fn closed_loop_traffic_works_with_scaling() {
        let cfg = base_cfg(
            DispatchPolicy::CostAware,
            ColdStartModel::Fixed(SimDuration::from_millis(500)),
        );
        let traffic = Traffic::Closed {
            clients: 6,
            think: SimDuration::from_millis(200),
            cfg: TrafficConfig::fixed(18, 64, 4, 5),
        };
        let report = cluster(
            &traffic,
            &cfg,
            &mut QueueDepthReactive::new(1, 3, 200, 50, 2),
        );
        let ids: Vec<u64> = report.serve.outcomes.iter().map(|o| o.id).collect();
        assert_eq!(ids, (0..18).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "cap")]
    fn inverted_bounds_rejected() {
        struct Bad;
        impl AutoscalePolicy for Bad {
            fn name(&self) -> &'static str {
                "bad"
            }
            fn floor(&self) -> u32 {
                4
            }
            fn cap(&self) -> u32 {
                2
            }
            fn desired(&mut self, _obs: &FleetObservation) -> u32 {
                4
            }
        }
        let (spec, hw) = mixtral();
        let cfg = base_cfg(DispatchPolicy::RoundRobin, ColdStartModel::Prewarmed);
        let _ = serve_cluster(
            &StubEngine,
            &spec,
            &hw,
            &Traffic::Open(Vec::new()),
            &cfg,
            &mut Bad,
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// A static-policy cluster with no cold start is byte-identical to
        /// the static dispatcher for every fleet size, dispatch policy,
        /// and traffic seed — the cluster loop is a strict generalization.
        #[test]
        fn static_cluster_matches_serve_scaled(
            replicas in 1u32..4,
            dispatch_idx in 0usize..3,
            seed in 0u64..500,
            rate in 1.0f64..8.0,
            tick_ms in 100u64..3_000,
        ) {
            let dispatch = DispatchPolicy::ALL[dispatch_idx];
            let stream = generate(
                Arrivals::Poisson { rate },
                &TrafficConfig {
                    num_requests: 16,
                    prompt: LengthDist::Uniform { lo: 16, hi: 96 },
                    gen: LengthDist::Uniform { lo: 2, hi: 8 },
                    seed,
                },
            );
            let (spec, hw) = mixtral();
            let mut cfg = base_cfg(dispatch, ColdStartModel::Prewarmed);
            cfg.tick = SimDuration::from_millis(tick_ms);
            let scaled = serve_scaled(
                &StubEngine, &spec, &hw,
                &Traffic::Open(stream.clone()),
                &ScaleConfig { serve: cfg.serve, replicas, dispatch },
            ).expect("serve_scaled");
            let (spec2, hw2) = mixtral();
            let report = serve_cluster(
                &StubEngine, &spec2, &hw2,
                &Traffic::Open(stream),
                &cfg,
                &mut StaticFleet { replicas },
            ).expect("serve_cluster");
            prop_assert!(report.scale_events.is_empty());
            prop_assert_eq!(scaled.outcomes, report.serve.outcomes);
            prop_assert_eq!(scaled.groups, report.serve.groups);
            prop_assert_eq!(scaled.replicas, report.serve.replicas);
            prop_assert_eq!(scaled.makespan, report.serve.makespan);
        }

        /// Autoscaled runs preserve the request stream exactly (no drops,
        /// no duplicates), keep the fleet inside [floor, cap], never
        /// dispatch to a replica before its warm-up completes, and are
        /// fully deterministic.
        #[test]
        fn autoscaled_runs_keep_invariants(
            seed in 0u64..500,
            rate in 20.0f64..120.0,
            n in 10u32..40,
            floor in 1u32..3,
            extra in 1u32..4,
            coldstart_ms in 0u64..2_000,
        ) {
            let cap = floor + extra;
            let stream = generate(
                Arrivals::Poisson { rate },
                &TrafficConfig {
                    num_requests: n,
                    prompt: LengthDist::Uniform { lo: 16, hi: 96 },
                    gen: LengthDist::Uniform { lo: 2, hi: 8 },
                    seed,
                },
            );
            let cfg = base_cfg(
                DispatchPolicy::JoinShortestQueue,
                ColdStartModel::Fixed(SimDuration::from_millis(coldstart_ms)),
            );
            let run = |stream: Vec<crate::traffic::Request>| {
                let (spec, hw) = mixtral();
                serve_cluster(
                    &StubEngine, &spec, &hw,
                    &Traffic::Open(stream),
                    &cfg,
                    &mut QueueDepthReactive::new(floor, cap, 300, 50, 2),
                ).expect("serve_cluster")
            };
            let report = run(stream.clone());
            // Exactly-once service in id order.
            let ids: Vec<u64> = report.serve.outcomes.iter().map(|o| o.id).collect();
            prop_assert_eq!(ids, (0..u64::from(n)).collect::<Vec<_>>());
            // Fleet bounds at every decision.
            prop_assert!(report.peak_provisioned <= cap);
            for e in &report.scale_events {
                prop_assert!(e.to >= floor && e.to <= cap, "event {e:?} out of bounds");
            }
            // No dispatch before warm-up (mid-run spawns only; the initial
            // fleet is warm at t = 0).
            for o in &report.serve.outcomes {
                if o.replica < report.initial_replicas {
                    continue;
                }
                let rep = &report.serve.replicas[o.replica as usize];
                prop_assert!(o.dispatched >= rep.spawned + report.warmup);
            }
            // Retirement never precedes the replica's last dispatched work.
            for rep in &report.serve.replicas {
                if let Some(at) = rep.retired {
                    for o in report.serve.outcomes.iter().filter(|o| o.replica == rep.replica) {
                        prop_assert!(o.dispatched <= at);
                    }
                }
            }
            // Byte-determinism: an identical rerun reproduces everything.
            let again = run(stream);
            prop_assert_eq!(report.serve.outcomes, again.serve.outcomes);
            prop_assert_eq!(report.serve.groups, again.serve.groups);
            prop_assert_eq!(report.serve.replicas, again.serve.replicas);
            prop_assert_eq!(report.scale_events, again.scale_events);
        }
    }

    // ---- fault tolerance ----

    use crate::continuous::ClassAssign;

    fn crash_plan() -> FaultPlan {
        FaultPlan {
            faults: vec![Fault::Crash {
                at: SimTime::ZERO + SimDuration::from_secs(2),
                victim: 0,
                restart_after: Some(SimDuration::from_millis(100)),
            }],
        }
    }

    fn cluster_faulty(
        traffic: &Traffic,
        cfg: &ClusterConfig,
        policy: &mut dyn AutoscalePolicy,
        plan: &FaultPlan,
        tol: &ToleranceConfig,
    ) -> ClusterReport {
        let (spec, hw) = mixtral();
        serve_cluster_faulty(&StubEngine, &spec, &hw, traffic, cfg, policy, plan, tol)
            .expect("serve_cluster_faulty")
    }

    #[test]
    fn none_plan_with_naive_tolerance_is_serve_cluster() {
        let cfg = base_cfg(DispatchPolicy::JoinShortestQueue, ColdStartModel::Prewarmed);
        let baseline = cluster(
            &Traffic::Open(burst()),
            &cfg,
            &mut QueueDepthReactive::new(1, 4, 300, 50, 2),
        );
        assert_eq!(baseline.faults, FaultStats::default());
        let faulty = cluster_faulty(
            &Traffic::Open(burst()),
            &cfg,
            &mut QueueDepthReactive::new(1, 4, 300, 50, 2),
            &FaultPlan::none(),
            &ToleranceConfig::naive(),
        );
        assert_eq!(baseline.serve.outcomes, faulty.serve.outcomes);
        assert_eq!(baseline.serve.groups, faulty.serve.groups);
        assert_eq!(baseline.serve.replicas, faulty.serve.replicas);
        assert_eq!(baseline.scale_events, faulty.scale_events);
    }

    #[test]
    fn crash_loses_inflight_and_retries_exactly_once() {
        let cfg = base_cfg(DispatchPolicy::JoinShortestQueue, ColdStartModel::Prewarmed);
        let report = cluster_faulty(
            &Traffic::Open(burst()),
            &cfg,
            &mut StaticFleet { replicas: 2 },
            &crash_plan(),
            &ToleranceConfig::default(),
        );
        let crash = SimTime::ZERO + SimDuration::from_secs(2);
        // Every request served exactly once despite the crash.
        let ids: Vec<u64> = report.serve.outcomes.iter().map(|o| o.id).collect();
        assert_eq!(ids, (0..40).collect::<Vec<_>>());
        let f = report.faults;
        assert_eq!(f.crashes, 1);
        assert!(f.lost_inflight + f.lost_queued > 0, "crash must lose work");
        assert_eq!(f.retries, f.lost_inflight + f.lost_queued);
        assert_eq!(summarize(&report.serve, &cfg.slo).dropped, 0);
        assert_eq!(f.restarts, 1);
        // Retried outcomes keep the original arrival — a redispatch never
        // resets the latency clock.
        let retried: Vec<_> = report
            .serve
            .outcomes
            .iter()
            .filter(|o| matches!(o.retry, RetryOutcome::Retried(_)))
            .collect();
        assert_eq!(retried.len(), f.retries as usize);
        for o in &retried {
            assert!(o.arrival < crash, "retry must keep its original arrival");
            assert!(!o.failed);
        }
    }

    /// Regression: a redispatched request re-enters the queues *at the
    /// retry instant*, never at its original arrival. Re-enqueueing with
    /// the original arrival lets the admission policy form groups dated
    /// before the crash that necessitated the retry — backdated work on
    /// the post-crash drain path. This test fails against that variant.
    #[test]
    fn retries_never_dispatch_before_the_crash() {
        let cfg = base_cfg(DispatchPolicy::JoinShortestQueue, ColdStartModel::Prewarmed);
        let report = cluster_faulty(
            &Traffic::Open(burst()),
            &cfg,
            &mut StaticFleet { replicas: 2 },
            &crash_plan(),
            &ToleranceConfig::default(),
        );
        let crash = SimTime::ZERO + SimDuration::from_secs(2);
        for o in &report.serve.outcomes {
            if matches!(o.retry, RetryOutcome::Retried(_)) {
                assert!(
                    o.dispatched >= crash,
                    "request {} redispatched at {} before the crash at {}",
                    o.id,
                    o.dispatched,
                    crash
                );
            }
        }
    }

    #[test]
    fn naive_tolerance_drops_lost_requests() {
        let cfg = base_cfg(DispatchPolicy::JoinShortestQueue, ColdStartModel::Prewarmed);
        let report = cluster_faulty(
            &Traffic::Open(burst()),
            &cfg,
            &mut StaticFleet { replicas: 2 },
            &crash_plan(),
            &ToleranceConfig::naive(),
        );
        let crash = SimTime::ZERO + SimDuration::from_secs(2);
        let f = report.faults;
        let dropped = summarize(&report.serve, &cfg.slo).dropped;
        assert!(dropped > 0, "the naive baseline must lose work");
        assert_eq!(dropped, (f.lost_inflight + f.lost_queued) as usize);
        assert_eq!(f.retries, 0);
        // Every request is still accounted for — dropped explicitly with a
        // sentinel outcome, never silently lost.
        let ids: Vec<u64> = report.serve.outcomes.iter().map(|o| o.id).collect();
        assert_eq!(ids, (0..40).collect::<Vec<_>>());
        let sentinels = report
            .serve
            .outcomes
            .iter()
            .filter(|o| matches!(o.retry, RetryOutcome::Dropped));
        for o in sentinels {
            assert!(o.failed);
            assert_eq!(o.finished, crash);
            assert_eq!(o.group, u32::MAX);
        }
    }

    #[test]
    fn degraded_replica_is_detected_and_avoided() {
        let cfg = base_cfg(DispatchPolicy::JoinShortestQueue, ColdStartModel::Prewarmed);
        let plan = FaultPlan {
            faults: vec![Fault::Degrade {
                from: SimTime::ZERO,
                until: SimTime::ZERO + SimDuration::from_secs(10_000),
                victim: 1,
                slowdown_pct: 300,
            }],
        };
        let stream = generate(
            Arrivals::Poisson { rate: 3.0 },
            &TrafficConfig::fixed(60, 64, 4, 11),
        );
        let tol_health = ToleranceConfig {
            suspect_pct: 150,
            min_groups: 2,
            ..ToleranceConfig::default()
        };
        let run = |tol: &ToleranceConfig| {
            cluster_faulty(
                &Traffic::Open(stream.clone()),
                &cfg,
                &mut StaticFleet { replicas: 3 },
                &plan,
                tol,
            )
        };
        let health = run(&tol_health);
        let naive = run(&ToleranceConfig::naive());
        assert_eq!(health.faults.degraded, 1);
        // Both configurations serve everything…
        for r in [&health, &naive] {
            let ids: Vec<u64> = r.serve.outcomes.iter().map(|o| o.id).collect();
            assert_eq!(ids, (0..60).collect::<Vec<_>>());
        }
        // …but health-aware dispatch steers load off the straggler.
        let on_victim =
            |r: &ClusterReport| r.serve.outcomes.iter().filter(|o| o.replica == 1).count();
        assert!(
            on_victim(&health) < on_victim(&naive),
            "straggler served {} outcomes health-aware vs {} naive",
            on_victim(&health),
            on_victim(&naive)
        );
    }

    #[test]
    fn hedging_moves_stuck_chat_requests() {
        let cfg = base_cfg(DispatchPolicy::JoinShortestQueue, ColdStartModel::Prewarmed);
        let plan = FaultPlan {
            faults: vec![Fault::Degrade {
                from: SimTime::ZERO + SimDuration::from_secs(1),
                until: SimTime::ZERO + SimDuration::from_secs(10_000),
                victim: 0,
                slowdown_pct: 500,
            }],
        };
        let tol = ToleranceConfig {
            suspect_pct: 150,
            min_groups: 1,
            hedge_after: Some(SimDuration::from_millis(500)),
            ..ToleranceConfig::default()
        };
        let stream = burst();
        let report = cluster_faulty(
            &Traffic::Open(stream.clone()),
            &cfg,
            &mut StaticFleet { replicas: 2 },
            &plan,
            &tol,
        );
        assert!(report.faults.hedges > 0, "stuck chat requests must move");
        let ids: Vec<u64> = report.serve.outcomes.iter().map(|o| o.id).collect();
        assert_eq!(ids, (0..40).collect::<Vec<_>>());
        // A hedge moves the request (exactly-once service) and keeps its
        // original arrival for latency purposes.
        for o in &report.serve.outcomes {
            let orig = stream.iter().find(|r| r.id == o.id).expect("id").arrival;
            assert_eq!(o.arrival, orig, "hedge must not reset the latency clock");
        }
    }

    #[test]
    fn shedding_rejects_batch_class_over_watermark() {
        let cfg = base_cfg(DispatchPolicy::JoinShortestQueue, ColdStartModel::Prewarmed);
        let tol = ToleranceConfig {
            degradation: DegradationPolicy::ShedBatchOver {
                backlog_per_replica: 200,
            },
            classes: ClassAssign::ChatShare { chat_pct: 50 },
            ..ToleranceConfig::default()
        };
        let report = cluster_faulty(
            &Traffic::Open(burst()),
            &cfg,
            &mut StaticFleet { replicas: 1 },
            &FaultPlan::none(),
            &tol,
        );
        let ids: Vec<u64> = report.serve.outcomes.iter().map(|o| o.id).collect();
        assert_eq!(ids, (0..40).collect::<Vec<_>>());
        let mut shed_seen = 0u32;
        for o in &report.serve.outcomes {
            if matches!(o.retry, RetryOutcome::Shed) {
                shed_seen += 1;
                assert!(o.failed);
                assert_eq!(o.replica, u32::MAX);
                assert_eq!(o.group, u32::MAX);
                assert_eq!(o.finished, o.arrival);
                // Only batch-class work is ever shed.
                assert_eq!(tol.classes.class_of(o.id), RequestClass::Batch);
            } else {
                assert!(!o.failed, "non-shed requests must be served");
            }
        }
        assert!(shed_seen > 0, "an overloaded replica must shed batch work");
    }

    #[test]
    fn coldstart_stall_and_fail_are_accounted() {
        let cfg = base_cfg(
            DispatchPolicy::JoinShortestQueue,
            ColdStartModel::Fixed(SimDuration::from_secs(2)),
        );
        let plan = FaultPlan {
            faults: vec![
                Fault::ColdStartStall {
                    at: SimTime::ZERO,
                    extra: SimDuration::from_secs(3),
                },
                Fault::ColdStartFail { at: SimTime::ZERO },
            ],
        };
        let mut stream = generate(
            Arrivals::Poisson { rate: 100.0 },
            &TrafficConfig::fixed(10, 64, 4, 5),
        );
        for (i, at) in [(10u64, 7u64), (11, 8)] {
            stream.push(crate::traffic::Request {
                id: i,
                arrival: SimTime::ZERO + SimDuration::from_secs(at),
                prompt_len: 64,
                gen_len: 4,
            });
        }
        // Scripted growth to 3 replicas: the two mid-run spawns consume the
        // pending cold-start faults (stall first — plan order).
        let mut policy = Scripted::new(vec![1, 1, 3]);
        let report = cluster_faulty(
            &Traffic::Open(stream),
            &cfg,
            &mut policy,
            &plan,
            &ToleranceConfig::default(),
        );
        let f = report.faults;
        assert_eq!(f.coldstart_stalls, 1);
        assert_eq!(f.coldstart_failures, 1);
        // The failed cold start (second spawn, slot 2) never served; the
        // autoscaler replaced the missing capacity with a fresh spawn.
        assert!(report.serve.outcomes.iter().all(|o| o.replica != 2));
        assert_eq!(report.spawned_total, 4);
        let ids: Vec<u64> = report.serve.outcomes.iter().map(|o| o.id).collect();
        assert_eq!(ids, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn fault_runs_are_byte_deterministic() {
        let plan = FaultPlan::generate(&FaultScenario {
            seed: 42,
            horizon: SimDuration::from_secs(15),
            crashes: 2,
            restart_after: Some(SimDuration::from_secs(1)),
            degraded: 1,
            slowdown_pct: 250,
            degrade_width: SimDuration::from_secs(5),
            coldstart_stalls: 1,
            coldstart_stall: SimDuration::from_secs(1),
            coldstart_fails: 1,
        });
        let cfg = base_cfg(
            DispatchPolicy::JoinShortestQueue,
            ColdStartModel::Fixed(SimDuration::from_millis(500)),
        );
        let run = || {
            cluster_faulty(
                &Traffic::Open(burst()),
                &cfg,
                &mut QueueDepthReactive::new(1, 4, 300, 50, 2),
                &plan,
                &ToleranceConfig::default(),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.serve.outcomes, b.serve.outcomes);
        assert_eq!(a.serve.groups, b.serve.groups);
        assert_eq!(a.serve.replicas, b.serve.replicas);
        assert_eq!(a.scale_events, b.scale_events);
        assert_eq!(a.faults, b.faults);
    }

    // ---- the same-instant tie rule ----

    fn at_ms(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn request(id: u64, at: SimTime) -> crate::traffic::Request {
        crate::traffic::Request {
            id,
            arrival: at,
            prompt_len: 64,
            gen_len: 4,
        }
    }

    /// Warm-up < fault < tick < arrival < formation at one instant. At
    /// t = 1.5 s slot 1 finishes warming, a crash with victim hint 1
    /// fires, the autoscaler ticks, request 1 arrives, and slot 0's
    /// deadline group (request 0, queued since 0.25 s) forms.
    #[test]
    fn same_instant_events_run_warm_fault_tick_arrival_form() {
        let mut cfg = base_cfg(
            DispatchPolicy::JoinShortestQueue,
            ColdStartModel::Fixed(SimDuration::from_millis(500)),
        );
        cfg.serve.policy = AdmissionPolicy::Deadline {
            n: 2,
            deadline: SimDuration::from_millis(1_250),
        };
        // The tick at 1.0 s spawns slot 1, warm at 1.5 s.
        let mut policy = Scripted::new(vec![1, 2]);
        let plan = FaultPlan {
            faults: vec![Fault::Crash {
                at: at_ms(1_500),
                victim: 1,
                restart_after: None,
            }],
        };
        let stream = vec![request(0, at_ms(250)), request(1, at_ms(1_500))];
        let (spec, hw) = mixtral();
        let report = serve_cluster_faulty(
            &StubEngine,
            &spec,
            &hw,
            &Traffic::Open(stream),
            &cfg,
            &mut policy,
            &plan,
            &ToleranceConfig::default(),
        )
        .expect("serve_cluster_faulty");
        // Warm-up before fault: slot 1 was crashable, and hint 1 took it.
        assert_eq!(report.faults.crashes, 1);
        assert_eq!(report.serve.replicas[1].retired, Some(at_ms(1_500)));
        assert_eq!(report.serve.replicas[0].retired, None);
        // Fault before tick, tick before arrival and formation.
        let obs = policy
            .seen
            .iter()
            .find(|o| o.now == at_ms(1_500))
            .expect("a tick at 1.5 s");
        assert_eq!((obs.crashed, obs.warm, obs.queued_requests), (1, 1, 1));
        // Arrival before formation: request 1 joined slot 0's 1.5 s group
        // on its first try.
        let [o0, o1] = &report.serve.outcomes[..] else {
            panic!("expected two outcomes");
        };
        assert_eq!((o1.replica, o1.dispatched), (0, at_ms(1_500)));
        assert_eq!(o1.group, o0.group);
        assert_eq!(o1.retry, RetryOutcome::FirstTry);
    }

    /// A configuration whose first tick lands after the run ends, so only
    /// the crash and retry instants matter.
    fn retry_cfg(batch_size: u32, policy: AdmissionPolicy) -> ClusterConfig {
        let mut cfg = base_cfg(DispatchPolicy::JoinShortestQueue, ColdStartModel::Prewarmed);
        cfg.serve.batch_size = batch_size;
        cfg.serve.policy = policy;
        cfg.tick = SimDuration::from_secs(60);
        cfg
    }

    fn crash_slot_1_at(at: SimTime) -> FaultPlan {
        FaultPlan {
            faults: vec![Fault::Crash {
                at,
                victim: 1,
                restart_after: None,
            }],
        }
    }

    /// Arrival < retry at one instant: slot 1 crashes at 0.9 s with
    /// request 1 in flight; its retry (50 ms backoff) and fresh request 2
    /// both reach slot 0 at 0.95 s, and the fresh one is served first.
    #[test]
    fn fresh_arrival_precedes_retry_at_the_same_instant() {
        let cfg = retry_cfg(1, AdmissionPolicy::FixedN { n: 1 });
        let stream = vec![
            request(0, SimTime::ZERO),
            request(1, at_ms(100)),
            request(2, at_ms(950)),
        ];
        let tol = ToleranceConfig::default();
        assert_eq!(tol.backoff(1), SimDuration::from_millis(50));
        let report = cluster_faulty(
            &Traffic::Open(stream),
            &cfg,
            &mut StaticFleet { replicas: 2 },
            &crash_slot_1_at(at_ms(900)),
            &tol,
        );
        assert_eq!(report.faults.lost_inflight, 1);
        let [_, retried, fresh] = &report.serve.outcomes[..] else {
            panic!("expected three outcomes");
        };
        assert_eq!(retried.retry, RetryOutcome::Retried(1));
        assert_eq!((fresh.replica, retried.replica), (0, 0));
        assert!(
            fresh.dispatched < retried.dispatched,
            "fresh request dispatched at {}, retry at {}",
            fresh.dispatched,
            retried.dispatched
        );
    }

    /// Retry < formation at one instant: slot 1 crashes at 0.95 s with
    /// request 1 queued; its retry reaches slot 0 at 1.0 s, exactly when
    /// slot 0's deadline group for request 0 forms, and joins that group.
    #[test]
    fn retry_joins_the_group_forming_at_its_instant() {
        let cfg = retry_cfg(
            2,
            AdmissionPolicy::Deadline {
                n: 1,
                deadline: SimDuration::from_secs(1),
            },
        );
        // Request 2 keeps the stream open, so nothing flushes early.
        let stream = vec![
            request(0, SimTime::ZERO),
            request(1, at_ms(100)),
            request(2, at_ms(30_000)),
        ];
        let report = cluster_faulty(
            &Traffic::Open(stream),
            &cfg,
            &mut StaticFleet { replicas: 2 },
            &crash_slot_1_at(at_ms(950)),
            &ToleranceConfig::default(),
        );
        assert_eq!(report.faults.lost_queued, 1);
        let [o0, o1, _] = &report.serve.outcomes[..] else {
            panic!("expected three outcomes");
        };
        assert_eq!(o1.retry, RetryOutcome::Retried(1));
        assert_eq!((o0.dispatched, o1.dispatched), (at_ms(1_000), at_ms(1_000)));
        assert_eq!(o1.group, o0.group);
    }

    #[test]
    #[should_panic(expected = "open-loop")]
    fn closed_loop_with_faults_rejected() {
        let (spec, hw) = mixtral();
        let cfg = base_cfg(DispatchPolicy::RoundRobin, ColdStartModel::Prewarmed);
        let traffic = Traffic::Closed {
            clients: 2,
            think: SimDuration::from_millis(100),
            cfg: TrafficConfig::fixed(4, 64, 4, 5),
        };
        let _ = serve_cluster_faulty(
            &StubEngine,
            &spec,
            &hw,
            &traffic,
            &cfg,
            &mut StaticFleet { replicas: 1 },
            &crash_plan(),
            &ToleranceConfig::default(),
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Fault runs conserve the request stream: every id resolves
        /// exactly once (served, or explicitly dropped when the retry
        /// budget runs out), and reruns are byte-identical. Every
        /// replica's busy time fits its lifetime and is its groups'
        /// service cut at its retirement, which checks the crash cut
        /// against the group records.
        #[test]
        fn faulty_runs_conserve_requests(
            seed in 0u64..200,
            fseed in 0u64..200,
            crashes in 0u32..3,
            rate in 20.0f64..120.0,
            n in 10u32..40,
            naive_bit in 0u32..2,
        ) {
            let stream = generate(
                Arrivals::Poisson { rate },
                &TrafficConfig {
                    num_requests: n,
                    prompt: LengthDist::Uniform { lo: 16, hi: 96 },
                    gen: LengthDist::Uniform { lo: 2, hi: 8 },
                    seed,
                },
            );
            let plan = FaultPlan::generate(&FaultScenario {
                seed: fseed,
                horizon: SimDuration::from_secs(10),
                crashes,
                restart_after: Some(SimDuration::from_secs(1)),
                degraded: 1,
                slowdown_pct: 200,
                degrade_width: SimDuration::from_secs(4),
                coldstart_stalls: 1,
                coldstart_stall: SimDuration::from_secs(1),
                coldstart_fails: 0,
            });
            let tol = if naive_bit == 1 {
                ToleranceConfig::naive()
            } else {
                ToleranceConfig::default()
            };
            let cfg = base_cfg(
                DispatchPolicy::JoinShortestQueue,
                ColdStartModel::Fixed(SimDuration::from_millis(500)),
            );
            let run = |stream: Vec<crate::traffic::Request>| {
                let (spec, hw) = mixtral();
                serve_cluster_faulty(
                    &StubEngine, &spec, &hw,
                    &Traffic::Open(stream),
                    &cfg,
                    &mut QueueDepthReactive::new(1, 4, 300, 50, 2),
                    &plan,
                    &tol,
                ).expect("serve_cluster_faulty")
            };
            let report = run(stream.clone());
            // Exactly-once resolution in id order, drops explicit.
            let ids: Vec<u64> = report.serve.outcomes.iter().map(|o| o.id).collect();
            prop_assert_eq!(ids, (0..u64::from(n)).collect::<Vec<_>>());
            for rep in &report.serve.replicas {
                prop_assert!(rep.busy <= rep.lifetime, "{rep:?}");
                let served: SimDuration = report.serve.groups.iter()
                    .filter(|g| g.replica == rep.replica)
                    .map(|g| rep.retired.map_or(g.service_time, |at| {
                        g.service_time.min(at.saturating_since(g.dispatched))
                    }))
                    .sum();
                prop_assert_eq!(rep.busy, served, "replica {}", rep.replica);
            }
            // Byte-determinism under faults.
            let again = run(stream);
            prop_assert_eq!(report.serve.outcomes, again.serve.outcomes);
            prop_assert_eq!(report.serve.groups, again.serve.groups);
            prop_assert_eq!(report.scale_events, again.scale_events);
            prop_assert_eq!(report.faults, again.faults);
        }
    }
}
