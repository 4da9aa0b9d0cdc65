//! Multi-replica dispatch: shard one request stream over `R` engine
//! replicas.
//!
//! Klotski's multi-batch pipeline maximizes weight sharing *inside* one
//! engine; under heavy request streams the request level must also scale
//! *across* engines. The dispatcher routes each arriving request to one of
//! `R` identical replicas, each running its own admission queue and
//! serving state (the exact per-replica state the single-engine
//! [`serve`](crate::server::serve) uses) on the fleet event loop.
//! Placement policy — not just per-engine speed — dominates SLO
//! attainment under bursty load, so the policy is a first-class axis:
//!
//! * [`DispatchPolicy::RoundRobin`] — cycle through replicas in arrival
//!   order, blind to their state (the baseline);
//! * [`DispatchPolicy::JoinShortestQueue`] — route to the replica with the
//!   fewest queued tokens, so slow groups do not pile a backlog onto one
//!   engine while others idle;
//! * [`DispatchPolicy::CostAware`] — route to the replica whose
//!   [`CostModel`]-estimated completion of the new request is earliest,
//!   reusing the same
//!   [`estimate_group_service`]
//!   machinery as cost-aware admission: it sees *how expensive* a queue
//!   is, not just how long.
//!
//! Results merge into one [`ServeReport`] with
//! per-replica utilization, so the request-level SLO metrics work
//! unchanged. With `replicas == 1` every policy degenerates to the
//! single-engine run and the report is byte-identical to
//! [`serve`](crate::server::serve)'s — the crate's proptests pin that
//! equivalence.

use klotski_core::scenario::{Engine, EngineError};
use klotski_model::cost::CostModel;
use klotski_model::hardware::HardwareSpec;
use klotski_model::spec::ModelSpec;
use klotski_sim::time::SimTime;

use crate::admission::estimate_group_service;
use crate::cluster::fleet::Fleet;
use crate::server::{EngineCtx, Replica, ServeConfig, ServeReport, Traffic};
use crate::traffic::Request;

/// How arriving requests are sharded over replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// Cycle through replicas in arrival order, ignoring their state.
    RoundRobin,
    /// Route to the replica with the fewest backlogged tokens: prompt plus
    /// requested output of every waiting request, plus the group still on
    /// the engine. Ties break toward the replica whose engine frees
    /// earliest, then the lowest id.
    JoinShortestQueue,
    /// Route to the replica whose cost-model-estimated completion of the
    /// new request is earliest: the replica frees, then serves one group
    /// holding its whole queue plus the new request.
    CostAware,
}

impl DispatchPolicy {
    /// All policies, in bench-sweep order.
    pub const ALL: [DispatchPolicy; 3] = [
        DispatchPolicy::RoundRobin,
        DispatchPolicy::JoinShortestQueue,
        DispatchPolicy::CostAware,
    ];

    /// Short stable name for tables and JSON output.
    pub fn label(&self) -> &'static str {
        match self {
            DispatchPolicy::RoundRobin => "round_robin",
            DispatchPolicy::JoinShortestQueue => "jsq",
            DispatchPolicy::CostAware => "cost_aware",
        }
    }
}

/// Multi-replica serving configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleConfig {
    /// Per-replica serving configuration (batch size, admission policy,
    /// seed).
    pub serve: ServeConfig,
    /// Number of engine replicas (> 0).
    pub replicas: u32,
    /// The dispatch policy sharding the stream.
    pub dispatch: DispatchPolicy,
}

/// Serves `traffic` over `cfg.replicas` replicas of `engine`, sharding the
/// stream with `cfg.dispatch`; every replica runs its own admission queue
/// and serving loop, and the merged report carries per-replica utilization.
///
/// # Errors
///
/// Returns [`EngineError`] if the engine rejects a scenario as invalid
/// (configuration errors — OOM is a per-group *result*, not an error).
///
/// # Panics
///
/// Panics if `cfg.replicas` is zero, plus the same configuration panics as
/// [`serve`](crate::server::serve).
pub fn serve_scaled(
    engine: &dyn Engine,
    spec: &ModelSpec,
    hw: &HardwareSpec,
    traffic: &Traffic,
    cfg: &ScaleConfig,
) -> Result<ServeReport, EngineError> {
    let ctx = EngineCtx::new(engine, spec, hw, &cfg.serve);
    let fleet = Fleet::fixed(ctx, traffic, cfg.replicas, cfg.dispatch);
    Ok(fleet.run()?.serve)
}

/// Mutable routing state that outlives individual decisions (the
/// round-robin cursor).
pub(crate) struct RouterState {
    next_rr: usize,
}

impl RouterState {
    pub(crate) fn new() -> Self {
        RouterState { next_rr: 0 }
    }
}

/// Picks a replica for `r` among `candidates` — `(fleet-slot index,
/// replica)` pairs of the warm replicas. Over a full static fleet every
/// slot is a candidate, which is [`serve_scaled`].
///
/// # Panics
///
/// Panics if `candidates` is empty — the caller must guarantee at least
/// one routable replica.
pub(crate) fn route_pick(
    dispatch: DispatchPolicy,
    state: &mut RouterState,
    r: &Request,
    candidates: &[(usize, &Replica)],
    cost: &CostModel,
    cfg: &ServeConfig,
) -> usize {
    assert!(!candidates.is_empty(), "routing needs a candidate replica");
    match dispatch {
        DispatchPolicy::RoundRobin => {
            let i = candidates[state.next_rr % candidates.len()].0;
            state.next_rr += 1;
            i
        }
        DispatchPolicy::JoinShortestQueue => candidates
            .iter()
            .min_by_key(|(i, rep)| (rep.backlog_tokens(r.arrival), rep.t_free(), *i))
            .map(|(i, _)| *i)
            .expect("at least one candidate"),
        DispatchPolicy::CostAware => candidates
            .iter()
            .min_by_key(|(i, rep)| (estimated_completion(rep, r, cost, cfg), rep.t_free(), *i))
            .map(|(i, _)| *i)
            .expect("at least one candidate"),
    }
}

/// When `rep` would plausibly finish `r` if it joined `rep`'s queue now:
/// the replica frees, then serves one group holding its whole queue plus
/// `r`, padded to the joint shape — the same stage-1 estimate cost-aware
/// admission uses for group sizing.
fn estimated_completion(
    rep: &Replica,
    r: &Request,
    cost: &CostModel,
    cfg: &ServeConfig,
) -> SimTime {
    let bs = cfg.batch_size;
    let count = rep.queue_len() as u32 + 1;
    let n = count.div_ceil(bs).min(cfg.policy.max_batches()).max(1);
    let (p, g) = rep.queue_shape();
    let start = rep.t_free().max(r.arrival);
    start + estimate_group_service(cost, bs, n, p.max(r.prompt_len), g.max(r.gen_len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionPolicy;
    use crate::metrics::{summarize, SloSpec};
    use crate::server::serve;
    use crate::traffic::{generate, Arrivals, LengthDist, TrafficConfig};
    use klotski_core::report::InferenceReport;
    use klotski_core::scenario::Scenario;
    use klotski_sim::time::SimDuration;

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

    fn cost_aware_cfg(seed: u64) -> ServeConfig {
        ServeConfig {
            batch_size: 4,
            policy: AdmissionPolicy::CostAware {
                max_n: 4,
                slo_e2e: SimDuration::from_secs(3600),
            },
            seed,
        }
    }

    fn scaled(
        traffic: &Traffic,
        serve_cfg: ServeConfig,
        replicas: u32,
        dispatch: DispatchPolicy,
    ) -> ServeReport {
        let (spec, hw) = mixtral();
        serve_scaled(
            &StubEngine,
            &spec,
            &hw,
            traffic,
            &ScaleConfig {
                serve: serve_cfg,
                replicas,
                dispatch,
            },
        )
        .expect("serve_scaled")
    }

    #[test]
    fn round_robin_cycles_through_replicas() {
        // Sparse arrivals (each served before the next lands) so routing
        // order is purely arrival order.
        let stream = generate(
            Arrivals::Paced { rate: 0.1 },
            &TrafficConfig::fixed(6, 64, 4, 5),
        );
        let report = scaled(
            &Traffic::Open(stream),
            cost_aware_cfg(1),
            3,
            DispatchPolicy::RoundRobin,
        );
        let replicas: Vec<u32> = report.outcomes.iter().map(|o| o.replica).collect();
        assert_eq!(replicas, vec![0, 1, 2, 0, 1, 2]);
        assert_eq!(report.replicas.len(), 3);
        assert!(report.replicas.iter().all(|r| r.requests == 2));
    }

    #[test]
    fn jsq_avoids_the_busy_replica() {
        // Request 0 occupies replica 0; request 1 arrives while it is
        // busy and must go to the idle, empty-queued replica 1 — the
        // queued-token tie breaks toward the engine that frees earliest.
        let reqs = vec![
            Request {
                id: 0,
                arrival: SimTime::ZERO,
                prompt_len: 64,
                gen_len: 4,
            },
            Request {
                id: 1,
                arrival: SimTime::from_nanos(100_000_000),
                prompt_len: 64,
                gen_len: 4,
            },
        ];
        let jsq = scaled(
            &Traffic::Open(reqs.clone()),
            cost_aware_cfg(1),
            2,
            DispatchPolicy::JoinShortestQueue,
        );
        assert_eq!(jsq.outcomes[0].replica, 0);
        assert_eq!(jsq.outcomes[1].replica, 1, "jsq must pick the idle replica");
        // Neither request queues behind the other.
        assert!(jsq
            .outcomes
            .iter()
            .all(|o| o.queue_delay() == SimDuration::ZERO));
    }

    #[test]
    fn cost_aware_routes_around_expensive_queues() {
        // Fixed-n admission keeps queues waiting for a full group, so
        // replica 0 still *holds* the huge-prompt request when the small
        // one arrives. Both replicas are idle (t_free == 0); only the
        // cost-model view of replica 0's padded queue shape repels the
        // new request toward the empty replica.
        let reqs = vec![
            Request {
                id: 0,
                arrival: SimTime::ZERO,
                prompt_len: 2048,
                gen_len: 16,
            },
            Request {
                id: 1,
                arrival: SimTime::from_nanos(1_000_000),
                prompt_len: 32,
                gen_len: 2,
            },
        ];
        let report = scaled(
            &Traffic::Open(reqs),
            ServeConfig {
                batch_size: 2,
                policy: AdmissionPolicy::FixedN { n: 1 },
                seed: 1,
            },
            2,
            DispatchPolicy::CostAware,
        );
        assert_eq!(report.outcomes[0].replica, 0);
        assert_eq!(
            report.outcomes[1].replica, 1,
            "cost-aware must route the cheap request away from the expensive queue"
        );
    }

    #[test]
    fn replication_shrinks_the_makespan_under_overload() {
        // 16 requests at t≈0 against a ~2 s/group stub: one replica
        // serializes 4 groups, four replicas run them side by side.
        let stream = generate(
            Arrivals::Poisson { rate: 1000.0 },
            &TrafficConfig::fixed(16, 64, 4, 5),
        );
        let cfg = ServeConfig {
            batch_size: 4,
            policy: AdmissionPolicy::FixedN { n: 1 },
            seed: 1,
        };
        let r1 = scaled(
            &Traffic::Open(stream.clone()),
            cfg,
            1,
            DispatchPolicy::JoinShortestQueue,
        );
        let r4 = scaled(
            &Traffic::Open(stream),
            cfg,
            4,
            DispatchPolicy::JoinShortestQueue,
        );
        assert_eq!(r4.outcomes.len(), 16);
        assert!(
            r4.makespan.as_secs_f64() < 0.5 * r1.makespan.as_secs_f64(),
            "4 replicas must serve an overload substantially faster: {} vs {}",
            r4.makespan,
            r1.makespan
        );
        let tps = |r: &ServeReport| summarize(r, &SloSpec::relaxed()).throughput_tps;
        assert!(tps(&r4) > 2.0 * tps(&r1));
        // All four replicas actually worked.
        assert!(r4.replicas.iter().all(|r| r.groups > 0));
    }

    #[test]
    fn single_replica_is_byte_identical_to_serve() {
        let stream = generate(
            Arrivals::Poisson { rate: 2.0 },
            &TrafficConfig {
                num_requests: 20,
                prompt: LengthDist::Uniform { lo: 16, hi: 128 },
                gen: LengthDist::Uniform { lo: 2, hi: 8 },
                seed: 13,
            },
        );
        let (spec, hw) = mixtral();
        let cfg = cost_aware_cfg(9);
        let single = serve(
            &StubEngine,
            &spec,
            &hw,
            &Traffic::Open(stream.clone()),
            &cfg,
        )
        .expect("serve");
        for dispatch in DispatchPolicy::ALL {
            let rep = scaled(&Traffic::Open(stream.clone()), cfg, 1, dispatch);
            assert_eq!(single.outcomes, rep.outcomes, "{}", dispatch.label());
            assert_eq!(single.groups, rep.groups, "{}", dispatch.label());
            assert_eq!(single.replicas, rep.replicas, "{}", dispatch.label());
            assert_eq!(single.makespan, rep.makespan, "{}", dispatch.label());
        }
    }

    #[test]
    fn closed_loop_traffic_spans_replicas() {
        let traffic = Traffic::Closed {
            clients: 4,
            think: SimDuration::from_secs(1),
            cfg: TrafficConfig::fixed(12, 64, 4, 5),
        };
        let report = scaled(
            &traffic,
            cost_aware_cfg(1),
            2,
            DispatchPolicy::JoinShortestQueue,
        );
        assert_eq!(report.outcomes.len(), 12);
        let ids: Vec<u64> = report.outcomes.iter().map(|o| o.id).collect();
        assert_eq!(ids, (0..12).collect::<Vec<_>>());
        // Both replicas served some of the stream.
        assert!(report.replicas.iter().all(|r| r.requests > 0));
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn zero_replicas_rejected() {
        let (spec, hw) = mixtral();
        let _ = serve_scaled(
            &StubEngine,
            &spec,
            &hw,
            &Traffic::Open(Vec::new()),
            &ScaleConfig {
                serve: cost_aware_cfg(1),
                replicas: 0,
                dispatch: DispatchPolicy::RoundRobin,
            },
        );
    }
}
