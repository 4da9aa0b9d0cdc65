//! Regression pins for the serving event loop.
//!
//! The `drive` loop's global-time interleave (arrivals vs. group
//! formations, stable tie-breaking) moved onto the shared
//! `klotski_sim::event::EventQueue` ordering; these checksums were
//! captured from the pre-refactor implementation and pin every timing
//! field of `serve` / `serve_scaled` byte for byte, so the ordering
//! definition can never drift silently.

use klotski_core::report::InferenceReport;
use klotski_core::scenario::{Engine, EngineError, Scenario};
use klotski_model::hardware::HardwareSpec;
use klotski_model::spec::ModelSpec;
use klotski_serve::admission::AdmissionPolicy;
use klotski_serve::cluster::{
    serve_cluster, serve_cluster_faulty, ClusterConfig, ColdStartModel, FaultPlan, FaultScenario,
    QueueDepthReactive, ToleranceConfig,
};
use klotski_serve::continuous::{serve_continuous, ClassAssign, ContinuousConfig, CostEngine};
use klotski_serve::dispatcher::{serve_scaled, DispatchPolicy, ScaleConfig};
use klotski_serve::metrics::{summarize, SloSpec};
use klotski_serve::server::{serve, ServeConfig, ServeReport, Traffic};
use klotski_serve::traffic::{generate, Arrivals, LengthDist, TrafficConfig};
use klotski_sim::time::SimDuration;

/// Fixed-cost stub with a non-divisible decode span (the +7 ns exercises
/// the truncation/pinning paths).
struct StubEngine;

impl Engine for StubEngine {
    fn name(&self) -> String {
        "Stub".into()
    }

    fn run(&self, sc: &Scenario) -> Result<InferenceReport, EngineError> {
        let base = SimDuration::from_millis(900);
        let total = base
            + SimDuration::from_millis(1100) * sc.workload.num_batches as u64
            + SimDuration::from_nanos(7);
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

/// FNV-1a over every timing field the loop produces.
fn checksum(r: &ServeReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x100_0000_01b3);
    };
    for o in &r.outcomes {
        mix(o.id);
        mix(o.arrival.as_nanos());
        mix(o.dispatched.as_nanos());
        mix(o.first_token.as_nanos());
        mix(o.finished.as_nanos());
        mix(o.group as u64);
        mix(o.replica as u64);
    }
    for g in &r.groups {
        mix(g.replica as u64);
        mix(g.dispatched.as_nanos());
        mix(g.service_time.as_nanos());
        mix(g.n_requests as u64);
    }
    mix(r.makespan.as_nanos());
    h
}

fn open_stream() -> Vec<klotski_serve::traffic::Request> {
    generate(
        Arrivals::Poisson { rate: 2.5 },
        &TrafficConfig {
            num_requests: 30,
            prompt: LengthDist::Uniform { lo: 16, hi: 96 },
            gen: LengthDist::Uniform { lo: 2, hi: 9 },
            seed: 17,
        },
    )
}

fn cfg() -> ServeConfig {
    ServeConfig {
        batch_size: 3,
        policy: AdmissionPolicy::Deadline {
            n: 3,
            deadline: SimDuration::from_secs(2),
        },
        seed: 11,
    }
}

fn scaled(reps: u32, dispatch: DispatchPolicy) -> ServeReport {
    serve_scaled(
        &StubEngine,
        &ModelSpec::mixtral_8x7b(),
        &HardwareSpec::env1_rtx3090(),
        &Traffic::Open(open_stream()),
        &ScaleConfig {
            serve: cfg(),
            replicas: reps,
            dispatch,
        },
    )
    .expect("serve_scaled")
}

#[test]
fn serve_output_is_pinned() {
    let report = serve(
        &StubEngine,
        &ModelSpec::mixtral_8x7b(),
        &HardwareSpec::env1_rtx3090(),
        &Traffic::Open(open_stream()),
        &cfg(),
    )
    .expect("serve");
    assert_eq!(checksum(&report), GOLDEN_SINGLE, "serve timings drifted");
}

#[test]
fn serve_scaled_output_is_pinned() {
    assert_eq!(
        checksum(&scaled(3, DispatchPolicy::RoundRobin)),
        GOLDEN_RR3,
        "round-robin R=3 timings drifted"
    );
    assert_eq!(
        checksum(&scaled(3, DispatchPolicy::JoinShortestQueue)),
        GOLDEN_JSQ3,
        "jsq R=3 timings drifted"
    );
    assert_eq!(
        checksum(&scaled(2, DispatchPolicy::CostAware)),
        GOLDEN_COST2,
        "cost-aware R=2 timings drifted"
    );
}

#[test]
fn closed_loop_output_is_pinned() {
    let traffic = Traffic::Closed {
        clients: 4,
        think: SimDuration::from_millis(1500),
        cfg: TrafficConfig {
            num_requests: 18,
            prompt: LengthDist::Uniform { lo: 16, hi: 96 },
            gen: LengthDist::Uniform { lo: 2, hi: 9 },
            seed: 23,
        },
    };
    let report = serve(
        &StubEngine,
        &ModelSpec::mixtral_8x7b(),
        &HardwareSpec::env1_rtx3090(),
        &traffic,
        &cfg(),
    )
    .expect("serve");
    assert_eq!(
        checksum(&report),
        GOLDEN_CLOSED,
        "closed-loop timings drifted"
    );
}

#[test]
fn continuous_scheduler_output_is_pinned() {
    // The slot machine's event order (admit chat > continue prefill >
    // admit batch > decode step, arrivals ingested first at ties) drives
    // every timing below; any reordering moves the checksum. Priced by the
    // calibrated cost model via CostEngine — the same estimate arithmetic
    // the cost-aware dispatch pin (GOLDEN_COST2) already holds stable.
    let spec = ModelSpec::mixtral_8x7b();
    let hw = HardwareSpec::env1_rtx3090();
    let report = serve_continuous(
        &CostEngine::new(&spec, &hw),
        &spec,
        &hw,
        &Traffic::Open(open_stream()),
        &ContinuousConfig {
            serve: cfg(),
            refill: true,
            prefill_chunk: 32,
            classes: ClassAssign::ChatShare { chat_pct: 40 },
        },
    )
    .expect("serve_continuous");
    assert_eq!(
        checksum(&report.serve),
        GOLDEN_CONTINUOUS,
        "continuous scheduler timings drifted"
    );
    assert_eq!(
        (report.preemptions, report.refills, report.prefill_chunks),
        GOLDEN_CONTINUOUS_COUNTERS,
        "continuous scheduler counters drifted"
    );
}

// Captured from the pre-refactor ad-hoc interleave (BinaryHeap-based
// ArrivalSource); the EventQueue-based loop must reproduce them exactly.
const GOLDEN_SINGLE: u64 = 13750583574575523042;
const GOLDEN_RR3: u64 = 15407529530216556205;
const GOLDEN_JSQ3: u64 = 8315145353530956359;
const GOLDEN_COST2: u64 = 246358002919420284;
const GOLDEN_CLOSED: u64 = 12563207037895713828;

#[test]
fn cluster_output_is_pinned() {
    // An autoscaled fleet with a real cold start: warm-up completions,
    // ticks, drains, and reclaims all land in the event interleave this
    // checksum pins. `FaultPlan::none()` must route through the exact
    // same code path, so this golden (captured before fault injection
    // existed) is the byte-identity anchor for the fault-free cluster.
    let stream = generate(
        Arrivals::Poisson { rate: 40.0 },
        &TrafficConfig {
            num_requests: 36,
            prompt: LengthDist::Uniform { lo: 16, hi: 96 },
            gen: LengthDist::Uniform { lo: 2, hi: 9 },
            seed: 29,
        },
    );
    let ccfg = ClusterConfig {
        serve: cfg(),
        dispatch: DispatchPolicy::JoinShortestQueue,
        coldstart: ColdStartModel::Fixed(SimDuration::from_millis(1200)),
        tick: SimDuration::from_millis(500),
        slo: SloSpec::relaxed(),
    };
    let report = serve_cluster(
        &StubEngine,
        &ModelSpec::mixtral_8x7b(),
        &HardwareSpec::env1_rtx3090(),
        &Traffic::Open(stream),
        &ccfg,
        &mut QueueDepthReactive::new(1, 4, 300, 50, 2),
    )
    .expect("serve_cluster");
    assert_eq!(
        checksum(&report.serve),
        GOLDEN_CLUSTER,
        "autoscaled cluster timings drifted"
    );
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for e in &report.scale_events {
        for v in [
            e.at.as_nanos(),
            u64::from(e.from),
            u64::from(e.to),
            u64::from(e.warm),
            e.backlog_tokens,
        ] {
            h ^= v;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    assert_eq!(h, GOLDEN_CLUSTER_SCALE, "scale-event stream drifted");
}

// Captured at introduction of the continuous scheduler (PR 8): pins the
// slot machine's admission/preemption/decode event order byte for byte.
const GOLDEN_CONTINUOUS: u64 = 13375584382816891046;
const GOLDEN_CONTINUOUS_COUNTERS: (u32, u32, u32) = (0, 29, 36);

// Captured from the pre-fault-injection cluster loop (PR 10): the
// fault-free path (`FaultPlan::none()`) must reproduce these exactly.
const GOLDEN_CLUSTER: u64 = 5057458218511373831;
const GOLDEN_CLUSTER_SCALE: u64 = 13097772033778285638;

fn cluster_cfg() -> ClusterConfig {
    ClusterConfig {
        serve: cfg(),
        dispatch: DispatchPolicy::JoinShortestQueue,
        coldstart: ColdStartModel::Fixed(SimDuration::from_millis(1200)),
        tick: SimDuration::from_millis(500),
        slo: SloSpec::relaxed(),
    }
}

fn cluster_stream() -> Vec<klotski_serve::traffic::Request> {
    generate(
        Arrivals::Poisson { rate: 40.0 },
        &TrafficConfig {
            num_requests: 36,
            prompt: LengthDist::Uniform { lo: 16, hi: 96 },
            gen: LengthDist::Uniform { lo: 2, hi: 9 },
            seed: 29,
        },
    )
}

#[test]
fn faulty_entry_point_with_none_plan_reproduces_the_cluster_golden() {
    // The wrapper contract, pinned from outside the crate: routing the
    // exact `cluster_output_is_pinned` workload through the fault-aware
    // entry point with an empty plan and the fault-oblivious tolerance
    // must not move a single byte.
    let report = serve_cluster_faulty(
        &StubEngine,
        &ModelSpec::mixtral_8x7b(),
        &HardwareSpec::env1_rtx3090(),
        &Traffic::Open(cluster_stream()),
        &cluster_cfg(),
        &mut QueueDepthReactive::new(1, 4, 300, 50, 2),
        &FaultPlan::none(),
        &ToleranceConfig::naive(),
    )
    .expect("serve_cluster_faulty");
    assert_eq!(
        checksum(&report.serve),
        GOLDEN_CLUSTER,
        "none-plan faulty path diverged from the fault-free cluster"
    );
}

#[test]
fn fault_run_output_is_pinned() {
    // A generated plan under the full tolerance stack: crash revocation,
    // backoff retries, restarts, and straggler windows all land in the
    // pinned interleave. Two back-to-back runs must agree with each other
    // *and* with the captured constant, so fault handling can never go
    // nondeterministic silently.
    let plan = FaultPlan::generate(&FaultScenario {
        seed: 1234,
        horizon: SimDuration::from_secs(3),
        crashes: 2,
        restart_after: Some(SimDuration::from_secs(1)),
        degraded: 1,
        slowdown_pct: 250,
        degrade_width: SimDuration::from_secs(3),
        coldstart_stalls: 1,
        coldstart_stall: SimDuration::from_secs(1),
        coldstart_fails: 1,
    });
    let run = || {
        serve_cluster_faulty(
            &StubEngine,
            &ModelSpec::mixtral_8x7b(),
            &HardwareSpec::env1_rtx3090(),
            &Traffic::Open(cluster_stream()),
            &cluster_cfg(),
            &mut QueueDepthReactive::new(1, 4, 300, 50, 2),
            &plan,
            &ToleranceConfig::default(),
        )
        .expect("serve_cluster_faulty")
    };
    let a = run();
    let b = run();
    assert!(
        a.faults.crashes > 0 && a.faults.retries > 0,
        "pinned plan must actually lose and retry work: {:?}",
        a.faults
    );
    assert_eq!(
        checksum(&a.serve),
        checksum(&b.serve),
        "fault rerun drifted"
    );
    assert_eq!(a.faults, b.faults, "fault accounting drifted across reruns");
    assert_eq!(
        checksum(&a.serve),
        GOLDEN_FAULTY,
        "fault-run timings drifted"
    );
    // The fault ledger, with the drop and shed counts `SloSummary` folds
    // from the outcomes between the retries and the hedges: the order the
    // constant was captured in.
    let f = a.faults;
    let s = summarize(&a.serve, &SloSpec::relaxed());
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in [
        f.crashes,
        f.fizzled,
        f.degraded,
        f.restarts,
        f.lost_inflight,
        f.lost_queued,
        f.retries,
        s.dropped as u32,
        s.shed as u32,
        f.hedges,
        f.stalled,
        f.coldstart_stalls,
        f.coldstart_failures,
    ] {
        h ^= u64::from(v);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h ^= f.wasted_busy.as_nanos();
    h = h.wrapping_mul(0x100_0000_01b3);
    assert_eq!(h, GOLDEN_FAULTY_STATS, "fault accounting drifted");
}

// Captured at introduction of fault injection (PR 10): pins the fault
// event interleave (crash < tick < serving ordering, retry instants,
// restart spawns) and the fault ledger byte for byte.
const GOLDEN_FAULTY: u64 = 17147578113817329578;
const GOLDEN_FAULTY_STATS: u64 = 2014719808468303536;

#[test]
fn continuous_refill_grid_is_pinned() {
    // Refill mode across its configuration space, one FNV over the lot:
    // open and closed traffic × prefill chunk × class split × batch size ×
    // admission policy (which sets the slot capacity). Each run folds its
    // timing checksum, its three counters and its occupancy bits.
    let spec = ModelSpec::mixtral_8x7b();
    let hw = HardwareSpec::env1_rtx3090();
    let engine = CostEngine::new(&spec, &hw);
    let closed = Traffic::Closed {
        clients: 4,
        think: SimDuration::from_millis(1500),
        cfg: TrafficConfig {
            num_requests: 18,
            prompt: LengthDist::Uniform { lo: 16, hi: 96 },
            gen: LengthDist::Uniform { lo: 2, hi: 9 },
            seed: 23,
        },
    };
    let policies = [
        cfg().policy,
        AdmissionPolicy::CostAware {
            max_n: 2,
            slo_e2e: SimDuration::from_secs(600),
        },
    ];
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x100_0000_01b3);
    };
    for traffic in [Traffic::Open(open_stream()), closed] {
        for prefill_chunk in [0, 7, 128] {
            for classes in [
                ClassAssign::Uniform,
                ClassAssign::ChatShare { chat_pct: 30 },
            ] {
                for batch_size in [1, 4] {
                    for policy in policies {
                        let r = serve_continuous(
                            &engine,
                            &spec,
                            &hw,
                            &traffic,
                            &ContinuousConfig {
                                serve: ServeConfig {
                                    batch_size,
                                    policy,
                                    seed: 11,
                                },
                                refill: true,
                                prefill_chunk,
                                classes,
                            },
                        )
                        .expect("serve_continuous");
                        mix(checksum(&r.serve));
                        mix(u64::from(r.preemptions));
                        mix(u64::from(r.refills));
                        mix(u64::from(r.prefill_chunks));
                        mix(r.occupancy.to_bits());
                    }
                }
            }
        }
    }
    assert_eq!(h, GOLDEN_CONTINUOUS_GRID, "refill grid drifted");
}

// Captured before the slot machine became a fleet replica kind: pins
// refill mode across the grid above byte for byte.
const GOLDEN_CONTINUOUS_GRID: u64 = 10924734872660308789;
