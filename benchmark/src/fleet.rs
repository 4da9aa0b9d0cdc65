//! The simulated-stack workloads: a fault-injected, autoscaled Klotski
//! fleet (`serve_cluster_faulty`) and the continuous-batching slot
//! machine (`serve_continuous`).
//!
//! Untraced runs time whole serve calls plus `metrics::summarize`. Traced
//! runs pass a benchmark-owned [`Engine`] that delegates to the real one
//! and records a span around every `run` call; the prefetcher warm-up
//! and scenario generation each call implies are replayed after the serve
//! call, outside the measured spans.

use std::cell::RefCell;
use std::time::{Duration, Instant};

use klotski_core::engine::{KlotskiConfig, KlotskiEngine};
use klotski_core::prefetcher::CorrelationTable;
use klotski_core::report::InferenceReport;
use klotski_core::scenario::{Engine, EngineError, Scenario};
use klotski_model::hardware::HardwareSpec;
use klotski_model::spec::ModelSpec;
use klotski_model::trace::GatingModel;
use klotski_model::workload::Workload;
use klotski_serve::admission::AdmissionPolicy;
use klotski_serve::cluster::{
    serve_cluster_faulty, ClusterConfig, ClusterReport, ColdStartModel, FaultPlan, FaultScenario,
    QueueDepthReactive, ToleranceConfig,
};
use klotski_serve::continuous::{
    serve_continuous, ClassAssign, ContinuousConfig, ContinuousReport, CostEngine,
};
use klotski_serve::dispatcher::DispatchPolicy;
use klotski_serve::metrics::{summarize, Percentiles, SloSpec, SloSummary};
use klotski_serve::server::{ServeConfig, ServeReport, Traffic};
use klotski_serve::traffic::{generate, Arrivals, LengthDist, Request, TrafficConfig};
use klotski_sim::time::{SimDuration, SimTime};

use crate::run::{ms, repeat_for, timed, Measured, Metric};
use crate::stats::Spread;
use crate::trace::{Recorder, Track};
use crate::{Mode, SIM_SEED};

/// The two simulated workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fleet {
    /// `fleet_klotski_faults`: the whole simulated stack under faults.
    KlotskiFaults,
    /// `fleet_continuous`: the serve layer alone.
    Continuous,
}

/// Requests in the faults workload (p99 then has ≥ 10 samples beyond it).
const FAULTS_REQUESTS: u32 = 1000;
/// Requests in the continuous workload.
const CONTINUOUS_REQUESTS: u32 = 150_000;
/// Fewest timed reps of a run, whatever the time budget.
const MIN_REPS: usize = 3;

/// The serve call's inputs.
struct Setup {
    fleet: Fleet,
    spec: ModelSpec,
    hw: HardwareSpec,
    traffic: Traffic,
    requests: usize,
    serve: ServeConfig,
    slo: SloSpec,
    plan: FaultPlan,
    klotski: KlotskiEngine,
    cost: CostEngine,
}

/// `serve_faults`' full-mode fleet: Deadline admission (bs 8, n ≤ 8),
/// JSQ dispatch, queue-depth autoscaling over 2..=4 replicas, 20 s cold
/// starts, and the SLO its gates use.
fn faults_cluster(serve: ServeConfig, slo: SloSpec) -> ClusterConfig {
    ClusterConfig {
        serve,
        dispatch: DispatchPolicy::JoinShortestQueue,
        coldstart: ColdStartModel::Fixed(SimDuration::from_secs(20)),
        tick: SimDuration::from_secs(15),
        slo,
    }
}

fn faults_autoscaler() -> QueueDepthReactive {
    QueueDepthReactive::new(2, 4, 1600, 400, 2)
}

/// A workload's request stream.
fn traffic(fleet: Fleet) -> Vec<Request> {
    match fleet {
        Fleet::KlotskiFaults => generate(
            Arrivals::Poisson { rate: 0.8 },
            &TrafficConfig {
                num_requests: FAULTS_REQUESTS,
                prompt: LengthDist::Uniform { lo: 64, hi: 160 },
                gen: LengthDist::Uniform { lo: 2, hi: 8 },
                seed: SIM_SEED,
            },
        ),
        Fleet::Continuous => generate(
            Arrivals::Bursty {
                rate: 0.1,
                burst: 8,
            },
            &TrafficConfig {
                num_requests: CONTINUOUS_REQUESTS,
                prompt: LengthDist::HeavyTail {
                    lo: 32,
                    hi: 128,
                    heavy: 1024,
                    heavy_pct: 15,
                },
                gen: LengthDist::HeavyTail {
                    lo: 2,
                    hi: 8,
                    heavy: 64,
                    heavy_pct: 25,
                },
                seed: SIM_SEED,
            },
        ),
    }
}

/// Builds a workload's inputs: the traffic, the fault plan and the
/// engines.
fn build(fleet: Fleet) -> Setup {
    let spec = ModelSpec::mixtral_8x7b();
    let hw = HardwareSpec::env1_rtx3090();
    let traffic = traffic(fleet);
    let (serve, slo, plan) = match fleet {
        Fleet::KlotskiFaults => {
            let slo = SloSpec {
                ttft: SimDuration::from_secs(150),
                tpot: SimDuration::from_secs(8),
            };
            // serve_faults' mid tier, its onsets spread over the whole
            // arrival span so faults hit a loaded fleet throughout.
            let horizon = traffic.last().map_or(SimDuration::from_secs(1), |r| {
                r.arrival.saturating_since(SimTime::ZERO)
            });
            let plan = FaultPlan::generate(&FaultScenario {
                seed: SIM_SEED ^ 0x5eed_fa17,
                horizon,
                crashes: 2,
                restart_after: Some(SimDuration::from_secs(30)),
                degraded: 1,
                slowdown_pct: 300,
                degrade_width: horizon / 4,
                coldstart_stalls: 1,
                coldstart_stall: SimDuration::from_secs(10),
                coldstart_fails: 0,
            });
            let serve = ServeConfig {
                batch_size: 8,
                policy: AdmissionPolicy::Deadline {
                    n: 8,
                    deadline: slo.ttft / 6,
                },
                seed: SIM_SEED,
            };
            (serve, slo, plan)
        }
        Fleet::Continuous => {
            let serve = ServeConfig {
                batch_size: 8,
                policy: AdmissionPolicy::Deadline {
                    n: 4,
                    deadline: SimDuration::from_secs(2),
                },
                seed: SIM_SEED,
            };
            let slo = SloSpec {
                ttft: SimDuration::from_secs(240),
                tpot: SimDuration::from_secs(10),
            };
            (serve, slo, FaultPlan::none())
        }
    };
    Setup {
        fleet,
        cost: CostEngine::new(&spec, &hw),
        klotski: KlotskiEngine::new(KlotskiConfig::full()),
        spec,
        hw,
        requests: traffic.len(),
        traffic: Traffic::Open(traffic),
        serve,
        slo,
        plan,
    }
}

/// A serve call's report.
enum FleetReport {
    Cluster(ClusterReport),
    Continuous(ContinuousReport),
}

impl FleetReport {
    fn serve(&self) -> &ServeReport {
        match self {
            FleetReport::Cluster(r) => &r.serve,
            FleetReport::Continuous(r) => &r.serve,
        }
    }

    /// Field-by-field equality: the determinism check between reps.
    fn same_as(&self, other: &FleetReport) -> bool {
        let (a, b) = (self.serve(), other.serve());
        let serve = a.engine == b.engine
            && a.outcomes == b.outcomes
            && a.groups == b.groups
            && a.replicas == b.replicas
            && a.makespan == b.makespan;
        serve
            && match (self, other) {
                (FleetReport::Cluster(x), FleetReport::Cluster(y)) => {
                    x.scale_events == y.scale_events
                        && x.faults == y.faults
                        && x.initial_replicas == y.initial_replicas
                        && x.peak_provisioned == y.peak_provisioned
                        && x.spawned_total == y.spawned_total
                        && x.warmup == y.warmup
                }
                (FleetReport::Continuous(x), FleetReport::Continuous(y)) => {
                    x.preemptions == y.preemptions
                        && x.refills == y.refills
                        && x.prefill_chunks == y.prefill_chunks
                        && x.occupancy.to_bits() == y.occupancy.to_bits()
                }
                _ => false,
            }
    }
}

/// The serve call proper, with `engine` standing in for the workload's
/// engine (the real one, or the tracing wrapper around it).
fn serve_call(setup: &Setup, engine: &dyn Engine) -> FleetReport {
    match setup.fleet {
        Fleet::KlotskiFaults => FleetReport::Cluster(
            serve_cluster_faulty(
                engine,
                &setup.spec,
                &setup.hw,
                &setup.traffic,
                &faults_cluster(setup.serve, setup.slo),
                &mut faults_autoscaler(),
                &setup.plan,
                &ToleranceConfig::default(),
            )
            .expect("the faults workload's configuration is valid"),
        ),
        Fleet::Continuous => FleetReport::Continuous(
            serve_continuous(
                engine,
                &setup.spec,
                &setup.hw,
                &setup.traffic,
                &ContinuousConfig {
                    serve: setup.serve,
                    refill: true,
                    prefill_chunk: 64,
                    classes: ClassAssign::ChatShare { chat_pct: 30 },
                },
            )
            .expect("the continuous workload's configuration is valid"),
        ),
    }
}

fn call_name(fleet: Fleet) -> &'static str {
    match fleet {
        Fleet::KlotskiFaults => "serve_cluster_faulty",
        Fleet::Continuous => "serve_continuous",
    }
}

fn engine_of(setup: &Setup) -> &dyn Engine {
    match setup.fleet {
        Fleet::KlotskiFaults => &setup.klotski,
        Fleet::Continuous => &setup.cost,
    }
}

/// Output checks on one report: every id resolved exactly once, and
/// arrival ≤ dispatched ≤ first token ≤ finished for every served
/// request. Returns (exactly once, causal, completed), where completed
/// counts served, non-failed, causal requests.
fn check_report(report: &ServeReport, requests: usize) -> (bool, bool, u64) {
    let exactly_once = report.outcomes.len() == requests
        && report.outcomes.iter().map(|o| o.id).eq(0..requests as u64);
    let mut causal = true;
    let mut completed = 0;
    for o in &report.outcomes {
        if !o.retry.served() || o.failed {
            continue;
        }
        let ok = o.arrival <= o.dispatched
            && o.dispatched <= o.first_token
            && o.first_token <= o.finished;
        causal &= ok;
        completed += u64::from(ok);
    }
    (exactly_once, causal, completed)
}

fn generated_tokens(report: &ServeReport) -> u64 {
    report
        .outcomes
        .iter()
        .filter(|o| !o.failed)
        .map(|o| u64::from(o.gen_len))
        .sum()
}

/// Set-ups timed before each rep, whose median is `setup_s`: a batch for
/// the sub-millisecond faults set-up, one for the 150k-request stream.
fn setups_per_rep(fleet: Fleet) -> usize {
    match fleet {
        Fleet::KlotskiFaults => 20,
        Fleet::Continuous => 1,
    }
}

/// Runs one fleet workload.
pub fn run(fleet: Fleet, budget: Duration, mode: Mode) -> Measured {
    let mut m = Measured::default();
    let setup = build(fleet);
    // One warm call, which every timed rep must then repeat exactly.
    let first = serve_call(&setup, engine_of(&setup));
    let first_summary = summarize(first.serve(), &setup.slo);
    match mode {
        Mode::EndToEnd => end_to_end(&setup, &first, &first_summary, budget, &mut m),
        Mode::Traced => traced(&setup, &first, budget, &mut m),
    }
    m
}

fn end_to_end(
    setup: &Setup,
    first: &FleetReport,
    summary: &SloSummary,
    budget: Duration,
    m: &mut Measured,
) {
    let mut setup_s = Vec::new();
    let mut req_s = Vec::new();
    let mut tok_s = Vec::new();
    let mut completed = 0u64;
    let mut exactly_once = true;
    let mut causal = true;
    let mut repeats = true;
    m.reps = repeat_for(budget, MIN_REPS, || {
        for _ in 0..setups_per_rep(setup.fleet) {
            drop(timed(&mut setup_s, || build(setup.fleet)));
        }
        let ((report, s), wall) = m.host.time(|| {
            let report = serve_call(setup, engine_of(setup));
            let s = summarize(report.serve(), &setup.slo);
            (report, s)
        });
        let (once, ok, done) = check_report(report.serve(), setup.requests);
        exactly_once &= once;
        causal &= ok;
        completed += done;
        repeats &= report.same_as(first) && s == *summary;
        req_s.push(report.serve().outcomes.len() as f64 / wall);
        tok_s.push(generated_tokens(report.serve()) as f64 / wall);
    });
    m.attempted = (m.reps * setup.requests) as u64;
    m.failed = m.attempted.saturating_sub(completed);
    m.check(
        "every request id resolved exactly once on every rep",
        exactly_once,
    );
    m.check(
        "arrival <= dispatched <= first token <= finished for every served request",
        causal,
    );
    m.check("every rep repeats the first call's report exactly", repeats);

    let call = call_name(setup.fleet);
    m.metrics.push(Metric::lower_quartile(
        "tokens_per_s",
        "tok/s",
        &tok_s,
        format!("simulated tokens generated / steal-free wall time of {call} + summarize"),
    ));
    m.metrics.push(Metric::lower_quartile(
        "sim_requests_per_s",
        "req/s",
        &req_s,
        format!(
            "{} requests resolved / steal-free wall time of {call} + summarize",
            setup.requests
        ),
    ));
    let served = summary.requests - summary.dropped - summary.shed;
    m.metrics.push(Metric::exact(
        "sim_goodput_tok_s",
        "sim_tok/s",
        summary.goodput_tps,
        format!(
            "SloSummary::goodput_tps; {} of {} requests met ttft {} / tpot {}",
            summary.slo_met, summary.requests, setup.slo.ttft, setup.slo.tpot
        ),
    ));
    m.metrics.push(Metric::exact(
        "sim_ttft_p50_s",
        "sim_s",
        summary.ttft.p50.as_secs_f64(),
        format!("over {served} completed requests"),
    ));
    m.metrics.push(Metric::exact(
        "sim_ttft_p99_s",
        "sim_s",
        summary.ttft.p99.as_secs_f64(),
        format!(
            "nearest rank over {served} completed requests, {} beyond it",
            served - (served * 99).div_ceil(100)
        ),
    ));
    m.metrics.push(Metric::exact(
        "completed_frac",
        "share",
        completed as f64 / m.attempted as f64,
        format!(
            "{completed} of {} requests served and checked ({} retried, {} dropped, {} shed per rep)",
            m.attempted, summary.retried, summary.dropped, summary.shed
        ),
    ));
    m.push_setup_and_memory(
        &setup_s,
        &format!(
            "traffic + fault plan + engines, built {}x before each rep",
            setups_per_rep(setup.fleet)
        ),
    );
}

/// What one `Engine::run` call saw, kept for the replays.
struct EngineCall {
    start: Instant,
    end: Instant,
    workload: Workload,
    base: Option<GatingModel>,
    busy: SimDuration,
    bubble: SimDuration,
}

/// A benchmark-owned engine that delegates to the real one and records
/// a span around every `run` call.
struct TracedEngine<'a> {
    inner: &'a dyn Engine,
    rec: &'a RefCell<Recorder>,
    calls: RefCell<Vec<EngineCall>>,
}

impl Engine for TracedEngine<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn run(&self, scenario: &Scenario) -> Result<InferenceReport, EngineError> {
        let start = Instant::now();
        let report = self.inner.run(scenario);
        let end = Instant::now();
        self.rec
            .borrow_mut()
            .record("Engine::run", Track::Engine, start, end);
        let (busy, bubble) = report
            .as_ref()
            .map_or((SimDuration::ZERO, SimDuration::ZERO), |r| {
                (r.gpu_busy, r.gpu_bubble)
            });
        self.calls.borrow_mut().push(EngineCall {
            start,
            end,
            workload: scenario.workload,
            base: scenario.base_gating.clone(),
            busy,
            bubble,
        });
        report
    }
}

fn traced(setup: &Setup, first: &FleetReport, budget: Duration, m: &mut Measured) {
    let rec = RefCell::new(Recorder::new(true));
    let warmup_tokens = setup.klotski.config().warmup_tokens;
    let mut per = PerRep::default();
    let mut same = true;
    let mut accounted = true;
    let mut last_rep = None;
    let mut last: Option<FleetReport> = None;
    let mut completed = 0u64;
    let mut exactly_once = true;
    let mut causal = true;
    m.reps = repeat_for(budget, MIN_REPS, || {
        for _ in 0..setups_per_rep(setup.fleet) {
            drop(timed(&mut per.traffic_s, || traffic(setup.fleet)));
        }
        let t = Instant::now();
        let untraced = serve_call(setup, engine_of(setup));
        let untraced_wall = t.elapsed();

        let engine = TracedEngine {
            inner: engine_of(setup),
            rec: &rec,
            calls: RefCell::new(Vec::new()),
        };
        let rep = rec.borrow_mut().begin("rep", Track::Bench);
        last_rep = rep.index();
        let span = rec.borrow_mut().begin(call_name(setup.fleet), Track::Serve);
        let t = Instant::now();
        let report = serve_call(setup, &engine);
        let call = t.elapsed();
        rec.borrow_mut().end(span);
        let span = rec.borrow_mut().begin("summarize", Track::Metrics);
        let t = Instant::now();
        let summary = summarize(report.serve(), &setup.slo);
        per.summarize_ms.push(t.elapsed().as_secs_f64() * 1e3);
        rec.borrow_mut().end(span);
        std::hint::black_box(&summary);

        // Replays of the work each engine call implies, outside the
        // measured spans.
        let span = rec.borrow_mut().begin("replay", Track::Bench);
        let calls = engine.calls.into_inner();
        let mut run_ns = 0u64;
        let mut warmup_ns = 0u64;
        let mut gen_ns = 0u64;
        let (mut busy, mut bubble) = (SimDuration::ZERO, SimDuration::ZERO);
        for (i, c) in calls.iter().enumerate() {
            run_ns += c.end.duration_since(c.start).as_nanos() as u64;
            busy += c.busy;
            bubble += c.bubble;
            if let Some(base) = &c.base {
                let mut table =
                    CorrelationTable::new(setup.spec.n_moe_layers(), setup.spec.n_experts);
                let w = rec
                    .borrow_mut()
                    .begin("CorrelationTable::warm_up", Track::Engine);
                let t = Instant::now();
                table.warm_up(base, warmup_tokens, 0xC0FFEE);
                warmup_ns += t.elapsed().as_nanos() as u64;
                rec.borrow_mut().end(w);
                std::hint::black_box(&table);
            }
            let g = rec.borrow_mut().begin("Scenario::generate", Track::Serve);
            let t = Instant::now();
            let sc = Scenario::generate(
                setup.spec.clone(),
                setup.hw.clone(),
                c.workload,
                setup.serve.seed.wrapping_add(3 * i as u64),
            );
            gen_ns += t.elapsed().as_nanos() as u64;
            rec.borrow_mut().end(g);
            std::hint::black_box(&sc);
        }
        rec.borrow_mut().end(span);
        rec.borrow_mut().end(rep);

        let call_ns = call.as_nanos() as u64;
        accounted &= (run_ns + gen_ns) as f64 <= call_ns as f64 * 1.05;
        same &= report.same_as(&untraced) && report.same_as(first);
        let (once, ok, done) = check_report(report.serve(), setup.requests);
        exactly_once &= once;
        causal &= ok;
        completed += done;
        per.calls = calls.len();
        per.run_ms.push(ms(run_ns));
        per.warmup_ms.push(ms(warmup_ns));
        per.schedule_ms.push(ms(run_ns.saturating_sub(warmup_ns)));
        per.trace_gen_ms.push(ms(gen_ns));
        per.loop_ms.push(ms(call_ns) - ms(run_ns) - ms(gen_ns));
        per.call_ms.push(ms(call_ns));
        per.overhead_ms
            .push((call.as_secs_f64() - untraced_wall.as_secs_f64()) * 1e3);
        per.busy_bubble = (busy, bubble);
        last = Some(report);
    });
    m.check(
        "the tracing engine leaves every report identical to the untraced call's",
        same,
    );
    m.check(
        "engine + replayed trace generation fit within the serve call's wall time (5% slack)",
        accounted,
    );
    m.check(
        "every request id resolved exactly once on every rep",
        exactly_once,
    );
    m.check(
        "arrival <= dispatched <= first token <= finished for every served request",
        causal,
    );
    m.attempted = (m.reps * setup.requests) as u64;
    m.failed = m.attempted.saturating_sub(completed);
    let report = last.expect("at least one traced rep");
    per.push_metrics(setup, &report, m);
    m.chrome = Some(rec.borrow().chrome_json(last_rep));
}

/// Per-rep samples of the fleet's per-layer timings.
#[derive(Default)]
struct PerRep {
    calls: usize,
    /// Summed simulated GPU busy and bubble time of the calls' reports.
    busy_bubble: (SimDuration, SimDuration),
    traffic_s: Vec<f64>,
    run_ms: Vec<f64>,
    warmup_ms: Vec<f64>,
    schedule_ms: Vec<f64>,
    trace_gen_ms: Vec<f64>,
    loop_ms: Vec<f64>,
    call_ms: Vec<f64>,
    summarize_ms: Vec<f64>,
    overhead_ms: Vec<f64>,
}

impl PerRep {
    fn push_metrics(&self, setup: &Setup, report: &FleetReport, m: &mut Measured) {
        let serve = report.serve();
        let call = Spread::of(&self.call_ms).median;
        m.notes.push(format!(
            "serve call {call:.1} ms (median) = engine {:.1} + trace gen {:.1} + loop {:.1} ms \
             (medians of each part; the parts sum to the call on every rep)",
            Spread::of(&self.run_ms).median,
            Spread::of(&self.trace_gen_ms).median,
            Spread::of(&self.loop_ms).median,
        ));
        m.metrics.push(Metric::exact(
            "engine.calls",
            "count",
            self.calls as f64,
            "Engine::run calls per serve call",
        ));
        m.metrics.push(Metric::median(
            "engine.run_ms",
            "ms",
            &self.run_ms,
            "spans around every Engine::run",
        ));
        m.metrics.push(Metric::median(
            "engine.schedule_ms",
            "ms",
            &self.schedule_ms,
            "engine.run_ms - prefetcher.warmup_ms: DAG build plus sim drain",
        ));
        let (busy, bubble) = self.busy_bubble;
        let span = (busy + bubble).as_secs_f64();
        m.metrics.push(Metric::exact(
            "engine.sim_bubble_frac",
            "share",
            if span == 0.0 {
                0.0
            } else {
                bubble.as_secs_f64() / span
            },
            format!(
                "gpu_bubble {bubble} / (gpu_busy {busy} + gpu_bubble), summed over the calls' reports"
            ),
        ));
        m.metrics.push(Metric::median(
            "prefetcher.warmup_ms",
            "ms",
            &self.warmup_ms,
            "CorrelationTable::warm_up replayed on each call's scenario",
        ));
        m.metrics.push(Metric::median(
            "model.trace_gen_ms",
            "ms",
            &self.trace_gen_ms,
            "Scenario::generate replayed for each dispatched group's shape",
        ));
        m.metrics.push(Metric::median(
            "serve.loop_ms",
            "ms",
            &self.loop_ms,
            "serve call - engine.run_ms - model.trace_gen_ms",
        ));
        let capacity = f64::from(setup.serve.batch_size * setup.serve.policy.max_batches());
        let fill = if serve.groups.is_empty() {
            0.0
        } else {
            serve
                .groups
                .iter()
                .map(|g| f64::from(g.n_requests) / capacity)
                .sum::<f64>()
                / serve.groups.len() as f64
        };
        m.metrics.push(Metric::exact(
            "serve.groups",
            "count",
            serve.groups.len() as f64,
            "dispatched groups (waves, for continuous batching)",
        ));
        m.metrics.push(Metric::exact(
            "serve.group_fill",
            "share",
            fill,
            format!("mean requests per group / capacity {capacity}"),
        ));
        let delays: Vec<SimDuration> = serve
            .outcomes
            .iter()
            .filter(|o| !o.failed)
            .map(|o| o.queue_delay())
            .collect();
        m.metrics.push(Metric::exact(
            "serve.queue_delay_p99_s",
            "sim_s",
            Percentiles::of(&delays).p99.as_secs_f64(),
            format!("nearest rank over {} served requests", delays.len()),
        ));
        let exact = |name, unit, value: f64, note| Metric::exact(name, unit, value, note);
        match report {
            FleetReport::Cluster(c) => m.metrics.extend([
                exact(
                    "cluster.replica_hours",
                    "sim_h",
                    serve.replica_hours(),
                    "ServeReport::replica_hours",
                ),
                exact(
                    "cluster.peak_replicas",
                    "count",
                    f64::from(c.peak_provisioned),
                    "ClusterReport::peak_provisioned",
                ),
                exact(
                    "faults.retried",
                    "count",
                    summarize(serve, &setup.slo).retried as f64,
                    "requests served after a crash-driven retry",
                ),
                exact(
                    "faults.wasted_busy_s",
                    "sim_s",
                    c.faults.wasted_busy.as_secs_f64(),
                    "FaultStats::wasted_busy",
                ),
            ]),
            FleetReport::Continuous(c) => m.metrics.extend([
                exact(
                    "continuous.refills",
                    "count",
                    f64::from(c.refills),
                    "ContinuousReport::refills",
                ),
                exact(
                    "continuous.preemptions",
                    "count",
                    f64::from(c.preemptions),
                    "ContinuousReport::preemptions",
                ),
                exact(
                    "continuous.prefill_chunks",
                    "count",
                    f64::from(c.prefill_chunks),
                    "ContinuousReport::prefill_chunks",
                ),
                exact(
                    "continuous.occupancy",
                    "share",
                    c.occupancy,
                    "ContinuousReport::occupancy",
                ),
            ]),
        }
        let traffic_ms: Vec<f64> = self.traffic_s.iter().map(|s| s * 1e3).collect();
        m.metrics.push(Metric::median(
            "traffic.generate_ms",
            "ms",
            &traffic_ms,
            "traffic::generate, timed before each rep",
        ));
        m.metrics.push(Metric::median(
            "metrics.summarize_ms",
            "ms",
            &self.summarize_ms,
            format!("metrics::summarize over {} outcomes", serve.outcomes.len()),
        ));
        m.metrics.push(Metric::median(
            "trace.overhead_ms",
            "ms",
            &self.overhead_ms,
            "traced minus untraced wall time of the same serve call",
        ));
    }
}
