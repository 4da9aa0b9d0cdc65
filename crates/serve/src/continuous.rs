//! Continuous batching: step-level scheduling with slot refill,
//! preemptible chunked prefill, and priority classes.
//!
//! The run-to-completion loop in [`server`](crate::server) dispatches a
//! batch group and blocks until its slowest member drains: finished
//! requests idle in padding, and a long prefill walls off latency-critical
//! arrivals behind it. This module schedules the same traffic at *step*
//! granularity instead — the vLLM/Sarathi-style serving core, expressed in
//! the simulator:
//!
//! * **Slot refill** — the engine holds a pool of `batch_size × max_n`
//!   sequence slots; whenever a decode step finishes some sequences, the
//!   freed slots are refilled from the admission queue at the very next
//!   step boundary (recorded as [`GroupTrigger::Refill`] waves) instead of
//!   waiting for the whole group to drain.
//! * **Chunked, preemptible prefill** — a wave's prefill is split into
//!   fixed-size token chunks ([`ContinuousConfig::prefill_chunk`]); a
//!   chat-class arrival can park a batch-class prefill between chunks and
//!   jump ahead of it.
//! * **Priority classes** — requests are deterministically classified as
//!   interactive `Chat` or offline `Batch` ([`ClassAssign`]); chat
//!   admission preempts batch prefill, and
//!   [`summarize_where`](crate::metrics::summarize_where) reports SLO
//!   attainment per class.
//!
//! Cost accounting reuses the calibrated
//! [`estimate_step_service`]
//! decomposition, whose step sums equal
//! [`estimate_group_service`](crate::admission::estimate_group_service)
//! *exactly* — so a full group costs the same whether it runs atomically
//! or step-by-step, and any measured win is pure scheduling, not pricing.
//! The [`CostEngine`] baseline makes that comparison apples-to-apples.
//!
//! With [`ContinuousConfig::refill`] disabled the entry point *is*
//! [`serve`] plus an occupancy fold (a proptest pins the byte identity),
//! so the continuous scheduler is a strict extension, never a fork. With
//! refill enabled the slot machine keeps its own step logic but picks its
//! next event under the fleet loop's tie rule (see
//! [`cluster`](crate::cluster)): an arrival at the machine's action
//! instant is ingested first.
//!
//! The slot machine prices every step with the cost model, never with the
//! engine, so refill mode accepts only [`CostEngine`]: any other engine
//! would label cost-model numbers with its own name.

use std::collections::VecDeque;

use klotski_core::report::InferenceReport;
use klotski_core::scenario::{Engine, EngineError, Scenario};
use klotski_model::cost::CostModel;
use klotski_model::hardware::HardwareSpec;
use klotski_model::spec::ModelSpec;
use klotski_model::workload::Workload;
use klotski_sim::time::{SimDuration, SimTime};

use crate::admission::{estimate_step_service, GroupTrigger, StepEstimate};
use crate::cluster::fleet::Event;
use crate::server::{
    busy_share, serve, validate, ArrivalSource, Completion, GroupRecord, ReplicaUtilization,
    RequestOutcome, RetryOutcome, ServeConfig, ServeReport, Traffic,
};
use crate::traffic::Request;

/// The priority class of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestClass {
    /// Interactive traffic: TTFT-sensitive, admitted ahead of batch work
    /// and allowed to preempt batch-class prefill between chunks.
    Chat,
    /// Offline/batch traffic: throughput-oriented, admitted only when no
    /// chat request is waiting for a slot.
    Batch,
}

/// How requests are assigned to priority classes.
///
/// Assignment is a pure function of the request id (a multiplicative hash,
/// not "the first N%"), so a share applies uniformly across the stream and
/// reruns are byte-deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassAssign {
    /// No class split: every request is `Chat` (single-queue scheduling).
    Uniform,
    /// `chat_pct`% of requests are `Chat`, the rest `Batch`.
    ChatShare {
        /// Percentage of requests classified as chat (0–100).
        chat_pct: u32,
    },
}

impl ClassAssign {
    /// The class of request `id`.
    pub fn class_of(&self, id: u64) -> RequestClass {
        match *self {
            ClassAssign::Uniform => RequestClass::Chat,
            ClassAssign::ChatShare { chat_pct } => {
                let h = id.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32;
                if h % 100 < u64::from(chat_pct) {
                    RequestClass::Chat
                } else {
                    RequestClass::Batch
                }
            }
        }
    }

    /// Short stable name for tables and JSON output.
    pub fn label(&self) -> &'static str {
        match self {
            ClassAssign::Uniform => "uniform",
            ClassAssign::ChatShare { .. } => "chat_share",
        }
    }
}

/// Configuration for [`serve_continuous`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContinuousConfig {
    /// The underlying serving configuration; `batch_size ×
    /// policy.max_batches()` is the slot capacity of the continuous
    /// scheduler.
    pub serve: ServeConfig,
    /// Enable step-level slot refill (the engine must then be
    /// [`CostEngine`]). When `false` the run is [`serve`]'s, byte for
    /// byte; `prefill_chunk` and `classes` are then inert.
    pub refill: bool,
    /// Prefill chunk size in prompt tokens (`0` = atomic prefill, never
    /// preempted mid-wave).
    pub prefill_chunk: u32,
    /// Priority-class assignment.
    pub classes: ClassAssign,
}

/// A [`ServeReport`] plus the continuous scheduler's own counters.
#[derive(Debug, Clone)]
pub struct ContinuousReport {
    /// The standard serving report (outcomes, waves as groups, makespan).
    pub serve: ServeReport,
    /// Batch-class prefill jobs parked by a chat admission.
    pub preemptions: u32,
    /// Requests admitted into freed slots of an already-running batch.
    pub refills: u32,
    /// Prefill chunks executed.
    pub prefill_chunks: u32,
    /// Slot-refill occupancy: the mean fraction of the slot capacity
    /// producing tokens per decode step (run-to-completion runs report the
    /// analogous padded-group number).
    pub occupancy: f64,
}

/// An [`Engine`] that *prices* scenarios with the calibrated
/// [`CostModel`] instead of simulating them: service time is
/// [`estimate_group_service`](crate::admission::estimate_group_service)
/// at the workload's shape, prefill its step-estimate prefill, and it
/// never OOMs.
///
/// This is the cost-parity baseline for continuous batching: the
/// continuous scheduler prices its steps with
/// [`estimate_step_service`],
/// whose step sums equal the group estimate exactly — so benchmarking
/// continuous against run-to-completion *with this engine* isolates the
/// scheduling policy from any pricing difference. It is also the only
/// engine [`serve_continuous`] accepts with refill enabled.
pub struct CostEngine {
    cost: CostModel,
}

/// [`CostEngine`]'s name: the label refill mode requires, because the slot
/// machine's step prices are the cost model's.
const COST_ENGINE_NAME: &str = "CostModel";

impl CostEngine {
    /// A cost engine calibrated for `spec` on `hw`.
    pub fn new(spec: &ModelSpec, hw: &HardwareSpec) -> Self {
        CostEngine {
            cost: CostModel::new(spec.clone(), hw.clone()),
        }
    }
}

impl Engine for CostEngine {
    fn name(&self) -> String {
        COST_ENGINE_NAME.into()
    }

    fn run(&self, scenario: &Scenario) -> Result<InferenceReport, EngineError> {
        let wl = scenario.workload;
        let est = estimate_step_service(
            &self.cost,
            wl.batch_size,
            wl.num_batches,
            wl.prompt_len,
            wl.gen_len,
        );
        let total = est.group(wl.gen_len);
        Ok(InferenceReport {
            engine: self.name(),
            model: scenario.spec.name.clone(),
            total_time: total,
            prefill_time: est.prefill,
            decode_time: total.saturating_sub(est.prefill),
            generated_tokens: wl.total_generated(),
            gpu_busy: total,
            gpu_bubble: SimDuration::ZERO,
            peak_vram: 0,
            peak_dram: 0,
            oom: None,
            metrics: None,
        })
    }
}

/// Serves `traffic` with the continuous-batching scheduler.
///
/// With `cfg.refill` enabled the engine is modeled as a pool of
/// `batch_size × max_batches` sequence slots advanced step by step (see
/// the module docs for the scheduling rules); step and prefill-chunk costs
/// come from the calibrated cost model, so `engine` must be a
/// [`CostEngine`]. With `cfg.refill` disabled this is [`serve`] on the
/// same engine — byte-identical — plus the padded-group occupancy.
///
/// # Errors
///
/// Returns [`EngineError`] if the engine rejects a scenario as invalid
/// (run-to-completion mode; the slot machine prices steps analytically
/// and cannot OOM), or [`EngineError::InvalidConfig`] if refill is enabled
/// with an engine other than [`CostEngine`].
///
/// # Panics
///
/// Panics if `cfg.serve.batch_size` is zero, the policy's group size is
/// zero, a `ChatShare` percentage exceeds 100, or closed-loop traffic
/// promises requests but has no clients to issue them.
pub fn serve_continuous(
    engine: &dyn Engine,
    spec: &ModelSpec,
    hw: &HardwareSpec,
    traffic: &Traffic,
    cfg: &ContinuousConfig,
) -> Result<ContinuousReport, EngineError> {
    if let ClassAssign::ChatShare { chat_pct } = cfg.classes {
        assert!(chat_pct <= 100, "chat_pct must be a percentage");
    }
    if !cfg.refill {
        let serve = serve(engine, spec, hw, traffic, &cfg.serve)?;
        let occupancy = padded_occupancy(&serve, &cfg.serve);
        return Ok(ContinuousReport {
            serve,
            preemptions: 0,
            refills: 0,
            prefill_chunks: 0,
            occupancy,
        });
    }
    validate(&cfg.serve, traffic);
    let name = engine.name();
    if name != COST_ENGINE_NAME {
        return Err(EngineError::InvalidConfig(format!(
            "continuous refill prices steps with the cost model, so it needs \
             the {COST_ENGINE_NAME} engine, not {name}"
        )));
    }
    Ok(run_slot_machine(spec, hw, traffic, cfg))
}

/// Padded-group occupancy of a run-to-completion report: useful
/// decode-step slots over the slot capacity across every group's decode
/// steps — the number slot refill exists to raise.
fn padded_occupancy(report: &ServeReport, cfg: &ServeConfig) -> f64 {
    let capacity = u64::from(cfg.batch_size) * u64::from(cfg.policy.max_batches());
    let steps: u64 = report
        .groups
        .iter()
        .map(|g| u64::from(g.workload.gen_len.saturating_sub(1)))
        .sum();
    let occupied: u64 = report
        .outcomes
        .iter()
        .filter(|o| !o.failed)
        .map(|o| u64::from(o.gen_len.saturating_sub(1)))
        .sum();
    if steps == 0 {
        0.0
    } else {
        occupied as f64 / (steps * capacity) as f64
    }
}

/// One admission wave under construction (becomes a [`GroupRecord`] with
/// [`GroupTrigger::Refill`] once its last member finishes).
struct Wave {
    dispatched: SimTime,
    n: u32,
    prompt: u32,
    gen: u32,
    prefill: SimDuration,
    last_finish: SimTime,
}

/// A wave's prefill in progress; jobs form a stack, and a chat admission
/// parks a batch-class job by pushing on top of it.
struct PrefillJob {
    wave: usize,
    members: Vec<Request>,
    prompt: u32,
    done: u32,
    est: StepEstimate,
    chat: bool,
}

/// One sequence holding a slot through its decode steps.
struct ActiveSeq {
    req: Request,
    wave: usize,
    first_token: SimTime,
    remaining: u32,
}

struct SlotMachine<'a> {
    cost: &'a CostModel,
    batch_size: u32,
    capacity: usize,
    chunk: u32,
    classes: ClassAssign,
    chat_q: VecDeque<Request>,
    batch_q: VecDeque<Request>,
    jobs: Vec<PrefillJob>,
    active: Vec<ActiveSeq>,
    t_free: SimTime,
    waves: Vec<Wave>,
    outcomes: Vec<RequestOutcome>,
    busy: SimDuration,
    served: u32,
    tokens: u64,
    preemptions: u32,
    refills: u32,
    chunks: u32,
    occupied_steps: u64,
    decode_steps: u64,
}

impl<'a> SlotMachine<'a> {
    fn new(cost: &'a CostModel, cfg: &ContinuousConfig) -> Self {
        let capacity = cfg.serve.batch_size as usize * cfg.serve.policy.max_batches() as usize;
        SlotMachine {
            cost,
            batch_size: cfg.serve.batch_size,
            capacity,
            chunk: cfg.prefill_chunk,
            classes: cfg.classes,
            chat_q: VecDeque::new(),
            batch_q: VecDeque::new(),
            jobs: Vec::new(),
            active: Vec::new(),
            t_free: SimTime::ZERO,
            waves: Vec::new(),
            outcomes: Vec::new(),
            busy: SimDuration::ZERO,
            served: 0,
            tokens: 0,
            preemptions: 0,
            refills: 0,
            chunks: 0,
            occupied_steps: 0,
            decode_steps: 0,
        }
    }

    fn used_slots(&self) -> usize {
        self.active.len() + self.jobs.iter().map(|j| j.members.len()).sum::<usize>()
    }

    fn enqueue(&mut self, r: Request) {
        match self.classes.class_of(r.id) {
            RequestClass::Chat => self.chat_q.push_back(r),
            RequestClass::Batch => self.batch_q.push_back(r),
        }
    }

    /// The next instant the machine acts: the engine-free boundary while
    /// any work is in flight, otherwise the earliest queued arrival (the
    /// machine is work-conserving — an idle engine admits immediately).
    fn next_action_time(&self) -> Option<SimTime> {
        if !self.jobs.is_empty() || !self.active.is_empty() {
            return Some(self.t_free);
        }
        let front = match (self.chat_q.front(), self.batch_q.front()) {
            (Some(a), Some(b)) => Some(a.arrival.min(b.arrival)),
            (Some(a), None) => Some(a.arrival),
            (None, Some(b)) => Some(b.arrival),
            (None, None) => None,
        };
        front.map(|a| a.max(self.t_free))
    }

    /// Pricing shape for `m` co-resident sequences: one ragged batch below
    /// `batch_size`, whole batches (rounded up) beyond it — the same
    /// convention the run-to-completion groups use.
    fn shape(&self, m: usize) -> (u32, u32) {
        let m = m as u32;
        if m <= self.batch_size {
            (m.max(1), 1)
        } else {
            (self.batch_size, m.div_ceil(self.batch_size))
        }
    }

    /// Executes one scheduling action at `t` and returns the completions.
    ///
    /// Priority order: admit chat (parking a batch-class prefill between
    /// chunks), continue the current prefill, admit batch, decode one step.
    fn act(&mut self, t: SimTime) -> Vec<Completion> {
        let free = self.capacity - self.used_slots();
        let current_chat = self.jobs.last().map(|j| j.chat);
        if free > 0 && !self.chat_q.is_empty() && current_chat != Some(true) {
            if current_chat == Some(false) {
                // A batch-class prefill is mid-flight: park it between
                // chunks; the chat wave's job runs first.
                self.preemptions += 1;
            }
            self.admit_wave(t, RequestClass::Chat, free);
        } else if self.jobs.is_empty() && free > 0 && !self.batch_q.is_empty() {
            self.admit_wave(t, RequestClass::Batch, free);
        }
        if !self.jobs.is_empty() {
            self.run_chunk(t)
        } else if !self.active.is_empty() {
            self.decode_step(t)
        } else {
            Vec::new()
        }
    }

    fn admit_wave(&mut self, t: SimTime, class: RequestClass, free: usize) {
        let q = match class {
            RequestClass::Chat => &mut self.chat_q,
            RequestClass::Batch => &mut self.batch_q,
        };
        let m = free.min(q.len());
        debug_assert!(m > 0);
        let members: Vec<Request> = q.drain(..m).collect();
        let (prompt, gen) = members
            .iter()
            .fold((1, 1), |(p, g), r| (p.max(r.prompt_len), g.max(r.gen_len)));
        let (ebs, en) = self.shape(m);
        let est = estimate_step_service(self.cost, ebs, en, prompt, gen);
        if !self.active.is_empty() || !self.jobs.is_empty() {
            self.refills += m as u32;
        }
        let wave = self.waves.len();
        self.waves.push(Wave {
            dispatched: t,
            n: m as u32,
            prompt,
            gen,
            prefill: est.prefill,
            last_finish: t,
        });
        self.jobs.push(PrefillJob {
            wave,
            members,
            prompt,
            done: 0,
            est,
            chat: class == RequestClass::Chat,
        });
    }

    fn run_chunk(&mut self, t: SimTime) -> Vec<Completion> {
        let job = self.jobs.last_mut().expect("chunk needs a job");
        let remaining = job.prompt - job.done;
        let take = if self.chunk == 0 {
            remaining
        } else {
            self.chunk.min(remaining)
        };
        let d = job.est.prefill_chunk(job.done, take, job.prompt);
        job.done += take;
        self.chunks += 1;
        self.busy += d;
        self.t_free = t + d;
        let mut done = Vec::new();
        if job.done >= job.prompt {
            let job = self.jobs.pop().expect("job just ran");
            let first_token = self.t_free;
            for r in job.members {
                if r.gen_len <= 1 {
                    // First token is the last: the sequence leaves its slot
                    // at the end of its wave's prefill.
                    self.finish(r, job.wave, first_token, first_token, &mut done);
                } else {
                    self.active.push(ActiveSeq {
                        req: r,
                        wave: job.wave,
                        first_token,
                        remaining: r.gen_len - 1,
                    });
                }
            }
        }
        done
    }

    fn decode_step(&mut self, t: SimTime) -> Vec<Completion> {
        let m = self.active.len();
        let (prompt, gen) = self.active.iter().fold((1, 1), |(p, g), s| {
            (p.max(s.req.prompt_len), g.max(s.req.gen_len))
        });
        let (ebs, en) = self.shape(m);
        let d = estimate_step_service(self.cost, ebs, en, prompt, gen).decode_step;
        self.occupied_steps += m as u64;
        self.decode_steps += 1;
        self.busy += d;
        self.t_free = t + d;
        let finish_at = self.t_free;
        let mut done = Vec::new();
        let mut still = Vec::with_capacity(m);
        for mut s in std::mem::take(&mut self.active) {
            s.remaining -= 1;
            if s.remaining == 0 {
                self.finish(s.req, s.wave, s.first_token, finish_at, &mut done);
            } else {
                still.push(s);
            }
        }
        self.active = still;
        done
    }

    fn finish(
        &mut self,
        r: Request,
        wave: usize,
        first_token: SimTime,
        finished: SimTime,
        done: &mut Vec<Completion>,
    ) {
        let w = &mut self.waves[wave];
        w.last_finish = w.last_finish.max(finished);
        self.outcomes.push(RequestOutcome {
            id: r.id,
            arrival: r.arrival,
            dispatched: w.dispatched,
            first_token,
            finished,
            prompt_len: r.prompt_len,
            gen_len: r.gen_len,
            group: wave as u32,
            replica: 0,
            failed: false,
            retry: RetryOutcome::FirstTry,
        });
        self.served += 1;
        self.tokens += u64::from(r.gen_len);
        done.push(Completion {
            finished,
            failed: false,
        });
    }
}

/// The refill-enabled scheduler: the engine as a slot pool advanced at
/// step granularity, priced by the calibrated cost model (the analytic
/// pricing cannot OOM, so this path is infallible). The machine is one
/// replica, so its actions are formations on slot 0 under the fleet
/// loop's [`Event`] order.
fn run_slot_machine(
    spec: &ModelSpec,
    hw: &HardwareSpec,
    traffic: &Traffic,
    cfg: &ContinuousConfig,
) -> ContinuousReport {
    let cost = CostModel::new(spec.clone(), hw.clone());
    let mut source = ArrivalSource::new(traffic);
    let mut machine = SlotMachine::new(&cost, cfg);

    while let Some((t, event)) = Event::first([
        source.peek().map(|t| (t, Event::Arrival)),
        machine.next_action_time().map(|t| (t, Event::Form(0))),
    ]) {
        if event == Event::Arrival {
            if let Some(r) = source.pop() {
                machine.enqueue(r);
            }
        } else {
            for c in machine.act(t) {
                source.on_complete(c.finished, c.failed);
            }
        }
    }

    let SlotMachine {
        outcomes,
        waves,
        busy,
        served,
        tokens,
        preemptions,
        refills,
        chunks,
        occupied_steps,
        decode_steps,
        capacity,
        batch_size,
        ..
    } = machine;
    let groups: Vec<GroupRecord> = waves
        .iter()
        .enumerate()
        .map(|(i, w)| {
            // The recorded workload is the wave's padded admission shape
            // (waves may overlap on the engine, unlike RTC groups).
            let wl = if w.n <= batch_size || w.n % batch_size != 0 {
                Workload::new(w.n.max(1), 1, w.prompt, w.gen)
            } else {
                Workload::new(batch_size, w.n / batch_size, w.prompt, w.gen)
            };
            GroupRecord {
                index: i as u32,
                replica: 0,
                dispatched: w.dispatched,
                workload: wl,
                n_requests: w.n,
                trigger: GroupTrigger::Refill,
                service_time: w.last_finish.saturating_since(w.dispatched),
                prefill_time: w.prefill,
                oom: false,
            }
        })
        .collect();
    let n_groups = groups.len() as u32;
    let serve = ServeReport::assemble(COST_ENGINE_NAME.into(), outcomes, groups, |first, last| {
        let lifetime = last.saturating_since(first);
        vec![ReplicaUtilization {
            replica: 0,
            groups: n_groups,
            requests: served,
            busy,
            tokens,
            spawned: SimTime::ZERO,
            retired: None,
            lifetime,
            utilization: busy_share(busy, lifetime),
        }]
    });
    let occupancy = if decode_steps == 0 {
        0.0
    } else {
        occupied_steps as f64 / (decode_steps * capacity as u64) as f64
    };
    ContinuousReport {
        serve,
        preemptions,
        refills,
        prefill_chunks: chunks,
        occupancy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionPolicy;
    use crate::traffic::{generate, Arrivals, LengthDist, TrafficConfig};

    fn spec() -> ModelSpec {
        ModelSpec::mixtral_8x7b()
    }

    fn hw() -> HardwareSpec {
        HardwareSpec::env1_rtx3090()
    }

    fn cfg(bs: u32, n: u32, refill: bool, chunk: u32, classes: ClassAssign) -> ContinuousConfig {
        ContinuousConfig {
            serve: ServeConfig {
                batch_size: bs,
                policy: AdmissionPolicy::CostAware {
                    max_n: n,
                    slo_e2e: SimDuration::from_secs(600),
                },
                seed: 7,
            },
            refill,
            prefill_chunk: chunk,
            classes,
        }
    }

    /// A saturating stream with heavy-tailed output lengths: most requests
    /// want a handful of tokens, a quarter want 32 — the padding-waste
    /// shape continuous batching exists for.
    fn heavy_stream(num: u32, seed: u64) -> Vec<Request> {
        generate(
            Arrivals::Poisson { rate: 2.0 },
            &TrafficConfig {
                num_requests: num,
                prompt: LengthDist::Uniform { lo: 16, hi: 96 },
                gen: LengthDist::HeavyTail {
                    lo: 2,
                    hi: 4,
                    heavy: 32,
                    heavy_pct: 25,
                },
                seed,
            },
        )
    }

    fn run(stream: Vec<Request>, c: &ContinuousConfig) -> ContinuousReport {
        serve_continuous(
            &CostEngine::new(&spec(), &hw()),
            &spec(),
            &hw(),
            &Traffic::Open(stream),
            c,
        )
        .expect("serve_continuous")
    }

    #[test]
    fn slot_machine_conserves_requests_and_is_deterministic() {
        let c = cfg(4, 2, true, 32, ClassAssign::ChatShare { chat_pct: 40 });
        let a = run(heavy_stream(24, 3), &c);
        let b = run(heavy_stream(24, 3), &c);
        let ids: Vec<u64> = a.serve.outcomes.iter().map(|o| o.id).collect();
        assert_eq!(ids, (0..24).collect::<Vec<_>>());
        assert!(a.serve.outcomes.iter().all(|o| !o.failed));
        assert_eq!(a.serve.outcomes, b.serve.outcomes);
        assert_eq!(a.serve.groups, b.serve.groups);
        assert_eq!((a.refills, a.preemptions), (b.refills, b.preemptions));
        assert!((0.0..=1.0).contains(&a.occupancy), "{}", a.occupancy);
        // Every wave is a Refill-triggered record covering its members.
        let waved: u32 = a.serve.groups.iter().map(|g| g.n_requests).sum();
        assert_eq!(waved, 24);
        assert!(a
            .serve
            .groups
            .iter()
            .all(|g| g.trigger == GroupTrigger::Refill && !g.oom));
        // Per-request timing sanity.
        for o in &a.serve.outcomes {
            assert!(o.arrival <= o.dispatched);
            assert!(o.dispatched <= o.first_token);
            assert!(o.first_token <= o.finished);
        }
    }

    #[test]
    fn refill_beats_run_to_completion_under_padding_waste() {
        let rtc = run(
            heavy_stream(24, 5),
            &cfg(4, 2, false, 0, ClassAssign::Uniform),
        );
        let cont = run(
            heavy_stream(24, 5),
            &cfg(4, 2, true, 0, ClassAssign::Uniform),
        );
        assert!(
            cont.serve.makespan < rtc.serve.makespan,
            "continuous {} vs rtc {}",
            cont.serve.makespan,
            rtc.serve.makespan
        );
        assert!(cont.refills > 0, "saturated stream must refill slots");
    }

    /// Refill mode prices steps with the cost model, so a run labelled
    /// with any other engine's name would be mislabelled: it is rejected.
    /// Run-to-completion mode runs every group on the engine itself.
    #[test]
    fn refill_accepts_only_the_cost_engine() {
        use klotski_core::engine::{KlotskiConfig, KlotskiEngine};
        let traffic = Traffic::Open(heavy_stream(8, 3));
        let refill = cfg(4, 2, true, 32, ClassAssign::Uniform);
        let klotski = KlotskiEngine::new(KlotskiConfig::full());
        let rejected = serve_continuous(&klotski, &spec(), &hw(), &traffic, &refill);
        assert!(
            matches!(rejected, Err(EngineError::InvalidConfig(_))),
            "{rejected:?}"
        );
        let cost = CostEngine::new(&spec(), &hw());
        let accepted =
            serve_continuous(&cost, &spec(), &hw(), &traffic, &refill).expect("cost engine");
        assert_eq!(accepted.serve.engine, cost.name());
        let rtc = cfg(4, 2, false, 32, ClassAssign::Uniform);
        let klotski_rtc =
            serve_continuous(&klotski, &spec(), &hw(), &traffic, &rtc).expect("run-to-completion");
        assert_eq!(klotski_rtc.serve.engine, klotski.name());
    }

    #[test]
    fn closed_loop_clients_are_driven_to_completion() {
        let traffic = Traffic::Closed {
            clients: 3,
            think: SimDuration::from_secs(1),
            cfg: TrafficConfig {
                num_requests: 12,
                prompt: LengthDist::Uniform { lo: 16, hi: 64 },
                gen: LengthDist::Uniform { lo: 2, hi: 6 },
                seed: 9,
            },
        };
        let c = cfg(2, 2, true, 16, ClassAssign::Uniform);
        let r = serve_continuous(
            &CostEngine::new(&spec(), &hw()),
            &spec(),
            &hw(),
            &traffic,
            &c,
        )
        .expect("serve_continuous");
        assert_eq!(r.serve.outcomes.len(), 12);
        assert!(r.serve.outcomes.iter().all(|o| !o.failed));
    }

    fn id_of(class: RequestClass, assign: ClassAssign) -> u64 {
        (0..1000)
            .find(|&i| assign.class_of(i) == class)
            .expect("class representative")
    }

    #[test]
    fn chat_admission_preempts_batch_prefill_between_chunks() {
        let assign = ClassAssign::ChatShare { chat_pct: 50 };
        let chat = id_of(RequestClass::Chat, assign);
        let batch = id_of(RequestClass::Batch, assign);
        // A long batch-class prefill lands first; a short chat request
        // arrives right behind it.
        let stream = || {
            vec![
                Request {
                    id: batch,
                    arrival: SimTime::ZERO,
                    prompt_len: 4096,
                    gen_len: 4,
                },
                Request {
                    id: chat,
                    arrival: SimTime::ZERO + SimDuration::from_millis(1),
                    prompt_len: 32,
                    gen_len: 4,
                },
            ]
        };
        let classed = run(stream(), &cfg(4, 1, true, 64, assign));
        let fifo = run(stream(), &cfg(4, 1, true, 64, ClassAssign::Uniform));
        let ttft = |r: &ContinuousReport, id: u64| {
            r.serve.outcomes.iter().find(|o| o.id == id).unwrap().ttft()
        };
        assert!(classed.preemptions >= 1, "chat must park the batch prefill");
        assert!(
            ttft(&classed, chat) < ttft(&fifo, chat),
            "priority classes must cut chat TTFT: {} vs {}",
            ttft(&classed, chat),
            ttft(&fifo, chat)
        );
        // Work conservation: the batch request still completes.
        assert_eq!(classed.serve.outcomes.len(), 2);
    }

    #[test]
    fn chunking_is_cost_neutral_for_an_uncontended_wave() {
        // 509 is prime, so no chunk size divides the prompt evenly.
        let lone = vec![Request {
            id: 0,
            arrival: SimTime::ZERO,
            prompt_len: 509,
            gen_len: 5,
        }];
        let atomic = run(lone.clone(), &cfg(4, 1, true, 0, ClassAssign::Uniform));
        let chunked = run(lone, &cfg(4, 1, true, 7, ClassAssign::Uniform));
        assert_eq!(
            atomic.serve.outcomes, chunked.serve.outcomes,
            "prefix-difference chunking must not change uncontended timings"
        );
        assert_eq!(atomic.prefill_chunks, 1);
        assert_eq!(chunked.prefill_chunks, 509_u32.div_ceil(7));
    }

    #[test]
    fn single_token_requests_finish_at_their_waves_prefill_end() {
        let lone = vec![Request {
            id: 0,
            arrival: SimTime::ZERO,
            prompt_len: 64,
            gen_len: 1,
        }];
        let r = run(lone, &cfg(4, 1, true, 0, ClassAssign::Uniform));
        let o = &r.serve.outcomes[0];
        assert_eq!(o.first_token, o.finished);
        assert!(o.finished > o.dispatched);
        assert_eq!(r.serve.groups.len(), 1);
    }

    #[test]
    fn class_assignment_is_a_stable_share() {
        let assign = ClassAssign::ChatShare { chat_pct: 30 };
        let chat = (0..10_000u64)
            .filter(|&i| assign.class_of(i) == RequestClass::Chat)
            .count();
        // The hash split tracks the requested share within a few percent.
        assert!((2_500..3_500).contains(&chat), "chat share {chat}/10000");
        assert_eq!(
            ClassAssign::Uniform.class_of(42),
            RequestClass::Chat,
            "uniform assignment is single-class"
        );
    }
}
