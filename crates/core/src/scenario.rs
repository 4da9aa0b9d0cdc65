//! Scenarios: one (model, hardware, workload, routing trace) tuple.
//!
//! Every engine — Klotski and the five baselines — runs against the same
//! [`Scenario`], so comparisons differ only in *policy*: same cost model,
//! same gating ground truth, same memory capacities.

use std::error::Error;
use std::fmt;

use klotski_model::cost::CostModel;
use klotski_model::hardware::HardwareSpec;
use klotski_model::spec::ModelSpec;
use klotski_model::trace::{GatingModel, GatingTrace, TraceConfig};
use klotski_model::workload::Workload;
use klotski_sim::sim::SimError;
use klotski_sim::time::SimDuration;

use crate::placement::PlacementError;
use crate::report::InferenceReport;

/// A fully specified experiment input.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The model architecture.
    pub spec: ModelSpec,
    /// The machine.
    pub hw: HardwareSpec,
    /// The workload shape (total batches × batch size × lengths).
    pub workload: Workload,
    /// Ground-truth routing for MoE models (`None` for dense models).
    pub trace: Option<GatingTrace>,
    /// The *base* (undrifted) gating model — what a warm-up pre-run on
    /// public sample data sees (§8 of the paper uses wikitext-2).
    pub base_gating: Option<GatingModel>,
    /// The task's (drifted) gating model — the distribution the trace was
    /// actually sampled from. Engines must not peek at this for decisions;
    /// it exists for planners' statistical estimates and for analysis.
    pub task_gating: Option<GatingModel>,
}

impl Scenario {
    /// Generates a scenario: builds the gating model for `spec`, applies a
    /// task-level drift (data sensitivity), and samples the routing trace
    /// for the whole workload.
    pub fn generate(spec: ModelSpec, hw: HardwareSpec, workload: Workload, seed: u64) -> Self {
        if !spec.is_moe() {
            return Scenario {
                spec,
                hw,
                workload,
                trace: None,
                base_gating: None,
                task_gating: None,
            };
        }
        let cfg = TraceConfig::for_model(&spec, seed);
        let base = GatingModel::new(&cfg);
        let task = base.drifted(cfg.drift, seed.wrapping_add(1));
        let trace = task.generate_trace(
            workload.total_seqs() as u32,
            workload.prompt_len,
            workload.gen_len,
            seed.wrapping_add(2),
        );
        Scenario {
            spec,
            hw,
            workload,
            trace: Some(trace),
            base_gating: Some(base),
            task_gating: Some(task),
        }
    }

    /// The cost model of this scenario.
    pub fn cost_model(&self) -> CostModel {
        CostModel::new(self.spec.clone(), self.hw.clone())
    }

    /// The routing trace.
    ///
    /// # Panics
    ///
    /// Panics for dense models; guard with [`ModelSpec::is_moe`].
    pub fn trace(&self) -> &GatingTrace {
        self.trace.as_ref().expect("dense models have no trace")
    }
}

/// An inference engine: one offloading policy over the shared substrate.
pub trait Engine {
    /// Engine name as it appears in reports and figures.
    fn name(&self) -> String;

    /// Runs the scenario to completion.
    ///
    /// Out-of-memory is a *result* (reported via
    /// [`InferenceReport::oom`]), not an error; errors are reserved for
    /// invalid configurations and internal bugs.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] on configuration errors or internal
    /// scheduling bugs (deadlocks).
    fn run(&self, scenario: &Scenario) -> Result<InferenceReport, EngineError>;
}

/// One group run decomposed into decode steps.
///
/// The serving layer needs to reason about a group *during* its run —
/// refill freed slots, chunk the prefill, preempt between steps — which an
/// atomic [`Engine::run`] span cannot express. A `StepPlan` slices the same
/// service time into a prefill span plus `steps` uniform decode steps, with
/// the integer-truncation remainder pinned to the final step so that
/// [`StepPlan::total`] reconstructs the atomic span *exactly*: stepped and
/// atomic execution of the same group are byte-identical by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepPlan {
    /// The group's prefill span (first token of every sequence).
    pub prefill: SimDuration,
    /// One decode step — the integer-truncated mean over `steps`.
    pub decode_step: SimDuration,
    /// Truncation remainder, absorbed by the final decode step.
    pub remainder: SimDuration,
    /// Decode steps after the first token (`padded_gen − 1`).
    pub steps: u32,
    /// Whether the underlying run aborted with an out-of-memory verdict
    /// (all spans are zero in that case).
    pub oom: bool,
}

impl StepPlan {
    /// Slices `report` into steps for a group padded to `padded_gen`
    /// generated tokens per sequence.
    pub fn from_report(report: &InferenceReport, padded_gen: u32) -> Self {
        if !report.succeeded() {
            return StepPlan {
                prefill: SimDuration::ZERO,
                decode_step: SimDuration::ZERO,
                remainder: SimDuration::ZERO,
                steps: 0,
                oom: true,
            };
        }
        let steps = padded_gen.saturating_sub(1);
        let decode = report.total_time.saturating_sub(report.prefill_time);
        let decode_step = if steps > 0 {
            decode / steps as u64
        } else {
            SimDuration::ZERO
        };
        let remainder = decode.saturating_sub(decode_step * steps as u64);
        StepPlan {
            prefill: report.prefill_time,
            decode_step,
            remainder,
            steps,
            oom: false,
        }
    }

    /// Total service time; equals the atomic run's `total_time` exactly.
    pub fn total(&self) -> SimDuration {
        self.prefill + self.decode_step * self.steps as u64 + self.remainder
    }

    /// Offset from dispatch at which a member with `gen_len` generated
    /// tokens (in a group padded to `padded_gen`) sees its last token.
    ///
    /// Pace-setters (`gen_len ≥ padded_gen`) pin to the exact end of the
    /// run so the remainder lands on them; shorter members finish at their
    /// own step boundary.
    pub fn finish_offset(&self, gen_len: u32, padded_gen: u32) -> SimDuration {
        if gen_len >= padded_gen {
            self.total()
        } else {
            self.prefill + self.decode_step * gen_len.saturating_sub(1) as u64
        }
    }

    /// The span of the prefill chunk covering prompt tokens
    /// `[done, done + take)` of a `prompt_len`-token prompt.
    ///
    /// Chunks are sliced by prefix difference —
    /// `prefill × (done + take)/prompt − prefill × done/prompt` in integer
    /// nanoseconds — so any chunking of the prompt sums to exactly
    /// [`StepPlan::prefill`], preserving byte-level cost parity with the
    /// unchunked prefill.
    pub fn prefill_chunk(&self, done: u32, take: u32, prompt_len: u32) -> SimDuration {
        let p = self.prefill.as_nanos();
        let len = u64::from(prompt_len.max(1));
        let lo = u64::from(done.min(prompt_len));
        let hi = u64::from(done.saturating_add(take).min(prompt_len));
        SimDuration::from_nanos(p * hi / len - p * lo / len)
    }
}

/// Errors from engine runs.
#[derive(Debug)]
pub enum EngineError {
    /// The engine cannot express this scenario (e.g. a dense-only engine on
    /// an MoE model).
    InvalidConfig(String),
    /// Internal scheduling bug: the submitted task graph deadlocked.
    Internal(SimError),
    /// The model/workload cannot be placed at all (distinct from a runtime
    /// OOM, which is reported in the [`InferenceReport`]).
    Placement(PlacementError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            EngineError::Internal(e) => write!(f, "internal scheduling error: {e}"),
            EngineError::Placement(e) => write!(f, "{e}"),
        }
    }
}

impl Error for EngineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EngineError::Internal(e) => Some(e),
            EngineError::Placement(e) => Some(e),
            EngineError::InvalidConfig(_) => None,
        }
    }
}

impl From<PlacementError> for EngineError {
    fn from(e: PlacementError) -> Self {
        EngineError::Placement(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moe_scenarios_carry_traces() {
        let s = Scenario::generate(
            ModelSpec::mixtral_8x7b(),
            HardwareSpec::env1_rtx3090(),
            Workload::paper_default(4).with_batches(3),
            7,
        );
        let t = s.trace();
        assert_eq!(t.n_seqs(), 12);
        assert_eq!(t.n_moe_layers(), 32);
        assert!(s.base_gating.is_some());
        assert!(s.task_gating.is_some());
    }

    #[test]
    fn dense_scenarios_have_no_trace() {
        let s = Scenario::generate(
            ModelSpec::opt_1_3b(),
            HardwareSpec::env1_rtx3090(),
            Workload::paper_default(4),
            7,
        );
        assert!(s.trace.is_none());
    }

    #[test]
    fn generation_is_seed_deterministic() {
        let make = |seed| {
            Scenario::generate(
                ModelSpec::mixtral_8x7b(),
                HardwareSpec::env1_rtx3090(),
                Workload::paper_default(4).with_batches(2),
                seed,
            )
        };
        let a = make(3);
        let b = make(3);
        assert_eq!(
            a.trace().decode_choices(0, 0),
            b.trace().decode_choices(0, 0)
        );
        let c = make(4);
        assert_ne!(
            a.trace().decode_choices(0, 0),
            c.trace().decode_choices(0, 0)
        );
    }

    fn report(total_ns: u64, prefill_ns: u64, oom: bool) -> InferenceReport {
        InferenceReport {
            engine: "stub".into(),
            model: "stub".into(),
            total_time: SimDuration::from_nanos(total_ns),
            prefill_time: SimDuration::from_nanos(prefill_ns),
            decode_time: SimDuration::from_nanos(total_ns - prefill_ns),
            generated_tokens: 1,
            gpu_busy: SimDuration::ZERO,
            gpu_bubble: SimDuration::ZERO,
            peak_vram: 0,
            peak_dram: 0,
            oom: oom.then(|| "vram".into()),
            metrics: None,
        }
    }

    #[test]
    fn step_plan_reconstructs_the_atomic_span_exactly() {
        // 10_000_007 ns of decode over 6 steps does not divide evenly; the
        // remainder must land on the final step so total() is exact.
        let r = report(12_000_007, 2_000_000, false);
        let plan = StepPlan::from_report(&r, 7);
        assert_eq!(plan.steps, 6);
        assert_eq!(plan.total(), r.total_time);
        assert_eq!(
            plan.decode_step,
            SimDuration::from_nanos(10_000_007 / 6),
            "decode step is the truncated mean"
        );
        assert!(plan.remainder > SimDuration::ZERO);
        assert!(!plan.oom);
    }

    #[test]
    fn step_plan_finish_offsets_match_truncated_tpot() {
        let r = report(12_000_007, 2_000_000, false);
        let plan = StepPlan::from_report(&r, 7);
        // Pace-setters pin to the exact group end.
        assert_eq!(plan.finish_offset(7, 7), r.total_time);
        // Shorter members land on their own step boundary.
        assert_eq!(
            plan.finish_offset(3, 7),
            plan.prefill + plan.decode_step * 2
        );
        // Monotone in gen_len.
        assert!(plan.finish_offset(2, 7) < plan.finish_offset(6, 7));
        assert!(plan.finish_offset(6, 7) < plan.finish_offset(7, 7));
    }

    #[test]
    fn step_plan_single_token_groups_have_no_steps() {
        let r = report(5_000, 2_000, false);
        let plan = StepPlan::from_report(&r, 1);
        assert_eq!(plan.steps, 0);
        assert_eq!(plan.total(), r.total_time, "post-prefill span survives");
        assert_eq!(plan.finish_offset(1, 1), r.total_time);
    }

    #[test]
    fn step_plan_oom_zeroes_all_spans() {
        let plan = StepPlan::from_report(&report(10, 5, true), 4);
        assert!(plan.oom);
        assert_eq!(plan.total(), SimDuration::ZERO);
    }

    #[test]
    fn task_gating_is_drifted_from_base() {
        let s = Scenario::generate(
            ModelSpec::mixtral_8x7b(),
            HardwareSpec::env1_rtx3090(),
            Workload::paper_default(4),
            11,
        );
        let base = s.base_gating.as_ref().unwrap();
        let task = s.task_gating.as_ref().unwrap();
        let diff: f64 = (0..base.n_moe_layers())
            .map(|l| {
                base.popularity(l)
                    .iter()
                    .zip(task.popularity(l))
                    .map(|(a, b)| (a - b).abs())
                    .sum::<f64>()
            })
            .sum();
        assert!(diff > 0.01, "drift must perturb popularity");
    }
}
