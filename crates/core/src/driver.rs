//! The per-layer vocabulary every simulated engine shares: step and group
//! bookkeeping, trace views, step prices, the simulation drain loop and
//! report assembly.
//!
//! The Klotski engine and the five baselines decide these things here, once,
//! so that a difference between their reports is a difference in scheduling
//! policy alone:
//!
//! * [`trace_view`] — the routing a run reads, and the one check that a MoE
//!   scenario carries a gating trace;
//! * [`StepCompute`] — a batch's attention, gate and dense-FFN prices at a
//!   step;
//! * [`throttle`] — the double buffering of weight transfers;
//! * [`drain`] and [`build_report`] — a simulated run's measurements;
//! * [`rejected_report`] — the report of a run rejected before simulation.
//!
//! The correlation prefetcher's per-layer step operations
//! ([`CorrelationTable::predict_step`] and
//! [`CorrelationTable::record_step`]) speak the same (step, MoE layer,
//! sequence range) terms.
//!
//! [`CorrelationTable::predict_step`]: crate::prefetcher::CorrelationTable::predict_step
//! [`CorrelationTable::record_step`]: crate::prefetcher::CorrelationTable::record_step

use klotski_model::cost::CostModel;
use klotski_model::spec::ModelSpec;
use klotski_model::trace::GatingTrace;
use klotski_model::workload::Workload;
use klotski_sim::prelude::*;

use crate::compress::Compression;
use crate::report::InferenceReport;
use crate::scenario::{EngineError, Scenario};

/// One autoregressive phase of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepKind {
    /// Prompt ingestion (also produces the first generated token).
    Prefill,
    /// Decode step `i` (0-based; there are `gen_len − 1` of them).
    Decode(u32),
}

impl StepKind {
    /// Monotone step index for task labels: prefill = 0, decode i = i+1.
    pub fn index(self) -> u32 {
        match self {
            StepKind::Prefill => 0,
            StepKind::Decode(i) => i + 1,
        }
    }

    /// All steps of a workload generating `gen_len` tokens.
    pub fn all(gen_len: u32) -> impl Iterator<Item = StepKind> {
        std::iter::once(StepKind::Prefill)
            .chain((0..gen_len.saturating_sub(1)).map(StepKind::Decode))
    }

    /// Context length (tokens attended over) at this step.
    pub fn context(self, prompt_len: u32) -> u64 {
        match self {
            StepKind::Prefill => prompt_len as u64,
            StepKind::Decode(i) => prompt_len as u64 + i as u64 + 1,
        }
    }

    /// Tokens each sequence feeds through a layer at this step: its prompt
    /// at prefill, one token per decode step.
    pub fn new_tokens(self, prompt_len: u32) -> u64 {
        match self {
            StepKind::Prefill => prompt_len as u64,
            StepKind::Decode(_) => 1,
        }
    }
}

/// One batch's compute prices at one step, the same for every layer of the
/// step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepCompute {
    /// Attention over the batch's context. Prefill's causal mask attends to
    /// half the prompt on average; sparse attention caps the context first.
    pub attention: SimDuration,
    /// The MoE gate over the batch's step tokens.
    pub gate: SimDuration,
    /// A dense FFN over the batch's step tokens.
    pub dense_ffn: SimDuration,
}

impl StepCompute {
    /// The prices of one `wl.batch_size` batch at `step` under `comp`'s
    /// sparse attention, if any.
    pub fn new(cost: &CostModel, wl: &Workload, step: StepKind, comp: &Compression) -> Self {
        let bs = wl.batch_size as u64;
        let new_tokens = step.new_tokens(wl.prompt_len);
        let ctx = comp.effective_context(step.context(wl.prompt_len));
        let attended = match step {
            StepKind::Prefill => ctx / 2 + 1,
            StepKind::Decode(_) => ctx,
        };
        StepCompute {
            attention: cost.attention_time(bs, new_tokens, attended),
            gate: cost.gate_time(bs * new_tokens),
            dense_ffn: cost.dense_ffn_time(bs * new_tokens),
        }
    }
}

/// The routing view of `sc`'s trace: `None` for a dense model.
///
/// # Errors
///
/// Returns [`EngineError::InvalidConfig`] for a MoE scenario without a
/// gating trace.
pub fn trace_view(sc: &Scenario) -> Result<Option<TraceView<'_>>, EngineError> {
    match &sc.trace {
        Some(trace) => Ok(Some(TraceView::new(trace))),
        None if sc.spec.is_moe() => Err(EngineError::InvalidConfig(
            "MoE scenario without a gating trace".into(),
        )),
        None => Ok(None),
    }
}

/// The prefetch throttle the engines' weight transfers share: a transfer
/// for the layer at the current position of `layer_ends` (every layer-end
/// task so far, in execution order) may not start before the layer two
/// positions back has finished, bounding in-flight weights to roughly two
/// layers (double buffering). Without it, phases where compute outpaces
/// I/O (prefill) would let the link run arbitrarily far ahead and flood
/// VRAM.
pub fn throttle(layer_ends: &[TaskId]) -> Option<TaskId> {
    layer_ends.len().checked_sub(2).map(|i| layer_ends[i])
}

/// "No batch requests this expert" in
/// [`TraceView::first_requesting_batches_into`].
pub const NO_BATCH: u32 = u32::MAX;

/// A group-aware view over the routing trace.
#[derive(Debug, Clone, Copy)]
pub struct TraceView<'a> {
    trace: &'a GatingTrace,
}

impl<'a> TraceView<'a> {
    /// Wraps a trace.
    pub fn new(trace: &'a GatingTrace) -> Self {
        TraceView { trace }
    }

    /// The underlying trace.
    pub fn trace(&self) -> &'a GatingTrace {
        self.trace
    }

    /// Routed-token counts per expert at (`step`, MoE layer `m`) restricted
    /// to sequences `[s0, s1)`. Prefill counts are apportioned by share of
    /// the total sequence population.
    pub fn expert_tokens(&self, step: StepKind, m: u32, s0: u32, s1: u32) -> Vec<u32> {
        let mut counts = Vec::new();
        self.expert_tokens_into(step, m, s0, s1, &mut counts);
        counts
    }

    /// [`expert_tokens`](TraceView::expert_tokens) into a reused buffer.
    // analyze: no_alloc
    pub fn expert_tokens_into(
        &self,
        step: StepKind,
        m: u32,
        s0: u32,
        s1: u32,
        counts: &mut Vec<u32>,
    ) {
        match step {
            StepKind::Prefill => {
                counts.clear();
                counts.extend(self.prefill_tokens(m, s0, s1));
            }
            StepKind::Decode(i) => self.trace.tokens_per_expert_into(i, m, s0, s1, counts),
        }
    }

    /// Prefill's routed-token counts per expert at MoE layer `m`,
    /// apportioned to sequences `[s0, s1)` by their share of the sequence
    /// population.
    pub(crate) fn prefill_tokens(self, m: u32, s0: u32, s1: u32) -> impl Iterator<Item = u32> + 'a {
        let total = self.trace.n_seqs() as u64;
        self.trace
            .prefill_tokens_per_expert(m)
            .iter()
            .map(move |&c| (c as u64 * (s1 - s0) as u64 / total.max(1)) as u32)
    }

    /// Each expert's first requesting batch (of `batch_size`-wide batches
    /// within `[s0, s1)`) — the gate whose completion triggers its
    /// on-demand transfer — into a reused buffer: `first[e]` is a batch
    /// index, or [`NO_BATCH`] when no batch routes a token to `e`.
    // analyze: no_alloc
    pub fn first_requesting_batches_into(
        &self,
        step: StepKind,
        m: u32,
        s0: u32,
        s1: u32,
        batch_size: u32,
        first: &mut Vec<u32>,
    ) {
        first.clear();
        match step {
            // Prefill activates experts from the first batch onwards in
            // aggregate; attribute to batch 0.
            StepKind::Prefill => first.resize(self.trace.n_experts() as usize, 0),
            StepKind::Decode(i) => {
                first.resize(self.trace.n_experts() as usize, NO_BATCH);
                let n_batches = (s1 - s0) / batch_size;
                let k = (self.trace.top_k() * batch_size) as usize;
                let from = s0 as usize * self.trace.top_k() as usize;
                let choices = &self.trace.decode_choices(i, m)[from..];
                for (b, batch) in choices.chunks(k).take(n_batches as usize).enumerate() {
                    for &e in batch {
                        let slot = &mut first[e as usize];
                        if *slot == NO_BATCH {
                            *slot = b as u32;
                        }
                    }
                }
            }
        }
    }

    /// Per-sequence first choices at the previous MoE layer (`m − 1`) of
    /// the same decode step — the correlation-prefetcher's lookup keys —
    /// into a reused buffer.
    // analyze: no_alloc
    pub fn prev_choices_into(
        &self,
        decode_step: u32,
        m: u32,
        s0: u32,
        s1: u32,
        prev: &mut Vec<u16>,
    ) {
        assert!(m > 0, "layer 0 has no previous MoE layer");
        let k = self.trace.top_k() as usize;
        let choices = self.trace.decode_choices(decode_step, m - 1);
        prev.clear();
        prev.extend(choices[s0 as usize * k..s1 as usize * k].iter().step_by(k));
    }
}

/// Statistics collected while draining the simulation.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Completion time of the last prefill-phase task.
    pub prefill_end: SimTime,
    /// `(gpu-op index, VRAM bytes in use)` samples, one per GPU compute
    /// completion (paper Fig. 12's x-axis is exactly this op index).
    pub memory_curve: Vec<(u64, u64)>,
}

/// Drains the simulator to completion.
///
/// Returns run statistics, or the OOM message if the run died of memory
/// exhaustion (an expected *result* for some engines).
///
/// # Errors
///
/// Returns [`EngineError::Internal`] on scheduling deadlocks (engine bugs).
pub fn drain(
    sim: &mut Simulator,
    record_memory_curve: bool,
) -> Result<(RunStats, Option<String>), EngineError> {
    let mut stats = RunStats::default();
    let mut gpu_ops = 0u64;
    loop {
        match sim.step() {
            Ok(Some(done)) => {
                if done.meta.step == 0 && done.end > stats.prefill_end {
                    stats.prefill_end = done.end;
                }
                if record_memory_curve
                    && done.resource == Resource::GpuCompute
                    && done.meta.class.is_compute()
                {
                    gpu_ops += 1;
                    stats
                        .memory_curve
                        .push((gpu_ops, sim.pool(Tier::Vram).in_use()));
                }
            }
            Ok(None) => return Ok((stats, None)),
            Err(SimError::Oom { meta, source, .. }) => {
                return Ok((stats, Some(format!("{meta}: {source}"))));
            }
            Err(e @ SimError::Deadlock { .. }) => return Err(EngineError::Internal(e)),
        }
    }
}

/// The report of a run rejected before simulation: nothing ran, so every
/// time and peak is zero and `reason` stands as its out-of-memory message.
pub fn rejected_report(
    engine: String,
    spec: &ModelSpec,
    wl: &Workload,
    reason: String,
) -> InferenceReport {
    InferenceReport {
        engine,
        model: spec.name.clone(),
        total_time: SimDuration::ZERO,
        prefill_time: SimDuration::ZERO,
        decode_time: SimDuration::ZERO,
        generated_tokens: wl.total_generated(),
        gpu_busy: SimDuration::ZERO,
        gpu_bubble: SimDuration::ZERO,
        peak_vram: 0,
        peak_dram: 0,
        oom: Some(reason),
        metrics: None,
    }
}

/// Assembles the standard report after a drained run.
pub fn build_report(
    engine: String,
    spec: &ModelSpec,
    wl: &Workload,
    sim: &Simulator,
    stats: &RunStats,
    oom: Option<String>,
) -> InferenceReport {
    let total = sim.now().saturating_since(SimTime::ZERO);
    let prefill = stats.prefill_end.saturating_since(SimTime::ZERO);
    InferenceReport {
        engine,
        model: spec.name.clone(),
        total_time: total,
        prefill_time: prefill,
        decode_time: total.saturating_sub(prefill),
        generated_tokens: wl.total_generated(),
        gpu_busy: sim.busy(Resource::GpuCompute),
        gpu_bubble: sim.bubble(Resource::GpuCompute),
        peak_vram: sim.pool(Tier::Vram).peak(),
        peak_dram: sim.pool(Tier::Dram).peak(),
        oom,
        metrics: if sim.metrics().timeline().is_empty() && sim.metrics().memory_samples().is_empty()
        {
            None
        } else {
            Some(sim.metrics().clone())
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use klotski_model::spec::ModelSpec;
    use klotski_model::trace::{GatingModel, TraceConfig};

    fn trace() -> GatingTrace {
        let cfg = TraceConfig::for_model(&ModelSpec::mixtral_8x7b(), 5);
        GatingModel::new(&cfg).generate_trace(32, 64, 4, 9)
    }

    #[test]
    fn step_kinds_enumerate_correctly() {
        let steps: Vec<StepKind> = StepKind::all(4).collect();
        assert_eq!(steps.len(), 4);
        assert_eq!(steps[0], StepKind::Prefill);
        assert_eq!(steps[3], StepKind::Decode(2));
        assert_eq!(steps[0].index(), 0);
        assert_eq!(steps[3].index(), 3);
        assert_eq!(StepKind::Prefill.context(512), 512);
        assert_eq!(StepKind::Decode(0).context(512), 513);
    }

    #[test]
    fn step_compute_prices_a_batch_per_phase() {
        use crate::compress::SparseAttention;
        use klotski_model::hardware::HardwareSpec;

        let cost = CostModel::new(ModelSpec::mixtral_8x7b(), HardwareSpec::env1_rtx3090());
        let wl = Workload::paper_default(8);
        assert_eq!(StepKind::Prefill.new_tokens(wl.prompt_len), 512);
        assert_eq!(StepKind::Decode(3).new_tokens(wl.prompt_len), 1);
        let none = Compression::none();
        let prefill = StepCompute::new(&cost, &wl, StepKind::Prefill, &none);
        let decode = StepCompute::new(&cost, &wl, StepKind::Decode(3), &none);
        assert_eq!(prefill.gate, cost.gate_time(8 * 512));
        assert_eq!(decode.gate, cost.gate_time(8));
        assert_eq!(decode.dense_ffn, cost.dense_ffn_time(8));
        assert_eq!(prefill.attention, cost.attention_time(8, 512, 257));
        assert_eq!(decode.attention, cost.attention_time(8, 1, 516));
        // Sparse attention caps the attended context, not the step tokens.
        let sparse = Compression {
            sparse_attention: Some(SparseAttention {
                sinks: 4,
                window: 60,
            }),
            ..none
        };
        let capped = StepCompute::new(&cost, &wl, StepKind::Decode(3), &sparse);
        assert_eq!(capped.attention, cost.attention_time(8, 1, 64));
        assert_eq!(capped.gate, decode.gate);
    }

    #[test]
    fn prefill_tokens_are_apportioned_by_group() {
        let t = trace();
        let v = TraceView::new(&t);
        let all = v.expert_tokens(StepKind::Prefill, 0, 0, 32);
        let half = v.expert_tokens(StepKind::Prefill, 0, 0, 16);
        for e in 0..8 {
            assert_eq!(half[e], all[e] / 2);
        }
    }

    #[test]
    fn decode_tokens_sum_to_group_routing() {
        let t = trace();
        let v = TraceView::new(&t);
        let counts = v.expert_tokens(StepKind::Decode(1), 3, 8, 24);
        let total: u32 = counts.iter().sum();
        assert_eq!(total, 16 * 2);
    }

    #[test]
    fn first_requesting_batches_are_consistent_with_activation() {
        let t = trace();
        let v = TraceView::new(&t);
        let step = StepKind::Decode(0);
        let activated: Vec<u16> = (0..)
            .zip(v.expert_tokens(step, 2, 0, 32))
            .filter(|&(_, c)| c > 0)
            .map(|(e, _)| e)
            .collect();
        let mut first = Vec::new();
        v.first_requesting_batches_into(step, 2, 0, 32, 8, &mut first);
        for e in 0..t.n_experts() as u16 {
            let b = first[e as usize];
            if !activated.contains(&e) {
                assert_eq!(b, NO_BATCH);
                continue;
            }
            assert!(b < 4);
            for earlier in 0..=b {
                let from = earlier * 8;
                let counts = v.expert_tokens(step, 2, from, from + 8);
                assert_eq!(counts[e as usize] > 0, earlier == b);
            }
        }
    }

    #[test]
    fn prev_choices_have_group_width() {
        let t = trace();
        let v = TraceView::new(&t);
        let mut prev = Vec::new();
        v.prev_choices_into(0, 1, 4, 20, &mut prev);
        assert_eq!(prev.len(), 16);
    }
}
