//! Admission control: when to cut a batch group from the request queue.
//!
//! The offline engines assume a batch group of `n` batches already exists;
//! online, the admission controller *forms* those groups from a FIFO queue.
//! Three policies are compared:
//!
//! * [`AdmissionPolicy::FixedN`] — wait for exactly `n` full batches (the
//!   paper's offline shape, transplanted online). Maximal weight sharing,
//!   unbounded queueing delay at low load.
//! * [`AdmissionPolicy::Deadline`] — dispatch at `n` batches *or* when the
//!   oldest request has waited `deadline`, whichever comes first (partial
//!   groups trade pipeline depth for tail latency).
//! * [`AdmissionPolicy::CostAware`] — work-conserving: dispatch whatever is
//!   queued whenever the engine is free, but consult the
//!   [`CostModel`]-based service-time estimate to cap the group at the
//!   largest `n` whose estimated completion still fits the end-to-end
//!   latency budget.

use klotski_core::scenario::StepPlan;
use klotski_model::cost::CostModel;
use klotski_sim::time::SimDuration;

/// How batch groups are cut from the queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmissionPolicy {
    /// Wait until `n` full batches are queued (flushes at end of stream).
    FixedN {
        /// Batch-group size.
        n: u32,
    },
    /// Dispatch at `n` full batches, or as a partial group once the oldest
    /// queued request has waited `deadline`.
    Deadline {
        /// Maximal batch-group size.
        n: u32,
        /// Oldest-request wait that triggers a partial group.
        deadline: SimDuration,
    },
    /// Work-conserving, cost-model-informed: dispatch whenever the engine
    /// is free, sized to the largest `n ≤ max_n` whose estimated service
    /// time (plus the wait already incurred) fits `slo_e2e`.
    CostAware {
        /// Upper bound on the batch-group size explored.
        max_n: u32,
        /// Per-request end-to-end latency budget.
        slo_e2e: SimDuration,
    },
}

/// Why a group was dispatched (recorded per group; the proptests assert
/// trigger/shape consistency).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupTrigger {
    /// The policy's full `n` batches were available.
    Full,
    /// The deadline expired on the oldest queued request.
    DeadlineExpired,
    /// End of stream: remaining requests flushed.
    Flush,
    /// Cost-aware dispatch (engine free, group sized by the cost model).
    CostAware,
    /// Continuous-mode admission wave: requests joined freed slots of a
    /// running batch at a step boundary (see
    /// [`serve_continuous`](crate::continuous::serve_continuous)).
    Refill,
}

impl AdmissionPolicy {
    /// The policy's cap on batches per group.
    pub fn max_batches(&self) -> u32 {
        match *self {
            AdmissionPolicy::FixedN { n } | AdmissionPolicy::Deadline { n, .. } => n,
            AdmissionPolicy::CostAware { max_n, .. } => max_n,
        }
    }

    /// Short stable name for tables and JSON output.
    pub fn label(&self) -> &'static str {
        match self {
            AdmissionPolicy::FixedN { .. } => "fixed_n",
            AdmissionPolicy::Deadline { .. } => "deadline",
            AdmissionPolicy::CostAware { .. } => "cost_aware",
        }
    }

    /// How many requests to drain for the group being cut, and why.
    ///
    /// Groups are always a whole number of `batch_size` batches, except
    /// when fewer than `batch_size` requests are taken — those form one
    /// ragged batch (a [`Workload`](klotski_model::workload::Workload) with
    /// `batch_size = count`).
    ///
    /// `estimate` maps a candidate group size `n` to the estimated service
    /// time (used by the cost-aware policy only).
    pub(crate) fn take(
        &self,
        queued: usize,
        oldest_wait: SimDuration,
        eos: bool,
        batch_size: u32,
        estimate: &dyn Fn(u32) -> SimDuration,
    ) -> (usize, GroupTrigger) {
        debug_assert!(queued > 0);
        let bs = batch_size as usize;
        let cap_batches = match *self {
            AdmissionPolicy::CostAware { max_n, slo_e2e } => {
                if oldest_wait + estimate(1) > slo_e2e {
                    // The oldest request misses the SLO no matter how the
                    // group is sized; stop optimizing its latency and
                    // drain the backlog at maximal batching instead.
                    max_n
                } else {
                    // Largest n whose estimated completion still fits the
                    // budget for the oldest (worst-off) request.
                    let mut best = 1u32;
                    for n in 2..=max_n {
                        if oldest_wait + estimate(n) <= slo_e2e {
                            best = n;
                        } else {
                            break;
                        }
                    }
                    best
                }
            }
            _ => self.max_batches(),
        };
        let cap = (cap_batches as usize) * bs;
        let count = if queued < bs {
            queued.min(cap) // one ragged batch
        } else {
            (queued / bs * bs).min(cap)
        };
        let trigger = match *self {
            AdmissionPolicy::CostAware { .. } => GroupTrigger::CostAware,
            AdmissionPolicy::FixedN { n } | AdmissionPolicy::Deadline { n, .. } => {
                if count == (n * batch_size) as usize {
                    GroupTrigger::Full
                } else if matches!(self, AdmissionPolicy::Deadline { .. })
                    && !eos
                    && oldest_wait >= self.deadline().unwrap_or(SimDuration::ZERO)
                {
                    GroupTrigger::DeadlineExpired
                } else {
                    GroupTrigger::Flush
                }
            }
        };
        (count, trigger)
    }

    fn deadline(&self) -> Option<SimDuration> {
        match *self {
            AdmissionPolicy::Deadline { deadline, .. } => Some(deadline),
            _ => None,
        }
    }
}

/// Per-step analytic service estimate for one batch group — the cost-aware
/// policy's stage-1 "measurement", built from the same [`CostModel`] the
/// engines use. Per layer the pipeline runs compute and I/O concurrently,
/// so a layer costs the longer of the two; prefill activates essentially
/// every expert, decode the expected activated subset.
///
/// The plan has `gen_len − 1` uniform decode steps and no remainder, so
/// its [`total`](StepPlan::total) is exactly
/// `prefill + decode_step × (gen_len − 1)`: a group costs the same whether
/// it is scheduled atomically or step by step.
pub fn estimate_step_service(
    cost: &CostModel,
    batch_size: u32,
    n: u32,
    prompt_len: u32,
    gen_len: u32,
) -> StepPlan {
    let spec = cost.spec();
    let bs = batch_size as u64;
    let nb = n as u64;
    let n_moe = spec.n_moe_layers() as u64;
    let n_dense = spec.n_layers as u64 - n_moe;
    let ctx = prompt_len as u64 + gen_len as u64 / 2;

    let moe_layer = |new_tokens: u64, attn: SimDuration| -> SimDuration {
        let group_tokens = bs * nb * new_tokens;
        let selections = group_tokens * spec.top_k.max(1) as u64;
        let e_act = spec.expected_activated(group_tokens, None).ceil().max(1.0);
        let per_expert = (selections as f64 / e_act).ceil() as u64;
        let compute = attn * nb
            + cost.gate_time(bs * new_tokens) * nb
            + cost.expert_time(per_expert) * e_act as u64;
        let io = cost.gate_h2d_time()
            + SimDuration::from_secs_f64(cost.expert_h2d_time(1.0).as_secs_f64() * e_act)
            + cost.attn_h2d_time(1.0);
        compute.max(io)
    };
    let dense_layer = |new_tokens: u64, attn: SimDuration| -> SimDuration {
        let compute = (attn + cost.dense_ffn_time(bs * new_tokens)) * nb;
        compute.max(cost.attn_h2d_time(1.0))
    };

    let attn_prefill = cost.attention_prefill_time(bs, prompt_len as u64);
    let attn_decode = cost.attention_time(bs, 1, ctx);
    let prefill = moe_layer(prompt_len as u64, attn_prefill) * n_moe
        + dense_layer(prompt_len as u64, attn_prefill) * n_dense;
    let decode_step = moe_layer(1, attn_decode) * n_moe + dense_layer(1, attn_decode) * n_dense;
    StepPlan {
        prefill,
        decode_step,
        remainder: SimDuration::ZERO,
        steps: gen_len.saturating_sub(1),
        oom: false,
    }
}

/// Analytic service-time estimate for one whole batch group: the sum of
/// [`estimate_step_service`]'s prefill and `gen_len − 1` decode steps.
pub fn estimate_group_service(
    cost: &CostModel,
    batch_size: u32,
    n: u32,
    prompt_len: u32,
    gen_len: u32,
) -> SimDuration {
    estimate_step_service(cost, batch_size, n, prompt_len, gen_len).total()
}

#[cfg(test)]
mod tests {
    use super::*;
    use klotski_model::hardware::HardwareSpec;
    use klotski_model::spec::ModelSpec;

    fn cm() -> CostModel {
        CostModel::new(ModelSpec::mixtral_8x7b(), HardwareSpec::env1_rtx3090())
    }

    const NO_EST: &dyn Fn(u32) -> SimDuration = &|_| SimDuration::ZERO;

    #[test]
    fn fixed_n_waits_for_full_groups() {
        let p = AdmissionPolicy::FixedN { n: 3 };
        let (count, trig) = p.take(14, SimDuration::ZERO, false, 4, NO_EST);
        assert_eq!((count, trig), (12, GroupTrigger::Full));
        let (count, trig) = p.take(6, SimDuration::ZERO, true, 4, NO_EST);
        assert_eq!((count, trig), (4, GroupTrigger::Flush));
        let (count, trig) = p.take(2, SimDuration::ZERO, true, 4, NO_EST);
        assert_eq!((count, trig), (2, GroupTrigger::Flush));
    }

    #[test]
    fn deadline_triggers_partial_groups() {
        let p = AdmissionPolicy::Deadline {
            n: 4,
            deadline: SimDuration::from_secs(2),
        };
        let (count, trig) = p.take(6, SimDuration::from_secs(2), false, 4, NO_EST);
        assert_eq!((count, trig), (4, GroupTrigger::DeadlineExpired));
        // A ragged sub-batch group when fewer than one batch is queued.
        let (count, trig) = p.take(3, SimDuration::from_secs(2), false, 4, NO_EST);
        assert_eq!((count, trig), (3, GroupTrigger::DeadlineExpired));
    }

    #[test]
    fn cost_aware_caps_n_under_the_budget() {
        let p = AdmissionPolicy::CostAware {
            max_n: 8,
            slo_e2e: SimDuration::from_secs(10),
        };
        // Estimated service: 2 s per batch — only 5 batches fit 10 s.
        let est = |n: u32| SimDuration::from_secs(2) * n as u64;
        let (count, trig) = p.take(40, SimDuration::ZERO, false, 4, &est);
        assert_eq!((count, trig), (20, GroupTrigger::CostAware));
        // Wait already incurred shrinks the remaining budget.
        let (count, _) = p.take(40, SimDuration::from_secs(6), false, 4, &est);
        assert_eq!(count, 8);
        // Over budget entirely: the oldest request is lost to the SLO
        // either way, so the policy drains at maximal batching.
        let (count, _) = p.take(40, SimDuration::from_secs(100), false, 4, &est);
        assert_eq!(count, 32);
    }

    #[test]
    fn groups_are_whole_batches() {
        let p = AdmissionPolicy::CostAware {
            max_n: 8,
            slo_e2e: SimDuration::from_secs(1000),
        };
        let (count, _) = p.take(11, SimDuration::ZERO, false, 4, NO_EST);
        assert_eq!(count, 8, "rounded down to whole batches");
        let (count, _) = p.take(3, SimDuration::ZERO, false, 4, NO_EST);
        assert_eq!(count, 3, "sub-batch queue forms one ragged batch");
    }

    #[test]
    fn estimate_grows_with_n_and_work() {
        let cm = cm();
        let t1 = estimate_group_service(&cm, 8, 1, 128, 8);
        let t4 = estimate_group_service(&cm, 8, 4, 128, 8);
        let t8 = estimate_group_service(&cm, 8, 8, 128, 8);
        assert!(t1 < t4 && t4 < t8, "{t1} {t4} {t8}");
        let long = estimate_group_service(&cm, 8, 4, 128, 32);
        assert!(long > t4);
    }

    #[test]
    fn summed_step_estimates_match_the_group_estimate() {
        let cm = cm();
        for &(bs, n, p, g) in &[(1, 1, 8, 1), (4, 2, 128, 8), (8, 4, 512, 32), (3, 1, 77, 5)] {
            let step = estimate_step_service(&cm, bs, n, p, g);
            let summed = step.prefill + step.decode_step * u64::from(g - 1);
            assert_eq!(
                summed,
                estimate_group_service(&cm, bs, n, p, g),
                "shape ({bs},{n},{p},{g})"
            );
            assert_eq!(step.total(), summed);
        }
    }

    #[test]
    fn prefill_chunks_sum_to_the_whole_prefill() {
        let cm = cm();
        let step = estimate_step_service(&cm, 4, 2, 509, 8);
        // 509 is prime: no chunk size divides it, so every chunking
        // exercises the remainder path.
        for chunk in [1, 7, 64, 509, 1000] {
            let mut done = 0;
            let mut sum = SimDuration::ZERO;
            while done < 509 {
                let take = chunk.min(509 - done);
                sum += step.prefill_chunk(done, take, 509);
                done += take;
            }
            assert_eq!(sum, step.prefill, "chunk size {chunk}");
        }
        // Chunks are monotone slices: a later window never costs more than
        // the whole.
        assert!(step.prefill_chunk(100, 50, 509) <= step.prefill);
        assert_eq!(step.prefill_chunk(509, 10, 509), SimDuration::ZERO);
    }

    #[test]
    fn estimate_is_in_a_sane_range() {
        // One group at paper-ish scale must land between "instant" and
        // "minutes" for the budget comparison to be meaningful.
        let cm = cm();
        let t = estimate_group_service(&cm, 16, 8, 512, 32);
        let secs = t.as_secs_f64();
        assert!((1.0..600.0).contains(&secs), "estimate = {secs} s");
    }
}
