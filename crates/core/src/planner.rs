//! The constraint-sensitive I/O-compute planner (§7 of the paper).
//!
//! Planning goal: the smallest batch-group size `n` such that every key
//! point of the pipeline (Fig. 9) has its transfer finished before its
//! computation wants to start — inequalities (4)–(7) of the paper:
//!
//! ```text
//! (4) n·t_cA                       ≥ t_ioG
//! (5) n·(t_cA + t_cG)              ≥ t_ioG + K·t_ioE
//! (6) n·(t_cA + t_cG) + t_c_hotE   ≥ t_ioG + (K+1)·t_ioE
//! (7) n·(t_cA + t_cG) + t_c_hotE + Σ_Q t_cEi
//!                                  ≥ t_ioG + (K+len(Q))·t_ioE + t_ioA
//! ```
//!
//! Stage 1 ("measurement of current hardware capability") is the calibrated
//! [`CostModel`]; stage 2 evaluates the inequalities for increasing `n`
//! (the compute terms grow with `n`, the I/O terms don't) and returns the
//! first satisfying value, then applies the memory constraints of Eq. (3):
//! a too-large `n` floods DRAM with KV cache, in which case `n` is capped
//! and the plan marked, mirroring the paper's manual `n = 10` for
//! Mixtral-8×22B in Environment 1.

use klotski_model::cost::CostModel;
use klotski_model::trace::GatingModel;
use klotski_model::workload::Workload;
use klotski_sim::time::SimDuration;

use crate::compress::Compression;

/// Stage-1 profile: the per-op times the inequalities are built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Profile {
    /// Attention compute per batch (decode, steady state).
    pub t_c_attn: SimDuration,
    /// Gate compute per batch.
    pub t_c_gate: SimDuration,
    /// Gate weight transfer.
    pub t_io_gate: SimDuration,
    /// One expert's weight transfer (compressed bytes).
    pub t_io_expert: SimDuration,
    /// One layer's attention-weight transfer (compressed bytes).
    pub t_io_attn: SimDuration,
}

impl Profile {
    /// Measures the profile for `batch_size` under `compression`.
    pub fn measure(cost: &CostModel, batch_size: u32, compression: &Compression) -> Self {
        let spec = cost.spec();
        let ctx = 512 + 16; // representative decode context for the paper shape
        let wf = compression.weight_factor(spec.dtype);
        Profile {
            t_c_attn: cost.attention_time(batch_size as u64, 1, compression.effective_context(ctx)),
            t_c_gate: cost.gate_time(batch_size as u64),
            t_io_gate: cost.gate_h2d_time(),
            t_io_expert: cost.expert_h2d_time(wf),
            t_io_attn: cost.attn_h2d_time(wf),
        }
    }
}

/// The planner's output.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelinePlan {
    /// The batch-group size to use.
    pub n: u32,
    /// The minimal `n` that satisfies inequalities (4)–(7) (uncapped).
    pub required_n: u32,
    /// Whether the chosen `n` satisfies all inequalities.
    pub satisfied: bool,
    /// Whether memory constraints forced `n` below `required_n`.
    pub memory_capped: bool,
    /// Estimated total KV-cache bytes at the chosen `n`.
    pub est_kv_bytes: u64,
    /// The stage-1 profile used.
    pub profile: Profile,
}

/// The constraint-sensitive planner.
#[derive(Debug, Clone)]
pub struct Planner {
    cost: CostModel,
    compression: Compression,
    /// Upper bound on `n` explored (the paper explores up to 15).
    pub max_n: u32,
}

impl Planner {
    /// Creates a planner for one (model, hardware, compression) setting.
    pub fn new(cost: CostModel, compression: Compression) -> Self {
        Planner {
            cost,
            compression,
            max_n: 64,
        }
    }

    /// Evaluates inequalities (4)–(7) at group size `n`, returning every
    /// slack (LHS − RHS, in seconds; negative ⇒ violated) in paper order.
    pub fn slacks(&self, n: u32, batch_size: u32, gating: Option<&GatingModel>) -> [f64; 4] {
        self.slacks_impl(n, batch_size, gating)
    }

    /// Evaluates inequalities (4)–(7) at group size `n`.
    ///
    /// Returns the most-violated slack (negative ⇒ violated) in seconds.
    pub fn worst_slack(&self, n: u32, batch_size: u32, gating: Option<&GatingModel>) -> f64 {
        self.slacks_impl(n, batch_size, gating)
            .into_iter()
            .fold(f64::INFINITY, f64::min)
    }

    fn slacks_impl(&self, n: u32, batch_size: u32, gating: Option<&GatingModel>) -> [f64; 4] {
        let spec = self.cost.spec();
        let p = Profile::measure(&self.cost, batch_size, &self.compression);
        let k = spec.top_k.max(1) as f64;
        let tokens = n as u64 * batch_size as u64;

        // Average per-layer popularity for hot/cold token split.
        let (hot_share, avg_pop) = match gating {
            Some(g) => {
                let layers = g.n_moe_layers().max(1);
                let mut share = 0.0;
                let mut pop = vec![0.0f64; spec.n_experts as usize];
                for l in 0..layers {
                    let pl = g.popularity(l);
                    let hot = g.hot_experts(l, spec.top_k);
                    share += hot.iter().map(|&e| pl[e as usize]).sum::<f64>();
                    for (a, &b) in pop.iter_mut().zip(pl) {
                        *a += b / layers as f64;
                    }
                }
                (share / layers as f64, Some(pop))
            }
            None => (k / spec.n_experts.max(1) as f64, None),
        };

        let activated = spec.expected_activated(tokens, avg_pop.as_deref());
        let len_q = (activated - k).max(0.0);

        // Token split: hot experts take `hot_share` of the routed tokens.
        let routed = tokens as f64 * k;
        let hot_tokens_each = (routed * hot_share / k).round() as u64;
        let cold_tokens_each = if len_q > 0.0 {
            (routed * (1.0 - hot_share) / len_q).round() as u64
        } else {
            0
        };
        let t_c_hot = self.cost.expert_time(hot_tokens_each).as_secs_f64() * k;
        let t_c_cold_total = self.cost.expert_time(cold_tokens_each).as_secs_f64() * len_q;

        let nf = n as f64;
        let t_ca = p.t_c_attn.as_secs_f64();
        let t_cg = p.t_c_gate.as_secs_f64();
        let t_iog = p.t_io_gate.as_secs_f64();
        let t_ioe = p.t_io_expert.as_secs_f64();
        let t_ioa = p.t_io_attn.as_secs_f64();

        let slack4 = nf * t_ca - t_iog;
        let slack5 = nf * (t_ca + t_cg) - (t_iog + k * t_ioe);
        let slack6 = nf * (t_ca + t_cg) + t_c_hot - (t_iog + (k + 1.0) * t_ioe);
        let slack7 =
            nf * (t_ca + t_cg) + t_c_hot + t_c_cold_total - (t_iog + (k + len_q) * t_ioe + t_ioa);
        [slack4, slack5, slack6, slack7]
    }

    /// Solves for the pipeline plan under the memory constraints of `wl`
    /// (DRAM must hold weights + the KV cache of `n × batch_size`
    /// sequences).
    pub fn plan(&self, wl: &Workload, gating: Option<&GatingModel>) -> PipelinePlan {
        let spec = self.cost.spec();
        let hw = self.cost.hardware();
        let profile = Profile::measure(&self.cost, wl.batch_size, &self.compression);

        if !spec.is_moe() {
            // Dense models: only the attention/FFN overlap matters; use
            // inequality (7) degenerated to whole-layer prefetch.
            let t_layer_io = profile.t_io_attn.as_secs_f64() + profile.t_io_expert.as_secs_f64();
            let t_compute = profile.t_c_attn.as_secs_f64();
            let required = (t_layer_io / t_compute.max(1e-9)).ceil().max(1.0) as u32;
            let n = required.min(self.max_n);
            return PipelinePlan {
                n,
                required_n: required,
                satisfied: n >= required,
                memory_capped: false,
                est_kv_bytes: spec
                    .kv_bytes_total(n as u64 * wl.batch_size as u64, wl.max_context()),
                profile,
            };
        }

        let required_n = (1..=self.max_n)
            .find(|&n| self.worst_slack(n, wl.batch_size, gating) >= 0.0)
            .unwrap_or(self.max_n);

        // Memory constraint (Eq. 3): experts may spill to disk, but the KV
        // cache and the non-expert weights must fit DRAM (with headroom for
        // pinned buffers and the disk staging window).
        let kv_factor = self.compression.kv_factor(wl.max_context());
        let dram_budget = hw.dram_budget();
        let non_expert = spec.non_expert_layer_bytes()
            + spec.embed_bytes()
            + 8 * spec.n_experts.max(1) as u64 * spec.expert_bytes();
        let kv_per_group_seq =
            (spec.kv_bytes_total(wl.batch_size as u64, wl.max_context()) as f64 * kv_factor) as u64;
        let mut n_mem = required_n;
        while n_mem > 1 {
            let kv = kv_per_group_seq * n_mem as u64;
            if non_expert.saturating_add(kv) <= dram_budget {
                break;
            }
            n_mem -= 1;
        }

        let n = required_n.min(n_mem).max(1);
        PipelinePlan {
            n,
            required_n,
            satisfied: self.worst_slack(n, wl.batch_size, gating) >= 0.0,
            memory_capped: n < required_n,
            est_kv_bytes: (spec.kv_bytes_total(n as u64 * wl.batch_size as u64, wl.max_context())
                as f64
                * kv_factor) as u64,
            profile,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use klotski_model::hardware::HardwareSpec;
    use klotski_model::spec::ModelSpec;
    use klotski_model::trace::TraceConfig;

    fn planner(compression: Compression) -> Planner {
        Planner::new(
            CostModel::new(ModelSpec::mixtral_8x7b(), HardwareSpec::env1_rtx3090()),
            compression,
        )
    }

    fn gating() -> GatingModel {
        GatingModel::new(&TraceConfig::for_model(&ModelSpec::mixtral_8x7b(), 1))
    }

    #[test]
    fn slack_grows_with_n() {
        let p = planner(Compression::none());
        let g = gating();
        let s3 = p.worst_slack(3, 16, Some(&g));
        let s8 = p.worst_slack(8, 16, Some(&g));
        let s15 = p.worst_slack(15, 16, Some(&g));
        assert!(s3 < s8 && s8 < s15, "{s3} {s8} {s15}");
    }

    #[test]
    fn slacks_expose_the_binding_inequality() {
        // Inequality (4) (gate transfer vs attention) is trivially
        // satisfiable; (7) (full expert queue + next attention) binds.
        let p = planner(Compression::none());
        let g = gating();
        let s = p.slacks(8, 16, Some(&g));
        assert!(s[0] > 0.0, "(4) should hold at n=8: {s:?}");
        assert!(s[3] <= s[0], "(7) is the hardest constraint: {s:?}");
        assert_eq!(
            p.worst_slack(8, 16, Some(&g)),
            s.into_iter().fold(f64::INFINITY, f64::min)
        );
    }

    #[test]
    fn plan_finds_a_minimal_n() {
        let p = planner(Compression::none());
        let g = gating();
        let wl = Workload::paper_default(16);
        let plan = p.plan(&wl, Some(&g));
        assert!(plan.n >= 1);
        assert!(plan.satisfied || plan.memory_capped);
        if plan.n > 1 && !plan.memory_capped {
            // Minimality: n−1 must violate some inequality.
            assert!(
                p.worst_slack(plan.n - 1, 16, Some(&g)) < 0.0,
                "n−1 should not satisfy the inequalities"
            );
        }
    }

    #[test]
    fn bigger_batches_need_smaller_n() {
        // More tokens per batch ⇒ more compute per batch ⇒ fewer batches
        // needed to cover the same I/O.
        let p = planner(Compression::none());
        let g = gating();
        let n_small = p.plan(&Workload::paper_default(4), Some(&g)).required_n;
        let n_big = p.plan(&Workload::paper_default(64), Some(&g)).required_n;
        assert!(n_big <= n_small, "bs4 → n={n_small}, bs64 → n={n_big}");
    }

    #[test]
    fn quantization_reduces_required_n() {
        // §9.3: smaller transfers ⇒ full overlap at smaller n.
        let g = gating();
        let wl = Workload::paper_default(8);
        let full = planner(Compression::none()).plan(&wl, Some(&g)).required_n;
        let quant = planner(Compression::quantized())
            .plan(&wl, Some(&g))
            .required_n;
        assert!(quant < full, "full → n={full}, quantized → n={quant}");
    }

    #[test]
    fn slower_links_need_larger_n() {
        let g = gating();
        let wl = Workload::paper_default(16);
        let fast = Planner::new(
            CostModel::new(ModelSpec::mixtral_8x7b(), HardwareSpec::env1_rtx3090()),
            Compression::none(),
        )
        .plan(&wl, Some(&g))
        .required_n;
        let slow = Planner::new(
            CostModel::new(
                ModelSpec::mixtral_8x7b(),
                HardwareSpec::env1_rtx3090().with_link_scale(0.5),
            ),
            Compression::none(),
        )
        .plan(&wl, Some(&g))
        .required_n;
        assert!(slow >= fast, "fast n={fast}, slow n={slow}");
    }

    #[test]
    fn memory_cap_engages_for_8x22b_on_env1() {
        // The paper had to cap n at 10 for Mixtral-8×22B in Environment 1
        // because the planner's n would OOM.
        let p = Planner::new(
            CostModel::new(ModelSpec::mixtral_8x22b(), HardwareSpec::env1_rtx3090()),
            Compression::none(),
        );
        let cfg = TraceConfig::for_model(&ModelSpec::mixtral_8x22b(), 1);
        let g = GatingModel::new(&cfg);
        let plan = p.plan(&Workload::paper_default(64), Some(&g));
        assert!(
            plan.memory_capped || plan.n <= plan.required_n,
            "8×22B on 24 GB should be memory-aware: {plan:?}"
        );
    }

    #[test]
    fn expected_activated_saturates() {
        let spec = ModelSpec::mixtral_8x7b();
        let few = spec.expected_activated(1, None);
        let many = spec.expected_activated(10_000, None);
        assert!(few < many);
        assert!(many <= 8.0 + 1e-9);
        assert!((many - 8.0).abs() < 1e-3, "all experts activate eventually");
    }

    #[test]
    fn dense_models_plan_without_gating() {
        let p = Planner::new(
            CostModel::new(ModelSpec::opt_6_7b(), HardwareSpec::env1_rtx3090()),
            Compression::none(),
        );
        let plan = p.plan(&Workload::paper_default(4), None);
        assert!(plan.n >= 1);
    }
}
