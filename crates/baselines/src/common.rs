//! Shared accounting for the baseline engines.

use klotski_model::hardware::HardwareSpec;
use klotski_model::spec::ModelSpec;
use klotski_model::workload::Workload;

/// VRAM accounting for engines that offload **only experts** and keep
/// attention weights + KV cache resident on the GPU (MoE-Infinity and
/// Fiddler, §9.2 of the paper: "Fiddler and MoE-Infinity only support the
/// offloading of experts. Consequently, the extensive KV cache may result
/// in OOM errors when the batch is large").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResidentFootprint {
    /// All layers' attention (+norm, + dense FFN for non-MoE blocks) weights.
    pub attn_weights: u64,
    /// Embedding + LM head.
    pub embed: u64,
    /// KV cache of one batch at maximum context, all layers.
    pub kv: u64,
    /// Peak activation workspace (prefill: hidden states + eager attention
    /// score matrices).
    pub activations: u64,
    /// Expert buffer reserve: one full layer of experts, so a whole
    /// activated set can be served at once.
    pub expert_reserve: u64,
    /// Fixed runtime overhead (CUDA context, allocator slack).
    pub runtime: u64,
}

impl ResidentFootprint {
    /// Computes the footprint for a single batch of `wl.batch_size`.
    pub fn for_single_batch(spec: &ModelSpec, wl: &Workload) -> Self {
        let bs = wl.batch_size as u64;
        let prompt = wl.prompt_len as u64;
        let hidden = spec.hidden_bytes(bs * prompt);
        let scores = bs * spec.n_heads * prompt * prompt * 2;
        ResidentFootprint {
            attn_weights: spec.non_expert_layer_bytes(),
            embed: spec.embed_bytes(),
            kv: spec.kv_bytes_total(bs, wl.max_context()),
            activations: 8 * hidden + 3 * scores,
            expert_reserve: spec.n_experts.max(1) as u64 * spec.expert_bytes(),
            runtime: 800_000_000,
        }
    }

    /// Total resident bytes.
    pub fn total(&self) -> u64 {
        self.attn_weights
            + self.embed
            + self.kv
            + self.activations
            + self.expert_reserve
            + self.runtime
    }

    /// Spare VRAM left for an expert cache, if the footprint fits.
    pub fn spare(&self, vram: u64) -> Option<u64> {
        vram.checked_sub(self.total())
    }

    /// The OOM message for a `vram` the footprint does not fit (see
    /// [`spare`](ResidentFootprint::spare)).
    pub fn oom_message(&self, vram: u64) -> String {
        format!(
            "resident footprint {:.1} GB (weights {:.1} + KV {:.1} + activations {:.1} \
             + expert buffers {:.1}) exceeds VRAM {:.1} GB",
            self.total() as f64 / 1e9,
            (self.attn_weights + self.embed) as f64 / 1e9,
            self.kv as f64 / 1e9,
            self.activations as f64 / 1e9,
            self.expert_reserve as f64 / 1e9,
            vram as f64 / 1e9,
        )
    }
}

/// First block whose experts no longer fit in DRAM (everything from this
/// layer up lives on disk). Engines without tiered placement (MoE-Infinity,
/// Fiddler) pay the disk-read path for those experts — this is what makes
/// their Mixtral-8×22B Environment-1 numbers collapse in the paper.
pub fn dram_expert_cutoff(spec: &ModelSpec, hw: &HardwareSpec) -> u32 {
    let non_expert = spec.non_expert_layer_bytes() + spec.embed_bytes();
    let mut left = hw.dram_budget().saturating_sub(non_expert);
    for l in 0..spec.n_layers {
        let bytes = if spec.is_moe_layer(l) {
            spec.n_experts as u64 * spec.expert_bytes()
        } else {
            0
        };
        if bytes > left {
            return l;
        }
        left -= bytes;
    }
    spec.n_layers
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footprint_scales_with_batch_size() {
        let spec = ModelSpec::mixtral_8x22b();
        let small = ResidentFootprint::for_single_batch(&spec, &Workload::paper_default(16));
        let large = ResidentFootprint::for_single_batch(&spec, &Workload::paper_default(64));
        assert!(large.kv > small.kv * 3);
        assert!(large.activations > small.activations);
        assert_eq!(large.attn_weights, small.attn_weights);
    }

    #[test]
    fn mixtral_8x22b_env1_ooms_at_batch_32_but_not_16() {
        // Paper §9.2: Fiddler / MoE-Infinity are limited to batch ≤ 16 for
        // Mixtral-8×22B on the 24 GB 3090.
        let spec = ModelSpec::mixtral_8x22b();
        let vram = 24_000_000_000;
        let ok = ResidentFootprint::for_single_batch(&spec, &Workload::paper_default(16));
        assert!(ok.spare(vram).is_some(), "{}", ok.oom_message(vram));
        let bad = ResidentFootprint::for_single_batch(&spec, &Workload::paper_default(32));
        assert!(bad.spare(vram).is_none(), "{bad:?}");
    }

    #[test]
    fn mixtral_8x7b_env1_runs_through_batch_64() {
        // The paper evaluates these systems on 8×7B up to batch 64.
        let spec = ModelSpec::mixtral_8x7b();
        let f = ResidentFootprint::for_single_batch(&spec, &Workload::paper_default(64));
        assert!(f.spare(24_000_000_000).is_some(), "{f:?}");
    }

    #[test]
    fn dram_cutoff_reflects_capacity() {
        let spec = ModelSpec::mixtral_8x7b();
        let dram = |dram_bytes| HardwareSpec {
            dram_bytes,
            ..HardwareSpec::env1_rtx3090()
        };
        // 93 GB model in 256 GB DRAM: everything fits.
        assert_eq!(dram_expert_cutoff(&spec, &dram(256_000_000_000)), 32);
        let big = ModelSpec::mixtral_8x22b();
        // 282 GB model in 256 GB DRAM: tail layers spill.
        let cutoff = dram_expert_cutoff(&big, &dram(256_000_000_000));
        assert!(cutoff < 56, "cutoff = {cutoff}");
        assert!(cutoff > 30, "cutoff = {cutoff}");
        // Env 2's 800 GB holds everything.
        assert_eq!(dram_expert_cutoff(&big, &dram(800_000_000_000)), 56);
    }
}
