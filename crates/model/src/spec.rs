//! Model architecture specifications.
//!
//! A [`ModelSpec`] describes everything the scheduling layer needs to know
//! about a transformer: per-tensor byte sizes, FLOP counts per token, and
//! the MoE structure (number of experts, top-k, which layers are sparse).
//! Presets cover every model in the paper's evaluation: Mixtral-8×7B and
//! 8×22B (Fig. 10–15), Switch Transformers base-8/16/128 (Table 1, Fig. 5)
//! and the dense OPT-1.3B/6.7B comparison points (Table 1).

use std::fmt;

/// Parameter data type, determining bytes per weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dtype {
    /// 32-bit float.
    F32,
    /// bfloat16 (the paper's default for all models).
    Bf16,
    /// float16.
    F16,
}

impl Dtype {
    /// Bytes per parameter.
    pub fn bytes(self) -> f64 {
        match self {
            Dtype::F32 => 4.0,
            Dtype::Bf16 | Dtype::F16 => 2.0,
        }
    }
}

impl fmt::Display for Dtype {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dtype::F32 => f.write_str("f32"),
            Dtype::Bf16 => f.write_str("bf16"),
            Dtype::F16 => f.write_str("f16"),
        }
    }
}

/// Feed-forward flavour: how many weight matrices one expert (or the dense
/// FFN) holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FfnKind {
    /// Gated SiLU FFN with three matrices (`w1`, `w2`, `w3`), as in Mixtral.
    SwiGlu,
    /// Classic two-matrix ReLU FFN, as in Switch Transformers / OPT.
    Relu,
}

impl FfnKind {
    /// Number of `d_model × d_ff` weight matrices.
    pub fn matrices(self) -> u64 {
        match self {
            FfnKind::SwiGlu => 3,
            FfnKind::Relu => 2,
        }
    }
}

/// Bits per quantized weight (the paper's preset).
const QUANT_BITS: u32 = 4;
/// Weights per scale group.
const QUANT_GROUP_SIZE: u32 = 64;
/// Weights per zero-point group.
const QUANT_ZERO_GROUP_SIZE: u32 = 128;

/// The group-wise affine quantization format (HQQ-style) the cost model
/// prices, used to shrink transfer bytes (§7 "Compression" of the paper):
/// 4 bits per weight, a scale per 64 weights and a zero point per 128. It
/// is the only format and has no settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QuantScheme;

impl QuantScheme {
    /// The paper's format, the only one.
    pub fn paper_default() -> Self {
        QuantScheme
    }

    /// Bytes per parameter including per-group scale/zero overhead
    /// (scales and zeros stored as 16-bit).
    pub fn bytes_per_param(&self) -> f64 {
        QUANT_BITS as f64 / 8.0 + 2.0 / QUANT_GROUP_SIZE as f64 + 2.0 / QUANT_ZERO_GROUP_SIZE as f64
    }

    /// Size ratio versus an unquantized dtype.
    pub fn factor_vs(&self, dtype: Dtype) -> f64 {
        self.bytes_per_param() / dtype.bytes()
    }
}

/// Architecture description of one model.
///
/// Dense models are expressed as `n_experts == 0`; MoE layers occur every
/// [`moe_every`](ModelSpec::moe_every) blocks (1 for Mixtral, 2 for Switch
/// Transformers), with dense FFNs in between.
///
/// # Examples
///
/// ```
/// use klotski_model::spec::ModelSpec;
///
/// let m = ModelSpec::mixtral_8x7b();
/// // 46.7B parameters, within 2%.
/// let b = m.total_params() as f64;
/// assert!((b - 46.7e9).abs() / 46.7e9 < 0.02, "{b}");
/// // One expert is ~352 MB in bf16 — the 21ms PCIe 4.0 transfer anchor.
/// assert!((m.expert_bytes() as f64 - 352.3e6).abs() < 2e6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    /// Human-readable name.
    pub name: String,
    /// Number of transformer blocks.
    pub n_layers: u32,
    /// Hidden dimension.
    pub d_model: u64,
    /// FFN inner dimension (per expert for MoE layers).
    pub d_ff: u64,
    /// Attention query heads.
    pub n_heads: u64,
    /// Key/value heads (GQA); equals `n_heads` without GQA.
    pub n_kv_heads: u64,
    /// Per-head dimension.
    pub head_dim: u64,
    /// Experts per MoE layer; `0` means a dense model.
    pub n_experts: u32,
    /// Experts activated per token by the gate.
    pub top_k: u32,
    /// An MoE layer every `moe_every` blocks (1 ⇒ all blocks are MoE).
    pub moe_every: u32,
    /// Vocabulary size.
    pub vocab: u64,
    /// Weight data type.
    pub dtype: Dtype,
    /// FFN flavour.
    pub ffn: FfnKind,
}

impl ModelSpec {
    // ---- Presets -------------------------------------------------------

    /// Mixtral-8×7B: 32 layers, 8 experts, top-2, 46.7B parameters.
    pub fn mixtral_8x7b() -> Self {
        ModelSpec {
            name: "Mixtral-8x7B".to_owned(),
            n_layers: 32,
            d_model: 4096,
            d_ff: 14336,
            n_heads: 32,
            n_kv_heads: 8,
            head_dim: 128,
            n_experts: 8,
            top_k: 2,
            moe_every: 1,
            vocab: 32000,
            dtype: Dtype::Bf16,
            ffn: FfnKind::SwiGlu,
        }
    }

    /// Mixtral-8×22B: 56 layers, 8 experts, top-2, 141B parameters.
    pub fn mixtral_8x22b() -> Self {
        ModelSpec {
            name: "Mixtral-8x22B".to_owned(),
            n_layers: 56,
            d_model: 6144,
            d_ff: 16384,
            n_heads: 48,
            n_kv_heads: 8,
            head_dim: 128,
            n_experts: 8,
            top_k: 2,
            moe_every: 1,
            vocab: 32768,
            dtype: Dtype::Bf16,
            ffn: FfnKind::SwiGlu,
        }
    }

    /// Switch Transformers base with `n_experts` experts: 24 blocks
    /// (encoder + decoder stacks flattened for scheduling purposes), MoE
    /// every second block, top-1 routing. Matches the paper's quoted sizes
    /// ("about 2.2 GB" for base-16, "about 14 GB" for base-128); the
    /// decoder-only Fig. 5 heatmaps use the last 6 MoE layers.
    pub fn switch_base(n_experts: u32) -> Self {
        ModelSpec {
            name: format!("switch-base-{n_experts}"),
            n_layers: 24,
            d_model: 768,
            d_ff: 3072,
            n_heads: 12,
            n_kv_heads: 12,
            head_dim: 64,
            n_experts,
            top_k: 1,
            moe_every: 2,
            vocab: 32128,
            dtype: Dtype::Bf16,
            ffn: FfnKind::Relu,
        }
    }

    /// OPT-1.3B (dense): Table 1's small dense comparison point.
    pub fn opt_1_3b() -> Self {
        ModelSpec {
            name: "OPT-1.3B".to_owned(),
            n_layers: 24,
            d_model: 2048,
            d_ff: 8192,
            n_heads: 32,
            n_kv_heads: 32,
            head_dim: 64,
            n_experts: 0,
            top_k: 0,
            moe_every: 1,
            vocab: 50272,
            dtype: Dtype::Bf16,
            ffn: FfnKind::Relu,
        }
    }

    /// OPT-6.7B (dense): Table 1's large dense comparison point.
    pub fn opt_6_7b() -> Self {
        ModelSpec {
            name: "OPT-6.7B".to_owned(),
            n_layers: 32,
            d_model: 4096,
            d_ff: 16384,
            n_heads: 32,
            n_kv_heads: 32,
            head_dim: 128,
            n_experts: 0,
            top_k: 0,
            moe_every: 1,
            vocab: 50272,
            dtype: Dtype::Bf16,
            ffn: FfnKind::Relu,
        }
    }

    // ---- Structure queries ---------------------------------------------

    /// Whether this model has any MoE layers.
    pub fn is_moe(&self) -> bool {
        self.n_experts > 0
    }

    /// Whether block `layer` contains an MoE layer (vs. a dense FFN).
    pub fn is_moe_layer(&self, layer: u32) -> bool {
        self.is_moe() && layer % self.moe_every == self.moe_every - 1
    }

    /// Number of MoE blocks.
    pub fn n_moe_layers(&self) -> u32 {
        (0..self.n_layers).filter(|&l| self.is_moe_layer(l)).count() as u32
    }

    /// Index of block `layer` among the MoE blocks, if it is one
    /// (gating traces are indexed by MoE layer, not by block).
    pub fn moe_index(&self, layer: u32) -> Option<u32> {
        if !self.is_moe_layer(layer) {
            return None;
        }
        Some((0..layer).filter(|&l| self.is_moe_layer(l)).count() as u32)
    }

    /// Expected number of distinct activated experts per layer when
    /// `tokens` tokens each select `top_k` experts under `popularity` (or
    /// uniformly, when no gating statistics are available). Allocates
    /// nothing.
    pub fn expected_activated(&self, tokens: u64, popularity: Option<&[f64]>) -> f64 {
        let e = self.n_experts as usize;
        if e == 0 {
            return 0.0;
        }
        let picks = tokens.saturating_mul(self.top_k as u64) as f64;
        let activated = |p: f64| 1.0 - (1.0 - p).powf(picks);
        let sum: f64 = match popularity {
            Some(pop) => pop.iter().map(|&p| activated(p)).sum(),
            None => std::iter::repeat_n(1.0 / e as f64, e).map(activated).sum(),
        };
        sum.min(e as f64)
    }

    // ---- Sizes (bytes) --------------------------------------------------

    /// Attention projection parameters (Q, K, V, O) per layer.
    pub fn attn_params(&self) -> u64 {
        let q = self.d_model * self.n_heads * self.head_dim;
        let o = self.n_heads * self.head_dim * self.d_model;
        let kv = 2 * self.d_model * self.n_kv_heads * self.head_dim;
        q + o + kv
    }

    /// Attention weight bytes per layer (projections + the block's norms).
    pub fn attn_bytes(&self) -> u64 {
        let norms = 2 * self.d_model; // two RMS/LayerNorm weight vectors
        ((self.attn_params() + norms) as f64 * self.dtype.bytes()) as u64
    }

    /// Parameters of one expert (or of the dense FFN when `n_experts == 0`).
    pub fn expert_params(&self) -> u64 {
        self.ffn.matrices() * self.d_model * self.d_ff
    }

    /// Bytes of one expert's weights.
    pub fn expert_bytes(&self) -> u64 {
        (self.expert_params() as f64 * self.dtype.bytes()) as u64
    }

    /// Bytes of the dense FFN (same shape as one expert).
    pub fn dense_ffn_bytes(&self) -> u64 {
        self.expert_bytes()
    }

    /// Gate (router) weight bytes per MoE layer.
    pub fn gate_bytes(&self) -> u64 {
        ((self.d_model * self.n_experts as u64) as f64 * self.dtype.bytes()) as u64
    }

    /// All weight bytes of block `layer` (attention + FFN/MoE + gate).
    pub fn layer_bytes(&self, layer: u32) -> u64 {
        if self.is_moe_layer(layer) {
            self.attn_bytes() + self.gate_bytes() + self.n_experts as u64 * self.expert_bytes()
        } else {
            self.attn_bytes() + self.dense_ffn_bytes()
        }
    }

    /// Bytes of block `layer`'s offloadable FFN weights: every expert of a
    /// MoE block, or the FFN of a dense one.
    pub fn expert_layer_bytes(&self, layer: u32) -> u64 {
        if self.is_moe_layer(layer) {
            self.n_experts as u64 * self.expert_bytes()
        } else {
            self.dense_ffn_bytes()
        }
    }

    /// Weight bytes of all blocks except their experts: each block's
    /// attention, plus the gate of a MoE block or the FFN of a dense one.
    /// Embeddings are not included.
    pub fn non_expert_layer_bytes(&self) -> u64 {
        (0..self.n_layers)
            .map(|l| {
                let ffn_or_gate = if self.is_moe_layer(l) {
                    self.gate_bytes()
                } else {
                    self.dense_ffn_bytes()
                };
                self.attn_bytes() + ffn_or_gate
            })
            .sum()
    }

    /// Embedding + LM-head bytes.
    pub fn embed_bytes(&self) -> u64 {
        ((2 * self.vocab * self.d_model) as f64 * self.dtype.bytes()) as u64
    }

    /// Total parameter count.
    pub fn total_params(&self) -> u64 {
        let mut p = 2 * self.vocab * self.d_model;
        for l in 0..self.n_layers {
            p += self.attn_params() + 2 * self.d_model;
            if self.is_moe_layer(l) {
                p += self.d_model * self.n_experts as u64;
                p += self.n_experts as u64 * self.expert_params();
            } else {
                p += self.expert_params();
            }
        }
        p
    }

    /// Total model bytes.
    pub fn total_bytes(&self) -> u64 {
        (self.total_params() as f64 * self.dtype.bytes()) as u64
    }

    /// KV-cache bytes per token per layer (keys + values).
    pub fn kv_bytes_per_token_layer(&self) -> u64 {
        ((2 * self.n_kv_heads * self.head_dim) as f64 * self.dtype.bytes()) as u64
    }

    /// KV-cache bytes for `seqs` sequences of `context` tokens across all layers.
    pub fn kv_bytes_total(&self, seqs: u64, context: u64) -> u64 {
        seqs * context * self.kv_bytes_per_token_layer() * self.n_layers as u64
    }

    /// Hidden-state bytes for `tokens` tokens.
    pub fn hidden_bytes(&self, tokens: u64) -> u64 {
        ((tokens * self.d_model) as f64 * self.dtype.bytes()) as u64
    }

    // ---- FLOPs per token -------------------------------------------------

    /// Attention projection FLOPs for one token (2 FLOPs per MAC).
    pub fn attn_proj_flops_per_token(&self) -> u64 {
        2 * self.attn_params()
    }

    /// Attention score+value FLOPs for one token attending over `context`.
    pub fn attn_score_flops(&self, context: u64) -> u64 {
        4 * self.n_heads * self.head_dim * context
    }

    /// FLOPs for one token through one expert (or the dense FFN).
    pub fn expert_flops_per_token(&self) -> u64 {
        2 * self.expert_params()
    }

    /// Gate FLOPs for one token.
    pub fn gate_flops_per_token(&self) -> u64 {
        2 * self.d_model * self.n_experts as u64
    }
}

impl fmt::Display for ModelSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} layers, d_model {}, {} experts top-{}, {:.1} GB {})",
            self.name,
            self.n_layers,
            self.d_model,
            self.n_experts,
            self.top_k,
            self.total_bytes() as f64 / 1e9,
            self.dtype,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB: f64 = 1e9;

    #[test]
    fn mixtral_8x7b_matches_published_size() {
        let m = ModelSpec::mixtral_8x7b();
        let params = m.total_params() as f64;
        assert!(
            (params - 46.7e9).abs() / 46.7e9 < 0.02,
            "params = {params:e}"
        );
        // bf16 model ≈ 93 GB.
        assert!((m.total_bytes() as f64 / GB - 93.4).abs() < 2.0);
        // Expert ≈ 352 MB (the 21 ms @ ~16.8 GB/s anchor).
        assert!((m.expert_bytes() as f64 / 1e6 - 352.3).abs() < 2.0);
        // KV = 4 KiB per token per layer (2 × 8 heads × 128 dim × 2 B).
        assert_eq!(m.kv_bytes_per_token_layer(), 4096);
    }

    #[test]
    fn mixtral_8x22b_matches_published_size() {
        let m = ModelSpec::mixtral_8x22b();
        let params = m.total_params() as f64;
        assert!(
            (params - 141.0e9).abs() / 141.0e9 < 0.02,
            "params = {params:e}"
        );
        // One expert ≈ 604 MB.
        assert!((m.expert_bytes() as f64 / 1e6 - 604.0).abs() < 3.0);
    }

    #[test]
    fn switch_base_sizes_match_table1() {
        let s16 = ModelSpec::switch_base(16);
        // Paper Table 1: "about 2.2 GB".
        assert!(
            (s16.total_bytes() as f64 / GB - 2.2).abs() < 0.4,
            "{}",
            s16.total_bytes()
        );
        let s128 = ModelSpec::switch_base(128);
        // Paper Table 1: "about 14 GB".
        assert!(
            (s128.total_bytes() as f64 / GB - 14.0).abs() < 1.5,
            "{}",
            s128.total_bytes()
        );
        assert_eq!(s16.n_moe_layers(), 12);
        assert_eq!(s16.top_k, 1);
    }

    #[test]
    fn opt_sizes_match_table1() {
        let small = ModelSpec::opt_1_3b();
        assert!((small.total_bytes() as f64 / GB - 2.6).abs() < 0.3);
        assert!(!small.is_moe());
        let large = ModelSpec::opt_6_7b();
        assert!((large.total_bytes() as f64 / GB - 13.3).abs() < 0.7);
    }

    #[test]
    fn moe_layer_pattern_respects_moe_every() {
        let mixtral = ModelSpec::mixtral_8x7b();
        assert!((0..32).all(|l| mixtral.is_moe_layer(l)));
        let switch = ModelSpec::switch_base(8);
        let moe: Vec<u32> = (0..12).filter(|&l| switch.is_moe_layer(l)).collect();
        assert_eq!(moe, vec![1, 3, 5, 7, 9, 11]);
        assert_eq!(switch.moe_index(1), Some(0));
        assert_eq!(switch.moe_index(2), None);
        assert_eq!(switch.moe_index(11), Some(5));
        let dense = ModelSpec::opt_1_3b();
        assert!((0..24).all(|l| !dense.is_moe_layer(l)));
    }

    #[test]
    fn layer_bytes_sum_close_to_total() {
        for m in [
            ModelSpec::mixtral_8x7b(),
            ModelSpec::mixtral_8x22b(),
            ModelSpec::switch_base(16),
            ModelSpec::opt_6_7b(),
        ] {
            let layers: u64 = (0..m.n_layers).map(|l| m.layer_bytes(l)).sum();
            let total = m.total_bytes();
            let diff = (total as i64 - layers as i64 - m.embed_bytes() as i64).abs();
            // Norm vectors are the only thing unaccounted; tiny.
            assert!(
                (diff as f64) < 0.01 * total as f64,
                "{}: diff {diff}",
                m.name
            );
        }
    }

    #[test]
    fn quant_scheme_shrinks_as_expected() {
        let q = QuantScheme::paper_default();
        // ~0.55 B/param ⇒ ~27% of bf16.
        let f = q.factor_vs(Dtype::Bf16);
        assert!((0.25..0.30).contains(&f), "factor = {f}");
    }

    #[test]
    fn flops_formulas_are_consistent() {
        let m = ModelSpec::mixtral_8x7b();
        // Expert FLOPs per token = 2 × 3 × 4096 × 14336.
        assert_eq!(m.expert_flops_per_token(), 2 * 3 * 4096 * 14336);
        assert_eq!(m.gate_flops_per_token(), 2 * 4096 * 8);
        assert!(m.attn_score_flops(512) > 0);
    }

    #[test]
    fn display_is_informative() {
        let s = ModelSpec::mixtral_8x7b().to_string();
        assert!(s.contains("Mixtral-8x7B"));
        assert!(s.contains("top-2"));
    }
}
