//! Model weights: seeded, reproducible, addressable per tensor.
//!
//! Weight matrices are stored `[out_features, in_features]` and applied as
//! `y = W · x` on column-vector views (`x · Wᵀ` on row batches), matching
//! the usual checkpoint layout so the offloading layer can treat each
//! matrix as an opaque transferable blob.

use klotski_tensor::init::{norm_weight, sub_seed, xavier_matrix};
use klotski_tensor::matrix::Matrix;
use klotski_tensor::ops::silu;
use klotski_tensor::quant::{QuantConfig, QuantizedMatrix};

use crate::config::MoeConfig;

/// Seed-space tags for tensor classes (stable addressing for every tensor).
mod tags {
    pub const WQ: u64 = 1;
    pub const WK: u64 = 2;
    pub const WV: u64 = 3;
    pub const WO: u64 = 4;
    pub const NORM1: u64 = 5;
    pub const NORM2: u64 = 6;
    pub const GATE: u64 = 7;
    pub const W1: u64 = 8;
    pub const W2: u64 = 9;
    pub const W3: u64 = 10;
    pub const EMBED: u64 = 11;
    pub const FINAL_NORM: u64 = 12;
}

/// One expert: a SwiGLU FFN (`w2 · (silu(w1·x) ⊙ w3·x)`).
#[derive(Debug, Clone, PartialEq)]
pub struct ExpertWeights {
    /// Gate projection `[d_ff, d_model]`.
    pub w1: Matrix,
    /// Down projection `[d_model, d_ff]`.
    pub w2: Matrix,
    /// Up projection `[d_ff, d_model]`.
    pub w3: Matrix,
}

impl ExpertWeights {
    /// An empty (0-sized) expert — a placeholder buffer for staging pools
    /// that fill it via [`klotski_tensor::matrix::Matrix::copy_from`].
    pub fn placeholder() -> Self {
        ExpertWeights {
            w1: Matrix::zeros(0, 0),
            w2: Matrix::zeros(0, 0),
            w3: Matrix::zeros(0, 0),
        }
    }

    /// Builds the expert at (`layer`, `expert`) of the model seeded `root`.
    pub fn seeded(cfg: &MoeConfig, layer: usize, expert: usize) -> Self {
        let idx = (layer * cfg.n_experts + expert) as u64;
        ExpertWeights {
            w1: xavier_matrix(cfg.d_ff, cfg.d_model, sub_seed(cfg.seed, tags::W1, idx)),
            w2: xavier_matrix(cfg.d_model, cfg.d_ff, sub_seed(cfg.seed, tags::W2, idx)),
            w3: xavier_matrix(cfg.d_ff, cfg.d_model, sub_seed(cfg.seed, tags::W3, idx)),
        }
    }

    /// Applies the expert to one hidden vector.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` does not match `d_model`.
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.w1.cols(), "expert input width mismatch");
        let d_ff = self.w1.rows();
        let mut inner = vec![0.0f32; d_ff];
        for (i, slot) in inner.iter_mut().enumerate() {
            let mut g = 0.0f32;
            let mut u = 0.0f32;
            let w1_row = self.w1.row(i);
            let w3_row = self.w3.row(i);
            for (j, &xj) in x.iter().enumerate() {
                g += w1_row[j] * xj;
                u += w3_row[j] * xj;
            }
            *slot = silu(g) * u;
        }
        let d_model = self.w2.rows();
        let mut out = vec![0.0f32; d_model];
        for (i, o) in out.iter_mut().enumerate() {
            let w2_row = self.w2.row(i);
            let mut acc = 0.0f32;
            for (j, &inj) in inner.iter().enumerate() {
                acc += w2_row[j] * inj;
            }
            *o = acc;
        }
        out
    }

    /// Applies the expert to a whole batch of hidden vectors at once —
    /// `xs` is `[n_tokens, d_model]` row-major, one routed token per row —
    /// into a reused output matrix and [`FfnScratch`]. With pre-reserved
    /// buffers (see [`FfnScratch::reserve`]) the call performs no heap
    /// allocation, and it spawns no thread: the native pipeline runs it
    /// inline on its inference thread or on one of its compute workers.
    ///
    /// This is the Klotski aggregation payoff: the expert's three weight
    /// matrices are streamed **once per batch** (two GEMMs + activation)
    /// instead of once per token. Each output row is **bit-identical** to
    /// [`ExpertWeights::forward`] of the same input row: the GEMM kernels
    /// accumulate every element in the same ascending-k order as the
    /// per-token matvec, so batching is numerics-neutral and the
    /// pipeline-vs-reference exactness tests keep holding.
    ///
    /// # Panics
    ///
    /// Panics if `xs.cols()` does not match `d_model`.
    // analyze: no_alloc
    pub fn forward_batch_into(&self, xs: &Matrix, out: &mut Matrix, scratch: &mut FfnScratch) {
        assert_eq!(xs.cols(), self.w1.cols(), "expert input width mismatch");
        let n_tokens = xs.rows();
        let d_ff = self.w1.rows();
        let d_model = self.w2.rows();
        scratch.gate.resize(n_tokens, d_ff);
        xs.matmul_nt_into(&self.w1, &mut scratch.gate);
        scratch.up.resize(n_tokens, d_ff);
        xs.matmul_nt_into(&self.w3, &mut scratch.up);
        for (g, &u) in scratch
            .gate
            .as_mut_slice()
            .iter_mut()
            .zip(scratch.up.as_slice())
        {
            *g = silu(*g) * u;
        }
        out.resize(n_tokens, d_model);
        scratch.gate.matmul_nt_into(&self.w2, out);
    }

    /// [`ExpertWeights::forward_batch_into`] into fresh buffers.
    #[cfg(test)]
    fn forward_batch(&self, xs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.forward_batch_into(xs, &mut out, &mut FfnScratch::default());
        out
    }

    /// Total parameter count.
    pub fn n_params(&self) -> usize {
        self.w1.rows() * self.w1.cols()
            + self.w2.rows() * self.w2.cols()
            + self.w3.rows() * self.w3.cols()
    }
}

/// Reusable intermediates for the batched SwiGLU forward: the `gate` and
/// `up` projection matrices. One per compute site (the native pipeline's
/// inference thread and each compute worker keep their own); after
/// [`FfnScratch::reserve`] — or the first call at the high-water batch
/// shape — every `forward_batch_into` call, dense or quantized, is
/// allocation-free.
#[derive(Debug, Clone, Default)]
pub struct FfnScratch {
    gate: Matrix,
    up: Matrix,
}

impl FfnScratch {
    /// Pre-sizes both intermediates for batches of up to `rows` tokens
    /// against experts with `d_ff` hidden width, so no later
    /// `forward_batch_into` call allocates.
    pub fn reserve(&mut self, rows: usize, d_ff: usize) {
        self.gate.resize(rows, d_ff);
        self.up.resize(rows, d_ff);
    }
}

/// One expert kept in its packed quantized form — the three SwiGLU
/// matrices as [`QuantizedMatrix`] — with a batched forward that computes
/// straight off the packed codes via the fused quantized GEMM. No
/// full-precision staging matrix exists on this path: a VRAM slot holding
/// one of these is half a byte plus metadata per parameter instead of 4.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedExpertWeights {
    /// Gate projection, packed.
    pub w1: QuantizedMatrix,
    /// Down projection, packed.
    pub w2: QuantizedMatrix,
    /// Up projection, packed.
    pub w3: QuantizedMatrix,
}

impl QuantizedExpertWeights {
    /// Quantizes a full-precision expert into the [`QuantConfig`] format.
    pub fn quantize(expert: &ExpertWeights, _: QuantConfig) -> Self {
        QuantizedExpertWeights {
            w1: QuantizedMatrix::quantize(&expert.w1),
            w2: QuantizedMatrix::quantize(&expert.w2),
            w3: QuantizedMatrix::quantize(&expert.w3),
        }
    }

    /// An empty packed expert — a placeholder buffer for slot pools that
    /// fill it via [`QuantizedExpertWeights::copy_from`].
    pub fn placeholder(config: QuantConfig) -> Self {
        QuantizedExpertWeights::quantize(&ExpertWeights::placeholder(), config)
    }

    /// Reconstructs the full-precision expert into reused buffers — the
    /// staging path this type exists to avoid, kept for tests and for
    /// callers that need dense weights.
    pub fn dequantize_into(&self, out: &mut ExpertWeights) {
        self.w1.dequantize_into(&mut out.w1);
        self.w2.dequantize_into(&mut out.w2);
        self.w3.dequantize_into(&mut out.w3);
    }

    /// Becomes a copy of `src`, reusing the packed buffers when capacity
    /// allows — the transfer-into-a-resident-slot primitive.
    pub fn copy_from(&mut self, src: &QuantizedExpertWeights) {
        self.w1.copy_from(&src.w1);
        self.w2.copy_from(&src.w2);
        self.w3.copy_from(&src.w3);
    }

    /// Batched SwiGLU forward straight off the packed codes, into a reused
    /// output matrix and [`FfnScratch`] — allocation-free and single-threaded,
    /// like the dense form. Both GEMM pairs run through
    /// [`QuantizedMatrix::matmul_nt_fused_into`], so dequantization happens
    /// a 64-code panel at a time in registers. Output is **bit-identical**
    /// to dequantizing this expert and calling
    /// [`ExpertWeights::forward_batch_into`] (the fused GEMM preserves both
    /// the dequant expression and every accumulation chain).
    ///
    /// # Panics
    ///
    /// Panics if `xs.cols()` does not match `d_model`.
    // analyze: no_alloc
    pub fn forward_batch_into(&self, xs: &Matrix, out: &mut Matrix, scratch: &mut FfnScratch) {
        assert_eq!(xs.cols(), self.w1.cols(), "expert input width mismatch");
        let n_tokens = xs.rows();
        let d_ff = self.w1.rows();
        let d_model = self.w2.rows();
        scratch.gate.resize(n_tokens, d_ff);
        self.w1.matmul_nt_fused_into(xs, &mut scratch.gate);
        scratch.up.resize(n_tokens, d_ff);
        self.w3.matmul_nt_fused_into(xs, &mut scratch.up);
        for (g, &u) in scratch
            .gate
            .as_mut_slice()
            .iter_mut()
            .zip(scratch.up.as_slice())
        {
            *g = silu(*g) * u;
        }
        out.resize(n_tokens, d_model);
        self.w2.matmul_nt_fused_into(&scratch.gate, out);
    }

    /// [`QuantizedExpertWeights::forward_batch_into`] into fresh buffers.
    #[cfg(test)]
    fn forward_batch(&self, xs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.forward_batch_into(xs, &mut out, &mut FfnScratch::default());
        out
    }

    /// Actual stored bytes across the three matrices (codes + metadata).
    pub fn stored_bytes(&self) -> usize {
        self.w1.stored_bytes() + self.w2.stored_bytes() + self.w3.stored_bytes()
    }
}

/// Attention weights plus the block's two norm gains.
#[derive(Debug, Clone, PartialEq)]
pub struct AttnWeights {
    /// Query projection `[d_model, d_model]`.
    pub wq: Matrix,
    /// Key projection `[d_model, d_model]`.
    pub wk: Matrix,
    /// Value projection `[d_model, d_model]`.
    pub wv: Matrix,
    /// Output projection `[d_model, d_model]`.
    pub wo: Matrix,
    /// Pre-attention RMSNorm gain.
    pub norm1: Vec<f32>,
    /// Pre-MoE RMSNorm gain.
    pub norm2: Vec<f32>,
}

impl AttnWeights {
    /// Builds the attention stack of `layer`.
    pub fn seeded(cfg: &MoeConfig, layer: usize) -> Self {
        let idx = layer as u64;
        let d = cfg.d_model;
        AttnWeights {
            wq: xavier_matrix(d, d, sub_seed(cfg.seed, tags::WQ, idx)),
            wk: xavier_matrix(d, d, sub_seed(cfg.seed, tags::WK, idx)),
            wv: xavier_matrix(d, d, sub_seed(cfg.seed, tags::WV, idx)),
            wo: xavier_matrix(d, d, sub_seed(cfg.seed, tags::WO, idx)),
            norm1: norm_weight(d, sub_seed(cfg.seed, tags::NORM1, idx)),
            norm2: norm_weight(d, sub_seed(cfg.seed, tags::NORM2, idx)),
        }
    }
}

/// One decoder block's weights.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerWeights {
    /// Attention + norms.
    pub attn: AttnWeights,
    /// Router `[n_experts, d_model]`.
    pub gate: Matrix,
    /// The experts.
    pub experts: Vec<ExpertWeights>,
}

impl LayerWeights {
    /// Builds block `layer`.
    pub fn seeded(cfg: &MoeConfig, layer: usize) -> Self {
        LayerWeights {
            attn: AttnWeights::seeded(cfg, layer),
            gate: xavier_matrix(
                cfg.n_experts,
                cfg.d_model,
                sub_seed(cfg.seed, tags::GATE, layer as u64),
            ),
            experts: (0..cfg.n_experts)
                .map(|e| ExpertWeights::seeded(cfg, layer, e))
                .collect(),
        }
    }
}

/// The whole model's weights.
#[derive(Debug, Clone, PartialEq)]
pub struct MoeWeights {
    /// Token embedding `[vocab, d_model]` (tied with the LM head).
    pub embed: Matrix,
    /// Final RMSNorm gain.
    pub final_norm: Vec<f32>,
    /// Decoder blocks.
    pub layers: Vec<LayerWeights>,
}

impl MoeWeights {
    /// Builds all weights for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is inconsistent (see [`MoeConfig::validate`]).
    pub fn seeded(cfg: &MoeConfig) -> Self {
        cfg.validate();
        MoeWeights {
            embed: xavier_matrix(cfg.vocab, cfg.d_model, sub_seed(cfg.seed, tags::EMBED, 0)),
            final_norm: norm_weight(cfg.d_model, sub_seed(cfg.seed, tags::FINAL_NORM, 0)),
            layers: (0..cfg.n_layers)
                .map(|l| LayerWeights::seeded(cfg, l))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_are_reproducible() {
        let cfg = MoeConfig::tiny(5);
        let a = MoeWeights::seeded(&cfg);
        let b = MoeWeights::seeded(&cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn different_experts_have_different_weights() {
        let cfg = MoeConfig::tiny(5);
        let w = MoeWeights::seeded(&cfg);
        let e0 = &w.layers[0].experts[0];
        let e1 = &w.layers[0].experts[1];
        assert!(e0.w1.max_abs_diff(&e1.w1) > 0.0);
        let l1e0 = &w.layers[1].experts[0];
        assert!(e0.w1.max_abs_diff(&l1e0.w1) > 0.0);
    }

    #[test]
    fn expert_forward_shapes_and_determinism() {
        let cfg = MoeConfig::tiny(5);
        let e = ExpertWeights::seeded(&cfg, 2, 3);
        let x = vec![0.1f32; cfg.d_model];
        let y1 = e.forward(&x);
        let y2 = e.forward(&x);
        assert_eq!(y1.len(), cfg.d_model);
        assert_eq!(y1, y2);
        assert_eq!(e.n_params(), 3 * cfg.d_model * cfg.d_ff);
    }

    #[test]
    fn expert_forward_is_nonlinear() {
        let cfg = MoeConfig::tiny(5);
        let e = ExpertWeights::seeded(&cfg, 0, 0);
        let x = vec![0.5f32; cfg.d_model];
        let y = e.forward(&x);
        let x2: Vec<f32> = x.iter().map(|v| v * 2.0).collect();
        let y2 = e.forward(&x2);
        let linear: Vec<f32> = y.iter().map(|v| v * 2.0).collect();
        let diff: f32 = y2
            .iter()
            .zip(&linear)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max);
        assert!(diff > 1e-6, "SwiGLU must not be linear");
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn expert_rejects_wrong_width() {
        let cfg = MoeConfig::tiny(5);
        let e = ExpertWeights::seeded(&cfg, 0, 0);
        let _ = e.forward(&[0.0; 3]);
    }

    #[test]
    fn forward_batch_matches_forward_bitwise() {
        let cfg = MoeConfig::tiny(5);
        let e = ExpertWeights::seeded(&cfg, 1, 2);
        let xs = Matrix::from_fn(7, cfg.d_model, |r, c| {
            ((r * 13 + c * 7) as f32 * 0.09).sin()
        });
        let batched = e.forward_batch(&xs);
        assert_eq!(batched.rows(), 7);
        assert_eq!(batched.cols(), cfg.d_model);
        for r in 0..xs.rows() {
            let single = e.forward(xs.row(r));
            assert_eq!(batched.row(r), &single[..], "row {r} diverged");
        }
    }

    #[test]
    fn forward_batch_handles_empty_and_single_row() {
        let cfg = MoeConfig::tiny(5);
        let e = ExpertWeights::seeded(&cfg, 0, 1);
        let empty = e.forward_batch(&Matrix::zeros(0, cfg.d_model));
        assert_eq!((empty.rows(), empty.cols()), (0, cfg.d_model));
        let one = Matrix::from_fn(1, cfg.d_model, |_, c| (c as f32 * 0.3).cos());
        assert_eq!(e.forward_batch(&one).row(0), &e.forward(one.row(0))[..]);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn forward_batch_rejects_wrong_width() {
        let cfg = MoeConfig::tiny(5);
        let e = ExpertWeights::seeded(&cfg, 0, 0);
        let _ = e.forward_batch(&Matrix::zeros(2, 3));
    }

    #[test]
    fn quantized_expert_fused_forward_matches_staged_bitwise() {
        let cfg = MoeConfig::tiny(5);
        let e = ExpertWeights::seeded(&cfg, 1, 0);
        let q = QuantizedExpertWeights::quantize(&e, QuantConfig::paper_default());
        let mut staged = ExpertWeights::placeholder();
        q.dequantize_into(&mut staged);
        let xs = Matrix::from_fn(9, cfg.d_model, |r, c| {
            ((r * 17 + c * 3) as f32 * 0.07).sin()
        });
        assert_eq!(q.forward_batch(&xs), staged.forward_batch(&xs));
        // And the packed form really is smaller than dense f32.
        assert!(q.stored_bytes() < 4 * e.n_params());
    }

    #[test]
    fn quantized_expert_copy_from_round_trips() {
        let cfg = MoeConfig::tiny(5);
        let qcfg = QuantConfig::paper_default();
        let src = QuantizedExpertWeights::quantize(&ExpertWeights::seeded(&cfg, 0, 2), qcfg);
        let mut slot = QuantizedExpertWeights::placeholder(qcfg);
        slot.copy_from(&src);
        assert_eq!(slot, src);
        let xs = Matrix::from_fn(2, cfg.d_model, |_, c| (c as f32 * 0.2).cos());
        assert_eq!(slot.forward_batch(&xs), src.forward_batch(&xs));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Batched expert forward is bit-identical to the per-token matvec
        /// for random token groups of any size (including 0 and 1).
        #[test]
        fn forward_batch_is_bit_identical_to_forward(
            n_tokens in 0usize..6,
            layer in 0usize..2,
            expert in 0usize..3,
            raw in proptest::collection::vec(-2.0f32..2.0, 6 * 32),
        ) {
            let cfg = MoeConfig::tiny(31);
            let e = ExpertWeights::seeded(&cfg, layer, expert);
            let xs = Matrix::from_vec(
                n_tokens,
                cfg.d_model,
                raw[..n_tokens * cfg.d_model].to_vec(),
            );
            let batched = e.forward_batch(&xs);
            prop_assert_eq!(batched.rows(), n_tokens);
            for r in 0..n_tokens {
                let single = e.forward(xs.row(r));
                prop_assert_eq!(batched.row(r), &single[..]);
            }
        }
    }
}
