//! The model: block primitives + the reference sequential runner.
//!
//! Both the reference runner (here) and Klotski's native pipelined executor
//! (`klotski-core`) are built from the *same* primitives — `attn_block`,
//! `moe_norm`, `route_token`, `expert_out`, `combine` — and `combine` sums
//! expert contributions in fixed expert-index order. Any execution order of
//! the expert computations therefore produces **bit-identical** hidden
//! states, which is exactly the property that lets the expert-aware
//! reordering of the paper be validated end-to-end on real numerics.

use klotski_tensor::ops::{argmax, rmsnorm_inplace};

use crate::attention::{attend_batch, attend_one, AttnMask, AttnScratch};
use crate::config::MoeConfig;
use crate::gate::{route, route_into, RouteScratch, Routing};
use crate::kv::KvCache;
use crate::weights::MoeWeights;

/// RMSNorm epsilon (Mixtral's value).
const NORM_EPS: f32 = 1e-5;

/// A complete native MoE model.
#[derive(Debug, Clone)]
pub struct MoeModel {
    cfg: MoeConfig,
    weights: MoeWeights,
}

/// Which phase a routing event was recorded in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Prompt ingestion; `step` is the prompt position.
    Prefill,
    /// Autoregressive generation; `step` is the decode step.
    Decode,
}

/// Everything that identifies one token's trip through the model: the
/// token and its position, the attention mask in force, and where the trip
/// is recorded in the routing trace (phase/step/sequence).
///
/// Bundled as a params struct so [`MoeModel::forward_token`] and the MoE
/// block stay within clippy's argument budget without an `#[allow]`.
#[derive(Debug, Clone, Copy)]
pub struct TokenCtx {
    /// The input token id.
    pub token: u32,
    /// Its absolute position in the sequence.
    pub pos: usize,
    /// Attention mask (dense, StreamingLLM or heavy-hitter); a
    /// heavy-hitter mask's state lives in the sequence's [`KvCache`].
    pub mask: AttnMask,
    /// Prefill or decode (for the routing trace).
    pub phase: Phase,
    /// Prompt position or decode step (for the routing trace).
    pub step: usize,
    /// Sequence index within the batch (for the routing trace).
    pub seq: usize,
}

/// Reusable buffers for [`MoeModel::logits_into`]: the normalized hidden
/// state and the logits, both allocated once and reused across every
/// decoded token.
#[derive(Debug, Clone)]
pub struct LogitsScratch {
    normed: Vec<f32>,
    logits: Vec<f32>,
}

/// One recorded routing decision.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingEvent {
    /// Prefill or decode.
    pub phase: Phase,
    /// Prompt position or decode step.
    pub step: usize,
    /// Sequence index within the batch.
    pub seq: usize,
    /// Layer index.
    pub layer: usize,
    /// Selected experts, gate-rank order.
    pub experts: Vec<usize>,
}

/// Output of a reference generation run.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerationResult {
    /// Generated tokens per sequence.
    pub tokens: Vec<Vec<u32>>,
    /// The final hidden state of every sequence (pre-logits), for
    /// bit-exact comparison against pipelined executors.
    pub final_hidden: Vec<Vec<f32>>,
    /// Every routing decision made during the run.
    pub routing: Vec<RoutingEvent>,
}

impl MoeModel {
    /// Builds a model with seeded weights.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is inconsistent (see [`MoeConfig::validate`]).
    pub fn new(cfg: MoeConfig) -> Self {
        cfg.validate();
        MoeModel {
            weights: MoeWeights::seeded(&cfg),
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &MoeConfig {
        &self.cfg
    }

    /// The weights (read access for offloading executors).
    pub fn weights(&self) -> &MoeWeights {
        &self.weights
    }

    /// Embeds `token` at position `pos` (token embedding + sinusoidal
    /// positional signal).
    ///
    /// # Panics
    ///
    /// Panics if `token` is out of vocabulary.
    pub fn embed(&self, token: u32, pos: usize) -> Vec<f32> {
        let mut h = Vec::new();
        self.embed_into(token, pos, &mut h);
        h
    }

    /// [`MoeModel::embed`] into a reused buffer — the allocation-free form
    /// the native pipeline's per-step hot loop uses.
    ///
    /// # Panics
    ///
    /// Panics if `token` is out of vocabulary.
    pub fn embed_into(&self, token: u32, pos: usize, out: &mut Vec<f32>) {
        assert!((token as usize) < self.cfg.vocab, "token out of vocabulary");
        out.clear();
        out.extend_from_slice(self.weights.embed.row(token as usize));
        for (i, v) in out.iter_mut().enumerate() {
            let rate = 1.0 / 10_000f32.powf(i as f32 / self.cfg.d_model as f32);
            *v += 0.1 * (pos as f32 * rate).sin();
        }
    }

    /// `h + attention(rmsnorm1(h))` for one token of one sequence.
    pub fn attn_block(
        &self,
        layer: usize,
        h: &[f32],
        cache: &mut KvCache,
        mask: AttnMask,
    ) -> Vec<f32> {
        let lw = &self.weights.layers[layer];
        let mut normed = h.to_vec();
        rmsnorm_inplace(&mut normed, &lw.attn.norm1, NORM_EPS);
        let attn_out = attend_one(
            &lw.attn,
            layer,
            &normed,
            cache,
            self.cfg.n_heads,
            self.cfg.head_dim,
            mask,
        );
        h.iter().zip(&attn_out).map(|(a, b)| a + b).collect()
    }

    /// Fresh reusable buffers for [`MoeModel::attn_block_batch`].
    pub fn attn_scratch(&self) -> AttnScratch {
        AttnScratch::new(self.cfg.n_heads, self.cfg.head_dim)
    }

    /// `h + attention(rmsnorm1(h))` for one token of **every** active
    /// sequence at once — the batched form of [`MoeModel::attn_block`],
    /// bit-identical to calling it per sequence (see
    /// [`attend_batch`]). `active` selects which rows of `hs`/`caches`
    /// participate; their hidden states are updated in place. All
    /// intermediate state lives in `scratch`, so the call is
    /// allocation-free once the scratch has been
    /// [reserved](AttnScratch::reserve).
    pub fn attn_block_batch(
        &self,
        layer: usize,
        hs: &mut [Vec<f32>],
        active: &[usize],
        caches: &mut [KvCache],
        mask: AttnMask,
        scratch: &mut AttnScratch,
    ) {
        let lw = &self.weights.layers[layer];
        let normed = scratch.input_mut(active.len());
        for (r, &s) in active.iter().enumerate() {
            let row = normed.row_mut(r);
            row.copy_from_slice(&hs[s]);
            rmsnorm_inplace(row, &lw.attn.norm1, NORM_EPS);
        }
        attend_batch(&lw.attn, layer, caches, active, mask, scratch);
        for (r, &s) in active.iter().enumerate() {
            for (hv, &o) in hs[s].iter_mut().zip(scratch.output().row(r)) {
                *hv += o;
            }
        }
    }

    /// The pre-MoE normalized hidden state.
    pub fn moe_norm(&self, layer: usize, h: &[f32]) -> Vec<f32> {
        let mut normed = Vec::new();
        self.moe_norm_into(layer, h, &mut normed);
        normed
    }

    /// [`MoeModel::moe_norm`] into a reused buffer (allocation-free form).
    pub fn moe_norm_into(&self, layer: usize, h: &[f32], out: &mut Vec<f32>) {
        let lw = &self.weights.layers[layer];
        out.clear();
        out.extend_from_slice(h);
        rmsnorm_inplace(out, &lw.attn.norm2, NORM_EPS);
    }

    /// Routes one normalized token through `layer`'s gate.
    pub fn route_token(&self, layer: usize, normed: &[f32]) -> Routing {
        route(&self.weights.layers[layer].gate, normed, self.cfg.top_k)
    }

    /// [`MoeModel::route_token`] into reused buffers — the
    /// allocation-free form the native pipeline's gate step uses.
    // analyze: no_alloc
    pub fn route_token_into(
        &self,
        layer: usize,
        normed: &[f32],
        out: &mut Routing,
        scratch: &mut RouteScratch,
    ) {
        route_into(
            &self.weights.layers[layer].gate,
            normed,
            self.cfg.top_k,
            out,
            scratch,
        );
    }

    /// One expert's output for one normalized token.
    pub fn expert_out(&self, layer: usize, expert: usize, normed: &[f32]) -> Vec<f32> {
        self.weights.layers[layer].experts[expert].forward(normed)
    }

    /// `h + Σ wᵢ · outᵢ`, summed in **expert-index order** regardless of the
    /// order contributions were produced in — the bit-exactness anchor.
    pub fn combine(&self, h: &[f32], contributions: &mut [(usize, f32, Vec<f32>)]) -> Vec<f32> {
        contributions.sort_by_key(|&(e, _, _)| e);
        let mut out = h.to_vec();
        for (_, w, expert_out) in contributions.iter() {
            for (o, &x) in out.iter_mut().zip(expert_out) {
                *o += w * x;
            }
        }
        out
    }

    /// Full MoE block for one token (gate → experts → combine), recording
    /// the routing into `events`.
    fn moe_block(
        &self,
        layer: usize,
        h: &[f32],
        ctx: TokenCtx,
        events: &mut Vec<RoutingEvent>,
    ) -> Vec<f32> {
        let normed = self.moe_norm(layer, h);
        let routing = self.route_token(layer, &normed);
        events.push(RoutingEvent {
            phase: ctx.phase,
            step: ctx.step,
            seq: ctx.seq,
            layer,
            experts: routing.experts(),
        });
        let mut contributions: Vec<(usize, f32, Vec<f32>)> = routing
            .picks
            .iter()
            .map(|&(e, w)| (e, w, self.expert_out(layer, e, &normed)))
            .collect();
        self.combine(h, &mut contributions)
    }

    /// One token through every layer (the canonical forward pass). The
    /// per-token state travels in a [`TokenCtx`].
    pub fn forward_token(
        &self,
        ctx: TokenCtx,
        cache: &mut KvCache,
        events: &mut Vec<RoutingEvent>,
    ) -> Vec<f32> {
        let mut h = self.embed(ctx.token, ctx.pos);
        for layer in 0..self.cfg.n_layers {
            h = self.attn_block(layer, &h, cache, ctx.mask);
            h = self.moe_block(layer, &h, ctx, events);
        }
        h
    }

    /// Fresh reusable buffers for [`MoeModel::logits_into`].
    pub fn logits_scratch(&self) -> LogitsScratch {
        LogitsScratch {
            normed: vec![0.0; self.cfg.d_model],
            logits: vec![0.0; self.cfg.vocab],
        }
    }

    /// Logits of hidden state `h` (final norm + tied LM head) into reused
    /// scratch buffers: one blocked matvec of the embedding matrix against
    /// the normalized hidden state, instead of a per-vocab-entry scalar
    /// loop with a fresh `Vec`. Bit-identical to the old loop (same
    /// ascending-k sequential dot per vocab entry).
    ///
    /// # Panics
    ///
    /// Panics if `h.len()` is not `d_model`.
    pub fn logits_into<'s>(&self, h: &[f32], scratch: &'s mut LogitsScratch) -> &'s [f32] {
        assert_eq!(h.len(), scratch.normed.len(), "hidden width mismatch");
        scratch.normed.copy_from_slice(h);
        rmsnorm_inplace(&mut scratch.normed, &self.weights.final_norm, NORM_EPS);
        self.weights
            .embed
            .matvec_into(&scratch.normed, &mut scratch.logits);
        &scratch.logits
    }

    /// Logits of hidden state `h` (allocating convenience form).
    pub fn logits(&self, h: &[f32]) -> Vec<f32> {
        let mut scratch = self.logits_scratch();
        self.logits_into(h, &mut scratch);
        scratch.logits
    }

    /// Greedy next token from hidden state `h`, reusing `scratch` — the
    /// allocation-free form for decode loops.
    pub fn next_token_with(&self, h: &[f32], scratch: &mut LogitsScratch) -> u32 {
        argmax(self.logits_into(h, scratch)).expect("non-empty vocabulary") as u32
    }

    /// Greedy next token from hidden state `h`.
    #[cfg(test)]
    fn next_token(&self, h: &[f32]) -> u32 {
        self.next_token_with(h, &mut self.logits_scratch())
    }

    /// A fresh KV cache sized for this model.
    pub fn new_cache(&self) -> KvCache {
        KvCache::new(self.cfg.n_layers, self.cfg.d_model)
    }

    /// A fresh KV cache whose per-layer slabs already hold room for
    /// `positions` entries — decode loops that know `prompt_len + gen_len`
    /// upfront use this so appends never reallocate mid-run.
    pub fn new_cache_with_capacity(&self, positions: usize) -> KvCache {
        KvCache::with_capacity(self.cfg.n_layers, self.cfg.d_model, positions)
    }

    /// Reference generation: prompts processed sequentially, one token at a
    /// time, in canonical (batch-major) order — the numerical ground truth,
    /// under every [`AttnMask`]. Each sequence gets a fresh cache, so a
    /// heavy-hitter mask starts from an empty kept set.
    ///
    /// # Panics
    ///
    /// Panics if any prompt is empty or contains out-of-vocabulary tokens,
    /// or if `mask` is invalid (see [`AttnMask::validate`]).
    pub fn generate(
        &self,
        prompts: &[Vec<u32>],
        gen_len: usize,
        mask: AttnMask,
    ) -> GenerationResult {
        mask.validate();
        let mut tokens = Vec::with_capacity(prompts.len());
        let mut final_hidden = Vec::with_capacity(prompts.len());
        let mut routing = Vec::new();
        let mut scratch = self.logits_scratch();
        for (seq, prompt) in prompts.iter().enumerate() {
            assert!(!prompt.is_empty(), "empty prompt for sequence {seq}");
            let mut cache = self.new_cache_with_capacity(prompt.len() + gen_len);
            let mut h = Vec::new();
            for (pos, &tok) in prompt.iter().enumerate() {
                let ctx = TokenCtx {
                    token: tok,
                    pos,
                    mask,
                    phase: Phase::Prefill,
                    step: pos,
                    seq,
                };
                h = self.forward_token(ctx, &mut cache, &mut routing);
            }
            let mut generated = Vec::with_capacity(gen_len);
            for step in 0..gen_len {
                let next = self.next_token_with(&h, &mut scratch);
                generated.push(next);
                let ctx = TokenCtx {
                    token: next,
                    pos: prompt.len() + step,
                    mask,
                    phase: Phase::Decode,
                    step,
                    seq,
                };
                h = self.forward_token(ctx, &mut cache, &mut routing);
            }
            tokens.push(generated);
            final_hidden.push(h);
        }
        GenerationResult {
            tokens,
            final_hidden,
            routing,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> MoeModel {
        MoeModel::new(MoeConfig::tiny(11))
    }

    fn prompts(n: usize, len: usize) -> Vec<Vec<u32>> {
        (0..n)
            .map(|s| (0..len).map(|p| ((s * 31 + p * 7) % 96) as u32).collect())
            .collect()
    }

    #[test]
    fn generation_is_deterministic() {
        let m = model();
        let p = prompts(3, 8);
        let a = m.generate(&p, 4, AttnMask::Dense);
        let b = m.generate(&p, 4, AttnMask::Dense);
        assert_eq!(a, b);
        assert_eq!(a.tokens.len(), 3);
        assert!(a.tokens.iter().all(|t| t.len() == 4));
    }

    #[test]
    fn different_prompts_generate_differently() {
        let m = model();
        let a = m.generate(&prompts(1, 8), 6, AttnMask::Dense);
        let other = vec![(0..8).map(|p| ((p * 13 + 5) % 96) as u32).collect()];
        let b = m.generate(&other, 6, AttnMask::Dense);
        assert_ne!(a.tokens, b.tokens);
    }

    #[test]
    fn routing_events_cover_all_layers_and_steps() {
        let m = model();
        let p = prompts(2, 5);
        let r = m.generate(&p, 3, AttnMask::Dense);
        let cfg = m.config();
        let expected = 2 * (5 + 3) * cfg.n_layers;
        assert_eq!(r.routing.len(), expected);
        assert!(r
            .routing
            .iter()
            .all(|e| e.experts.len() == cfg.top_k && e.layer < cfg.n_layers));
        let decode_events = r
            .routing
            .iter()
            .filter(|e| e.phase == Phase::Decode)
            .count();
        assert_eq!(decode_events, 2 * 3 * cfg.n_layers);
    }

    #[test]
    fn combine_order_independence_is_bit_exact() {
        let m = model();
        let h = vec![0.2f32; m.config().d_model];
        let normed = m.moe_norm(0, &h);
        let a = m.expert_out(0, 1, &normed);
        let b = m.expert_out(0, 4, &normed);
        let mut fwd = vec![(1usize, 0.6f32, a.clone()), (4usize, 0.4f32, b.clone())];
        let mut rev = vec![(4usize, 0.4f32, b), (1usize, 0.6f32, a)];
        let out1 = m.combine(&h, &mut fwd);
        let out2 = m.combine(&h, &mut rev);
        assert_eq!(out1, out2, "combine must be order-insensitive bit-exactly");
    }

    #[test]
    fn gate_uses_multiple_experts_across_tokens() {
        let m = model();
        let r = m.generate(&prompts(4, 12), 2, AttnMask::Dense);
        let mut used = std::collections::HashSet::new();
        for e in &r.routing {
            if e.layer == 0 {
                used.extend(e.experts.iter().copied());
            }
        }
        assert!(used.len() >= 3, "layer 0 used only {used:?}");
    }

    #[test]
    fn streaming_mask_changes_long_generations() {
        let m = model();
        let p = prompts(1, 24);
        let dense = m.generate(&p, 6, AttnMask::Dense);
        let sparse = m.generate(
            &p,
            6,
            AttnMask::Streaming {
                sinks: 2,
                window: 4,
            },
        );
        assert_ne!(
            dense.final_hidden, sparse.final_hidden,
            "long context must be affected by the streaming mask"
        );
    }

    #[test]
    fn attn_block_batch_matches_attn_block_bitwise() {
        let m = model();
        let cfg = *m.config();
        let n = 3;
        let mut ref_caches: Vec<KvCache> = (0..n).map(|_| m.new_cache()).collect();
        let mut batch_caches = ref_caches.clone();
        let mut ref_h: Vec<Vec<f32>> = (0..n)
            .map(|s| {
                (0..cfg.d_model)
                    .map(|i| ((s * 7 + i) as f32 * 0.1).sin())
                    .collect()
            })
            .collect();
        let mut batch_h = ref_h.clone();
        let active: Vec<usize> = (0..n).collect();
        let mut scratch = m.attn_scratch();
        for step in 0..3 {
            for layer in 0..cfg.n_layers {
                m.attn_block_batch(
                    layer,
                    &mut batch_h,
                    &active,
                    &mut batch_caches,
                    AttnMask::Dense,
                    &mut scratch,
                );
                for s in 0..n {
                    ref_h[s] = m.attn_block(layer, &ref_h[s], &mut ref_caches[s], AttnMask::Dense);
                }
                assert_eq!(ref_h, batch_h, "step {step} layer {layer}");
            }
        }
        assert_eq!(ref_caches, batch_caches);
    }

    #[test]
    fn logits_are_finite_and_vocab_sized() {
        let m = model();
        let h = m.embed(5, 0);
        let logits = m.logits(&h);
        assert_eq!(logits.len(), m.config().vocab);
        assert!(logits.iter().all(|x| x.is_finite()));
        assert!((m.next_token(&h) as usize) < m.config().vocab);
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn oov_token_rejected() {
        let m = model();
        let _ = m.embed(9999, 0);
    }
}
