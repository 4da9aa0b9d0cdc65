//! Multi-head causal attention with optional StreamingLLM or heavy-hitter
//! masking.
//!
//! One token is processed at a time against a per-sequence [`KvCache`] —
//! the token's K/V are appended first, then the query attends over the
//! cached (visible) positions. [`AttnMask`] selects which positions are
//! visible: everything (dense causal), the StreamingLLM pattern of
//! attention sinks plus a recent window (§7 "Sparse Attention"), or the
//! heavy-hitter set the cache keeps by accumulated attention mass
//! ([`crate::h2o`], §9.8's future work). The third rule is stateful: each
//! step adds every visible position's softmaxed score to its mass, head by
//! head, and evicts after the heads loop.
//!
//! Two execution shapes produce **bit-identical** outputs under every
//! mask:
//!
//! * [`attend_one`] — one token of one sequence, four blocked matvecs plus
//!   scalar score/AV loops (the reference arithmetic);
//! * [`attend_batch`] — a whole batch group at once: the group's
//!   normalized hidden states are stacked `[n_active × d_model]` and Q, K,
//!   V (and the output projection after attention) become single GEMMs
//!   through the blocked `nt` kernels, while per-sequence scores/AV run
//!   through the strided kernels
//!   ([`matvec_strided_into`]/[`weighted_rows_into`]) over each sequence's
//!   contiguous KV slab. The same in-batch weight-amortization motif that
//!   batches the expert GEMMs applies: the projection weights are shared
//!   by every sequence in the group, so projecting the group is one GEMM,
//!   not `n_active` latency-bound matvecs. All buffers live in a reusable
//!   [`AttnScratch`], so steady-state decode performs no heap allocation
//!   in the attention block.

use klotski_tensor::matrix::{matvec_strided_into, weighted_rows_into, Matrix, StridedRows};
use klotski_tensor::ops::softmax_inplace;

use crate::h2o::H2oConfig;
use crate::kv::KvCache;
use crate::weights::AttnWeights;

/// Which cached positions a query may attend to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttnMask {
    /// Full causal attention over every cached position.
    Dense,
    /// StreamingLLM: the first `sinks` positions plus the last `window`
    /// positions are visible.
    Streaming {
        /// Always-visible initial positions ("attention sinks").
        sinks: usize,
        /// Most recent visible positions.
        window: usize,
    },
    /// Heavy-hitter selection ([`crate::h2o`]): the positions the
    /// sequence's cache keeps at the layer, at most `budget` plus the
    /// current one.
    HeavyHitter(H2oConfig),
}

impl AttnMask {
    /// Checks the mask's parameters.
    ///
    /// # Panics
    ///
    /// Panics if a heavy-hitter budget does not exceed its sink count.
    pub fn validate(&self) {
        if let AttnMask::HeavyHitter(cfg) = self {
            cfg.validate();
        }
    }

    /// Number of visible positions out of `len`.
    #[cfg(test)]
    fn visible_count(&self, len: usize) -> usize {
        match *self {
            AttnMask::Dense => len,
            AttnMask::Streaming { sinks, window } => len.min(sinks + window),
            AttnMask::HeavyHitter(cfg) => len.min(cfg.budget + 1),
        }
    }

    /// Fills `visible` with the positions of `cache` at `layer` a query may
    /// attend to, ascending, and `mass` with one zero per visible position
    /// under heavy-hitter selection (empty otherwise): the step's
    /// attention mass accumulates there.
    fn visible_into(
        &self,
        cache: &KvCache,
        layer: usize,
        visible: &mut Vec<usize>,
        mass: &mut Vec<f32>,
    ) {
        let len = cache.len(layer);
        visible.clear();
        mass.clear();
        match *self {
            AttnMask::Dense => visible.extend(0..len),
            AttnMask::Streaming { sinks, window } => {
                visible.extend((0..len).filter(|&p| p < sinks || p + window >= len));
            }
            AttnMask::HeavyHitter(_) => {
                visible.extend_from_slice(cache.kept(layer));
                mass.resize(visible.len(), 0.0);
            }
        }
    }
}

/// Appends one position's K/V to `cache` at `layer`. Under heavy-hitter
/// selection the new position also joins the kept set, so its own query
/// sees it.
fn append(cache: &mut KvCache, layer: usize, k: &[f32], v: &[f32], mask: AttnMask) {
    cache.append(layer, k, v);
    if let AttnMask::HeavyHitter(cfg) = mask {
        let pos = cache.len(layer) - 1;
        cache.heavy_hitters_mut(layer).admit(pos, cfg);
    }
}

/// Ends one step of heavy-hitter selection: adds the step's `mass`
/// (parallel to the kept positions) and evicts down to budget. Does
/// nothing under the other masks.
fn evict(cache: &mut KvCache, layer: usize, mass: &[f32], mask: AttnMask) {
    if let AttnMask::HeavyHitter(cfg) = mask {
        cache
            .heavy_hitters_mut(layer)
            .accumulate_and_evict(mass, cfg);
    }
}

/// Runs one token through `layer`'s attention: appends its K/V to `cache`
/// and returns the attention output (pre-`wo` residual *not* applied; the
/// caller owns norms and residuals).
///
/// `x` is the *normalized* hidden state of the token.
///
/// # Panics
///
/// Panics if `x` is not `d_model` long.
pub fn attend_one(
    w: &AttnWeights,
    layer: usize,
    x: &[f32],
    cache: &mut KvCache,
    n_heads: usize,
    head_dim: usize,
    mask: AttnMask,
) -> Vec<f32> {
    let d_model = n_heads * head_dim;
    assert_eq!(x.len(), d_model, "attention input width mismatch");

    let q = project(&w.wq, x);
    let k = project(&w.wk, x);
    let v = project(&w.wv, x);
    append(cache, layer, &k, &v, mask);
    let (mut visible, mut mass) = (Vec::new(), Vec::new());
    mask.visible_into(cache, layer, &mut visible, &mut mass);

    // Per head: scores → softmax → AV. Per-score dots and per-output-element
    // AXPY accumulation run in ascending-position order — the accumulation
    // order every batched or blocked variant must replicate exactly.
    let scale = 1.0 / (head_dim as f32).sqrt();
    let mut attended = vec![0.0f32; d_model];
    for h in 0..n_heads {
        let q_h = &q[h * head_dim..(h + 1) * head_dim];
        let mut scores: Vec<f32> = visible
            .iter()
            .map(|&p| {
                let k_p = &cache.key_at(layer, p)[h * head_dim..(h + 1) * head_dim];
                dot(q_h, k_p) * scale
            })
            .collect();
        softmax_inplace(&mut scores);
        for (m, &s) in mass.iter_mut().zip(&scores) {
            *m += s;
        }
        let out_h = &mut attended[h * head_dim..(h + 1) * head_dim];
        for (&p, &s) in visible.iter().zip(&scores) {
            let v_p = &cache.value_at(layer, p)[h * head_dim..(h + 1) * head_dim];
            for (o, &vv) in out_h.iter_mut().zip(v_p) {
                *o += s * vv;
            }
        }
    }
    evict(cache, layer, &mass, mask);

    project(&w.wo, &attended)
}

/// Reusable buffers for [`attend_batch`]: the group's stacked
/// normalized/Q/K/V/attended/output matrices plus the per-sequence scores,
/// visible-index and attention-mass buffers. Owned by the caller (the
/// native pipeline keeps one for the whole run) so steady-state decode
/// allocates nothing in the attention block — [`AttnScratch::reserve`]
/// pre-sizes everything to the run's high-water shapes.
#[derive(Debug, Clone)]
pub struct AttnScratch {
    n_heads: usize,
    head_dim: usize,
    /// The staged group input (one normalized hidden state per row).
    pub(crate) normed: Matrix,
    q: Matrix,
    k: Matrix,
    v: Matrix,
    attended: Matrix,
    /// The group's attention output (post-`wo`, pre-residual).
    pub(crate) out: Matrix,
    scores: Vec<f32>,
    visible: Vec<usize>,
    mass: Vec<f32>,
}

impl AttnScratch {
    /// Fresh (empty) scratch for a model with `n_heads` heads of
    /// `head_dim`.
    pub fn new(n_heads: usize, head_dim: usize) -> Self {
        AttnScratch {
            n_heads,
            head_dim,
            normed: Matrix::zeros(0, 0),
            q: Matrix::zeros(0, 0),
            k: Matrix::zeros(0, 0),
            v: Matrix::zeros(0, 0),
            attended: Matrix::zeros(0, 0),
            out: Matrix::zeros(0, 0),
            scores: Vec::new(),
            visible: Vec::new(),
            mass: Vec::new(),
        }
    }

    /// Pre-sizes every buffer for groups of up to `rows` sequences and
    /// caches of up to `positions` entries, so no later
    /// [`AttnScratch::input_mut`] or [`attend_batch`] call allocates.
    pub fn reserve(&mut self, rows: usize, positions: usize) {
        self.input_mut(rows);
        self.scores.reserve(positions);
        self.visible.reserve(positions);
        self.mass.reserve(positions);
    }

    /// Stages a group of `rows` sequences: resizes the per-row matrices
    /// (buffer-reusing) and returns the input matrix for the caller to
    /// fill, one **normalized** hidden state per row.
    pub fn input_mut(&mut self, rows: usize) -> &mut Matrix {
        let d_model = self.n_heads * self.head_dim;
        self.q.resize(rows, d_model);
        self.k.resize(rows, d_model);
        self.v.resize(rows, d_model);
        self.attended.resize(rows, d_model);
        self.out.resize(rows, d_model);
        self.normed.resize(rows, d_model);
        &mut self.normed
    }

    /// The group's attention output after [`attend_batch`] (one row per
    /// staged sequence; pre-residual, like [`attend_one`]'s return).
    pub fn output(&self) -> &Matrix {
        &self.out
    }
}

/// Runs one step of attention for a whole batch group: row `r` of the
/// staged input (see [`AttnScratch::input_mut`]) is the normalized hidden
/// state of the sequence `caches[seqs[r]]`, whose K/V are appended before
/// the row's query attends over its visible cached positions.
///
/// Bit-identical to calling [`attend_one`] per sequence: the Q/K/V/O
/// GEMMs compute each row with the same ascending-k sequential dots as the
/// per-token matvec, and the strided scores/AV kernels replicate the
/// scalar loops' per-element accumulation order exactly. Only wall-clock
/// changes — the projection weights are streamed once per group instead
/// of once per token, and nothing is allocated.
///
/// # Panics
///
/// Panics if the staged input's shape does not match `seqs.len()` rows of
/// `n_heads × head_dim`, or any cache width differs.
// analyze: no_alloc
pub fn attend_batch(
    w: &AttnWeights,
    layer: usize,
    caches: &mut [KvCache],
    seqs: &[usize],
    mask: AttnMask,
    scratch: &mut AttnScratch,
) {
    let n = seqs.len();
    let d_model = scratch.n_heads * scratch.head_dim;
    assert_eq!(
        (scratch.normed.rows(), scratch.normed.cols()),
        (n, d_model),
        "group not staged: call input_mut(seqs.len()) and fill it first"
    );
    if n == 0 {
        return;
    }

    // Q/K/V for the whole group as single GEMMs (weights streamed once).
    scratch.normed.matmul_nt_into(&w.wq, &mut scratch.q);
    scratch.normed.matmul_nt_into(&w.wk, &mut scratch.k);
    scratch.normed.matmul_nt_into(&w.wv, &mut scratch.v);
    for (r, &s) in seqs.iter().enumerate() {
        append(
            &mut caches[s],
            layer,
            scratch.k.row(r),
            scratch.v.row(r),
            mask,
        );
    }

    // Per-sequence scores/AV over each cache's contiguous KV slab. The
    // caches are independent, so sequence order is irrelevant; positions
    // within a sequence accumulate in ascending order (the exactness pin).
    let AttnScratch {
        n_heads,
        head_dim,
        ref q,
        ref mut attended,
        ref mut scores,
        ref mut visible,
        ref mut mass,
        ..
    } = *scratch;
    let scale = 1.0 / (head_dim as f32).sqrt();
    for (r, &s) in seqs.iter().enumerate() {
        let cache = &caches[s];
        mask.visible_into(cache, layer, visible, mass);
        scores.resize(visible.len(), 0.0);
        let keys = cache.keys(layer);
        let vals = cache.values(layer);
        let attended_row = attended.row_mut(r);
        for h in 0..n_heads {
            let off = h * head_dim;
            let q_h = &q.row(r)[off..off + head_dim];
            let k_rows = StridedRows::new(keys, d_model, off, head_dim);
            matvec_strided_into(q_h, &k_rows, visible, scores);
            for sv in scores.iter_mut() {
                *sv *= scale;
            }
            softmax_inplace(scores);
            for (m, &sv) in mass.iter_mut().zip(scores.iter()) {
                *m += sv;
            }
            let v_rows = StridedRows::new(vals, d_model, off, head_dim);
            weighted_rows_into(
                scores,
                &v_rows,
                visible,
                &mut attended_row[off..off + head_dim],
            );
        }
        evict(&mut caches[s], layer, mass, mask);
    }

    // Output projection for the whole group as one GEMM.
    scratch.attended.matmul_nt_into(&w.wo, &mut scratch.out);
}

/// `w · x` through the blocked matvec kernel — bit-identical to per-row
/// sequential dots (f32 multiplication commutes bitwise), several× faster
/// than one latency-bound accumulator chain per row.
fn project(w: &klotski_tensor::matrix::Matrix, x: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; w.rows()];
    w.matvec_into(x, &mut out);
    out
}

fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MoeConfig;
    use crate::weights::AttnWeights;

    fn setup() -> (MoeConfig, AttnWeights, KvCache) {
        let cfg = MoeConfig::tiny(3);
        let w = AttnWeights::seeded(&cfg, 0);
        let cache = KvCache::new(cfg.n_layers, cfg.d_model);
        (cfg, w, cache)
    }

    #[test]
    fn first_token_attends_only_to_itself() {
        let (cfg, w, mut cache) = setup();
        let x = vec![0.3f32; cfg.d_model];
        let out = attend_one(
            &w,
            0,
            &x,
            &mut cache,
            cfg.n_heads,
            cfg.head_dim,
            AttnMask::Dense,
        );
        assert_eq!(out.len(), cfg.d_model);
        assert_eq!(cache.len(0), 1);
        // With a single position, attention weights are 1.0: output is
        // wo · v deterministically.
        let v = project(&w.wv, &x);
        let expect = project(&w.wo, &v);
        for (a, b) in out.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn attention_depends_on_history() {
        let (cfg, w, mut cache) = setup();
        let x1 = vec![0.3f32; cfg.d_model];
        let x2 = vec![-0.2f32; cfg.d_model];
        let _ = attend_one(
            &w,
            0,
            &x1,
            &mut cache,
            cfg.n_heads,
            cfg.head_dim,
            AttnMask::Dense,
        );
        let with_history = attend_one(
            &w,
            0,
            &x2,
            &mut cache,
            cfg.n_heads,
            cfg.head_dim,
            AttnMask::Dense,
        );
        let mut fresh = KvCache::new(cfg.n_layers, cfg.d_model);
        let without = attend_one(
            &w,
            0,
            &x2,
            &mut fresh,
            cfg.n_heads,
            cfg.head_dim,
            AttnMask::Dense,
        );
        let diff: f32 = with_history
            .iter()
            .zip(&without)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max);
        assert!(diff > 1e-6, "history must influence the output");
    }

    #[test]
    fn streaming_mask_visibility_pattern() {
        let m = AttnMask::Streaming {
            sinks: 2,
            window: 3,
        };
        let mut cache = KvCache::new(1, 1);
        for _ in 0..10 {
            cache.append(0, &[0.0], &[0.0]);
        }
        let (mut visible, mut mass) = (Vec::new(), Vec::new());
        m.visible_into(&cache, 0, &mut visible, &mut mass);
        assert_eq!(visible, vec![0, 1, 7, 8, 9]);
        assert!(mass.is_empty(), "only heavy-hitter selection gathers mass");
        assert_eq!(m.visible_count(10), 5);
        assert_eq!(m.visible_count(4), 4);
        assert_eq!(AttnMask::Dense.visible_count(10), 10);
    }

    #[test]
    fn streaming_equals_dense_below_budget() {
        let (cfg, w, _) = setup();
        let mask = AttnMask::Streaming {
            sinks: 4,
            window: 8,
        };
        let mut dense_cache = KvCache::new(cfg.n_layers, cfg.d_model);
        let mut stream_cache = KvCache::new(cfg.n_layers, cfg.d_model);
        // 10 tokens < 4 + 8 budget: the masks coincide.
        for t in 0..10 {
            let x: Vec<f32> = (0..cfg.d_model)
                .map(|i| ((t * 7 + i) as f32).sin())
                .collect();
            let a = attend_one(
                &w,
                0,
                &x,
                &mut dense_cache,
                cfg.n_heads,
                cfg.head_dim,
                AttnMask::Dense,
            );
            let b = attend_one(
                &w,
                0,
                &x,
                &mut stream_cache,
                cfg.n_heads,
                cfg.head_dim,
                mask,
            );
            assert_eq!(a, b, "token {t}");
        }
    }

    fn token(seq: usize, t: usize, d: usize) -> Vec<f32> {
        (0..d)
            .map(|i| ((seq * 29 + t * 13 + i * 7) as f32 * 0.1).sin())
            .collect()
    }

    /// Warms two identical cache sets via `attend_one`, then runs `steps`
    /// group steps through `attend_batch` against per-sequence
    /// `attend_one`, asserting outputs AND cache contents stay bitwise
    /// equal throughout.
    fn check_batch_vs_one(warm: &[usize], group: &[usize], mask: AttnMask, steps: usize) {
        let cfg = MoeConfig::tiny(7);
        let layer = 1;
        let w = AttnWeights::seeded(&cfg, layer);
        let n = warm.len();
        let mut ref_caches: Vec<KvCache> = (0..n)
            .map(|_| KvCache::new(cfg.n_layers, cfg.d_model))
            .collect();
        let mut batch_caches = ref_caches.clone();
        for (s, &len) in warm.iter().enumerate() {
            for t in 0..len {
                let x = token(s, t, cfg.d_model);
                for cache in [&mut ref_caches[s], &mut batch_caches[s]] {
                    let _ = attend_one(&w, layer, &x, cache, cfg.n_heads, cfg.head_dim, mask);
                }
            }
        }
        let mut scratch = AttnScratch::new(cfg.n_heads, cfg.head_dim);
        for step in 0..steps {
            let xs: Vec<Vec<f32>> = group
                .iter()
                .map(|&s| token(s, 100 + step, cfg.d_model))
                .collect();
            let normed = scratch.input_mut(group.len());
            for (r, x) in xs.iter().enumerate() {
                normed.row_mut(r).copy_from_slice(x);
            }
            attend_batch(&w, layer, &mut batch_caches, group, mask, &mut scratch);
            for (r, &s) in group.iter().enumerate() {
                let expect = attend_one(
                    &w,
                    layer,
                    &xs[r],
                    &mut ref_caches[s],
                    cfg.n_heads,
                    cfg.head_dim,
                    mask,
                );
                assert_eq!(
                    scratch.output().row(r),
                    &expect[..],
                    "step {step} seq {s}: batched attention diverged"
                );
                assert_eq!(
                    ref_caches[s], batch_caches[s],
                    "step {step} seq {s}: cached K/V diverged"
                );
            }
        }
    }

    #[test]
    fn attend_batch_matches_attend_one_dense_ragged() {
        // Ragged warm-up lengths (incl. an empty cache), full group.
        check_batch_vs_one(&[0, 3, 1, 5], &[0, 1, 2, 3], AttnMask::Dense, 4);
    }

    #[test]
    fn attend_batch_matches_with_partial_group() {
        // Only a subset of sequences is active (non-contiguous mapping).
        check_batch_vs_one(&[2, 4, 6, 1], &[0, 2], AttnMask::Dense, 3);
    }

    #[test]
    fn attend_batch_matches_group_of_one() {
        check_batch_vs_one(&[4], &[0], AttnMask::Dense, 3);
    }

    #[test]
    fn attend_batch_matches_streaming_beyond_budget() {
        // Warm past sinks + window so the mask actually bites.
        let mask = AttnMask::Streaming {
            sinks: 1,
            window: 3,
        };
        check_batch_vs_one(&[9, 2, 12], &[0, 1, 2], mask, 4);
    }

    #[test]
    fn attend_batch_matches_heavy_hitter_beyond_budget() {
        // Warm past the budget so eviction runs in both shapes.
        let mask = AttnMask::HeavyHitter(H2oConfig {
            budget: 4,
            sinks: 1,
        });
        check_batch_vs_one(&[9, 2, 12], &[0, 1, 2], mask, 4);
    }

    #[test]
    fn attend_batch_empty_group_is_noop() {
        let cfg = MoeConfig::tiny(7);
        let w = AttnWeights::seeded(&cfg, 0);
        let mut caches = vec![KvCache::new(cfg.n_layers, cfg.d_model)];
        let (k, v) = (vec![1.0; cfg.d_model], vec![2.0; cfg.d_model]);
        caches[0].append(0, &k, &v);
        let before = caches.clone();
        let mut scratch = AttnScratch::new(cfg.n_heads, cfg.head_dim);
        scratch.input_mut(0);
        attend_batch(&w, 0, &mut caches, &[], AttnMask::Dense, &mut scratch);
        assert_eq!(scratch.output().rows(), 0);
        assert_eq!(caches, before, "empty group must not touch any cache");
    }

    #[test]
    #[should_panic(expected = "group not staged")]
    fn attend_batch_rejects_unstaged_group() {
        let cfg = MoeConfig::tiny(7);
        let w = AttnWeights::seeded(&cfg, 0);
        let mut caches = vec![KvCache::new(cfg.n_layers, cfg.d_model)];
        let mut scratch = AttnScratch::new(cfg.n_heads, cfg.head_dim);
        attend_batch(&w, 0, &mut caches, &[0], AttnMask::Dense, &mut scratch);
    }

    #[test]
    fn streaming_diverges_beyond_budget() {
        let (cfg, w, _) = setup();
        let mask = AttnMask::Streaming {
            sinks: 1,
            window: 2,
        };
        let mut dense_cache = KvCache::new(cfg.n_layers, cfg.d_model);
        let mut stream_cache = KvCache::new(cfg.n_layers, cfg.d_model);
        let mut diverged = false;
        for t in 0..8 {
            let x: Vec<f32> = (0..cfg.d_model)
                .map(|i| ((t * 3 + i) as f32).cos())
                .collect();
            let a = attend_one(
                &w,
                0,
                &x,
                &mut dense_cache,
                cfg.n_heads,
                cfg.head_dim,
                AttnMask::Dense,
            );
            let b = attend_one(
                &w,
                0,
                &x,
                &mut stream_cache,
                cfg.n_heads,
                cfg.head_dim,
                mask,
            );
            if a != b {
                diverged = true;
            }
        }
        assert!(diverged, "sparse attention must differ once len > budget");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::config::MoeConfig;
    use proptest::prelude::*;

    fn token(seq: usize, t: usize, d: usize, salt: usize) -> Vec<f32> {
        (0..d)
            .map(|i| ((seq * 29 + t * 13 + i * 7 + salt) as f32 * 0.13).sin())
            .collect()
    }

    proptest! {
        /// `attend_batch` is bit-identical to per-sequence `attend_one`
        /// for random group sizes (including 1 and the empty group),
        /// ragged cache lengths, and dense, streaming or heavy-hitter
        /// masks — outputs and caches (K/V and kept sets) alike.
        #[test]
        fn attend_batch_is_bit_identical_to_attend_one(
            n_seqs in 0usize..5,
            warm_raw in proptest::collection::vec(0usize..9, 5),
            mask_kind in 0usize..3,
            sinks in 0usize..3,
            window in 1usize..4,
            salt in 0usize..1000,
            steps in 1usize..3,
        ) {
            let cfg = MoeConfig::tiny(17);
            let layer = 0;
            let w = AttnWeights::seeded(&cfg, 0);
            let mask = match mask_kind {
                0 => AttnMask::Dense,
                1 => AttnMask::Streaming { sinks, window },
                _ => AttnMask::HeavyHitter(H2oConfig {
                    budget: sinks + window,
                    sinks,
                }),
            };
            let mut ref_caches: Vec<KvCache> = (0..n_seqs)
                .map(|_| KvCache::new(cfg.n_layers, cfg.d_model))
                .collect();
            let mut batch_caches = ref_caches.clone();
            for (s, &len) in warm_raw.iter().take(n_seqs).enumerate() {
                for t in 0..len {
                    let x = token(s, t, cfg.d_model, salt);
                    for cache in [&mut ref_caches[s], &mut batch_caches[s]] {
                        let _ = attend_one(&w, layer, &x, cache, cfg.n_heads, cfg.head_dim, mask);
                    }
                }
            }
            let group: Vec<usize> = (0..n_seqs).collect();
            let mut scratch = AttnScratch::new(cfg.n_heads, cfg.head_dim);
            for step in 0..steps {
                let xs: Vec<Vec<f32>> = group
                    .iter()
                    .map(|&s| token(s, 50 + step, cfg.d_model, salt))
                    .collect();
                let normed = scratch.input_mut(group.len());
                for (r, x) in xs.iter().enumerate() {
                    normed.row_mut(r).copy_from_slice(x);
                }
                attend_batch(&w, layer, &mut batch_caches, &group, mask, &mut scratch);
                for (r, &s) in group.iter().enumerate() {
                    let expect = attend_one(
                        &w,
                        layer,
                        &xs[r],
                        &mut ref_caches[s],
                        cfg.n_heads,
                        cfg.head_dim,
                        mask,
                    );
                    prop_assert_eq!(scratch.output().row(r), &expect[..]);
                    prop_assert_eq!(&ref_caches[s], &batch_caches[s]);
                }
            }
        }
    }
}
