//! Synthetic gating traces: which experts each token activates.
//!
//! The paper's scheduler exploits two statistical properties of real MoE
//! routing (its Fig. 5 and §3.2):
//!
//! 1. **Hot experts** — per layer, a few experts receive most tokens
//!    (top-K of 8 covering ≈54–60% in Mixtral-8×7B).
//! 2. **Inter-layer correlation** — a token's expert at layer *l* predicts
//!    its expert at layer *l+1* (the basis of the correlation-aware
//!    prefetcher, §6.2), while routing remains **data sensitive**: the hot
//!    set shifts between tasks.
//!
//! [`GatingModel`] is a generative model with exactly these properties:
//! per-layer Zipf-skewed popularity over a layer-specific expert
//! permutation, first-order Markov transitions between consecutive MoE
//! layers, and a per-task multiplicative drift. [`GatingTrace`] is a
//! materialized sample: aggregated token counts for the prefill plus
//! per-sequence top-k choices for every decode step.
//!
//! [`RequestTrace`] records the *request* level instead: a replayable
//! `(t, prompt_len, gen_len)` stream with a plain-text round-trip format,
//! so serving experiments can run recorded load (diurnal cycles, flash
//! crowds) rather than only synthetic arrival processes.

use klotski_sim::time::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::spec::ModelSpec;

/// Configuration of the gating generative model.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// Number of MoE layers.
    pub n_moe_layers: u32,
    /// Experts per MoE layer.
    pub n_experts: u32,
    /// Experts chosen per token.
    pub top_k: u32,
    /// Zipf exponent of the per-layer popularity skew (≈1.15 reproduces
    /// the paper's "top-K covers most tokens" observation for 8 experts).
    pub skew: f64,
    /// Strength of inter-layer correlation in `[0, 1]`.
    pub correlation: f64,
    /// Per-task popularity drift in `[0, 1]` (data sensitivity).
    pub drift: f64,
    /// Per-decode-step popularity drift: real routing's hot set wobbles
    /// from step to step, which is what keeps prefetch accuracy below
    /// 100% even with perfect long-run statistics (paper Fig. 13).
    pub step_drift: f64,
    /// Seed for the model's structural randomness (permutations, maps).
    pub seed: u64,
}

impl TraceConfig {
    /// Default statistical parameters for `spec`.
    ///
    /// # Panics
    ///
    /// Panics if `spec` is a dense model (no experts to route to).
    pub fn for_model(spec: &ModelSpec, seed: u64) -> Self {
        assert!(spec.is_moe(), "dense models have no gating trace");
        TraceConfig {
            n_moe_layers: spec.n_moe_layers(),
            n_experts: spec.n_experts,
            top_k: spec.top_k,
            skew: 1.15,
            correlation: 0.55,
            drift: 0.35,
            step_drift: 0.9,
            seed,
        }
    }
}

/// Generative model of expert routing.
#[derive(Debug, Clone)]
pub struct GatingModel {
    n_layers: u32,
    n_experts: u32,
    top_k: u32,
    /// `popularity[l][e]`: stationary routing probability (sums to 1 per layer).
    popularity: Vec<Vec<f64>>,
    /// `affinity_map[l][e_prev]`: the "aligned" expert at MoE layer `l`
    /// given the first choice at layer `l-1`.
    affinity_map: Vec<Vec<u16>>,
    /// Correlation strength.
    correlation: f64,
    /// Per-step popularity wobble strength.
    step_drift: f64,
    /// Seed for per-step modulation streams.
    seed: u64,
}

impl GatingModel {
    /// Builds the base model for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `top_k` is zero or exceeds `n_experts`.
    pub fn new(cfg: &TraceConfig) -> Self {
        assert!(cfg.top_k > 0, "top_k must be positive");
        assert!(cfg.top_k <= cfg.n_experts, "top_k cannot exceed n_experts");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let e = cfg.n_experts as usize;
        let mut popularity = Vec::with_capacity(cfg.n_moe_layers as usize);
        let mut affinity_map = Vec::with_capacity(cfg.n_moe_layers as usize);
        for _ in 0..cfg.n_moe_layers {
            // Zipf weights assigned to a random permutation of the experts,
            // so each layer has its own hot set (as in the paper's Fig. 5).
            let mut perm: Vec<usize> = (0..e).collect();
            shuffle(&mut perm, &mut rng);
            let mut weights = vec![0.0; e];
            for (rank, &expert) in perm.iter().enumerate() {
                weights[expert] = 1.0 / ((rank + 1) as f64).powf(cfg.skew);
            }
            normalize(&mut weights);
            popularity.push(weights);
            // Each previous-layer expert maps to one "aligned" expert here.
            let mut map: Vec<u16> = (0..e as u16).collect();
            shuffle(&mut map, &mut rng);
            affinity_map.push(map);
        }
        GatingModel {
            n_layers: cfg.n_moe_layers,
            n_experts: cfg.n_experts,
            top_k: cfg.top_k,
            popularity,
            affinity_map,
            correlation: cfg.correlation,
            step_drift: cfg.step_drift,
            seed: cfg.seed,
        }
    }

    /// Number of MoE layers.
    pub fn n_moe_layers(&self) -> u32 {
        self.n_layers
    }

    /// Experts per layer.
    pub fn n_experts(&self) -> u32 {
        self.n_experts
    }

    /// Experts per token.
    pub fn top_k(&self) -> u32 {
        self.top_k
    }

    /// A task-specific variant: popularity perturbed multiplicatively by
    /// `drift`, re-normalized. Models the paper's observation that hot
    /// experts change with the input data.
    pub fn drifted(&self, drift: f64, task_seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(task_seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut out = self.clone();
        for layer in &mut out.popularity {
            for w in layer.iter_mut() {
                // log-uniform multiplicative noise in [e^-d, e^d].
                let u: f64 = rng.gen_range(-drift..=drift);
                *w *= u.exp();
            }
            normalize(layer);
        }
        out
    }

    /// Stationary routing distribution at MoE layer `l`.
    pub fn popularity(&self, l: u32) -> &[f64] {
        &self.popularity[l as usize]
    }

    /// The model-level hot experts of MoE layer `l` (top `k` by popularity).
    pub fn hot_experts(&self, l: u32, k: u32) -> Vec<u16> {
        let mut idx: Vec<u16> = (0..self.n_experts as u16).collect();
        idx.sort_by(|&a, &b| {
            self.popularity[l as usize][b as usize]
                .total_cmp(&self.popularity[l as usize][a as usize])
        });
        idx.truncate(k as usize);
        idx
    }

    /// Writes layer `l`'s routing distribution conditioned on the previous
    /// MoE layer's first choice, over base distribution `pop`, into `out`.
    fn conditional_into(&self, l: u32, prev: Option<u16>, pop: &[f64], out: &mut [f64]) {
        match prev {
            None => out.copy_from_slice(pop),
            Some(p) => {
                let aligned = self.affinity_map[l as usize][p as usize] as usize;
                for (o, w) in out.iter_mut().zip(pop) {
                    *o = w * (1.0 - self.correlation);
                }
                out[aligned] += self.correlation;
            }
        }
    }

    /// The per-step modulated popularity of layer `l` at decode step
    /// `step` — the long-run distribution perturbed by a step-local
    /// log-uniform wobble, modelling the data-sensitivity of routing
    /// within one batch of inputs.
    fn step_popularity(&self, l: u32, step: u32) -> Vec<f64> {
        let mut pop = self.popularity[l as usize].clone();
        if self.step_drift > 0.0 {
            let mut rng = StdRng::seed_from_u64(
                self.seed
                    ^ (step as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    ^ (l as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9),
            );
            for w in pop.iter_mut() {
                let u: f64 = rng.gen_range(-self.step_drift..=self.step_drift);
                *w *= u.exp();
            }
            normalize(&mut pop);
        }
        pop
    }

    /// Walks `n_tokens` tokens through all MoE layers, invoking `visit`
    /// with `(moe_layer, previous_first_choice, choices)` at every layer.
    ///
    /// This is the "pre-run" primitive the correlation-aware prefetcher
    /// uses to build its expert correlation table (§6.2 / §8 of the paper).
    ///
    /// # Exactness
    ///
    /// Each pick is the draw of a direct implementation: build the layer's
    /// distribution conditioned on the previous first choice, sum it in
    /// order, set `x = u · sum` from one `next_u64`, and return the first
    /// expert at which `x − w_0 − … − w_i` reaches zero. Later picks zero
    /// the experts already drawn and repeat. The walk makes the same picks
    /// from the same random stream without rebuilding anything per token:
    ///
    /// * It tabulates every conditional distribution once, with its
    ///   sequential sum: one row for layer 0, and one per previous first
    ///   choice for each later layer.
    /// * Rounded subtraction is monotone, so the scan's answer is a
    ///   non-decreasing step function of `x`. The scan returns `i` or later
    ///   exactly when `x` is at or above a threshold `t_i`, the least `f64`
    ///   at which it does, so its answer is the number of thresholds at or
    ///   below `x`. The walk finds each of a row's `E − 1` thresholds once,
    ///   by searching `f64` bit patterns with the scan as the predicate,
    ///   and draws first picks by counting them. A second pick counts the
    ///   thresholds of the row with the first pick zeroed, against that
    ///   row's own sum. Later picks use the scan.
    ///
    /// # Size rule
    ///
    /// Finding a threshold takes a few scans of up to `E` steps, and a
    /// layer holds `E · (E − 1)` first-pick thresholds, `E + 1` times as
    /// many with second picks. The walk builds them only when it draws at
    /// least eight picks from the tables per threshold: from about 2k
    /// tokens at Mixtral's 8 experts, and not at switch-base-128's
    /// 4096-token warm-up. Smaller walks draw every pick with the scan
    /// from the tabulated rows.
    pub fn for_each_token_walk<F>(&self, n_tokens: u32, seed: u64, visit: F)
    where
        F: FnMut(u32, Option<u16>, &[u16]),
    {
        let lookups = u64::from(n_tokens) >= self.lookup_min_tokens();
        self.walk(n_tokens, seed, lookups, visit);
    }

    /// The fewest walk tokens that repay threshold lookups. Each of a
    /// layer's `E` rows holds `E − 1` first-pick thresholds, plus
    /// `E · (E − 1)` second-pick ones at top-k ≥ 2, and the layer draws
    /// one or two picks per token from them.
    fn lookup_min_tokens(&self) -> u64 {
        let e = u64::from(self.n_experts);
        let (picks, per_row) = match self.top_k {
            1 => (1, e - 1),
            _ => (2, (e - 1) * (1 + e)),
        };
        (DRAWS_PER_THRESHOLD * e * per_row).div_ceil(picks)
    }

    /// [`for_each_token_walk`](GatingModel::for_each_token_walk), with the
    /// size rule's verdict on threshold lookups given.
    fn walk<F>(&self, n_tokens: u32, seed: u64, lookups: bool, mut visit: F)
    where
        F: FnMut(u32, Option<u16>, &[u16]),
    {
        let tables = WalkTables::build(self, lookups);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut choices = vec![0u16; self.top_k as usize];
        let mut dist = vec![0.0; self.n_experts as usize];
        // analyze: no_alloc
        for _ in 0..n_tokens {
            let mut prev: Option<u16> = None;
            for l in 0..self.n_layers {
                tables.draw(l, prev, &mut rng, &mut choices, &mut dist);
                visit(l, prev, &choices);
                prev = Some(choices[0]);
            }
        }
    }

    /// Materializes a trace for `n_seqs` sequences: aggregated prefill
    /// counts (`prompt_len` tokens per sequence) and per-sequence choices
    /// for `gen_len` decode steps.
    pub fn generate_trace(
        &self,
        n_seqs: u32,
        prompt_len: u32,
        gen_len: u32,
        seed: u64,
    ) -> GatingTrace {
        let e = self.n_experts as usize;
        let layers = self.n_layers as usize;
        let k = self.top_k as usize;
        let mut rng = StdRng::seed_from_u64(seed);

        // Prefill: expected counts with largest-remainder rounding. The
        // engines only consume aggregate per-expert token counts here, and
        // at prompt × batch scale the law of large numbers makes the
        // expectation the right summary.
        let total_routed = n_seqs as u64 * prompt_len as u64 * self.top_k as u64;
        let mut prefill_counts = vec![0u32; layers * e];
        for l in 0..layers {
            let counts = apportion(self.popularity(l as u32), total_routed);
            prefill_counts[l * e..(l + 1) * e]
                .copy_from_slice(&counts.iter().map(|&c| c as u32).collect::<Vec<_>>());
        }

        // Decode: exact per-sequence sampling with inter-layer correlation
        // and step-level popularity wobble, drawn straight into the trace.
        let mut decode = vec![0u16; gen_len as usize * layers * n_seqs as usize * k];
        let mut dist = vec![0.0; e];
        for step in 0..gen_len {
            let step_pops: Vec<Vec<f64>> = (0..layers as u32)
                .map(|l| self.step_popularity(l, step))
                .collect();
            for seq in 0..n_seqs as usize {
                let mut prev: Option<u16> = None;
                for (l, pops) in step_pops.iter().enumerate() {
                    self.conditional_into(l as u32, prev, pops, &mut dist);
                    let base = ((step as usize * layers + l) * n_seqs as usize + seq) * k;
                    let choices = &mut decode[base..base + k];
                    sample_into(&mut dist, choices, &mut rng);
                    prev = Some(choices[0]);
                }
            }
        }

        GatingTrace {
            n_moe_layers: self.n_layers,
            n_experts: self.n_experts,
            top_k: self.top_k,
            n_seqs,
            prompt_len,
            gen_len,
            prefill_counts,
            decode,
        }
    }
}

/// A walk builds threshold lookups only when it makes at least this many
/// table draws per threshold it builds (see
/// [`GatingModel::for_each_token_walk`]). On a 2-core x86-64 host,
/// lookups broke even at 1–4 draws per threshold on Mixtral-8×7B and
/// switch-base-16/32.
const DRAWS_PER_THRESHOLD: u64 = 8;

/// The conditional distributions of one token walk, tabulated once per
/// walk. Row 0 is layer 0, which has no previous choice; row
/// `1 + (l − 1)·E + p` is layer `l ≥ 1` after first choice `p`.
struct WalkTables {
    n_experts: usize,
    /// `[row][expert]` weights, as `conditional_into` builds them.
    weights: Vec<f64>,
    /// `[row]` sequential sums of the weights.
    totals: Vec<f64>,
    /// `[row][i − 1]` first-pick thresholds; empty when lookups do not pay.
    first: Vec<f64>,
    /// `[row][c]` sums with first pick `c` zeroed; empty when `second` is.
    totals_without: Vec<f64>,
    /// `[row][c][i − 1]` second-pick thresholds after first pick `c`;
    /// empty when lookups do not pay or `top_k` is 1.
    second: Vec<f64>,
}

impl WalkTables {
    fn build(model: &GatingModel, lookups: bool) -> Self {
        let e = model.n_experts as usize;
        let n_rows = match model.n_layers as usize {
            0 => 0,
            l => 1 + (l - 1) * e,
        };
        let mut weights = vec![0.0; n_rows * e];
        for (r, row) in weights.chunks_exact_mut(e).enumerate() {
            let (l, prev) = match r {
                0 => (0, None),
                r => (1 + (r - 1) / e, Some(((r - 1) % e) as u16)),
            };
            model.conditional_into(l as u32, prev, &model.popularity[l], row);
        }
        let totals = weights
            .chunks_exact(e)
            .map(|row| row.iter().sum())
            .collect();
        let mut tables = WalkTables {
            n_experts: e,
            weights,
            totals,
            first: Vec::new(),
            totals_without: Vec::new(),
            second: Vec::new(),
        };
        if !lookups || e < 2 {
            return tables;
        }
        tables.first = vec![0.0; n_rows * (e - 1)];
        for (row, out) in tables
            .weights
            .chunks_exact(e)
            .zip(tables.first.chunks_exact_mut(e - 1))
        {
            thresholds_into(row, out);
        }
        if model.top_k < 2 {
            return tables;
        }
        tables.totals_without = vec![0.0; n_rows * e];
        tables.second = vec![0.0; n_rows * e * (e - 1)];
        let mut dist = vec![0.0; e];
        let mut outs = tables.second.chunks_exact_mut(e - 1);
        for (row, sums) in tables
            .weights
            .chunks_exact(e)
            .zip(tables.totals_without.chunks_exact_mut(e))
        {
            for ((c, sum), out) in sums.iter_mut().enumerate().zip(&mut outs) {
                dist.copy_from_slice(row);
                dist[c] = 0.0;
                *sum = dist.iter().sum();
                thresholds_into(&dist, out);
            }
        }
        tables
    }

    /// Draws one token's `choices` at MoE layer `l` after first choice
    /// `prev`, exactly as [`sample_into`] draws them from that row's
    /// distribution. `dist` is scratch space of one row.
    // analyze: no_alloc
    fn draw(
        &self,
        l: u32,
        prev: Option<u16>,
        rng: &mut StdRng,
        choices: &mut [u16],
        dist: &mut [f64],
    ) {
        let e = self.n_experts;
        let row = match prev {
            None => 0,
            Some(p) => 1 + (l as usize - 1) * e + p as usize,
        };
        let weights = &self.weights[row * e..(row + 1) * e];
        let x = rng.gen::<f64>() * self.totals[row];
        let first = if self.first.is_empty() {
            scan(weights, x)
        } else {
            threshold_count(&self.first[row * (e - 1)..(row + 1) * (e - 1)], x)
        };
        choices[0] = first as u16;
        let mut drawn = 1;
        if !self.second.is_empty() {
            let at = row * e + first;
            let x = rng.gen::<f64>() * self.totals_without[at];
            choices[1] = threshold_count(&self.second[at * (e - 1)..(at + 1) * (e - 1)], x) as u16;
            drawn = 2;
        }
        if drawn < choices.len() {
            dist.copy_from_slice(weights);
            for &c in &choices[..drawn] {
                dist[c as usize] = 0.0;
            }
            sample_into(dist, &mut choices[drawn..], rng);
        }
    }
}

/// A materialized routing trace: the ground truth engines execute against.
#[derive(Debug, Clone)]
pub struct GatingTrace {
    n_moe_layers: u32,
    n_experts: u32,
    top_k: u32,
    n_seqs: u32,
    prompt_len: u32,
    gen_len: u32,
    /// `[moe_layer][expert]` routed-token counts over the whole prefill.
    prefill_counts: Vec<u32>,
    /// `[step][moe_layer][seq][k]`, flattened.
    decode: Vec<u16>,
}

impl GatingTrace {
    /// Number of MoE layers.
    pub fn n_moe_layers(&self) -> u32 {
        self.n_moe_layers
    }

    /// Experts per layer.
    pub fn n_experts(&self) -> u32 {
        self.n_experts
    }

    /// Experts per token.
    pub fn top_k(&self) -> u32 {
        self.top_k
    }

    /// Number of sequences.
    pub fn n_seqs(&self) -> u32 {
        self.n_seqs
    }

    /// Prompt length used for the prefill aggregates.
    pub fn prompt_len(&self) -> u32 {
        self.prompt_len
    }

    /// Number of decode steps.
    pub fn gen_len(&self) -> u32 {
        self.gen_len
    }

    /// Routed-token counts per expert for the prefill at `moe_layer`.
    pub fn prefill_tokens_per_expert(&self, moe_layer: u32) -> &[u32] {
        let e = self.n_experts as usize;
        let l = moe_layer as usize;
        &self.prefill_counts[l * e..(l + 1) * e]
    }

    /// All sequences' top-k choices at (`step`, `moe_layer`), flattened with
    /// stride [`top_k`](GatingTrace::top_k).
    pub fn decode_choices(&self, step: u32, moe_layer: u32) -> &[u16] {
        let k = self.top_k as usize;
        let n = self.n_seqs as usize;
        let layers = self.n_moe_layers as usize;
        let base = ((step as usize * layers) + moe_layer as usize) * n * k;
        &self.decode[base..base + n * k]
    }

    /// One sequence's top-k choices at (`step`, `moe_layer`).
    pub fn seq_choices(&self, step: u32, moe_layer: u32, seq: u32) -> &[u16] {
        let k = self.top_k as usize;
        let all = self.decode_choices(step, moe_layer);
        &all[seq as usize * k..(seq as usize + 1) * k]
    }

    /// Routed-token counts per expert at decode (`step`, `moe_layer`),
    /// restricted to sequences `[seq_from, seq_to)`, into a reused buffer:
    /// `counts` is overwritten with one count per expert.
    // analyze: no_alloc
    pub fn tokens_per_expert_into(
        &self,
        step: u32,
        moe_layer: u32,
        seq_from: u32,
        seq_to: u32,
        counts: &mut Vec<u32>,
    ) {
        counts.clear();
        counts.resize(self.n_experts as usize, 0);
        let k = self.top_k as usize;
        let all = self.decode_choices(step, moe_layer);
        for seq in seq_from..seq_to {
            for &e in &all[seq as usize * k..(seq as usize + 1) * k] {
                counts[e as usize] += 1;
            }
        }
    }

    /// Routed-token counts per expert at decode (`step`, `moe_layer`) over
    /// all sequences.
    pub fn tokens_per_expert(&self, step: u32, moe_layer: u32) -> Vec<u32> {
        let mut counts = Vec::new();
        self.tokens_per_expert_into(step, moe_layer, 0, self.n_seqs, &mut counts);
        counts
    }

    /// The experts that receive at least one token at (`step`, `moe_layer`).
    pub fn activated(&self, step: u32, moe_layer: u32) -> Vec<u16> {
        self.tokens_per_expert(step, moe_layer)
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(e, _)| e as u16)
            .collect()
    }

    /// The `k` most-requested experts at (`step`, `moe_layer`) — the
    /// *actual* hot experts of that step, used to score prefetch accuracy.
    pub fn step_hot_experts(&self, step: u32, moe_layer: u32, k: u32) -> Vec<u16> {
        let counts = self.tokens_per_expert(step, moe_layer);
        let mut idx: Vec<u16> = (0..self.n_experts as u16).collect();
        idx.sort_by_key(|&e| std::cmp::Reverse(counts[e as usize]));
        idx.truncate(k as usize);
        idx
    }

    /// Total routed tokens per expert at `moe_layer` across prefill and all
    /// decode steps (the Fig. 5 heatmap column).
    pub fn popularity_counts(&self, moe_layer: u32) -> Vec<u64> {
        let mut counts: Vec<u64> = self
            .prefill_tokens_per_expert(moe_layer)
            .iter()
            .map(|&c| c as u64)
            .collect();
        for step in 0..self.gen_len {
            for (e, c) in self.tokens_per_expert(step, moe_layer).iter().enumerate() {
                counts[e] += *c as u64;
            }
        }
        counts
    }
}

// ---- helpers ----------------------------------------------------------

fn normalize(weights: &mut [f64]) {
    let total: f64 = weights.iter().sum();
    if total > 0.0 {
        for w in weights.iter_mut() {
            *w /= total;
        }
    }
}

/// The reference draw from `weights` at `x = u · total`: the first
/// positive-weight index at which the running remainder
/// `x − w_0 − … − w_i` reaches zero. Zero weights are skipped, so an
/// expert already drawn (and zeroed) is never drawn again, not even at
/// `x = 0`; a remainder that rounding leaves above zero falls back to
/// the last positive weight (index 0 if there is none).
fn scan(weights: &[f64], mut x: f64) -> usize {
    let mut last = 0;
    for (i, &w) in weights.iter().enumerate() {
        if w > 0.0 {
            last = i;
            x -= w;
            if x <= 0.0 {
                return i;
            }
        }
    }
    last
}

/// One draw from `weights`: one `next_u64`, scaled by the sequential sum.
fn sample_index(weights: &[f64], rng: &mut StdRng) -> usize {
    let total: f64 = weights.iter().sum();
    debug_assert!(total > 0.0, "cannot sample from all-zero weights");
    scan(weights, rng.gen::<f64>() * total)
}

/// Draws `out.len()` distinct experts from `dist` without replacement,
/// zeroing each one in `dist` as it is drawn.
fn sample_into(dist: &mut [f64], out: &mut [u16], rng: &mut StdRng) {
    for o in out.iter_mut() {
        let i = sample_index(dist, rng);
        *o = i as u16;
        dist[i] = 0.0;
    }
}

/// Bit pattern of `+∞`, the top of the non-negative `f64` range. For
/// non-negative floats, bit-pattern order is numeric order.
const INF_BITS: u64 = 0x7ff0_0000_0000_0000;

/// Fills `out[i − 1]`, for each `i` in `1..weights.len()`, with the least
/// `x ≥ 0` at which [`scan`] returns `i` or later (`+∞` when no positive
/// weight sits at or after `i`). The scan is non-decreasing in `x`, since
/// each rounded subtraction is, so afterwards
/// `scan(weights, x) == threshold_count(out, x)` for every finite `x ≥ 0`.
fn thresholds_into(weights: &[f64], out: &mut [f64]) {
    let last = weights.iter().rposition(|&w| w > 0.0).unwrap_or(0);
    let mut lo = 0;
    let mut prefix = 0.0;
    for (i, t) in (1..).zip(out.iter_mut()) {
        prefix += weights[i - 1];
        if i > last {
            *t = f64::INFINITY;
            continue;
        }
        lo = least_true(lo, prefix.to_bits(), |bits| {
            scan(weights, f64::from_bits(bits)) >= i
        });
        *t = f64::from_bits(lo);
    }
}

/// The least bit pattern `b ≥ lo` with `reaches(b)`, for a predicate that
/// is monotone in `b` and true at [`INF_BITS`]. Doubling steps out from
/// `guess` bracket the boundary, and bisection closes the bracket.
fn least_true(mut lo: u64, guess: u64, reaches: impl Fn(u64) -> bool) -> u64 {
    if reaches(lo) {
        return lo;
    }
    let mut hi = INF_BITS;
    let mut probe = guess.max(lo + 1);
    let mut step = 1u64;
    while lo < probe && probe < hi {
        if reaches(probe) {
            hi = probe;
            probe = probe.saturating_sub(step);
        } else {
            lo = probe;
            probe = probe.saturating_add(step);
        }
        step = step.saturating_mul(2);
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if reaches(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// The number of `thresholds` at or below `x`: the scan's answer at `x`,
/// for thresholds built by [`thresholds_into`].
fn threshold_count(thresholds: &[f64], x: f64) -> usize {
    thresholds.iter().map(|&t| usize::from(x >= t)).sum()
}

/// Fisher–Yates shuffle (local, to avoid depending on rand's `slice` feature
/// surface changing between versions).
fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

/// Largest-remainder apportionment of `total` into integer counts ∝ `weights`.
fn apportion(weights: &[f64], total: u64) -> Vec<u64> {
    let sum: f64 = weights.iter().sum();
    if sum <= 0.0 || total == 0 {
        return vec![0; weights.len()];
    }
    let exact: Vec<f64> = weights.iter().map(|w| w / sum * total as f64).collect();
    let mut counts: Vec<u64> = exact.iter().map(|&x| x.floor() as u64).collect();
    let assigned: u64 = counts.iter().sum();
    let mut remainders: Vec<(usize, f64)> = exact
        .iter()
        .enumerate()
        .map(|(i, &x)| (i, x - x.floor()))
        .collect();
    remainders.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    for &(i, _) in remainders.iter().take((total - assigned) as usize) {
        counts[i] += 1;
    }
    counts
}

/// One recorded request in a [`RequestTrace`]: when it arrived and its
/// token shape. The serving layer replays these verbatim (ids assigned in
/// row order), so a recorded production stream — diurnal cycles, flash
/// crowds and all — can be re-served under any policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRow {
    /// Arrival instant.
    pub at: SimTime,
    /// Prompt length in tokens (≥ 1).
    pub prompt_len: u32,
    /// Tokens to generate (≥ 1).
    pub gen_len: u32,
}

/// A recorded `(t, prompt_len, gen_len)` request trace.
///
/// The text format is one row per line — `arrival_nanos prompt_len
/// gen_len`, whitespace-separated — with `#`-prefixed comment lines
/// ignored, so traces can be versioned, diffed, and hand-edited.
/// [`to_text`](RequestTrace::to_text) / [`parse`](RequestTrace::parse)
/// round-trip exactly.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RequestTrace {
    /// The recorded rows, in arrival order.
    pub rows: Vec<TraceRow>,
}

impl RequestTrace {
    /// Records a trace from `(arrival, prompt_len, gen_len)` tuples.
    ///
    /// # Panics
    ///
    /// Panics if rows are not in non-decreasing arrival order or any
    /// length is zero — a trace that cannot have been observed.
    pub fn record(rows: impl IntoIterator<Item = (SimTime, u32, u32)>) -> Self {
        let rows: Vec<TraceRow> = rows
            .into_iter()
            .map(|(at, prompt_len, gen_len)| {
                assert!(
                    prompt_len > 0 && gen_len > 0,
                    "trace rows need positive lengths"
                );
                TraceRow {
                    at,
                    prompt_len,
                    gen_len,
                }
            })
            .collect();
        assert!(
            rows.windows(2).all(|w| w[0].at <= w[1].at),
            "trace rows must be in arrival order"
        );
        RequestTrace { rows }
    }

    /// Serializes to the line-per-row text format.
    pub fn to_text(&self) -> String {
        let mut out = String::from("# klotski request trace: arrival_nanos prompt_len gen_len\n");
        for r in &self.rows {
            out.push_str(&format!(
                "{} {} {}\n",
                r.at.as_nanos(),
                r.prompt_len,
                r.gen_len
            ));
        }
        out
    }

    /// Parses the text format produced by [`to_text`](RequestTrace::to_text).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line: wrong field
    /// count, unparsable number, zero length, or out-of-order arrival.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut rows = Vec::new();
        let mut last = SimTime::ZERO;
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [at, prompt, gen] = fields[..] else {
                return Err(format!(
                    "line {}: expected 3 fields, got {}",
                    lineno + 1,
                    fields.len()
                ));
            };
            let parse_u64 = |s: &str, what: &str| {
                s.parse::<u64>()
                    .map_err(|e| format!("line {}: bad {what} {s:?}: {e}", lineno + 1))
            };
            let at = SimTime::from_nanos(parse_u64(at, "arrival")?);
            let prompt_len = parse_u64(prompt, "prompt_len")? as u32;
            let gen_len = parse_u64(gen, "gen_len")? as u32;
            if prompt_len == 0 || gen_len == 0 {
                return Err(format!("line {}: lengths must be positive", lineno + 1));
            }
            if at < last {
                return Err(format!("line {}: arrivals out of order", lineno + 1));
            }
            last = at;
            rows.push(TraceRow {
                at,
                prompt_len,
                gen_len,
            });
        }
        Ok(RequestTrace { rows })
    }

    /// Number of recorded requests.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixtral_model() -> GatingModel {
        let cfg = TraceConfig::for_model(&ModelSpec::mixtral_8x7b(), 42);
        GatingModel::new(&cfg)
    }

    /// The walk as first written: it rebuilds, re-sums and re-draws every
    /// token's distribution from scratch. The table-driven walk must
    /// match it draw for draw.
    fn reference_walk(
        m: &GatingModel,
        n_tokens: u32,
        seed: u64,
        mut visit: impl FnMut(u32, Option<u16>, &[u16]),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..n_tokens {
            let mut prev: Option<u16> = None;
            for l in 0..m.n_layers {
                let pop = &m.popularity[l as usize];
                let mut dist = match prev {
                    None => pop.to_vec(),
                    Some(p) => {
                        let aligned = m.affinity_map[l as usize][p as usize] as usize;
                        let mut dist: Vec<f64> =
                            pop.iter().map(|w| w * (1.0 - m.correlation)).collect();
                        dist[aligned] += m.correlation;
                        dist
                    }
                };
                let mut choices = Vec::with_capacity(m.top_k as usize);
                for _ in 0..m.top_k {
                    let idx = sample_index(&dist, &mut rng);
                    choices.push(idx as u16);
                    dist[idx] = 0.0;
                }
                visit(l, prev, &choices);
                prev = Some(choices[0]);
            }
        }
    }

    /// A visitor that flattens every `(layer, prev, choices)` visit.
    fn record(out: &mut Vec<u32>) -> impl FnMut(u32, Option<u16>, &[u16]) + '_ {
        move |l, prev, choices| {
            out.push(l);
            out.push(prev.map_or(u32::MAX, u32::from));
            out.extend(choices.iter().map(|&c| u32::from(c)));
        }
    }

    /// Asserts that the walk, with and without threshold lookups and as
    /// the size rule picks, visits exactly what the reference walk does.
    fn assert_walks_match(m: &GatingModel, n_tokens: u32, seed: u64) {
        let mut want = Vec::new();
        reference_walk(m, n_tokens, seed, record(&mut want));
        let mut walks: Vec<(&str, Vec<u32>)> = Vec::new();
        for (name, lookups) in [("scan", false), ("lookup", true)] {
            let mut got = Vec::new();
            m.walk(n_tokens, seed, lookups, record(&mut got));
            walks.push((name, got));
        }
        let mut got = Vec::new();
        m.for_each_token_walk(n_tokens, seed, record(&mut got));
        walks.push(("sized", got));
        for (name, got) in walks {
            let first_diff = got.iter().zip(&want).position(|(a, b)| a != b);
            assert!(
                got.len() == want.len() && first_diff.is_none(),
                "{name} walk of {n_tokens} tokens, seed {seed}, E = {}: lengths {} vs {}, \
                 first difference at {first_diff:?}",
                m.n_experts,
                got.len(),
                want.len(),
            );
        }
    }

    #[test]
    fn walks_match_the_reference_on_mixtral() {
        for spec in [ModelSpec::mixtral_8x7b(), ModelSpec::mixtral_8x22b()] {
            for seed in [1, 42] {
                let m = GatingModel::new(&TraceConfig::for_model(&spec, seed));
                let edge = m.lookup_min_tokens() as u32;
                assert_walks_match(&m, edge - 1, 0xC0FFEE ^ seed);
                assert_walks_match(&m, edge, seed + 3);
                assert_walks_match(&m.drifted(0.35, seed), edge, seed + 5);
            }
        }
    }

    #[test]
    fn walks_match_the_reference_on_switch_base() {
        for seed in [2, 9] {
            let m = GatingModel::new(&TraceConfig::for_model(&ModelSpec::switch_base(16), seed));
            let edge = m.lookup_min_tokens() as u32;
            assert_walks_match(&m, edge - 1, seed);
            assert_walks_match(&m, edge, seed + 1);
            // At 128 experts the rule's edge is about 130k tokens; the
            // forced lookups cover that side.
            let m = GatingModel::new(&TraceConfig::for_model(&ModelSpec::switch_base(128), seed));
            assert_walks_match(&m, 400, seed + 2);
        }
    }

    #[test]
    fn walks_match_the_reference_at_top_3() {
        for seed in [3, 11, 12] {
            let cfg = TraceConfig {
                n_moe_layers: 6,
                n_experts: 8,
                top_k: 3,
                skew: 1.15,
                correlation: 0.55,
                drift: 0.0,
                step_drift: 0.0,
                seed,
            };
            let m = GatingModel::new(&cfg);
            let edge = m.lookup_min_tokens() as u32;
            assert_walks_match(&m, edge - 1, seed);
            assert_walks_match(&m, edge, seed + 1);
        }
    }

    #[test]
    fn size_rule_at_the_engines_4096_token_warm_up() {
        let min_tokens = |spec: ModelSpec| {
            GatingModel::new(&TraceConfig::for_model(&spec, 1)).lookup_min_tokens()
        };
        assert!(min_tokens(ModelSpec::mixtral_8x7b()) <= 4096);
        assert!(min_tokens(ModelSpec::mixtral_8x22b()) <= 4096);
        assert!(min_tokens(ModelSpec::switch_base(16)) <= 4096);
        assert!(min_tokens(ModelSpec::switch_base(128)) > 4096);
    }

    #[test]
    fn scan_never_redraws_a_zeroed_expert_at_zero() {
        // `0 − 0 <= 0` once returned the zeroed expert 0 here.
        assert_eq!(scan(&[0.0, 0.5, 0.5], 0.0), 1);
        assert_eq!(scan(&[0.0, 0.0, 0.5], 0.0), 2);
    }

    #[test]
    fn scan_falls_back_to_the_last_positive_weight() {
        // A remainder left above zero once fell back to the zeroed last
        // expert.
        assert_eq!(scan(&[0.25, 0.75, 0.0], 2.0), 1);
        assert_eq!(scan(&[0.25, 0.75, 0.0, 0.0], f64::INFINITY), 1);
        assert_eq!(scan(&[0.0, 0.0], 1.0), 0, "no positive weight at all");
    }

    #[test]
    fn popularity_is_normalized_and_skewed() {
        let m = mixtral_model();
        for l in 0..m.n_moe_layers() {
            let p = m.popularity(l);
            let sum: f64 = p.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
            // Top-2 of 8 covers a majority-ish share (paper: ≈54%).
            let hot = m.hot_experts(l, 2);
            let share: f64 = hot.iter().map(|&e| p[e as usize]).sum();
            assert!(
                (0.45..0.75).contains(&share),
                "layer {l}: top-2 share = {share}"
            );
        }
    }

    #[test]
    fn hot_sets_differ_across_layers() {
        let m = mixtral_model();
        let sets: Vec<Vec<u16>> = (0..m.n_moe_layers()).map(|l| m.hot_experts(l, 2)).collect();
        let distinct: std::collections::HashSet<&Vec<u16>> = sets.iter().collect();
        assert!(distinct.len() > 4, "hot sets should vary across layers");
    }

    #[test]
    fn trace_dimensions_are_consistent() {
        let m = mixtral_model();
        let t = m.generate_trace(48, 512, 8, 7);
        assert_eq!(t.n_seqs(), 48);
        assert_eq!(t.gen_len(), 8);
        assert_eq!(t.decode_choices(0, 0).len(), 48 * 2);
        assert_eq!(t.seq_choices(3, 5, 10).len(), 2);
        let counts = t.tokens_per_expert(0, 0);
        let total: u32 = counts.iter().sum();
        assert_eq!(total, 48 * 2);
    }

    #[test]
    fn topk_choices_are_distinct() {
        let m = mixtral_model();
        let t = m.generate_trace(16, 512, 4, 3);
        for step in 0..4 {
            for l in 0..t.n_moe_layers() {
                for seq in 0..16 {
                    let c = t.seq_choices(step, l, seq);
                    assert_ne!(c[0], c[1], "duplicate expert in top-2");
                }
            }
        }
    }

    #[test]
    fn prefill_counts_sum_exactly() {
        let m = mixtral_model();
        let t = m.generate_trace(24, 512, 1, 3);
        for l in 0..t.n_moe_layers() {
            let total: u64 = t
                .prefill_tokens_per_expert(l)
                .iter()
                .map(|&c| c as u64)
                .sum();
            assert_eq!(total, 24 * 512 * 2);
        }
    }

    #[test]
    fn traces_are_reproducible() {
        let m = mixtral_model();
        let a = m.generate_trace(8, 128, 4, 11);
        let b = m.generate_trace(8, 128, 4, 11);
        assert_eq!(a.decode_choices(2, 9), b.decode_choices(2, 9));
        let c = m.generate_trace(8, 128, 4, 12);
        assert_ne!(a.decode, c.decode);
    }

    #[test]
    fn correlation_makes_walks_predictable() {
        // With correlation, knowing the previous layer's choice must beat
        // the marginal at predicting the current choice.
        let cfg = TraceConfig {
            n_moe_layers: 8,
            n_experts: 8,
            top_k: 1,
            skew: 1.15,
            correlation: 0.6,
            drift: 0.0,
            step_drift: 0.0,
            seed: 5,
        };
        let m = GatingModel::new(&cfg);
        let mut aligned_hits = 0u32;
        let mut total = 0u32;
        m.for_each_token_walk(2000, 99, |l, prev, choices| {
            if let Some(p) = prev {
                total += 1;
                if m.affinity_map[l as usize][p as usize] == choices[0] {
                    aligned_hits += 1;
                }
            }
        });
        let rate = aligned_hits as f64 / total as f64;
        // Must be well above the ~1/8 + hot-expert base rate.
        assert!(rate > 0.45, "aligned-transition rate = {rate}");
    }

    #[test]
    fn drift_changes_hot_sets_sometimes() {
        let m = mixtral_model();
        let d = m.drifted(0.8, 123);
        let changed = (0..m.n_moe_layers())
            .filter(|&l| m.hot_experts(l, 2) != d.hot_experts(l, 2))
            .count();
        assert!(changed > 0, "strong drift should move some hot sets");
        // And popularity still normalized.
        for l in 0..d.n_moe_layers() {
            let sum: f64 = d.popularity(l).iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn activated_and_hot_are_consistent() {
        let m = mixtral_model();
        let t = m.generate_trace(64, 512, 2, 17);
        for l in 0..t.n_moe_layers() {
            let activated = t.activated(0, l);
            assert!(!activated.is_empty());
            let hot = t.step_hot_experts(0, l, 2);
            assert_eq!(hot.len(), 2);
            for h in &hot {
                assert!(activated.contains(h), "hot expert not activated");
            }
        }
    }

    #[test]
    fn popularity_counts_cover_prefill_and_decode() {
        let m = mixtral_model();
        let t = m.generate_trace(4, 100, 2, 17);
        let total: u64 = t.popularity_counts(0).iter().sum();
        // 4 seqs × (100 prefill + 2 decode) tokens × top-2.
        assert_eq!(total, 4 * 102 * 2);
    }

    #[test]
    fn apportion_is_exact_and_proportional() {
        let counts = apportion(&[0.5, 0.3, 0.2], 10);
        assert_eq!(counts.iter().sum::<u64>(), 10);
        assert_eq!(counts, vec![5, 3, 2]);
        let counts = apportion(&[1.0, 1.0, 1.0], 10);
        assert_eq!(counts.iter().sum::<u64>(), 10);
    }

    #[test]
    fn tokens_per_expert_into_respects_range() {
        let m = mixtral_model();
        let t = m.generate_trace(32, 64, 1, 3);
        let all = t.tokens_per_expert(0, 0);
        let (mut first_half, mut second_half) = (Vec::new(), Vec::new());
        t.tokens_per_expert_into(0, 0, 0, 16, &mut first_half);
        t.tokens_per_expert_into(0, 0, 16, 32, &mut second_half);
        for e in 0..8 {
            assert_eq!(all[e], first_half[e] + second_half[e]);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Apportionment always sums exactly to the requested total.
        #[test]
        fn apportion_sums(
            weights in proptest::collection::vec(0.01f64..10.0, 1..40),
            total in 0u64..10_000,
        ) {
            let counts = apportion(&weights, total);
            prop_assert_eq!(counts.iter().sum::<u64>(), total);
        }

        /// Sampled indices are always in range and respect zeroed weights.
        #[test]
        fn sample_index_in_range(seed in 0u64..1000, zero_at in 0usize..8) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut w = vec![1.0; 8];
            w[zero_at] = 0.0;
            for _ in 0..50 {
                let i = sample_index(&w, &mut rng);
                prop_assert!(i < 8);
                prop_assert_ne!(i, zero_at);
            }
        }

        /// Counting thresholds reproduces the scan at random `x` (below and
        /// above the sum), at every threshold, and one ulp either side of
        /// it, for weights with zeros and tiny entries among them.
        #[test]
        fn threshold_count_equals_scan(
            raw in proptest::collection::vec((0u32..5, 0.0f64..1.0), 1..24),
            us in proptest::collection::vec(0.0f64..1.25, 16),
        ) {
            let weights: Vec<f64> = raw
                .iter()
                .map(|&(kind, w)| match kind {
                    0 => 0.0,
                    1 => w * 1e-17,
                    2 => w * 1e-300,
                    _ => w,
                })
                .collect();
            let mut thresholds = vec![0.0; weights.len() - 1];
            thresholds_into(&weights, &mut thresholds);
            let total: f64 = weights.iter().sum();
            let mut xs: Vec<f64> = us.iter().map(|u| u * total).collect();
            xs.extend([0.0, total, f64::MAX]);
            for &t in thresholds.iter().filter(|t| t.is_finite()) {
                xs.extend([t.next_down(), t, t.next_up()]);
            }
            for x in xs.into_iter().filter(|&x| x >= 0.0) {
                prop_assert_eq!(threshold_count(&thresholds, x), scan(&weights, x));
            }
        }

        /// Every decode choice is a valid expert id and top-k sets have no
        /// duplicates.
        #[test]
        fn trace_choices_valid(seed in 0u64..100) {
            let cfg = TraceConfig {
                n_moe_layers: 4,
                n_experts: 8,
                top_k: 2,
                skew: 1.15,
                correlation: 0.5,
                drift: 0.0,
                step_drift: 0.5,
                seed,
            };
            let m = GatingModel::new(&cfg);
            let t = m.generate_trace(8, 32, 2, seed + 1);
            for step in 0..2 {
                for l in 0..4 {
                    for seq in 0..8 {
                        let c = t.seq_choices(step, l, seq);
                        prop_assert!(c[0] < 8 && c[1] < 8);
                        prop_assert_ne!(c[0], c[1]);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod request_trace_tests {
    use super::*;

    fn t(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    #[test]
    fn text_round_trip_is_exact() {
        let trace =
            RequestTrace::record([(t(0), 64, 8), (t(1_500_000), 128, 4), (t(1_500_000), 16, 2)]);
        let text = trace.to_text();
        let back = RequestTrace::parse(&text).expect("parse");
        assert_eq!(back, trace);
        // And a second round trip is byte-identical text.
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn parse_skips_comments_and_blank_lines() {
        let text = "# header\n\n  0 64 8\n# mid comment\n10 32 4\n";
        let trace = RequestTrace::parse(text).expect("parse");
        assert_eq!(trace.len(), 2);
        assert_eq!(
            trace.rows[1],
            TraceRow {
                at: t(10),
                prompt_len: 32,
                gen_len: 4
            }
        );
        assert!(!trace.is_empty());
        assert!(RequestTrace::parse("# only comments\n")
            .expect("parse")
            .is_empty());
    }

    #[test]
    fn parse_rejects_malformed_rows() {
        assert!(RequestTrace::parse("1 2\n")
            .unwrap_err()
            .contains("3 fields"));
        assert!(RequestTrace::parse("x 2 3\n")
            .unwrap_err()
            .contains("arrival"));
        assert!(RequestTrace::parse("5 0 3\n")
            .unwrap_err()
            .contains("positive"));
        assert!(RequestTrace::parse("9 2 3\n5 2 3\n")
            .unwrap_err()
            .contains("order"));
    }

    #[test]
    #[should_panic(expected = "arrival order")]
    fn record_rejects_unsorted_rows() {
        let _ = RequestTrace::record([(t(9), 1, 1), (t(5), 1, 1)]);
    }
}
