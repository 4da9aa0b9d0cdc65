//! The correlation-aware expert prefetcher (§6.2 of the paper).
//!
//! An **expert correlation table** records, per MoE layer, how often each
//! expert follows each previous-layer expert on a token's activation path
//! (path length `l = 1`, the paper's implementation choice in §8). The
//! table is warmed up with a pre-run over sample data; during inference,
//! each token's previous-layer choice indexes a row, the rows of all tokens
//! in the batch group are aggregated, and the top-K experts become the
//! prefetch set for the layer. The table keeps learning online; updates are
//! deliberately not persisted, so one task's tendencies never leak into the
//! next (§6.2).
//!
//! The pre-run is [`GatingModel::for_each_token_walk`], and every
//! `KlotskiEngine::run` replays it (4096 tokens by default), so the
//! simulator pays for it per engine call. The walk is exact and cheap:
//! it tabulates each layer's conditional distributions once, and draws
//! by counting per-distribution `f64` thresholds. The reference sampler's
//! rounded running-remainder scan is a non-decreasing step function of
//! its uniform draw, so the count returns exactly the scan's pick from
//! the same random stream, and warm-up tables match a direct sampler's
//! count for count. Thresholds cost `O(E²)` scan steps per distribution,
//! so the walk builds them only when it draws at least eight picks per
//! threshold: Mixtral's 4096-token warm-up does, while switch-base-128's
//! scans the tabulated rows.

use std::ops::Range;

use klotski_model::trace::{GatingModel, GatingTrace};

use crate::driver::{StepKind, TraceView};

/// The seed of the engine's warm-up pre-run walk, and of the accuracy
/// replays that mirror it.
pub const WARMUP_SEED: u64 = 0xC0FFEE;

/// A predicted hot set, with the scratch that computes it. Reused across
/// layers, prediction allocates nothing once the buffers have grown.
#[derive(Debug, Clone, Default)]
pub struct HotSet {
    /// The predicted experts, best first.
    pub experts: Vec<u16>,
    /// Lookup keys: each sequence's previous-layer first choice.
    prev: Vec<u16>,
    /// Per-expert scores.
    scores: Vec<f64>,
}

/// The expert correlation table plus prediction logic.
///
/// # Examples
///
/// ```
/// use klotski_core::driver::{StepKind, TraceView};
/// use klotski_core::prefetcher::{CorrelationTable, HotSet};
/// use klotski_model::spec::ModelSpec;
/// use klotski_model::trace::{GatingModel, TraceConfig};
///
/// let model = GatingModel::new(&TraceConfig::for_model(&ModelSpec::mixtral_8x7b(), 1));
/// let mut table = CorrelationTable::new(32, 8);
/// table.warm_up(&model, 4096, 2);
/// // Predict the hot experts of MoE layer 5 for a group of 8 sequences at
/// // their first decode step, then learn from their actual routing:
/// let trace = model.generate_trace(8, 64, 2, 3);
/// let view = TraceView::new(&trace);
/// let mut hot = HotSet::default();
/// table.predict_step(view, StepKind::Decode(0), 5, 0..8, 2, &mut hot);
/// assert_eq!(hot.experts.len(), 2);
/// table.record_step(view, StepKind::Decode(0), 5, 0..8);
/// ```
#[derive(Debug, Clone)]
pub struct CorrelationTable {
    n_layers: u32,
    n_experts: u32,
    /// `[layer][prev][cur]` transition counts (layer 0's `prev` dimension is
    /// unused; kept for uniform indexing).
    counts: Vec<u64>,
    /// `[layer][cur]` marginal counts (used for layer 0 and as smoothing).
    marginals: Vec<u64>,
}

impl CorrelationTable {
    /// An empty table for `n_layers` MoE layers of `n_experts` experts.
    pub fn new(n_layers: u32, n_experts: u32) -> Self {
        let l = n_layers as usize;
        let e = n_experts as usize;
        CorrelationTable {
            n_layers,
            n_experts,
            counts: vec![0; l * e * e],
            marginals: vec![0; l * e],
        }
    }

    /// Number of MoE layers.
    pub fn n_layers(&self) -> u32 {
        self.n_layers
    }

    /// Experts per layer.
    pub fn n_experts(&self) -> u32 {
        self.n_experts
    }

    fn idx(&self, layer: u32, prev: u16, cur: u16) -> usize {
        let e = self.n_experts as usize;
        (layer as usize * e + prev as usize) * e + cur as usize
    }

    /// Records one token's routing at `layer`: previous-layer first choice
    /// (if any) and the selected experts.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn record(&mut self, layer: u32, prev: Option<u16>, chosen: &[u16]) {
        assert!(layer < self.n_layers, "layer out of range");
        for &c in chosen {
            assert!((c as u32) < self.n_experts, "expert out of range");
            self.marginals[layer as usize * self.n_experts as usize + c as usize] += 1;
            if let Some(p) = prev {
                let i = self.idx(layer, p, c);
                self.counts[i] += 1;
            }
        }
    }

    /// Warm-up pre-run (§8: wikitext-2 sampled at batch 8 × seq 512 in the
    /// paper; here `n_tokens` walks of the gating model).
    pub fn warm_up(&mut self, model: &GatingModel, n_tokens: u32, seed: u64) {
        model.for_each_token_walk(n_tokens, seed, |layer, prev, chosen| {
            self.record(layer, prev, chosen);
        });
    }

    /// Feeds a group's actual routing at (`step`, MoE layer `m`), over the
    /// sequences `seqs`, back into the table: the online update of §6.2.
    /// Decode records each sequence's choices under its previous-layer
    /// first choice; prefill, observed only in aggregate, records the
    /// group's routed-token counts as marginals.
    pub fn record_step(&mut self, view: TraceView<'_>, step: StepKind, m: u32, seqs: Range<u32>) {
        match step {
            StepKind::Prefill => {
                for (e, c) in (0..).zip(view.prefill_tokens(m, seqs.start, seqs.end)) {
                    if c > 0 {
                        self.record_marginal(m, e, c as u64);
                    }
                }
            }
            StepKind::Decode(i) => {
                let trace = view.trace();
                let k = trace.top_k() as usize;
                let (from, to) = (seqs.start as usize * k, seqs.end as usize * k);
                let chosen = trace.decode_choices(i, m)[from..to].chunks_exact(k);
                if m == 0 {
                    for choices in chosen {
                        self.record(m, None, choices);
                    }
                } else {
                    let prev = trace.decode_choices(i, m - 1)[from..to].iter().step_by(k);
                    for (choices, &p) in chosen.zip(prev) {
                        self.record(m, Some(p), choices);
                    }
                }
            }
        }
    }

    /// Records `count` routed tokens for `expert` at `layer` without
    /// transition context (used for prefill phases, whose routing is
    /// observed in aggregate).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn record_marginal(&mut self, layer: u32, expert: u16, count: u64) {
        assert!(layer < self.n_layers, "layer out of range");
        assert!((expert as u32) < self.n_experts, "expert out of range");
        self.marginals[layer as usize * self.n_experts as usize + expert as usize] += count;
    }

    /// Aggregated expert tendencies at `layer` for a batch group whose
    /// tokens had `prev_choices` as their previous-MoE-layer first choices.
    /// Returns unnormalized scores per expert.
    pub fn tendencies(&self, layer: u32, prev_choices: &[u16]) -> Vec<f64> {
        let mut scores = Vec::new();
        self.tendencies_into(layer, prev_choices, &mut scores);
        scores
    }

    /// [`tendencies`](CorrelationTable::tendencies) into a reused buffer.
    // analyze: no_alloc
    fn tendencies_into(&self, layer: u32, prev_choices: &[u16], scores: &mut Vec<f64>) {
        let e = self.n_experts as usize;
        scores.clear();
        scores.resize(e, 0.0);
        for &p in prev_choices {
            let row_base = self.idx(layer, p, 0);
            let row = &self.counts[row_base..row_base + e];
            let total: u64 = row.iter().sum();
            if total == 0 {
                // Unseen context: fall back to the layer marginal.
                let m = &self.marginals[layer as usize * e..(layer as usize + 1) * e];
                let mt: u64 = m.iter().sum();
                if mt > 0 {
                    for (s, &c) in scores.iter_mut().zip(m) {
                        *s += c as f64 / mt as f64;
                    }
                }
                continue;
            }
            for (s, &c) in scores.iter_mut().zip(row) {
                *s += c as f64 / total as f64;
            }
        }
    }

    /// The top-`k` predicted hot experts at `layer` given the batch group's
    /// previous-layer choices.
    pub fn predict(&self, layer: u32, prev_choices: &[u16], k: u32) -> Vec<u16> {
        let (mut scores, mut hot) = (Vec::new(), Vec::new());
        self.predict_into(layer, prev_choices, k, &mut scores, &mut hot);
        hot
    }

    /// [`predict`](CorrelationTable::predict) into `hot`, with `scores` as
    /// scratch.
    fn predict_into(
        &self,
        layer: u32,
        prev_choices: &[u16],
        k: u32,
        scores: &mut Vec<f64>,
        hot: &mut Vec<u16>,
    ) {
        self.tendencies_into(layer, prev_choices, scores);
        top_k_indices_into(scores, k, hot);
    }

    /// Predicts the top-`k` hot set of (`step`, MoE layer `m`) for the
    /// group of sequences `seqs` into `hot.experts`: by the group's
    /// aggregated tendencies given each sequence's previous-layer first
    /// choice, or by the layer marginal where there is no per-token
    /// history (prefill and the first MoE layer).
    // analyze: no_alloc
    pub fn predict_step(
        &self,
        view: TraceView<'_>,
        step: StepKind,
        m: u32,
        seqs: Range<u32>,
        k: u32,
        hot: &mut HotSet,
    ) {
        match step {
            StepKind::Decode(i) if m > 0 => {
                view.prev_choices_into(i, m, seqs.start, seqs.end, &mut hot.prev);
                self.predict_into(m, &hot.prev, k, &mut hot.scores, &mut hot.experts);
            }
            _ => self.predict_marginal_into(m, k, &mut hot.scores, &mut hot.experts),
        }
    }

    /// The top-`k` experts of `layer` by marginal frequency alone (used for
    /// the prefill phase, where per-token history spans thousands of tokens
    /// and the marginal is the right aggregate), into `hot`, with `scores`
    /// as scratch.
    // analyze: no_alloc
    fn predict_marginal_into(&self, layer: u32, k: u32, scores: &mut Vec<f64>, hot: &mut Vec<u16>) {
        let e = self.n_experts as usize;
        let base = layer as usize * e;
        scores.clear();
        scores.extend(self.marginals[base..base + e].iter().map(|&c| c as f64));
        top_k_indices_into(scores, k, hot);
    }

    /// Total recorded routing events (sanity/diagnostics).
    pub fn total_records(&self) -> u64 {
        self.marginals.iter().sum()
    }

    /// The marginal counter for (`layer`, `expert`).
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn marginal_count(&self, layer: u32, expert: u16) -> u64 {
        assert!(layer < self.n_layers, "layer out of range");
        assert!((expert as u32) < self.n_experts, "expert out of range");
        self.marginals[layer as usize * self.n_experts as usize + expert as usize]
    }

    /// The transition counter for (`layer`, `prev` → `cur`).
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn transition_count(&self, layer: u32, prev: u16, cur: u16) -> u64 {
        assert!(layer < self.n_layers, "layer out of range");
        assert!(
            (prev as u32) < self.n_experts && (cur as u32) < self.n_experts,
            "expert out of range"
        );
        self.counts[self.idx(layer, prev, cur)]
    }

    /// Adds `count` to the transition counter for (`layer`, `prev` → `cur`)
    /// without touching the marginals (used by the persistence codec).
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn add_transition(&mut self, layer: u32, prev: u16, cur: u16, count: u64) {
        assert!(layer < self.n_layers, "layer out of range");
        assert!(
            (prev as u32) < self.n_experts && (cur as u32) < self.n_experts,
            "expert out of range"
        );
        let i = self.idx(layer, prev, cur);
        self.counts[i] += count;
    }
}

fn top_k_indices(scores: &[f64], k: u32) -> Vec<u16> {
    let mut idx = Vec::new();
    top_k_indices_into(scores, k, &mut idx);
    idx
}

/// The indices of the `k` highest scores, best first, ties to the lower
/// index (by `f64::total_cmp`). One pass keeps the best `k` seen so far in
/// rank order, which is exactly the first `k` of a full sort.
// analyze: no_alloc
fn top_k_indices_into(scores: &[f64], k: u32, idx: &mut Vec<u16>) {
    // Candidates arrive in index order, so a later one ranks before an
    // earlier one only on a strictly higher score.
    let before = |a: u16, b: u16| scores[a as usize].total_cmp(&scores[b as usize]).is_gt();
    idx.clear();
    for e in 0..scores.len() as u16 {
        if idx.len() == k as usize {
            match idx.last() {
                Some(&worst) if before(e, worst) => idx.pop(),
                _ => continue,
            };
        }
        let at = idx.partition_point(|&x| !before(e, x));
        idx.insert(at, e);
    }
}

/// A correlation table with activation-path length `l = 2`: tendencies are
/// conditioned on the token's first choices at the **two** previous MoE
/// layers.
///
/// §8 of the paper sets `l = 1` and argues that "increasing l would add
/// dimension to path recording, which increases the complexity of the
/// table lookup and memory occupation" while Klotski "does not heavily
/// rely on the accuracy of expert prefetching". This type exists to make
/// that trade-off measurable: memory grows from `L·E²` to `L·E³` counters
/// and each lookup keys on a pair, for a (typically small) accuracy gain —
/// see the `sweep` bench binary.
#[derive(Debug, Clone)]
pub struct DeepCorrelationTable {
    n_layers: u32,
    n_experts: u32,
    /// `[layer][prev2][prev1][cur]` counts (layers 0 and 1 fall back to
    /// the embedded `l = 1` table).
    counts: Vec<u64>,
    /// Fallback for shallow layers and unseen pair contexts.
    shallow: CorrelationTable,
}

impl DeepCorrelationTable {
    /// An empty table for `n_layers` MoE layers of `n_experts` experts.
    pub fn new(n_layers: u32, n_experts: u32) -> Self {
        let l = n_layers as usize;
        let e = n_experts as usize;
        DeepCorrelationTable {
            n_layers,
            n_experts,
            counts: vec![0; l * e * e * e],
            shallow: CorrelationTable::new(n_layers, n_experts),
        }
    }

    /// Bytes of counter storage (the memory-occupation side of §8's
    /// trade-off; compare with `l = 1`'s `L·E²` table).
    #[cfg(test)]
    fn counter_bytes(&self) -> usize {
        8 * self.counts.len()
    }

    /// Number of MoE layers.
    pub fn n_layers(&self) -> u32 {
        self.n_layers
    }

    fn idx(&self, layer: u32, prev2: u16, prev1: u16, cur: u16) -> usize {
        let e = self.n_experts as usize;
        ((layer as usize * e + prev2 as usize) * e + prev1 as usize) * e + cur as usize
    }

    /// Records one token's routing at `layer` given its first choices at
    /// the previous two MoE layers.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn record(&mut self, layer: u32, prev2: Option<u16>, prev1: Option<u16>, chosen: &[u16]) {
        self.shallow.record(layer, prev1, chosen);
        if let (Some(p2), Some(p1)) = (prev2, prev1) {
            self.record_pair(layer, p2, p1, chosen);
        }
    }

    /// Records one token's routing at `layer` under its first-choice pair,
    /// leaving the embedded `l = 1` table alone.
    fn record_pair(&mut self, layer: u32, prev2: u16, prev1: u16, chosen: &[u16]) {
        for &c in chosen {
            let i = self.idx(layer, prev2, prev1, c);
            self.counts[i] += 1;
        }
    }

    /// Warm-up pre-run over `n_tokens` token walks.
    pub fn warm_up(&mut self, model: &GatingModel, n_tokens: u32, seed: u64) {
        let mut path: Vec<u16> = Vec::new();
        let mut last_layer = u32::MAX;
        model.for_each_token_walk(n_tokens, seed, |layer, prev, chosen| {
            if layer <= last_layer {
                path.clear(); // new token walk
            }
            last_layer = layer;
            let prev2 = path.len().checked_sub(2).map(|i| path[i]);
            self.record(layer, prev2, prev, chosen);
            path.push(chosen[0]);
        });
    }

    /// The top-`k` predicted experts at `layer` for a batch group whose
    /// tokens carry `(prev2, prev1)` first-choice pairs.
    pub fn predict(&self, layer: u32, pairs: &[(u16, u16)], k: u32) -> Vec<u16> {
        let e = self.n_experts as usize;
        let mut scores = vec![0.0f64; e];
        for &(p2, p1) in pairs {
            let base = self.idx(layer, p2, p1, 0);
            let row = &self.counts[base..base + e];
            let total: u64 = row.iter().sum();
            if total == 0 {
                // Unseen pair: fall back to the l = 1 tendencies.
                for (s, v) in scores.iter_mut().zip(self.shallow.tendencies(layer, &[p1])) {
                    *s += v;
                }
                continue;
            }
            for (s, &c) in scores.iter_mut().zip(row) {
                *s += c as f64 / total as f64;
            }
        }
        top_k_indices(&scores, k)
    }

    /// The embedded path-length-1 table (for shallow layers / comparison).
    #[cfg(test)]
    fn shallow(&self) -> &CorrelationTable {
        &self.shallow
    }
}

/// Per-layer prefetch-accuracy measurements (paper Fig. 13).
#[derive(Debug, Clone, PartialEq)]
pub struct PrefetchAccuracy {
    /// Fraction of prefetched experts that received ≥1 token ("Participate
    /// in comp." — the green line, ≈100% with multi-batch aggregation).
    pub participation: f64,
    /// Fraction of prefetched experts that were among the step's actual
    /// top-K ("Really hot" — the blue line, ≈58.9% average in the paper).
    pub really_hot: f64,
}

/// Aggregate prefetch-accuracy report (the paper's Fig. 13 data).
#[derive(Debug, Clone)]
pub struct AccuracyReport {
    /// Per-MoE-layer accuracies, averaged over decode steps (layer 0 is
    /// skipped — it has no previous layer for the correlation lookup, as
    /// in the paper's figure, which starts at layer 1).
    pub per_layer: Vec<PrefetchAccuracy>,
    /// Mean participation across layers.
    pub avg_participation: f64,
    /// Mean really-hot accuracy across layers.
    pub avg_really_hot: f64,
    /// Accuracy of predicting for a *single sequence* instead of the whole
    /// batch group (the paper measures 42.24%, demonstrating why
    /// multi-batch aggregation reduces I/O waste).
    pub single_seq_accuracy: f64,
}

/// Replays a routing trace through a warmed correlation table (with online
/// updates, exactly as the engine performs them) and scores the prefetch
/// decisions — the experiment behind the paper's Fig. 13.
pub fn measure_accuracy(
    base: &GatingModel,
    trace: &GatingTrace,
    k: u32,
    warmup_tokens: u32,
) -> AccuracyReport {
    let mut table = CorrelationTable::new(trace.n_moe_layers(), trace.n_experts());
    table.warm_up(base, warmup_tokens, WARMUP_SEED);
    replay(table, trace, k, true)
}

/// Scores `l = 2` prefetching on a trace, mirroring [`measure_accuracy`]
/// (predictions start at MoE layer 2, where a full pair context exists).
pub fn measure_accuracy_l2(
    base: &GatingModel,
    trace: &GatingTrace,
    k: u32,
    warmup_tokens: u32,
) -> AccuracyReport {
    let mut table = DeepCorrelationTable::new(trace.n_moe_layers(), trace.n_experts());
    table.warm_up(base, warmup_tokens, WARMUP_SEED);
    replay(table, trace, k, false)
}

/// A correlation table as [`replay`] drives it, over whole decode steps.
trait Replayed {
    /// The first MoE layer whose lookup context is complete.
    const FIRST_LAYER: u32;
    /// The top-`k` prediction for decode `step`, MoE layer `m`, `seqs`.
    fn predict_seqs(
        &self,
        view: TraceView<'_>,
        step: u32,
        m: u32,
        seqs: Range<u32>,
        k: u32,
    ) -> Vec<u16>;
    /// Feeds decode `step`'s actual routing at MoE layer `m` back.
    fn feed_back(&mut self, view: TraceView<'_>, step: u32, m: u32);
}

impl Replayed for CorrelationTable {
    const FIRST_LAYER: u32 = 1;

    fn predict_seqs(
        &self,
        view: TraceView<'_>,
        step: u32,
        m: u32,
        seqs: Range<u32>,
        k: u32,
    ) -> Vec<u16> {
        let mut hot = HotSet::default();
        self.predict_step(view, StepKind::Decode(step), m, seqs, k, &mut hot);
        hot.experts
    }

    fn feed_back(&mut self, view: TraceView<'_>, step: u32, m: u32) {
        let seqs = 0..view.trace().n_seqs();
        self.record_step(view, StepKind::Decode(step), m, seqs);
    }
}

impl Replayed for DeepCorrelationTable {
    const FIRST_LAYER: u32 = 2;

    fn predict_seqs(
        &self,
        view: TraceView<'_>,
        step: u32,
        m: u32,
        seqs: Range<u32>,
        k: u32,
    ) -> Vec<u16> {
        let first = |layer, s| view.trace().seq_choices(step, layer, s)[0];
        let pairs: Vec<(u16, u16)> = seqs.map(|s| (first(m - 2, s), first(m - 1, s))).collect();
        self.predict(m, &pairs, k)
    }

    fn feed_back(&mut self, view: TraceView<'_>, step: u32, m: u32) {
        let trace = view.trace();
        self.shallow
            .record_step(view, StepKind::Decode(step), m, 0..trace.n_seqs());
        if m >= 2 {
            for s in 0..trace.n_seqs() {
                let first = |layer| trace.seq_choices(step, layer, s)[0];
                self.record_pair(m, first(m - 2), first(m - 1), trace.seq_choices(step, m, s));
            }
        }
    }
}

/// The Fig. 13 replay: for every decode step, scores each layer's group
/// prediction from `T::FIRST_LAYER` on (and, with `single_seq`, a sample
/// of single-sequence predictions) against the step's actual routing,
/// then feeds the step back, engine-style.
fn replay<T: Replayed>(
    mut table: T,
    trace: &GatingTrace,
    k: u32,
    single_seq: bool,
) -> AccuracyReport {
    let view = TraceView::new(trace);
    let layers = trace.n_moe_layers();
    let mut participation = vec![0.0f64; layers as usize];
    let mut really_hot = vec![0.0f64; layers as usize];
    let mut single_hits = 0u64;
    let mut single_total = 0u64;
    let steps = trace.gen_len();
    let seqs = trace.n_seqs();

    for step in 0..steps {
        for m in T::FIRST_LAYER..layers {
            let predicted = table.predict_seqs(view, step, m, 0..seqs, k);
            let counts = trace.tokens_per_expert(step, m);
            let actual_hot = trace.step_hot_experts(step, m, k);
            participation[m as usize] += predicted
                .iter()
                .filter(|&&e| counts[e as usize] > 0)
                .count() as f64
                / k as f64;
            really_hot[m as usize] +=
                predicted.iter().filter(|e| actual_hot.contains(e)).count() as f64 / k as f64;

            // Single-sequence prediction: what prefetching for one request
            // at a time (no batching) would achieve.
            if single_seq {
                for s in (0..seqs).step_by(seqs.max(8) as usize / 8) {
                    let single = table.predict_seqs(view, step, m, s..s + 1, k);
                    let chosen = trace.seq_choices(step, m, s);
                    single_hits += single.iter().filter(|e| chosen.contains(e)).count() as u64;
                    single_total += k as u64;
                }
            }
        }
        // Online updates after the step, engine-style.
        for m in 0..layers {
            table.feed_back(view, step, m);
        }
    }

    let per_layer: Vec<PrefetchAccuracy> = (T::FIRST_LAYER as usize..layers as usize)
        .map(|m| PrefetchAccuracy {
            participation: participation[m] / steps as f64,
            really_hot: really_hot[m] / steps as f64,
        })
        .collect();
    let avg_participation =
        per_layer.iter().map(|a| a.participation).sum::<f64>() / per_layer.len().max(1) as f64;
    let avg_really_hot =
        per_layer.iter().map(|a| a.really_hot).sum::<f64>() / per_layer.len().max(1) as f64;
    AccuracyReport {
        per_layer,
        avg_participation,
        avg_really_hot,
        single_seq_accuracy: single_hits as f64 / single_total.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use klotski_model::spec::ModelSpec;
    use klotski_model::trace::TraceConfig;

    fn warmed() -> (GatingModel, CorrelationTable) {
        let cfg = TraceConfig::for_model(&ModelSpec::mixtral_8x7b(), 3);
        let model = GatingModel::new(&cfg);
        let mut t = CorrelationTable::new(cfg.n_moe_layers, cfg.n_experts);
        t.warm_up(&model, 4096, 17);
        (model, t)
    }

    #[test]
    fn warm_up_fills_the_table() {
        let (_, t) = warmed();
        // 4096 tokens × 32 layers × top-2 records.
        assert_eq!(t.total_records(), 4096 * 32 * 2);
    }

    #[test]
    fn prediction_beats_chance() {
        // Predicting with correlation context must recover the generator's
        // hot experts far more often than random (2/8 = 25%).
        let (model, t) = warmed();
        let trace = model.generate_trace(64, 32, 8, 99);
        let mut hits = 0u32;
        let mut total = 0u32;
        for step in 0..trace.gen_len() {
            for layer in 1..trace.n_moe_layers() {
                let prev: Vec<u16> = (0..trace.n_seqs())
                    .map(|s| trace.seq_choices(step, layer - 1, s)[0])
                    .collect();
                let predicted = t.predict(layer, &prev, 2);
                let actual = trace.step_hot_experts(step, layer, 2);
                hits += predicted.iter().filter(|e| actual.contains(e)).count() as u32;
                total += 2;
            }
        }
        let acc = hits as f64 / total as f64;
        assert!(acc > 0.45, "really-hot accuracy = {acc}");
    }

    #[test]
    fn first_layer_prediction_matches_marginal_hot_experts() {
        let (model, t) = warmed();
        let (mut scores, mut predicted) = (Vec::new(), Vec::new());
        t.predict_marginal_into(0, 2, &mut scores, &mut predicted);
        let actual = model.hot_experts(0, 2);
        let overlap = predicted.iter().filter(|e| actual.contains(e)).count();
        assert!(overlap >= 1, "predicted {predicted:?} vs actual {actual:?}");
    }

    #[test]
    fn online_records_shift_predictions() {
        let mut t = CorrelationTable::new(2, 4);
        // Seed: at layer 1, expert 0 always follows expert 3.
        for _ in 0..100 {
            t.record(1, Some(3), &[0]);
        }
        assert_eq!(t.predict(1, &[3, 3, 3], 1), vec![0]);
        // Online drift: expert 2 starts following expert 3 overwhelmingly.
        for _ in 0..1000 {
            t.record(1, Some(3), &[2]);
        }
        assert_eq!(t.predict(1, &[3, 3, 3], 1), vec![2]);
    }

    #[test]
    fn unseen_context_falls_back_to_marginal() {
        let mut t = CorrelationTable::new(2, 4);
        for _ in 0..10 {
            t.record(1, Some(0), &[1]); // marginal favours 1
        }
        // prev=3 was never seen: fall back to marginal.
        assert_eq!(t.predict(1, &[3], 1), vec![1]);
    }

    #[test]
    fn empty_table_predicts_lowest_indices() {
        let t = CorrelationTable::new(2, 4);
        // All-zero scores: deterministic tie-break by index.
        let (mut scores, mut predicted) = (Vec::new(), Vec::new());
        t.predict_marginal_into(0, 2, &mut scores, &mut predicted);
        assert_eq!(predicted, vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "expert out of range")]
    fn out_of_range_expert_rejected() {
        let mut t = CorrelationTable::new(2, 4);
        t.record(0, None, &[9]);
    }

    #[test]
    fn deep_table_learns_pair_contexts() {
        let mut t = DeepCorrelationTable::new(3, 4);
        // Layer 2: expert 1 follows the pair (0, 3); expert 2 follows (3, 3).
        for _ in 0..50 {
            t.record(2, Some(0), Some(3), &[1]);
            t.record(2, Some(3), Some(3), &[2]);
        }
        assert_eq!(t.predict(2, &[(0, 3)], 1), vec![1]);
        assert_eq!(t.predict(2, &[(3, 3)], 1), vec![2]);
        // The l = 1 view cannot separate the two contexts: prev1 = 3 maps
        // to both experts equally; deterministic tie-break picks 1.
        let shallow = t.shallow().predict(2, &[3], 1);
        assert_eq!(shallow, vec![1]);
    }

    #[test]
    fn deep_table_falls_back_on_unseen_pairs() {
        let mut t = DeepCorrelationTable::new(3, 4);
        for _ in 0..10 {
            t.record(2, Some(0), Some(1), &[3]);
        }
        // Pair (2, 1) unseen → fall back to l = 1 (prev1 = 1 → expert 3).
        assert_eq!(t.predict(2, &[(2, 1)], 1), vec![3]);
    }

    #[test]
    fn deep_warmup_records_both_depths() {
        let (model, _) = warmed();
        let mut t = DeepCorrelationTable::new(32, 8);
        t.warm_up(&model, 512, 5);
        assert_eq!(t.shallow().total_records(), 512 * 32 * 2);
        assert!(t.counts.iter().any(|&c| c > 0), "pair counts recorded");
        // Memory trade-off of §8: E× larger than the shallow table.
        assert_eq!(t.counter_bytes(), 8 * 32 * 8 * 8 * 8);
    }

    #[test]
    fn l2_accuracy_at_least_matches_l1_on_correlated_traces() {
        let cfg = klotski_model::trace::TraceConfig::for_model(&ModelSpec::mixtral_8x7b(), 9);
        let base = GatingModel::new(&cfg);
        let task = base.drifted(cfg.drift, 10);
        let trace = task.generate_trace(96, 128, 8, 11);
        let l1 = measure_accuracy(&base, &trace, 2, 4096);
        let l2 = measure_accuracy_l2(&base, &trace, 2, 4096);
        assert!(
            l2.avg_really_hot > l1.avg_really_hot - 0.08,
            "l2 {:.3} collapsed vs l1 {:.3}",
            l2.avg_really_hot,
            l1.avg_really_hot
        );
        assert!(l2.avg_participation > 0.95);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Aggregated tendencies of per-token probability rows sum to the
        /// number of tokens (each row is a distribution).
        #[test]
        fn tendencies_are_row_normalized(
            records in proptest::collection::vec((0u16..4, 0u16..4), 1..200),
            query in proptest::collection::vec(0u16..4, 1..50),
        ) {
            let mut t = CorrelationTable::new(2, 4);
            for &(p, c) in &records {
                t.record(1, Some(p), &[c]);
            }
            // Ensure every queried row is non-empty by recording one event
            // per context.
            for p in 0..4u16 {
                t.record(1, Some(p), &[0]);
            }
            let scores = t.tendencies(1, &query);
            let total: f64 = scores.iter().sum();
            prop_assert!((total - query.len() as f64).abs() < 1e-6);
        }

        /// The one-pass top-k equals the first k of a full sort by
        /// (score descending, index ascending), ties and all.
        #[test]
        fn top_k_matches_a_full_sort(
            raw in proptest::collection::vec(0u8..6, 0..40),
            k in 0u32..45,
        ) {
            let mut scores: Vec<f64> = raw.iter().map(|&r| r as f64 * 0.5).collect();
            if let Some(s) = scores.get_mut(3) {
                *s = -0.0;
            }
            let mut sorted: Vec<u16> = (0..scores.len() as u16).collect();
            sorted.sort_by(|&a, &b| {
                scores[b as usize]
                    .total_cmp(&scores[a as usize])
                    .then(a.cmp(&b))
            });
            sorted.truncate(k as usize);
            prop_assert_eq!(top_k_indices(&scores, k), sorted);
        }

        /// predict returns k distinct in-range experts.
        #[test]
        fn predict_shape(k in 1u32..4, prevs in proptest::collection::vec(0u16..4, 1..20)) {
            let mut t = CorrelationTable::new(3, 4);
            for p in 0..4u16 {
                for c in 0..4u16 {
                    t.record(2, Some(p), &[c]);
                }
            }
            let picks = t.predict(2, &prevs, k);
            prop_assert_eq!(picks.len(), k as usize);
            let set: std::collections::HashSet<u16> = picks.iter().copied().collect();
            prop_assert_eq!(set.len(), k as usize);
            prop_assert!(picks.iter().all(|&e| e < 4));
        }
    }
}
