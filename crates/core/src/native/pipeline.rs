//! The native pipeline: an I/O thread, an inference thread, and a compute
//! worker pool.
//!
//! Thread layout mirrors the paper's implementation (§4, Fig. 6): an
//! **inference thread** walks steps × layers × sequences, and an **I/O
//! thread** serves expert-fetch requests from the [`ExpertStore`] through a
//! bounded slot pool (the VRAM expert buffers). Klotski's schedule shows up
//! as three decisions:
//!
//! * hot experts (predicted from the online marginal table) are requested
//!   *before* the layer's attention, so they stream in under compute;
//! * gate-selected cold experts are requested the moment gating finishes,
//!   in discovery order;
//! * expert computations run in **arrival order** (hot first, then
//!   transfer-completion order), with each expert's slot released as soon
//!   as its tokens are done — "offloaded immediately".
//!
//! Three compute-side levers make the path fast (this is the aggregation
//! payoff of §5 — many batches' tokens amortize each expert transfer, so
//! each resident expert should also amortize its *compute*):
//!
//! * **Batched expert GEMMs** ([`ExpertWeights::forward_batch_into`]):
//!   all tokens routed to an arrived expert are stacked into one matrix
//!   and pushed through the FFN as two GEMMs, streaming the weights once
//!   per group instead of once per token.
//! * **Batched attention** ([`MoeModel::attn_block_batch`]): each step's
//!   attention runs over the whole group at once — Q/K/V and the output
//!   projection are single GEMMs (the projection weights are shared by
//!   every sequence, so they stream once per group instead of once per
//!   token) and per-sequence scores/AV go through blocked strided kernels
//!   over the contiguous KV slabs, all in a reused
//!   [`AttnScratch`](klotski_moe::attention::AttnScratch) — zero heap
//!   allocations in the attention block at steady state. Only the `h2o`
//!   policy attends per token ([`MoeModel::attn_block_h2o`]): its
//!   heavy-hitter state updates are sequential by design.
//! * **A compute worker pool**: independent arrived experts are computed
//!   in parallel by `compute_workers` crossbeam workers sharing one task
//!   queue — a pull model, so load balances itself by token count (an
//!   expert with many tokens occupies one worker while others drain the
//!   rest; see He et al., 2025 on imbalanced per-expert loads).
//!
//! The I/O thread and the worker pool are the pipeline's only
//! parallelism. Every kernel runs single-threaded on the thread that calls
//! it — the inference thread when expert compute is inline, a worker
//! otherwise — so the run spawns all its threads up front and none per
//! step: a per-GEMM thread team would oversubscribe the pool and allocate
//! on every decode step.
//!
//! No lever changes a single bit of output: every per-element
//! accumulation order is identical to the sequential reference
//! ([`MoeModel::generate`]), and expert contributions are still combined
//! in fixed expert-index order.
//!
//! The kernels run on the process's active backend
//! ([`klotski_tensor::simd::active_backend`]); a caller that wants a fixed
//! one holds a [`BackendGuard`](klotski_tensor::simd::BackendGuard) around
//! the call. Every backend is bit-identical, so only wall-clock changes.

use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Sender};
use klotski_moe::attention::AttnMask;
use klotski_moe::gate::{RouteScratch, Routing};
use klotski_moe::h2o::{H2oConfig, H2oState};
use klotski_moe::kv::KvCache;
use klotski_moe::model::MoeModel;
use klotski_moe::weights::{ExpertWeights, FfnScratch, QuantizedExpertWeights};
use klotski_tensor::matrix::Matrix;
use klotski_tensor::quant::QuantConfig;

use super::store::ExpertStore;

/// Configuration of the native pipeline.
#[derive(Debug, Clone, Copy)]
pub struct NativePipelineConfig {
    /// Bounded VRAM expert slots (must be ≥ 1; 2+ enables overlap).
    pub vram_slots: usize,
    /// Hot experts to prefetch per layer.
    pub prefetch_k: usize,
    /// Store experts quantized (fetch dequantizes). Quantization changes
    /// numerics, so bit-exactness versus the reference holds only with
    /// `None`.
    pub quant: Option<QuantConfig>,
    /// Attention mask (dense or StreamingLLM).
    pub mask: AttnMask,
    /// Heavy-hitter KV policy (the §9.8 future-work extension); when set,
    /// it replaces `mask`, and bit-exactness is checked against
    /// [`MoeModel::generate_h2o`].
    pub h2o: Option<H2oConfig>,
    /// Compute workers for parallel expert execution (≤ 1 computes inline
    /// on the inference thread). Each worker runs one expert's batched
    /// forward at a time, single-threaded, so experts — not the rows of
    /// one GEMM — are the unit of compute parallelism. Output is
    /// bit-identical at any worker count.
    pub compute_workers: usize,
    /// With `quant` set: keep experts **packed** in the VRAM slots and
    /// compute through the fused quantized GEMM (`true`, the default) — no
    /// full-precision slab ever exists on the fetch path — versus staging
    /// a dequantized copy into the slot and running dense GEMMs (`false`,
    /// the staged path). Output is bit-identical either way; the axis only
    /// changes where dequantization happens.
    pub fused_quant: bool,
}

/// Default worker-pool width: leave a core each for the inference and I/O
/// threads, cap small — expert parallelism saturates quickly because the
/// slot pool bounds how many experts are resident at once.
fn default_compute_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .saturating_sub(2)
        .clamp(1, 4)
}

impl Default for NativePipelineConfig {
    fn default() -> Self {
        NativePipelineConfig {
            vram_slots: 3,
            prefetch_k: 2,
            quant: None,
            mask: AttnMask::Dense,
            h2o: None,
            compute_workers: default_compute_workers(),
            fused_quant: true,
        }
    }
}

/// Result of a native pipelined generation.
#[derive(Debug, Clone)]
pub struct NativeRunResult {
    /// Generated tokens per sequence.
    pub tokens: Vec<Vec<u32>>,
    /// Final hidden state per sequence (for bit-exact comparison).
    pub final_hidden: Vec<Vec<f32>>,
    /// Total expert fetches served by the I/O thread.
    pub expert_fetches: u64,
    /// Prefetched experts that did receive tokens.
    pub prefetch_hits: u64,
    /// Prefetched experts that received no tokens (wasted transfers).
    pub prefetch_misses: u64,
    /// Wall-clock run time of the pipeline (store construction — model
    /// loading — excluded).
    pub elapsed: Duration,
}

#[derive(Debug)]
struct FetchRequest {
    layer: usize,
    expert: usize,
}

/// One VRAM slot buffer: a dense expert, or — on the fused quantized
/// path — the packed codes themselves, `bits/8 + metadata` bytes per
/// parameter instead of 4. The slot's form is fixed when the pool is
/// built; buffers circulate unchanged so every fetch stays allocation-free
/// after first use.
#[derive(Debug)]
enum VramExpert {
    /// Full-precision weights (copied or dequantized into the slot).
    Dense(ExpertWeights),
    /// Packed quantized weights; compute runs the fused quantized GEMM.
    Packed(QuantizedExpertWeights),
}

impl VramExpert {
    /// Batched SwiGLU forward into a reused output matrix and
    /// [`FfnScratch`], single-threaded and allocation-free once the
    /// buffers hit their high-water shapes — the same call inline and on
    /// a worker. Bit-identical across forms when the packed codes decode
    /// to the dense weights.
    fn forward_batch_into(&self, xs: &Matrix, out: &mut Matrix, scratch: &mut FfnScratch) {
        match self {
            VramExpert::Dense(w) => w.forward_batch_into(xs, out, scratch),
            VramExpert::Packed(q) => q.forward_batch_into(xs, out, scratch),
        }
    }
}

#[derive(Debug)]
struct FetchedExpert {
    expert: usize,
    weights: VramExpert,
}

/// What the inference thread multiplexes on: expert arrivals from the I/O
/// thread and finished batched forwards from the worker pool. One channel
/// for both means the inference thread never blocks on the wrong event
/// (e.g. waiting for a fetch while a finished compute should release the
/// slot the I/O thread needs).
enum Event {
    Fetched(FetchedExpert),
    Computed {
        expert: usize,
        /// The input buffer rides back to the inference thread's pool so
        /// the next task for this expert reuses it.
        xs: Matrix,
        rows: Matrix,
        /// The slot buffer travels with the task and returns to the pool.
        weights: VramExpert,
    },
}

/// One expert's batched forward, shipped to the worker pool. The input
/// and output matrices come from (and return to) per-expert pools on the
/// inference thread, so dispatch moves buffers instead of allocating.
struct ComputeTask {
    expert: usize,
    weights: VramExpert,
    /// The routed tokens' normalized hidden states, one per row.
    xs: Matrix,
    /// The pooled output buffer the worker computes into.
    out: Matrix,
}

/// Runs Klotski's native pipeline over `prompts`, generating `gen_len`
/// tokens per sequence.
///
/// All sequences form one batch group: each layer's experts are fetched
/// once and shared across every sequence's tokens (the multi-batch weight
/// sharing of §5), and each arrived expert computes its whole token group
/// as one batched forward.
///
/// # Panics
///
/// Panics if `cfg.vram_slots == 0`, prompts are empty, or any prompt is
/// empty.
pub fn run_pipeline(
    model: &MoeModel,
    prompts: &[Vec<u32>],
    gen_len: usize,
    cfg: &NativePipelineConfig,
) -> NativeRunResult {
    assert!(cfg.vram_slots >= 1, "need at least one VRAM slot");
    assert!(!prompts.is_empty(), "no prompts");
    for (s, prompt) in prompts.iter().enumerate() {
        assert!(!prompt.is_empty(), "empty prompt for sequence {s}");
    }
    let mcfg = *model.config();
    let n_seqs = prompts.len();
    let store = ExpertStore::from_model(model, cfg.quant);
    // Time the pipeline itself; store construction is model loading.
    // analyze: allow(determinism) -- the pipeline's one timing site: elapsed is reported, never branched on
    let start = Instant::now();

    let (req_tx, req_rx) = unbounded::<FetchRequest>();
    let (event_tx, event_rx) = unbounded::<Event>();
    // Slot pool: the I/O thread takes a slot *buffer* per in-flight
    // expert and stages the fetch into it; the inference thread returns
    // the buffer when the expert is offloaded. Because the buffers
    // circulate, every fetch after each buffer's first use is a pure copy
    // with no allocation (all experts share one shape). With quantization
    // and the fused GEMM on, the slots hold the packed codes themselves —
    // the fetch copies `bits/8 + metadata` bytes per parameter and no
    // full-precision slab ever exists on the path.
    let (slot_tx, slot_rx) = bounded::<VramExpert>(cfg.vram_slots);
    for _ in 0..cfg.vram_slots {
        let slot = match cfg.quant {
            Some(qcfg) if cfg.fused_quant => {
                VramExpert::Packed(QuantizedExpertWeights::placeholder(qcfg))
            }
            _ => VramExpert::Dense(ExpertWeights::placeholder()),
        };
        slot_tx.send(slot).expect("filling fresh slot pool");
    }

    let mut result = NativeRunResult {
        // Full generation span reserved upfront: token pushes never grow.
        tokens: (0..n_seqs).map(|_| Vec::with_capacity(gen_len)).collect(),
        final_hidden: Vec::new(),
        expert_fetches: 0,
        prefetch_hits: 0,
        prefetch_misses: 0,
        elapsed: Duration::ZERO,
    };

    crossbeam::scope(|scope| {
        // --- I/O thread.
        let io_store = &store;
        let io_event_tx = event_tx.clone();
        let io = scope.spawn(move |_| {
            let mut served = 0u64;
            while let Ok(req) = req_rx.recv() {
                // Block until a VRAM slot frees up (bounded staging), then
                // stage the expert into the freed slot's buffer.
                let Ok(mut weights) = slot_rx.recv() else {
                    break;
                };
                match &mut weights {
                    VramExpert::Dense(w) => io_store.fetch_into(req.layer, req.expert, w),
                    VramExpert::Packed(q) => io_store.fetch_packed_into(req.layer, req.expert, q),
                }
                served += 1;
                if io_event_tx
                    .send(Event::Fetched(FetchedExpert {
                        expert: req.expert,
                        weights,
                    }))
                    .is_err()
                {
                    break;
                }
            }
            served
        });

        // --- Compute worker pool (pull model: a shared task queue
        // load-balances by token count without central scheduling).
        let task_tx: Option<Sender<ComputeTask>> = if cfg.compute_workers > 1 {
            let (tx, rx) = unbounded::<ComputeTask>();
            for _ in 0..cfg.compute_workers {
                let rx = rx.clone();
                let worker_event_tx = event_tx.clone();
                scope.spawn(move |_| {
                    // Worker-local SwiGLU intermediates, pre-sized to the
                    // largest possible batch so every task runs without
                    // heap allocation.
                    let mut scratch = FfnScratch::default();
                    scratch.reserve(n_seqs, mcfg.d_ff);
                    while let Ok(mut task) = rx.recv() {
                        task.weights
                            .forward_batch_into(&task.xs, &mut task.out, &mut scratch);
                        if worker_event_tx
                            .send(Event::Computed {
                                expert: task.expert,
                                xs: task.xs,
                                rows: task.out,
                                weights: task.weights,
                            })
                            .is_err()
                        {
                            break;
                        }
                    }
                });
            }
            Some(tx)
        } else {
            None
        };
        drop(event_tx); // senders live in the I/O thread and workers only

        // --- Inference thread (this thread).
        // Online marginal popularity table (the prefetcher's layer-0 /
        // prefill mode; path-aware prediction lives in the simulated
        // engine's CorrelationTable).
        let mut popularity = vec![vec![0u64; mcfg.n_experts]; mcfg.n_layers];

        // Per-sequence caches, pre-sized to their full prompt + generation
        // span so the per-layer KV slabs never reallocate mid-decode.
        let mut caches: Vec<KvCache> = prompts
            .iter()
            .map(|p| model.new_cache_with_capacity(p.len() + gen_len))
            .collect();
        // Per-sequence heavy-hitter state, only under the h2o policy.
        let mut h2o_states: Vec<H2oState> = cfg.h2o.map_or_else(Vec::new, |c| {
            (0..n_seqs)
                .map(|_| H2oState::new(mcfg.n_layers, c))
                .collect()
        });

        // Hot-loop state, allocated once and reused across all steps and
        // layers: per-sequence working + carry hidden states, the per-layer
        // normalized states, the per-expert token groups and pooled
        // input/output matrices, the routing and logits scratch, and the
        // per-expert request/arrival flags. Everything is pre-sized to its
        // high-water shape, so the step loop performs **zero heap
        // allocations** at steady state (pinned by `klotski-analyze`'s
        // alloc_pin test).
        let mut hidden: Vec<Vec<f32>> = vec![Vec::with_capacity(mcfg.d_model); n_seqs];
        let mut h: Vec<Vec<f32>> = vec![Vec::with_capacity(mcfg.d_model); n_seqs];
        let mut normed: Vec<Vec<f32>> = vec![Vec::with_capacity(mcfg.d_model); n_seqs];
        let mut tokens_of: Vec<Vec<(usize, f32)>> = (0..mcfg.n_experts)
            .map(|_| Vec::with_capacity(n_seqs))
            .collect();
        // Per-expert pooled matrices: routed-token inputs and batched
        // outputs. Sized once to the full group; `resize` below never
        // exceeds this, so stacking a group is pure copying.
        let mut expert_xs: Vec<Matrix> = (0..mcfg.n_experts)
            .map(|_| Matrix::zeros(n_seqs, mcfg.d_model))
            .collect();
        let mut expert_rows: Vec<Matrix> = (0..mcfg.n_experts)
            .map(|_| Matrix::zeros(n_seqs, mcfg.d_model))
            .collect();
        let mut rows_ready: Vec<bool> = vec![false; mcfg.n_experts];
        let mut requested: Vec<bool> = vec![false; mcfg.n_experts];
        let mut arrived: Vec<bool> = vec![false; mcfg.n_experts];
        let mut hot: Vec<usize> = Vec::with_capacity(cfg.prefetch_k);
        let mut hot_idx: Vec<usize> = Vec::with_capacity(mcfg.n_experts);
        let mut active: Vec<usize> = Vec::with_capacity(n_seqs);
        let mut positions: Vec<usize> = vec![0; n_seqs];
        let mut routing = Routing { picks: Vec::new() };
        let mut route_scratch = RouteScratch::default();
        // Inline-compute SwiGLU intermediates (used when no worker pool).
        let mut ffn_scratch = FfnScratch::default();
        ffn_scratch.reserve(n_seqs, mcfg.d_ff);
        let mut scratch = model.logits_scratch();
        let mut attn_scratch = model.attn_scratch();

        // Steps: every prompt position (prefill), then gen_len decode
        // steps; each step pushes one token of every sequence through all
        // layers — including the final generated token, whose advance
        // produces `final_hidden` exactly like the reference. Ragged
        // prompts are handled by per-sequence position.
        let max_prompt = prompts.iter().map(Vec::len).max().unwrap_or(0);
        let total_steps = max_prompt + gen_len;
        // Pre-size the attention scratch to the run's high-water shapes
        // (full group, longest possible cache) so the attention block of
        // every step is allocation-free. Skipped under h2o, which never
        // touches the scratch.
        if cfg.h2o.is_none() {
            attn_scratch.reserve(n_seqs, total_steps);
        }

        // analyze: no_alloc
        for step in 0..total_steps {
            // Which sequences have a token this step, and which token.
            active.clear();
            for (s, prompt) in prompts.iter().enumerate() {
                let pos = positions[s];
                let tok = if step < prompt.len() {
                    if step != pos {
                        continue; // this sequence's prompt is shorter; wait
                    }
                    prompt[pos]
                } else if pos == step && step >= prompt.len() && result.tokens[s].len() < gen_len {
                    // Greedy continuation from the previous hidden state.
                    let next = model.next_token_with(&hidden[s], &mut scratch);
                    result.tokens[s].push(next);
                    next
                } else {
                    continue;
                };
                model.embed_into(tok, pos, &mut h[s]);
                positions[s] += 1;
                active.push(s);
            }
            if active.is_empty() {
                continue;
            }

            for (layer, layer_popularity) in popularity.iter_mut().enumerate() {
                // (1) Prefetch predicted hot experts before attention.
                top_k_by_into(layer_popularity, cfg.prefetch_k, &mut hot_idx, &mut hot);
                requested.iter_mut().for_each(|f| *f = false);
                let mut n_requested = 0usize;
                for &e in &hot {
                    req_tx
                        .send(FetchRequest { layer, expert: e })
                        .expect("I/O thread alive");
                    requested[e] = true;
                    n_requested += 1;
                }

                // (2) Attention for every active sequence (weights
                // shared): the whole group through one set of Q/K/V/O
                // GEMMs — except under h2o, whose heavy-hitter updates are
                // sequential, so it walks sequences one at a time.
                if cfg.h2o.is_some() {
                    for &s in &active {
                        h[s] =
                            model.attn_block_h2o(layer, &h[s], &mut caches[s], &mut h2o_states[s]);
                    }
                } else {
                    model.attn_block_batch(
                        layer,
                        &mut h,
                        &active,
                        &mut caches,
                        cfg.mask,
                        &mut attn_scratch,
                    );
                }

                // (3) Gate every token; group tokens by expert.
                for group in tokens_of.iter_mut() {
                    group.clear();
                }
                for &s in &active {
                    model.moe_norm_into(layer, &h[s], &mut normed[s]);
                    model.route_token_into(layer, &normed[s], &mut routing, &mut route_scratch);
                    for &(e, w) in &routing.picks {
                        tokens_of[e].push((s, w));
                        layer_popularity[e] += 1;
                    }
                }

                // (4) On-demand requests for activated cold experts, in
                // discovery (expert-id within gate output) order.
                for (e, group) in tokens_of.iter().enumerate() {
                    if !group.is_empty() && !requested[e] {
                        requested[e] = true;
                        n_requested += 1;
                        req_tx
                            .send(FetchRequest { layer, expert: e })
                            .expect("I/O thread alive");
                    }
                }

                // (5) Compute experts in ARRIVAL order. Each arrived
                // expert's token group runs as ONE batched forward —
                // dispatched to the worker pool when one is running, so
                // independent experts overlap — and its slot is released
                // the moment its compute finishes ("offloaded
                // immediately"). The single event channel means the
                // inference thread always reacts to whichever happens
                // first: an arrival or a completion.
                let mut remaining = n_requested;
                let mut in_flight = 0usize;
                arrived.iter_mut().for_each(|f| *f = false);
                while remaining > 0 || in_flight > 0 {
                    match event_rx.recv().expect("pipeline threads alive") {
                        Event::Fetched(fetched) => {
                            remaining -= 1;
                            let e = fetched.expert;
                            assert!(!arrived[e], "duplicate expert arrival");
                            arrived[e] = true;
                            if tokens_of[e].is_empty() {
                                result.prefetch_misses += 1;
                                slot_tx.send(fetched.weights).expect("returning slot");
                                continue;
                            }
                            if hot.contains(&e) {
                                result.prefetch_hits += 1;
                            }
                            // Stack the expert's routed tokens row-major
                            // into its pooled input matrix.
                            let xs = &mut expert_xs[e];
                            xs.resize(tokens_of[e].len(), mcfg.d_model);
                            for (r, &(s, _)) in tokens_of[e].iter().enumerate() {
                                xs.row_mut(r).copy_from_slice(&normed[s]);
                            }
                            if let Some(task_tx) = &task_tx {
                                // Move the pooled buffers into the task;
                                // they ride back with Event::Computed. The
                                // empty placeholders left behind do not
                                // allocate.
                                task_tx
                                    .send(ComputeTask {
                                        expert: e,
                                        weights: fetched.weights,
                                        xs: std::mem::take(&mut expert_xs[e]),
                                        out: std::mem::take(&mut expert_rows[e]),
                                    })
                                    .expect("worker pool alive");
                                in_flight += 1;
                            } else {
                                fetched.weights.forward_batch_into(
                                    &expert_xs[e],
                                    &mut expert_rows[e],
                                    &mut ffn_scratch,
                                );
                                rows_ready[e] = true;
                                slot_tx.send(fetched.weights).expect("returning slot");
                            }
                        }
                        Event::Computed {
                            expert,
                            xs,
                            rows,
                            weights,
                        } => {
                            // Return the buffers to the per-expert pools.
                            expert_xs[expert] = xs;
                            expert_rows[expert] = rows;
                            rows_ready[expert] = true;
                            in_flight -= 1;
                            // Expert finished: offload immediately.
                            slot_tx.send(weights).expect("returning slot");
                        }
                    }
                }

                // (6) Combine in fixed expert-index order (bit-exactness):
                // ascending-e iteration adds each sequence's contributions
                // in exactly the order [`MoeModel::combine`] would after
                // its sort, with no per-token Vec churn.
                for (e, ready) in rows_ready.iter_mut().enumerate() {
                    if !*ready {
                        continue;
                    }
                    *ready = false;
                    let rows = &expert_rows[e];
                    for (r, &(s, w)) in tokens_of[e].iter().enumerate() {
                        for (hv, &x) in h[s].iter_mut().zip(rows.row(r)) {
                            *hv += w * x;
                        }
                    }
                }
            }

            for &s in &active {
                std::mem::swap(&mut hidden[s], &mut h[s]);
            }
        }

        drop(task_tx);
        drop(req_tx);
        result.expert_fetches = io.join().expect("I/O thread panicked");
        result.final_hidden = hidden;
    })
    .expect("pipeline threads");

    result.elapsed = start.elapsed();
    result
}

/// The `k` most popular experts into a reused output, with reused sort
/// scratch. The key is unique per expert (count, then expert id), so the
/// unstable sort is deterministic — and, unlike the stable sort, it never
/// allocates.
// analyze: no_alloc
fn top_k_by_into(counts: &[u64], k: usize, idx: &mut Vec<usize>, out: &mut Vec<usize>) {
    idx.clear();
    idx.extend(0..counts.len());
    idx.sort_unstable_by_key(|&e| (std::cmp::Reverse(counts[e]), e));
    out.clear();
    out.extend(idx.iter().take(k));
}

#[cfg(test)]
mod tests {
    use super::*;
    use klotski_moe::config::MoeConfig;
    use klotski_tensor::simd::{BackendGuard, KernelBackend};

    fn prompts(n: usize, len: usize, vocab: usize) -> Vec<Vec<u32>> {
        (0..n)
            .map(|s| {
                (0..len)
                    .map(|p| ((s * 31 + p * 7 + 3) % vocab) as u32)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn pipeline_matches_reference_bit_exactly() {
        let model = MoeModel::new(MoeConfig::tiny(21));
        let p = prompts(4, 6, model.config().vocab);
        let reference = model.generate(&p, 4, AttnMask::Dense);
        let piped = run_pipeline(&model, &p, 4, &NativePipelineConfig::default());
        assert_eq!(piped.tokens, reference.tokens, "token streams diverged");
        assert_eq!(
            piped.final_hidden, reference.final_hidden,
            "hidden states diverged: the reorder is not numerics-neutral"
        );
    }

    #[test]
    fn pipeline_matches_reference_with_one_slot() {
        // Fully serialized I/O (1 slot) must still be correct.
        let model = MoeModel::new(MoeConfig::tiny(5));
        let p = prompts(2, 5, model.config().vocab);
        let reference = model.generate(&p, 3, AttnMask::Dense);
        let cfg = NativePipelineConfig {
            vram_slots: 1,
            ..Default::default()
        };
        let piped = run_pipeline(&model, &p, 3, &cfg);
        assert_eq!(piped.tokens, reference.tokens);
        assert_eq!(piped.final_hidden, reference.final_hidden);
    }

    #[test]
    fn pipeline_matches_reference_with_streaming_mask() {
        let model = MoeModel::new(MoeConfig::tiny(9));
        let p = prompts(2, 12, model.config().vocab);
        let mask = AttnMask::Streaming {
            sinks: 2,
            window: 4,
        };
        let reference = model.generate(&p, 3, mask);
        let cfg = NativePipelineConfig {
            mask,
            ..Default::default()
        };
        let piped = run_pipeline(&model, &p, 3, &cfg);
        assert_eq!(piped.tokens, reference.tokens);
        assert_eq!(piped.final_hidden, reference.final_hidden);
    }

    #[test]
    fn ragged_prompts_are_handled() {
        let model = MoeModel::new(MoeConfig::tiny(13));
        let vocab = model.config().vocab;
        let p = vec![
            prompts(1, 4, vocab).remove(0),
            prompts(1, 7, vocab).remove(0),
            prompts(1, 5, vocab).remove(0),
        ];
        let reference = model.generate(&p, 3, AttnMask::Dense);
        let piped = run_pipeline(&model, &p, 3, &NativePipelineConfig::default());
        assert_eq!(piped.tokens, reference.tokens);
        assert_eq!(piped.final_hidden, reference.final_hidden);
    }

    #[test]
    fn quantized_run_differs_but_stays_reasonable() {
        let model = MoeModel::new(MoeConfig::tiny(3));
        let p = prompts(2, 6, model.config().vocab);
        let exact = run_pipeline(&model, &p, 3, &NativePipelineConfig::default());
        let cfg = NativePipelineConfig {
            quant: Some(QuantConfig::paper_default()),
            ..Default::default()
        };
        let quant = run_pipeline(&model, &p, 3, &cfg);
        // Hidden states are close but not identical.
        assert_ne!(exact.final_hidden, quant.final_hidden);
        let max_diff: f32 = exact.final_hidden[0]
            .iter()
            .zip(&quant.final_hidden[0])
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max);
        assert!(max_diff < 1.0, "quantized drift too large: {max_diff}");
    }

    #[test]
    fn fused_and_staged_quantized_runs_are_bit_identical() {
        // The fused quantized GEMM changes where dequantization happens,
        // not a single output bit: packed slots + in-register dequant must
        // equal dequantize-into-slot + dense GEMMs exactly, with and
        // without the worker pool.
        let model = MoeModel::new(MoeConfig::tiny(11));
        let p = prompts(4, 6, model.config().vocab);
        let staged = run_pipeline(
            &model,
            &p,
            4,
            &NativePipelineConfig {
                quant: Some(QuantConfig::paper_default()),
                fused_quant: false,
                ..Default::default()
            },
        );
        for workers in [1usize, 3] {
            let fused = run_pipeline(
                &model,
                &p,
                4,
                &NativePipelineConfig {
                    quant: Some(QuantConfig::paper_default()),
                    fused_quant: true,
                    compute_workers: workers,
                    ..Default::default()
                },
            );
            assert_eq!(fused.tokens, staged.tokens, "workers={workers}");
            assert_eq!(fused.final_hidden, staged.final_hidden, "workers={workers}");
        }
    }

    #[test]
    fn kernel_backends_are_bit_identical_end_to_end() {
        // Forcing the scalar backend versus the detected best must not
        // change a bit of any output — the whole-pipeline form of the
        // kernel-level byte-identity proptests.
        let model = MoeModel::new(MoeConfig::tiny(27));
        let p = prompts(3, 6, model.config().vocab);
        let scalar = {
            let _scalar = BackendGuard::force(KernelBackend::Scalar);
            run_pipeline(&model, &p, 4, &NativePipelineConfig::default())
        };
        let detected = run_pipeline(&model, &p, 4, &NativePipelineConfig::default());
        assert_eq!(scalar.tokens, detected.tokens);
        assert_eq!(scalar.final_hidden, detected.final_hidden);
    }

    #[test]
    fn pipeline_matches_reference_with_h2o_policy() {
        // The future-work sparse-KV policy composes with the reordered
        // pipeline: bit-exact against the sequential H2O reference.
        let model = MoeModel::new(MoeConfig::tiny(19));
        let p = prompts(3, 14, model.config().vocab);
        let h2o_cfg = H2oConfig {
            budget: 6,
            sinks: 2,
        };
        let reference = model.generate_h2o(&p, 4, h2o_cfg);
        let cfg = NativePipelineConfig {
            h2o: Some(h2o_cfg),
            ..Default::default()
        };
        let piped = run_pipeline(&model, &p, 4, &cfg);
        assert_eq!(piped.tokens, reference.tokens);
        assert_eq!(piped.final_hidden, reference.final_hidden);
        // And the policy actually bites on these long prompts.
        let dense = model.generate(&p, 4, AttnMask::Dense);
        assert_ne!(dense.final_hidden, reference.final_hidden);
    }

    #[test]
    fn prefetch_statistics_are_collected() {
        let model = MoeModel::new(MoeConfig::tiny(17));
        let p = prompts(6, 8, model.config().vocab);
        let r = run_pipeline(&model, &p, 4, &NativePipelineConfig::default());
        assert!(r.expert_fetches > 0);
        assert!(
            r.prefetch_hits + r.prefetch_misses > 0,
            "prefetches must be scored"
        );
        // With 6 sequences routed top-2 over 6 experts, predicted hot
        // experts should mostly participate.
        let hit_rate = r.prefetch_hits as f64 / (r.prefetch_hits + r.prefetch_misses).max(1) as f64;
        assert!(hit_rate > 0.5, "hit rate = {hit_rate}");
    }

    #[test]
    fn every_worker_count_matches_reference_bit_exactly() {
        // Batching an expert's token group into GEMMs, inline or on the
        // worker pool, changes nothing but wall-clock.
        let model = MoeModel::new(MoeConfig::tiny(23));
        let p = prompts(5, 7, model.config().vocab);
        let reference = model.generate(&p, 4, AttnMask::Dense);
        for workers in [1usize, 2, 4] {
            let piped = run_pipeline(
                &model,
                &p,
                4,
                &NativePipelineConfig {
                    compute_workers: workers,
                    ..Default::default()
                },
            );
            assert_eq!(piped.tokens, reference.tokens, "workers={workers}");
            assert_eq!(
                piped.final_hidden, reference.final_hidden,
                "workers={workers}"
            );
        }
    }

    #[test]
    fn batched_attention_matches_reference_bit_exactly() {
        // Group-batched attention versus the sequential reference's
        // per-token walk, on dense and streaming masks alike, including
        // a group of one.
        let model = MoeModel::new(MoeConfig::tiny(31));
        for (n_seqs, mask) in [
            (1usize, AttnMask::Dense),
            (5, AttnMask::Dense),
            (
                3,
                AttnMask::Streaming {
                    sinks: 2,
                    window: 4,
                },
            ),
        ] {
            let p = prompts(n_seqs, 9, model.config().vocab);
            let reference = model.generate(&p, 4, mask);
            let piped = run_pipeline(
                &model,
                &p,
                4,
                &NativePipelineConfig {
                    mask,
                    ..Default::default()
                },
            );
            assert_eq!(piped.tokens, reference.tokens, "{n_seqs} seqs {mask:?}");
            assert_eq!(
                piped.final_hidden, reference.final_hidden,
                "{n_seqs} seqs {mask:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "empty prompt")]
    fn empty_prompt_is_rejected() {
        let model = MoeModel::new(MoeConfig::tiny(3));
        let p = vec![vec![1, 2, 3], Vec::new()];
        run_pipeline(&model, &p, 0, &NativePipelineConfig::default());
    }

    #[test]
    fn worker_pool_composes_with_one_slot_and_h2o() {
        // The tight corner: a 1-slot pool serializes fetches behind slot
        // returns, so completions must be able to release slots while the
        // inference thread waits — the single event channel guarantees it.
        let model = MoeModel::new(MoeConfig::tiny(29));
        let p = prompts(4, 9, model.config().vocab);
        let h2o_cfg = H2oConfig {
            budget: 6,
            sinks: 2,
        };
        let reference = model.generate_h2o(&p, 3, h2o_cfg);
        let piped = run_pipeline(
            &model,
            &p,
            3,
            &NativePipelineConfig {
                vram_slots: 1,
                h2o: Some(h2o_cfg),
                compute_workers: 3,
                ..Default::default()
            },
        );
        assert_eq!(piped.tokens, reference.tokens);
        assert_eq!(piped.final_hidden, reference.final_hidden);
    }
}
