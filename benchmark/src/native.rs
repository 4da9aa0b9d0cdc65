//! The native workloads: Klotski's threaded pipeline (`run_pipeline`) on
//! `native_throughput`'s full bench model, dense and 4-bit.
//!
//! Untraced runs time whole `run_pipeline` calls (store build included,
//! since every call pays it). Traced runs add a single-threaded layer
//! replay: it re-runs the same prompts step by step through the public
//! calls the pipeline makes, with a span around each, and must reproduce
//! the pipeline's tokens and final hidden states bit for bit.

use std::cmp::Reverse;
use std::time::{Duration, Instant};

use klotski_core::engine::{KlotskiConfig, KlotskiEngine};
use klotski_core::native::{run_pipeline, ExpertStore, NativePipelineConfig, NativeRunResult};
use klotski_model::hardware::HardwareSpec;
use klotski_model::spec::{Dtype, FfnKind, ModelSpec};
use klotski_moe::attention::AttnMask;
use klotski_moe::config::MoeConfig;
use klotski_moe::gate::{RouteScratch, Routing};
use klotski_moe::kv::KvCache;
use klotski_moe::model::MoeModel;
use klotski_moe::weights::{ExpertWeights, FfnScratch, QuantizedExpertWeights};
use klotski_serve::admission::AdmissionPolicy;
use klotski_serve::metrics::{summarize, SloSpec};
use klotski_serve::server::{serve, ServeConfig, Traffic};
use klotski_serve::traffic::Request;
use klotski_sim::time::SimTime;
use klotski_tensor::matrix::Matrix;
use klotski_tensor::quant::QuantConfig;

use crate::run::{ms, repeat_for, timed, Measured, Metric};
use crate::trace::{Recorder, Track};
use crate::{Mode, SIM_SEED};

/// One native workload: the batch and the expert store's precision.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Sequences in the batch group.
    pub n_seqs: usize,
    /// Prompt tokens per sequence.
    pub prompt_len: usize,
    /// Generated tokens per sequence.
    pub gen_len: usize,
    /// 4-bit expert store (fused quantized GEMM) instead of a dense one.
    pub quant: bool,
}

/// `native_dense_b32`: the compute-bound multi-batch regime.
pub const DENSE_B32: Shape = Shape {
    n_seqs: 32,
    prompt_len: 4,
    gen_len: 12,
    quant: false,
};

/// `native_q4_b4`: the offloading regime, 1–2 tokens per expert.
pub const Q4_B4: Shape = Shape {
    n_seqs: 4,
    prompt_len: 4,
    gen_len: 48,
    quant: true,
};

/// Fewest timed reps of a run, whatever the time budget.
const MIN_REPS: usize = 3;
/// Largest per-element drift of the 4-bit run's final hidden states
/// from the dense oracle — the bound the pipeline's unit tests use.
const QUANT_DRIFT_BOUND: f32 = 1.0;

/// `native_throughput`'s full bench model: 4 layers × 8 experts top-2,
/// d_model 256, d_ff 1024 (each expert ≈ 3 MB dense).
pub fn bench_model() -> MoeConfig {
    MoeConfig {
        n_layers: 4,
        d_model: 256,
        d_ff: 1024,
        n_heads: 8,
        head_dim: 32,
        n_experts: 8,
        top_k: 2,
        vocab: 512,
        seed: 77,
    }
}

/// The pipeline configuration a user gets, plus the 4-bit store.
fn pipeline_config(shape: &Shape) -> NativePipelineConfig {
    NativePipelineConfig {
        quant: shape.quant.then(QuantConfig::paper_default),
        ..Default::default()
    }
}

/// Uniform random prompts drawn from `seed` (SplitMix64).
fn make_prompts(seed: u64, shape: &Shape, vocab: usize) -> Vec<Vec<u32>> {
    let mut state = seed ^ 0x6e61_7469_7665;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    (0..shape.n_seqs)
        .map(|_| {
            (0..shape.prompt_len)
                .map(|_| (next() % vocab as u64) as u32)
                .collect()
        })
        .collect()
}

/// The outputs every timed rep must reproduce.
struct Oracle {
    tokens: Vec<Vec<u32>>,
    final_hidden: Vec<Vec<f32>>,
}

/// Sequences whose tokens and final hidden state equal the reference's
/// bit for bit.
fn matching(
    tokens: &[Vec<u32>],
    final_hidden: &[Vec<f32>],
    ref_tokens: &[Vec<u32>],
    ref_hidden: &[Vec<f32>],
) -> u64 {
    let same_bits = |a: &[f32], b: &[f32]| {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    };
    (0..ref_tokens.len())
        .filter(|&s| {
            tokens.get(s) == Some(&ref_tokens[s])
                && final_hidden
                    .get(s)
                    .is_some_and(|h| same_bits(h, &ref_hidden[s]))
        })
        .count() as u64
}

impl Oracle {
    /// Sequences of `(tokens, final_hidden)` that match the oracle.
    fn matching(&self, tokens: &[Vec<u32>], final_hidden: &[Vec<f32>]) -> u64 {
        matching(tokens, final_hidden, &self.tokens, &self.final_hidden)
    }
}

/// Builds the oracle once per run. Dense: `MoeModel::generate`, the
/// sequential reference. 4-bit: the staged path (`fused_quant: false`),
/// since fused == staged is a pinned contract, after checking that it
/// stays within the unit tests' drift bound of the dense reference.
///
/// Greedy 4-bit and dense decoding pick different tokens within a few
/// dozen steps, after which their hidden states are not comparable. The
/// drift is therefore measured teacher-forced: the dense reference reads
/// the 4-bit run's own generated tokens as its prompt, so both final
/// hidden states come from the same 52 input tokens.
fn oracle(model: &MoeModel, prompts: &[Vec<u32>], shape: &Shape, m: &mut Measured) -> Oracle {
    if !shape.quant {
        let dense = model.generate(prompts, shape.gen_len, AttnMask::Dense);
        return Oracle {
            tokens: dense.tokens,
            final_hidden: dense.final_hidden,
        };
    }
    let staged = run_pipeline(
        model,
        prompts,
        shape.gen_len,
        &NativePipelineConfig {
            fused_quant: false,
            ..pipeline_config(shape)
        },
    );
    let forced: Vec<Vec<u32>> = prompts
        .iter()
        .zip(&staged.tokens)
        .map(|(p, t)| p.iter().chain(t).copied().collect())
        .collect();
    let dense = model.generate(&forced, 0, AttnMask::Dense);
    let drift = staged
        .final_hidden
        .iter()
        .zip(&dense.final_hidden)
        .flat_map(|(q, d)| q.iter().zip(d).map(|(a, b)| (a - b).abs()))
        .fold(0.0f32, f32::max);
    m.notes.push(format!(
        "4-bit staged path vs teacher-forced dense reference: max |final hidden drift| \
         {drift:.4} (bound {QUANT_DRIFT_BOUND})"
    ));
    m.check(
        format!("4-bit output within drift {QUANT_DRIFT_BOUND} of the dense reference"),
        drift < QUANT_DRIFT_BOUND,
    );
    Oracle {
        tokens: staged.tokens,
        final_hidden: staged.final_hidden,
    }
}

/// The native model's shape as a simulator spec.
fn simulated_spec(cfg: &MoeConfig) -> ModelSpec {
    ModelSpec {
        name: "native-bench".to_owned(),
        n_layers: cfg.n_layers as u32,
        d_model: cfg.d_model as u64,
        d_ff: cfg.d_ff as u64,
        n_heads: cfg.n_heads as u64,
        n_kv_heads: cfg.n_heads as u64,
        head_dim: cfg.head_dim as u64,
        n_experts: cfg.n_experts as u32,
        top_k: cfg.top_k as u32,
        moe_every: 1,
        vocab: cfg.vocab as u64,
        dtype: Dtype::F32,
        ffn: FfnKind::SwiGlu,
    }
}

/// The `sim_*` metrics of a native workload: the same batch (same
/// sequence count and lengths, the bench model's shape) served as one
/// batch group by the simulated Klotski stack in Env 1, every request
/// arriving at t = 0. Exact, so it guards the simulator's prediction for
/// this workload at zero spread.
fn simulated_metrics(shape: &Shape, m: &mut Measured) {
    let spec = simulated_spec(&bench_model());
    let engine = KlotskiEngine::new(if shape.quant {
        KlotskiConfig::quantized()
    } else {
        KlotskiConfig::full()
    });
    let requests: Vec<Request> = (0..shape.n_seqs as u64)
        .map(|id| Request {
            id,
            arrival: SimTime::ZERO,
            prompt_len: shape.prompt_len as u32,
            gen_len: shape.gen_len as u32,
        })
        .collect();
    let batch_size = shape.n_seqs.min(8) as u32;
    let report = serve(
        &engine,
        &spec,
        &HardwareSpec::env1_rtx3090(),
        &Traffic::Open(requests),
        &ServeConfig {
            batch_size,
            policy: AdmissionPolicy::FixedN {
                n: shape.n_seqs as u32 / batch_size,
            },
            seed: SIM_SEED,
        },
    )
    .expect("the simulated stack accepts the native model's shape");
    let slo = SloSpec::relaxed();
    let s = summarize(&report, &slo);
    let served = report.outcomes.iter().filter(|o| !o.failed).count();
    m.check(
        "simulated counterpart serves every sequence",
        served == shape.n_seqs && report.outcomes.len() == shape.n_seqs,
    );
    let base = format!(
        "simulated Klotski, Env 1, {} sequences in {} group(s), SLO ttft {} / tpot {}",
        shape.n_seqs,
        report.groups.len(),
        slo.ttft,
        slo.tpot
    );
    m.metrics.push(Metric::exact(
        "sim_goodput_tok_s",
        "sim_tok/s",
        s.goodput_tps,
        base.clone(),
    ));
    m.metrics.push(Metric::exact(
        "sim_ttft_p50_s",
        "sim_s",
        s.ttft.p50.as_secs_f64(),
        base.clone(),
    ));
    m.metrics.push(Metric::exact(
        "sim_ttft_p99_s",
        "sim_s",
        s.ttft.p99.as_secs_f64(),
        format!(
            "{base}; nearest rank over {} samples, {} beyond it",
            s.requests,
            s.requests - (s.requests * 99).div_ceil(100)
        ),
    ));
}

/// The workload's set-up: the model and the prompts.
fn inputs(shape: &Shape, seed: u64) -> (MoeModel, Vec<Vec<u32>>) {
    let mcfg = bench_model();
    (MoeModel::new(mcfg), make_prompts(seed, shape, mcfg.vocab))
}

/// Runs one native workload.
pub fn run(shape: &Shape, seed: u64, budget: Duration, mode: Mode) -> Measured {
    let mut m = Measured::default();
    let (model, prompts) = inputs(shape, seed);
    let cfg = pipeline_config(shape);
    m.compute_workers = cfg.compute_workers;
    let t = Instant::now();
    let oracle = oracle(&model, &prompts, shape, &mut m);
    let oracle_s = t.elapsed().as_secs_f64();

    // One warm rep: first-touch page faults and allocator growth are not
    // what a serving process pays per call.
    let t = Instant::now();
    let warm = run_pipeline(&model, &prompts, shape.gen_len, &cfg);
    m.notes.push(format!(
        "untimed: oracle {oracle_s:.2} s, warm-up rep {:.2} s",
        t.elapsed().as_secs_f64()
    ));
    m.check(
        "warm-up rep matches the oracle bit for bit",
        oracle.matching(&warm.tokens, &warm.final_hidden) == shape.n_seqs as u64,
    );

    match mode {
        Mode::EndToEnd => end_to_end(shape, seed, budget, (model, prompts), &oracle, &mut m),
        Mode::Traced => traced(shape, budget, &model, &prompts, &oracle, &mut m),
    }
    m
}

fn end_to_end(
    shape: &Shape,
    seed: u64,
    budget: Duration,
    first_inputs: (MoeModel, Vec<Vec<u32>>),
    oracle: &Oracle,
    m: &mut Measured,
) {
    let cfg = pipeline_config(shape);
    let generated = (shape.n_seqs * shape.gen_len) as f64;
    let mut setup_s = Vec::new();
    let mut tok_s = Vec::new();
    let mut seq_s = Vec::new();
    let mut completed = 0u64;
    let mut deterministic = true;
    let mut first: Option<(u64, u64, u64)> = None;
    let mut current = Some(first_inputs);
    m.reps = repeat_for(budget, MIN_REPS, || {
        // Rebuild the inputs before each rep, timed as set-up. The old
        // model goes first, so only one is ever resident.
        drop(current.take());
        let (model, prompts) = current.insert(timed(&mut setup_s, || inputs(shape, seed)));
        let (r, wall) = m
            .host
            .time(|| run_pipeline(model, prompts, shape.gen_len, &cfg));
        completed += oracle.matching(&r.tokens, &r.final_hidden);
        let counts = (r.expert_fetches, r.prefetch_hits, r.prefetch_misses);
        deterministic &= *first.get_or_insert(counts) == counts;
        tok_s.push(generated / wall);
        seq_s.push(shape.n_seqs as f64 / wall);
    });
    m.attempted = (m.reps * shape.n_seqs) as u64;
    m.failed = m.attempted - completed;
    m.check(
        "every timed rep matches the oracle bit for bit",
        m.failed == 0,
    );
    m.check("fetch/hit/miss counts repeat on every rep", deterministic);
    let base = format!(
        "{} sequences x {} generated tokens per run_pipeline call (store build included) \
         / its steal-free wall time",
        shape.n_seqs, shape.gen_len
    );
    m.metrics.push(Metric::lower_quartile(
        "tokens_per_s",
        "tok/s",
        &tok_s,
        format!("generated tokens: {base}"),
    ));
    m.metrics.push(Metric::lower_quartile(
        "sim_requests_per_s",
        "req/s",
        &seq_s,
        format!("completed sequences: {base}"),
    ));
    simulated_metrics(shape, m);
    m.metrics.push(Metric::exact(
        "completed_frac",
        "share",
        completed as f64 / m.attempted as f64,
        format!(
            "{completed} of {} sequences matched the oracle",
            m.attempted
        ),
    ));
    m.push_setup_and_memory(
        &setup_s,
        "MoeModel::new plus the prompts, rebuilt before each rep",
    );
}

/// What the layer replay computed and counted.
struct Replay {
    tokens: Vec<Vec<u32>>,
    final_hidden: Vec<Vec<f32>>,
    fetches: u64,
    hits: u64,
    misses: u64,
    expert_tokens: u64,
}

/// One VRAM slot buffer, as the pipeline keeps them.
enum Slot {
    Dense(ExpertWeights),
    Packed(QuantizedExpertWeights),
}

/// The `k` most popular experts, ties to the lower id (the pipeline's
/// prefetch order).
fn top_k(counts: &[u64], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..counts.len()).collect();
    idx.sort_unstable_by_key(|&e| (Reverse(counts[e]), e));
    idx.truncate(k);
    idx
}

/// Re-runs `run_pipeline`'s schedule on this thread, one public call at a
/// time, with a span around each call: hot experts predicted from the
/// online popularity table are fetched first, then the gate's cold
/// experts; each fetched expert computes its token group as one batched
/// forward; contributions combine in ascending expert order.
fn replay(
    model: &MoeModel,
    prompts: &[Vec<u32>],
    gen_len: usize,
    cfg: &NativePipelineConfig,
    rec: &mut Recorder,
) -> Replay {
    let mcfg = *model.config();
    let n_seqs = prompts.len();
    let span = rec.begin("ExpertStore::from_model", Track::Store);
    let store = ExpertStore::from_model(model, cfg.quant);
    rec.end(span);
    let mut slot = match cfg.quant {
        Some(q) if cfg.fused_quant => Slot::Packed(QuantizedExpertWeights::placeholder(q)),
        _ => Slot::Dense(ExpertWeights::placeholder()),
    };

    let mut popularity = vec![vec![0u64; mcfg.n_experts]; mcfg.n_layers];
    let mut caches: Vec<KvCache> = prompts
        .iter()
        .map(|p| model.new_cache_with_capacity(p.len() + gen_len))
        .collect();
    let mut tokens: Vec<Vec<u32>> = (0..n_seqs).map(|_| Vec::with_capacity(gen_len)).collect();
    let mut hidden: Vec<Vec<f32>> = vec![Vec::with_capacity(mcfg.d_model); n_seqs];
    let mut h: Vec<Vec<f32>> = vec![Vec::with_capacity(mcfg.d_model); n_seqs];
    let mut normed: Vec<Vec<f32>> = vec![Vec::with_capacity(mcfg.d_model); n_seqs];
    let mut tokens_of: Vec<Vec<(usize, f32)>> = vec![Vec::with_capacity(n_seqs); mcfg.n_experts];
    let mut xs = Matrix::zeros(n_seqs, mcfg.d_model);
    let mut rows: Vec<Matrix> = (0..mcfg.n_experts)
        .map(|_| Matrix::zeros(n_seqs, mcfg.d_model))
        .collect();
    let mut ready = vec![false; mcfg.n_experts];
    let mut requested = vec![false; mcfg.n_experts];
    let mut order: Vec<usize> = Vec::with_capacity(mcfg.n_experts);
    let mut active: Vec<usize> = Vec::with_capacity(n_seqs);
    let mut positions = vec![0usize; n_seqs];
    let mut routing = Routing { picks: Vec::new() };
    let mut route_scratch = RouteScratch::default();
    let mut ffn = FfnScratch::default();
    ffn.reserve(n_seqs, mcfg.d_ff);
    let mut logits = model.logits_scratch();
    let mut attn = model.attn_scratch();
    let max_prompt = prompts.iter().map(Vec::len).max().unwrap_or(0);
    let total_steps = max_prompt + gen_len;
    attn.reserve(n_seqs, total_steps);

    let mut out = Replay {
        tokens: Vec::new(),
        final_hidden: Vec::new(),
        fetches: 0,
        hits: 0,
        misses: 0,
        expert_tokens: 0,
    };
    for step in 0..total_steps {
        active.clear();
        for (s, prompt) in prompts.iter().enumerate() {
            let pos = positions[s];
            let tok = if step < prompt.len() {
                if step != pos {
                    continue;
                }
                prompt[pos]
            } else if pos == step && tokens[s].len() < gen_len {
                let span = rec.begin("next_token_with", Track::EmbedLogits);
                let next = model.next_token_with(&hidden[s], &mut logits);
                rec.end(span);
                tokens[s].push(next);
                next
            } else {
                continue;
            };
            let span = rec.begin("embed_into", Track::EmbedLogits);
            model.embed_into(tok, pos, &mut h[s]);
            rec.end(span);
            positions[s] += 1;
            active.push(s);
        }
        if active.is_empty() {
            continue;
        }

        for (layer, layer_popularity) in popularity.iter_mut().enumerate() {
            let hot = top_k(layer_popularity, cfg.prefetch_k);
            requested.fill(false);
            order.clear();
            for &e in &hot {
                requested[e] = true;
                order.push(e);
            }

            let span = rec.begin("attn_block_batch", Track::Attention);
            model.attn_block_batch(layer, &mut h, &active, &mut caches, cfg.mask, &mut attn);
            rec.end(span);

            for group in tokens_of.iter_mut() {
                group.clear();
            }
            for &s in &active {
                let span = rec.begin("moe_norm_into", Track::Gate);
                model.moe_norm_into(layer, &h[s], &mut normed[s]);
                rec.end(span);
                let span = rec.begin("route_token_into", Track::Gate);
                model.route_token_into(layer, &normed[s], &mut routing, &mut route_scratch);
                rec.end(span);
                for &(e, w) in &routing.picks {
                    tokens_of[e].push((s, w));
                    layer_popularity[e] += 1;
                }
            }
            for (e, group) in tokens_of.iter().enumerate() {
                if !group.is_empty() && !requested[e] {
                    requested[e] = true;
                    order.push(e);
                }
            }

            for &e in &order {
                match &mut slot {
                    Slot::Dense(w) => {
                        let span = rec.begin("ExpertStore::fetch_into", Track::Store);
                        store.fetch_into(layer, e, w);
                        rec.end(span);
                    }
                    Slot::Packed(q) => {
                        let span = rec.begin("ExpertStore::fetch_packed_into", Track::Store);
                        store.fetch_packed_into(layer, e, q);
                        rec.end(span);
                    }
                }
                out.fetches += 1;
                if tokens_of[e].is_empty() {
                    out.misses += 1;
                    continue;
                }
                if hot.contains(&e) {
                    out.hits += 1;
                }
                xs.resize(tokens_of[e].len(), mcfg.d_model);
                for (r, &(s, _)) in tokens_of[e].iter().enumerate() {
                    xs.row_mut(r).copy_from_slice(&normed[s]);
                }
                let span = rec.begin("forward_batch_into", Track::Experts);
                match &slot {
                    Slot::Dense(w) => w.forward_batch_into(&xs, &mut rows[e], &mut ffn),
                    Slot::Packed(q) => q.forward_batch_into(&xs, &mut rows[e], &mut ffn),
                }
                rec.end(span);
                out.expert_tokens += tokens_of[e].len() as u64;
                ready[e] = true;
            }

            let span = rec.begin("combine", Track::Combine);
            for (e, is_ready) in ready.iter_mut().enumerate() {
                if !*is_ready {
                    continue;
                }
                *is_ready = false;
                for (r, &(s, w)) in tokens_of[e].iter().enumerate() {
                    for (hv, &x) in h[s].iter_mut().zip(rows[e].row(r)) {
                        *hv += w * x;
                    }
                }
            }
            rec.end(span);
        }

        for &s in &active {
            std::mem::swap(&mut hidden[s], &mut h[s]);
        }
    }
    out.tokens = tokens;
    out.final_hidden = hidden;
    out
}

/// Span names of the replay's phases, by the per-layer metric they feed.
const PHASES: [(&str, &[&str]); 7] = [
    ("store.build_ms", &["ExpertStore::from_model"]),
    (
        "store.fetch_ms",
        &["ExpertStore::fetch_into", "ExpertStore::fetch_packed_into"],
    ),
    ("moe.attention_ms", &["attn_block_batch"]),
    ("moe.gate_ms", &["moe_norm_into", "route_token_into"]),
    ("expert.compute_ms", &["forward_batch_into"]),
    ("moe.combine_ms", &["combine"]),
    ("moe.embed_logits_ms", &["embed_into", "next_token_with"]),
];

fn traced(
    shape: &Shape,
    budget: Duration,
    model: &MoeModel,
    prompts: &[Vec<u32>],
    oracle: &Oracle,
    m: &mut Measured,
) {
    let cfg = pipeline_config(shape);
    let mcfg = *model.config();
    let mut rec = Recorder::new(true);
    let mut phase_ms: Vec<Vec<f64>> = vec![Vec::new(); PHASES.len()];
    let mut wall_ms = Vec::new();
    let mut serial_ms = Vec::new();
    let mut overlap = Vec::new();
    let mut gflops = Vec::new();
    let mut overhead_ms = Vec::new();
    let mut coverage = Vec::new();
    let mut counts: Option<NativeRunResult> = None;
    let mut replay_counts = (0u64, 0u64, 0u64, 0u64);
    let mut completed = 0u64;
    let mut replay_exact = true;
    let mut last_rep = None;
    m.reps = repeat_for(budget, MIN_REPS, || {
        let rep = rec.begin("rep", Track::Bench);
        last_rep = rep.index();
        let span = rec.begin("run_pipeline", Track::Pipeline);
        let t = Instant::now();
        let piped = run_pipeline(model, prompts, shape.gen_len, &cfg);
        let wall = t.elapsed();
        rec.end(span);
        completed += oracle.matching(&piped.tokens, &piped.final_hidden);

        let span = rec.begin("replay", Track::Bench);
        let root = span.index();
        let t = Instant::now();
        let traced = replay(model, prompts, shape.gen_len, &cfg, &mut rec);
        let serial = t.elapsed();
        rec.end(span);
        let t = Instant::now();
        let untraced = replay(
            model,
            prompts,
            shape.gen_len,
            &cfg,
            &mut Recorder::new(false),
        );
        let untraced_wall = t.elapsed();
        rec.end(rep);

        for r in [&traced, &untraced] {
            replay_exact &= matching(
                &r.tokens,
                &r.final_hidden,
                &piped.tokens,
                &piped.final_hidden,
            ) == shape.n_seqs as u64;
        }
        let mut covered = 0.0;
        for (i, (_, names)) in PHASES.iter().enumerate() {
            let ns: u64 = names.iter().map(|n| rec.total_ns(n, root)).sum();
            covered += ns as f64;
            phase_ms[i].push(ms(ns));
        }
        coverage.push(covered / serial.as_nanos() as f64);
        let compute_ns = rec.total_ns("forward_batch_into", root);
        let flops = traced.expert_tokens as f64 * 6.0 * (mcfg.d_model * mcfg.d_ff) as f64;
        gflops.push(flops / compute_ns.max(1) as f64);
        wall_ms.push(wall.as_secs_f64() * 1e3);
        serial_ms.push(serial.as_secs_f64() * 1e3);
        overlap.push(serial.as_secs_f64() / wall.as_secs_f64());
        overhead_ms.push((serial.as_secs_f64() - untraced_wall.as_secs_f64()) * 1e3);
        replay_counts = (
            traced.fetches,
            traced.hits,
            traced.misses,
            traced.expert_tokens,
        );
        counts = Some(piped);
    });
    let piped = counts.expect("at least one traced rep");
    m.attempted = (m.reps * shape.n_seqs) as u64;
    m.failed = m.attempted - completed;
    m.check(
        "every pipeline rep matches the oracle bit for bit",
        m.failed == 0,
    );
    m.check(
        "layer replay reproduces run_pipeline's tokens and final hidden states bit for bit",
        replay_exact,
    );
    let min_coverage = coverage.iter().copied().fold(f64::INFINITY, f64::min);
    m.check(
        format!(
            "replay phases sum to within 5% of the replay's wall time \
             (lowest coverage {:.2}%)",
            min_coverage * 100.0
        ),
        min_coverage >= 0.95,
    );
    let (fetches, hits, misses, expert_tokens) = replay_counts;
    m.notes.push(format!(
        "replay counts vs NativeRunResult: fetches {fetches} vs {}, prefetch hits {hits} vs {}, \
         misses {misses} vs {} (reported, not asserted)",
        piped.expert_fetches, piped.prefetch_hits, piped.prefetch_misses
    ));

    let bytes_per_expert = if shape.quant {
        QuantizedExpertWeights::quantize(
            &model.weights().layers[0].experts[0],
            QuantConfig::paper_default(),
        )
        .stored_bytes() as f64
    } else {
        (model.weights().layers[0].experts[0].n_params() * 4) as f64
    };
    for (i, (name, spans)) in PHASES.iter().enumerate() {
        m.metrics.push(Metric::median(
            name,
            "ms",
            &phase_ms[i],
            format!("replay spans around {}", spans.join(" + ")),
        ));
    }
    m.metrics.push(Metric::exact(
        "store.fetch_count",
        "count",
        piped.expert_fetches as f64,
        "NativeRunResult::expert_fetches",
    ));
    m.metrics.push(Metric::exact(
        "store.fetch_mb",
        "MB",
        piped.expert_fetches as f64 * bytes_per_expert / 1e6,
        format!(
            "computed from tensor sizes: {} fetches x {:.0} bytes per {} expert",
            piped.expert_fetches,
            bytes_per_expert,
            if shape.quant {
                "packed 4-bit"
            } else {
                "dense f32"
            }
        ),
    ));
    m.metrics.push(Metric::median(
        "pipeline.wall_ms",
        "ms",
        &wall_ms,
        "run_pipeline wall time, store build included",
    ));
    m.metrics.push(Metric::median(
        "pipeline.serial_ms",
        "ms",
        &serial_ms,
        "wall time of the single-threaded traced replay",
    ));
    m.metrics.push(Metric::median(
        "pipeline.overlap_x",
        "x",
        &overlap,
        "pipeline.serial_ms / pipeline.wall_ms, per rep",
    ));
    let prefetched = piped.prefetch_hits + piped.prefetch_misses;
    m.metrics.push(Metric::exact(
        "prefetch.hit_ratio",
        "share",
        piped.prefetch_hits as f64 / prefetched.max(1) as f64,
        format!(
            "{} hits / {prefetched} prefetched experts",
            piped.prefetch_hits
        ),
    ));
    m.metrics.push(Metric::exact(
        "prefetch.misses",
        "count",
        piped.prefetch_misses as f64,
        "NativeRunResult::prefetch_misses",
    ));
    m.metrics.push(Metric::exact(
        "expert.tokens",
        "count",
        expert_tokens as f64,
        "routed tokens computed by forward_batch_into",
    ));
    m.metrics.push(Metric::median(
        "expert.gflop_s",
        "GFLOP/s",
        &gflops,
        format!(
            "computed: {expert_tokens} tokens x 6 x d_model {} x d_ff {} flops / expert.compute_ms",
            mcfg.d_model, mcfg.d_ff
        ),
    ));
    m.metrics.push(Metric::median(
        "trace.overhead_ms",
        "ms",
        &overhead_ms,
        "traced minus untraced wall time of the same replay",
    ));
    m.chrome = Some(rec.chrome_json(last_rep));
}
