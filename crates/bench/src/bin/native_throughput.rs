//! Native-path throughput: tokens/sec of the really-executed pipeline,
//! prefill and decode, across batch sizes — the repo's perf trajectory
//! (committed as `BENCH_native.json`, extended per PR, never overwritten
//! blindly).
//!
//! Every cell runs one workload through two sides and reports both
//! tokens/sec and their ratio. Four comparisons:
//!
//! * **reference** — [`MoeModel::generate`], the sequential per-token
//!   oracle, vs the default [`run_pipeline`] (batched expert GEMMs,
//!   group-batched attention, the worker pool), on the bench model
//!   (prefill and decode) and on an attention-heavy shape (decode);
//! * **workers** — the default pipeline with 1 compute worker (expert
//!   GEMMs inline) vs the default pool;
//! * **kernels** — the default pipeline with the tensor micro-kernels
//!   forced to scalar (a [`BackendGuard`] held around the call) vs the
//!   detected backend (AVX2 or SSE2; the SIMD kernels are a default
//!   feature of `klotski-tensor`);
//! * **quant** — a 4-bit expert store, staged (I/O-thread dequantize into
//!   a dense slot, then dense GEMMs) vs fused (GEMM straight off the
//!   packed codes).
//!
//! Every run must reproduce its cell's first run — tokens and final hidden
//! states, bit for bit — so the reference cells assert the pipeline equals
//! `generate`. Pipeline sides are timed by [`NativeRunResult::elapsed`]
//! (store build excluded); the `generate` side is timed here. Each side is
//! the best of 2 runs.
//!
//! Full mode gates: decode at ≥ 8 sequences runs ≥ 2× faster on the
//! default pipeline than on `generate`, on both models; with AVX2
//! available, the detected kernels decode ≥ 1.5× faster than scalar at 32
//! sequences; fused beats staged at the largest batch. Output ends with
//! one JSON line per cell; everything in it is deterministic except the
//! wall-clock-derived `*_tps` / `speedup` fields.
//!
//! `KLOTSKI_CHEAP=1` shrinks the models and sweeps to CI-smoke scale while
//! still asserting byte-identity on every side, and only smoke-checks the
//! speedups (shared CI runners make tight ratio asserts flaky).

use std::time::{Duration, Instant};

use klotski_bench::{cheap_mode, TextTable};
use klotski_core::native::{run_pipeline, NativePipelineConfig};
use klotski_moe::attention::AttnMask;
use klotski_moe::config::MoeConfig;
use klotski_moe::model::MoeModel;
use klotski_tensor::quant::QuantConfig;
use klotski_tensor::simd::{cpu_features, detected_backend, BackendGuard, KernelBackend};

/// The bench model (unchanged across `BENCH_native.json` so the trajectory
/// stays comparable). Bigger than the test presets on purpose: each expert is
/// ~3 MB (full) / ~0.75 MB (cheap), so per-token compute actually
/// re-streams weights out of cache and the batched path's amortization is
/// measured, not simulated.
fn bench_model(cheap: bool) -> MoeConfig {
    if cheap {
        MoeConfig {
            n_layers: 2,
            d_model: 128,
            d_ff: 512,
            n_heads: 4,
            head_dim: 32,
            n_experts: 6,
            top_k: 2,
            vocab: 256,
            seed: 77,
        }
    } else {
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
}

/// The attention-heavy model: wide attention (d_model 512, 16 heads)
/// against modest experts, the regime where the attention block is a
/// material share of decode step time (as it is in real large models).
fn attn_heavy_model(cheap: bool) -> MoeConfig {
    if cheap {
        MoeConfig {
            n_layers: 2,
            d_model: 256,
            d_ff: 128,
            n_heads: 8,
            head_dim: 32,
            n_experts: 6,
            top_k: 2,
            vocab: 256,
            seed: 78,
        }
    } else {
        MoeConfig {
            n_layers: 2,
            d_model: 512,
            d_ff: 512,
            n_heads: 16,
            head_dim: 32,
            n_experts: 8,
            top_k: 2,
            vocab: 512,
            seed: 78,
        }
    }
}

fn prompts(n_seqs: usize, len: usize, vocab: usize) -> Vec<Vec<u32>> {
    (0..n_seqs)
        .map(|s| {
            (0..len)
                .map(|p| ((s * 131 + p * 17 + 7) % vocab) as u32)
                .collect()
        })
        .collect()
}

fn tps(tokens: usize, d: Duration) -> f64 {
    tokens as f64 / d.as_secs_f64().max(1e-9)
}

/// A run's generated tokens and final hidden states.
type Output = (Vec<Vec<u32>>, Vec<Vec<f32>>);

/// One side of a comparison.
#[derive(Clone, Copy)]
struct Side {
    label: &'static str,
    /// The pipeline configuration; `None` runs [`MoeModel::generate`].
    pipeline: Option<NativePipelineConfig>,
    /// Kernel backend forced for the run (`None`: the detected one).
    backend: Option<KernelBackend>,
}

impl Side {
    fn pipeline(label: &'static str, cfg: NativePipelineConfig) -> Self {
        Side {
            label,
            pipeline: Some(cfg),
            backend: None,
        }
    }

    /// One run: its wall time and its output.
    fn run(&self, model: &MoeModel, p: &[Vec<u32>], gen_len: usize) -> (Duration, Output) {
        let _pinned = self.backend.map(BackendGuard::force);
        match &self.pipeline {
            Some(cfg) => {
                let r = run_pipeline(model, p, gen_len, cfg);
                (r.elapsed, (r.tokens, r.final_hidden))
            }
            None => {
                // analyze: allow(determinism) -- times the reference side; the duration is reported, never branched on
                let start = Instant::now();
                let r = model.generate(p, gen_len, AttnMask::Dense);
                (start.elapsed(), (r.tokens, r.final_hidden))
            }
        }
    }
}

/// A comparison's axis name and its two sides: `base`, then `new`.
type Comparison = (&'static str, Side, Side);

/// A workload's phase, prompt length and generated tokens per sequence.
type Shape = (&'static str, usize, usize);

/// One workload through two sides: `base` (the slower or reference side)
/// and `new`.
struct Cell {
    axis: &'static str,
    model: &'static str,
    phase: &'static str,
    n_seqs: usize,
    /// Total forward-pass tokens the run processes (prompt + generated).
    tokens: usize,
    base: &'static str,
    new: &'static str,
    base_time: Duration,
    new_time: Duration,
}

impl Cell {
    /// Times both sides, best of 2 runs each, asserting every run matches
    /// the first one bit for bit.
    fn measure(
        (axis, base, new): Comparison,
        (model_name, model): (&'static str, &MoeModel),
        n_seqs: usize,
        (phase, prompt_len, gen_len): Shape,
    ) -> Self {
        let p = prompts(n_seqs, prompt_len, model.config().vocab);
        let mut expected: Option<Output> = None;
        let mut best = |side: &Side| {
            let mut fastest = Duration::MAX;
            for _ in 0..2 {
                let (elapsed, out) = side.run(model, &p, gen_len);
                fastest = fastest.min(elapsed);
                let Some(e) = &expected else {
                    expected = Some(out);
                    continue;
                };
                let what = format!("{axis}/{model_name} {phase} {n_seqs} seqs, {}", side.label);
                assert_eq!(out.0, e.0, "{what}: tokens diverged");
                assert_eq!(out.1, e.1, "{what}: hidden states diverged");
            }
            fastest
        };
        let base_time = best(&base);
        let new_time = best(&new);
        Cell {
            axis,
            model: model_name,
            phase,
            n_seqs,
            tokens: n_seqs * (prompt_len + gen_len),
            base: base.label,
            new: new.label,
            base_time,
            new_time,
        }
    }

    fn speedup(&self) -> f64 {
        self.base_time.as_secs_f64() / self.new_time.as_secs_f64().max(1e-9)
    }

    fn json_line(&self, mode: &str) -> String {
        format!(
            "{{\"bench\":\"native_throughput\",\"mode\":\"{mode}\",\"axis\":\"{}\",\
             \"model\":\"{}\",\"phase\":\"{}\",\"seqs\":{},\"tokens\":{},\"base\":\"{}\",\
             \"new\":\"{}\",\"base_tps\":{:.1},\"new_tps\":{:.1},\"speedup\":{:.2},\
             \"kernel_backend\":\"{}\",\"cpu_features\":\"{}\"}}",
            self.axis,
            self.model,
            self.phase,
            self.n_seqs,
            self.tokens,
            self.base,
            self.new,
            tps(self.tokens, self.base_time),
            tps(self.tokens, self.new_time),
            self.speedup(),
            detected_backend().name(),
            cpu_features(),
        )
    }
}

/// The best decode speedup among `axis` cells on `model` with at least
/// `min_seqs` sequences (0 when there are none).
fn gate(cells: &[Cell], axis: &str, model: &str, min_seqs: usize) -> f64 {
    cells
        .iter()
        .filter(|c| c.axis == axis && c.model == model && c.phase == "decode")
        .filter(|c| c.n_seqs >= min_seqs)
        .map(Cell::speedup)
        .fold(0.0, f64::max)
}

fn describe(name: &str, m: &MoeConfig) {
    println!(
        "{name}: {} layers x {} experts (top-{}), d_model {} ({} heads), d_ff {}",
        m.n_layers, m.n_experts, m.top_k, m.d_model, m.n_heads, m.d_ff,
    );
}

fn main() {
    let cheap = cheap_mode();
    let mode = if cheap { "cheap" } else { "full" };
    let bench_cfg = bench_model(cheap);
    let attn_cfg = attn_heavy_model(cheap);
    let bench = ("bench", &MoeModel::new(bench_cfg));
    let attn_heavy = ("attn_heavy", &MoeModel::new(attn_cfg));

    println!("== native_throughput ({mode}) ==");
    describe("bench model", &bench_cfg);
    describe("attn_heavy model", &attn_cfg);
    println!(
        "kernels: scalar vs {} (cpu: {})",
        detected_backend(),
        cpu_features()
    );

    let default = Side::pipeline("pipeline", NativePipelineConfig::default());
    let generate = Side {
        label: "generate",
        pipeline: None,
        backend: None,
    };
    let reference = ("reference", generate, default);
    let one_worker = NativePipelineConfig {
        compute_workers: 1,
        ..Default::default()
    };
    let workers = ("workers", Side::pipeline("1_worker", one_worker), default);
    let scalar = Side {
        label: "scalar",
        backend: Some(KernelBackend::Scalar),
        ..default
    };
    let detected = Side {
        label: "detected",
        ..default
    };
    let kernels = ("kernels", scalar, detected);
    let quantized = |fused_quant| NativePipelineConfig {
        quant: Some(QuantConfig::paper_default()),
        fused_quant,
        ..Default::default()
    };
    let staged = Side::pipeline("staged", quantized(false));
    let fused = Side::pipeline("fused", quantized(true));
    let quant = ("quant", staged, fused);

    let (sweep_sizes, pair_sizes, heavy_sizes): (&[usize], &[usize], &[usize]) = if cheap {
        (&[2, 8], &[2], &[2, 8])
    } else {
        (&[1, 8, 16, 32], &[8, 32], &[8, 32])
    };
    // Prefill cells are prompt-dominated, decode cells generation-dominated.
    let (prefill, decode, long_decode): (Shape, Shape, Shape) = if cheap {
        (("prefill", 16, 1), ("decode", 2, 6), ("decode", 8, 8))
    } else {
        (("prefill", 48, 1), ("decode", 4, 12), ("decode", 24, 24))
    };

    let mut cells = Vec::new();
    for &n in sweep_sizes {
        for shape in [prefill, decode] {
            cells.push(Cell::measure(reference, bench, n, shape));
            cells.push(Cell::measure(workers, bench, n, shape));
        }
    }
    for &n in heavy_sizes {
        cells.push(Cell::measure(reference, attn_heavy, n, long_decode));
    }
    for &n in pair_sizes {
        cells.push(Cell::measure(kernels, bench, n, decode));
        cells.push(Cell::measure(quant, bench, n, decode));
    }

    let mut table = TextTable::new([
        "axis",
        "model",
        "phase",
        "seqs",
        "tokens",
        "base",
        "new",
        "base tok/s",
        "new tok/s",
        "speedup",
    ]);
    for c in &cells {
        table.row([
            c.axis.to_owned(),
            c.model.to_owned(),
            c.phase.to_owned(),
            c.n_seqs.to_string(),
            c.tokens.to_string(),
            c.base.to_owned(),
            c.new.to_owned(),
            format!("{:.0}", tps(c.tokens, c.base_time)),
            format!("{:.0}", tps(c.tokens, c.new_time)),
            format!("{:.2}x", c.speedup()),
        ]);
    }
    table.print();
    println!(
        "\nevery side byte-identical to its cell's first run (tokens + final hidden): confirmed"
    );

    // The original decode bar, now against the sequential oracle: on >= 8-sequence
    // batches, the default pipeline decodes >= 2x faster than `generate`,
    // on both models.
    let reference_gate = gate(&cells, "reference", "bench", 8);
    let heavy_gate = gate(&cells, "reference", "attn_heavy", 8);
    // At 32 sequences the SIMD kernels decode >= 1.5x faster than scalar,
    // gated only when the AVX2 backend is available.
    let simd_gate = gate(&cells, "kernels", "bench", 32);
    // At the largest batch, fused beats staged dequantize-then-GEMM.
    let quant_gate = gate(&cells, "quant", "bench", 32);
    if cheap {
        println!("decode speedup over generate at >=8 seqs: {reference_gate:.2}x (not gated)");
        println!("attn_heavy, kernel-backend and quantized-GEMM speedups: cheap mode, not gated");
    } else {
        for (what, got) in [("bench", reference_gate), ("attn_heavy", heavy_gate)] {
            println!("{what} decode speedup over generate at >=8 seqs: {got:.2}x (gate: >=2.00x)");
            assert!(
                got >= 2.0,
                "{what}: the pipeline must decode >=2x faster than generate, got {got:.2}x"
            );
        }
        if KernelBackend::Avx2.is_available() {
            println!("SIMD kernel decode speedup at 32 seqs: {simd_gate:.2}x (gate: >=1.50x)");
            assert!(
                simd_gate >= 1.5,
                "AVX2 kernels must be >=1.5x over scalar decode at 32 seqs, got {simd_gate:.2}x"
            );
        } else {
            println!(
                "SIMD kernel decode speedup at 32 seqs: {simd_gate:.2}x \
                 (not gated: AVX2 backend unavailable, detected {})",
                detected_backend()
            );
        }
        println!("fused quantized-GEMM decode speedup at 32 seqs: {quant_gate:.2}x (gate: >1.00x)");
        assert!(
            quant_gate > 1.0,
            "fused quantized GEMM must beat staged dequantize-then-GEMM at the largest batch, \
             got {quant_gate:.2}x"
        );
    }

    println!("\n-- JSON --");
    for c in &cells {
        println!("{}", c.json_line(mode));
    }
}
