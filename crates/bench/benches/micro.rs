//! Criterion microbenchmarks for the library's hot paths: the simulator
//! core, the planner, the prefetcher, the quantizer, the native kernels,
//! trace generation, and a small end-to-end engine run.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use klotski_core::compress::Compression;
use klotski_core::engine::{KlotskiConfig, KlotskiEngine};
use klotski_core::native::{run_pipeline, NativePipelineConfig};
use klotski_core::planner::Planner;
use klotski_core::prefetcher::CorrelationTable;
use klotski_core::scenario::{Engine, Scenario};
use klotski_model::cost::CostModel;
use klotski_model::hardware::HardwareSpec;
use klotski_model::spec::ModelSpec;
use klotski_model::trace::{GatingModel, TraceConfig};
use klotski_model::workload::Workload;
use klotski_moe::config::MoeConfig;
use klotski_moe::model::MoeModel;
use klotski_sim::event::EventQueue;
use klotski_sim::prelude::*;
use klotski_tensor::init::xavier_matrix;
use klotski_tensor::quant::QuantizedMatrix;

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("sim/event_queue_push_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..10_000u64 {
                q.push(SimTime::from_nanos((i * 7919) % 100_000), i);
            }
            let mut acc = 0u64;
            while let Some((_, v)) = q.pop() {
                acc = acc.wrapping_add(v);
            }
            black_box(acc)
        })
    });
}

fn bench_simulator(c: &mut Criterion) {
    c.bench_function("sim/chain_10k_tasks", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(TierCapacities::unbounded());
            let mut prev: Option<TaskId> = None;
            for _ in 0..10_000 {
                let id = sim
                    .task(
                        Resource::GpuCompute,
                        SimDuration::from_micros(5),
                        TaskMeta::of(OpClass::Misc),
                    )
                    .after_all(prev)
                    .submit();
                prev = Some(id);
            }
            while sim.step().unwrap().is_some() {}
            black_box(sim.now())
        })
    });
}

fn bench_planner(c: &mut Criterion) {
    let cost = CostModel::new(ModelSpec::mixtral_8x7b(), HardwareSpec::env1_rtx3090());
    let planner = Planner::new(cost, Compression::none());
    let gating = GatingModel::new(&TraceConfig::for_model(&ModelSpec::mixtral_8x7b(), 1));
    let wl = Workload::paper_default(16);
    c.bench_function("core/planner_solve", |b| {
        b.iter(|| black_box(planner.plan(&wl, Some(&gating))))
    });
}

fn bench_prefetcher(c: &mut Criterion) {
    let gating = GatingModel::new(&TraceConfig::for_model(&ModelSpec::mixtral_8x7b(), 1));
    let mut table = CorrelationTable::new(32, 8);
    table.warm_up(&gating, 4096, 3);
    let prev: Vec<u16> = (0..960).map(|i| (i % 8) as u16).collect();
    c.bench_function("core/prefetcher_predict_960_tokens", |b| {
        b.iter(|| black_box(table.predict(black_box(17), &prev, 2)))
    });
    c.bench_function("core/correlation_warmup_1k_tokens", |b| {
        b.iter(|| {
            let mut t = CorrelationTable::new(32, 8);
            t.warm_up(&gating, 1000, 7);
            black_box(t.total_records())
        })
    });
    // The engine's 4096-token pre-run on either side of the walk's size
    // rule: Mixtral's 8 experts draw by threshold lookup, switch-base-128's
    // 128 experts by scan.
    for (name, spec) in [
        ("mixtral_8x7b", ModelSpec::mixtral_8x7b()),
        ("switch_base_128", ModelSpec::switch_base(128)),
    ] {
        let gating = GatingModel::new(&TraceConfig::for_model(&spec, 1));
        c.bench_function(&format!("core/correlation_warmup_4k_tokens_{name}"), |b| {
            b.iter(|| {
                let mut t = CorrelationTable::new(spec.n_moe_layers(), spec.n_experts);
                t.warm_up(&gating, 4096, 0xC0FFEE);
                black_box(t.total_records())
            })
        });
    }
}

fn bench_quantizer(c: &mut Criterion) {
    let w = xavier_matrix(64, 1024, 5);
    c.bench_function("tensor/quantize_64x1024_4bit", |b| {
        b.iter(|| black_box(QuantizedMatrix::quantize(&w)))
    });
    // One expert matrix, as the native store quantizes 96 of them per
    // `run_pipeline` call: the group-at-a-time quantizer vs the retained
    // per-element reference loop.
    let expert = xavier_matrix(1024, 256, 6);
    c.bench_function("tensor/quantize_1024x256_4bit", |b| {
        b.iter(|| black_box(QuantizedMatrix::quantize(&expert)))
    });
    c.bench_function("tensor/quantize_1024x256_4bit_reference", |b| {
        b.iter(|| black_box(QuantizedMatrix::quantize_reference(&expert)))
    });
    let q = QuantizedMatrix::quantize(&w);
    c.bench_function("tensor/dequantize_64x1024_4bit", |b| {
        b.iter(|| black_box(q.dequantize()))
    });
    // Group-at-a-time dequantization (the nibble kernel, one scale/zero
    // load per group) vs the retained per-element reference.
    let mut out = klotski_tensor::matrix::Matrix::zeros(64, 1024);
    c.bench_function("tensor/dequantize_into_64x1024_grouped", |b| {
        b.iter(|| {
            q.dequantize_into(&mut out);
            black_box(out.row(63)[1023])
        })
    });
    c.bench_function("tensor/dequantize_into_64x1024_reference", |b| {
        b.iter(|| {
            q.dequantize_reference_into(&mut out);
            black_box(out.row(63)[1023])
        })
    });
}

fn bench_simd_kernels(c: &mut Criterion) {
    use klotski_tensor::matrix::Matrix;
    use klotski_tensor::simd::{detected_backend, KernelBackend};
    // The 2x8 register-blocked nt kernel at an expert-FFN shape, scalar vs
    // AVX2 where the CPU (and feature set) offers it. Both are
    // bit-identical; only the instruction mix differs.
    let xs = xavier_matrix(16, 256, 3);
    let w = xavier_matrix(1024, 256, 4);
    let mut out = Matrix::zeros(16, 1024);
    let mut backends = vec![KernelBackend::Scalar];
    if KernelBackend::Avx2.is_available() {
        backends.push(KernelBackend::Avx2);
    }
    for &backend in &backends {
        c.bench_function(&format!("tensor/matmul_nt_16x256x1024_{backend}"), |b| {
            b.iter(|| {
                xs.matmul_nt_into_with_backend(&w, &mut out, backend);
                black_box(out.row(15)[1023])
            })
        });
    }
    let x: Vec<f32> = (0..256).map(|i| (i as f32 * 0.13).sin()).collect();
    let mut y = vec![0.0f32; 1024];
    for &backend in &backends {
        c.bench_function(&format!("tensor/matvec_1024x256_{backend}"), |b| {
            b.iter(|| {
                w.matvec_into_with_backend(&x, &mut y, backend);
                black_box(y[1023])
            })
        });
    }
    let _ = detected_backend();
}

fn bench_fused_quant_gemm(c: &mut Criterion) {
    use klotski_tensor::matrix::Matrix;
    // Staged dequantize-then-GEMM (what the slot path did before fusion)
    // vs the fused quantized-domain GEMM, at an expert-FFN shape.
    let w = xavier_matrix(1024, 256, 6);
    let q = QuantizedMatrix::quantize(&w);
    let xs = xavier_matrix(16, 256, 7);
    let mut dense = Matrix::zeros(1024, 256);
    let mut out = Matrix::zeros(16, 1024);
    c.bench_function("tensor/quant_gemm_16x256x1024_staged", |b| {
        b.iter(|| {
            q.dequantize_into(&mut dense);
            xs.matmul_nt_into(&dense, &mut out);
            black_box(out.row(15)[1023])
        })
    });
    c.bench_function("tensor/quant_gemm_16x256x1024_fused", |b| {
        b.iter(|| {
            q.matmul_nt_fused_into(&xs, &mut out);
            black_box(out.row(15)[1023])
        })
    });
    // One input row, the offloading regime's shape (1-2 tokens per
    // expert), where decoding the codes outweighs the multiply-adds.
    let x1 = xavier_matrix(1, 256, 8);
    let mut out1 = Matrix::zeros(1, 1024);
    c.bench_function("tensor/quant_gemm_1x256x1024_fused", |b| {
        b.iter(|| {
            q.matmul_nt_fused_into(&x1, &mut out1);
            black_box(out1.row(0)[1023])
        })
    });
}

fn bench_native_kernels(c: &mut Criterion) {
    // Tiled/register-blocked nt kernel vs the retained naive reference, at
    // an expert-FFN-like shape.
    let xs = xavier_matrix(16, 256, 3);
    let w = xavier_matrix(1024, 256, 4);
    c.bench_function("tensor/matmul_nt_16x256x1024_tiled", |b| {
        b.iter(|| black_box(xs.matmul_nt(&w)))
    });
    c.bench_function("tensor/matmul_nt_16x256x1024_naive", |b| {
        b.iter(|| black_box(xs.matmul_nt_naive(&w)))
    });
    let model = MoeModel::new(MoeConfig::tiny(3));
    let x = vec![0.1f32; model.config().d_model];
    c.bench_function("moe/expert_forward_tiny", |b| {
        b.iter(|| black_box(model.expert_out(0, 0, &x)))
    });
    // Batched expert forward vs the same tokens one at a time. The batched
    // form reuses its output and scratch, as the pipeline does.
    let e = klotski_moe::weights::ExpertWeights::seeded(model.config(), 0, 0);
    let toks = xavier_matrix(16, model.config().d_model, 5);
    let mut out = klotski_tensor::matrix::Matrix::zeros(0, 0);
    let mut scratch = klotski_moe::weights::FfnScratch::default();
    c.bench_function("moe/expert_forward_batch_16", |b| {
        b.iter(|| {
            e.forward_batch_into(&toks, &mut out, &mut scratch);
            black_box(out.row(15)[0])
        })
    });
    c.bench_function("moe/expert_forward_16_per_token", |b| {
        b.iter(|| {
            for r in 0..toks.rows() {
                black_box(e.forward(toks.row(r)));
            }
        })
    });
}

fn bench_attention_kernels(c: &mut Criterion) {
    use klotski_tensor::matrix::{
        matvec_strided_into, matvec_strided_naive, weighted_rows_into, weighted_rows_naive,
        StridedRows,
    };
    // One attention head's slice of a 128-position KV slab (d_model 256,
    // head_dim 32, head 3) — the scores and AV shapes of batched
    // attention, blocked kernel vs naive reference.
    let (d_model, head_dim, off, len) = (256usize, 32usize, 3 * 32usize, 128usize);
    let slab = xavier_matrix(len, d_model, 11);
    let q: Vec<f32> = (0..head_dim).map(|i| (i as f32 * 0.17).sin()).collect();
    let idx: Vec<usize> = (0..len).collect();
    let weights: Vec<f32> = (0..len).map(|i| 1.0 / (i + 1) as f32).collect();
    let mut scores = vec![0.0f32; len];
    let mut av = vec![0.0f32; head_dim];
    c.bench_function("tensor/matvec_strided_128pos_blocked", |b| {
        b.iter(|| {
            let rows = StridedRows::new(slab.as_slice(), d_model, off, head_dim);
            matvec_strided_into(&q, &rows, &idx, &mut scores);
            black_box(scores[len - 1])
        })
    });
    c.bench_function("tensor/matvec_strided_128pos_naive", |b| {
        b.iter(|| {
            let rows = StridedRows::new(slab.as_slice(), d_model, off, head_dim);
            matvec_strided_naive(&q, &rows, &idx, &mut scores);
            black_box(scores[len - 1])
        })
    });
    c.bench_function("tensor/weighted_rows_128pos_blocked", |b| {
        b.iter(|| {
            let rows = StridedRows::new(slab.as_slice(), d_model, off, head_dim);
            weighted_rows_into(&weights, &rows, &idx, &mut av);
            black_box(av[head_dim - 1])
        })
    });
    c.bench_function("tensor/weighted_rows_128pos_naive", |b| {
        b.iter(|| {
            let rows = StridedRows::new(slab.as_slice(), d_model, off, head_dim);
            weighted_rows_naive(&weights, &rows, &idx, &mut av);
            black_box(av[head_dim - 1])
        })
    });
    // A whole-group attention step vs the per-token walk (8 sequences).
    let cfg = MoeConfig::tiny(3);
    let model = MoeModel::new(cfg);
    let group: Vec<usize> = (0..8).collect();
    let hs: Vec<Vec<f32>> = (0..8)
        .map(|s| {
            (0..cfg.d_model)
                .map(|i| ((s * 7 + i) as f32 * 0.1).sin())
                .collect()
        })
        .collect();
    c.bench_function("moe/attn_block_batch_8seq", |b| {
        let mut scratch = model.attn_scratch();
        b.iter(|| {
            let mut caches: Vec<_> = (0..8).map(|_| model.new_cache()).collect();
            let mut h = hs.clone();
            model.attn_block_batch(
                0,
                &mut h,
                &group,
                &mut caches,
                klotski_moe::attention::AttnMask::Dense,
                &mut scratch,
            );
            black_box(h[7][0])
        })
    });
    c.bench_function("moe/attn_block_8seq_per_token", |b| {
        b.iter(|| {
            let mut caches: Vec<_> = (0..8).map(|_| model.new_cache()).collect();
            let mut out = 0.0;
            for s in 0..8 {
                let h = model.attn_block(
                    0,
                    &hs[s],
                    &mut caches[s],
                    klotski_moe::attention::AttnMask::Dense,
                );
                out = h[0];
            }
            black_box(out)
        })
    });
}

fn bench_trace_generation(c: &mut Criterion) {
    let gating = GatingModel::new(&TraceConfig::for_model(&ModelSpec::mixtral_8x7b(), 1));
    c.bench_function("model/generate_trace_64seq_8steps", |b| {
        b.iter(|| black_box(gating.generate_trace(64, 512, 8, 9)))
    });
}

fn bench_engine_end_to_end(c: &mut Criterion) {
    let sc = Scenario::generate(
        ModelSpec::mixtral_8x7b(),
        HardwareSpec::env1_rtx3090(),
        Workload::new(8, 4, 128, 4),
        11,
    );
    let engine = KlotskiEngine::new(KlotskiConfig::full());
    c.bench_function("core/klotski_sim_run_small", |b| {
        b.iter(|| black_box(engine.run(&sc).unwrap().throughput_tps()))
    });
    // The serving fleet's typical batch group, without the prefetcher
    // warm-up: DAG build plus simulator drain alone.
    let sc = Scenario::generate(
        ModelSpec::mixtral_8x7b(),
        HardwareSpec::env1_rtx3090(),
        Workload::new(8, 1, 128, 8),
        2025,
    );
    let engine = KlotskiEngine::new(KlotskiConfig {
        warmup_tokens: 0,
        ..KlotskiConfig::full()
    });
    c.bench_function("core/klotski_run_fleet_group_no_warmup", |b| {
        b.iter(|| black_box(engine.run(&sc).unwrap().throughput_tps()))
    });
}

fn bench_native_pipeline(c: &mut Criterion) {
    let model = MoeModel::new(MoeConfig::tiny(13));
    let prompts: Vec<Vec<u32>> = (0..4)
        .map(|s| (0..6).map(|p| ((s * 31 + p * 7) % 96) as u32).collect())
        .collect();
    c.bench_function("core/native_pipeline_tiny", |b| {
        b.iter(|| {
            black_box(run_pipeline(
                &model,
                &prompts,
                3,
                &NativePipelineConfig::default(),
            ))
        })
    });
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_simulator,
    bench_planner,
    bench_prefetcher,
    bench_quantizer,
    bench_simd_kernels,
    bench_fused_quant_gemm,
    bench_native_kernels,
    bench_attention_kernels,
    bench_trace_generation,
    bench_engine_end_to_end,
    bench_native_pipeline,
);
criterion_main!(benches);
