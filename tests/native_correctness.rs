//! Cross-crate validation of the native execution path: Klotski's
//! reordered, two-threaded pipeline must be numerically indistinguishable
//! from the sequential reference, across model shapes and configurations.

use klotski::core::native::{run_pipeline, NativePipelineConfig};
use klotski::moe::attention::AttnMask;
use klotski::moe::config::MoeConfig;
use klotski::moe::model::MoeModel;
use klotski::tensor::quant::QuantConfig;

fn prompts(n: usize, len: usize, vocab: usize, salt: usize) -> Vec<Vec<u32>> {
    (0..n)
        .map(|s| {
            (0..len)
                .map(|p| ((s * 31 + p * 7 + salt) % vocab) as u32)
                .collect()
        })
        .collect()
}

#[test]
fn bit_exact_across_model_shapes() {
    for (cfg, label) in [
        (MoeConfig::tiny(100), "tiny"),
        (MoeConfig::small(200), "small"),
    ] {
        let model = MoeModel::new(cfg);
        let p = prompts(3, 7, cfg.vocab, 2);
        let reference = model.generate(&p, 5, AttnMask::Dense);
        let piped = run_pipeline(&model, &p, 5, &NativePipelineConfig::default());
        assert_eq!(piped.tokens, reference.tokens, "{label}: tokens");
        assert_eq!(
            piped.final_hidden, reference.final_hidden,
            "{label}: hidden states"
        );
    }
}

#[test]
fn bit_exact_across_slot_counts() {
    // The VRAM slot pool changes *when* experts arrive, never *what* is
    // computed.
    let model = MoeModel::new(MoeConfig::tiny(42));
    let p = prompts(4, 6, model.config().vocab, 3);
    let reference = model.generate(&p, 4, AttnMask::Dense);
    for slots in [1usize, 2, 4, 8] {
        let cfg = NativePipelineConfig {
            vram_slots: slots,
            ..Default::default()
        };
        let piped = run_pipeline(&model, &p, 4, &cfg);
        assert_eq!(piped.final_hidden, reference.final_hidden, "slots={slots}");
    }
}

#[test]
fn bit_exact_across_prefetch_depths() {
    let model = MoeModel::new(MoeConfig::tiny(43));
    let p = prompts(4, 6, model.config().vocab, 5);
    let reference = model.generate(&p, 4, AttnMask::Dense);
    for k in [0usize, 1, 3, 6] {
        let cfg = NativePipelineConfig {
            prefetch_k: k,
            ..Default::default()
        };
        let piped = run_pipeline(&model, &p, 4, &cfg);
        assert_eq!(piped.final_hidden, reference.final_hidden, "prefetch_k={k}");
    }
}

#[test]
fn streaming_attention_matches_reference_streaming() {
    let model = MoeModel::new(MoeConfig::tiny(44));
    let p = prompts(2, 16, model.config().vocab, 1);
    let mask = AttnMask::Streaming {
        sinks: 2,
        window: 5,
    };
    let reference = model.generate(&p, 4, mask);
    let cfg = NativePipelineConfig {
        mask,
        ..Default::default()
    };
    let piped = run_pipeline(&model, &p, 4, &cfg);
    assert_eq!(piped.final_hidden, reference.final_hidden);
    // And streaming output differs from dense output on long contexts.
    let dense_ref = model.generate(&p, 4, AttnMask::Dense);
    assert_ne!(dense_ref.final_hidden, reference.final_hidden);
}

#[test]
fn quantized_store_bounds_drift() {
    let model = MoeModel::new(MoeConfig::tiny(45));
    let p = prompts(3, 8, model.config().vocab, 9);
    let exact = run_pipeline(&model, &p, 4, &NativePipelineConfig::default());
    let cfg = NativePipelineConfig {
        quant: Some(QuantConfig::paper_default()),
        ..Default::default()
    };
    let q = run_pipeline(&model, &p, 4, &cfg);
    let drift: f32 = q
        .final_hidden
        .iter()
        .zip(&exact.final_hidden)
        .flat_map(|(a, b)| a.iter().zip(b).map(|(x, y)| (x - y).abs()))
        .fold(0.0, f32::max);
    assert!(drift > 0.0, "4-bit must not be lossless");
    assert!(drift < 1.5, "4-bit drift {drift} exceeds 1.5");
}

#[test]
fn prefetch_hit_rate_reflects_skewed_routing() {
    // With enough sequences, the online popularity predictor should hit
    // most of the time — the multi-batch aggregation effect of §6.2.
    let model = MoeModel::new(MoeConfig::small(46));
    let p = prompts(12, 10, model.config().vocab, 4);
    let piped = run_pipeline(&model, &p, 6, &NativePipelineConfig::default());
    let rate =
        piped.prefetch_hits as f64 / (piped.prefetch_hits + piped.prefetch_misses).max(1) as f64;
    assert!(rate > 0.6, "prefetch hit rate = {rate:.2}");
}

#[test]
fn batched_experts_and_worker_pool_are_numerics_neutral() {
    // The compute-side levers — batched expert GEMMs and the parallel
    // worker pool — must be invisible in the output: every worker count is
    // bit-identical to the sequential reference.
    let model = MoeModel::new(MoeConfig::small(48));
    let p = prompts(6, 9, model.config().vocab, 7);
    let reference = model.generate(&p, 4, AttnMask::Dense);
    for compute_workers in [1usize, 2, 4] {
        let cfg = NativePipelineConfig {
            compute_workers,
            ..Default::default()
        };
        let piped = run_pipeline(&model, &p, 4, &cfg);
        assert_eq!(
            piped.tokens, reference.tokens,
            "workers={compute_workers}: tokens"
        );
        assert_eq!(
            piped.final_hidden, reference.final_hidden,
            "workers={compute_workers}: hidden"
        );
    }
}

#[test]
fn batched_attention_is_numerics_neutral() {
    // Group-batched Q/K/V/O GEMMs + strided scores/AV kernels versus the
    // sequential reference's per-token `attend_one` walk: bit-identical on
    // ragged prompts, dense and streaming masks, with expert compute
    // inline and on the worker pool.
    let model = MoeModel::new(MoeConfig::small(49));
    let vocab = model.config().vocab;
    let p = vec![
        prompts(1, 5, vocab, 11).remove(0),
        prompts(1, 9, vocab, 12).remove(0),
        prompts(1, 7, vocab, 13).remove(0),
        prompts(1, 12, vocab, 14).remove(0),
    ];
    for mask in [
        AttnMask::Dense,
        AttnMask::Streaming {
            sinks: 2,
            window: 4,
        },
    ] {
        let reference = model.generate(&p, 5, mask);
        for compute_workers in [1usize, 4] {
            let cfg = NativePipelineConfig {
                mask,
                compute_workers,
                ..Default::default()
            };
            let piped = run_pipeline(&model, &p, 5, &cfg);
            assert_eq!(
                piped.tokens, reference.tokens,
                "workers={compute_workers} {mask:?}: tokens"
            );
            assert_eq!(
                piped.final_hidden, reference.final_hidden,
                "workers={compute_workers} {mask:?}: hidden"
            );
        }
    }
}

#[test]
fn routing_is_expert_diverse() {
    // Sanity for the scheduling problem itself: real gates spread tokens
    // over multiple experts per layer (otherwise reordering is trivial).
    let model = MoeModel::new(MoeConfig::small(47));
    let p = prompts(8, 12, model.config().vocab, 6);
    let reference = model.generate(&p, 4, AttnMask::Dense);
    let cfg = model.config();
    for layer in 0..cfg.n_layers {
        let mut used = std::collections::HashSet::new();
        for ev in reference.routing.iter().filter(|e| e.layer == layer) {
            used.extend(ev.experts.iter().copied());
        }
        assert!(
            used.len() >= 3,
            "layer {layer} used only {} experts",
            used.len()
        );
    }
}
