//! Integration tests for the beyond-the-paper extensions: the persisted
//! correlation table (§8's JSON-tabulated pre-run, as a text codec), the
//! path-length-2 prefetcher (§8's l trade-off), and the heavy-hitter KV
//! policy (§9.8's future work) composed with the native pipeline.

use klotski::core::native::{run_pipeline, NativePipelineConfig};
use klotski::core::prefetcher::{measure_accuracy, measure_accuracy_l2, CorrelationTable};
use klotski::core::prefetcher_io::{parse_table, serialize_table};
use klotski::model::spec::ModelSpec;
use klotski::model::trace::{GatingModel, TraceConfig};
use klotski::moe::attention::AttnMask;
use klotski::moe::config::MoeConfig;
use klotski::moe::h2o::H2oConfig;
use klotski::moe::model::MoeModel;

#[test]
fn warmup_table_survives_persistence_and_still_predicts() {
    // The engine lifecycle of §6.2/§8: warm up once on sample data, save,
    // reload for a new task, keep online updates in memory only.
    let spec = ModelSpec::mixtral_8x7b();
    let cfg = TraceConfig::for_model(&spec, 21);
    let base = GatingModel::new(&cfg);
    let mut warm = CorrelationTable::new(cfg.n_moe_layers, cfg.n_experts);
    warm.warm_up(&base, 4096, 3);

    let saved = serialize_table(&warm);
    let mut reloaded = parse_table(&saved).expect("reload");

    // Predictions identical after the round trip…
    let prev: Vec<u16> = (0..128).map(|i| (i % 8) as u16).collect();
    for layer in 1..cfg.n_moe_layers {
        assert_eq!(
            reloaded.predict(layer, &prev, 2),
            warm.predict(layer, &prev, 2)
        );
    }
    // …and online updates change the in-memory copy, not the saved text.
    for _ in 0..10_000 {
        reloaded.record(5, Some(0), &[7]);
    }
    assert_eq!(reloaded.predict(5, &[0], 1), vec![7]);
    assert_eq!(
        serialize_table(&warm),
        saved,
        "saved table must be immutable"
    );
}

#[test]
fn path_length_two_is_a_modest_gain_for_8x_memory() {
    // §8: "Increasing l would add dimension to path recording, which
    // increases the complexity of the table lookup and memory occupation"
    // — quantified.
    let spec = ModelSpec::mixtral_8x7b();
    let cfg = TraceConfig::for_model(&spec, 31);
    let base = GatingModel::new(&cfg);
    let task = base.drifted(cfg.drift, 32);
    let trace = task.generate_trace(96, 128, 8, 33);
    let l1 = measure_accuracy(&base, &trace, 2, 4096);
    let l2 = measure_accuracy_l2(&base, &trace, 2, 4096);
    // Accuracy stays in the same band (no collapse, no miracle).
    assert!((l2.avg_really_hot - l1.avg_really_hot).abs() < 0.15);
    assert!(l2.avg_participation > 0.95);
}

#[test]
fn h2o_pipeline_is_exact_and_bounded_end_to_end() {
    let model = MoeModel::new(MoeConfig::small(55));
    let prompts: Vec<Vec<u32>> = (0..4)
        .map(|s| (0..20).map(|p| ((s * 13 + p * 5) % 128) as u32).collect())
        .collect();
    let h2o = H2oConfig {
        budget: 8,
        sinks: 2,
    };
    let reference = model.generate(&prompts, 5, AttnMask::HeavyHitter(h2o));
    let piped = run_pipeline(
        &model,
        &prompts,
        5,
        &NativePipelineConfig {
            mask: AttnMask::HeavyHitter(h2o),
            ..Default::default()
        },
    );
    assert_eq!(piped.tokens, reference.tokens);
    assert_eq!(piped.final_hidden, reference.final_hidden);
}

#[test]
fn h2o_composes_with_quantized_store() {
    use klotski::tensor::quant::QuantConfig;

    let model = MoeModel::new(MoeConfig::tiny(66));
    let prompts: Vec<Vec<u32>> = (0..3)
        .map(|s| (0..16).map(|p| ((s * 7 + p * 3) % 96) as u32).collect())
        .collect();
    let h2o = H2oConfig {
        budget: 7,
        sinks: 1,
    };
    let exact = run_pipeline(
        &model,
        &prompts,
        4,
        &NativePipelineConfig {
            mask: AttnMask::HeavyHitter(h2o),
            ..Default::default()
        },
    );
    let quant = run_pipeline(
        &model,
        &prompts,
        4,
        &NativePipelineConfig {
            mask: AttnMask::HeavyHitter(h2o),
            quant: Some(QuantConfig::paper_default()),
            ..Default::default()
        },
    );
    let drift: f32 = exact
        .final_hidden
        .iter()
        .zip(&quant.final_hidden)
        .flat_map(|(a, b)| a.iter().zip(b).map(|(x, y)| (x - y).abs()))
        .fold(0.0, f32::max);
    assert!(drift > 0.0 && drift < 1.5, "drift = {drift}");
}

/// 64-bit FNV-1a over every generated token, then the bit pattern of every
/// final-hidden value, in sequence order.
fn output_fnv(tokens: &[Vec<u32>], final_hidden: &[Vec<f32>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let words = tokens
        .iter()
        .flatten()
        .copied()
        .chain(final_hidden.iter().flatten().map(|v| v.to_bits()));
    for b in words.flat_map(u32::to_le_bytes) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn pin_prompts(n: usize, len: usize, vocab: usize) -> Vec<Vec<u32>> {
    (0..n)
        .map(|s| {
            (0..len)
                .map(|p| ((s * 31 + p * 7 + 3) % vocab) as u32)
                .collect()
        })
        .collect()
}

#[test]
fn heavy_hitter_outputs_are_pinned() {
    // Every prompt outgrows its budget, so eviction shapes every output
    // below. The pipeline and the reference must both reproduce these
    // exact bits.
    let model = MoeModel::new(MoeConfig::small(55));
    let prompts: Vec<Vec<u32>> = (0..4)
        .map(|s| (0..20).map(|p| ((s * 13 + p * 5) % 128) as u32).collect())
        .collect();
    let h2o = H2oConfig {
        budget: 8,
        sinks: 2,
    };
    let reference = model.generate(&prompts, 5, AttnMask::HeavyHitter(h2o));
    let piped = run_pipeline(
        &model,
        &prompts,
        5,
        &NativePipelineConfig {
            mask: AttnMask::HeavyHitter(h2o),
            ..Default::default()
        },
    );
    let small = 0xf6b2_d043_3285_f039;
    assert_eq!(
        output_fnv(&reference.tokens, &reference.final_hidden),
        small,
        "small(55) reference"
    );
    assert_eq!(
        output_fnv(&piped.tokens, &piped.final_hidden),
        small,
        "small(55) pipeline"
    );

    // One slot and a worker pool: fetches serialize behind slot returns.
    let model = MoeModel::new(MoeConfig::tiny(29));
    let prompts = pin_prompts(4, 9, model.config().vocab);
    let h2o = H2oConfig {
        budget: 6,
        sinks: 2,
    };
    let reference = model.generate(&prompts, 3, AttnMask::HeavyHitter(h2o));
    let piped = run_pipeline(
        &model,
        &prompts,
        3,
        &NativePipelineConfig {
            vram_slots: 1,
            mask: AttnMask::HeavyHitter(h2o),
            compute_workers: 3,
            ..Default::default()
        },
    );
    let pooled = 0x8a8b_79f5_9c1e_f5bd;
    assert_eq!(
        output_fnv(&reference.tokens, &reference.final_hidden),
        pooled,
        "tiny(29) reference"
    );
    assert_eq!(
        output_fnv(&piped.tokens, &piped.final_hidden),
        pooled,
        "tiny(29) pipeline"
    );

    // The fused 4-bit store, which the reference does not model.
    use klotski::tensor::quant::QuantConfig;
    let model = MoeModel::new(MoeConfig::tiny(66));
    let prompts = pin_prompts(3, 16, model.config().vocab);
    let piped = run_pipeline(
        &model,
        &prompts,
        4,
        &NativePipelineConfig {
            mask: AttnMask::HeavyHitter(H2oConfig {
                budget: 7,
                sinks: 1,
            }),
            quant: Some(QuantConfig::paper_default()),
            ..Default::default()
        },
    );
    assert_eq!(
        output_fnv(&piped.tokens, &piped.final_hidden),
        0x0d52_8757_ef63_c76b,
        "tiny(66) fused 4-bit pipeline"
    );
}
