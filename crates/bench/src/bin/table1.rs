//! Table 1: throughput improvement from the dense-model I/O-overlap
//! strategy (multi-batch weight sharing) applied to dense models (OPT)
//! versus MoE models (Switch Transformers).
//!
//! The paper's point: the strategy helps dense models much more
//! (201–268%) than MoE models (111–190%), because uniformly prefetching
//! "the next layer" ignores the MoE layer's multiplied expert I/O.

use klotski_bench::{tps_cell, TextTable, SEED};
use klotski_core::engine::{KlotskiConfig, KlotskiEngine};
use klotski_core::scenario::{Engine, EngineError, Scenario};
use klotski_model::hardware::HardwareSpec;
use klotski_model::spec::ModelSpec;
use klotski_model::workload::Workload;

fn main() -> Result<(), EngineError> {
    println!("== Table 1: I/O-overlap strategy on dense vs MoE models ==");
    println!("(batch size 4, sequence length 512, Environment 1)\n");

    // "Original": single-batch pipeline that prefetches the next layer
    // while computing the current one (Fig. 4(a)). "+Strategy": the same
    // with multi-batch weight sharing (Fig. 4(b)), n = 8.
    let original = KlotskiEngine::new(KlotskiConfig::ablation_simple_pipeline());
    let strategy = KlotskiEngine::new(KlotskiConfig::ablation_multi_batch());
    let n = 8;

    let mut table = TextTable::new([
        "Model",
        "Size (GB)",
        "Original",
        "+ Strategy",
        "Improvement",
        "Bubbles after",
    ]);
    let mut dense_bubbles = Vec::new();
    let mut moe_bubbles = Vec::new();

    for spec in [
        ModelSpec::opt_1_3b(),
        ModelSpec::opt_6_7b(),
        ModelSpec::switch_base(16),
        ModelSpec::switch_base(128),
    ] {
        let wl = Workload::new(4, n, 512, 32);
        let sc = Scenario::generate(spec.clone(), HardwareSpec::env1_rtx3090(), wl, SEED);
        let base = original.run(&sc)?;
        let plus = strategy.run(&sc)?;
        let improvement = (plus.throughput_tps() / base.throughput_tps() - 1.0) * 100.0;
        let bubbles = plus.bubble_fraction() * 100.0;
        if spec.is_moe() {
            moe_bubbles.push(bubbles);
        } else {
            dense_bubbles.push(bubbles);
        }
        table.row([
            spec.name.clone(),
            format!("{:.1}", spec.total_bytes() as f64 / 1e9),
            tps_cell(&base),
            tps_cell(&plus),
            format!("{improvement:.0}%"),
            format!("{bubbles:.0}%"),
        ]);
    }
    table.print();

    let dense_avg = dense_bubbles.iter().sum::<f64>() / dense_bubbles.len() as f64;
    let moe_avg = moe_bubbles.iter().sum::<f64>() / moe_bubbles.len() as f64;
    println!(
        "\nGPU bubbles remaining after the strategy: dense {dense_avg:.0}% vs MoE {moe_avg:.0}%"
    );
    println!(
        "paper's §3.1 observation — the strategy leaves MoE pipelines stalled \
         where dense pipelines run busy — {}",
        if moe_avg > dense_avg {
            "holds"
        } else {
            "DID NOT REPRODUCE"
        }
    );
    println!(
        "(note: raw improvement ratios differ from the paper's because multi-batch \
         amortization itself favours the I/O-bound MoE runs; see EXPERIMENTS.md)"
    );
    Ok(())
}
