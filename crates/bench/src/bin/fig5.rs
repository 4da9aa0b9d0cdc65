//! Fig. 5: expert-popularity heatmaps for Mixtral-8×7B and the decoder
//! parts of switch-base-8/16 — the hot-expert phenomenon Klotski exploits.

use klotski_bench::SEED;
use klotski_model::spec::ModelSpec;
use klotski_model::trace::{GatingModel, TraceConfig};

fn heatmap(spec: &ModelSpec, seqs: u32, decoder_only_layers: Option<u32>) {
    let cfg = TraceConfig::for_model(spec, SEED);
    let gating = GatingModel::new(&cfg);
    let trace = gating.generate_trace(seqs, 512, 8, SEED + 1);
    let total_layers = trace.n_moe_layers();
    let (from, to) = match decoder_only_layers {
        Some(d) => (total_layers - d, total_layers),
        None => (0, total_layers),
    };
    println!("\n== {} (MoE layers {from}..{to}) ==", spec.name);
    let shades = [' ', '.', ':', '-', '=', '+', '*', '#', '@'];
    let experts = trace.n_experts().min(16);
    for e in 0..experts {
        print!("e{e:<3} |");
        for l in from..to {
            let counts = trace.popularity_counts(l);
            let total: u64 = counts.iter().sum();
            let share = counts[e as usize] as f64 / total.max(1) as f64;
            let idx = ((share * experts as f64).min(1.0) * (shades.len() - 1) as f64) as usize;
            print!("{}", shades[idx]);
        }
        println!("|");
    }

    // Quantify the skew: top-K token share per layer.
    let k = spec.top_k.max(1) as usize;
    let mut min_share = f64::INFINITY;
    let mut max_share: f64 = 0.0;
    let mut sum = 0.0;
    for l in from..to {
        let counts = trace.popularity_counts(l);
        let total: u64 = counts.iter().sum();
        let mut sorted = counts.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let share = sorted.iter().take(k).sum::<u64>() as f64 / total.max(1) as f64;
        min_share = min_share.min(share);
        max_share = max_share.max(share);
        sum += share;
    }
    println!(
        "top-{k} coverage: min {:.1}%, avg {:.1}%, max {:.1}%  (paper: e.g. 53.7% for Mixtral layer 14)",
        min_share * 100.0,
        sum / (to - from) as f64 * 100.0,
        max_share * 100.0
    );
}

fn main() {
    println!("== Fig. 5: expert popularity heatmaps (darker = more tokens) ==");
    let seqs = 64;
    heatmap(&ModelSpec::mixtral_8x7b(), seqs, None);
    // The paper plots the decoder halves of the switch models (6 MoE layers).
    heatmap(&ModelSpec::switch_base(8), seqs, Some(6));
    heatmap(&ModelSpec::switch_base(16), seqs, Some(6));
}
