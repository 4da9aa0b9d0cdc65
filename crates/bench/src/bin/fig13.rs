//! Fig. 13: accuracy of the correlation-aware expert prefetcher, per layer:
//! how often prefetched "hot" experts participate in computation (green
//! line, ≈100%) and how often they are the layer's actual hot experts
//! (blue line, ≈58.9% average), plus the single-sequence comparison
//! (42.24%) that motivates multi-batch aggregation.

use klotski_bench::{Setting, TextTable, SEED};
use klotski_core::prefetcher::measure_accuracy;
use klotski_model::trace::{GatingModel, TraceConfig};

fn main() {
    let setting = Setting::Small8x7bEnv1;
    let spec = setting.model();
    let cfg = TraceConfig::for_model(&spec, SEED);
    let base = GatingModel::new(&cfg);
    let task = base.drifted(cfg.drift, SEED + 1);
    // The paper's Fig. 13 trace scale: a full batch group of sequences.
    let trace = task.generate_trace(240, 512, 32, SEED + 2);
    let report = measure_accuracy(&base, &trace, spec.top_k, 4096);

    println!("== Fig. 13: prefetch accuracy per layer (Mixtral-8x7B) ==\n");
    let mut table = TextTable::new(["Layer", "Participate in comp.", "Really hot"]);
    for (i, acc) in report.per_layer.iter().enumerate() {
        table.row([
            (i + 1).to_string(),
            format!("{:.1}%", acc.participation * 100.0),
            format!("{:.1}%", acc.really_hot * 100.0),
        ]);
    }
    table.print();

    println!(
        "\naverages: participation {:.2}% (paper: 100%), really-hot {:.2}% (paper: 58.89%)",
        report.avg_participation * 100.0,
        report.avg_really_hot * 100.0
    );
    println!(
        "single-sequence prefetch accuracy: {:.2}% (paper: 42.24%)",
        report.single_seq_accuracy * 100.0
    );
    println!("\nreading: multi-batch aggregation makes prefetched experts participate");
    println!("essentially always, even when they are not the layer's true hot set —");
    println!("so mispredictions waste little I/O (§9.6).");
}
