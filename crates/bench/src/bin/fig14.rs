//! Fig. 14: throughput as a function of the batch-group size `n` (3–15)
//! and the batch size (4–64), for Mixtral-8×7B in Env 1 and Mixtral-8×22B
//! in Env 2.

use klotski_bench::{tps_cell, Setting, TextTable, SEED};
use klotski_core::engine::{KlotskiConfig, KlotskiEngine};
use klotski_core::scenario::{Engine, EngineError, Scenario};
use klotski_model::workload::Workload;

fn main() -> Result<(), EngineError> {
    let engine = KlotskiEngine::new(KlotskiConfig::full());
    let batch_sizes = klotski_bench::SWEEP_BATCH_SIZES;
    let ns: Vec<u32> = (3..=15).step_by(2).collect();
    for setting in [Setting::Small8x7bEnv1, Setting::Big8x22bEnv2] {
        println!(
            "\n== Fig. 14: {} — throughput vs n and batch size ==",
            setting.title()
        );
        let mut headers = vec!["n".to_owned()];
        for &bs in &batch_sizes {
            headers.push(format!("bs={bs}"));
        }
        let mut table = TextTable::new(headers);
        for &n in &ns {
            let mut row = vec![n.to_string()];
            for &bs in &batch_sizes {
                let wl = Workload::paper_default(bs).with_batches(n);
                let sc = Scenario::generate(setting.model(), setting.hardware(), wl, SEED);
                let report = engine.run(&sc)?;
                row.push(tps_cell(&report));
            }
            table.row(row);
        }
        table.print();
    }
    println!("\nreading (paper §9.7): small n leaves I/O uncovered; throughput climbs");
    println!("steeply with n, faster at larger batch sizes, then flattens once the");
    println!("inter-/intra-layer bubbles are gone and extra n only amortizes I/O counts.");
    Ok(())
}
