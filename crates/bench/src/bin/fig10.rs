//! Fig. 10: end-to-end throughput of Klotski versus the five baselines,
//! across batch sizes, in the paper's three evaluation settings.
//!
//! Pass `--bs128` to add the paper's §9.2 batch-128 comparison point.

use klotski_bench::{fig10_engines, tps_cell, Setting, TextTable};
use klotski_core::scenario::EngineError;

fn main() -> Result<(), EngineError> {
    let bs128 = std::env::args().any(|a| a == "--bs128");
    let mut batch_sizes = klotski_bench::SWEEP_BATCH_SIZES.to_vec();
    if bs128 {
        batch_sizes.push(128);
    }

    for setting in Setting::ALL {
        println!(
            "\n== Fig. 10: {} (n = {}, prompt 512, gen 32) ==",
            setting.title(),
            setting.n()
        );
        let mut headers = vec!["Batch".to_owned()];
        headers.extend(fig10_engines().iter().map(|e| e.name()));
        let mut table = TextTable::new(headers);
        for &bs in &batch_sizes {
            let sc = setting.scenario(bs);
            let mut row = vec![bs.to_string()];
            for engine in fig10_engines() {
                let report = engine.run(&sc)?;
                row.push(tps_cell(&report));
            }
            table.row(row);
        }
        table.print();
    }

    println!("\n(token/s; OOM marks runs whose resident footprint exceeds VRAM, §9.2)");
    println!("paper headline: Klotski up to 85.12x / 15.45x / 2.23x / 19.06x / 9.53x over");
    println!("Accelerate / FastGen / FlexGen / MoE-Infinity / Fiddler respectively.");
    Ok(())
}
