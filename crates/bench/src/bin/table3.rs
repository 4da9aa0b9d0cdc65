//! Table 3: the ablation study — throughput as each Klotski technique is
//! added, across the three evaluation settings.

use klotski_bench::{tps_cell, Setting, TextTable};
use klotski_core::engine::{KlotskiConfig, KlotskiEngine};
use klotski_core::scenario::{Engine, EngineError};

fn main() -> Result<(), EngineError> {
    println!("== Table 3: ablation study (throughput, token/s) ==\n");

    // The paper's Table 3 measures at the settings' best batch sizes; we
    // use batch 64 for throughput-oriented settings and 16 for the
    // memory-tight 8×22B-on-3090 case (its single-batch engines cap there).
    let rows: [(&str, KlotskiConfig); 5] = [
        ("Simple Pipeline", KlotskiConfig::ablation_simple_pipeline()),
        ("+ Multi batches", KlotskiConfig::ablation_multi_batch()),
        (
            "+ Only prefetch hot experts",
            KlotskiConfig::ablation_hot_prefetch(),
        ),
        ("Klotski (+ adjust order)", KlotskiConfig::full()),
        ("Klotski (q)", KlotskiConfig::quantized()),
    ];

    let mut table = TextTable::new(["Configuration", "8x7B Env1", "8x22B Env1", "8x22B Env2"]);
    let mut columns: Vec<Vec<String>> = vec![Vec::new(); 3];
    for (i, setting) in Setting::ALL.iter().enumerate() {
        let bs = match setting {
            Setting::Big8x22bEnv1 => 16,
            _ => 64,
        };
        let sc = setting.scenario(bs);
        for (_, cfg) in &rows {
            let report = KlotskiEngine::new(*cfg).run(&sc)?;
            columns[i].push(tps_cell(&report));
        }
    }
    for (r, (label, _)) in rows.iter().enumerate() {
        table.row([
            (*label).to_owned(),
            columns[0][r].clone(),
            columns[1][r].clone(),
            columns[2][r].clone(),
        ]);
    }
    table.print();

    println!("\npaper (Table 3):   5.721 → 18.24 → 19.07 → 22.41 → 22.60   (8x7B Env1)");
    println!("                   0.010 →  0.97 →  1.13 →  1.33 →  1.37   (8x22B Env1)");
    println!("                   1.149 → 34.07 → 44.17 → 52.85 → 53.13   (8x22B Env2)");
    Ok(())
}
