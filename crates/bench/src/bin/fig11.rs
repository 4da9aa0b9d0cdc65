//! Fig. 11: the throughput–latency trade-off. Each engine sweeps the batch
//! size; the curve closer to the lower-right (high throughput at low
//! latency) is better.

use klotski_bench::{fig10_engines, Setting, TextTable};
use klotski_core::scenario::EngineError;

fn main() -> Result<(), EngineError> {
    for setting in Setting::ALL {
        println!(
            "\n== Fig. 11: {} — (latency s → throughput tok/s) per batch size ==",
            setting.title()
        );
        let batch_sizes = klotski_bench::SWEEP_BATCH_SIZES;
        let mut headers = vec!["Engine".to_owned()];
        for &bs in &batch_sizes {
            headers.push(format!("bs={bs}"));
        }
        let mut table = TextTable::new(headers);
        for engine in fig10_engines() {
            let mut row = vec![engine.name()];
            for &bs in &batch_sizes {
                let sc = setting.scenario(bs);
                let report = engine.run(&sc)?;
                if report.succeeded() {
                    row.push(format!(
                        "{:.0}s→{:.2}",
                        report.latency_secs(),
                        report.throughput_tps()
                    ));
                } else {
                    row.push("OOM".to_owned());
                }
            }
            table.row(row);
        }
        table.print();
    }
    println!("\n(the paper reads these as curves: at an equal time budget, Klotski");
    println!("completes ≥3x the work of FlexGen in Env 2 and dominates the rest)");
    Ok(())
}
