//! Fig. 12: GPU memory usage over the prefill, step by step (one GPU op —
//! a layer's attention/gate or one expert — per step), for complete
//! offloading versus the spare-VRAM ("further use memory") mode.

use klotski_bench::{Setting, TextTable};
use klotski_core::engine::{KlotskiConfig, KlotskiEngine};
use klotski_core::scenario::{Engine, EngineError, Scenario};
use klotski_model::workload::Workload;

/// A run's prefill memory curve as (op, bytes in use), its peak VRAM
/// and its throughput.
type Curve = (Vec<(u64, u64)>, u64, f64);

fn run_curve(sc: &Scenario, use_spare: bool) -> Result<Curve, EngineError> {
    let mut cfg = KlotskiConfig::full();
    cfg.use_spare_vram = use_spare;
    cfg.record_memory = true;
    let engine = KlotskiEngine::new(cfg);
    let report = engine.run(sc)?;
    assert!(report.succeeded(), "{:?}", report.oom);
    // The memory curve is sampled at every GPU compute completion; restrict
    // to the prefill portion like the paper ("the decoding phase is
    // essentially a repetition").
    let metrics = report.metrics.as_ref().expect("memory recorded");
    let prefill_end = report.prefill_time;
    let mut curve = Vec::new();
    let mut op = 0u64;
    for s in metrics.memory_samples_for(klotski_sim::memory::Tier::Vram) {
        if s.time.saturating_since(klotski_sim::time::SimTime::ZERO) > prefill_end {
            break;
        }
        op += 1;
        curve.push((op, s.in_use));
    }
    Ok((curve, report.peak_vram, report.throughput_tps()))
}

fn main() -> Result<(), EngineError> {
    for (setting, bs) in [(Setting::Small8x7bEnv1, 16u32), (Setting::Big8x22bEnv2, 16)] {
        let wl = Workload::paper_default(bs).with_batches(setting.n());
        let sc = Scenario::generate(setting.model(), setting.hardware(), wl, klotski_bench::SEED);
        let original = sc.spec.total_bytes();
        let vram_limit = sc.hw.vram_bytes;

        println!("\n== Fig. 12: {} (prefill) ==", setting.title());
        println!(
            "original requirement {:.1} GB | GPU memory limit {:.1} GB",
            original as f64 / 1e9,
            vram_limit as f64 / 1e9
        );

        let (complete, peak_c, tps_c) = run_curve(&sc, false)?;
        let (further, peak_f, tps_f) = run_curve(&sc, true)?;

        // Downsampled usage curve.
        let mut table =
            TextTable::new(["prefill op #", "complete offload (GB)", "further-use (GB)"]);
        let samples = 12;
        let len = complete.len().max(further.len()).max(1);
        for i in 0..samples {
            let idx = i * len / samples;
            let c = complete.get(idx.min(complete.len().saturating_sub(1)));
            let f = further.get(idx.min(further.len().saturating_sub(1)));
            table.row([
                c.map(|x| x.0).unwrap_or(0).to_string(),
                format!("{:.2}", c.map(|x| x.1).unwrap_or(0) as f64 / 1e9),
                format!("{:.2}", f.map(|x| x.1).unwrap_or(0) as f64 / 1e9),
            ]);
        }
        table.print();

        let reduction_c = (1.0 - peak_c as f64 / original as f64) * 100.0;
        let reduction_f = (1.0 - peak_f as f64 / original as f64) * 100.0;
        println!(
            "complete offloading: peak {:.1} GB = {reduction_c:.1}% below the original \
             requirement ({tps_c:.1} tok/s)",
            peak_c as f64 / 1e9
        );
        println!(
            "further-use memory:  peak {:.1} GB = {reduction_f:.1}% below the original \
             requirement ({tps_f:.1} tok/s)",
            peak_f as f64 / 1e9
        );
        println!(
            "paper: >94.1% reduction fully offloaded; 74.5% while sustaining ~40 tok/s (Env 2)"
        );
    }
    Ok(())
}
