//! Fig. 15: the actual pipelines, drawn. Compares the simple-overlap
//! single-batch pipeline against Klotski on one MoE block's worth of
//! steady-state decode, and reports the per-block completion times the
//! paper quotes (≈2367 ms vs ≈215 ms for batch 64, n = 10).

use klotski_bench::{Setting, SEED};
use klotski_core::engine::{KlotskiConfig, KlotskiEngine};
use klotski_core::report::InferenceReport;
use klotski_core::scenario::{Engine, EngineError, Scenario};
use klotski_model::workload::Workload;
use klotski_sim::time::SimTime;

fn run(cfg: KlotskiConfig, sc: &Scenario) -> Result<InferenceReport, EngineError> {
    let mut cfg = cfg;
    cfg.record_timeline = true;
    KlotskiEngine::new(cfg).run(sc)
}

/// Average time for the whole workload (all batches) to pass one MoE
/// block: total time over (steps × layers). Both engines process the same
/// workload, so the ratio is the bubble-compression factor.
fn block_ms(report: &InferenceReport, sc: &Scenario) -> f64 {
    let visits = sc.workload.gen_len as f64 * sc.spec.n_layers as f64;
    report.total_time.as_millis_f64() / visits
}

fn show(label: &str, report: &InferenceReport, sc: &Scenario, per_block_batches: u32) {
    println!("\n== {label} ==");
    println!(
        "total {} | bubbles {:.0}% | one MoE block (all {} batches) ≈ {:.0} ms",
        report.total_time,
        report.bubble_fraction() * 100.0,
        per_block_batches,
        block_ms(report, sc),
    );
    let metrics = report.metrics.as_ref().expect("timeline recorded");
    // Window near the end of the run (the final decode steps), sized to
    // about four MoE blocks so per-block bubbles are visible at this zoom.
    let start = report.total_time.as_nanos() * 98 / 100;
    let span = (block_ms(report, sc) * 4.0 * 1e6) as u64;
    let mid = SimTime::from_nanos(start);
    let window = SimTime::from_nanos(start + span);
    println!("final decode window (≈4 blocks):");
    print!("{}", metrics.render_ascii(mid, window, 110));
}

fn main() -> Result<(), EngineError> {
    // The paper's Fig. 15 workload: Mixtral-8×7B in Env 1, batch 64, n=10.
    let setting = Setting::Small8x7bEnv1;
    let bs = 64;
    let wl = Workload::paper_default(bs).with_batches(10);
    let sc = Scenario::generate(setting.model(), setting.hardware(), wl, SEED);

    println!(
        "== Fig. 15: pipeline comparison (Mixtral-8x7B, Env 1, bs {bs}, n {}) ==",
        wl.num_batches
    );
    println!("legend: A attention, G gate, E expert compute, W weight-load,");
    println!("        E-load expert transfer, K kv transfer, '.' idle (bubble)");

    // (a) simple overlap: single batch, whole-MoE-layer prefetch. The same
    // total workload is processed batch-by-batch.
    let simple = run(KlotskiConfig::ablation_simple_pipeline(), &sc)?;
    show(
        "(a) simple overlap, single batch",
        &simple,
        &sc,
        wl.num_batches,
    );

    // (b) Klotski's multi-batch pipeline.
    let klotski = run(KlotskiConfig::full(), &sc)?;
    show(
        "(b) Klotski, expert-aware multi-batch",
        &klotski,
        &sc,
        wl.num_batches,
    );

    let simple_block = block_ms(&simple, &sc);
    let klotski_block = block_ms(&klotski, &sc);
    println!(
        "\nper-block times: simple ≈ {simple_block:.0} ms vs Klotski ≈ {klotski_block:.0} ms \
         ({:.1}× faster; paper measures the decode block only: ≈2367 ms vs ≈215 ms, 11.0×)",
        simple_block / klotski_block
    );
    Ok(())
}
