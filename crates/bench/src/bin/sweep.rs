//! Design-choice ablations beyond the paper's Table 3: the settings the
//! paper fixes by argument rather than by measurement, or names as a
//! trade-off, each swept in isolation.
//!
//! 1. prefetch depth K (the paper fixes K = k and argues more is waste);
//! 2. correlation-table warm-up size (the §8 pre-run);
//! 3. activation-path length l = 1 vs l = 2 (the §8 trade-off);
//! 4. sparse-KV budget (StreamingLLM option of §7);
//! 5. disk bandwidth sensitivity (the Env-1 staging path).

use klotski_bench::{Setting, TextTable, SEED};
use klotski_core::compress::{Compression, SparseAttention};
use klotski_core::engine::{KlotskiConfig, KlotskiEngine};
use klotski_core::prefetcher::{measure_accuracy, measure_accuracy_l2};
use klotski_core::scenario::{Engine, EngineError, Scenario};
use klotski_model::trace::{GatingModel, TraceConfig};
use klotski_model::workload::Workload;

fn main() -> Result<(), EngineError> {
    let setting = Setting::Small8x7bEnv1;

    println!("== Sweep 1: prefetch depth K (Mixtral-8x7B Env 1, bs 16, n 15) ==");
    let sc = setting.scenario(16);
    let mut t = TextTable::new(["K", "throughput (tok/s)", "GPU bubbles"]);
    for k in [1u32, 2, 3, 4] {
        let mut cfg = KlotskiConfig::full();
        cfg.prefetch_k = Some(k);
        let r = KlotskiEngine::new(cfg).run(&sc)?;
        t.row([
            k.to_string(),
            format!("{:.2}", r.throughput_tps()),
            format!("{:.1}%", r.bubble_fraction() * 100.0),
        ]);
    }
    t.print();
    println!("(the paper presets K = k = 2: deeper prefetch buys little and moves bytes early)");

    println!("\n== Sweep 2: correlation-table warm-up (pre-run size) ==");
    let spec = setting.model();
    let tc = TraceConfig::for_model(&spec, SEED);
    let base = GatingModel::new(&tc);
    let task = base.drifted(tc.drift, SEED + 1);
    let trace = task.generate_trace(240, 256, 16, SEED + 2);
    let mut t = TextTable::new(["warm-up tokens", "participation", "really-hot"]);
    for warmup in [64u32, 512, 4096, 16384] {
        let acc = measure_accuracy(&base, &trace, 2, warmup);
        t.row([
            warmup.to_string(),
            format!("{:.1}%", acc.avg_participation * 100.0),
            format!("{:.1}%", acc.avg_really_hot * 100.0),
        ]);
    }
    t.print();

    println!("\n== Sweep 3: activation-path length (§8's l trade-off) ==");
    let l1 = measure_accuracy(&base, &trace, 2, 4096);
    let l2 = measure_accuracy_l2(&base, &trace, 2, 4096);
    let e = spec.n_experts as usize;
    let layers = spec.n_moe_layers() as usize;
    let mut t = TextTable::new(["l", "really-hot", "participation", "table bytes"]);
    t.row([
        "1".to_owned(),
        format!("{:.1}%", l1.avg_really_hot * 100.0),
        format!("{:.1}%", l1.avg_participation * 100.0),
        format!("{}", 8 * layers * e * e),
    ]);
    t.row([
        "2".to_owned(),
        format!("{:.1}%", l2.avg_really_hot * 100.0),
        format!("{:.1}%", l2.avg_participation * 100.0),
        format!("{}", 8 * layers * e * e * e),
    ]);
    t.print();
    println!("(the paper sets l = 1: the E× larger table buys marginal accuracy)");

    println!("\n== Sweep 4: sparse-KV budget (StreamingLLM sinks + window) ==");
    let sc = Scenario::generate(
        setting.model(),
        setting.hardware(),
        Workload::paper_default(32).with_batches(15),
        SEED,
    );
    let mut t = TextTable::new(["KV kept", "throughput (tok/s)", "peak DRAM (GB)"]);
    for (label, sparse) in [
        ("full", None),
        (
            "sinks 4 + window 252",
            Some(SparseAttention {
                sinks: 4,
                window: 252,
            }),
        ),
        (
            "sinks 4 + window 124",
            Some(SparseAttention {
                sinks: 4,
                window: 124,
            }),
        ),
        (
            "sinks 4 + window 60",
            Some(SparseAttention {
                sinks: 4,
                window: 60,
            }),
        ),
    ] {
        let mut cfg = KlotskiConfig::full();
        cfg.compression = Compression {
            quant: None,
            sparse_attention: sparse,
        };
        let r = KlotskiEngine::new(cfg).run(&sc)?;
        t.row([
            label.to_owned(),
            format!("{:.2}", r.throughput_tps()),
            format!("{:.1}", r.peak_dram as f64 / 1e9),
        ]);
    }
    t.print();
    println!("(the §9.8 future-work direction; the native-path heavy-hitter variant");
    println!(" lives in klotski-moe::h2o and is validated in its tests)");

    println!("\n== Sweep 5: disk bandwidth (Mixtral-8x22B Env 1, bs 16, n 10) ==");
    let mut t = TextTable::new(["disk GB/s", "throughput (tok/s)"]);
    for disk_gbps in [0.5f64, 1.0, 2.0, 4.0] {
        let mut hw = Setting::Big8x22bEnv1.hardware();
        hw.disk_bw = disk_gbps * 1e9;
        let wl = Workload::paper_default(16).with_batches(10);
        let sc = Scenario::generate(Setting::Big8x22bEnv1.model(), hw, wl, SEED);
        let r = KlotskiEngine::new(KlotskiConfig::full()).run(&sc)?;
        t.row([
            format!("{disk_gbps:.1}"),
            format!("{:.2}", r.throughput_tps()),
        ]);
    }
    t.print();
    println!("(Env 1's 8x22B runs are staging-bound: throughput tracks disk bandwidth)");
    Ok(())
}
