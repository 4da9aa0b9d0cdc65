//! # klotski-bench — the experiment harness
//!
//! One binary per table/figure of the paper's evaluation (§9):
//!
//! | binary   | reproduces |
//! |----------|------------|
//! | `table1` | Table 1 — I/O-overlap gains, dense vs MoE |
//! | `table3` | Table 3 — ablation study |
//! | `fig5`   | Fig. 5 — expert-popularity heatmaps |
//! | `fig10`  | Fig. 10 — end-to-end throughput, 3 scenarios × 7 engines |
//! | `fig11`  | Fig. 11 — throughput–latency trade-off |
//! | `fig12`  | Fig. 12 — GPU memory usage over prefill steps |
//! | `fig13`  | Fig. 13 — prefetch accuracy per layer |
//! | `fig14`  | Fig. 14 — throughput vs n × batch size |
//! | `fig15`  | Fig. 15 — pipeline timelines / bubble reduction |
//! | `sweep`  | design-choice ablations beyond Table 3 (prefetch depth, warm-up size, path length, sparse-KV budget, disk bandwidth) |
//! | `serve_sweep` | online serving: arrival rate × admission policy → SLO metrics |
//! | `serve_scale` | multi-replica serving: replicas × rate × dispatch policy → SLO metrics (`BENCH_serve_scale.json`) |
//! | `serve_cluster` | cluster serving: autoscaler × traffic pattern → SLO attainment vs replica-hours (`BENCH_serve_cluster.json`) |
//! | `serve_continuous` | continuous batching vs run-to-completion: slot refill, chunked prefill, priority classes (`BENCH_serve_continuous.json`) |
//! | `serve_faults` | fault-tolerant cluster serving: fault tier × recovery posture → goodput, loss, SLO attainment (`BENCH_serve_faults.json`) |
//! | `native_throughput` | native path tokens/sec: the pipeline vs `MoeModel::generate`, 1 worker vs the pool, scalar vs SIMD kernels, staged vs fused 4-bit GEMMs (`BENCH_native.json`) |
//!
//! Run e.g. `cargo run --release -p klotski-bench --bin fig10`.
//! Criterion microbenchmarks live under `benches/`.
//!
//! Every simulated figure and table bin (`table1` … `fig15`, `sweep`,
//! `serve_sweep`) is exact, so CI runs it in full and compares its stdout
//! with `golden/<bin>.txt` byte for byte. The four simulated `serve_*` bins
//! with a committed JSON file are exact too, and CI compares their
//! `{"bench"…` lines with those files. Setting `KLOTSKI_CHEAP=1` shrinks
//! the five `serve_*` bins and `native_throughput` to smoke scale, which
//! is how CI and the example smoke tests execute them quickly; the other
//! bins ignore it. Output stays deterministic either way.

#![warn(missing_docs)]

use klotski_baselines::{Accelerate, FastGen, Fiddler, FlexGen, MoeInfinity};
use klotski_core::engine::{KlotskiConfig, KlotskiEngine};
use klotski_core::report::InferenceReport;
use klotski_core::scenario::{Engine, Scenario};
use klotski_model::hardware::HardwareSpec;
use klotski_model::spec::ModelSpec;
use klotski_model::workload::Workload;

/// The paper's evaluation seed (any fixed value; determinism is the point).
pub const SEED: u64 = 2025;

/// True when `KLOTSKI_CHEAP` is set (to anything but `0`): the `serve_*`
/// bins and `native_throughput` shrink their sweeps to smoke scale. Same
/// tables, fewer/smaller cells.
pub fn cheap_mode() -> bool {
    std::env::var("KLOTSKI_CHEAP")
        .map(|v| v != "0")
        .unwrap_or(false)
}

/// The batch sizes end-to-end figures sweep (paper: 4–64).
pub const SWEEP_BATCH_SIZES: [u32; 5] = [4, 8, 16, 32, 64];

/// The three end-to-end evaluation scenarios of Fig. 10/11.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Setting {
    /// Mixtral-8×7B on Environment 1 (RTX 3090), n = 15.
    Small8x7bEnv1,
    /// Mixtral-8×22B on Environment 1 (RTX 3090), n = 10 (memory-capped).
    Big8x22bEnv1,
    /// Mixtral-8×22B on Environment 2 (H800), n = 15.
    Big8x22bEnv2,
}

impl Setting {
    /// All three, in the paper's panel order.
    pub const ALL: [Setting; 3] = [
        Setting::Small8x7bEnv1,
        Setting::Big8x22bEnv1,
        Setting::Big8x22bEnv2,
    ];

    /// Panel title.
    pub fn title(self) -> &'static str {
        match self {
            Setting::Small8x7bEnv1 => "Mixtral-8x7B in Env 1",
            Setting::Big8x22bEnv1 => "Mixtral-8x22B in Env 1",
            Setting::Big8x22bEnv2 => "Mixtral-8x22B in Env 2",
        }
    }

    /// Model preset.
    pub fn model(self) -> ModelSpec {
        match self {
            Setting::Small8x7bEnv1 => ModelSpec::mixtral_8x7b(),
            _ => ModelSpec::mixtral_8x22b(),
        }
    }

    /// Hardware preset.
    pub fn hardware(self) -> HardwareSpec {
        match self {
            Setting::Big8x22bEnv2 => HardwareSpec::env2_h800(),
            _ => HardwareSpec::env1_rtx3090(),
        }
    }

    /// The batch-group size the paper uses for this setting (§9.2).
    pub fn n(self) -> u32 {
        match self {
            Setting::Big8x22bEnv1 => 10,
            _ => 15,
        }
    }

    /// Builds the scenario for one batch size (paper workload shape:
    /// prompt 512, 32 generated tokens).
    pub fn scenario(self, batch_size: u32) -> Scenario {
        Scenario::generate(
            self.model(),
            self.hardware(),
            Workload::paper_default(batch_size).with_batches(self.n()),
            SEED,
        )
    }
}

/// The seven engines of Fig. 10/11, in presentation order.
pub fn fig10_engines() -> Vec<Box<dyn Engine>> {
    vec![
        Box::new(Accelerate),
        Box::new(FastGen),
        Box::new(FlexGen),
        Box::new(MoeInfinity),
        Box::new(Fiddler),
        Box::new(KlotskiEngine::new(KlotskiConfig::full())),
        Box::new(KlotskiEngine::new(KlotskiConfig::quantized())),
    ]
}

/// Formats a throughput cell ("12.34" or "OOM").
pub fn tps_cell(report: &InferenceReport) -> String {
    if report.succeeded() {
        format!("{:.2}", report.throughput_tps())
    } else {
        "OOM".to_owned()
    }
}

/// A simple aligned text table for terminal output.
#[derive(Debug, Default)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Self {
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        self.rows.push(cells.into_iter().map(Into::into).collect());
    }

    /// Prints the table with aligned columns.
    pub fn print(&self) {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            let mut out = String::new();
            for (i, cell) in cells.iter().enumerate().take(cols) {
                if i == 0 {
                    out.push_str(&format!("{:<w$}", cell, w = widths[0]));
                } else {
                    out.push_str(&format!("  {:>w$}", cell, w = widths[i]));
                }
            }
            out
        };
        println!("{}", line(&self.headers));
        println!(
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1))
        );
        for row in &self.rows {
            println!("{}", line(row));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settings_enumerate_paper_panels() {
        assert_eq!(Setting::ALL.len(), 3);
        assert_eq!(Setting::Big8x22bEnv1.n(), 10);
        assert_eq!(Setting::Small8x7bEnv1.n(), 15);
        let sc = Setting::Small8x7bEnv1.scenario(4);
        assert_eq!(sc.workload.total_seqs(), 60);
        assert_eq!(sc.workload.prompt_len, 512);
    }

    #[test]
    fn fig10_roster_has_seven_engines() {
        let engines = fig10_engines();
        assert_eq!(engines.len(), 7);
        assert_eq!(engines[6].name(), "Klotski (q)");
    }

    #[test]
    fn text_table_formats() {
        let mut t = TextTable::new(["bs", "Klotski"]);
        t.row(["4", "7.32"]);
        assert_eq!(t.rows.len(), 1);
        t.print();
    }
}
