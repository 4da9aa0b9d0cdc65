//! FlexGen: zig-zag block scheduling with whole-layer prefetch.
//!
//! FlexGen pioneered the multi-batch weight-sharing idea Klotski builds on
//! (the paper's §5 is "designed based on zig-zag block schedule \[34\]"), so
//! it shares the same DAG machinery: multi-batch, KV offloaded to DRAM,
//! pinned transfers with double-buffered lookahead. What it *lacks* is
//! expert awareness — the entire MoE layer is prefetched whether or not
//! experts are selected, and the expert phase is partitioned batch-major,
//! exactly the two deficiencies the paper's Fig. 4(b) strawman exhibits.
//!
//! It is therefore expressed precisely as a [`KlotskiEngine`] configuration
//! with `hot_expert_prefetch = false` (whole-layer transfers) and
//! `batch_major_experts = true` (zig-zag block order).

use klotski_core::engine::{KlotskiConfig, KlotskiEngine};
use klotski_core::report::InferenceReport;
use klotski_core::scenario::{Engine, EngineError, Scenario};

/// The FlexGen baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlexGen;

impl FlexGen {
    /// The engine configuration FlexGen corresponds to: Table 3's row 2,
    /// multi-batch weight sharing with whole-layer prefetch and batch-major
    /// expert compute.
    pub fn config() -> KlotskiConfig {
        KlotskiConfig::ablation_multi_batch()
    }
}

impl Engine for FlexGen {
    fn name(&self) -> String {
        "FlexGen".into()
    }

    fn run(&self, sc: &Scenario) -> Result<InferenceReport, EngineError> {
        let mut report = KlotskiEngine::new(Self::config()).run(sc)?;
        report.engine = self.name();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use klotski_core::engine::{KlotskiConfig, KlotskiEngine};
    use klotski_model::hardware::HardwareSpec;
    use klotski_model::spec::ModelSpec;
    use klotski_model::workload::Workload;

    fn scenario(bs: u32, n: u32) -> Scenario {
        Scenario::generate(
            ModelSpec::mixtral_8x7b(),
            HardwareSpec::env1_rtx3090(),
            Workload::new(bs, n, 128, 3),
            5,
        )
    }

    #[test]
    fn flexgen_completes_and_is_named() {
        let sc = scenario(4, 4);
        let r = FlexGen.run(&sc).unwrap();
        assert!(r.succeeded(), "{:?}", r.oom);
        assert_eq!(r.engine, "FlexGen");
        assert!(r.throughput_tps() > 0.0);
    }

    #[test]
    fn klotski_beats_flexgen() {
        // The headline comparison: expert-aware scheduling wins, most
        // visibly at small batch sizes where activation sparsity matters.
        let sc = scenario(4, 6);
        let flexgen = FlexGen.run(&sc).unwrap();
        let klotski = KlotskiEngine::new(KlotskiConfig::full()).run(&sc).unwrap();
        assert!(
            klotski.throughput_tps() > flexgen.throughput_tps(),
            "Klotski {} ≤ FlexGen {}",
            klotski.throughput_tps(),
            flexgen.throughput_tps()
        );
    }

    #[test]
    fn flexgen_transfers_inactive_experts() {
        // With batch 4 × top-2, some experts receive no tokens at some
        // layers — FlexGen pays their I/O anyway, visible as a strictly
        // longer total H2D busy time than Klotski's.
        let sc = scenario(4, 4);
        let flexgen = FlexGen.run(&sc).unwrap();
        let klotski = KlotskiEngine::new(KlotskiConfig::full()).run(&sc).unwrap();
        assert!(
            flexgen.total_time > klotski.total_time,
            "whole-layer prefetch should cost wall-clock time"
        );
    }
}
