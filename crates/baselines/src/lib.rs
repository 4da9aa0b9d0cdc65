//! # klotski-baselines — the five comparator engines
//!
//! Faithful policy re-implementations of the systems the Klotski paper
//! compares against (§9.1), all running over the same simulated substrate
//! and cost model as Klotski itself so that every difference in the
//! reports is a difference in *scheduling policy*:
//!
//! * [`seq::Accelerate`] — synchronous per-module device-map offloading
//!   from pageable memory (no overlap).
//! * [`seq::FastGen`] — DeepSpeed-FastGen-style pinned whole-layer
//!   prefetch, single batch.
//! * [`flexgen::FlexGen`] — zig-zag multi-batch with whole-MoE-layer
//!   prefetch and batch-major expert compute.
//! * [`moe_infinity::MoeInfinity`] — activation-aware expert prefetch +
//!   LRU expert cache, experts-only offloading.
//! * [`fiddler::Fiddler`] — CPU-GPU orchestration: cold experts compute on
//!   the CPU when that beats moving them.
//!
//! What the engines share is defined once, in `klotski-core`, not restated
//! per engine: [`driver`](klotski_core::driver) gives every engine the
//! trace check ([`trace_view`](klotski_core::driver::trace_view)), a
//! step's attention, gate and dense-FFN prices
//! ([`StepCompute`](klotski_core::driver::StepCompute)), the double
//! buffering of weight transfers
//! ([`throttle`](klotski_core::driver::throttle)), the drain loop and
//! report, and the report of a run rejected before simulation
//! ([`rejected_report`](klotski_core::driver::rejected_report)).
//! MoE-Infinity predicts and learns through the same per-layer
//! [`CorrelationTable`](klotski_core::prefetcher::CorrelationTable) step
//! operations as Klotski. [`common`] adds only the accounting of the
//! experts-only engines.
//!
//! ```
//! use klotski_baselines::all_engines;
//!
//! let engines = all_engines();
//! assert_eq!(engines.len(), 5);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod common;
pub mod fiddler;
pub mod flexgen;
pub mod moe_infinity;
pub mod seq;

use klotski_core::scenario::Engine;

pub use fiddler::Fiddler;
pub use flexgen::FlexGen;
pub use moe_infinity::MoeInfinity;
pub use seq::{Accelerate, FastGen};

/// All five baselines, in the paper's presentation order.
pub fn all_engines() -> Vec<Box<dyn Engine>> {
    vec![
        Box::new(Accelerate),
        Box::new(FastGen),
        Box::new(FlexGen),
        Box::new(MoeInfinity),
        Box::new(Fiddler),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use klotski_core::engine::KlotskiEngine;
    use klotski_core::scenario::{EngineError, Scenario};
    use klotski_model::hardware::HardwareSpec;
    use klotski_model::spec::ModelSpec;
    use klotski_model::workload::Workload;

    #[test]
    fn every_engine_rejects_a_moe_scenario_without_a_trace() {
        let sc = Scenario {
            trace: None,
            ..Scenario::generate(
                ModelSpec::mixtral_8x7b(),
                HardwareSpec::env1_rtx3090(),
                Workload::new(2, 1, 16, 2),
                1,
            )
        };
        let mut engines = all_engines();
        engines.push(Box::new(KlotskiEngine::default()));
        for engine in engines {
            match engine.run(&sc) {
                Err(EngineError::InvalidConfig(msg)) => {
                    assert_eq!(
                        msg,
                        "MoE scenario without a gating trace",
                        "{}",
                        engine.name()
                    );
                }
                other => panic!("{}: {other:?}", engine.name()),
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use klotski_core::scenario::Scenario;
    use klotski_model::hardware::HardwareSpec;
    use klotski_model::spec::ModelSpec;
    use klotski_model::workload::Workload;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]
        /// Every baseline drains every random (feasible) scenario without
        /// internal errors, with a consistent report.
        #[test]
        fn baselines_complete_random_scenarios(
            bs in 1u32..10,
            n in 1u32..4,
            prompt in 16u32..96,
            gen in 2u32..5,
            seed in 0u64..30,
        ) {
            let wl = Workload::new(bs, n, prompt, gen);
            let sc = Scenario::generate(
                ModelSpec::mixtral_8x7b(),
                HardwareSpec::env1_rtx3090(),
                wl,
                seed,
            );
            for engine in all_engines() {
                let r = engine.run(&sc).expect("no internal errors");
                prop_assert!(r.succeeded(), "{}: {:?}", r.engine, r.oom);
                prop_assert_eq!(r.generated_tokens, wl.total_generated());
                prop_assert!(r.peak_vram <= sc.hw.vram_bytes, "{}", r.engine);
                prop_assert!(r.gpu_busy <= r.total_time, "{}", r.engine);
            }
        }
    }
}
