//! MoE-Infinity: activation-aware expert prefetching + expert caching.
//!
//! Single-batch serving with **experts-only** offloading: attention/gate
//! weights and the KV cache stay resident in VRAM (which is what caps its
//! batch size — §9.2 of the paper), while experts live in DRAM behind an
//! LRU cache carved out of the remaining VRAM. Before each MoE layer the
//! engine prefetches the experts its activation statistics predict
//! (modelled with the same correlation table Klotski uses, which is a
//! *generous* reading of its tracing mechanism); gate-selected misses
//! transfer on demand. Expert computation stays in gate order — no
//! reordering, no multi-batch sharing.

use std::collections::BTreeMap;

use klotski_core::compress::Compression;
use klotski_core::driver::{
    build_report, drain, rejected_report, throttle, trace_view, StepCompute, StepKind,
};
use klotski_core::prefetcher::{CorrelationTable, HotSet};
use klotski_core::report::InferenceReport;
use klotski_core::scenario::{Engine, EngineError, Scenario};
use klotski_sim::prelude::*;

use crate::common::{dram_expert_cutoff, ResidentFootprint};

/// The MoE-Infinity baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct MoeInfinity;

/// A deterministic LRU set of `(layer, expert)` pairs.
#[derive(Debug)]
struct ExpertLru {
    capacity: usize,
    clock: u64,
    entries: BTreeMap<(u32, u16), u64>,
}

impl ExpertLru {
    fn new(capacity: usize) -> Self {
        ExpertLru {
            capacity: capacity.max(1),
            clock: 0,
            entries: BTreeMap::new(),
        }
    }

    fn contains(&mut self, key: (u32, u16)) -> bool {
        self.clock += 1;
        if let Some(t) = self.entries.get_mut(&key) {
            *t = self.clock;
            true
        } else {
            false
        }
    }

    fn insert(&mut self, key: (u32, u16)) {
        self.clock += 1;
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            if let Some((&victim, _)) = self.entries.iter().min_by_key(|&(_, &t)| t) {
                self.entries.remove(&victim);
            }
        }
        self.entries.insert(key, self.clock);
    }
}

impl Engine for MoeInfinity {
    fn name(&self) -> String {
        "MoE-Infinity".into()
    }

    fn run(&self, sc: &Scenario) -> Result<InferenceReport, EngineError> {
        let view = match trace_view(sc)? {
            Some(view) if sc.spec.is_moe() => view,
            _ => {
                return Err(EngineError::InvalidConfig(
                    "MoE-Infinity serves MoE models only".into(),
                ))
            }
        };
        let cost = sc.cost_model();
        let wl = sc.workload;
        let spec = &sc.spec;

        // Experts-only offloading: everything else is resident.
        let footprint = ResidentFootprint::for_single_batch(spec, &wl);
        let Some(spare) = footprint.spare(sc.hw.vram_bytes) else {
            let reason = footprint.oom_message(sc.hw.vram_bytes);
            return Ok(rejected_report(self.name(), spec, &wl, reason));
        };
        let mut sim = Simulator::new(sc.hw.tier_capacities());
        let cache_bytes = footprint.expert_reserve + spare / 10 * 9;
        let cache_capacity = (cache_bytes / spec.expert_bytes().max(1)) as usize;
        let static_vram = footprint.total() - footprint.expert_reserve + cache_bytes;
        sim.pool_mut(Tier::Vram)
            .alloc(static_vram)
            .expect("footprint checked against VRAM");
        sim.pool_mut(Tier::Dram).alloc_up_to(spec.total_bytes());

        // Activation tracing: warmed-up correlation table, updated online.
        let mut table = CorrelationTable::new(spec.n_moe_layers(), spec.n_experts);
        if let Some(base) = &sc.base_gating {
            table.warm_up(base, 4096, 0xBEEF);
        }

        let mut hot = HotSet::default();
        let mut lru = ExpertLru::new(cache_capacity);
        let mut carry: Option<TaskId> = None;
        let mut layer_ends: Vec<TaskId> = Vec::new();

        // Without tiered placement, the experts of the tail layers live on
        // disk when the model exceeds DRAM; fetching them pays the disk
        // read before the PCIe hop.
        let disk_cutoff = dram_expert_cutoff(spec, &sc.hw);
        let fetch_time = |layer: u32| {
            if layer >= disk_cutoff {
                cost.disk_time(spec.expert_bytes()) + cost.expert_h2d_time(1.0)
            } else {
                cost.expert_h2d_time(1.0)
            }
        };

        for batch in 0..wl.num_batches {
            let s0 = batch * wl.batch_size;
            let s1 = s0 + wl.batch_size;
            for step in StepKind::all(wl.gen_len) {
                let step_idx = step.index();
                let prices = StepCompute::new(&cost, &wl, step, &Compression::none());
                for l in 0..spec.n_layers {
                    // Prefetch predicted experts before attention.
                    let mut transfers: BTreeMap<u16, TaskId> = BTreeMap::new();
                    let m = spec.moe_index(l);
                    if let Some(m) = m {
                        table.predict_step(view, step, m, s0..s1, spec.top_k, &mut hot);
                        let throttle = throttle(&layer_ends);
                        for &e in &hot.experts {
                            if lru.contains((l, e)) {
                                continue;
                            }
                            let t = sim
                                .task(
                                    Resource::LinkH2d,
                                    fetch_time(l),
                                    TaskMeta::of(OpClass::ExpertTransfer)
                                        .layer(l)
                                        .expert(e as u32)
                                        .step(step_idx),
                                )
                                .after_all(throttle)
                                .submit();
                            transfers.insert(e, t);
                            lru.insert((l, e));
                        }
                    }

                    // Attention (weights resident, KV resident).
                    let attn = sim
                        .task(
                            Resource::GpuCompute,
                            prices.attention,
                            TaskMeta::of(OpClass::AttentionCompute)
                                .layer(l)
                                .step(step_idx),
                        )
                        .after_all(carry)
                        .submit();

                    let mut computes = vec![attn];
                    if let Some(m) = m {
                        let gate = sim
                            .task(
                                Resource::GpuCompute,
                                prices.gate,
                                TaskMeta::of(OpClass::GateCompute).layer(l).step(step_idx),
                            )
                            .after(attn)
                            .submit();
                        computes.push(gate);

                        // Serve activated experts in gate order.
                        let counts = view.expert_tokens(step, m, s0, s1);
                        let mut prev: Option<TaskId> = Some(gate);
                        for (e, &tokens) in counts.iter().enumerate() {
                            if tokens == 0 {
                                continue;
                            }
                            let e = e as u16;
                            let transfer = if let Some(&t) = transfers.get(&e) {
                                Some(t)
                            } else if lru.contains((l, e)) {
                                None // cache hit
                            } else {
                                lru.insert((l, e));
                                let t = sim
                                    .task(
                                        Resource::LinkH2d,
                                        fetch_time(l),
                                        TaskMeta::of(OpClass::ExpertTransfer)
                                            .layer(l)
                                            .expert(e as u32)
                                            .step(step_idx),
                                    )
                                    .after(gate)
                                    .priority(-1)
                                    .submit();
                                Some(t)
                            };
                            let c = sim
                                .task(
                                    Resource::GpuCompute,
                                    cost.expert_time(tokens as u64),
                                    TaskMeta::of(OpClass::ExpertCompute)
                                        .layer(l)
                                        .expert(e as u32)
                                        .step(step_idx),
                                )
                                .after(gate)
                                .after_all(transfer)
                                .after_all(prev)
                                .submit();
                            prev = Some(c);
                            computes.push(c);
                        }

                        // Online activation tracing.
                        table.record_step(view, step, m, s0..s1);
                    } else {
                        computes.push(
                            sim.task(
                                Resource::GpuCompute,
                                prices.dense_ffn,
                                TaskMeta::of(OpClass::DenseCompute).layer(l).step(step_idx),
                            )
                            .after(attn)
                            .submit(),
                        );
                    }

                    let end = sim
                        .task(
                            Resource::GpuCompute,
                            SimDuration::ZERO,
                            TaskMeta::of(OpClass::Offload).layer(l).step(step_idx),
                        )
                        .after_all(computes)
                        .submit();
                    layer_ends.push(end);
                    carry = Some(end);
                }
            }
        }

        let (stats, oom) = drain(&mut sim, false)?;
        Ok(build_report(self.name(), spec, &wl, &sim, &stats, oom))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use klotski_model::hardware::HardwareSpec;
    use klotski_model::spec::ModelSpec;
    use klotski_model::workload::Workload;

    fn scenario(model: ModelSpec, bs: u32, n: u32) -> Scenario {
        Scenario::generate(
            model,
            HardwareSpec::env1_rtx3090(),
            Workload::new(bs, n, 128, 3),
            5,
        )
    }

    #[test]
    fn completes_on_8x7b() {
        let sc = scenario(ModelSpec::mixtral_8x7b(), 8, 2);
        let r = MoeInfinity.run(&sc).unwrap();
        assert!(r.succeeded(), "{:?}", r.oom);
        assert!(r.throughput_tps() > 0.0);
    }

    #[test]
    fn ooms_on_8x22b_at_batch_32() {
        // §9.2: "Fiddler and MoE-Infinity are limited to a maximum batch
        // size of 16" for 8×22B on the 3090.
        let ok = MoeInfinity
            .run(&Scenario::generate(
                ModelSpec::mixtral_8x22b(),
                HardwareSpec::env1_rtx3090(),
                Workload::new(16, 1, 512, 2),
                5,
            ))
            .unwrap();
        assert!(ok.succeeded(), "{:?}", ok.oom);
        let bad = MoeInfinity
            .run(&Scenario::generate(
                ModelSpec::mixtral_8x22b(),
                HardwareSpec::env1_rtx3090(),
                Workload::new(32, 1, 512, 2),
                5,
            ))
            .unwrap();
        assert!(!bad.succeeded());
        assert_eq!(bad.throughput_tps(), 0.0);
    }

    #[test]
    fn caching_reduces_decode_transfers() {
        // With a warm cache, later steps hit; total time per extra decode
        // step shrinks versus an engine that always transfers. Proxy: the
        // H2D link is busy for less time than serving every activation
        // would cost.
        let sc = scenario(ModelSpec::mixtral_8x7b(), 8, 1);
        let r = MoeInfinity.run(&sc).unwrap();
        assert!(r.succeeded());
        assert!(
            r.gpu_bubble > SimDuration::ZERO,
            "single batch always stalls some"
        );
    }

    #[test]
    fn rejects_dense_models() {
        let sc = scenario(ModelSpec::opt_1_3b(), 4, 1);
        assert!(matches!(
            MoeInfinity.run(&sc),
            Err(EngineError::InvalidConfig(_))
        ));
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut lru = ExpertLru::new(2);
        lru.insert((0, 0));
        lru.insert((0, 1));
        assert!(lru.contains((0, 0))); // refresh 0
        lru.insert((0, 2)); // evicts (0,1)
        assert!(lru.contains((0, 0)));
        assert!(!lru.contains((0, 1)));
        assert!(lru.contains((0, 2)));
    }
}
