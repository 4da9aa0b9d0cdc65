//! Fiddler: CPU-GPU orchestration for MoE inference.
//!
//! Fiddler's insight: at decode-time token counts, *computing* a cold
//! expert on the CPU (where its weights already live) can beat *moving*
//! 100s of MB over PCIe to compute it on the GPU. The engine keeps
//! attention weights, KV cache and the most popular experts resident in
//! VRAM; per activated expert it chooses `min(cpu_compute,
//! transfer + gpu_compute)`, running CPU experts concurrently with GPU
//! work. Prefill — with thousands of tokens per expert — always takes the
//! GPU path (CPU GEMM would be minutes per layer).

use std::collections::BTreeSet;

use klotski_core::compress::Compression;
use klotski_core::driver::{
    build_report, drain, rejected_report, trace_view, StepCompute, StepKind,
};
use klotski_core::report::InferenceReport;
use klotski_core::scenario::{Engine, EngineError, Scenario};
use klotski_sim::prelude::*;

use crate::common::{dram_expert_cutoff, ResidentFootprint};

/// The Fiddler baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fiddler;

impl Engine for Fiddler {
    fn name(&self) -> String {
        "Fiddler".into()
    }

    fn run(&self, sc: &Scenario) -> Result<InferenceReport, EngineError> {
        let view = match trace_view(sc)? {
            Some(view) if sc.spec.is_moe() => view,
            _ => {
                return Err(EngineError::InvalidConfig(
                    "Fiddler serves MoE models only".into(),
                ))
            }
        };
        let cost = sc.cost_model();
        let wl = sc.workload;
        let spec = &sc.spec;

        let footprint = ResidentFootprint::for_single_batch(spec, &wl);
        let Some(spare) = footprint.spare(sc.hw.vram_bytes) else {
            let reason = footprint.oom_message(sc.hw.vram_bytes);
            return Ok(rejected_report(self.name(), spec, &wl, reason));
        };
        let mut sim = Simulator::new(sc.hw.tier_capacities());

        // Initial placement: fill spare VRAM with the globally most popular
        // experts (by warm-up statistics), keyed by (MoE layer, expert).
        let resident_slots = (spare / 10 * 9 / spec.expert_bytes().max(1)) as usize;
        let resident: BTreeSet<(u32, u16)> = match &sc.base_gating {
            Some(base) => {
                let mut scored: Vec<((u32, u16), f64)> = Vec::new();
                for m in 0..base.n_moe_layers() {
                    for (e, &p) in base.popularity(m).iter().enumerate() {
                        scored.push(((m, e as u16), p));
                    }
                }
                scored.sort_by(|a, b| b.1.total_cmp(&a.1));
                scored
                    .into_iter()
                    .take(resident_slots)
                    .map(|(k, _)| k)
                    .collect()
            }
            None => BTreeSet::new(),
        };
        let static_vram = footprint.total() + resident.len() as u64 * spec.expert_bytes();
        sim.pool_mut(Tier::Vram)
            .alloc(static_vram.min(sc.hw.vram_bytes))
            .expect("footprint checked against VRAM");
        sim.pool_mut(Tier::Dram).alloc_up_to(spec.total_bytes());

        let mut carry: Option<TaskId> = None;
        let mut layer_ends: Vec<TaskId> = Vec::new();

        // When the model exceeds DRAM, tail-layer experts live on disk:
        // both the CPU path (weights must reach DRAM first) and the GPU
        // path (disk → DRAM → VRAM) pay the disk read.
        let disk_cutoff = dram_expert_cutoff(spec, sc.hw.dram_bytes);

        for batch in 0..wl.num_batches {
            let s0 = batch * wl.batch_size;
            let s1 = s0 + wl.batch_size;
            for step in StepKind::all(wl.gen_len) {
                let step_idx = step.index();
                let prices = StepCompute::new(&cost, &wl, step, &Compression::none());
                for l in 0..spec.n_layers {
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

                    if let Some(m) = spec.moe_index(l) {
                        let gate = sim
                            .task(
                                Resource::GpuCompute,
                                prices.gate,
                                TaskMeta::of(OpClass::GateCompute).layer(l).step(step_idx),
                            )
                            .after(attn)
                            .submit();
                        computes.push(gate);

                        let counts = view.expert_tokens(step, m, s0, s1);
                        let mut gpu_chain: Option<TaskId> = Some(gate);
                        let mut cpu_chain: Option<TaskId> = None;
                        for (e, &tokens) in counts.iter().enumerate() {
                            if tokens == 0 {
                                continue;
                            }
                            let e16 = e as u16;
                            let is_resident = resident.contains(&(m, e16));
                            let disk_penalty = if l >= disk_cutoff {
                                cost.disk_time(spec.expert_bytes())
                            } else {
                                SimDuration::ZERO
                            };
                            let cpu_time = cost.cpu_expert_time(tokens as u64) + disk_penalty;
                            let gpu_time = cost.expert_time(tokens as u64);
                            let move_time = cost.expert_h2d_time(1.0) + disk_penalty;

                            // Prefill always takes the GPU; decode compares.
                            let use_cpu = !is_resident
                                && matches!(step, StepKind::Decode(_))
                                && cpu_time < move_time + gpu_time;

                            if use_cpu {
                                let c = sim
                                    .task(
                                        Resource::CpuCompute,
                                        cpu_time,
                                        TaskMeta::of(OpClass::CpuExpertCompute)
                                            .layer(l)
                                            .expert(e as u32)
                                            .step(step_idx),
                                    )
                                    .after(gate)
                                    .after_all(cpu_chain)
                                    .submit();
                                cpu_chain = Some(c);
                                computes.push(c);
                            } else {
                                let transfer = (!is_resident).then(|| {
                                    sim.task(
                                        Resource::LinkH2d,
                                        move_time,
                                        TaskMeta::of(OpClass::ExpertTransfer)
                                            .layer(l)
                                            .expert(e as u32)
                                            .step(step_idx),
                                    )
                                    .after(gate)
                                    .priority(-1)
                                    .submit()
                                });
                                let c = sim
                                    .task(
                                        Resource::GpuCompute,
                                        gpu_time,
                                        TaskMeta::of(OpClass::ExpertCompute)
                                            .layer(l)
                                            .expert(e as u32)
                                            .step(step_idx),
                                    )
                                    .after(gate)
                                    .after_all(transfer)
                                    .after_all(gpu_chain)
                                    .submit();
                                gpu_chain = Some(c);
                                computes.push(c);
                            }
                        }
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

    fn scenario(bs: u32) -> Scenario {
        Scenario::generate(
            ModelSpec::mixtral_8x7b(),
            HardwareSpec::env1_rtx3090(),
            Workload::new(bs, 1, 128, 3),
            7,
        )
    }

    #[test]
    fn completes_and_uses_the_cpu() {
        let sc = scenario(8);
        let r = Fiddler.run(&sc).unwrap();
        assert!(r.succeeded(), "{:?}", r.oom);
        assert!(r.throughput_tps() > 0.0);
    }

    #[test]
    fn cpu_orchestration_beats_pure_transfer_at_small_batch() {
        // At batch 4, per-expert token counts are tiny: Fiddler's CPU path
        // should beat MoE-Infinity's transfer-on-miss (Env 1, where the
        // paper observes exactly this).
        let sc = scenario(4);
        let fid = Fiddler.run(&sc).unwrap();
        let inf = crate::moe_infinity::MoeInfinity.run(&sc).unwrap();
        assert!(
            fid.throughput_tps() > inf.throughput_tps() * 0.8,
            "Fiddler {} should be at least competitive with MoE-Infinity {}",
            fid.throughput_tps(),
            inf.throughput_tps()
        );
    }

    #[test]
    fn ooms_on_8x22b_at_batch_32() {
        let bad = Fiddler
            .run(&Scenario::generate(
                ModelSpec::mixtral_8x22b(),
                HardwareSpec::env1_rtx3090(),
                Workload::new(32, 1, 512, 2),
                5,
            ))
            .unwrap();
        assert!(!bad.succeeded());
    }

    #[test]
    fn rejects_dense_models() {
        let sc = Scenario::generate(
            ModelSpec::opt_1_3b(),
            HardwareSpec::env1_rtx3090(),
            Workload::new(4, 1, 128, 2),
            5,
        );
        assert!(matches!(
            Fiddler.run(&sc),
            Err(EngineError::InvalidConfig(_))
        ));
    }
}
