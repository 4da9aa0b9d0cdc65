//! Sequential whole-layer offloading engines: Hugging Face **Accelerate**
//! and DeepSpeed-**FastGen**.
//!
//! Both process one batch at a time and move whole layers; they differ in
//! how the movement happens:
//!
//! * **Accelerate** attaches device-map hooks that synchronously `.to()`
//!   each module from *pageable* host memory right before its forward call
//!   — no overlap, unpinned bandwidth, per-module dispatch overhead. Its
//!   one mercy on MoE models: expert submodules load lazily, so only
//!   gate-selected experts transfer.
//! * **FastGen** (ZeRO-Inference lineage) prefetches the *entire* next
//!   layer — all experts, selected or not — from pinned buffers while the
//!   current layer computes, overlapping I/O with (single-batch) compute.
//!
//! Neither offloads the KV cache: it stays in VRAM, like the paper's runs.

use klotski_core::compress::Compression;
use klotski_core::driver::{
    build_report, drain, rejected_report, throttle, trace_view, StepCompute, StepKind, TraceView,
};
use klotski_core::report::InferenceReport;
use klotski_core::scenario::{Engine, EngineError, Scenario};
use klotski_model::cost::CostModel;
use klotski_sim::prelude::*;

use crate::common::dram_expert_cutoff;

/// Extra per-module host-side dispatch overhead of Accelerate's hook path.
const ACCELERATE_MODULE_OVERHEAD: SimDuration = SimDuration::from_millis(2);

/// Hugging Face Accelerate device-map offloading.
#[derive(Debug, Clone, Copy, Default)]
pub struct Accelerate;

/// DeepSpeed-FastGen (ZeRO-Inference style) offloading.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastGen;

impl Engine for Accelerate {
    fn name(&self) -> String {
        "Accelerate".into()
    }

    fn run(&self, sc: &Scenario) -> Result<InferenceReport, EngineError> {
        run_seq(sc, self.name(), false)
    }
}

impl Engine for FastGen {
    fn name(&self) -> String {
        "FastGen".into()
    }

    fn run(&self, sc: &Scenario) -> Result<InferenceReport, EngineError> {
        run_seq(sc, self.name(), true)
    }
}

fn run_seq(sc: &Scenario, name: String, overlap: bool) -> Result<InferenceReport, EngineError> {
    let view = trace_view(sc)?;
    let cost = sc.cost_model();
    let wl = sc.workload;
    let spec = &sc.spec;

    let mut sim = Simulator::new(sc.hw.tier_capacities());
    // Embeddings + activation workspace stay in VRAM; weights in DRAM.
    let act_ws = 4 * spec.hidden_bytes(wl.batch_size as u64 * wl.prompt_len as u64);
    let static_vram = spec.embed_bytes() + act_ws + 800_000_000;
    if sim.pool_mut(Tier::Vram).alloc(static_vram).is_err() {
        let reason = "activation workspace exceeds VRAM".into();
        return Ok(rejected_report(name, spec, &wl, reason));
    }
    sim.pool_mut(Tier::Dram).alloc_up_to(spec.total_bytes());

    let mut b = SeqBuilder {
        sim: &mut sim,
        cost: &cost,
        sc,
        view,
        overlap,
        disk_cutoff: dram_expert_cutoff(spec, &sc.hw),
        kv_bytes: spec.kv_bytes_total(wl.batch_size as u64, wl.max_context()),
        prices: StepCompute::default(),
        chain: None,
        layer_ends: Vec::new(),
    };
    for g in 0..wl.num_batches {
        b.submit_batch(g);
    }

    let (stats, oom) = drain(&mut sim, false)?;
    Ok(build_report(name, spec, &wl, &sim, &stats, oom))
}

struct SeqBuilder<'a> {
    sim: &'a mut Simulator,
    cost: &'a CostModel,
    sc: &'a Scenario,
    view: Option<TraceView<'a>>,
    overlap: bool,
    /// First layer whose experts spill to disk (no tiered placement: the
    /// fetch path pays the disk read for those layers).
    disk_cutoff: u32,
    /// A batch's resident KV bytes (claimed once, freed at batch end).
    kv_bytes: u64,
    /// The current step's compute prices.
    prices: StepCompute,
    /// The tail of the synchronous chain (Accelerate) or the last compute
    /// (FastGen's pacing anchor).
    chain: Option<TaskId>,
    layer_ends: Vec<TaskId>,
}

impl<'a> SeqBuilder<'a> {
    fn h2d(&self, bytes: u64) -> SimDuration {
        if self.overlap {
            self.cost.h2d_time(bytes)
        } else {
            self.cost.h2d_time_unpinned(bytes) + ACCELERATE_MODULE_OVERHEAD
        }
    }

    /// Submits every (step, layer) of one batch: sequences
    /// `[batch · bs, (batch + 1) · bs)`.
    fn submit_batch(&mut self, batch: u32) {
        let wl = self.sc.workload;
        let s0 = batch * wl.batch_size;
        let s1 = s0 + wl.batch_size;
        let mut kv_allocated = false;
        for step in StepKind::all(wl.gen_len) {
            self.prices = StepCompute::new(self.cost, &wl, step, &Compression::none());
            for l in 0..self.sc.spec.n_layers {
                self.submit_layer(step, l, s0, s1, &mut kv_allocated);
            }
        }
    }

    fn submit_layer(&mut self, step: StepKind, l: u32, s0: u32, s1: u32, kv_allocated: &mut bool) {
        let spec = &self.sc.spec;
        let cost = self.cost;
        let wl = self.sc.workload;
        let step_idx = step.index();
        let moe = spec.moe_index(l);

        // --- Layer weight transfer(s).
        let mut attn_bytes = spec.attn_bytes();
        if moe.is_none() {
            attn_bytes += spec.dense_ffn_bytes();
        }
        let load_dep = if self.overlap {
            throttle(&self.layer_ends)
        } else {
            self.chain
        };
        let mut load = self
            .sim
            .task(
                Resource::LinkH2d,
                self.h2d(attn_bytes),
                TaskMeta::of(OpClass::WeightTransfer)
                    .layer(l)
                    .step(step_idx),
            )
            .alloc_on_start(Tier::Vram, attn_bytes);
        // The first task of a batch also claims its resident KV region.
        if !*kv_allocated {
            load = load.alloc_on_start(Tier::Vram, self.kv_bytes);
            *kv_allocated = true;
        }
        let load = load.after_all(load_dep).submit();
        if !self.overlap {
            self.chain = Some(load);
        }

        // --- Attention compute.
        let attn = self
            .sim
            .task(
                Resource::GpuCompute,
                self.prices.attention,
                TaskMeta::of(OpClass::AttentionCompute)
                    .layer(l)
                    .step(step_idx),
            )
            .after(load)
            .after_all(self.chain)
            .submit();
        self.chain = Some(attn);

        let mut computes = vec![attn];
        let mut freed = attn_bytes;

        if let Some(m) = moe {
            let view = self.view.as_ref().expect("moe run has a trace");
            let counts = view.expert_tokens(step, m, s0, s1);

            // Gate load + compute.
            let gate_dep = if self.overlap {
                throttle(&self.layer_ends)
            } else {
                Some(attn)
            };
            let gate_load = self
                .sim
                .task(
                    Resource::LinkH2d,
                    self.h2d(spec.gate_bytes()),
                    TaskMeta::of(OpClass::GateTransfer).layer(l).step(step_idx),
                )
                .alloc_on_start(Tier::Vram, spec.gate_bytes())
                .after_all(gate_dep)
                .submit();
            let gate = self
                .sim
                .task(
                    Resource::GpuCompute,
                    self.prices.gate,
                    TaskMeta::of(OpClass::GateCompute).layer(l).step(step_idx),
                )
                .after(attn)
                .after(gate_load)
                .submit();
            self.chain = Some(gate);
            computes.push(gate);
            freed += spec.gate_bytes();

            // Experts.
            let to_load: Vec<u16> = if self.overlap {
                // FastGen prefetches the whole MoE layer, selected or not.
                (0..spec.n_experts as u16).collect()
            } else {
                // Accelerate's lazy hooks load only the selected experts.
                counts
                    .iter()
                    .enumerate()
                    .filter(|&(_, &c)| c > 0)
                    .map(|(e, _)| e as u16)
                    .collect()
            };
            let disk_penalty = if l >= self.disk_cutoff {
                cost.disk_time(spec.expert_bytes())
            } else {
                SimDuration::ZERO
            };
            let mut transfers: Vec<TaskId> = Vec::with_capacity(to_load.len());
            for &e in &to_load {
                // Synchronous: the hook fires after the gate (and after the
                // previous expert finished computing).
                let dep = if self.overlap {
                    throttle(&self.layer_ends)
                } else {
                    self.chain
                };
                let t = self
                    .sim
                    .task(
                        Resource::LinkH2d,
                        self.h2d(spec.expert_bytes()) + disk_penalty,
                        TaskMeta::of(OpClass::ExpertTransfer)
                            .layer(l)
                            .expert(e as u32)
                            .step(step_idx),
                    )
                    .alloc_on_start(Tier::Vram, spec.expert_bytes())
                    .after_all(dep)
                    .submit();
                transfers.push(t);

                let tokens = counts[e as usize] as u64;
                if tokens > 0 {
                    let chain = self.chain;
                    let mut c = self
                        .sim
                        .task(
                            Resource::GpuCompute,
                            cost.expert_time(tokens),
                            TaskMeta::of(OpClass::ExpertCompute)
                                .layer(l)
                                .expert(e as u32)
                                .step(step_idx),
                        )
                        .after(gate)
                        .after(t);
                    if self.overlap {
                        // FastGen's per-module fetch buffer is recycled as
                        // soon as the module's forward finishes.
                        c = c.free_on_end(Tier::Vram, spec.expert_bytes());
                    } else {
                        freed += spec.expert_bytes();
                    }
                    let c = c.after_all(chain).submit();
                    self.chain = Some(c);
                    computes.push(c);
                } else {
                    // Inactive expert: its buffer releases at layer end.
                    freed += spec.expert_bytes();
                }
            }
            // Transfers of inactive experts have no dependent compute, but
            // their bytes are freed at the layer end: it must wait for them.
            computes.extend(transfers);
            computes.push(gate_load);
        } else {
            // Dense FFN (weights came with the layer transfer).
            let ffn = self
                .sim
                .task(
                    Resource::GpuCompute,
                    self.prices.dense_ffn,
                    TaskMeta::of(OpClass::DenseCompute).layer(l).step(step_idx),
                )
                .after(attn)
                .submit();
            self.chain = Some(ffn);
            computes.push(ffn);
        }

        // --- Layer end: free the layer's weights (and, on the very last
        // layer of a batch, its KV region).
        let is_last = step_idx == wl.gen_len.saturating_sub(1) && l == spec.n_layers - 1;
        let mut end = self
            .sim
            .task(
                Resource::GpuCompute,
                SimDuration::ZERO,
                TaskMeta::of(OpClass::Offload).layer(l).step(step_idx),
            )
            .after_all(computes.iter().copied())
            .free_on_end(Tier::Vram, freed);
        if is_last {
            end = end.free_on_end(Tier::Vram, self.kv_bytes);
        }
        let end = end.submit();
        self.layer_ends.push(end);
        self.chain = Some(end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn both_engines_complete() {
        let sc = scenario(4, 2);
        let a = Accelerate.run(&sc).unwrap();
        let f = FastGen.run(&sc).unwrap();
        assert!(a.succeeded(), "{:?}", a.oom);
        assert!(f.succeeded(), "{:?}", f.oom);
        assert_eq!(a.generated_tokens, f.generated_tokens);
    }

    #[test]
    fn fastgen_beats_accelerate() {
        // Pinned + overlapped must beat pageable + synchronous.
        let sc = scenario(4, 2);
        let a = Accelerate.run(&sc).unwrap();
        let f = FastGen.run(&sc).unwrap();
        assert!(
            f.throughput_tps() > a.throughput_tps() * 1.5,
            "FastGen {} vs Accelerate {}",
            f.throughput_tps(),
            a.throughput_tps()
        );
    }

    #[test]
    fn accelerate_has_no_overlap_bubbles_accounting() {
        // In a fully synchronous chain the GPU idles during every transfer:
        // the bubble fraction should be large.
        let sc = scenario(4, 1);
        let a = Accelerate.run(&sc).unwrap();
        assert!(
            a.bubble_fraction() > 0.5,
            "sync engine should stall most of the time, got {}",
            a.bubble_fraction()
        );
    }

    #[test]
    fn dense_models_are_supported() {
        let sc = Scenario::generate(
            ModelSpec::opt_1_3b(),
            HardwareSpec::env1_rtx3090(),
            Workload::new(4, 2, 128, 3),
            5,
        );
        let a = Accelerate.run(&sc).unwrap();
        let f = FastGen.run(&sc).unwrap();
        assert!(a.succeeded() && f.succeeded());
        assert!(f.throughput_tps() > a.throughput_tps());
    }

    #[test]
    fn vram_is_conserved() {
        let sc = scenario(4, 2);
        let a = Accelerate.run(&sc).unwrap();
        // All transient weights freed; what remains at peak is bounded by
        // static + KV + one layer's worth of weights (×2 for slack).
        assert!(a.peak_vram < 16_000_000_000, "peak {}", a.peak_vram);
    }
}
