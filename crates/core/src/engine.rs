//! The Klotski engine: the expert-aware multi-batch pipeline (§5) executed
//! over the simulated substrate.
//!
//! Per layer, the engine:
//!
//! 1. streams each batch's KV chunk in and computes attention, sharing the
//!    layer's weights across the whole batch group (inter-layer bubbles
//!    shrink because `n` batches of compute cover the next transfers);
//! 2. prefetches only the gate and the K predicted **hot** experts during
//!    the attention phase (inequalities (4)–(5));
//! 3. fires on-demand transfers for gate-selected cold experts the moment
//!    the selecting batch's gate completes — at higher link priority than
//!    background prefetches;
//! 4. partitions expert computation **by expert across batches** and lets
//!    experts execute in readiness order — prefetched hot experts first,
//!    cold experts in transfer-completion order (intra-layer bubbles hide
//!    under hot-expert compute) — and offloads each expert the moment its
//!    computation finishes;
//! 5. prefetches the next layer's attention weights during the expert phase
//!    (inequality (7)) and, when experts live on disk, keeps a sliding
//!    disk→DRAM staging window ahead of the compute front (§6.1).
//!
//! Every ablation row of the paper's Table 3 is a switch on
//! [`KlotskiConfig`].

use klotski_model::cost::CostModel;
use klotski_model::spec::ModelSpec;
use klotski_model::workload::Workload;
use klotski_sim::prelude::*;

use crate::compress::Compression;
use crate::driver::{
    build_report, drain, rejected_report, throttle, trace_view, StepCompute, StepKind, TraceView,
    NO_BATCH,
};
use crate::placement::{plan_placement, PlacementPlan};
use crate::planner::Planner;
use crate::prefetcher::{CorrelationTable, HotSet, WARMUP_SEED};
use crate::report::InferenceReport;
use crate::scenario::{Engine, EngineError, Scenario};

/// Link priorities (lower = more urgent among simultaneously-ready tasks).
mod prio {
    /// KV chunks are on the critical path of the very next attention.
    pub const KV: i32 = -2;
    /// Gate-selected cold experts must arrive as soon as possible.
    pub const ON_DEMAND: i32 = -1;
    /// Gate + hot-expert prefetches.
    pub const PREFETCH: i32 = 0;
    /// Next layer's attention weights are the least urgent.
    pub const BACKGROUND: i32 = 1;
}

/// Feature switches of the Klotski engine (the paper's Table 3 rows).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KlotskiConfig {
    /// Share each loaded layer across the whole batch group (vs. one batch
    /// at a time).
    pub multi_batch: bool,
    /// Prefetch only gate + hot experts (vs. the whole MoE layer).
    pub hot_expert_prefetch: bool,
    /// Let experts compute in readiness order (vs. gate-discovery order).
    pub reorder_experts: bool,
    /// Partition the expert phase **by batch** instead of by expert
    /// (FlexGen's zig-zag block order): every batch runs its own expert
    /// ops, so weights are shared but expert kernels are not batched
    /// across the group.
    pub batch_major_experts: bool,
    /// Quantization / sparse-attention options.
    pub compression: Compression,
    /// Park the first layers' experts in spare VRAM (Fig. 12's
    /// "Further Use Memory" mode).
    pub use_spare_vram: bool,
    /// Record a full task timeline (Fig. 15).
    pub record_timeline: bool,
    /// Record the per-op VRAM curve (Fig. 12).
    pub record_memory: bool,
    /// Tokens used to warm up the expert-correlation table (§8 pre-run).
    pub warmup_tokens: u32,
    /// Number of hot experts to prefetch; defaults to the model's top-k.
    pub prefetch_k: Option<u32>,
}

impl Default for KlotskiConfig {
    fn default() -> Self {
        KlotskiConfig {
            multi_batch: true,
            hot_expert_prefetch: true,
            reorder_experts: true,
            batch_major_experts: false,
            compression: Compression::none(),
            use_spare_vram: false,
            record_timeline: false,
            record_memory: false,
            warmup_tokens: 4096,
            prefetch_k: None,
        }
    }
}

impl KlotskiConfig {
    /// Table 3 row 1: single batch, whole-MoE-layer prefetch.
    pub fn ablation_simple_pipeline() -> Self {
        KlotskiConfig {
            multi_batch: false,
            hot_expert_prefetch: false,
            reorder_experts: false,
            batch_major_experts: true,
            ..Self::default()
        }
    }

    /// Table 3 row 2: + multi-batch weight sharing (expert computation
    /// still partitioned by batch, as in the Fig. 4(b) strawman).
    pub fn ablation_multi_batch() -> Self {
        KlotskiConfig {
            hot_expert_prefetch: false,
            reorder_experts: false,
            batch_major_experts: true,
            ..Self::default()
        }
    }

    /// Table 3 row 3: + prefetch only hot experts. Expert computation is
    /// expert-major (one kernel per expert over all batches) but stays in
    /// gate-discovery order — the "adjust order" step of Fig. 7 (hot-first
    /// + transfer-completion order) is what the full configuration adds.
    pub fn ablation_hot_prefetch() -> Self {
        KlotskiConfig {
            reorder_experts: false,
            ..Self::default()
        }
    }

    /// Table 3 row 4 (full Klotski: + adjusted expert order).
    pub fn full() -> Self {
        Self::default()
    }

    /// Table 3 row 5: full Klotski + 4-bit weight quantization.
    pub fn quantized() -> Self {
        KlotskiConfig {
            compression: Compression::quantized(),
            ..Self::default()
        }
    }
}

/// The Klotski inference engine.
#[derive(Debug, Clone, Default)]
pub struct KlotskiEngine {
    cfg: KlotskiConfig,
}

impl KlotskiEngine {
    /// Creates an engine with the given configuration.
    pub fn new(cfg: KlotskiConfig) -> Self {
        KlotskiEngine { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &KlotskiConfig {
        &self.cfg
    }

    /// The constraint-sensitive planner for `scenario`'s model/hardware
    /// under this engine's compression settings.
    pub fn planner(&self, scenario: &Scenario) -> Planner {
        Planner::new(scenario.cost_model(), self.cfg.compression)
    }
}

impl Engine for KlotskiEngine {
    fn name(&self) -> String {
        let base = match (
            self.cfg.multi_batch,
            self.cfg.hot_expert_prefetch,
            self.cfg.reorder_experts,
        ) {
            (false, _, _) => "Simple pipeline",
            (true, false, _) => "Klotski (whole-layer prefetch)",
            (true, true, false) => "Klotski (no reorder)",
            (true, true, true) => "Klotski",
        };
        if self.cfg.compression.quant.is_some() {
            format!("{base} (q)")
        } else {
            base.to_owned()
        }
    }

    fn run(&self, sc: &Scenario) -> Result<InferenceReport, EngineError> {
        let view = trace_view(sc)?;
        let cost = sc.cost_model();
        let wl = sc.workload;
        let group_size = if self.cfg.multi_batch {
            wl.num_batches
        } else {
            1
        };

        let placement = match plan_placement(
            &sc.spec,
            &sc.hw,
            &wl,
            group_size,
            &self.cfg.compression,
            self.cfg.use_spare_vram,
        ) {
            Ok(p) => p,
            Err(e) => return Ok(rejected_report(self.name(), &sc.spec, &wl, e.to_string())),
        };

        let mut table = sc.base_gating.as_ref().map(|base| {
            let mut t = CorrelationTable::new(sc.spec.n_moe_layers(), sc.spec.n_experts);
            t.warm_up(base, self.cfg.warmup_tokens, WARMUP_SEED);
            t
        });

        let k_prefetch = self.cfg.prefetch_k.unwrap_or(sc.spec.top_k.max(1));
        let mut sim = Simulator::with_capacity(
            sc.hw.tier_capacities(),
            task_bound(&sc.spec, &wl, group_size, k_prefetch, &self.cfg),
        );
        sim.metrics_mut()
            .set_record_timeline(self.cfg.record_timeline);
        sim.metrics_mut().set_record_memory(self.cfg.record_memory);

        // Static allocations: embeddings + activation workspace + resident
        // experts in VRAM; DRAM-resident weights; disk-resident layers.
        let act_ws = 8 * sc
            .spec
            .hidden_bytes(group_size as u64 * wl.batch_size as u64);
        let static_vram = sc.spec.embed_bytes() + act_ws + placement.vram_resident;
        if sim.pool_mut(Tier::Vram).alloc(static_vram).is_err() {
            let reason = format!(
                "static working set {:.1} GB exceeds VRAM",
                static_vram as f64 / 1e9
            );
            return Ok(rejected_report(self.name(), &sc.spec, &wl, reason));
        }
        sim.pool_mut(Tier::Dram)
            .alloc(placement.dram_weights)
            .expect("placement guarantees DRAM weight fit");
        let disk_bytes: u64 = (0..sc.spec.n_layers)
            .filter(|&l| placement.is_expert_on_disk(l))
            .map(|l| expert_layer_bytes(&sc.spec, l))
            .sum();
        sim.pool_mut(Tier::Disk).alloc_up_to(disk_bytes);

        let mut b = Builder {
            spec: &sc.spec,
            cost: &cost,
            cfg: &self.cfg,
            placement: &placement,
            view,
            table: table.as_mut(),
            sim: &mut sim,
            wl: &wl,
            k_prefetch,
            costs: StepCosts::default(),
            carry: None,
            prev_attn_tasks: Vec::new(),
            pending_attn_w: None,
            layer_ends: Vec::new(),
            stage_map: Vec::new(),
            scratch: LayerScratch::default(),
        };
        let n_groups = wl.num_batches.div_ceil(group_size);
        for g in 0..n_groups {
            let b0 = g * group_size;
            let b1 = (b0 + group_size).min(wl.num_batches);
            b.submit_group(b0, b1);
        }

        let (stats, oom) = drain(&mut sim, self.cfg.record_memory)?;
        Ok(build_report(self.name(), &sc.spec, &wl, &sim, &stats, oom))
    }
}

/// An upper bound on the tasks [`Builder`] submits for `wl` in batch
/// groups of `group_size`, so the simulator reserves its arenas once. Per
/// (group, step, layer) a layer submits at most: the next layer's
/// attention weights, the gate or whole-layer transfer, a disk stage, the
/// layer end and a step's first weight transfer (5, plus one spare);
/// `k_prefetch` hot-expert prefetches; one on-demand transfer per expert;
/// four tasks per batch (KV load, attention, KV store, gate); and the
/// expert kernels — one per expert and batch in batch-major mode, else one
/// per expert (or one dense FFN per batch).
fn task_bound(
    spec: &ModelSpec,
    wl: &Workload,
    group_size: u32,
    k: u32,
    cfg: &KlotskiConfig,
) -> usize {
    let (n_b, experts) = (group_size as usize, spec.n_experts as usize);
    let kernels = if cfg.batch_major_experts {
        n_b * experts.max(1)
    } else {
        experts.max(n_b)
    };
    let per_layer = 6 + k as usize + experts + 4 * n_b + kernels;
    let layers =
        wl.num_batches.div_ceil(group_size) as usize * wl.gen_len as usize * spec.n_layers as usize;
    layers * per_layer
}

fn expert_layer_bytes(spec: &ModelSpec, layer: u32) -> u64 {
    if spec.is_moe_layer(layer) {
        spec.n_experts as u64 * spec.expert_bytes()
    } else {
        spec.dense_ffn_bytes()
    }
}

/// Durations and sizes that are the same for every layer of one step,
/// computed once when the step starts.
#[derive(Debug, Clone, Copy, Default)]
struct StepCosts {
    /// Attention (+ dense FFN) weights of a MoE / dense layer: VRAM bytes
    /// and transfer time.
    attn_w_moe: (u64, SimDuration),
    attn_w_dense: (u64, SimDuration),
    gate_w_time: SimDuration,
    expert_w_time: SimDuration,
    /// The whole-MoE-layer blob (gate + every expert): VRAM bytes, time.
    blob: (u64, SimDuration),
    /// One batch's KV chunk streamed in (decode only): bytes, time.
    kv_load: (u64, SimDuration),
    /// One batch's new KV entries written back: VRAM bytes, DRAM growth,
    /// time.
    kv_store: (u64, u64, SimDuration),
    /// One batch's attention, gate and dense FFN.
    compute: StepCompute,
}

impl StepCosts {
    fn new(
        spec: &ModelSpec,
        cost: &CostModel,
        cfg: &KlotskiConfig,
        wl: &Workload,
        step: StepKind,
    ) -> Self {
        let comp = &cfg.compression;
        let wf = comp.weight_factor(spec.dtype);
        let h2d = |vram: u64| (vram, cost.h2d_time((vram as f64 * wf) as u64));
        let bs = wl.batch_size as u64;
        let ctx = step.context(wl.prompt_len);
        let kv_factor = comp.kv_factor(ctx);
        let kv_per_tok = spec.kv_bytes_per_token_layer();
        let new_tokens = step.new_tokens(wl.prompt_len);
        let store_bytes = bs * new_tokens * kv_per_tok;
        let blob_vram = spec.gate_bytes() + spec.n_experts as u64 * spec.expert_bytes();
        StepCosts {
            attn_w_moe: h2d(spec.attn_bytes()),
            attn_w_dense: h2d(spec.attn_bytes() + spec.dense_ffn_bytes()),
            gate_w_time: cost.gate_h2d_time(),
            expert_w_time: cost.expert_h2d_time(wf),
            blob: h2d(blob_vram),
            kv_load: (
                (bs as f64 * ctx as f64 * kv_per_tok as f64 * kv_factor) as u64,
                cost.kv_h2d_time(bs, ctx, kv_factor),
            ),
            kv_store: (
                store_bytes,
                (store_bytes as f64 * kv_factor) as u64,
                cost.kv_d2h_time(bs, new_tokens),
            ),
            compute: StepCompute::new(cost, wl, step, comp),
        }
    }
}

/// Per-layer working buffers, reused across every layer and step of a
/// run so that laying out a layer allocates nothing.
#[derive(Debug, Default)]
struct LayerScratch {
    /// Routed-token count per expert id.
    counts: Vec<u32>,
    /// Experts with at least one routed token, ascending id.
    activated: Vec<u16>,
    /// The prefetched (predicted-hot) experts.
    hot: HotSet,
    /// Each expert's first requesting batch (or `NO_BATCH`).
    first_batch: Vec<u32>,
    /// The weight transfer of each expert id this layer, if any. Iterated
    /// in ascending id (release accounting and layer-end dependencies), so
    /// the schedule never depends on hashing.
    transfers: Vec<Option<TaskId>>,
    attn_tasks: Vec<TaskId>,
    gate_tasks: Vec<TaskId>,
    compute_tasks: Vec<TaskId>,
    /// Expert execution order: sort keys with the expert id in the low
    /// 16 bits.
    order: Vec<u64>,
    /// One batch's routed-token counts (batch-major mode).
    batch_counts: Vec<u32>,
}

/// DAG builder for one run.
struct Builder<'a> {
    spec: &'a ModelSpec,
    cost: &'a CostModel,
    cfg: &'a KlotskiConfig,
    placement: &'a PlacementPlan,
    view: Option<TraceView<'a>>,
    table: Option<&'a mut CorrelationTable>,
    sim: &'a mut Simulator,
    wl: &'a Workload,
    k_prefetch: u32,
    /// The current step's constant durations.
    costs: StepCosts,
    /// Completion anchor of the previous layer (its layer-end task).
    carry: Option<TaskId>,
    /// Attention computes of the previous layer, per batch: the KV stream
    /// prefetches layer `l`'s chunk for batch `b` as soon as layer `l−1`'s
    /// attention for `b` has finished (one layer of KV double-buffering,
    /// mirroring the dedicated KV-prefetch CUDA stream of §8).
    prev_attn_tasks: Vec<TaskId>,
    /// The prefetched attention-weight transfer for the next layer.
    pending_attn_w: Option<TaskId>,
    /// Every layer-end task, in execution order (disk staging anchors).
    layer_ends: Vec<TaskId>,
    /// Disk→DRAM stage task per layer of the current step.
    stage_map: Vec<Option<TaskId>>,
    scratch: LayerScratch,
}

impl<'a> Builder<'a> {
    fn submit_group(&mut self, batch0: u32, batch1: u32) {
        let n_b = batch1 - batch0;
        let s0 = batch0 * self.wl.batch_size;
        let s1 = batch1 * self.wl.batch_size;
        for step in StepKind::all(self.wl.gen_len) {
            self.costs = StepCosts::new(self.spec, self.cost, self.cfg, self.wl, step);
            self.stage_map.clear();
            self.stage_map.resize(self.spec.n_layers as usize, None);
            self.stage_initial_window(step);
            if self.pending_attn_w.is_none() {
                self.pending_attn_w = Some(self.submit_attn_weights(0, step));
            }
            let mut moe_layers = 0;
            for l in 0..self.spec.n_layers {
                // The layer's index among the MoE layers, if it is one.
                let moe = self.spec.is_moe_layer(l).then_some(moe_layers);
                moe_layers += u32::from(moe.is_some());
                self.submit_layer(step, l, moe, n_b, s0, s1);
            }
        }
    }

    /// Stages the first `window` disk layers of a step, anchored to layer
    /// ends `window` layers back in global execution order.
    fn stage_initial_window(&mut self, step: StepKind) {
        let w = self.placement.staging_window;
        for l in 0..w.min(self.spec.n_layers) {
            if !self.placement.is_expert_on_disk(l) {
                continue;
            }
            let anchor_idx = (self.layer_ends.len() as i64) + l as i64 - w as i64;
            let dep = if anchor_idx >= 0 {
                Some(self.layer_ends[anchor_idx as usize])
            } else {
                None
            };
            self.submit_stage(step, l, dep);
        }
    }

    fn submit_stage(&mut self, step: StepKind, layer: u32, dep: Option<TaskId>) {
        // Disk and DRAM hold full-precision weights; quantization is applied
        // on the DRAM→VRAM transfer path only (the paper dequantizes before
        // compute and reports that quantization barely moves the disk-bound
        // Mixtral-8×22B Env-1 numbers, which pins the quantizer to PCIe).
        let bytes = expert_layer_bytes(self.spec, layer);
        let id = self
            .sim
            .task(
                Resource::LinkDisk,
                self.cost.disk_time(bytes),
                TaskMeta::of(OpClass::DiskStage)
                    .layer(layer)
                    .step(step.index()),
            )
            .alloc_on_start(Tier::Dram, bytes)
            .after_all(dep)
            .submit();
        self.stage_map[layer as usize] = Some(id);
    }

    /// Submits the attention (+ dense FFN) weight transfer for `layer`.
    fn submit_attn_weights(&mut self, layer: u32, step: StepKind) -> TaskId {
        let (vram, time) = if self.spec.is_moe_layer(layer) {
            self.costs.attn_w_moe
        } else {
            self.costs.attn_w_dense
        };
        let throttle = throttle(&self.layer_ends);
        self.sim
            .task(
                Resource::LinkH2d,
                time,
                TaskMeta::of(OpClass::WeightTransfer)
                    .layer(layer)
                    .step(step.index()),
            )
            .alloc_on_start(Tier::Vram, vram)
            .after_all(throttle)
            .priority(prio::BACKGROUND)
            .submit()
    }

    #[allow(clippy::too_many_lines)]
    // analyze: no_alloc
    fn submit_layer(
        &mut self,
        step: StepKind,
        l: u32,
        moe: Option<u32>,
        n_b: u32,
        s0: u32,
        s1: u32,
    ) {
        let spec = self.spec;
        let cost = self.cost;
        let c = self.costs;
        let bs = self.wl.batch_size;
        let step_idx = step.index();
        // A MoE layer's index among the MoE layers, and the routing trace
        // (`run` rejects MoE scenarios without one).
        let moe = moe.map(|m| (m, self.view.expect("a MoE run has a trace")));
        let resident = moe.is_some() && self.placement.is_expert_resident(l);
        let stage_dep = self.stage_map[l as usize];
        let throttle = throttle(&self.layer_ends);
        let attn_w = self.pending_attn_w.take().expect("attn weights prefetched");

        // --- This layer's routing.
        let s = &mut self.scratch;
        s.counts.clear();
        s.activated.clear();
        s.hot.experts.clear();
        s.transfers.clear();
        s.transfers.resize(spec.n_experts as usize, None);
        s.attn_tasks.clear();
        s.gate_tasks.clear();
        s.compute_tasks.clear();
        if let Some((m, view)) = moe {
            view.expert_tokens_into(step, m, s0, s1, &mut s.counts);
            s.activated.extend(
                s.counts
                    .iter()
                    .enumerate()
                    .filter(|&(_, &c)| c > 0)
                    .map(|(e, _)| e as u16),
            );
            if self.cfg.hot_expert_prefetch {
                view.first_requesting_batches_into(step, m, s0, s1, bs, &mut s.first_batch);
            }
        }

        // --- Gate + hot-expert prefetch (issued while attention computes).
        let mut gate_w: Option<TaskId> = None;
        // Whole-MoE-layer blob transfer (gate + every expert as one unit),
        // used when hot-expert prefetch is off: this is FlexGen's (and the
        // strawman's) granularity — no compute may start before the whole
        // layer has arrived.
        let mut layer_blob: Option<TaskId> = None;
        if let Some((m, view)) = moe {
            if !self.cfg.hot_expert_prefetch {
                self.scratch.hot.experts.extend(0..spec.n_experts as u16);
            } else {
                self.predict_hot(view, step, m, s0, s1);
            }
            if !resident && !self.cfg.hot_expert_prefetch {
                layer_blob = Some(
                    self.sim
                        .task(
                            Resource::LinkH2d,
                            c.blob.1,
                            TaskMeta::of(OpClass::ExpertTransfer)
                                .layer(l)
                                .step(step_idx),
                        )
                        .alloc_on_start(Tier::Vram, c.blob.0)
                        .after_all(stage_dep)
                        .after_all(throttle)
                        .priority(prio::PREFETCH)
                        .submit(),
                );
            } else if !resident {
                gate_w = Some(
                    self.sim
                        .task(
                            Resource::LinkH2d,
                            c.gate_w_time,
                            TaskMeta::of(OpClass::GateTransfer).layer(l).step(step_idx),
                        )
                        .alloc_on_start(Tier::Vram, spec.gate_bytes())
                        .after_all(throttle)
                        .priority(prio::PREFETCH)
                        .submit(),
                );
                let s = &mut self.scratch;
                for &e in &s.hot.experts {
                    s.transfers[e as usize] = Some(
                        self.sim
                            .task(
                                Resource::LinkH2d,
                                c.expert_w_time,
                                TaskMeta::of(OpClass::ExpertTransfer)
                                    .layer(l)
                                    .expert(e as u32)
                                    .step(step_idx),
                            )
                            .alloc_on_start(Tier::Vram, spec.expert_bytes())
                            .after_all(stage_dep)
                            .after_all(throttle)
                            .priority(prio::PREFETCH)
                            .submit(),
                    );
                }
            }
        }

        // --- Attention phase: KV in, attention, gate, KV out (per batch).
        let s = &mut self.scratch;
        for b in 0..n_b {
            let kv_load = if matches!(step, StepKind::Decode(_)) {
                // The previous layer's attention for this batch, or (on a
                // group's first layer) the previous batch's attention.
                let anchor = match self.prev_attn_tasks.get(b as usize) {
                    Some(&a) => Some(a),
                    None => b.checked_sub(1).map(|p| s.attn_tasks[p as usize]),
                };
                let id = self
                    .sim
                    .task(
                        Resource::LinkH2d,
                        c.kv_load.1,
                        TaskMeta::of(OpClass::KvLoad)
                            .layer(l)
                            .batch(b)
                            .step(step_idx),
                    )
                    .alloc_on_start(Tier::Vram, c.kv_load.0)
                    .after_all(anchor)
                    .priority(prio::KV)
                    .submit();
                Some(id)
            } else {
                None
            };

            let attn = self
                .sim
                .task(
                    Resource::GpuCompute,
                    c.compute.attention,
                    TaskMeta::of(OpClass::AttentionCompute)
                        .layer(l)
                        .batch(b)
                        .step(step_idx),
                )
                .after(attn_w)
                .after_all(self.carry)
                .after_all(kv_load)
                .submit();
            s.attn_tasks.push(attn);

            // Write back the new KV entries (and release the chunk).
            let (store_bytes, dram_growth, store_time) = c.kv_store;
            let mut store = self
                .sim
                .task(
                    Resource::LinkD2h,
                    store_time,
                    TaskMeta::of(OpClass::KvStore)
                        .layer(l)
                        .batch(b)
                        .step(step_idx),
                )
                .after(attn)
                .alloc_on_start(Tier::Vram, store_bytes)
                .free_on_end(Tier::Vram, store_bytes)
                .alloc_on_end(Tier::Dram, dram_growth);
            if kv_load.is_some() {
                store = store.free_on_end(Tier::Vram, c.kv_load.0);
            }
            store.submit();

            if moe.is_some() {
                let gate = self
                    .sim
                    .task(
                        Resource::GpuCompute,
                        c.compute.gate,
                        TaskMeta::of(OpClass::GateCompute)
                            .layer(l)
                            .batch(b)
                            .step(step_idx),
                    )
                    .after(attn)
                    .after_all(gate_w)
                    .after_all(layer_blob)
                    .submit();
                s.gate_tasks.push(gate);
            }
        }

        // --- Expert phase (or dense FFN).
        if let Some((m, view)) = moe {
            // On-demand transfers for activated cold experts.
            if self.cfg.hot_expert_prefetch && !resident {
                for &e in &s.activated {
                    if s.transfers[e as usize].is_some() {
                        continue;
                    }
                    let b_first = match s.first_batch[e as usize] {
                        NO_BATCH => 0,
                        b => b,
                    };
                    s.transfers[e as usize] = Some(
                        self.sim
                            .task(
                                Resource::LinkH2d,
                                c.expert_w_time,
                                TaskMeta::of(OpClass::ExpertTransfer)
                                    .layer(l)
                                    .expert(e as u32)
                                    .step(step_idx),
                            )
                            .after(s.gate_tasks[b_first as usize])
                            .alloc_on_start(Tier::Vram, spec.expert_bytes())
                            .after_all(stage_dep)
                            .priority(prio::ON_DEMAND)
                            .submit(),
                    );
                }
            }

            if self.cfg.batch_major_experts {
                // FlexGen-style: each batch runs its own expert ops after
                // its gate; weights are shared but kernels are per-batch.
                let mut prev_in_chain: Option<TaskId> = None;
                for b in 0..n_b {
                    let from = s0 + b * bs;
                    view.expert_tokens_into(step, m, from, from + bs, &mut s.batch_counts);
                    for (e, &tokens) in s.batch_counts.iter().enumerate() {
                        if tokens == 0 {
                            continue;
                        }
                        let id = self
                            .sim
                            .task(
                                Resource::GpuCompute,
                                cost.expert_time(tokens as u64),
                                TaskMeta::of(OpClass::ExpertCompute)
                                    .layer(l)
                                    .batch(b)
                                    .expert(e as u32)
                                    .step(step_idx),
                            )
                            .after(s.gate_tasks[b as usize])
                            .after_all(layer_blob)
                            .after_all(s.transfers[e])
                            .after_all(prev_in_chain)
                            .submit();
                        prev_in_chain = Some(id);
                        s.compute_tasks.push(id);
                    }
                }
                // Expert weights release at layer end (no per-expert
                // offload: any batch may still need them).
            } else {
                // Execution order: reordered (readiness) vs. fixed.
                self.order_experts();
                let s = &mut self.scratch;
                let mut prev_in_chain: Option<TaskId> = None;
                for &key in &s.order {
                    let e = key as u16;
                    let transfer = s.transfers[e as usize];
                    let mut t = self
                        .sim
                        .task(
                            Resource::GpuCompute,
                            cost.expert_time(s.counts[e as usize] as u64),
                            TaskMeta::of(OpClass::ExpertCompute)
                                .layer(l)
                                .expert(e as u32)
                                .step(step_idx),
                        )
                        .after_all(s.gate_tasks.iter().copied());
                    if self.cfg.hot_expert_prefetch {
                        t = t.after_all(transfer);
                    } else {
                        t = t.after_all(layer_blob);
                    }
                    if !self.cfg.reorder_experts {
                        t = t.after_all(prev_in_chain);
                    }
                    if !resident && transfer.is_some() {
                        // Offload immediately after this expert's computations.
                        t = t.free_on_end(Tier::Vram, spec.expert_bytes());
                    }
                    let id = t.submit();
                    prev_in_chain = Some(id);
                    s.compute_tasks.push(id);
                }
            }
        } else {
            // Dense FFN per batch (weights arrived with the attention
            // transfer).
            for (b, &attn) in s.attn_tasks.iter().enumerate() {
                let id = self
                    .sim
                    .task(
                        Resource::GpuCompute,
                        c.compute.dense_ffn,
                        TaskMeta::of(OpClass::DenseCompute)
                            .layer(l)
                            .batch(b as u32)
                            .step(step_idx),
                    )
                    .after(attn)
                    .submit();
                s.compute_tasks.push(id);
            }
        }

        // --- Layer end: free the layer's transient weights, anchor the
        // next layer, slide the disk window.
        let s = &mut self.scratch;
        let mut freed = spec.attn_bytes();
        if moe.is_none() {
            freed += spec.dense_ffn_bytes();
        }
        if moe.is_some() && !resident {
            freed += spec.gate_bytes();
            if layer_blob.is_some() {
                // The blob (gate + every expert) releases as one unit.
                freed += spec.expert_bytes() * spec.n_experts as u64;
            } else if self.cfg.batch_major_experts {
                // Batch-major mode keeps every transferred expert until the
                // whole layer finishes (any later batch may need it).
                let n = s.transfers.iter().filter(|t| t.is_some()).count();
                freed += spec.expert_bytes() * n as u64;
            } else {
                // Prefetched-but-inactive experts were never computed:
                // release them here (the active ones freed themselves).
                for (e, t) in s.transfers.iter().enumerate() {
                    if t.is_some() && s.counts.get(e).copied().unwrap_or(0) == 0 {
                        freed += spec.expert_bytes();
                    }
                }
            }
        }
        let mut end = self
            .sim
            .task(
                Resource::GpuCompute,
                SimDuration::ZERO,
                TaskMeta::of(OpClass::Offload).layer(l).step(step_idx),
            )
            .after_all(s.compute_tasks.iter().copied())
            .after_all(s.attn_tasks.iter().copied())
            // Transfers with no dependent compute (inactive prefetched experts)
            // must still land before their bytes can be released here.
            .after_all(s.transfers.iter().flatten().copied())
            .after_all(gate_w)
            .after_all(layer_blob)
            .free_on_end(Tier::Vram, freed);
        if stage_dep.is_some() {
            // The staged DRAM window slot is released once the layer is done.
            end = end.free_on_end(Tier::Dram, expert_layer_bytes(spec, l));
        }
        let end = end.submit();
        self.layer_ends.push(end);

        // Slide the staging window.
        let w = self.placement.staging_window;
        if w > 0 && l + w < spec.n_layers && self.placement.is_expert_on_disk(l + w) {
            self.submit_stage(step, l + w, Some(end));
        }

        // Prefetch the next layer slot's attention weights. After the last
        // layer this wraps into the next step (or the next group's
        // prefill): the transfer is reusable since layer 0 is next either
        // way.
        let next_layer = if l + 1 < spec.n_layers { l + 1 } else { 0 };
        self.pending_attn_w = Some(self.submit_attn_weights(next_layer, step));

        // Online correlation-table update with this layer's actual routing.
        if let (Some((m, view)), Some(table)) = (moe, self.table.as_deref_mut()) {
            table.record_step(view, step, m, s0..s1);
        }

        self.carry = Some(end);
        std::mem::swap(&mut self.prev_attn_tasks, &mut self.scratch.attn_tasks);
    }

    /// Predicts the hot experts of (`step`, MoE layer `m`) into
    /// `scratch.hot`.
    // analyze: no_alloc
    fn predict_hot(&mut self, view: TraceView<'_>, step: StepKind, m: u32, s0: u32, s1: u32) {
        let (hot, k) = (&mut self.scratch.hot, self.k_prefetch);
        match self.table.as_deref() {
            Some(table) => table.predict_step(view, step, m, s0..s1, k, hot),
            // Without a warm-up model there is nothing to predict from.
            None => {
                hot.experts.clear();
                hot.experts.extend(0..k.min(self.spec.n_experts) as u16);
            }
        }
    }

    /// Expert execution order into `scratch.order`: in reorder mode the
    /// submission order is hot-first but actual start times follow
    /// readiness.
    // analyze: no_alloc
    fn order_experts(&mut self) {
        let s = &mut self.scratch;
        let (hot, counts, first_batch) = (&s.hot.experts, &s.counts, &s.first_batch);
        // Each expert's sort key, packed above its id in the low 16 bits.
        let key = |e: u16| -> u64 {
            let rank = if self.cfg.reorder_experts {
                // Hot (prefetched) experts first, by token count
                // descending; then the rest (their true order emerges from
                // transfer completion via readiness).
                let cold = !hot.contains(&e) as u64;
                cold << 32 | (u32::MAX - counts[e as usize]) as u64
            } else if self.cfg.hot_expert_prefetch {
                // Gate-discovery order: by first requesting batch, then
                // id — the strawman's stall-prone order (§3.2 problem (2)).
                first_batch[e as usize] as u64
            } else {
                0
            };
            rank << 16 | e as u64
        };
        s.order.clear();
        s.order.extend(s.activated.iter().map(|&e| key(e)));
        s.order.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use klotski_model::hardware::HardwareSpec;

    fn scenario(bs: u32, n: u32) -> Scenario {
        Scenario::generate(
            ModelSpec::mixtral_8x7b(),
            HardwareSpec::env1_rtx3090(),
            Workload::new(bs, n, 128, 4),
            42,
        )
    }

    fn run(cfg: KlotskiConfig, sc: &Scenario) -> InferenceReport {
        KlotskiEngine::new(cfg).run(sc).expect("engine run")
    }

    #[test]
    fn full_engine_completes_and_reports() {
        let sc = scenario(8, 4);
        let r = run(KlotskiConfig::full(), &sc);
        assert!(r.succeeded(), "{:?}", r.oom);
        assert!(r.throughput_tps() > 0.0);
        assert_eq!(r.generated_tokens, 8 * 4 * 4);
        assert!(r.peak_vram > 0);
        assert!(r.peak_vram < 24_000_000_000, "fits the 3090");
        assert!(r.prefill_time > SimDuration::ZERO);
        assert!(r.decode_time > SimDuration::ZERO);
    }

    #[test]
    fn ablation_order_matches_table3() {
        // Paper Table 3: each added technique increases throughput. The
        // ordering needs the planner's regime — a batch group large enough
        // that inequality (5) is satisfiable — so this runs at bs 16 × n 10
        // (the paper's own Table 3 scale).
        let sc = scenario(16, 10);
        let simple = run(KlotskiConfig::ablation_simple_pipeline(), &sc);
        let multi = run(KlotskiConfig::ablation_multi_batch(), &sc);
        let hot = run(KlotskiConfig::ablation_hot_prefetch(), &sc);
        let full = run(KlotskiConfig::full(), &sc);
        assert!(
            multi.throughput_tps() > simple.throughput_tps() * 1.5,
            "multi-batch {} ≤ simple {}",
            multi.throughput_tps(),
            simple.throughput_tps()
        );
        // Strict hot > multi ordering is asserted at full paper scale in
        // tests/ablation.rs; this fast scenario (short prompt/generation)
        // is prefill-dominated, so allow a tie within noise here.
        assert!(
            hot.throughput_tps() > multi.throughput_tps() * 0.97,
            "hot-prefetch {} ≪ multi {}",
            hot.throughput_tps(),
            multi.throughput_tps()
        );
        assert!(
            full.throughput_tps() >= hot.throughput_tps() * 0.98,
            "reorder {} < hot {}",
            full.throughput_tps(),
            hot.throughput_tps()
        );
    }

    #[test]
    fn reordering_reduces_bubbles() {
        let sc = scenario(8, 6);
        let fixed = run(KlotskiConfig::ablation_hot_prefetch(), &sc);
        let reordered = run(KlotskiConfig::full(), &sc);
        assert!(
            reordered.gpu_bubble <= fixed.gpu_bubble,
            "reorder bubbles {} > fixed {}",
            reordered.gpu_bubble,
            fixed.gpu_bubble
        );
    }

    #[test]
    fn quantization_speeds_up_io_bound_runs() {
        let sc = scenario(4, 4);
        let full = run(KlotskiConfig::full(), &sc);
        let quant = run(KlotskiConfig::quantized(), &sc);
        assert!(
            quant.total_time < full.total_time,
            "quantized {} ≥ full {}",
            quant.total_time,
            full.total_time
        );
    }

    #[test]
    fn names_reflect_configuration() {
        assert_eq!(KlotskiEngine::new(KlotskiConfig::full()).name(), "Klotski");
        assert_eq!(
            KlotskiEngine::new(KlotskiConfig::quantized()).name(),
            "Klotski (q)"
        );
        assert_eq!(
            KlotskiEngine::new(KlotskiConfig::ablation_simple_pipeline()).name(),
            "Simple pipeline"
        );
    }

    #[test]
    fn memory_is_conserved_across_the_run() {
        let sc = scenario(4, 3);
        let engine = KlotskiEngine::new(KlotskiConfig::full());
        let r = engine.run(&sc).unwrap();
        assert!(r.succeeded());
        // Peak DRAM covers weights + all KV written back.
        assert!(r.peak_dram > 0);
    }

    #[test]
    fn dense_models_run_without_traces() {
        let sc = Scenario::generate(
            ModelSpec::opt_1_3b(),
            HardwareSpec::env1_rtx3090(),
            Workload::new(4, 4, 128, 4),
            1,
        );
        let r = run(KlotskiConfig::full(), &sc);
        assert!(r.succeeded(), "{:?}", r.oom);
        assert!(r.throughput_tps() > 0.0);
    }

    #[test]
    fn infeasible_workloads_report_oom_not_panic() {
        // A batch group whose KV alone exceeds DRAM.
        let sc = Scenario::generate(
            ModelSpec::mixtral_8x22b(),
            HardwareSpec::env1_rtx3090(),
            Workload::new(512, 64, 512, 4),
            1,
        );
        let r = run(KlotskiConfig::full(), &sc);
        assert!(!r.succeeded());
        assert_eq!(r.throughput_tps(), 0.0);
    }

    #[test]
    fn timeline_recording_is_optional_and_works() {
        let sc = scenario(4, 2);
        let mut cfg = KlotskiConfig::full();
        cfg.record_timeline = true;
        let r = run(cfg, &sc);
        let metrics = r.metrics.expect("timeline requested");
        assert!(!metrics.timeline().is_empty());
        let off = run(KlotskiConfig::full(), &sc);
        assert!(off.metrics.is_none());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use klotski_model::hardware::HardwareSpec;
    use proptest::prelude::*;

    fn config_for(selector: u8) -> KlotskiConfig {
        match selector % 5 {
            0 => KlotskiConfig::ablation_simple_pipeline(),
            1 => KlotskiConfig::ablation_multi_batch(),
            2 => KlotskiConfig::ablation_hot_prefetch(),
            3 => KlotskiConfig::quantized(),
            _ => KlotskiConfig::full(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        /// Schedule legality across random workload shapes and engine
        /// configurations: the submitted task graph must drain without
        /// deadlock or OOM, account every generated token, and respect
        /// the machine's memory limits.
        #[test]
        fn random_scenarios_complete_consistently(
            bs in 1u32..12,
            n in 1u32..6,
            prompt in 16u32..128,
            gen in 2u32..6,
            seed in 0u64..50,
            selector in 0u8..5,
        ) {
            let wl = Workload::new(bs, n, prompt, gen);
            let sc = Scenario::generate(
                ModelSpec::mixtral_8x7b(),
                HardwareSpec::env1_rtx3090(),
                wl,
                seed,
            );
            let r = KlotskiEngine::new(config_for(selector))
                .run(&sc)
                .expect("no internal scheduling errors");
            prop_assert!(r.succeeded(), "unexpected OOM: {:?}", r.oom);
            prop_assert_eq!(r.generated_tokens, wl.total_generated());
            prop_assert!(r.peak_vram <= sc.hw.vram_bytes);
            prop_assert!(r.peak_dram <= sc.hw.dram_bytes);
            prop_assert!(r.gpu_busy <= r.total_time);
            prop_assert!(r.prefill_time <= r.total_time);
            prop_assert!(r.throughput_tps() > 0.0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        /// Determinism: the same scenario and configuration always produce
        /// the identical report.
        #[test]
        fn runs_are_deterministic(seed in 0u64..20, selector in 0u8..5) {
            let wl = Workload::new(4, 3, 64, 3);
            let sc = Scenario::generate(
                ModelSpec::mixtral_8x7b(),
                HardwareSpec::env1_rtx3090(),
                wl,
                seed,
            );
            let cfg = config_for(selector);
            let a = KlotskiEngine::new(cfg).run(&sc).unwrap();
            let b = KlotskiEngine::new(cfg).run(&sc).unwrap();
            prop_assert_eq!(a.total_time, b.total_time);
            prop_assert_eq!(a.gpu_busy, b.gpu_busy);
            prop_assert_eq!(a.peak_vram, b.peak_vram);
        }
    }
}
