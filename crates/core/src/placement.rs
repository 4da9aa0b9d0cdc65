//! Adaptive tensor placement (§6.1 of the paper).
//!
//! Klotski aggregates VRAM, DRAM and disk into one memory space and decides
//! where every tensor class lives:
//!
//! * VRAM holds the working set (current + prefetched tensors, KV chunks,
//!   activations) and — when there is spare capacity — the experts of the
//!   first few layers stay **resident**, removing their I/O entirely
//!   (the "Further Use Memory" line of Fig. 12).
//! * DRAM is prioritized for experts (they are the on-demand-transferred
//!   class, and DRAM's bandwidth is what serves those urgent transfers);
//!   attention/gate weights and the KV cache also live there.
//! * When DRAM cannot hold all experts, the tail layers spill to disk and a
//!   **staging window** of `L` layers is continuously prefetched
//!   disk → DRAM ahead of the compute front, using otherwise-idle
//!   CPU–disk bandwidth.

use std::error::Error;
use std::fmt;

use klotski_model::hardware::HardwareSpec;
use klotski_model::spec::ModelSpec;
use klotski_model::workload::Workload;

use crate::compress::Compression;

/// Where the experts of each layer live, plus derived budgets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementPlan {
    /// Experts of layers `[0, resident_expert_layers)` stay in VRAM.
    pub resident_expert_layers: u32,
    /// Experts of layers `[resident, resident + dram_expert_layers)` live in DRAM.
    pub dram_expert_layers: u32,
    /// Experts of the remaining layers live on disk.
    pub disk_expert_layers: u32,
    /// Disk→DRAM staging window in layers (0 when nothing is on disk).
    pub staging_window: u32,
    /// Whether DRAM-side buffers are pinned (fast H2D path).
    pub pinned: bool,
    /// VRAM bytes reserved for the transient working set.
    pub vram_workspace: u64,
    /// VRAM bytes spent on resident experts.
    pub vram_resident: u64,
    /// DRAM bytes used by weights.
    pub dram_weights: u64,
    /// DRAM bytes budgeted for the KV cache.
    pub dram_kv: u64,
}

impl PlacementPlan {
    /// Whether `layer`'s experts are VRAM-resident.
    pub fn is_expert_resident(&self, layer: u32) -> bool {
        layer < self.resident_expert_layers
    }

    /// Whether `layer`'s experts are staged from disk.
    pub fn is_expert_on_disk(&self, layer: u32) -> bool {
        layer >= self.resident_expert_layers + self.dram_expert_layers
    }
}

/// Error: the model cannot be placed in the given memory hierarchy at all.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementError {
    /// What failed to fit where.
    pub reason: String,
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "placement infeasible: {}", self.reason)
    }
}

impl Error for PlacementError {}

/// Bytes of VRAM the transient working set needs at group size `n`:
/// double-buffered attention weights, the gate, up to all experts of one
/// layer in flight, two KV chunks, activations, embeddings.
fn vram_workspace_bytes(spec: &ModelSpec, wl: &Workload, n: u32, compression: &Compression) -> u64 {
    let ctx = wl.max_context();
    let kv_chunk = (wl.batch_size as u64 * ctx * spec.kv_bytes_per_token_layer()) as f64
        * compression.kv_factor(ctx);
    let experts_in_flight = spec.n_experts.max(1) as u64 * spec.expert_bytes();
    let activations = 8 * spec.hidden_bytes(n as u64 * wl.batch_size as u64);
    2 * spec.attn_bytes()
        + spec.gate_bytes()
        + experts_in_flight
        + (4.0 * kv_chunk) as u64
        + activations
        + spec.embed_bytes()
}

/// Total KV bytes of the whole workload at its maximum context.
fn kv_total_bytes(spec: &ModelSpec, wl: &Workload, compression: &Compression) -> u64 {
    let ctx = wl.max_context();
    (spec.kv_bytes_total(wl.total_seqs(), ctx) as f64 * compression.kv_factor(ctx)) as u64
}

/// Computes the placement for one run.
///
/// `use_spare_vram = false` reproduces the "Complete Offloading" line of
/// Fig. 12 (no resident experts); `true` reproduces "Further Use Memory".
///
/// # Errors
///
/// Returns [`PlacementError`] when the workload cannot fit: the working set
/// alone exceeds VRAM, or DRAM cannot hold the KV cache plus the non-expert
/// weights even with every expert on disk.
pub fn plan_placement(
    spec: &ModelSpec,
    hw: &HardwareSpec,
    wl: &Workload,
    n: u32,
    compression: &Compression,
    use_spare_vram: bool,
) -> Result<PlacementPlan, PlacementError> {
    let workspace = vram_workspace_bytes(spec, wl, n, compression);
    if workspace > hw.vram_bytes {
        return Err(PlacementError {
            reason: format!(
                "working set {:.1} GB exceeds VRAM {:.1} GB",
                workspace as f64 / 1e9,
                hw.vram_bytes as f64 / 1e9
            ),
        });
    }

    // Spare VRAM hosts resident experts, greedily from layer 0.
    let layer_expert_bytes = spec.n_experts as u64 * spec.expert_bytes();
    let mut resident = 0u32;
    if use_spare_vram && spec.is_moe() && layer_expert_bytes > 0 {
        let mut spare = hw.vram_bytes - workspace;
        while resident < spec.n_layers && spare >= layer_expert_bytes {
            spare -= layer_expert_bytes;
            resident += 1;
        }
    }
    let vram_resident = resident as u64 * layer_expert_bytes;

    // DRAM: non-expert weights + KV always live here; experts fill the rest.
    let kv = kv_total_bytes(spec, wl, compression);
    let non_expert: u64 = (0..spec.n_layers)
        .map(|l| spec.layer_bytes(l) - spec.expert_layer_bytes(l))
        .sum::<u64>()
        + spec.embed_bytes();
    let dram_budget = hw.dram_budget();
    let fixed = kv + non_expert;
    if fixed > dram_budget {
        return Err(PlacementError {
            reason: format!(
                "KV cache {:.1} GB + non-expert weights {:.1} GB exceed DRAM {:.1} GB",
                kv as f64 / 1e9,
                non_expert as f64 / 1e9,
                dram_budget as f64 / 1e9
            ),
        });
    }
    let offloaded_layers = spec.n_layers - resident;
    let mut dram_layers = 0u32;
    let mut dram_used = fixed;
    for l in resident..spec.n_layers {
        let bytes = spec.expert_layer_bytes(l);
        if dram_used + bytes > dram_budget {
            break;
        }
        dram_used += bytes;
        dram_layers += 1;
    }
    let mut disk_layers = offloaded_layers - dram_layers;
    // Staging window: enough layers in flight to cover the disk/PCIe rate
    // gap. When the disk is engaged, DRAM must keep headroom for the
    // staged layers, so the resident-in-DRAM set shrinks by the window.
    let staging_window = if disk_layers == 0 {
        0
    } else {
        let ratio = (hw.h2d_bw / hw.disk_bw).ceil() as u32;
        let window = ratio.clamp(2, 8).min(offloaded_layers);
        let reserve = window.min(dram_layers);
        dram_layers -= reserve;
        disk_layers += reserve;
        dram_used -= (0..reserve).fold(0, |acc, i| {
            acc + spec.expert_layer_bytes(resident + dram_layers + i)
        });
        window
    };

    Ok(PlacementPlan {
        resident_expert_layers: resident,
        dram_expert_layers: dram_layers,
        disk_expert_layers: disk_layers,
        staging_window,
        pinned: true,
        vram_workspace: workspace,
        vram_resident,
        dram_weights: dram_used - kv,
        dram_kv: kv,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use klotski_model::hardware::HardwareSpec;

    fn wl(bs: u32, n: u32) -> Workload {
        Workload::paper_default(bs).with_batches(n)
    }

    #[test]
    fn mixtral_8x7b_env1_fits_dram_no_disk() {
        // 93 GB of weights + KV well within 256 GB DRAM.
        let spec = ModelSpec::mixtral_8x7b();
        let hw = HardwareSpec::env1_rtx3090();
        let p = plan_placement(&spec, &hw, &wl(16, 15), 15, &Compression::none(), false).unwrap();
        assert_eq!(p.disk_expert_layers, 0);
        assert_eq!(p.staging_window, 0);
        assert_eq!(p.resident_expert_layers, 0);
        assert_eq!(
            p.dram_expert_layers + p.resident_expert_layers + p.disk_expert_layers,
            32
        );
    }

    #[test]
    fn mixtral_8x22b_env1_spills_to_disk() {
        // 282 GB of weights cannot fit 256 GB DRAM: the paper's Env-1
        // 8×22B runs engage the disk and its 1 GB/s read path.
        let spec = ModelSpec::mixtral_8x22b();
        let hw = HardwareSpec::env1_rtx3090();
        let p = plan_placement(&spec, &hw, &wl(16, 10), 10, &Compression::none(), false).unwrap();
        assert!(p.disk_expert_layers > 0, "{p:?}");
        assert!(p.staging_window >= 2);
    }

    #[test]
    fn spare_vram_hosts_resident_experts_on_h800() {
        // 80 GB H800 running 8×7B (Env 2 is "not resource-constrained" for
        // it, per the paper) leaves room for resident expert layers.
        let spec = ModelSpec::mixtral_8x7b();
        let hw = HardwareSpec::env2_h800();
        let with = plan_placement(&spec, &hw, &wl(16, 8), 8, &Compression::none(), true).unwrap();
        let without =
            plan_placement(&spec, &hw, &wl(16, 8), 8, &Compression::none(), false).unwrap();
        assert!(with.resident_expert_layers > 0);
        assert_eq!(without.resident_expert_layers, 0);
        assert!(with.vram_resident > 0);
        assert!(with.is_expert_resident(0));
        assert!(!with.is_expert_resident(with.resident_expert_layers));
    }

    #[test]
    fn quantization_moves_layers_off_disk() {
        let spec = ModelSpec::mixtral_8x22b();
        let hw = HardwareSpec::env1_rtx3090();
        let full = plan_placement(&spec, &hw, &wl(16, 10), 10, &Compression::none(), false)
            .unwrap()
            .disk_expert_layers;
        // NOTE: quantization shrinks *transfer* bytes; resident DRAM copies
        // in this reproduction stay full-precision (the paper dequantizes
        // before compute), so placement is unchanged. This test documents
        // that deliberate choice.
        let quant = plan_placement(
            &spec,
            &hw,
            &wl(16, 10),
            10,
            &Compression::quantized(),
            false,
        )
        .unwrap()
        .disk_expert_layers;
        assert_eq!(full, quant);
    }

    #[test]
    fn huge_kv_is_rejected() {
        // A monstrous batch group overflows DRAM with KV cache.
        let spec = ModelSpec::mixtral_8x22b();
        let hw = HardwareSpec::env1_rtx3090();
        let bad = Workload::new(512, 64, 512, 32);
        let err = plan_placement(&spec, &hw, &bad, 64, &Compression::none(), false).unwrap_err();
        assert!(err.to_string().contains("KV cache"));
    }

    #[test]
    fn sparse_attention_shrinks_kv_budget() {
        let spec = ModelSpec::mixtral_8x7b();
        let hw = HardwareSpec::env1_rtx3090();
        let dense = plan_placement(&spec, &hw, &wl(64, 15), 15, &Compression::none(), false)
            .unwrap()
            .dram_kv;
        let sparse_cfg = Compression {
            quant: None,
            sparse_attention: Some(crate::compress::SparseAttention {
                sinks: 4,
                window: 132,
            }),
        };
        let sparse = plan_placement(&spec, &hw, &wl(64, 15), 15, &sparse_cfg, false)
            .unwrap()
            .dram_kv;
        assert!(sparse < dense / 2, "dense {dense} sparse {sparse}");
    }

    #[test]
    fn workspace_grows_with_group_size() {
        let spec = ModelSpec::mixtral_8x7b();
        let small = vram_workspace_bytes(&spec, &wl(16, 3), 3, &Compression::none());
        let large = vram_workspace_bytes(&spec, &wl(16, 15), 15, &Compression::none());
        assert!(large > small);
    }
}
