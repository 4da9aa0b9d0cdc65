//! Hardware environment specifications.
//!
//! A [`HardwareSpec`] captures the *effective* rates of a machine — not
//! datasheet peaks — because the paper's engine runs on an eager PyTorch /
//! Hugging Face stack whose measured per-op times are far from peak (its own
//! anchors: ≈2.6 ms attention at batch 16 and ≈21 ms per 352 MB expert
//! transfer on the RTX 3090 environment). The presets encode Table 2 of the
//! paper plus calibration constants derived from those anchors; see
//! EXPERIMENTS.md for the derivation.

use klotski_sim::sim::TierCapacities;
use klotski_sim::time::SimDuration;

const GB: u64 = 1_000_000_000;

/// Effective machine description used by the cost model.
#[derive(Debug, Clone, PartialEq)]
pub struct HardwareSpec {
    /// Human-readable name.
    pub name: String,
    /// Effective GPU matmul throughput (FLOP/s) under the eager framework.
    pub gpu_flops: f64,
    /// Effective GPU memory bandwidth (B/s) for memory-bound kernels.
    pub gpu_mem_bw: f64,
    /// Per-kernel launch + framework dispatch overhead on the GPU path.
    pub kernel_overhead: SimDuration,
    /// Effective CPU compute throughput (FLOP/s) for expert FFNs
    /// (Fiddler-style execution; multi-threaded GEMM on the host).
    pub cpu_flops: f64,
    /// Effective host memory bandwidth (B/s); decode-time expert GEMV on the
    /// CPU is bound by streaming the expert weights from DRAM, not by FLOPs.
    pub cpu_mem_bw: f64,
    /// Effective host→device bandwidth with pinned memory (B/s).
    pub h2d_bw: f64,
    /// Effective device→host bandwidth with pinned memory (B/s).
    pub d2h_bw: f64,
    /// Bandwidth multiplier for unpinned (pageable) transfers.
    pub unpinned_factor: f64,
    /// Fixed per-transfer latency (DMA setup, driver call).
    pub transfer_latency: SimDuration,
    /// Disk → DRAM bandwidth (B/s).
    pub disk_bw: f64,
    /// GPU memory capacity (bytes).
    pub vram_bytes: u64,
    /// Host memory capacity usable for the model (bytes).
    pub dram_bytes: u64,
    /// Disk capacity (bytes).
    pub disk_bytes: u64,
}

impl HardwareSpec {
    /// Environment 1 of the paper: NVIDIA RTX 3090 (24 GB), Xeon Gold 5318Y,
    /// 256 GB DRAM, 2 TB SSD at ~1 GB/s, PCIe 4.0 ×16.
    ///
    /// Calibration: 352 MB expert ⇒ 21 ms ⇒ 16.8 GB/s effective H2D;
    /// attention at batch 16 ⇒ ≈2.6 ms with ~30 kernels ⇒ ≈75 µs/kernel;
    /// single-expert-token compute ⇒ <1 ms (memory-bound + 5 kernels).
    pub fn env1_rtx3090() -> Self {
        HardwareSpec {
            name: "Env1 (RTX 3090, PCIe 4.0 x16)".to_owned(),
            gpu_flops: 13.0e12,
            gpu_mem_bw: 750.0e9,
            kernel_overhead: SimDuration::from_micros(75),
            cpu_flops: 0.9e12,
            cpu_mem_bw: 45.0e9,
            h2d_bw: 16.8e9,
            d2h_bw: 15.0e9,
            unpinned_factor: 0.30,
            transfer_latency: SimDuration::from_micros(30),
            disk_bw: 1.0e9,
            vram_bytes: 24 * GB,
            dram_bytes: 256 * GB,
            disk_bytes: 2000 * GB,
        }
    }

    /// Environment 2 of the paper: NVIDIA H800 (80 GB), Xeon Platinum 8470,
    /// 800 GB DRAM, PCIe 5.0 ×16 (disk speed irrelevant: DRAM fits all).
    pub fn env2_h800() -> Self {
        HardwareSpec {
            name: "Env2 (H800, PCIe 5.0 x16)".to_owned(),
            gpu_flops: 150.0e12,
            gpu_mem_bw: 2.6e12,
            kernel_overhead: SimDuration::from_micros(50),
            cpu_flops: 2.0e12,
            cpu_mem_bw: 120.0e9,
            h2d_bw: 42.0e9,
            d2h_bw: 38.0e9,
            unpinned_factor: 0.30,
            transfer_latency: SimDuration::from_micros(20),
            disk_bw: 3.0e9,
            vram_bytes: 80 * GB,
            dram_bytes: 800 * GB,
            disk_bytes: 1000 * GB,
        }
    }

    /// The DRAM bytes the model and its KV cache may fill: 92% of
    /// `dram_bytes`, the rest held back as headroom for pinned buffers and
    /// disk staging.
    pub fn dram_budget(&self) -> u64 {
        (self.dram_bytes as f64 * 0.92) as u64
    }

    /// Tier capacities for the simulator's memory pools.
    pub fn tier_capacities(&self) -> TierCapacities {
        TierCapacities {
            vram: self.vram_bytes,
            dram: self.dram_bytes,
            disk: self.disk_bytes,
        }
    }

    /// Scales link bandwidths by `factor` (used in sensitivity studies).
    pub fn with_link_scale(mut self, factor: f64) -> Self {
        self.h2d_bw *= factor;
        self.d2h_bw *= factor;
        self.name = format!("{} (links ×{factor})", self.name);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env1_matches_table2() {
        let hw = HardwareSpec::env1_rtx3090();
        assert_eq!(hw.vram_bytes, 24 * GB);
        assert_eq!(hw.dram_bytes, 256 * GB);
        assert_eq!(hw.disk_bytes, 2000 * GB);
        assert!((hw.disk_bw - 1.0e9).abs() < 1.0);
    }

    #[test]
    fn env2_matches_table2() {
        let hw = HardwareSpec::env2_h800();
        assert_eq!(hw.vram_bytes, 80 * GB);
        assert_eq!(hw.dram_bytes, 800 * GB);
        assert!(hw.h2d_bw > HardwareSpec::env1_rtx3090().h2d_bw);
        assert!(hw.gpu_flops > HardwareSpec::env1_rtx3090().gpu_flops);
    }

    #[test]
    fn expert_transfer_anchor_holds() {
        // 352 MB over the env1 link ≈ 21 ms (paper §1).
        let hw = HardwareSpec::env1_rtx3090();
        let ms = 352.3e6 / hw.h2d_bw * 1e3;
        assert!((ms - 21.0).abs() < 1.0, "expert transfer = {ms} ms");
    }

    #[test]
    fn tier_capacities_mirror_spec() {
        let hw = HardwareSpec::env1_rtx3090();
        let caps = hw.tier_capacities();
        assert_eq!(caps.vram, hw.vram_bytes);
        assert_eq!(caps.dram, hw.dram_bytes);
        assert_eq!(caps.disk, hw.disk_bytes);
    }

    #[test]
    fn link_scaling_applies_to_both_directions() {
        let hw = HardwareSpec::env1_rtx3090().with_link_scale(2.0);
        assert!((hw.h2d_bw - 33.6e9).abs() < 1.0);
        assert!((hw.d2h_bw - 30.0e9).abs() < 1.0);
    }
}
