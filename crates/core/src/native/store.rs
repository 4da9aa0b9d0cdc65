//! The DRAM-tier expert store.
//!
//! Experts are the offloaded tensor class (they dominate MoE parameter
//! counts); attention, gate and norm weights stay resident. A dense store
//! borrows the model's own experts — the model's weights already are the
//! DRAM tier, so building the store copies nothing — and fetching one into
//! a VRAM slot is a copy. A quantized store holds its own packed experts:
//! fetching then either performs the dequantization the paper does
//! "before computation" (§7) on the I/O thread
//! ([`ExpertStore::fetch_into`]), or hands over the packed bytes themselves
//! ([`ExpertStore::fetch_packed_into`]) for the fused quantized-GEMM path,
//! where compute runs straight off the codes and no full-precision slab
//! ever exists in the slot buffer.

use klotski_moe::model::MoeModel;
use klotski_moe::weights::{ExpertWeights, QuantizedExpertWeights};
use klotski_tensor::quant::QuantConfig;

/// One expert as stored in the DRAM tier.
#[derive(Debug, Clone)]
pub enum StoredExpert<'m> {
    /// Full precision, borrowed from the model (fetch is a copy).
    Full(&'m ExpertWeights),
    /// Group-quantized (fetch dequantizes, or copies the packed bytes).
    /// Boxed, so a borrowed variant stays pointer-sized.
    Quantized(Box<QuantizedExpertWeights>),
}

/// The expert weights of a whole model, held in the slow tier. A dense
/// store borrows them from the model it was built from.
#[derive(Debug, Clone)]
pub struct ExpertStore<'m> {
    experts: Vec<Vec<StoredExpert<'m>>>,
}

impl<'m> ExpertStore<'m> {
    /// Builds a store from `model`'s weights: borrowed as they are, or
    /// quantized into packed copies.
    pub fn from_model(model: &'m MoeModel, quant: Option<QuantConfig>) -> Self {
        let experts = model
            .weights()
            .layers
            .iter()
            .map(|layer| {
                layer
                    .experts
                    .iter()
                    .map(|e| match quant {
                        None => StoredExpert::Full(e),
                        Some(cfg) => StoredExpert::Quantized(Box::new(
                            QuantizedExpertWeights::quantize(e, cfg),
                        )),
                    })
                    .collect()
            })
            .collect();
        ExpertStore { experts }
    }

    /// Number of layers.
    pub fn n_layers(&self) -> usize {
        self.experts.len()
    }

    /// Experts per layer.
    pub fn n_experts(&self) -> usize {
        self.experts.first().map_or(0, Vec::len)
    }

    /// [`ExpertStore::fetch_into`] into a fresh buffer.
    #[cfg(test)]
    fn fetch(&self, layer: usize, expert: usize) -> ExpertWeights {
        let mut out = ExpertWeights::placeholder();
        self.fetch_into(layer, expert, &mut out);
        out
    }

    /// Fetches (`layer`, `expert`) into "VRAM", a reused slot buffer:
    /// copies full-precision weights or dequantizes — the I/O-thread work
    /// of one expert transfer. After the buffer has been used once, every
    /// subsequent fetch is a pure copy (or dequantization) into resident
    /// memory with **no allocation** — the VRAM-slot-buffer reuse a real
    /// offloading runtime gets from its staging pool.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn fetch_into(&self, layer: usize, expert: usize, out: &mut ExpertWeights) {
        match &self.experts[layer][expert] {
            StoredExpert::Full(w) => {
                out.w1.copy_from(&w.w1);
                out.w2.copy_from(&w.w2);
                out.w3.copy_from(&w.w3);
            }
            StoredExpert::Quantized(q) => q.dequantize_into(out),
        }
    }

    /// Whether the store holds experts in quantized form.
    pub fn is_quantized(&self) -> bool {
        matches!(
            self.experts.first().and_then(|l| l.first()),
            Some(StoredExpert::Quantized(_))
        )
    }

    /// Fetches the **packed** form of (`layer`, `expert`) into a reused
    /// slot: a copy of `bits/8 + metadata` bytes per parameter instead of
    /// a 4-byte-per-parameter dequantized slab — the transfer the fused
    /// quantized-GEMM compute path runs from.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range or the store is not
    /// quantized.
    pub fn fetch_packed_into(&self, layer: usize, expert: usize, out: &mut QuantizedExpertWeights) {
        match &self.experts[layer][expert] {
            StoredExpert::Full(_) => {
                panic!("fetch_packed_into on a full-precision store")
            }
            StoredExpert::Quantized(q) => out.copy_from(q),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use klotski_moe::config::MoeConfig;

    #[test]
    fn full_store_fetches_identical_weights() {
        let model = MoeModel::new(MoeConfig::tiny(7));
        let store = ExpertStore::from_model(&model, None);
        assert_eq!(store.n_layers(), 4);
        assert_eq!(store.n_experts(), 6);
        let fetched = store.fetch(2, 3);
        assert_eq!(&fetched, &model.weights().layers[2].experts[3]);
    }

    #[test]
    fn quantized_store_fetches_close_weights() {
        let model = MoeModel::new(MoeConfig::tiny(7));
        let store = ExpertStore::from_model(&model, Some(QuantConfig::paper_default()));
        assert!(store.is_quantized());
        let fetched = store.fetch(1, 2);
        let original = &model.weights().layers[1].experts[2];
        let err = fetched.w1.max_abs_diff(&original.w1);
        assert!(err > 0.0, "quantization must not be lossless here");
        assert!(err < 0.05, "4-bit error too large: {err}");
    }

    #[test]
    fn packed_fetch_matches_dequantized_fetch_bitwise() {
        use klotski_moe::weights::QuantizedExpertWeights;
        let model = MoeModel::new(MoeConfig::tiny(7));
        let qcfg = QuantConfig::paper_default();
        let store = ExpertStore::from_model(&model, Some(qcfg));
        let mut packed = QuantizedExpertWeights::placeholder(qcfg);
        store.fetch_packed_into(2, 1, &mut packed);
        let mut via_packed = ExpertWeights::placeholder();
        packed.dequantize_into(&mut via_packed);
        assert_eq!(via_packed, store.fetch(2, 1));
        assert!(!ExpertStore::from_model(&model, None).is_quantized());
    }

    #[test]
    #[should_panic(expected = "full-precision store")]
    fn packed_fetch_rejects_full_store() {
        use klotski_moe::weights::QuantizedExpertWeights;
        let model = MoeModel::new(MoeConfig::tiny(7));
        let store = ExpertStore::from_model(&model, None);
        let mut packed = QuantizedExpertWeights::placeholder(QuantConfig::paper_default());
        store.fetch_packed_into(0, 0, &mut packed);
    }
}
