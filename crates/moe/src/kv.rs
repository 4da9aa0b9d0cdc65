//! Per-sequence KV caches.
//!
//! A cache also holds the per-layer state of the heavy-hitter policy
//! ([`crate::h2o`]): which positions it keeps and the attention mass each
//! has accumulated. Eviction is logical — evicted positions stay in the
//! slabs and are never attended again — so the slabs' layout is the same
//! under every [`AttnMask`](crate::attention::AttnMask).

use crate::h2o::HeavyHitters;

/// The key/value cache of one sequence across all layers.
///
/// Entries are appended in position order; the attention kernel reads a
/// contiguous `[positions × d_model]` view per layer.
#[derive(Debug, Clone, PartialEq)]
pub struct KvCache {
    n_layers: usize,
    width: usize,
    keys: Vec<Vec<f32>>,
    values: Vec<Vec<f32>>,
    /// Heavy-hitter state per layer (empty unless attended under
    /// `AttnMask::HeavyHitter`).
    heavy: Vec<HeavyHitters>,
}

impl KvCache {
    /// An empty cache for `n_layers` layers of `width`-wide keys/values.
    pub fn new(n_layers: usize, width: usize) -> Self {
        KvCache {
            n_layers,
            width,
            keys: vec![Vec::new(); n_layers],
            values: vec![Vec::new(); n_layers],
            heavy: vec![HeavyHitters::default(); n_layers],
        }
    }

    /// An empty cache whose per-layer slabs can hold `positions` entries
    /// without reallocating — the form decode loops that know their
    /// `prompt_len + gen_len` upfront should use, so appends never move
    /// the slab mid-run.
    pub fn with_capacity(n_layers: usize, width: usize, positions: usize) -> Self {
        let mut cache = KvCache::new(n_layers, width);
        cache.reserve(positions);
        cache
    }

    /// Ensures every layer's key/value slab can hold `positions` entries
    /// in total without reallocating.
    pub fn reserve(&mut self, positions: usize) {
        let want = positions * self.width;
        for (k, v) in self.keys.iter_mut().zip(&mut self.values) {
            k.reserve(want.saturating_sub(k.len()));
            v.reserve(want.saturating_sub(v.len()));
        }
    }

    /// Smallest per-layer slab capacity, in positions (how many entries
    /// every layer is guaranteed to hold without reallocating).
    pub fn capacity(&self) -> usize {
        self.keys
            .iter()
            .zip(&self.values)
            .map(|(k, v)| k.capacity().min(v.capacity()) / self.width)
            .min()
            .unwrap_or(0)
    }

    /// Cached positions at `layer`.
    pub fn len(&self, layer: usize) -> usize {
        self.keys[layer].len() / self.width
    }

    /// Whether `layer` has no cached positions.
    pub fn is_empty(&self, layer: usize) -> bool {
        self.keys[layer].is_empty()
    }

    /// Appends one position's key and value at `layer`.
    ///
    /// # Panics
    ///
    /// Panics if `k`/`v` are not `width` long or `layer` is out of range.
    pub fn append(&mut self, layer: usize, k: &[f32], v: &[f32]) {
        assert!(layer < self.n_layers, "layer out of range");
        assert_eq!(k.len(), self.width, "key width mismatch");
        assert_eq!(v.len(), self.width, "value width mismatch");
        self.keys[layer].extend_from_slice(k);
        self.values[layer].extend_from_slice(v);
    }

    /// All cached keys at `layer` (`len × width`, row-major).
    pub fn keys(&self, layer: usize) -> &[f32] {
        &self.keys[layer]
    }

    /// All cached values at `layer`.
    pub fn values(&self, layer: usize) -> &[f32] {
        &self.values[layer]
    }

    /// The key of `pos` at `layer`.
    pub fn key_at(&self, layer: usize, pos: usize) -> &[f32] {
        &self.keys[layer][pos * self.width..(pos + 1) * self.width]
    }

    /// The value of `pos` at `layer`.
    pub fn value_at(&self, layer: usize, pos: usize) -> &[f32] {
        &self.values[layer][pos * self.width..(pos + 1) * self.width]
    }

    /// The positions the heavy-hitter policy keeps at `layer`, ascending
    /// (empty unless attended under `AttnMask::HeavyHitter`).
    pub fn kept(&self, layer: usize) -> &[usize] {
        self.heavy[layer].kept()
    }

    /// The heavy-hitter state of `layer`.
    pub(crate) fn heavy_hitters_mut(&mut self, layer: usize) -> &mut HeavyHitters {
        &mut self.heavy[layer]
    }

    /// Width of each key/value vector.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Total cached bytes (both keys and values, all layers).
    pub fn bytes(&self) -> usize {
        self.keys
            .iter()
            .zip(&self.values)
            .map(|(k, v)| (k.len() + v.len()) * std::mem::size_of::<f32>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_grows_per_layer_independently() {
        let mut c = KvCache::new(3, 4);
        c.append(0, &[1.0; 4], &[2.0; 4]);
        c.append(0, &[3.0; 4], &[4.0; 4]);
        c.append(2, &[5.0; 4], &[6.0; 4]);
        assert_eq!(c.len(0), 2);
        assert_eq!(c.len(1), 0);
        assert!(c.is_empty(1));
        assert_eq!(c.len(2), 1);
        assert_eq!(c.key_at(0, 1), &[3.0; 4]);
        assert_eq!(c.value_at(2, 0), &[6.0; 4]);
    }

    #[test]
    fn bytes_counts_everything() {
        let mut c = KvCache::new(2, 8);
        c.append(0, &[0.0; 8], &[0.0; 8]);
        c.append(1, &[0.0; 8], &[0.0; 8]);
        assert_eq!(c.bytes(), 2 * 2 * 8 * 4);
    }

    #[test]
    #[should_panic(expected = "key width mismatch")]
    fn wrong_width_rejected() {
        let mut c = KvCache::new(1, 4);
        c.append(0, &[0.0; 3], &[0.0; 3]);
    }

    #[test]
    fn with_capacity_appends_never_reallocate() {
        let mut c = KvCache::with_capacity(2, 4, 10);
        assert!(c.capacity() >= 10);
        let raw_caps: Vec<usize> = (0..2).map(|l| c.keys[l].capacity()).collect();
        for t in 0..10 {
            for layer in 0..2 {
                c.append(layer, &[t as f32; 4], &[t as f32; 4]);
            }
        }
        for (layer, &cap) in raw_caps.iter().enumerate() {
            assert_eq!(c.len(layer), 10);
            assert_eq!(
                c.keys[layer].capacity(),
                cap,
                "layer {layer} slab moved mid-decode"
            );
        }
    }

    #[test]
    fn reserve_tops_up_a_partially_filled_cache() {
        let mut c = KvCache::new(1, 4);
        c.append(0, &[1.0; 4], &[2.0; 4]);
        c.reserve(8);
        assert!(c.capacity() >= 8);
        assert_eq!(c.key_at(0, 0), &[1.0; 4], "reserve must not disturb data");
    }
}
