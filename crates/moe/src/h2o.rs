//! Heavy-hitter ("H2O"-style) sparse KV cache — the paper's future work.
//!
//! §9.8 closes with: "We aim to address this in future work by developing a
//! generalized and efficient sparse KV cache strategy for Klotski". This
//! module implements the natural candidate the paper cites alongside
//! StreamingLLM: heavy-hitter selection [H2O, NeurIPS'23]. Instead of a
//! fixed sinks+window pattern, each layer keeps the positions whose
//! *accumulated attention mass* is largest, evicting the coldest position
//! whenever the per-layer budget is exceeded (attention sinks are always
//! kept).
//!
//! The policy is the third visibility rule of
//! [`AttnMask`](crate::attention::AttnMask), `HeavyHitter`, so both
//! attention shapes run it. Unlike the other two rules it is *stateful* —
//! scores accumulate across decoding steps — so each sequence's
//! [`KvCache`](crate::kv::KvCache) holds the policy's state: per layer, the
//! kept positions and their accumulated mass. The update is per sequence
//! and per layer: each step admits the new position, attends over the kept
//! set, sums every position's softmaxed score over the heads, and then
//! evicts. This module holds that admission and eviction rule.

/// Configuration of the heavy-hitter policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct H2oConfig {
    /// Maximum kept positions per layer (≥ `sinks + 1`).
    pub budget: usize,
    /// Always-kept initial positions.
    pub sinks: usize,
}

impl H2oConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the budget cannot hold the sinks plus the current token.
    pub fn validate(&self) {
        assert!(
            self.budget > self.sinks,
            "budget must exceed the sink count"
        );
    }
}

/// One layer's heavy-hitter state: the kept positions, ascending, and the
/// attention mass each has accumulated (parallel to `kept`).
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct HeavyHitters {
    kept: Vec<usize>,
    mass: Vec<f32>,
}

impl HeavyHitters {
    /// The kept positions, ascending.
    pub(crate) fn kept(&self) -> &[usize] {
        &self.kept
    }

    /// Admits the newest position `pos` with no mass yet. Both lists are
    /// sized once, at the first admission, to `budget + 1` entries — the
    /// most they ever hold — so later steps never allocate.
    pub(crate) fn admit(&mut self, pos: usize, cfg: H2oConfig) {
        if self.kept.capacity() == 0 {
            self.kept.reserve_exact(cfg.budget + 1);
            self.mass.reserve_exact(cfg.budget + 1);
        }
        self.kept.push(pos);
        self.mass.push(0.0);
    }

    /// Adds one step's mass (parallel to [`HeavyHitters::kept`]) and, over
    /// budget, evicts the lowest-mass position that is neither a sink nor
    /// the current one, ties going to the lower position.
    pub(crate) fn accumulate_and_evict(&mut self, step_mass: &[f32], cfg: H2oConfig) {
        for (acc, &s) in self.mass.iter_mut().zip(step_mass) {
            *acc += s;
        }
        if self.kept.len() <= cfg.budget {
            return;
        }
        let last = self.kept.len() - 1;
        let victim = self
            .kept
            .iter()
            .enumerate()
            .filter(|&(i, &pos)| pos >= cfg.sinks && i != last)
            .min_by(|a, b| self.mass[a.0].total_cmp(&self.mass[b.0]).then(a.1.cmp(b.1)))
            .map(|(i, _)| i)
            .expect("budget > sinks guarantees an evictable position");
        self.kept.remove(victim);
        self.mass.remove(victim);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attention::{attend_one, AttnMask};
    use crate::config::MoeConfig;
    use crate::kv::KvCache;
    use crate::model::MoeModel;
    use crate::weights::AttnWeights;

    fn setup() -> (MoeConfig, AttnWeights) {
        let cfg = MoeConfig::tiny(8);
        (cfg, AttnWeights::seeded(&cfg, 0))
    }

    fn token(t: usize, d: usize) -> Vec<f32> {
        (0..d)
            .map(|i| ((t * 13 + i * 7) as f32 * 0.1).sin())
            .collect()
    }

    #[test]
    fn matches_dense_within_budget() {
        let (cfg, w) = setup();
        let h2o_cfg = H2oConfig {
            budget: 16,
            sinks: 2,
        };
        let mut dense_cache = KvCache::new(cfg.n_layers, cfg.d_model);
        let mut h2o_cache = KvCache::new(cfg.n_layers, cfg.d_model);
        for t in 0..10 {
            let x = token(t, cfg.d_model);
            let a = attend_one(
                &w,
                0,
                &x,
                &mut dense_cache,
                cfg.n_heads,
                cfg.head_dim,
                AttnMask::Dense,
            );
            let b = attend_one(
                &w,
                0,
                &x,
                &mut h2o_cache,
                cfg.n_heads,
                cfg.head_dim,
                AttnMask::HeavyHitter(h2o_cfg),
            );
            assert_eq!(a, b, "token {t}: under budget, H2O must equal dense");
        }
    }

    #[test]
    fn budget_is_enforced_and_sinks_survive() {
        let (cfg, w) = setup();
        let h2o_cfg = H2oConfig {
            budget: 6,
            sinks: 2,
        };
        let mask = AttnMask::HeavyHitter(h2o_cfg);
        let mut cache = KvCache::new(cfg.n_layers, cfg.d_model);
        for t in 0..24 {
            let x = token(t, cfg.d_model);
            let _ = attend_one(&w, 0, &x, &mut cache, cfg.n_heads, cfg.head_dim, mask);
            assert!(cache.kept(0).len() <= h2o_cfg.budget, "token {t}");
        }
        let kept = cache.kept(0);
        assert!(
            kept.contains(&0) && kept.contains(&1),
            "sinks evicted: {kept:?}"
        );
        // The latest position always survives its own step.
        assert!(kept.contains(&23), "current token evicted: {kept:?}");
    }

    #[test]
    fn diverges_from_dense_beyond_budget() {
        let (cfg, w) = setup();
        let h2o_cfg = H2oConfig {
            budget: 5,
            sinks: 1,
        };
        let mut dense_cache = KvCache::new(cfg.n_layers, cfg.d_model);
        let mut h2o_cache = KvCache::new(cfg.n_layers, cfg.d_model);
        let mut diverged = false;
        for t in 0..16 {
            let x = token(t, cfg.d_model);
            let a = attend_one(
                &w,
                0,
                &x,
                &mut dense_cache,
                cfg.n_heads,
                cfg.head_dim,
                AttnMask::Dense,
            );
            let b = attend_one(
                &w,
                0,
                &x,
                &mut h2o_cache,
                cfg.n_heads,
                cfg.head_dim,
                AttnMask::HeavyHitter(h2o_cfg),
            );
            if a != b {
                diverged = true;
            }
        }
        assert!(diverged, "eviction must eventually change the output");
    }

    #[test]
    fn keeps_heavy_hitters_not_just_recency() {
        // Construct a stream where one early position keeps receiving
        // attention: H2O must retain it while StreamingLLM's window would
        // have dropped it. We approximate by checking that the kept set is
        // not simply the last (budget − sinks) positions.
        let (cfg, w) = setup();
        let h2o_cfg = H2oConfig {
            budget: 8,
            sinks: 1,
        };
        let mask = AttnMask::HeavyHitter(h2o_cfg);
        let mut cache = KvCache::new(cfg.n_layers, cfg.d_model);
        // Repeat the same token often so its (identical) early keys gather
        // mass.
        for t in 0..32 {
            let x = if t % 2 == 0 {
                token(0, cfg.d_model)
            } else {
                token(t, cfg.d_model)
            };
            let _ = attend_one(&w, 0, &x, &mut cache, cfg.n_heads, cfg.head_dim, mask);
        }
        let kept = cache.kept(0);
        let window_start = 32 - (h2o_cfg.budget - h2o_cfg.sinks);
        let pure_recency = kept.iter().all(|&p| p < h2o_cfg.sinks || p >= window_start);
        assert!(
            !pure_recency,
            "H2O degenerated to a recency window: {kept:?}"
        );
    }

    #[test]
    #[should_panic(expected = "budget must exceed")]
    fn degenerate_budget_rejected() {
        let model = MoeModel::new(MoeConfig::tiny(8));
        let _ = model.generate(
            &[vec![1]],
            1,
            AttnMask::HeavyHitter(H2oConfig {
                budget: 2,
                sinks: 2,
            }),
        );
    }
}
