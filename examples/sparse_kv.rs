//! Sparse KV-cache strategies on the native model: dense attention vs
//! StreamingLLM (sinks + window, §7 of the paper) vs the heavy-hitter
//! policy implemented as the paper's §9.8 future-work extension.
//!
//! ```sh
//! cargo run --release --example sparse_kv
//! ```

use klotski::moe::attention::{attend_one, AttnMask};
use klotski::moe::config::MoeConfig;
use klotski::moe::h2o::H2oConfig;
use klotski::moe::kv::KvCache;
use klotski::moe::model::MoeModel;

fn main() {
    let model = MoeModel::new(MoeConfig::small(7));
    let cfg = *model.config();
    let seq_len = 48;
    let budget = 12;
    let tokens: Vec<u32> = (0..seq_len)
        .map(|t| ((t * 17 + 3) % cfg.vocab) as u32)
        .collect();

    // Drive layer 0's attention with each policy over the same stream.
    let w = &model.weights().layers[0].attn;
    let mut dense_cache = KvCache::new(cfg.n_layers, cfg.d_model);
    let mut stream_cache = KvCache::new(cfg.n_layers, cfg.d_model);
    let mut h2o_cache = KvCache::new(cfg.n_layers, cfg.d_model);
    let h2o_mask = AttnMask::HeavyHitter(H2oConfig { budget, sinks: 2 });
    let stream_mask = AttnMask::Streaming {
        sinks: 2,
        window: budget - 2,
    };

    let mut stream_err_max = 0.0f32;
    let mut h2o_err_max = 0.0f32;
    for (pos, &tok) in tokens.iter().enumerate() {
        let x = model.embed(tok, pos);
        let normed = model.moe_norm(0, &x); // any fixed preprocessing works here
        let dense = attend_one(
            w,
            0,
            &normed,
            &mut dense_cache,
            cfg.n_heads,
            cfg.head_dim,
            AttnMask::Dense,
        );
        let stream = attend_one(
            w,
            0,
            &normed,
            &mut stream_cache,
            cfg.n_heads,
            cfg.head_dim,
            stream_mask,
        );
        let heavy = attend_one(
            w,
            0,
            &normed,
            &mut h2o_cache,
            cfg.n_heads,
            cfg.head_dim,
            h2o_mask,
        );
        let err = |a: &[f32], b: &[f32]| {
            a.iter()
                .zip(b)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0f32, f32::max)
        };
        stream_err_max = stream_err_max.max(err(&dense, &stream));
        h2o_err_max = h2o_err_max.max(err(&dense, &heavy));
    }

    println!("sequence length {seq_len}, KV budget {budget} (sinks 2)");
    println!(
        "kept positions under heavy-hitter policy: {:?}",
        h2o_cache.kept(0)
    );
    println!("max |Δ| vs dense attention:");
    println!("  StreamingLLM (recency window): {stream_err_max:.4}");
    println!("  heavy-hitter (H2O-style):      {h2o_err_max:.4}");
    println!();
    println!("both policies attend to {budget} of {seq_len} positions, but eviction is logical:");
    println!(
        "the cache still holds all {} KV entries of layer 0.",
        h2o_cache.len(0)
    );
    println!("The heavy-hitter set is chosen by accumulated attention mass rather");
    println!("than recency — the direction the paper names for eliminating the KV-load");
    println!("bubbles that appear at large n (§9.8).");
}
