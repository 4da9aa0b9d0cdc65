//! SiLU, RMS normalization, softmax and top-k — the non-matmul kernels of
//! the native MoE block.

/// Numerically stable in-place softmax over one slice.
///
/// # Examples
///
/// ```
/// use klotski_tensor::ops::softmax_inplace;
///
/// let mut logits = vec![1.0, 2.0, 3.0];
/// softmax_inplace(&mut logits);
/// let sum: f32 = logits.iter().sum();
/// assert!((sum - 1.0).abs() < 1e-6);
/// assert!(logits[2] > logits[1] && logits[1] > logits[0]);
/// ```
pub fn softmax_inplace(xs: &mut [f32]) {
    if xs.is_empty() {
        return;
    }
    let max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for x in xs.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    if sum > 0.0 {
        for x in xs.iter_mut() {
            *x /= sum;
        }
    }
}

/// SiLU (swish) activation: `x · σ(x)`.
pub fn silu(x: f32) -> f32 {
    x / (1.0 + (-x).exp())
}

/// In-place RMS normalization with learned `weight`, as in Mixtral.
///
/// # Panics
///
/// Panics if `xs.len() != weight.len()`.
pub fn rmsnorm_inplace(xs: &mut [f32], weight: &[f32], eps: f32) {
    assert_eq!(xs.len(), weight.len(), "rmsnorm shape mismatch");
    let ms: f32 = xs.iter().map(|x| x * x).sum::<f32>() / xs.len() as f32;
    let inv = 1.0 / (ms + eps).sqrt();
    for (x, &w) in xs.iter_mut().zip(weight) {
        *x = *x * inv * w;
    }
}

/// Indices and values of the `k` largest elements, sorted descending
/// (ties broken by lower index, like `torch.topk`).
///
/// # Examples
///
/// ```
/// use klotski_tensor::ops::top_k;
///
/// let picks = top_k(&[0.1, 0.7, 0.3, 0.7], 2);
/// assert_eq!(picks, vec![(1, 0.7), (3, 0.7)]);
/// ```
pub fn top_k(xs: &[f32], k: usize) -> Vec<(usize, f32)> {
    let mut idx = Vec::new();
    let mut out = Vec::new();
    top_k_into(xs, k, &mut idx, &mut out);
    out
}

/// [`top_k`] into reused buffers — the allocation-free form for decode
/// hot loops. `idx` is sort scratch; `out` receives the picks. Selection
/// and ordering are identical to [`top_k`] (the comparator is a total
/// order, so the unstable sort is deterministic).
// analyze: no_alloc
pub fn top_k_into(xs: &[f32], k: usize, idx: &mut Vec<usize>, out: &mut Vec<(usize, f32)>) {
    idx.clear();
    idx.extend(0..xs.len());
    idx.sort_unstable_by(|&a, &b| xs[b].total_cmp(&xs[a]).then(a.cmp(&b)));
    out.clear();
    out.extend(idx.iter().take(k).map(|&i| (i, xs[i])));
}

/// Index of the largest element (first on ties); `None` when empty.
///
/// A single scan with `total_cmp` — no allocation, and bit-identical in
/// selection to `top_k(xs, 1)` (strictly-greater replacement keeps the
/// first index on ties).
// analyze: no_alloc
pub fn argmax(xs: &[f32]) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (i, x) in xs.iter().enumerate() {
        match best {
            Some(b) if xs[b].total_cmp(x).is_ge() => {}
            _ => best = Some(i),
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_is_invariant_to_shift() {
        let mut a = vec![1.0, 2.0, 3.0];
        let mut b = vec![101.0, 102.0, 103.0];
        softmax_inplace(&mut a);
        softmax_inplace(&mut b);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_handles_extremes() {
        let mut xs = vec![-1e30, 0.0, 1e30];
        softmax_inplace(&mut xs);
        assert!(xs.iter().all(|x| x.is_finite()));
        assert!((xs.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!((xs[2] - 1.0).abs() < 1e-6);
        softmax_inplace(&mut []);
    }

    #[test]
    fn silu_known_values() {
        assert_eq!(silu(0.0), 0.0);
        assert!((silu(1.0) - 0.731_058_6).abs() < 1e-6);
        assert!(silu(-10.0).abs() < 1e-3);
    }

    #[test]
    fn rmsnorm_unit_weight_gives_unit_rms() {
        let mut xs = vec![3.0, -4.0, 12.0, 0.0];
        let w = vec![1.0; 4];
        rmsnorm_inplace(&mut xs, &w, 1e-6);
        let rms: f32 = (xs.iter().map(|x| x * x).sum::<f32>() / 4.0).sqrt();
        assert!((rms - 1.0).abs() < 1e-3);
    }

    #[test]
    fn top_k_orders_and_truncates() {
        let picks = top_k(&[0.2, 0.9, 0.5], 5);
        assert_eq!(picks.len(), 3);
        assert_eq!(picks[0].0, 1);
        assert_eq!(picks[2].0, 0);
        assert_eq!(argmax(&[0.2, 0.9, 0.5]), Some(1));
        assert_eq!(argmax(&[]), None);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Softmax outputs a probability vector for any finite input.
        #[test]
        fn softmax_is_distribution(xs in proptest::collection::vec(-50.0f32..50.0, 1..64)) {
            let mut ys = xs.clone();
            softmax_inplace(&mut ys);
            prop_assert!(ys.iter().all(|&y| (0.0..=1.0).contains(&y)));
            prop_assert!((ys.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        }

        /// Softmax preserves the argmax.
        #[test]
        fn softmax_preserves_argmax(xs in proptest::collection::vec(-50.0f32..50.0, 2..64)) {
            let before = argmax(&xs);
            let mut ys = xs.clone();
            softmax_inplace(&mut ys);
            prop_assert_eq!(before, argmax(&ys));
        }

        /// top_k returns k strictly non-increasing values covering the max.
        #[test]
        fn top_k_is_sorted(xs in proptest::collection::vec(-50.0f32..50.0, 1..64), k in 1usize..8) {
            let picks = top_k(&xs, k);
            prop_assert_eq!(picks.len(), k.min(xs.len()));
            for w in picks.windows(2) {
                prop_assert!(w[0].1 >= w[1].1);
            }
            let max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            prop_assert_eq!(picks[0].1, max);
        }
    }
}
