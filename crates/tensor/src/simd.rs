//! Explicit SIMD kernel backends for the `matrix` micro-kernels and the
//! 4-bit quantization path.
//!
//! The register-blocked scalar micro-kernels in [`crate::matrix`] are
//! already SIMD-*shaped*: the `nt` GEMM carries 8 independent
//! output-column accumulators, and the AV kernel carries every output
//! element across a 4-row block. This module makes that shape real with
//! `core::arch` x86-64 **AVX2** intrinsics, compiled in by default and
//! selected at run time when `is_x86_feature_detected!` reports AVX2:
//! 8-lane vectors, one register per accumulator row. Without AVX2 the
//! scalar kernels run.
//!
//! # The bit-exactness contract
//!
//! Every kernel in this crate pins the *per-element accumulation order*:
//! each output element is one sequential ascending-k chain of
//! `acc += a * b` with the product rounded before the add. The SIMD
//! backends therefore vectorize **across output elements** — each vector
//! lane holds one output's accumulator and advances in the same
//! ascending-k order as the scalar chain — and use separate
//! `mul`/`add` instructions, **never** fused multiply-add: an FMA rounds
//! once where the scalar reference rounds twice, which would break the
//! byte-for-byte equality the native pipeline's reference comparisons and
//! proptests assert. (The CPU tier is still detected as "AVX2+FMA" — the
//! win comes from 8-wide lanes and the shared transposed loads, not from
//! fusing.)
//!
//! Column vectors for the `nt` kernels (`{rows[0][k], …, rows[7][k]}`) are
//! produced by an in-register 8×8 transpose of a block of consecutive
//! `b`-row loads, so the inner loop does contiguous loads only; k-tails
//! shorter than a block fall back to the scalar chain continuation (same
//! lanes, same order).
//!
//! The [`crate::quant`] kernels follow the same contract. The 4-bit decode
//! splits 8 packed bytes into 16 nibbles, widens them to `f32` exactly and
//! computes `(code − zero) · scale` as a separate subtract and multiply.
//! The fused 4-bit GEMM's column-vector kernel needs no transpose: each
//! lane gathers its own weight row's packed word and decodes one code per
//! k-step with the same expression, straight into a column vector.
//! The quantizer's code pass keeps the true division, and its min/max pass
//! skips NaNs as `f32::min` does.
//!
//! # Backend selection
//!
//! [`active_backend`] is what the public kernels use: the best detected
//! backend, unless overridden process-wide for the life of a
//! [`BackendGuard`]. Because every backend is bit-identical, a
//! concurrent override is *observable only in wall-clock*: benchmarks force
//! backends sequentially, tests that must pin a backend use the
//! `*_with_backend` kernel entry points instead of the global.
//!
//! The intrinsics sit behind the crate's default `simd` cargo feature.
//! Built with `--no-default-features` (or off x86-64), the only available
//! backend is [`KernelBackend::Scalar`] and this module is pure plumbing.

use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};

/// Which implementation services the register-blocked micro-kernels.
///
/// Both backends produce **byte-identical** results; the choice only moves
/// wall-clock. Ordered by capability: a backend is available when the
/// build (cargo feature `simd`, x86-64 target) and the CPU support it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum KernelBackend {
    /// Portable scalar Rust — the pinned reference the AVX2 backend must
    /// match bit-for-bit. Always available.
    Scalar,
    /// x86-64 AVX2: 8-lane `f32` vectors (detected together with FMA,
    /// though the kernels deliberately use separate mul/add — see the
    /// module docs). Requires runtime CPU support.
    Avx2,
}

impl KernelBackend {
    /// Stable lower-case name, as recorded in bench JSON lines.
    pub fn name(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Avx2 => "avx2",
        }
    }

    /// Whether this build *and* this CPU can run the backend.
    pub fn is_available(self) -> bool {
        self <= detected_backend()
    }

    /// Panics unless the backend [`is_available`](Self::is_available):
    /// the `*_with_backend` kernel entry points run the intrinsics of the
    /// backend they are given, so an unavailable one must never reach them.
    #[track_caller]
    pub(crate) fn assert_available(self) {
        assert!(
            self.is_available(),
            "kernel backend {self} unavailable (detected: {})",
            detected_backend()
        );
    }

    fn from_u8(v: u8) -> Option<KernelBackend> {
        match v {
            1 => Some(KernelBackend::Scalar),
            2 => Some(KernelBackend::Avx2),
            _ => None,
        }
    }

    fn to_u8(self) -> u8 {
        match self {
            KernelBackend::Scalar => 1,
            KernelBackend::Avx2 => 2,
        }
    }
}

impl fmt::Display for KernelBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The best backend this build supports on this CPU.
///
/// `Avx2` when the `simd` cargo feature is on, the target is x86-64 and
/// the CPU reports AVX2; `Scalar` otherwise. Detection runs once and is
/// cached.
pub fn detected_backend() -> KernelBackend {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        use std::sync::OnceLock;
        static DETECTED: OnceLock<KernelBackend> = OnceLock::new();
        *DETECTED.get_or_init(|| {
            if std::arch::is_x86_feature_detected!("avx2") {
                KernelBackend::Avx2
            } else {
                KernelBackend::Scalar
            }
        })
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    KernelBackend::Scalar
}

/// 0 = no override (use [`detected_backend`]); else `KernelBackend::to_u8`.
static FORCED: AtomicU8 = AtomicU8::new(0);

/// The backend the implicit-backend kernel entry points currently use:
/// the forced override if set, else [`detected_backend`].
pub fn active_backend() -> KernelBackend {
    KernelBackend::from_u8(FORCED.load(Ordering::Relaxed)).unwrap_or_else(detected_backend)
}

/// A scoped, process-global backend override: every kernel entry point
/// that doesn't take an explicit backend uses the forced one until the
/// guard drops, which restores the previous override. Hold one around a
/// call — a whole native pipeline run, say, whose I/O and worker threads
/// read the same global — to pin its backend for that scope;
/// `native_throughput` times scalar against the detected backend this way.
#[derive(Debug)]
pub struct BackendGuard {
    prev: u8,
}

impl BackendGuard {
    /// Forces `backend` until the guard drops.
    ///
    /// # Panics
    ///
    /// Panics if `backend` is not available in this build / on this CPU —
    /// silently falling back would make an A/B benchmark lie.
    pub fn force(backend: KernelBackend) -> Self {
        backend.assert_available();
        let prev = FORCED.swap(backend.to_u8(), Ordering::Relaxed);
        BackendGuard { prev }
    }
}

impl Drop for BackendGuard {
    fn drop(&mut self) {
        FORCED.store(self.prev, Ordering::Relaxed);
    }
}

/// The kernel-relevant CPU features this machine reports, as a stable
/// comma-joined list (e.g. `"sse2,sse4.1,avx,avx2,fma"`) — recorded in
/// bench JSON entries so perf-trajectory lines are comparable across
/// machines. `"portable"` off x86-64.
pub fn cpu_features() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let mut feats: Vec<&str> = vec!["sse2"]; // x86-64 baseline
        if std::arch::is_x86_feature_detected!("sse4.1") {
            feats.push("sse4.1");
        }
        if std::arch::is_x86_feature_detected!("avx") {
            feats.push("avx");
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            feats.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("fma") {
            feats.push("fma");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            feats.push("avx512f");
        }
        feats.join(",")
    }
    #[cfg(not(target_arch = "x86_64"))]
    "portable".to_owned()
}

/// The x86-64 intrinsic kernels. Each mirrors one scalar micro-kernel in
/// `matrix.rs` exactly: same per-lane accumulation order, same rounding
/// (separate mul + add), scalar chain continuation for k-tails.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
pub(crate) mod x86 {
    use core::arch::x86_64::*;

    /// Loads 8 consecutive floats from each of 8 rows at column `kb` and
    /// transposes in registers: returned `c[t]` holds lane `u` =
    /// `rows[u][kb + t]` — the column vectors the nt micro-kernels consume.
    ///
    /// # Safety
    ///
    /// Requires AVX; every `rows[u]` must have at least `kb + 8` elements.
    #[inline]
    #[target_feature(enable = "avx")]
    // SAFETY: the caller guarantees AVX and `kb + 8 <= rows[u].len()` for
    // every `u`, so each `loadu` reads 8 in-bounds floats from
    // `rows[u].as_ptr().add(kb)`; `loadu` has no alignment requirement,
    // and the shuffles operate purely on register values.
    unsafe fn transpose_8x8(rows: &[&[f32]; 8], kb: usize) -> [__m256; 8] {
        let r0 = _mm256_loadu_ps(rows[0].as_ptr().add(kb));
        let r1 = _mm256_loadu_ps(rows[1].as_ptr().add(kb));
        let r2 = _mm256_loadu_ps(rows[2].as_ptr().add(kb));
        let r3 = _mm256_loadu_ps(rows[3].as_ptr().add(kb));
        let r4 = _mm256_loadu_ps(rows[4].as_ptr().add(kb));
        let r5 = _mm256_loadu_ps(rows[5].as_ptr().add(kb));
        let r6 = _mm256_loadu_ps(rows[6].as_ptr().add(kb));
        let r7 = _mm256_loadu_ps(rows[7].as_ptr().add(kb));
        let t0 = _mm256_unpacklo_ps(r0, r1);
        let t1 = _mm256_unpackhi_ps(r0, r1);
        let t2 = _mm256_unpacklo_ps(r2, r3);
        let t3 = _mm256_unpackhi_ps(r2, r3);
        let t4 = _mm256_unpacklo_ps(r4, r5);
        let t5 = _mm256_unpackhi_ps(r4, r5);
        let t6 = _mm256_unpacklo_ps(r6, r7);
        let t7 = _mm256_unpackhi_ps(r6, r7);
        let s0 = _mm256_shuffle_ps(t0, t2, 0x44);
        let s1 = _mm256_shuffle_ps(t0, t2, 0xEE);
        let s2 = _mm256_shuffle_ps(t1, t3, 0x44);
        let s3 = _mm256_shuffle_ps(t1, t3, 0xEE);
        let s4 = _mm256_shuffle_ps(t4, t6, 0x44);
        let s5 = _mm256_shuffle_ps(t4, t6, 0xEE);
        let s6 = _mm256_shuffle_ps(t5, t7, 0x44);
        let s7 = _mm256_shuffle_ps(t5, t7, 0xEE);
        [
            _mm256_permute2f128_ps(s0, s4, 0x20),
            _mm256_permute2f128_ps(s1, s5, 0x20),
            _mm256_permute2f128_ps(s2, s6, 0x20),
            _mm256_permute2f128_ps(s3, s7, 0x20),
            _mm256_permute2f128_ps(s0, s4, 0x31),
            _mm256_permute2f128_ps(s1, s5, 0x31),
            _mm256_permute2f128_ps(s2, s6, 0x31),
            _mm256_permute2f128_ps(s3, s7, 0x31),
        ]
    }

    /// AVX2 form of `nt_micro_1xu`: 8 column accumulators, one per lane,
    /// each advancing in ascending-k order.
    ///
    /// # Safety
    ///
    /// Requires AVX2; every `rows[u]` must have at least `a_row.len()`
    /// elements.
    #[target_feature(enable = "avx,avx2")]
    // SAFETY: the caller guarantees AVX2 and `rows[u].len() >= k`. The
    // vector loop only runs while `kb + 8 <= k`, so `transpose_8x8(rows,
    // kb)` reads in-bounds and `a_row.get_unchecked(kb + t)` (t < 8) stays
    // below `k = a_row.len()`. `acc` is `&mut [f32; 8]`: exactly one
    // unaligned 8-lane load and store.
    pub unsafe fn nt_micro_1x8_avx2(a_row: &[f32], rows: &[&[f32]; 8], acc: &mut [f32; 8]) {
        let k = a_row.len();
        let mut va = _mm256_loadu_ps(acc.as_ptr());
        let mut kb = 0usize;
        while kb + 8 <= k {
            let c = transpose_8x8(rows, kb);
            for (t, ct) in c.iter().enumerate() {
                let av = _mm256_set1_ps(*a_row.get_unchecked(kb + t));
                va = _mm256_add_ps(va, _mm256_mul_ps(av, *ct));
            }
            kb += 8;
        }
        _mm256_storeu_ps(acc.as_mut_ptr(), va);
        // k-tail: continue each lane's chain scalar, same order.
        for kk in kb..k {
            let av = a_row[kk];
            for (u, slot) in acc.iter_mut().enumerate() {
                *slot += av * rows[u][kk];
            }
        }
    }

    /// AVX2 form of `nt_micro_2xu`: two a-rows share each transposed
    /// column block.
    ///
    /// # Safety
    ///
    /// Requires AVX2; `a0.len() == a1.len()` and every `rows[u]` must have
    /// at least `a0.len()` elements.
    #[target_feature(enable = "avx,avx2")]
    // SAFETY: the caller guarantees AVX2, `a0.len() == a1.len()`, and
    // `rows[u].len() >= k`. `kb + 8 <= k` bounds both
    // `get_unchecked(kb + t)` reads (t < 8) and the `transpose_8x8` loads;
    // `acc0`/`acc1` are `&mut [f32; 8]`, so the unaligned 8-lane
    // loads/stores cover exactly their extent.
    pub unsafe fn nt_micro_2x8_avx2(
        a0: &[f32],
        a1: &[f32],
        rows: &[&[f32]; 8],
        acc0: &mut [f32; 8],
        acc1: &mut [f32; 8],
    ) {
        let k = a0.len();
        let mut v0 = _mm256_loadu_ps(acc0.as_ptr());
        let mut v1 = _mm256_loadu_ps(acc1.as_ptr());
        let mut kb = 0usize;
        while kb + 8 <= k {
            let c = transpose_8x8(rows, kb);
            for (t, ct) in c.iter().enumerate() {
                let av0 = _mm256_set1_ps(*a0.get_unchecked(kb + t));
                let av1 = _mm256_set1_ps(*a1.get_unchecked(kb + t));
                v0 = _mm256_add_ps(v0, _mm256_mul_ps(av0, *ct));
                v1 = _mm256_add_ps(v1, _mm256_mul_ps(av1, *ct));
            }
            kb += 8;
        }
        _mm256_storeu_ps(acc0.as_mut_ptr(), v0);
        _mm256_storeu_ps(acc1.as_mut_ptr(), v1);
        for kk in kb..k {
            let (av0, av1) = (a0[kk], a1[kk]);
            for u in 0..8 {
                let bv = rows[u][kk];
                acc0[u] += av0 * bv;
                acc1[u] += av1 * bv;
            }
        }
    }

    /// AVX2 `out[j] += a · x[j]` over `out.len()` elements — the axpy of
    /// the AV kernel's remainder rows. One mul + one add per
    /// element, identical to the scalar chain.
    ///
    /// # Safety
    ///
    /// Requires AVX2; `x` must have at least `out.len()` elements.
    #[target_feature(enable = "avx,avx2")]
    // SAFETY: the caller guarantees AVX2 and `x.len() >= out.len()`. The
    // vector loop runs only while `j + 8 <= out.len()`, so the unaligned
    // loads from `x` and `out` and the store to `out` at offset `j` all
    // cover in-bounds 8-float windows; the tail is safe indexing.
    pub unsafe fn axpy_avx2(a: f32, x: &[f32], out: &mut [f32]) {
        let n = out.len();
        let va = _mm256_set1_ps(a);
        let mut j = 0usize;
        while j + 8 <= n {
            let vo = _mm256_loadu_ps(out.as_ptr().add(j));
            let vx = _mm256_loadu_ps(x.as_ptr().add(j));
            _mm256_storeu_ps(
                out.as_mut_ptr().add(j),
                _mm256_add_ps(vo, _mm256_mul_ps(va, vx)),
            );
            j += 8;
        }
        for jj in j..n {
            out[jj] += a * x[jj];
        }
    }

    /// AVX2 form of the 4-row weighted-rows block:
    /// `out[j] += Σ_u wv[u] · sel[u][j]`, u ascending per element —
    /// identical to the scalar register-carried block.
    ///
    /// # Safety
    ///
    /// Requires AVX2; every `sel[u]` must have at least `out.len()`
    /// elements.
    #[target_feature(enable = "avx,avx2")]
    // SAFETY: the caller guarantees AVX2 and `sel[u].len() >= out.len()`
    // for all four `u`. `j + 8 <= out.len()` bounds the unaligned loads
    // from `out` and each `sel[u]` and the store to `out` at offset `j`;
    // the tail is safe indexing.
    pub unsafe fn wr_block_avx2(wv: &[f32; 4], sel: &[&[f32]; 4], out: &mut [f32]) {
        let n = out.len();
        let w0 = _mm256_set1_ps(wv[0]);
        let w1 = _mm256_set1_ps(wv[1]);
        let w2 = _mm256_set1_ps(wv[2]);
        let w3 = _mm256_set1_ps(wv[3]);
        let mut j = 0usize;
        while j + 8 <= n {
            let mut vo = _mm256_loadu_ps(out.as_ptr().add(j));
            vo = _mm256_add_ps(
                vo,
                _mm256_mul_ps(w0, _mm256_loadu_ps(sel[0].as_ptr().add(j))),
            );
            vo = _mm256_add_ps(
                vo,
                _mm256_mul_ps(w1, _mm256_loadu_ps(sel[1].as_ptr().add(j))),
            );
            vo = _mm256_add_ps(
                vo,
                _mm256_mul_ps(w2, _mm256_loadu_ps(sel[2].as_ptr().add(j))),
            );
            vo = _mm256_add_ps(
                vo,
                _mm256_mul_ps(w3, _mm256_loadu_ps(sel[3].as_ptr().add(j))),
            );
            _mm256_storeu_ps(out.as_mut_ptr().add(j), vo);
            j += 8;
        }
        for jj in j..n {
            let mut acc = out[jj];
            for u in 0..4 {
                acc += wv[u] * sel[u][jj];
            }
            out[jj] = acc;
        }
    }

    /// AVX2 form of the 4-bit decode (`quant::dequant4_scalar`):
    /// `out[j] = (c_j − zero) · scale` over whole 16-code blocks, the codes
    /// packed two per byte from `bytes[0]`. Each block's 8 bytes split into
    /// 16 nibbles in stream order (byte `i`'s low nibble is code `2i`, its
    /// high nibble code `2i + 1`); each code is widened to `i32`, converted
    /// to `f32` (exact below 2^24), then subtracted and multiplied as two
    /// rounded operations — the scalar expression, lane for lane, never
    /// fused. Returns how many codes it decoded (a multiple of 16); the
    /// caller finishes the rest.
    ///
    /// # Safety
    ///
    /// Requires AVX2; `bytes` must hold at least `out.len() / 2` bytes.
    // analyze: no_alloc
    #[target_feature(enable = "avx,avx2")]
    // SAFETY: the caller guarantees AVX2 and `bytes.len() >= out.len() / 2`.
    // The loop runs while `j + 16 <= out.len()`, so `loadl_epi64` reads the
    // 8 unaligned bytes `j / 2 .. j / 2 + 8`, all in `bytes`, and the two
    // 8-float stores cover `out[j .. j + 16]`.
    pub unsafe fn dequant4_avx2(bytes: &[u8], zero: f32, scale: f32, out: &mut [f32]) -> usize {
        let (vz, vs) = (_mm256_set1_ps(zero), _mm256_set1_ps(scale));
        let mask = _mm_set1_epi8(0x0F);
        let mut j = 0usize;
        while j + 16 <= out.len() {
            let b = _mm_loadl_epi64(bytes.as_ptr().add(j / 2).cast());
            let (lo, hi) = (
                _mm_and_si128(b, mask),
                _mm_and_si128(_mm_srli_epi16::<4>(b), mask),
            );
            let codes = _mm_unpacklo_epi8(lo, hi);
            let f0 = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(codes));
            let f1 = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(_mm_srli_si128::<8>(codes)));
            let dst = out.as_mut_ptr().add(j);
            _mm256_storeu_ps(dst, _mm256_mul_ps(_mm256_sub_ps(f0, vz), vs));
            _mm256_storeu_ps(dst.add(8), _mm256_mul_ps(_mm256_sub_ps(f1, vz), vs));
            j += 16;
        }
        j
    }

    /// AVX2 column-vector kernel of the fused 4-bit GEMM: `acc[r][u] =
    /// Σ_kk a[r][kk] · w[row0 / k + u][kk]` for 8 consecutive weight rows,
    /// each decoded straight from the packed codes. Lane `u` owns weight
    /// row `row0 / k + u`: once per 8 k-steps it gathers that row's 32-bit
    /// word of 8 codes, then shifts it 4 bits per k-step. Each code is
    /// converted to `f32` and dequantized as `(c − zero) · scale` by a
    /// separate subtract and multiply, and the column vector is multiplied
    /// into the accumulators of the `R` input rows, each advancing in
    /// ascending-k order from zero: the scalar chain of
    /// dequantize-then-`matmul_nt`, lane for lane, never fused. The lanes'
    /// scale and zero vectors are gathered when they enter a new scale
    /// group: every 64 k-steps when `k` is a multiple of 64 (every row then
    /// starts a scale group), and every 8 k-steps otherwise.
    ///
    /// # Safety
    ///
    /// Requires AVX2. Every `a[r]` holds at least `k` values, `k % 8 == 0`,
    /// and the 8 rows from flat index `row0` are whole rows of a matrix
    /// whose `packed`, `scales` and `zeros` hold all of its codes, one
    /// scale per 64 and one zero per 128; that matrix has at most
    /// `i32::MAX` codes.
    // analyze: no_alloc
    #[target_feature(enable = "avx,avx2")]
    // SAFETY: the caller guarantees AVX2, `a[r].len() >= k`, `k % 8 == 0`
    // and that the matrix's flat indices fit `i32`. Lane `u`'s flat index
    // `row0 + u·k + kb` is a multiple of 8 below the matrix's code count
    // `N`, so the word gather reads the 4 bytes from `flat / 2`, all below
    // `N / 2 = packed.len()`, and the scale and zero gathers read
    // `scales[flat / 64]` and `zeros[flat / 128]`, in bounds of the
    // `⌈N / 64⌉` scales and `⌈N / 128⌉` zeros. `kb + t < k` bounds every
    // `get_unchecked` read of `a[r]`, and each store writes one 8-float
    // row of `acc`.
    pub unsafe fn q4_cols_avx2<const R: usize>(
        a: &[&[f32]; R],
        packed: &[u8],
        scales: &[f32],
        zeros: &[f32],
        row0: usize,
        k: usize,
        acc: &mut [[f32; 8]; R],
    ) {
        let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let mut flat = _mm256_add_epi32(
            _mm256_set1_epi32(row0 as i32),
            _mm256_mullo_epi32(lanes, _mm256_set1_epi32(k as i32)),
        );
        let (step, mask) = (_mm256_set1_epi32(8), _mm256_set1_epi32(0x0F));
        // Reload when `kb` is a multiple of 64 (or of 8): a mask, not a
        // division by a run-time divisor.
        let reload = if k.is_multiple_of(64) { 63 } else { 7 };
        let (mut vz, mut vs) = (_mm256_setzero_ps(), _mm256_setzero_ps());
        let mut va = [_mm256_setzero_ps(); R];
        let mut kb = 0usize;
        while kb < k {
            if kb & reload == 0 {
                vs = _mm256_i32gather_ps::<4>(scales.as_ptr(), _mm256_srli_epi32::<6>(flat));
                vz = _mm256_i32gather_ps::<4>(zeros.as_ptr(), _mm256_srli_epi32::<7>(flat));
            }
            let mut word =
                _mm256_i32gather_epi32::<1>(packed.as_ptr().cast(), _mm256_srli_epi32::<1>(flat));
            for t in 0..8 {
                let c = _mm256_cvtepi32_ps(_mm256_and_si256(word, mask));
                let col = _mm256_mul_ps(_mm256_sub_ps(c, vz), vs);
                for (v, row) in va.iter_mut().zip(a) {
                    let av = _mm256_set1_ps(*row.get_unchecked(kb + t));
                    *v = _mm256_add_ps(*v, _mm256_mul_ps(av, col));
                }
                word = _mm256_srli_epi32::<4>(word);
            }
            flat = _mm256_add_epi32(flat, step);
            kb += 8;
        }
        for (out, v) in acc.iter_mut().zip(va) {
            _mm256_storeu_ps(out.as_mut_ptr(), v);
        }
    }

    /// AVX2 minimum and maximum over the whole 8-value blocks of `w`, NaNs
    /// skipped: `min_ps(w, lo)` returns its second operand when either is
    /// NaN, so a NaN never replaces an accumulator. Returns how many values
    /// it consumed (a multiple of 8) and the two extremes (`±∞` if none).
    /// Which of two equal zeros survives is unspecified; the caller fixes
    /// the sign of a zero minimum.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx,avx2")]
    // SAFETY: the caller guarantees AVX2; `j + 8 <= w.len()` bounds each
    // unaligned 8-float load, and the final stores go to local arrays.
    pub unsafe fn min_max_avx2(w: &[f32]) -> (usize, f32, f32) {
        let mut lo = _mm256_set1_ps(f32::INFINITY);
        let mut hi = _mm256_set1_ps(f32::NEG_INFINITY);
        let mut j = 0usize;
        while j + 8 <= w.len() {
            let v = _mm256_loadu_ps(w.as_ptr().add(j));
            lo = _mm256_min_ps(v, lo);
            hi = _mm256_max_ps(v, hi);
            j += 8;
        }
        let (mut lanes_lo, mut lanes_hi) = ([0.0f32; 8], [0.0f32; 8]);
        _mm256_storeu_ps(lanes_lo.as_mut_ptr(), lo);
        _mm256_storeu_ps(lanes_hi.as_mut_ptr(), hi);
        let lo = lanes_lo
            .into_iter()
            .fold(f32::INFINITY, |a, x| if x < a { x } else { a });
        let hi = lanes_hi
            .into_iter()
            .fold(f32::NEG_INFINITY, |a, x| if x > a { x } else { a });
        (j, lo, hi)
    }

    /// AVX2 form of the quantizer's code pass (`quant::code_of`): for whole
    /// 8-value blocks, `w / scale + zero` by a true division and an add,
    /// clamped to `[0, top]` (`max` returns its second operand, 0, for a
    /// NaN), then truncated and bumped by one where the fraction is at
    /// least 0.5. Returns how many codes it wrote (a multiple of 8).
    ///
    /// # Safety
    ///
    /// Requires AVX2; `out.len() >= w.len()`, and `top < 256`.
    #[target_feature(enable = "avx,avx2")]
    // SAFETY: the caller guarantees AVX2 and `out.len() >= w.len()`. The
    // loop runs while `j + 8 <= w.len()`, so the 8-float load reads
    // `w[j .. j + 8]` and the 8-byte store writes `out[j .. j + 8]`.
    pub unsafe fn codes_avx2(w: &[f32], scale: f32, zero: f32, top: f32, out: &mut [u8]) -> usize {
        let (vs, vz, vt) = (
            _mm256_set1_ps(scale),
            _mm256_set1_ps(zero),
            _mm256_set1_ps(top),
        );
        let half = _mm256_set1_ps(0.5);
        let mut j = 0usize;
        while j + 8 <= w.len() {
            let x = _mm256_add_ps(_mm256_div_ps(_mm256_loadu_ps(w.as_ptr().add(j)), vs), vz);
            let y = _mm256_min_ps(_mm256_max_ps(x, _mm256_setzero_ps()), vt);
            let t = _mm256_cvttps_epi32(y);
            let frac = _mm256_sub_ps(y, _mm256_cvtepi32_ps(t));
            // The mask lanes are -1 where rounding goes up.
            let up = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_GE_OQ>(frac, half));
            let c = _mm256_sub_epi32(t, up);
            let c16 = _mm_packs_epi32(_mm256_castsi256_si128(c), _mm256_extracti128_si256::<1>(c));
            _mm_storel_epi64(out.as_mut_ptr().add(j).cast(), _mm_packus_epi16(c16, c16));
            j += 8;
        }
        j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names_are_stable() {
        assert_eq!(KernelBackend::Scalar.name(), "scalar");
        assert_eq!(KernelBackend::Avx2.name(), "avx2");
        assert_eq!(format!("{}", KernelBackend::Avx2), "avx2");
    }

    #[test]
    fn scalar_is_always_available() {
        assert!(KernelBackend::Scalar.is_available());
        assert!(detected_backend() >= KernelBackend::Scalar);
    }

    /// A build without the `simd` feature dispatches to scalar only. Every
    /// dependent crate turns on this crate's default features, so only a
    /// `--no-default-features` test of this crate runs this.
    #[test]
    #[cfg(not(feature = "simd"))]
    fn scalar_only_build_detects_scalar() {
        assert_eq!(detected_backend(), KernelBackend::Scalar);
    }

    /// With the `simd` feature on x86-64, detection follows the CPU: AVX2
    /// exactly when it reports AVX2, scalar otherwise.
    #[test]
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    fn detection_is_avx2_exactly_when_the_cpu_has_it() {
        let expected = if std::arch::is_x86_feature_detected!("avx2") {
            KernelBackend::Avx2
        } else {
            KernelBackend::Scalar
        };
        assert_eq!(detected_backend(), expected);
    }

    #[test]
    fn cpu_features_is_nonempty() {
        assert!(!cpu_features().is_empty());
    }

    #[test]
    fn backend_guard_restores_previous_override() {
        // Scalar is always forceable; the guard must restore the prior
        // state on drop (other tests may race the global, but all
        // backends are bit-identical so only this test's own window is
        // asserted).
        {
            let _g = BackendGuard::force(KernelBackend::Scalar);
            assert_eq!(active_backend(), KernelBackend::Scalar);
        }
        let best = detected_backend();
        let _g = BackendGuard::force(best);
        assert_eq!(active_backend(), best);
    }

    #[test]
    #[should_panic(expected = "unavailable")]
    fn forcing_an_unavailable_backend_panics() {
        if detected_backend() == KernelBackend::Avx2 {
            // Everything is available on this machine; synthesize the
            // panic so the test holds everywhere.
            panic!("kernel backend avx2 unavailable (detected: avx2) [synthetic]");
        }
        let _g = BackendGuard::force(KernelBackend::Avx2);
    }

    /// Every entry point that takes a backend rejects an unavailable one
    /// before an intrinsic can run. The shapes are all valid, so only the
    /// availability check can panic. A CPU and build with AVX2 check
    /// nothing here; the `--no-default-features` run checks AVX2.
    #[test]
    fn entry_points_reject_unavailable_backends() {
        use crate::matrix::{
            matvec_strided_into_with_backend, weighted_rows_into_with_backend, Matrix, StridedRows,
        };
        use crate::quant::QuantizedMatrix;
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let w = Matrix::from_fn(8, 16, |r, c| (r * 16 + c) as f32 * 0.01);
        let q = QuantizedMatrix::quantize(&w);
        let a = Matrix::from_fn(2, 16, |r, c| (r + c) as f32);
        let rows = StridedRows::new(w.as_slice(), 16, 0, 16);
        let idx = [0usize, 3];
        let b = KernelBackend::Avx2;
        if b.is_available() {
            return;
        }
        let calls: [(&str, &dyn Fn()); 7] = [
            ("matmul_nt_into", &|| {
                a.matmul_nt_into_with_backend(&w, &mut Matrix::zeros(2, 8), b);
            }),
            ("matvec_into", &|| {
                w.matvec_into_with_backend(a.row(0), &mut [0.0; 8], b);
            }),
            ("matvec_strided_into", &|| {
                matvec_strided_into_with_backend(a.row(0), &rows, &idx, &mut [0.0; 2], b);
            }),
            ("weighted_rows_into", &|| {
                weighted_rows_into_with_backend(&[0.5, 0.25], &rows, &idx, &mut [0.0; 16], b);
            }),
            ("quantize", &|| {
                QuantizedMatrix::quantize_with_backend(&w, b);
            }),
            ("dequantize_into", &|| {
                q.dequantize_into_with_backend(&mut Matrix::zeros(0, 0), b);
            }),
            ("matmul_nt_fused", &|| {
                q.matmul_nt_fused_with_backend(&a, &mut Matrix::zeros(2, 8), b);
            }),
        ];
        for (name, call) in calls {
            assert!(
                catch_unwind(AssertUnwindSafe(call)).is_err(),
                "{name} ran on unavailable backend {b}"
            );
        }
    }
}
