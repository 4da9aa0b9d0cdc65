//! Group-wise affine quantization (HQQ-style storage).
//!
//! The paper quantizes expert (and optionally attention) weights to 4 bits
//! with a scale group of 64 and a zero-point group of 128 (§7,
//! "Compression"), dequantizing back to full precision before compute. This
//! module implements exactly that storage format: per-group scales, shared
//! zero points, and weights bit-packed into a byte stream. The quantizer is
//! a single pass with no refinement step: each zero group's minimum is the
//! origin, its scale groups take their range from that origin (equalized
//! across the zero group), and codes round half away from zero and are
//! clamped to the level range; [`QuantizedMatrix::quantize`] has the
//! details.
//!
//! Two compute paths read the packed stream:
//!
//! * [`QuantizedMatrix::dequantize_into`] reconstructs full precision a
//!   scale group at a time (zero/scale hoisted, bytes decoded in bulk);
//! * [`QuantizedMatrix::matmul_nt_fused_into`] fuses that dequantization
//!   into the `A · selfᵀ` GEMM — a 64-code panel of each weight row is
//!   unpacked into a stack buffer and fed straight to the register
//!   micro-kernels, so expert compute runs off the packed bytes with no
//!   full-precision staging matrix. Both are **bit-identical** to
//!   dequantize-then-GEMM: the dequant expression and every per-element
//!   accumulation chain are unchanged (`f32` accumulators spill/reload
//!   exactly across panels).
//!
//! At 4 bits both decode through one nibble kernel that [`KernelBackend`]
//! dispatches like the GEMM micro-kernels: a scalar form a byte at a time,
//! and an AVX2 form that widens 16 codes at once to `f32` and applies the
//! subtract and the multiply as separate instructions, never fused. The
//! quantizer's min/max and code passes are dispatched the same way. The
//! SSE2 backend runs the scalar forms of these three kernels. Every
//! backend is byte-identical to the retained per-element reference loops.

use crate::matrix::{Matrix, NT_COLS};
use crate::simd::{active_backend, KernelBackend};

/// Parameters of a group-wise affine quantizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuantConfig {
    /// Bits per weight (2–8).
    pub bits: u32,
    /// Weights per scale group.
    pub group_size: u32,
    /// Weights per zero-point group (a multiple of `group_size`).
    pub zero_group_size: u32,
}

impl QuantConfig {
    /// The paper's preset: 4 bits, scale group 64, zero group 128.
    pub fn paper_default() -> Self {
        QuantConfig {
            bits: 4,
            group_size: 64,
            zero_group_size: 128,
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics unless `2 ≤ bits ≤ 8`, groups are positive, and
    /// `zero_group_size` is a multiple of `group_size`.
    fn validate(&self) {
        assert!((2..=8).contains(&self.bits), "bits must be in 2..=8");
        assert!(self.group_size > 0, "group_size must be positive");
        assert!(
            self.zero_group_size > 0 && self.zero_group_size.is_multiple_of(self.group_size),
            "zero_group_size must be a positive multiple of group_size"
        );
    }

    /// Quantization levels (`2^bits`).
    pub fn levels(&self) -> u32 {
        1 << self.bits
    }

    /// Stored bytes per parameter, including scale/zero overhead (scales
    /// and zeros as f32 here; the byte accounting used by the cost model is
    /// in `klotski_model::spec::QuantScheme` with 16-bit metadata).
    pub fn bytes_per_param(&self) -> f64 {
        self.bits as f64 / 8.0 + 4.0 / self.group_size as f64 + 4.0 / self.zero_group_size as f64
    }
}

/// A quantized matrix: packed codes + per-group scales + shared zeros.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMatrix {
    rows: usize,
    cols: usize,
    config: QuantConfig,
    /// Bit-packed codes in row-major order, least significant bits first.
    /// Scale and zero groups run over the flat index, across row ends.
    packed: Vec<u8>,
    /// One scale per scale-group.
    scales: Vec<f32>,
    /// One zero point per zero-group (in code units).
    zeros: Vec<f32>,
}

impl QuantizedMatrix {
    /// Quantizes `m` group-wise over its row-major values.
    ///
    /// Each run of `group_size` values shares a scale and each run of
    /// `zero_group_size` values a zero point; groups run over the flat
    /// index, across row ends. For a zero group with minimum `lo` and
    /// maximum `hi` (NaNs skipped):
    ///
    /// * `lo` is the origin. Every scale group in the zero group takes its
    ///   range from that origin, widened to the zero group's `hi − lo`,
    ///   and the scales are equalized across the zero group, so each one
    ///   is `max(hi − lo, 1e-12) / (levels − 1)`;
    /// * the zero point is `−lo / scale`, in code units;
    /// * each value's code is `w / scale + zero`, rounded half away from
    ///   zero and clamped to `[0, levels − 1]`; NaN codes as 0.
    ///
    /// The min/max and code passes run on the [`active_backend`], with no
    /// libm call and no index division. Clamping `w / scale + zero` before rounding
    /// gives the same code as rounding first, and on the clamped,
    /// non-negative range, truncating and then comparing the fraction with
    /// 0.5 is exactly round-half-away-from-zero. The division stays a true
    /// division. Bit-identical to [`QuantizedMatrix::quantize_reference`].
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid (see [`QuantConfig`]).
    pub fn quantize(m: &Matrix, config: QuantConfig) -> Self {
        Self::quantize_with_backend(m, config, active_backend())
    }

    /// [`QuantizedMatrix::quantize`] with the kernel backend of the
    /// min/max and code passes pinned explicitly, for the tests that
    /// compare backends. Bit-identical at any backend.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid (see [`QuantConfig`]) or `backend` is
    /// unavailable.
    pub(crate) fn quantize_with_backend(
        m: &Matrix,
        config: QuantConfig,
        backend: KernelBackend,
    ) -> Self {
        config.validate();
        backend.assert_available();
        let g = config.group_size as usize;
        let zg = config.zero_group_size as usize;
        let top = (config.levels() - 1) as f32;
        let data = m.as_slice();
        let mut scales = Vec::with_capacity(data.len().div_ceil(g));
        let mut zeros = Vec::with_capacity(data.len().div_ceil(zg));
        let mut codes = vec![0u8; data.len()];
        for (ws, cs) in data.chunks(zg).zip(codes.chunks_mut(zg)) {
            let (lo, hi) = min_max(backend, ws);
            let scale = 0.0f32.max(hi - lo).max(1e-12) / top;
            let zero = -lo / scale;
            scales.resize(scales.len() + ws.len().div_ceil(g), scale);
            zeros.push(zero);
            codes_b(backend, ws, scale, zero, top, cs);
        }
        QuantizedMatrix {
            rows: m.rows(),
            cols: m.cols(),
            config,
            packed: pack_codes(config.bits, &codes),
            scales,
            zeros,
        }
    }

    /// The original quantization loop (three index divisions and a libm
    /// `round` per value, a bit-stream call per code), kept so proptests
    /// and the micro bench can pin [`QuantizedMatrix::quantize`]
    /// bit-identical to the definition.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid (see [`QuantConfig`]).
    pub fn quantize_reference(m: &Matrix, config: QuantConfig) -> Self {
        config.validate();
        let g = config.group_size as usize;
        let zg = config.zero_group_size as usize;
        let levels = config.levels() as f32;
        let data = m.as_slice();
        let n = data.len();
        let n_groups = n.div_ceil(g);
        let n_zgroups = n.div_ceil(zg);

        // Zero points: one per zero-group, from the group min (code-unit
        // convention: code = w/scale + zero).
        let mut zeros = vec![0.0f32; n_zgroups];
        let mut zgroup_mins = vec![f32::INFINITY; n_zgroups];
        let mut zgroup_maxs = vec![f32::NEG_INFINITY; n_zgroups];
        for (i, &w) in data.iter().enumerate() {
            let zi = i / zg;
            zgroup_mins[zi] = zgroup_mins[zi].min(w);
            zgroup_maxs[zi] = zgroup_maxs[zi].max(w);
        }

        // Scales: per scale-group from the group range, but the zero point
        // must cover the zero-group's min, so scale uses the zero-group min
        // as the offset origin.
        let mut scales = vec![1.0f32; n_groups];
        for (gi, scale) in scales.iter_mut().enumerate() {
            let lo = gi * g;
            let hi = (lo + g).min(n);
            let zi = lo / zg;
            let origin = zgroup_mins[zi];
            let span = data[lo..hi]
                .iter()
                .fold(0.0f32, |acc, &w| acc.max(w - origin));
            let span = span.max(zgroup_maxs[zi] - origin).max(1e-12);
            *scale = span / (levels - 1.0);
        }
        for (zi, zero) in zeros.iter_mut().enumerate() {
            // Equalize the scales across the zero group so one zero works.
            let first_group = zi * zg / g;
            let last_group = ((zi + 1) * zg).div_ceil(g).min(n_groups);
            let max_scale = scales[first_group..last_group]
                .iter()
                .fold(0.0f32, |a, &s| a.max(s));
            for s in &mut scales[first_group..last_group] {
                *s = max_scale;
            }
            *zero = -zgroup_mins[zi] / max_scale;
        }

        // Pack codes.
        let mut packer = BitPacker::new(config.bits, n);
        for (i, &w) in data.iter().enumerate() {
            let gi = i / g;
            let zi = i / zg;
            let code = (w / scales[gi] + zeros[zi]).round();
            let code = code.clamp(0.0, levels - 1.0) as u32;
            packer.push(code);
        }

        QuantizedMatrix {
            rows: m.rows(),
            cols: m.cols(),
            config,
            packed: packer.into_bytes(),
            scales,
            zeros,
        }
    }

    /// Reconstructs the full-precision matrix.
    pub fn dequantize(&self) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.dequantize_into(&mut out);
        out
    }

    /// [`QuantizedMatrix::dequantize`] into a reused matrix, reshaping it
    /// as needed — the allocation-free form the native pipeline's I/O
    /// thread uses when staging into a resident slot buffer.
    ///
    /// Decodes a scale group at a time: the group's zero and scale are
    /// hoisted out of the inner loop and the packed bytes are decoded in
    /// bulk (16 nibbles per vector step at 4 bits, 64-bit refills at other
    /// widths), instead of two integer divisions and a bit-stream
    /// state-machine call per element. Bit-identical to
    /// [`QuantizedMatrix::dequantize_reference_into`], the retained
    /// per-element formulation.
    pub fn dequantize_into(&self, out: &mut Matrix) {
        self.dequantize_into_with_backend(out, active_backend());
    }

    /// [`QuantizedMatrix::dequantize_into`] with the kernel backend pinned
    /// explicitly, for the tests that compare backends. Bit-identical at
    /// any backend.
    ///
    /// # Panics
    ///
    /// Panics if `backend` is unavailable.
    pub(crate) fn dequantize_into_with_backend(&self, out: &mut Matrix, backend: KernelBackend) {
        backend.assert_available();
        let n = self.rows * self.cols;
        let mut buf = std::mem::replace(out, Matrix::zeros(0, 0)).into_vec();
        buf.clear();
        buf.resize(n, 0.0);
        self.decode(&mut self.cursor(0), &mut buf, backend);
        *out = Matrix::from_vec(self.rows, self.cols, buf);
    }

    /// The original per-element dequantization loop (two index divisions
    /// and a bit-stream call per value), kept so tests and the micro bench
    /// can pin [`QuantizedMatrix::dequantize_into`] bit-identical to the
    /// definition.
    pub fn dequantize_reference_into(&self, out: &mut Matrix) {
        let g = self.config.group_size as usize;
        let zg = self.config.zero_group_size as usize;
        let n = self.rows * self.cols;
        let mut buf = std::mem::replace(out, Matrix::zeros(0, 0)).into_vec();
        buf.clear();
        buf.reserve(n);
        let mut unpacker = BitUnpacker::new(self.config.bits, &self.packed);
        for i in 0..n {
            let code = unpacker.next() as f32;
            let gi = i / g;
            let zi = i / zg;
            buf.push((code - self.zeros[zi]) * self.scales[gi]);
        }
        *out = Matrix::from_vec(self.rows, self.cols, buf);
    }

    /// A cursor at flat code index `index` (see [`GroupCursor`]).
    fn cursor(&self, index: usize) -> GroupCursor {
        let g = self.config.group_size as usize;
        let zg = self.config.zero_group_size as usize;
        let (group, zero) = (index / g, index / zg);
        GroupCursor {
            index,
            group,
            group_end: (group + 1) * g,
            zero,
            zero_end: (zero + 1) * zg,
        }
    }

    /// Dequantizes the `out.len()` codes from `at` on into `out` and
    /// advances `at` past them, walking the scale-group segments the range
    /// crosses with zero and scale hoisted per segment. At 4 bits each
    /// segment goes through the nibble kernel on `backend`; other widths
    /// stream through [`BitUnpacker::dequant_span`].
    // analyze: no_alloc
    fn decode(&self, at: &mut GroupCursor, out: &mut [f32], backend: KernelBackend) {
        let g = self.config.group_size as usize;
        let zg = self.config.zero_group_size as usize;
        let mut o = 0usize;
        while o < out.len() {
            let len = (at.group_end - at.index).min(out.len() - o);
            let (zero, scale) = (self.zeros[at.zero], self.scales[at.group]);
            let span = &mut out[o..o + len];
            if self.config.bits == 4 {
                dequant4_b(backend, &self.packed, at.index, zero, scale, span);
            } else {
                BitUnpacker::at(self.config.bits, &self.packed, at.index)
                    .dequant_span(zero, scale, span);
            }
            o += len;
            at.index += len;
            if at.index == at.group_end {
                // A zero group is a whole number of scale groups, so its
                // end is always a scale-group end.
                at.group += 1;
                at.group_end += g;
                if at.index == at.zero_end {
                    at.zero += 1;
                    at.zero_end += zg;
                }
            }
        }
    }

    /// `out = a · selfᵀ` with dequantization fused into the GEMM: 64-code
    /// panels of each weight row are unpacked into a stack buffer and fed
    /// straight to the register micro-kernels — no full-precision staging
    /// matrix. **Bit-identical** to `a.matmul_nt(&self.dequantize())`:
    /// the dequant expression is unchanged and each output element is the
    /// same ascending-k chain (`f32` accumulators spill/reload exactly
    /// across panels).
    ///
    /// # Panics
    ///
    /// Panics if `a.cols() != self.cols()`, or `out` is not
    /// `a.rows() × self.rows()`.
    pub fn matmul_nt_fused_into(&self, a: &Matrix, out: &mut Matrix) {
        self.matmul_nt_fused_with_backend(a, out, active_backend());
    }

    /// [`QuantizedMatrix::matmul_nt_fused_into`] with the kernel backend
    /// pinned explicitly. Bit-identical at any backend.
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch, or if `backend` is unavailable.
    // analyze: no_alloc
    pub fn matmul_nt_fused_with_backend(
        &self,
        a: &Matrix,
        out: &mut Matrix,
        backend: KernelBackend,
    ) {
        backend.assert_available();
        assert_eq!(a.cols(), self.cols, "inner dimension mismatch");
        assert_eq!(out.rows(), a.rows(), "output rows mismatch");
        assert_eq!(out.cols(), self.rows, "output cols mismatch");
        /// Panel width in codes: one paper-default scale group, and a
        /// multiple of every vector width — 2 KiB of stack per 8-row block.
        const FUSED_PANEL: usize = 64;
        /// Input rows per pass. All per-row accumulator blocks live on the
        /// stack (64 × 8 × 4 B = 2 KiB), so the kernel performs no heap
        /// allocation — a whole decode group fits one pass; larger inputs
        /// pay the panel unpack once more per extra 64-row pass. Chunking
        /// rows changes nothing bit-wise: every output element's chain
        /// belongs to exactly one row.
        const FUSED_ROWS: usize = 64;
        let (k, n) = (self.cols, self.rows);
        let mut panels = [[0.0f32; FUSED_PANEL]; NT_COLS];
        let mut acc = [[0.0f32; NT_COLS]; FUSED_ROWS];
        let mut i_base = 0usize;
        while i_base < a.rows() {
            let m = (a.rows() - i_base).min(FUSED_ROWS);
            let mut j = 0usize;
            while j + NT_COLS <= n {
                for block in acc.iter_mut().take(m) {
                    *block = [0.0; NT_COLS];
                }
                let mut row_at: [GroupCursor; NT_COLS] =
                    std::array::from_fn(|u| self.cursor((j + u) * k));
                let mut k0 = 0usize;
                while k0 < k {
                    let k1 = (k0 + FUSED_PANEL).min(k);
                    let plen = k1 - k0;
                    for (panel, at) in panels.iter_mut().zip(&mut row_at) {
                        self.decode(at, &mut panel[..plen], backend);
                    }
                    let rows: [&[f32]; NT_COLS] = std::array::from_fn(|u| &panels[u][..plen]);
                    let mut i = 0usize;
                    while i + 2 <= m {
                        let (lo, hi) = acc.split_at_mut(i + 1);
                        crate::matrix::nt_micro_2xu_b(
                            backend,
                            &a.row(i_base + i)[k0..k1],
                            &a.row(i_base + i + 1)[k0..k1],
                            &rows,
                            &mut lo[i],
                            &mut hi[0],
                        );
                        i += 2;
                    }
                    if i < m {
                        crate::matrix::nt_micro_1xu_b(
                            backend,
                            &a.row(i_base + i)[k0..k1],
                            &rows,
                            &mut acc[i],
                        );
                    }
                    k0 = k1;
                }
                for (i, block) in acc.iter().enumerate().take(m) {
                    out.row_mut(i_base + i)[j..j + NT_COLS].copy_from_slice(block);
                }
                j += NT_COLS;
            }
            // Weight-row tail (< NT_COLS rows left): one row at a time,
            // each output element a plain sequential chain across the same
            // panels.
            if j < n {
                let mut panel = [0.0f32; FUSED_PANEL];
                let mut tail_acc = [0.0f32; FUSED_ROWS];
                for jj in j..n {
                    tail_acc[..m].fill(0.0);
                    let mut at = self.cursor(jj * k);
                    let mut k0 = 0usize;
                    while k0 < k {
                        let k1 = (k0 + FUSED_PANEL).min(k);
                        let plen = k1 - k0;
                        self.decode(&mut at, &mut panel[..plen], backend);
                        for (i, t) in tail_acc.iter_mut().enumerate().take(m) {
                            let mut s = *t;
                            for (&x, &y) in a.row(i_base + i)[k0..k1].iter().zip(&panel[..plen]) {
                                s += x * y;
                            }
                            *t = s;
                        }
                        k0 = k1;
                    }
                    for (i, &t) in tail_acc.iter().enumerate().take(m) {
                        out.row_mut(i_base + i)[jj] = t;
                    }
                }
            }
            i_base += m;
        }
    }

    /// Becomes a copy of `src`, reusing the existing buffers when capacity
    /// allows — the packed-bytes analogue of [`Matrix::copy_from`], used
    /// when transferring a quantized expert into a resident slot.
    pub fn copy_from(&mut self, src: &QuantizedMatrix) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.config = src.config;
        self.packed.clear();
        self.packed.extend_from_slice(&src.packed);
        self.scales.clear();
        self.scales.extend_from_slice(&src.scales);
        self.zeros.clear();
        self.zeros.extend_from_slice(&src.zeros);
    }

    /// Rows of the original matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of the original matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The quantizer configuration.
    pub fn config(&self) -> QuantConfig {
        self.config
    }

    /// Actual stored bytes (codes + scales + zeros).
    pub fn stored_bytes(&self) -> usize {
        self.packed.len() + 4 * self.scales.len() + 4 * self.zeros.len()
    }

    /// Worst-case absolute reconstruction error: half a quantization step
    /// of the largest scale.
    pub fn error_bound(&self) -> f32 {
        self.scales.iter().fold(0.0f32, |a, &s| a.max(s)) * 0.5 + 1e-6
    }
}

/// A position in the flat code stream together with the scale group and
/// zero group it falls in, so a decoder can walk group segments without
/// dividing an index per segment.
#[derive(Debug)]
struct GroupCursor {
    index: usize,
    group: usize,
    group_end: usize,
    zero: usize,
    zero_end: usize,
}

/// The minimum and maximum of `ws`, NaNs skipped (`±∞` when every value
/// is NaN). The extremes are unique as numbers, so any order of
/// comparisons finds them; only the sign of a zero result depends on the
/// order. Only the minimum's sign reaches a stored bit (through the zero
/// point `−lo / scale`; the scale reads `hi − lo`, whose value the sign of
/// a zero `hi` never changes). Like the reference's sequential `f32::min`
/// fold, a zero minimum takes the sign of the first zero in `ws`.
/// (`f32::min` leaves that sign unspecified, and LLVM may vectorize a
/// `min` reduction in another order.) The AVX2 form takes the whole
/// vector blocks and a scalar fold the rest.
fn min_max(backend: KernelBackend, ws: &[f32]) -> (f32, f32) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    let (done, lo, hi) = match backend {
        // SAFETY: `backend` is available (asserted by the entry point that
        // took it, or from `active_backend`).
        KernelBackend::Avx2 => unsafe { crate::simd::x86::min_max_avx2(ws) },
        KernelBackend::Sse2 | KernelBackend::Scalar => (0, f32::INFINITY, f32::NEG_INFINITY),
    };
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    let (done, lo, hi) = {
        let _ = backend;
        (0, f32::INFINITY, f32::NEG_INFINITY)
    };
    let (lo, hi) = ws[done..].iter().fold((lo, hi), |(lo, hi), &w| {
        (if w < lo { w } else { lo }, if w > hi { w } else { hi })
    });
    if lo == 0.0 {
        let first_zero = ws.iter().copied().find(|&w| w == 0.0).unwrap_or(0.0);
        return (first_zero, hi);
    }
    (lo, hi)
}

/// One code of the quantizer: `w / scale + zero` clamped to `[0, top]`,
/// then rounded half away from zero without libm: truncate, and add one
/// when the fraction is at least 0.5. A NaN survives the clamp and
/// truncates to 0.
#[inline]
fn code_of(w: f32, scale: f32, zero: f32, top: f32) -> u8 {
    let y = (w / scale + zero).clamp(0.0, top);
    let t = y as u32;
    (t + u32::from(y - t as f32 >= 0.5)) as u8
}

/// The quantizer's code pass over one zero group's values, dispatched per
/// backend: the AVX2 form takes the whole vector blocks and [`code_of`]
/// the rest. All forms are byte-identical.
fn codes_b(backend: KernelBackend, w: &[f32], scale: f32, zero: f32, top: f32, out: &mut [u8]) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    let done = match backend {
        // SAFETY: `backend` is available (asserted by the entry point that
        // took it, or from `active_backend`); `out` is as long as `w`, and
        // `top` is at most 255.
        KernelBackend::Avx2 => unsafe { crate::simd::x86::codes_avx2(w, scale, zero, top, out) },
        KernelBackend::Sse2 | KernelBackend::Scalar => 0,
    };
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    let done = {
        let _ = backend;
        0
    };
    for (c, &x) in out[done..].iter_mut().zip(&w[done..]) {
        *c = code_of(x, scale, zero, top);
    }
}

/// Packs codes (each below `2^bits`) into the byte stream
/// [`BitUnpacker`] reads. At 4 bits each byte is two codes, low nibble
/// first; other widths go through [`BitPacker`].
fn pack_codes(bits: u32, codes: &[u8]) -> Vec<u8> {
    if bits == 4 {
        let mut packed = vec![0u8; codes.len().div_ceil(2)];
        // Whole 32-code blocks first, a fixed-size loop the compiler
        // vectorizes.
        let blocks = codes.len() / 32;
        let (head, tail) = packed.split_at_mut(16 * blocks);
        for (bytes, block) in head.chunks_exact_mut(16).zip(codes.chunks_exact(32)) {
            for (i, byte) in bytes.iter_mut().enumerate() {
                *byte = block[2 * i] | (block[2 * i + 1] << 4);
            }
        }
        for (byte, pair) in tail.iter_mut().zip(codes[32 * blocks..].chunks(2)) {
            *byte = pair[0] | pair.get(1).map_or(0, |&high| high << 4);
        }
        return packed;
    }
    let mut packer = BitPacker::new(bits, codes.len());
    for &c in codes {
        packer.push(u32::from(c));
    }
    packer.into_bytes()
}

/// The scalar 4-bit decode, a byte at a time: `out[2i]` and `out[2i + 1]`
/// are `(c − zero) · scale` for byte `i`'s low and high nibble.
// analyze: no_alloc
fn dequant4_scalar(bytes: &[u8], zero: f32, scale: f32, out: &mut [f32]) {
    let dq = |c: u8| (f32::from(c) - zero) * scale;
    let whole = out.len() / 2;
    let mut pairs = out.chunks_exact_mut(2);
    for (pair, &b) in (&mut pairs).zip(bytes) {
        pair[0] = dq(b & 0x0F);
        pair[1] = dq(b >> 4);
    }
    if let [last] = pairs.into_remainder() {
        *last = dq(bytes[whole] & 0x0F);
    }
}

/// Backend dispatch for the 4-bit decode of the `out.len()` codes from
/// flat index `start` of `packed`. A span starting on a high nibble
/// decodes that code first; the AVX2 form then takes the whole 16-code
/// blocks and the scalar form the rest. All forms are byte-identical.
// analyze: no_alloc
fn dequant4_b(
    backend: KernelBackend,
    packed: &[u8],
    start: usize,
    zero: f32,
    scale: f32,
    out: &mut [f32],
) {
    let mut bytes = &packed[start / 2..];
    let mut out = out;
    if start % 2 == 1 {
        let Some((first, rest)) = out.split_first_mut() else {
            return;
        };
        *first = (f32::from(bytes[0] >> 4) - zero) * scale;
        (bytes, out) = (&bytes[1..], rest);
    }
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    let done = match backend {
        // SAFETY: `backend` is available (asserted by the entry point that
        // took it, or from `active_backend`), and `bytes` holds every code
        // of `out`, two per byte.
        KernelBackend::Avx2 => unsafe { crate::simd::x86::dequant4_avx2(bytes, zero, scale, out) },
        KernelBackend::Sse2 | KernelBackend::Scalar => 0,
    };
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    let done = {
        let _ = backend;
        0
    };
    dequant4_scalar(&bytes[done / 2..], zero, scale, &mut out[done..]);
}

/// Packs `bits`-wide codes into a little-endian byte stream.
#[derive(Debug)]
struct BitPacker {
    bits: u32,
    acc: u64,
    acc_bits: u32,
    out: Vec<u8>,
}

impl BitPacker {
    fn new(bits: u32, capacity_values: usize) -> Self {
        BitPacker {
            bits,
            acc: 0,
            acc_bits: 0,
            out: Vec::with_capacity((capacity_values * bits as usize).div_ceil(8)),
        }
    }

    fn push(&mut self, code: u32) {
        debug_assert!(code < (1 << self.bits), "code out of range");
        self.acc |= (code as u64) << self.acc_bits;
        self.acc_bits += self.bits;
        while self.acc_bits >= 8 {
            self.out.push((self.acc & 0xff) as u8);
            self.acc >>= 8;
            self.acc_bits -= 8;
        }
    }

    fn into_bytes(mut self) -> Vec<u8> {
        if self.acc_bits > 0 {
            self.out.push((self.acc & 0xff) as u8);
        }
        self.out
    }
}

/// Streams codes back out of a packed byte stream.
#[derive(Debug)]
struct BitUnpacker<'a> {
    bits: u32,
    bytes: &'a [u8],
    pos: usize,
    acc: u64,
    acc_bits: u32,
}

impl<'a> BitUnpacker<'a> {
    fn new(bits: u32, bytes: &'a [u8]) -> Self {
        BitUnpacker {
            bits,
            bytes,
            pos: 0,
            acc: 0,
            acc_bits: 0,
        }
    }

    /// Seeks straight to `value_index` in the stream — random access for
    /// kernels that start mid-row. The accumulator is seeded from the
    /// containing byte with the leading bits shifted off, so subsequent
    /// reads are identical to having streamed from the start.
    fn at(bits: u32, bytes: &'a [u8], value_index: usize) -> Self {
        let bit_offset = value_index * bits as usize;
        let mut u = BitUnpacker {
            bits,
            bytes,
            pos: bit_offset / 8,
            acc: 0,
            acc_bits: 0,
        };
        let skip = (bit_offset % 8) as u32;
        if skip > 0 {
            let byte = u.bytes.get(u.pos).copied().unwrap_or(0);
            u.acc = (byte as u64) >> skip;
            u.acc_bits = 8 - skip;
            u.pos += 1;
        }
        u
    }

    fn next(&mut self) -> u32 {
        while self.acc_bits < self.bits {
            let byte = self.bytes.get(self.pos).copied().unwrap_or(0);
            self.acc |= (byte as u64) << self.acc_bits;
            self.acc_bits += 8;
            self.pos += 1;
        }
        let mask = (1u64 << self.bits) - 1;
        let code = (self.acc & mask) as u32;
        self.acc >>= self.bits;
        self.acc_bits -= self.bits;
        code
    }

    /// Decodes `out.len()` consecutive codes as `(code − zero) · scale` —
    /// the dequant expression with the group constants hoisted — refilling
    /// the accumulator in bulk (one 64-bit load when it runs empty inside
    /// the stream) instead of byte-at-a-time per value. Produces exactly
    /// the codes repeated [`BitUnpacker::next`] calls would, including the
    /// zero padding past the end of the stream.
    fn dequant_span(&mut self, zero: f32, scale: f32, out: &mut [f32]) {
        let mask = (1u64 << self.bits) - 1;
        let mut i = 0usize;
        while i < out.len() {
            if self.acc_bits < self.bits {
                let word = self
                    .bytes
                    .get(self.pos..)
                    .and_then(|rest| rest.first_chunk());
                match word {
                    Some(&word) if self.acc_bits == 0 => {
                        self.acc = u64::from_le_bytes(word);
                        self.acc_bits = 64;
                        self.pos += 8;
                    }
                    _ => {
                        while self.acc_bits <= 56 {
                            let byte = self.bytes.get(self.pos).copied().unwrap_or(0);
                            self.acc |= (byte as u64) << self.acc_bits;
                            self.acc_bits += 8;
                            self.pos += 1;
                        }
                    }
                }
            }
            let avail = (self.acc_bits / self.bits) as usize;
            let take = avail.min(out.len() - i);
            for o in &mut out[i..i + take] {
                let code = (self.acc & mask) as u32;
                self.acc >>= self.bits;
                self.acc_bits -= self.bits;
                *o = (code as f32 - zero) * scale;
            }
            i += take;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::seeded_matrix;

    #[test]
    fn round_trip_error_is_bounded() {
        let m = seeded_matrix(32, 128, 7, 1.0);
        let q = QuantizedMatrix::quantize(&m, QuantConfig::paper_default());
        let d = q.dequantize();
        let err = m.max_abs_diff(&d);
        assert!(
            err <= q.error_bound(),
            "err {err} > bound {}",
            q.error_bound()
        );
        // 4-bit over [-1,1]-ish weights: error well under 0.2.
        assert!(err < 0.2, "err = {err}");
    }

    #[test]
    fn more_bits_means_less_error() {
        let m = seeded_matrix(16, 256, 3, 1.0);
        let errs: Vec<f32> = [3u32, 4, 6, 8]
            .iter()
            .map(|&bits| {
                let cfg = QuantConfig {
                    bits,
                    ..QuantConfig::paper_default()
                };
                m.max_abs_diff(&QuantizedMatrix::quantize(&m, cfg).dequantize())
            })
            .collect();
        assert!(
            errs[0] > errs[1] && errs[1] > errs[2] && errs[2] > errs[3],
            "{errs:?}"
        );
    }

    #[test]
    fn storage_shrinks_roughly_four_x_at_4_bits() {
        let m = seeded_matrix(64, 256, 1, 1.0);
        let q = QuantizedMatrix::quantize(&m, QuantConfig::paper_default());
        let full = 4 * 64 * 256;
        let ratio = q.stored_bytes() as f64 / full as f64;
        assert!((0.12..0.20).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn constant_matrix_quantizes_exactly() {
        let m = Matrix::from_fn(8, 64, |_, _| 0.75);
        let q = QuantizedMatrix::quantize(&m, QuantConfig::paper_default());
        assert!(m.max_abs_diff(&q.dequantize()) < 1e-5);
    }

    #[test]
    fn ragged_tail_group_round_trips() {
        // 100 cols is not a multiple of 64: the tail group is short.
        let m = seeded_matrix(3, 100, 5, 2.0);
        let q = QuantizedMatrix::quantize(&m, QuantConfig::paper_default());
        let d = q.dequantize();
        assert_eq!(d.rows(), 3);
        assert_eq!(d.cols(), 100);
        assert!(m.max_abs_diff(&d) <= q.error_bound());
    }

    #[test]
    #[should_panic(expected = "bits must be in 2..=8")]
    fn invalid_bits_rejected() {
        let m = Matrix::zeros(2, 2);
        let _ = QuantizedMatrix::quantize(
            &m,
            QuantConfig {
                bits: 1,
                group_size: 64,
                zero_group_size: 128,
            },
        );
    }

    #[test]
    fn grouped_dequantize_matches_reference_bitwise() {
        for (rows, cols) in [(32usize, 128usize), (3, 100), (1, 1), (0, 7), (5, 63)] {
            let m = seeded_matrix(rows, cols, 11, 1.5);
            let q = QuantizedMatrix::quantize(&m, QuantConfig::paper_default());
            let mut fast = Matrix::zeros(0, 0);
            let mut reference = Matrix::zeros(0, 0);
            q.dequantize_into(&mut fast);
            q.dequantize_reference_into(&mut reference);
            assert_eq!(fast, reference, "{rows}x{cols}");
        }
    }

    #[test]
    fn unpacker_at_matches_streaming() {
        for bits in 2..=8u32 {
            let codes: Vec<u32> = (0..200).map(|i| (i * 37 + 11) % (1 << bits)).collect();
            let mut p = BitPacker::new(bits, codes.len());
            for &c in &codes {
                p.push(c);
            }
            let bytes = p.into_bytes();
            for start in [0usize, 1, 7, 63, 64, 65, 199] {
                let mut u = BitUnpacker::at(bits, &bytes, start);
                for (off, &c) in codes[start..].iter().enumerate() {
                    assert_eq!(u.next(), c, "bits {bits} start {start} off {off}");
                }
            }
        }
    }

    #[test]
    fn fused_gemm_matches_dequantize_then_gemm() {
        let w = seeded_matrix(24, 96, 9, 1.0);
        let q = QuantizedMatrix::quantize(&w, QuantConfig::paper_default());
        let a = seeded_matrix(5, 96, 4, 1.0);
        let staged = a.matmul_nt(&q.dequantize());
        let mut fused = Matrix::zeros(5, 24);
        q.matmul_nt_fused_into(&a, &mut fused);
        assert_eq!(fused, staged);
    }

    #[test]
    fn fused_gemm_handles_empty_shapes() {
        let cfg = QuantConfig::paper_default();
        // Zero a-rows.
        let q = QuantizedMatrix::quantize(&seeded_matrix(8, 16, 1, 1.0), cfg);
        let mut out = Matrix::zeros(0, 8);
        q.matmul_nt_fused_into(&Matrix::zeros(0, 16), &mut out);
        assert_eq!(out, Matrix::zeros(0, 8));
        // Zero weight rows.
        let q = QuantizedMatrix::quantize(&Matrix::zeros(0, 16), cfg);
        let mut out = Matrix::zeros(3, 0);
        q.matmul_nt_fused_into(&seeded_matrix(3, 16, 2, 1.0), &mut out);
        assert_eq!(out.rows(), 3);
        // Zero inner dimension: output must still be written (zeros).
        let q = QuantizedMatrix::quantize(&Matrix::zeros(4, 0), cfg);
        let mut out = Matrix::from_fn(2, 4, |_, _| 9.0);
        q.matmul_nt_fused_into(&Matrix::zeros(2, 0), &mut out);
        assert_eq!(out, Matrix::zeros(2, 4));
    }

    #[test]
    fn quantized_copy_from_round_trips() {
        let cfg = QuantConfig::paper_default();
        let src = QuantizedMatrix::quantize(&seeded_matrix(8, 64, 3, 1.0), cfg);
        let mut dst = QuantizedMatrix::quantize(&Matrix::zeros(0, 0), cfg);
        dst.copy_from(&src);
        assert_eq!(dst, src);
        assert_eq!(dst.dequantize(), src.dequantize());
    }

    /// 64-bit FNV-1a over the packed bytes, then the bit patterns of the
    /// scales and the zeros.
    fn quantized_fnv(q: &QuantizedMatrix) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let floats = q
            .scales
            .iter()
            .chain(&q.zeros)
            .flat_map(|v| v.to_bits().to_le_bytes());
        for b in q.packed.iter().copied().chain(floats) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Pins the quantizer's exact output (codes, scales and zeros) on
    /// seeded inputs, so a faster quantizer must reproduce it bit for bit.
    #[test]
    fn quantizer_output_is_pinned() {
        let small = |bits| QuantConfig {
            bits,
            group_size: 32,
            zero_group_size: 64,
        };
        let paper = QuantConfig::paper_default();
        let mut cases: Vec<(String, Matrix, QuantConfig)> = (2..=8u32)
            .map(|bits| {
                let m = seeded_matrix(6, 100, 40 + u64::from(bits), 1.0);
                (format!("bits{bits}_6x100"), m, small(bits))
            })
            .collect();
        cases.push((
            "paper_1024x256".into(),
            crate::init::xavier_matrix(1024, 256, 5),
            paper,
        ));
        cases.push((
            "paper_256x1024".into(),
            crate::init::xavier_matrix(256, 1024, 6),
            paper,
        ));
        cases.push(("paper_7x150".into(), seeded_matrix(7, 150, 7, 2.0), paper));
        cases.push((
            "paper_const_4x96".into(),
            Matrix::from_fn(4, 96, |_, _| -0.3),
            paper,
        ));
        let expected: [u64; 11] = [
            0x8f74_db07_9282_96b4, // bits2_6x100
            0x6ea6_0484_e1dd_4195, // bits3_6x100
            0xdef2_41f4_f498_e048, // bits4_6x100
            0x7bf0_080e_9e3f_fa95, // bits5_6x100
            0x62f3_87d4_f6fe_ce10, // bits6_6x100
            0xa9e1_42de_0ca8_e4de, // bits7_6x100
            0x0d05_ab39_7f96_1136, // bits8_6x100
            0x0151_d6ff_f3eb_d4c4, // paper_1024x256
            0x3d87_6344_2834_34f1, // paper_256x1024
            0xb3eb_afb9_947d_2d38, // paper_7x150
            0x777e_e0a2_fa72_8b6c, // paper_const_4x96
        ];
        let actual: Vec<(&str, u64)> = cases
            .iter()
            .map(|(name, m, cfg)| {
                (
                    name.as_str(),
                    quantized_fnv(&QuantizedMatrix::quantize(m, *cfg)),
                )
            })
            .collect();
        let pinned: Vec<(&str, u64)> = cases
            .iter()
            .map(|(name, _, _)| name.as_str())
            .zip(expected)
            .collect();
        assert_eq!(actual, pinned);
    }

    #[test]
    fn codes_round_half_away_from_zero_and_clamp() {
        let cases = [
            0.0f32,
            -0.0,
            0.5,
            1.5,
            2.5,
            0.499_999_97,
            14.5,
            14.499_999,
            15.0,
            15.5,
            -0.5,
            -0.499_999_97,
            -3.0,
            1e30,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        for x in cases {
            let expected = x.round().clamp(0.0, 15.0) as u32;
            assert_eq!(u32::from(code_of(x, 1.0, 0.0, 15.0)), expected, "{x}");
        }
    }

    #[test]
    fn bit_packer_round_trips_all_widths() {
        for bits in 2..=8u32 {
            let codes: Vec<u32> = (0..100).map(|i| i % (1 << bits)).collect();
            let mut p = BitPacker::new(bits, codes.len());
            for &c in &codes {
                p.push(c);
            }
            let bytes = p.into_bytes();
            assert_eq!(bytes.len(), (100 * bits as usize).div_ceil(8));
            let mut u = BitUnpacker::new(bits, &bytes);
            for &c in &codes {
                assert_eq!(u.next(), c, "width {bits}");
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::init::seeded_matrix;
    use proptest::prelude::*;

    /// (group, zero group) pairs: the small and paper presets, plus odd
    /// group sizes whose boundaries fall mid-byte at 4 bits.
    const GROUP_PAIRS: [(u32, u32); 4] = [(32, 64), (64, 128), (5, 15), (7, 7)];

    fn backends() -> impl Iterator<Item = KernelBackend> {
        [
            KernelBackend::Scalar,
            KernelBackend::Sse2,
            KernelBackend::Avx2,
        ]
        .into_iter()
        .filter(|b| b.is_available())
    }

    fn float_bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Everything a quantized matrix stores, with floats as bit patterns
    /// (so ±0.0 and NaN compare exactly).
    fn stored_bits(q: &QuantizedMatrix) -> (Vec<u8>, Vec<u32>, Vec<u32>) {
        (
            q.packed.clone(),
            float_bits(&q.scales),
            float_bits(&q.zeros),
        )
    }

    /// A seeded matrix reshaped by `mode`: 0 as drawn; 1 on a half-integer
    /// grid where each zero group spans exactly `[0, top]` units, so the
    /// scale is the unit and `w / scale + zero` lands exactly on .5 ties;
    /// 2 with ±0.0 sprinkled in; 3 with every row constant; 4 with NaN and
    /// ±∞ sprinkled in.
    fn special_matrix(rows: usize, cols: usize, cfg: QuantConfig, mode: u32, seed: u64) -> Matrix {
        let mut m = seeded_matrix(rows, cols, seed, 1.0);
        let top = cfg.levels() - 1;
        let zg = cfg.zero_group_size as usize;
        let unit = [1.0f32, 0.25, 3.0][(seed % 3) as usize];
        for (i, w) in m.as_mut_slice().iter_mut().enumerate() {
            let h = ((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed) >> 32;
            *w = match mode {
                1 => match i % zg {
                    0 => 0.0,
                    1 => unit * top as f32,
                    _ => unit * (h % u64::from(2 * top + 1)) as f32 * 0.5,
                },
                2 => [0.0, -0.0, *w, *w][(h % 4) as usize],
                3 => (i / cols) as f32 * 0.5 - 1.0,
                4 => [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, *w, *w, *w][(h % 6) as usize],
                _ => *w,
            };
        }
        m
    }

    proptest! {
        /// The quantizer is byte-identical to the retained reference loop
        /// at every available backend — packed bytes, and the bit patterns
        /// of scales and zeros — for bits 2–8, several group pairs, ragged
        /// tails, exact .5 ties, ±0.0, constant rows, NaN and ±∞.
        #[test]
        fn quantize_matches_reference_bitwise(
            rows in 0usize..6,
            cols in 0usize..150,
            bits in 2u32..=8,
            groups in 0usize..4,
            mode in 0u32..5,
            seed in 0u64..1000,
        ) {
            let (group_size, zero_group_size) = GROUP_PAIRS[groups];
            let cfg = QuantConfig { bits, group_size, zero_group_size };
            let m = special_matrix(rows, cols, cfg, mode, seed);
            let reference = stored_bits(&QuantizedMatrix::quantize_reference(&m, cfg));
            for backend in backends() {
                let q = QuantizedMatrix::quantize_with_backend(&m, cfg, backend);
                prop_assert_eq!(&stored_bits(&q), &reference, "backend {}", backend);
            }
        }

        /// Round-trip error never exceeds the analytic bound, for random
        /// shapes, widths and value ranges.
        #[test]
        fn quantize_error_bound_holds(
            rows in 1usize..6,
            cols in 1usize..200,
            bits in 3u32..=8,
            scale in 0.01f32..100.0,
            seed in 0u64..50,
        ) {
            let m = crate::init::seeded_matrix(rows, cols, seed, scale);
            let cfg = QuantConfig { bits, group_size: 32, zero_group_size: 64 };
            let q = QuantizedMatrix::quantize(&m, cfg);
            let d = q.dequantize();
            prop_assert!(m.max_abs_diff(&d) <= q.error_bound() * 1.001);
        }

        /// At every available backend the grouped decode is byte-identical
        /// to the retained per-element reference, through `dequantize_into`
        /// and through the fused GEMM's panels, for bits 2–8 and ragged
        /// tails. Odd column counts and odd group sizes start spans on a
        /// high nibble.
        #[test]
        fn grouped_dequantize_matches_reference(
            rows in 0usize..11,
            cols in 0usize..150,
            bits in 2u32..=8,
            groups in 0usize..4,
            seed in 0u64..1000,
        ) {
            let (group_size, zero_group_size) = GROUP_PAIRS[groups];
            let cfg = QuantConfig { bits, group_size, zero_group_size };
            let q = QuantizedMatrix::quantize_reference(&seeded_matrix(rows, cols, seed, 1.0), cfg);
            let mut reference = Matrix::zeros(0, 0);
            q.dequantize_reference_into(&mut reference);
            let a = seeded_matrix(3, cols, seed ^ 0x55, 1.0);
            let mut staged = Matrix::zeros(3, rows);
            a.matmul_nt_into_with_backend(&reference, &mut staged, 1, KernelBackend::Scalar);
            for backend in backends() {
                let mut decoded = Matrix::from_fn(1, 1, |_, _| -7.0);
                q.dequantize_into_with_backend(&mut decoded, backend);
                prop_assert_eq!((decoded.rows(), decoded.cols()), (rows, cols));
                prop_assert_eq!(
                    float_bits(decoded.as_slice()),
                    float_bits(reference.as_slice()),
                    "dequantize_into, backend {}", backend
                );
                let mut fused = Matrix::from_fn(3, rows, |_, _| -7.0);
                q.matmul_nt_fused_with_backend(&a, &mut fused, backend);
                prop_assert_eq!(
                    float_bits(fused.as_slice()),
                    float_bits(staged.as_slice()),
                    "fused, backend {}", backend
                );
            }
        }

        /// The fused quantized GEMM is byte-identical to dequantize +
        /// `matmul_nt` for every bit width 2–8, ragged tail groups (cols
        /// not a multiple of the group size), weight-row tails (< 8 rows
        /// left), and every available kernel backend.
        #[test]
        fn fused_gemm_matches_staged_exactly(
            m in 0usize..7,
            k in 0usize..100,
            n in 0usize..20,
            bits in 2u32..=8,
            seed in 0u64..50,
        ) {
            let w = crate::init::seeded_matrix(n, k, seed, 1.0);
            let cfg = QuantConfig { bits, group_size: 32, zero_group_size: 64 };
            let q = QuantizedMatrix::quantize(&w, cfg);
            let a = crate::init::seeded_matrix(m, k, seed.wrapping_add(17), 1.0);
            let deq = q.dequantize();
            for backend in [KernelBackend::Scalar, KernelBackend::Sse2, KernelBackend::Avx2] {
                if !backend.is_available() {
                    continue;
                }
                let mut staged = Matrix::zeros(m, n);
                a.matmul_nt_into_with_backend(&deq, &mut staged, 1, backend);
                let mut fused = Matrix::from_fn(m, n, |_, _| -7.0);
                q.matmul_nt_fused_with_backend(&a, &mut fused, backend);
                prop_assert_eq!(&fused, &staged, "backend {}", backend);
            }
        }

        /// Bit-packing round-trips arbitrary code streams.
        #[test]
        fn packer_round_trips(
            bits in 2u32..=8,
            codes in proptest::collection::vec(0u32..256, 0..300),
        ) {
            let codes: Vec<u32> = codes.iter().map(|&c| c % (1 << bits)).collect();
            let mut p = BitPacker::new(bits, codes.len());
            for &c in &codes {
                p.push(c);
            }
            let bytes = p.into_bytes();
            let mut u = BitUnpacker::new(bits, &bytes);
            for &c in &codes {
                prop_assert_eq!(u.next(), c);
            }
        }
    }
}
