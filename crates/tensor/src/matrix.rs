//! Row-major `f32` matrices and the handful of BLAS-like kernels the native
//! MoE path needs.
//!
//! The GEMM is `A · Bᵀ` ([`Matrix::matmul_nt`]), the natural orientation
//! for weight matrices stored `[out_features, in_features]`. It and the
//! strided attention kernels come in flavors with **bit-identical**
//! results:
//!
//! * a `*_naive` reference (the textbook loop, kept in-tree so tests can
//!   assert exact agreement), and
//! * a cache-blocked (tiled) kernel, the default, which reorders *which
//!   element is computed when* but never the per-element accumulation
//!   order.
//!
//! Every kernel runs on its caller's thread and spawns none: the native
//! pipeline's parallelism is its own long-lived I/O thread and compute
//! workers, which a per-GEMM thread team would only oversubscribe.
//!
//! The bit-exactness invariant is what lets the native MoE pipeline swap
//! per-token matvecs for batched GEMMs without perturbing the
//! pipeline-vs-reference comparisons.
//!
//! The register micro-kernels also dispatch to explicit x86-64 AVX2
//! implementations, compiled in by the default `simd` feature (see
//! [`crate::simd`]); those are bit-identical too — each vector lane is one
//! output's ascending-k scalar chain — so backend choice only moves
//! wall-clock. The `*_with_backend` entry points pin a backend explicitly;
//! everything else uses [`active_backend`].

use crate::simd::{active_backend, KernelBackend};
use std::fmt;

/// A-row block: output rows processed together so their slices of `rhs`
/// stay hot in L1 across the j-tile.
const TILE_I: usize = 16;
/// Output-column block (j-tile): bounds the working set of B rows touched
/// per pass.
const TILE_J: usize = 64;

/// `out[j] += a · x[j]` — the one-row step of the weighted-rows kernel,
/// with one product rounded before each add (the per-element order every
/// backend preserves).
#[inline]
fn axpy_scalar(a: f32, x: &[f32], out: &mut [f32]) {
    for (o, &bv) in out.iter_mut().zip(x) {
        *o += a * bv;
    }
}

/// Backend dispatch for the axpy step. All arms are bit-identical; the
/// SIMD arms only exist when the `simd` feature compiles them in.
#[inline]
pub(crate) fn axpy_b(backend: KernelBackend, a: f32, x: &[f32], out: &mut [f32]) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    match backend {
        // SAFETY: `backend` is available: the entry point that took it
        // asserted so (`assert_available`), or it came from
        // `active_backend`. `x` covers `out`.
        KernelBackend::Avx2 => return unsafe { crate::simd::x86::axpy_avx2(a, x, out) },
        KernelBackend::Scalar => {}
    }
    let _ = backend;
    axpy_scalar(a, x, out);
}

/// How many output columns the `nt` kernel carries per pass over k. Each
/// column keeps its **own** accumulator advancing in strict ascending-k
/// order (bit-identical to the one-at-a-time dot), but the 8 independent
/// dependency chains hide FMA latency — a single sequential chain caps a
/// scalar dot at ~1 mul-add per FMA-latency, several× below machine
/// throughput — and each `a` element is loaded once per 8 outputs.
pub(crate) const NT_COLS: usize = 8;

/// `NT_COLS` dots of one `a` row against consecutive `b` rows, sharing the
/// `a` loads across all column accumulators.
#[inline]
fn nt_micro_1xu(a_row: &[f32], rows: &[&[f32]; NT_COLS], acc: &mut [f32; NT_COLS]) {
    for (kk, &av) in a_row.iter().enumerate() {
        for u in 0..NT_COLS {
            acc[u] += av * rows[u][kk];
        }
    }
}

/// The 2×[`NT_COLS`] register micro-kernel: two `a` rows against the same
/// [`NT_COLS`] `b` rows, so every `b` element loaded feeds two mul-adds.
#[inline]
fn nt_micro_2xu(
    a0: &[f32],
    a1: &[f32],
    rows: &[&[f32]; NT_COLS],
    acc0: &mut [f32; NT_COLS],
    acc1: &mut [f32; NT_COLS],
) {
    for (kk, (&av0, &av1)) in a0.iter().zip(a1).enumerate() {
        for u in 0..NT_COLS {
            let bv = rows[u][kk];
            acc0[u] += av0 * bv;
            acc1[u] += av1 * bv;
        }
    }
}

/// Backend dispatch for the 1×[`NT_COLS`] micro-kernel. Callers must
/// ensure every `rows[u]` has at least `a_row.len()` elements.
#[inline]
pub(crate) fn nt_micro_1xu_b(
    backend: KernelBackend,
    a_row: &[f32],
    rows: &[&[f32]; NT_COLS],
    acc: &mut [f32; NT_COLS],
) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    match backend {
        // SAFETY: `backend` is available (asserted by the entry point that
        // took it, or from `active_backend`), and the caller guarantees the row lengths.
        KernelBackend::Avx2 => {
            return unsafe { crate::simd::x86::nt_micro_1x8_avx2(a_row, rows, acc) }
        }
        KernelBackend::Scalar => {}
    }
    let _ = backend;
    nt_micro_1xu(a_row, rows, acc);
}

/// Backend dispatch for the 2×[`NT_COLS`] micro-kernel. Callers must
/// ensure `a0.len() == a1.len()` and every `rows[u]` has at least
/// `a0.len()` elements.
#[inline]
pub(crate) fn nt_micro_2xu_b(
    backend: KernelBackend,
    a0: &[f32],
    a1: &[f32],
    rows: &[&[f32]; NT_COLS],
    acc0: &mut [f32; NT_COLS],
    acc1: &mut [f32; NT_COLS],
) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    match backend {
        // SAFETY: `backend` is available (asserted by the entry point that
        // took it, or from `active_backend`), and the caller guarantees `a0.len() == a1.len()` and the row
        // lengths (doc contract above).
        KernelBackend::Avx2 => {
            return unsafe { crate::simd::x86::nt_micro_2x8_avx2(a0, a1, rows, acc0, acc1) }
        }
        KernelBackend::Scalar => {}
    }
    let _ = backend;
    nt_micro_2xu(a0, a1, rows, acc0, acc1);
}

/// One dot product, sequential accumulator — the remainder path and the
/// per-element definition the micro-kernels replicate exactly.
#[inline]
pub(crate) fn nt_dot(a_row: &[f32], b_row: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for (&x, &y) in a_row.iter().zip(b_row) {
        acc += x * y;
    }
    acc
}

/// Tiled `out = A · Bᵀ` over `m` rows of `a` (`b` is `n × k` row-major).
/// Each element is one full-length dot product with a single sequential
/// accumulator — bit-identical to the naive per-element loop; the kernel
/// only reorders *which elements* are computed when (a 2×[`NT_COLS`]
/// register block inside [`TILE_I`] × [`TILE_J`] cache blocks). The
/// register block matters because one sequential chain is FMA-latency
/// bound: 16 independent accumulators hide the latency, and sharing each
/// `b` load across two rows halves the loads per mul-add.
fn mm_nt_rows(
    a: &[f32],
    m: usize,
    k: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
    backend: KernelBackend,
) {
    for ib in (0..m).step_by(TILE_I) {
        let ie = (ib + TILE_I).min(m);
        for jb in (0..n).step_by(TILE_J) {
            let je = (jb + TILE_J).min(n);
            let mut j = jb;
            while j + NT_COLS <= je {
                let rows: [&[f32]; NT_COLS] =
                    std::array::from_fn(|u| &b[(j + u) * k..(j + u) * k + k]);
                let mut i = ib;
                while i + 2 <= ie {
                    let (a0, a1) = (&a[i * k..(i + 1) * k], &a[(i + 1) * k..(i + 2) * k]);
                    let mut acc0 = [0.0f32; NT_COLS];
                    let mut acc1 = [0.0f32; NT_COLS];
                    nt_micro_2xu_b(backend, a0, a1, &rows, &mut acc0, &mut acc1);
                    out[i * n + j..i * n + j + NT_COLS].copy_from_slice(&acc0);
                    out[(i + 1) * n + j..(i + 1) * n + j + NT_COLS].copy_from_slice(&acc1);
                    i += 2;
                }
                if i < ie {
                    let mut acc = [0.0f32; NT_COLS];
                    nt_micro_1xu_b(backend, &a[i * k..(i + 1) * k], &rows, &mut acc);
                    out[i * n + j..i * n + j + NT_COLS].copy_from_slice(&acc);
                }
                j += NT_COLS;
            }
            // Column remainder: plain dots.
            for i in ib..ie {
                let a_row = &a[i * k..(i + 1) * k];
                for jj in j..je {
                    out[i * n + jj] = nt_dot(a_row, &b[jj * k..(jj + 1) * k]);
                }
            }
        }
    }
}

/// A dense row-major `f32` matrix.
///
/// # Examples
///
/// ```
/// use klotski_tensor::matrix::Matrix;
///
/// // A weight matrix stored `[out_features, in_features]`, applied to a
/// // batch of two rows: `x · wᵀ`.
/// let x = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
/// let w = Matrix::from_fn(3, 2, |r, c| (r + c) as f32);
/// let y = x.matmul_nt(&w);
/// assert_eq!(y.row(1), &[4.0, 11.0, 18.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

/// The empty `0 × 0` matrix. Allocation-free — the natural placeholder
/// for pooled buffers moved out with `std::mem::take`.
impl Default for Matrix {
    fn default() -> Self {
        Matrix {
            rows: 0,
            cols: 0,
            data: Vec::new(),
        }
    }
}

impl Matrix {
    /// An all-zero `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The `n × n` identity.
    #[cfg(test)]
    fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Builds a matrix from a generator over `(row, col)`.
    pub fn from_fn<F: FnMut(usize, usize) -> f32>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have unequal lengths.
    #[cfg(test)]
    fn from_rows(rows: &[&[f32]]) -> Self {
        let n_rows = rows.len();
        let n_cols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(n_rows * n_cols);
        for row in rows {
            assert_eq!(row.len(), n_cols, "ragged rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: n_rows,
            cols: n_cols,
            data,
        }
    }

    /// Wraps an existing buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of bounds ({})", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "({r},{c}) out of bounds");
        self.data[r * self.cols + c]
    }

    /// Sets element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(r < self.rows && c < self.cols, "({r},{c}) out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// `self · rhsᵀ` (new allocation), tiled kernel — the natural layout
    /// for weight matrices stored as `[out_features, in_features]`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.cols`.
    pub fn matmul_nt(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        self.matmul_nt_into(rhs, &mut out);
        out
    }

    /// `out = self · rhsᵀ`, reusing `out`'s buffer. Cache-blocked; each
    /// element is one sequential full-length dot product, bit-identical to
    /// [`Matrix::matmul_nt_naive`].
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch.
    pub fn matmul_nt_into(&self, rhs: &Matrix, out: &mut Matrix) {
        self.matmul_nt_into_with_backend(rhs, out, active_backend());
    }

    /// [`Matrix::matmul_nt_into`] with the kernel backend pinned
    /// explicitly rather than read from the process-global setting —
    /// race-free for A/B tests and benchmarks. Bit-identical at any
    /// backend.
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch, or if `backend` is unavailable.
    // analyze: no_alloc
    pub fn matmul_nt_into_with_backend(
        &self,
        rhs: &Matrix,
        out: &mut Matrix,
        backend: KernelBackend,
    ) {
        backend.assert_available();
        assert_eq!(self.cols, rhs.cols, "inner dimension mismatch");
        assert_eq!(out.rows, self.rows, "output rows mismatch");
        assert_eq!(out.cols, rhs.rows, "output cols mismatch");
        mm_nt_rows(
            &self.data,
            self.rows,
            self.cols,
            &rhs.data,
            rhs.rows,
            &mut out.data,
            backend,
        );
    }

    /// `out[j] = Σ_k x[k] · self[j][k]` — the matrix–vector product
    /// `self · x` for a weight matrix stored `[out_features, in_features]`,
    /// through the blocked nt kernel (the out-features dimension gets its
    /// 8-column register blocking). Bit-identical to a per-row sequential
    /// dot.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols` or `out.len() != self.rows`.
    pub fn matvec_into(&self, x: &[f32], out: &mut [f32]) {
        self.matvec_into_with_backend(x, out, active_backend());
    }

    /// [`Matrix::matvec_into`] with the kernel backend pinned explicitly.
    /// Bit-identical at any backend.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols` or `out.len() != self.rows`,
    /// or if `backend` is unavailable.
    pub fn matvec_into_with_backend(&self, x: &[f32], out: &mut [f32], backend: KernelBackend) {
        backend.assert_available();
        assert_eq!(x.len(), self.cols, "matvec input width mismatch");
        assert_eq!(out.len(), self.rows, "matvec output width mismatch");
        mm_nt_rows(x, 1, self.cols, &self.data, self.rows, out, backend);
    }

    /// Reference `self · rhsᵀ`: the naive per-element dot product, kept so
    /// tests can assert the tiled kernel is bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.cols`.
    pub fn matmul_nt_naive(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.cols, "inner dimension mismatch");
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        for i in 0..self.rows {
            let a_row = self.row(i);
            for j in 0..rhs.rows {
                let b_row = rhs.row(j);
                let mut acc = 0.0f32;
                for (&a, &b) in a_row.iter().zip(b_row) {
                    acc += a * b;
                }
                out.data[i * rhs.rows + j] = acc;
            }
        }
        out
    }

    /// Transpose (new allocation).
    #[cfg(test)]
    fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self.get(c, r))
    }

    /// Becomes a copy of `src`, reshaping as needed but reusing the
    /// existing buffer when its capacity allows — the allocation-free
    /// "transfer into a resident buffer" primitive (after the first use at
    /// a given shape, this is a pure memcpy).
    pub fn copy_from(&mut self, src: &Matrix) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Reshapes to `rows × cols`, reusing the existing buffer when its
    /// capacity allows — the scratch-reuse primitive for hot loops that
    /// cycle through group sizes (allocation-free once the buffer has
    /// reached its high-water shape, and a no-op when the shape repeats).
    ///
    /// Element values are **not** initialized: shrinking keeps a stale
    /// prefix and growing zero-fills only the new tail, so treat the
    /// result as write-only scratch. Every kernel that writes into a
    /// resized matrix (`matmul*_into`, `weighted_rows_into`, row copies)
    /// overwrites its full output, which is why the hot loops can skip
    /// the memset a zeroing reshape would pay per step.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Maximum absolute element difference versus `rhs`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, rhs: &Matrix) -> f32 {
        assert_eq!(self.rows, rhs.rows, "row mismatch");
        assert_eq!(self.cols, rhs.cols, "col mismatch");
        self.data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix[{}x{}]", self.rows, self.cols)
    }
}

/// A strided view of equally-shaped rows inside a flat slab: row `p` is
/// `data[p·stride + offset .. p·stride + offset + width]`.
///
/// This is exactly the shape of one attention head's keys (or values)
/// inside a per-sequence KV slab laid out `[positions × d_model]`: stride
/// `d_model`, column offset `head · head_dim`, width `head_dim`. The
/// strided kernels below ([`matvec_strided_into`], [`weighted_rows_into`])
/// read through this view so the slab is never gathered or copied.
#[derive(Debug, Clone, Copy)]
pub struct StridedRows<'a> {
    data: &'a [f32],
    stride: usize,
    offset: usize,
    width: usize,
}

impl<'a> StridedRows<'a> {
    /// Views `data` as rows of `width` starting `offset` into each
    /// `stride`-long record.
    ///
    /// # Panics
    ///
    /// Panics if a row would overrun its record (`offset + width >
    /// stride`) or `stride` is zero while `data` is not empty.
    pub fn new(data: &'a [f32], stride: usize, offset: usize, width: usize) -> Self {
        assert!(
            offset + width <= stride || (data.is_empty() && width == 0),
            "strided row overruns its record: offset {offset} + width {width} > stride {stride}"
        );
        StridedRows {
            data,
            stride,
            offset,
            width,
        }
    }

    /// Number of complete records in the slab.
    pub fn len(&self) -> usize {
        self.data.len().checked_div(self.stride).unwrap_or(0)
    }

    /// Whether the slab holds no complete record.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Width of each row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Row `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of bounds.
    pub fn row(&self, p: usize) -> &'a [f32] {
        let start = p * self.stride + self.offset;
        &self.data[start..start + self.width]
    }
}

/// Reference for [`matvec_strided_into`]: one sequential ascending-k dot
/// per selected row — the per-score arithmetic of per-token attention,
/// kept in-tree so tests can assert the blocked kernel is bit-identical.
///
/// # Panics
///
/// Panics if `out.len() != idx.len()` or `x.len() != rows.width()`.
pub fn matvec_strided_naive(x: &[f32], rows: &StridedRows<'_>, idx: &[usize], out: &mut [f32]) {
    assert_eq!(out.len(), idx.len(), "strided matvec output len mismatch");
    assert_eq!(x.len(), rows.width(), "strided matvec input width mismatch");
    for (o, &p) in out.iter_mut().zip(idx) {
        *o = nt_dot(x, rows.row(p));
    }
}

/// `out[i] = x · rows[idx[i]]` — the scores kernel of batched attention:
/// the query dotted against every visible cached key, through the 8-way
/// register blocking of the `nt` GEMM (each selected row keeps its own
/// accumulator advancing in strict ascending-k order, so every score is
/// **bit-identical** to [`matvec_strided_naive`]'s one-at-a-time dot,
/// while the independent chains hide FMA latency and each `x` element is
/// loaded once per 8 scores).
///
/// # Panics
///
/// Panics if `out.len() != idx.len()` or `x.len() != rows.width()`.
pub fn matvec_strided_into(x: &[f32], rows: &StridedRows<'_>, idx: &[usize], out: &mut [f32]) {
    matvec_strided_into_with_backend(x, rows, idx, out, active_backend());
}

/// [`matvec_strided_into`] with the kernel backend pinned explicitly.
/// Bit-identical at any backend.
///
/// # Panics
///
/// Panics if `out.len() != idx.len()` or `x.len() != rows.width()`,
/// or if `backend` is unavailable.
// analyze: no_alloc
pub fn matvec_strided_into_with_backend(
    x: &[f32],
    rows: &StridedRows<'_>,
    idx: &[usize],
    out: &mut [f32],
    backend: KernelBackend,
) {
    backend.assert_available();
    assert_eq!(out.len(), idx.len(), "strided matvec output len mismatch");
    assert_eq!(x.len(), rows.width(), "strided matvec input width mismatch");
    let mut i = 0;
    while i + NT_COLS <= idx.len() {
        let sel: [&[f32]; NT_COLS] = std::array::from_fn(|u| rows.row(idx[i + u]));
        let mut acc = [0.0f32; NT_COLS];
        nt_micro_1xu_b(backend, x, &sel, &mut acc);
        out[i..i + NT_COLS].copy_from_slice(&acc);
        i += NT_COLS;
    }
    for (o, &p) in out[i..].iter_mut().zip(&idx[i..]) {
        *o = nt_dot(x, rows.row(p));
    }
}

/// How many weighted rows [`weighted_rows_into`] folds per pass: enough to
/// amortize the `out` load/store round-trip, few enough to stay in
/// registers.
pub(crate) const WR_ROWS: usize = 4;

/// Backend dispatch for the [`WR_ROWS`]-row weighted-accumulate block.
/// Callers must ensure every `sel[u]` has at least `out.len()` elements.
#[inline]
fn wr_block_b(
    backend: KernelBackend,
    wv: &[f32; WR_ROWS],
    sel: &[&[f32]; WR_ROWS],
    out: &mut [f32],
) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    match backend {
        // SAFETY: `backend` is available (asserted by the entry point that
        // took it, or from `active_backend`), and the caller guarantees the row lengths.
        KernelBackend::Avx2 => return unsafe { crate::simd::x86::wr_block_avx2(wv, sel, out) },
        KernelBackend::Scalar => {}
    }
    let _ = backend;
    for (j, o) in out.iter_mut().enumerate() {
        let mut acc = *o;
        for u in 0..WR_ROWS {
            acc += wv[u] * sel[u][j];
        }
        *o = acc;
    }
}

/// Reference for [`weighted_rows_into`]: `out[j] = Σ_i w[i] ·
/// rows[idx[i]][j]`, accumulating positions one at a time in ascending-`i`
/// order — the AXPY loop of per-token attention's AV product.
///
/// # Panics
///
/// Panics if `w.len() != idx.len()` or `out.len() != rows.width()`.
pub fn weighted_rows_naive(w: &[f32], rows: &StridedRows<'_>, idx: &[usize], out: &mut [f32]) {
    assert_eq!(w.len(), idx.len(), "weighted rows weight len mismatch");
    assert_eq!(
        out.len(),
        rows.width(),
        "weighted rows output width mismatch"
    );
    out.fill(0.0);
    for (&wi, &p) in w.iter().zip(idx) {
        for (o, &v) in out.iter_mut().zip(rows.row(p)) {
            *o += wi * v;
        }
    }
}

/// `out[j] = Σ_i w[i] · rows[idx[i]][j]` — the AV kernel of batched
/// attention: the softmaxed scores folded against the visible cached
/// values. Rows are consumed 4 at a time with each output element carried
/// in a register across the block, but every element's adds still happen
/// one position at a time in ascending-`i` order — **bit-identical** to
/// [`weighted_rows_naive`] (and hence to the per-token AXPY), just without
/// 3 of every 4 load/store round-trips on `out`.
///
/// # Panics
///
/// Panics if `w.len() != idx.len()` or `out.len() != rows.width()`.
pub fn weighted_rows_into(w: &[f32], rows: &StridedRows<'_>, idx: &[usize], out: &mut [f32]) {
    weighted_rows_into_with_backend(w, rows, idx, out, active_backend());
}

/// [`weighted_rows_into`] with the kernel backend pinned explicitly.
/// Bit-identical at any backend.
///
/// # Panics
///
/// Panics if `w.len() != idx.len()` or `out.len() != rows.width()`,
/// or if `backend` is unavailable.
// analyze: no_alloc
pub fn weighted_rows_into_with_backend(
    w: &[f32],
    rows: &StridedRows<'_>,
    idx: &[usize],
    out: &mut [f32],
    backend: KernelBackend,
) {
    backend.assert_available();
    assert_eq!(w.len(), idx.len(), "weighted rows weight len mismatch");
    assert_eq!(
        out.len(),
        rows.width(),
        "weighted rows output width mismatch"
    );
    out.fill(0.0);
    let mut i = 0;
    while i + WR_ROWS <= idx.len() {
        let sel: [&[f32]; WR_ROWS] = std::array::from_fn(|u| rows.row(idx[i + u]));
        let wv: [f32; WR_ROWS] = std::array::from_fn(|u| w[i + u]);
        wr_block_b(backend, &wv, &sel, out);
        i += WR_ROWS;
    }
    for (&wi, &p) in w[i..].iter().zip(&idx[i..]) {
        axpy_b(backend, wi, rows.row(p), out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_nt_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        // Bᵀ of B = [[5, 6], [7, 8]].
        let bt = Matrix::from_rows(&[&[5.0, 7.0], &[6.0, 8.0]]);
        let c = a.matmul_nt(&bt);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn identity_is_neutral() {
        let a = Matrix::from_fn(4, 4, |r, c| (r + 2 * c) as f32);
        assert_eq!(a.matmul_nt(&Matrix::identity(4)), a);
        assert_eq!(Matrix::identity(4).matmul_nt(&a), a.transpose());
    }

    #[test]
    fn transpose_round_trips() {
        let a = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f32);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(4, 2), a.get(2, 4));
    }

    #[test]
    fn rows_are_contiguous_views() {
        let mut a = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
        assert_eq!(a.row(1), &[3.0, 4.0, 5.0]);
        a.row_mut(0)[2] = 9.0;
        assert_eq!(a.get(0, 2), 9.0);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_nt_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 4);
        let _ = a.matmul_nt(&b);
    }

    #[test]
    #[should_panic(expected = "buffer size mismatch")]
    fn from_vec_validates_length() {
        let _ = Matrix::from_vec(2, 2, vec![0.0; 5]);
    }

    #[test]
    fn zero_times_nan_propagates() {
        // The old kernel skipped a == 0.0 rows, silently turning 0·NaN
        // into 0 and making runtime data-dependent. IEEE semantics now.
        let a = Matrix::from_rows(&[&[0.0, 1.0]]);
        let bt = Matrix::from_rows(&[&[f32::NAN, 2.0]]);
        assert!(a.matmul_nt(&bt).get(0, 0).is_nan(), "0·NaN must propagate");
    }

    #[test]
    fn tiled_kernels_cross_tile_boundaries_exactly() {
        // Shapes straddling every tile edge (TILE_I=16, TILE_J=64) must
        // still match the naive kernel bit-for-bit.
        let a = Matrix::from_fn(17, 65, |r, c| ((r * 65 + c) as f32 * 0.37).sin());
        let bt = Matrix::from_fn(66, 65, |r, c| ((r * 65 + c) as f32 * 0.11).cos());
        assert_eq!(a.matmul_nt(&bt), a.matmul_nt_naive(&bt));
    }

    #[test]
    fn empty_shapes_are_handled() {
        let a = Matrix::zeros(0, 5);
        let bt = Matrix::zeros(3, 5);
        assert_eq!(a.matmul_nt(&bt).rows(), 0);
        let c = Matrix::zeros(4, 0);
        let dt = Matrix::zeros(3, 0);
        let out = c.matmul_nt(&dt); // inner dimension zero: all-zero result
        assert_eq!(out, Matrix::zeros(4, 3));
    }

    #[test]
    fn resize_reuses_capacity_without_initializing() {
        let mut m = Matrix::from_fn(4, 8, |r, c| (r * 8 + c) as f32);
        let cap = m.data.capacity();
        m.resize(2, 8);
        assert_eq!((m.rows(), m.cols()), (2, 8));
        assert_eq!(m.as_slice().len(), 16);
        assert_eq!(m.data.capacity(), cap, "shrinking resize reallocated");
        m.resize(4, 8);
        assert_eq!(m.data.capacity(), cap, "regrow within capacity reallocated");
        assert_eq!(m.as_slice().len(), 32, "regrow must restore the length");
    }

    #[test]
    fn strided_rows_views_the_right_slices() {
        // 3 records of stride 4; rows are the middle two columns.
        let slab: Vec<f32> = (0..12).map(|i| i as f32).collect();
        let rows = StridedRows::new(&slab, 4, 1, 2);
        assert_eq!(rows.len(), 3);
        assert!(!rows.is_empty());
        assert_eq!(rows.width(), 2);
        assert_eq!(rows.row(0), &[1.0, 2.0]);
        assert_eq!(rows.row(2), &[9.0, 10.0]);
        assert!(StridedRows::new(&[], 4, 0, 2).is_empty());
    }

    #[test]
    #[should_panic(expected = "overruns")]
    fn strided_rows_rejects_overrunning_width() {
        let slab = [0.0f32; 8];
        let _ = StridedRows::new(&slab, 4, 2, 3);
    }

    #[test]
    fn strided_matvec_matches_per_row_dots() {
        let slab: Vec<f32> = (0..40).map(|i| ((i * 7) as f32 * 0.1).sin()).collect();
        let rows = StridedRows::new(&slab, 8, 2, 5);
        let x: Vec<f32> = (0..5).map(|i| (i as f32 * 0.3).cos()).collect();
        // 5 selected records: crosses the NT_COLS remainder boundary only
        // when > 8, so also try 10 via duplicated indices.
        for idx in [vec![0usize, 2, 4], vec![4, 3, 2, 1, 0, 1, 2, 3, 4, 0]] {
            let mut blocked = vec![0.0f32; idx.len()];
            let mut naive = vec![0.0f32; idx.len()];
            matvec_strided_into(&x, &rows, &idx, &mut blocked);
            matvec_strided_naive(&x, &rows, &idx, &mut naive);
            assert_eq!(blocked, naive);
            for (o, &p) in naive.iter().zip(&idx) {
                assert_eq!(*o, nt_dot(&x, rows.row(p)));
            }
        }
    }

    #[test]
    fn weighted_rows_matches_sequential_axpy() {
        let slab: Vec<f32> = (0..48).map(|i| ((i * 3) as f32 * 0.2).cos()).collect();
        let rows = StridedRows::new(&slab, 6, 0, 6);
        let idx = [0usize, 3, 1, 7, 2, 5];
        let w: Vec<f32> = (0..6).map(|i| 0.1 + i as f32 * 0.05).collect();
        let mut blocked = vec![9.0f32; 6]; // pre-poisoned: kernels overwrite
        let mut naive = vec![-9.0f32; 6];
        weighted_rows_into(&w, &rows, &idx, &mut blocked);
        weighted_rows_naive(&w, &rows, &idx, &mut naive);
        assert_eq!(blocked, naive);
        // Hand-rolled ascending-position AXPY.
        let mut expect = vec![0.0f32; 6];
        for (&wi, &p) in w.iter().zip(&idx) {
            for (e, &v) in expect.iter_mut().zip(rows.row(p)) {
                *e += wi * v;
            }
        }
        assert_eq!(naive, expect);
    }

    #[test]
    fn strided_kernels_handle_empty_selections() {
        let slab = [1.0f32; 8];
        let rows = StridedRows::new(&slab, 4, 0, 4);
        let mut out: Vec<f32> = Vec::new();
        matvec_strided_into(&[0.5; 4], &rows, &[], &mut out);
        assert!(out.is_empty());
        let mut av = vec![3.0f32; 4];
        weighted_rows_into(&[], &rows, &[], &mut av);
        assert_eq!(av, vec![0.0; 4], "empty selection must zero the output");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn small_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
        proptest::collection::vec(-10.0f32..10.0, rows * cols)
            .prop_map(move |v| Matrix::from_vec(rows, cols, v))
    }

    proptest! {
        /// (A·Bᵀ)·Cᵀ == A·(C·B)ᵀ within float tolerance.
        #[test]
        fn matmul_is_associative(
            a in small_matrix(3, 4),
            b in small_matrix(2, 4),
            c in small_matrix(5, 2),
        ) {
            let left = a.matmul_nt(&b).matmul_nt(&c);
            let right = a.matmul_nt(&c.matmul_nt(&b.transpose()));
            prop_assert!(left.max_abs_diff(&right) < 1e-2);
        }

        /// Transposition swaps the operands: (A·Bᵀ)ᵀ == B·Aᵀ exactly, since
        /// each element is the same ascending-k dot either way.
        #[test]
        fn transpose_reverses_product(
            a in small_matrix(3, 4),
            b in small_matrix(2, 4),
        ) {
            prop_assert_eq!(a.matmul_nt(&b).transpose(), b.matmul_nt(&a));
        }

        /// The blocked strided-scores and AV kernels are bit-identical to
        /// their naive references for arbitrary slab shapes, head offsets,
        /// and row selections — including empty and single-row selections
        /// (the group-of-one and first-token attention cases).
        #[test]
        fn strided_kernels_match_naive_exactly(
            n_records in 0usize..20,
            stride in 1usize..12,
            n_sel in 0usize..30,
            sel_seed in 0usize..1000,
            raw in proptest::collection::vec(-4.0f32..4.0, 20 * 12),
            x in proptest::collection::vec(-4.0f32..4.0, 12),
            w in proptest::collection::vec(-2.0f32..2.0, 30),
        ) {
            // Derive offset/width consistent with the stride.
            let offset = sel_seed % stride;
            let width = (stride - offset).min(1 + sel_seed % 8);
            let slab = &raw[..n_records * stride];
            let rows = StridedRows::new(slab, stride, offset, width);
            let idx: Vec<usize> = if n_records == 0 {
                Vec::new()
            } else {
                (0..n_sel).map(|i| (i * 31 + sel_seed) % n_records).collect()
            };
            let mut blocked = vec![0.0f32; idx.len()];
            let mut naive = vec![0.0f32; idx.len()];
            matvec_strided_into(&x[..width], &rows, &idx, &mut blocked);
            matvec_strided_naive(&x[..width], &rows, &idx, &mut naive);
            prop_assert_eq!(blocked, naive);
            let mut av_blocked = vec![1.0f32; width];
            let mut av_naive = vec![-1.0f32; width];
            weighted_rows_into(&w[..idx.len()], &rows, &idx, &mut av_blocked);
            weighted_rows_naive(&w[..idx.len()], &rows, &idx, &mut av_naive);
            prop_assert_eq!(av_blocked, av_naive);
        }

        /// The AVX2 backend, where available, is byte-identical to the
        /// scalar backend for the GEMM and the matvec, on arbitrary shapes
        /// including empty, 1-row, and non-multiple-of-8 k/n tails. (The
        /// scalar backend is the reference; the tiled-vs-naive proptest
        /// pins scalar itself.)
        #[test]
        fn simd_backends_match_scalar_exactly(
            m in 0usize..35,
            k in 0usize..70,
            n in 0usize..70,
            raw_a in proptest::collection::vec(-10.0f32..10.0, 35 * 70),
            raw_b in proptest::collection::vec(-10.0f32..10.0, 70 * 70),
        ) {
            let a = Matrix::from_vec(m, k, raw_a[..m * k].to_vec());
            let bt = Matrix::from_vec(n, k, raw_b[..n * k].to_vec());
            let mut nt_ref = Matrix::zeros(m, n);
            a.matmul_nt_into_with_backend(&bt, &mut nt_ref, KernelBackend::Scalar);
            let mut mv_ref = vec![0.0f32; n];
            if m > 0 {
                bt.matvec_into_with_backend(a.row(0), &mut mv_ref, KernelBackend::Scalar);
            }
            if KernelBackend::Avx2.is_available() {
                let backend = KernelBackend::Avx2;
                let mut out = Matrix::zeros(m, n);
                a.matmul_nt_into_with_backend(&bt, &mut out, backend);
                prop_assert_eq!(&out, &nt_ref, "nt {}", backend);
                if m > 0 {
                    let mut mv = vec![0.0f32; n];
                    bt.matvec_into_with_backend(a.row(0), &mut mv, backend);
                    prop_assert_eq!(&mv, &mv_ref, "matvec {}", backend);
                }
            }
        }

        /// The strided attention kernels are byte-identical across
        /// backends too, for arbitrary slab shapes and selections.
        #[test]
        fn simd_strided_kernels_match_scalar_exactly(
            n_records in 0usize..20,
            stride in 1usize..12,
            n_sel in 0usize..30,
            sel_seed in 0usize..1000,
            raw in proptest::collection::vec(-4.0f32..4.0, 20 * 12),
            x in proptest::collection::vec(-4.0f32..4.0, 12),
            w in proptest::collection::vec(-2.0f32..2.0, 30),
        ) {
            let offset = sel_seed % stride;
            let width = (stride - offset).min(1 + sel_seed % 8);
            let slab = &raw[..n_records * stride];
            let rows = StridedRows::new(slab, stride, offset, width);
            let idx: Vec<usize> = if n_records == 0 {
                Vec::new()
            } else {
                (0..n_sel).map(|i| (i * 31 + sel_seed) % n_records).collect()
            };
            let mut mv_ref = vec![0.0f32; idx.len()];
            matvec_strided_into_with_backend(
                &x[..width], &rows, &idx, &mut mv_ref, KernelBackend::Scalar,
            );
            let mut av_ref = vec![0.0f32; width];
            weighted_rows_into_with_backend(
                &w[..idx.len()], &rows, &idx, &mut av_ref, KernelBackend::Scalar,
            );
            if KernelBackend::Avx2.is_available() {
                let backend = KernelBackend::Avx2;
                let mut mv = vec![1.0f32; idx.len()];
                matvec_strided_into_with_backend(&x[..width], &rows, &idx, &mut mv, backend);
                prop_assert_eq!(&mv, &mv_ref, "scores {}", backend);
                let mut av = vec![-1.0f32; width];
                weighted_rows_into_with_backend(&w[..idx.len()], &rows, &idx, &mut av, backend);
                prop_assert_eq!(&av, &av_ref, "av {}", backend);
            }
        }

        /// Tiled A·Bᵀ is bit-identical to the naive kernel on arbitrary
        /// shapes, including empty and 1-row matrices.
        #[test]
        fn tiled_matmul_nt_matches_naive_exactly(
            m in 0usize..35,
            k in 0usize..70,
            n in 0usize..70,
            raw_a in proptest::collection::vec(-10.0f32..10.0, 35 * 70),
            raw_b in proptest::collection::vec(-10.0f32..10.0, 70 * 70),
        ) {
            let a = Matrix::from_vec(m, k, raw_a[..m * k].to_vec());
            let b = Matrix::from_vec(n, k, raw_b[..n * k].to_vec());
            prop_assert_eq!(&a.matmul_nt(&b), &a.matmul_nt_naive(&b));
        }
    }
}
