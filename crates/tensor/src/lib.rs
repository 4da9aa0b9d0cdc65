//! # klotski-tensor — dense kernels and quantization
//!
//! The minimal numerical substrate for the native (really-executed) MoE
//! path: row-major `f32` [`matrix::Matrix`] with matmul variants, the
//! transformer activation/normalization kernels in [`ops`], HQQ-style
//! group-wise quantization in [`quant`], and reproducible initialization in
//! [`init`]. The GEMM micro-kernels, the 4-bit decode and the quantizer's
//! code pass dispatch at run time to the SSE2 or AVX2 backends in
//! [`simd`], byte-identical to scalar; the default `simd` feature compiles
//! them in.
//!
//! ```
//! use klotski_tensor::init::xavier_matrix;
//! use klotski_tensor::quant::{QuantConfig, QuantizedMatrix};
//!
//! let w = xavier_matrix(16, 64, 7);
//! let q = QuantizedMatrix::quantize(&w, QuantConfig::paper_default());
//! assert!(w.max_abs_diff(&q.dequantize()) <= q.error_bound());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod init;
pub mod matrix;
pub mod ops;
pub mod quant;
pub mod simd;

/// Convenience re-exports of the most used types.
pub mod prelude {
    pub use crate::init::{norm_weight, seeded_matrix, sub_seed, xavier_matrix};
    pub use crate::matrix::Matrix;
    pub use crate::ops::{argmax, relu, rmsnorm_inplace, silu, softmax_inplace, top_k};
    pub use crate::quant::{QuantConfig, QuantizedMatrix};
    pub use crate::simd::{active_backend, detected_backend, KernelBackend};
}
