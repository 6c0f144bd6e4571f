//! Deterministic, SIMD-friendly compute kernels for the GENIEx hot paths.
//!
//! Every inner loop in this workspace that matters for throughput — the
//! surrogate's two GEMVs per MVM, the functional simulator's batched
//! level-to-current GEMVs, and the training GEMMs behind `nn::Tensor` —
//! funnels through this crate. The sparse and element-wise kernels below
//! have no production caller; they stay benchmarked and law-checked for
//! the next iterative solver that needs them. The kernels are built around one idea:
//!
//! **Fix the floating-point accumulation order in the kernel spec, and
//! pick an order the compiler can vectorize.**
//!
//! A naive dot product accumulates sequentially (`acc += a[i] * b[i]`),
//! which is a single serial dependency chain the compiler must not
//! reorder (FP addition is not associative), so it cannot vectorize it.
//! The kernels here instead split every reduction into [`LANES`] (= 8)
//! independent accumulator lanes with a fixed final reduction tree:
//!
//! * lane `l` accumulates the products at indices `i ≡ l (mod 8)`, in
//!   ascending `i`;
//! * the lanes reduce as `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`.
//!
//! Each lane is its own serial chain, so the eight lanes advance in
//! lock-step as one vector multiply-add per block of 8 — exactly the
//! shape LLVM's autovectorizer turns into SIMD on any target — while
//! the result is a pure function of the input values: bit-identical
//! regardless of thread count, call site, batch position, or target
//! CPU (IEEE-754 arithmetic is deterministic; Rust never contracts
//! `mul`+`add` into FMA behind your back).
//!
//! The matrix kernels extend the same discipline:
//!
//! * [`gemm_nn`] (`C = A·B`) uses a 4×8 register-blocked micro-kernel
//!   over RHS panels packed 8 columns wide. Accumulation per output
//!   element runs in ascending-`k` order — the same chain as the naive
//!   `ikj` triple loop, so `gemm_nn` is bit-identical to it.
//! * [`gemm_nt`] (`C = A·Bᵀ`) is a dot-product kernel; it evaluates 4
//!   output columns per pass with the 8-lane split above.
//! * [`spmv_csr`] picks the order per CSR row from the row's length:
//!   sequential for rows with ≤ 8 entries (the crossbar-Jacobian norm,
//!   where lane padding would only add flops), the lane split by
//!   position within the row beyond that.
//! * [`SpmvPlan`] moves that decision to build time: it inspects the
//!   sparsity structure once and re-packs short-row matrices into
//!   SELL-8 slices (8 independent accumulator chains, no per-row
//!   branching), keeping the naive order for tiny matrices and the
//!   per-row dispatch for ragged ones. Iterative solvers build the
//!   plan once per pattern and amortize it across every product.
//!
//! Element-wise kernels ([`axpy_f64`], [`xpby_f64`]) have no reduction
//! and therefore no ordering freedom; they give iterative solvers a
//! single home for their vector ops.
//!
//! The [`naive`] module keeps straight-line reference implementations
//! of the *old* sequential order for ulp-bounded regression tests and
//! for the before/after benchmarks in `geniex-bench`.
//!
//! # Example
//!
//! ```
//! let a = [1.0f32; 19];
//! let b = [2.0f32; 19];
//! // 8-lane deterministic dot: same bits from any call site.
//! assert_eq!(kernels::dot_f32(&a, &b), 38.0);
//! ```

#![forbid(unsafe_code)]

mod dot;
mod gemm;
mod gemv;
pub mod naive;
pub mod scratch;
mod spmv;

pub use dot::{axpy_f64, dot_f32, dot_f64, dot_f64_f32, xpby_f64};
pub use gemm::{gemm_nn, gemm_nt, transpose_f32};
pub use gemv::{gemv_bias_relu_f32, gemv_into_f32, gemv_levels_scaled, gemv_levels_scaled_batch};
pub use spmv::{spmv_csr, SpmvPlan, SpmvStrategy};

/// Number of independent accumulator lanes in every reduction kernel.
///
/// Eight f32 lanes fill one AVX2 register (or two SSE2 registers);
/// eight f64 lanes fill two AVX2 registers. The value is part of the
/// numeric contract: changing it changes results.
pub const LANES: usize = 8;

/// Reduces eight f32 lanes with the fixed tree
/// `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`.
#[inline]
pub fn reduce_lanes_f32(acc: &[f32; LANES]) -> f32 {
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

/// Reduces eight f64 lanes with the fixed tree
/// `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`.
#[inline]
pub fn reduce_lanes_f64(acc: &[f64; LANES]) -> f64 {
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}
