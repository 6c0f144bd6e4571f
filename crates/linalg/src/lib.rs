//! Dense linear-algebra substrate for the GENIEx reproduction.
//!
//! This crate provides exactly the numerical kernels the rest of the
//! workspace needs, implemented from scratch:
//!
//! * [`Mat`] — a dense, row-major `f64` matrix with the usual products,
//!   holding the analytical crossbar model's effective matrix.
//! * [`LuDecomposition`] — dense LU with partial pivoting. The
//!   conformance suite's reference Newton solves every crossbar
//!   correction with it, as an independent check on the circuit
//!   solver's block Gauss–Seidel.
//! * [`vec_ops`] — the slice helpers the above and the circuit solver
//!   share.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), linalg::LinalgError> {
//! use linalg::{LuDecomposition, Mat};
//!
//! // 2x2 system: [[4, 1], [1, 3]] x = [1, 2]
//! let a = Mat::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]])?;
//! let x = LuDecomposition::new(&a)?.solve(&[1.0, 2.0])?;
//! assert!((x[0] - 1.0 / 11.0).abs() < 1e-12);
//! assert!((x[1] - 7.0 / 11.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

mod error;
mod lu;
mod mat;
pub mod vec_ops;

pub use error::LinalgError;
pub use lu::LuDecomposition;
pub use mat::Mat;
