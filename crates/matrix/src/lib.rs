//! Dense linear-algebra substrate for the MapReduce matrix-inversion system.
//!
//! This crate provides everything the distributed algorithm builds on:
//!
//! * [`Matrix`] — a row-major dense `f64` matrix with block extraction and
//!   insertion (the paper's `[A][x1...x2][y1...y2]` notation, Section 2);
//! * [`lu`] — single-node LU decomposition with partial pivoting
//!   (Algorithm 1 of the paper), used on the master node for blocks of order
//!   at most `nb`;
//! * [`triangular`] — inverses of unit-lower and upper triangular matrices
//!   (Equation 4) and forward/back substitution;
//! * [`kernel`] — the BLAS-3 engine: one `gemm` entry point over pluggable
//!   backends (packed cache-blocked default, bit-exact naive reference),
//!   blocked TRSM, and blocked LU — `gemm`
//!   and `trsm` are re-exported at the crate root as the blessed entry
//!   points;
//! * `permutation` — the compact `S`-array representation of the pivot
//!   permutation matrix `P`;
//! * [`random`] — seeded random test-matrix generation (Section 7.1);
//! * [`io`] — the text and binary matrix codecs used for DFS storage
//!   (Table 3 reports both formats).
//!
//! The crate is deliberately free of any distributed-systems concerns; the
//! MapReduce framework and the pipeline live in sibling crates.

#![warn(missing_docs)]

pub mod block;
pub mod dense;
pub mod error;
pub mod io;
pub mod kernel;
pub mod lu;
pub mod norms;
mod permutation;
pub mod random;
pub mod triangular;

pub use dense::Matrix;
pub use error::{MatrixError, Result};
pub use kernel::{gemm, gemm_flops, notrans, trsm};
pub use permutation::Permutation;

/// Default absolute tolerance used by tests and accuracy checks.
///
/// The paper validates `I - M * M^-1` element-wise against `1e-5`
/// (Section 7.2); we adopt the same threshold as this crate's reference
/// tolerance.
pub const PAPER_ACCURACY: f64 = 1e-5;
