#![warn(missing_docs)]
//! # densekit — dense linear algebra substrate
//!
//! Dense matrices and factorizations needed by the sketching pipeline:
//!
//! * [`Matrix`] — column-major dense storage (the sketch `Â = S·A` is dense,
//!   and column-major matches Algorithm 3's column-wise updates).
//! * [`qr`] — blocked Householder QR, pipelined over parkit workers for
//!   large sketches and bit-identical to the column-at-a-time loop at every
//!   thread count; the R factor of the sketch is the preconditioner in
//!   SAP-QR (paper §V-C1).
//! * [`svd`] — Golub–Kahan–Reinsch SVD (bidiagonalization + implicit-shift
//!   QR); `V·Σ⁻¹` from the sketch is the SAP-SVD preconditioner for
//!   rank-deficient problems, with singular values below
//!   `σ_max/10¹²` dropped exactly as the paper prescribes.
//! * [`solve`] — triangular solves used when applying preconditioners.
//! * [`cond`] — condition-number computation for the Table VIII properties.

pub mod cond;
pub mod matrix;
pub mod qr;
pub mod solve;
pub mod svd;

pub use cond::cond2;
pub use matrix::{densify, Matrix};
pub use qr::{householder_qr_r, HouseholderQr};
pub use solve::{solve_upper, solve_upper_t};
pub use svd::{svd_values, ThinSvd};

pub use sparsekit::Scalar;
