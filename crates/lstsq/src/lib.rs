#![warn(missing_docs)]
//! # lstsq — least-squares solvers built on the sketching kernel
//!
//! The paper's §V-C pipeline: solve `min ‖Ax − b‖₂` for extremely tall
//! sparse `A` by *sketch-and-precondition* (SAP) — compute `Â = S·A` with the
//! regeneration kernel, factor the small dense sketch (QR, or SVD when the
//! problem is near rank-deficient), and run LSQR on the original `A`
//! preconditioned by the factor. Compared here, as in the paper:
//!
//! * [`solve_lsqr_d`] — LSQR with the diagonal column-equilibration
//!   preconditioner (`D_ii = 1/‖A_i‖₂`, with the ε-guard of §V-C1).
//! * [`try_solve_sap`] — SAP-QR and SAP-SVD (singular values below
//!   `σ_max/10¹²` dropped), with typed errors, a rank check that falls back
//!   from QR to SVD, and bounded retries.
//! * [`sparse_qr`] — a George–Heath row-Givens sparse QR **direct** solver
//!   standing in for SuiteSparseQR, with honest fill-in and Q-factor
//!   accounting for the Table XI memory comparison.
//!
//! The error metric of Table X, `‖Aᵀ(Ax−b)‖ / (‖A‖_F·‖Ax−b‖)`, lives in
//! [`metrics`].

pub mod error;
pub mod lsqr;
pub mod metrics;
pub mod op;
pub mod precond;
pub mod sap;
pub mod sparse_qr;

pub use error::SolveError;
pub use lsqr::{lsqr, LsqrOptions, LsqrResult, StopReason};
pub use metrics::backward_error;
pub use op::{CscOp, LinOp, PrecondOp};
pub use precond::{DiagPrecond, Preconditioner, SvdPrecond, UpperTriPrecond};
pub use sap::{
    solve_lsqr_d, try_solve_sap, try_solve_sap_with, RecoveryPolicy, SapFlavor, SapOptions,
    SapReport,
};
pub use sparse_qr::{sparse_qr_solve, SparseQrReport};
