//! # sparse-sketch — façade crate
//!
//! Re-exports the full reproduction of Liang, Murray, Buluç & Demmel,
//! *"Fast multiplication of random dense matrices with sparse matrices"*
//! (IPPS 2024): sketching SpMM kernels with on-the-fly random number
//! regeneration, the substrates they are built on, baselines, and the
//! sketch-and-precondition least-squares pipeline.
//!
//! See the individual crates for the details:
//!
//! * [`rngkit`] — seekable RNGs (xoshiro checkpoints, Philox counters) and
//!   entry distributions.
//! * [`sparsekit`] — CSC/CSR/COO/blocked-CSR sparse formats and I/O.
//! * [`densekit`] — dense matrices, QR, SVD, triangular solves.
//! * [`sketchcore`] — Algorithms 1, 3 and 4; parallel drivers; roofline model.
//! * [`baselines`] — materialized-`S` library-style SpMM baselines.
//! * [`lstsq`] — LSQR, sketch-and-precondition solvers, sparse QR.
//! * [`datagen`] — synthetic stand-ins for the paper's test matrices.

pub use baselines;
pub use datagen;
pub use densekit;
pub use lstsq;
pub use rngkit;
pub use sketchcore;
pub use sparsekit;

/// Crate version string (workspace-wide).
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
