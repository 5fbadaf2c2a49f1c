#![warn(missing_docs)]
//! # sparsekit — sparse matrix formats for sketching SpMM
//!
//! The sparse-matrix substrate of the IPPS'24 sketching paper reproduction.
//! The paper takes **CSC as the default input format** (its Algorithm 3
//! consumes plain CSC), and Algorithm 4 requires an auxiliary **blocked CSR**
//! structure: the columns of `A` are partitioned into vertical blocks and
//! each block is stored row-major so that a kernel can stream a *row* of a
//! block while reusing one regenerated column of `S` (paper §II-B2, §III-B).
//!
//! Provided here:
//!
//! * [`CooMatrix`] — triplet builder format.
//! * [`CscMatrix`] / [`CsrMatrix`] — compressed column / row storage with
//!   validation, transposition and reference SpMV/SpMM.
//! * [`BlockedCsr`] — Algorithm 4's structure, with sequential and parallel
//!   (parkit) construction from CSC; construction cost matches the paper's
//!   `O(⌈n/b_n⌉·m + nnz(A))` analysis and is measured by `repro table4`
//!   and `repro table6`.
//! * [`io`] — Matrix Market exchange format reader/writer, so the real
//!   SuiteSparse matrices can be dropped into the harness when available.
//! * [`spy`] — sparsity-pattern rendering (Figure 5).

pub mod blocked;
pub mod coo;
pub mod corrupt;
pub mod csc;
pub mod csr;
pub mod io;
pub mod scalar;
pub mod spy;
pub(crate) mod validate;

pub use blocked::BlockedCsr;
pub use coo::CooMatrix;
pub use csc::CscMatrix;
pub use csr::CsrMatrix;
pub use scalar::Scalar;

/// Errors produced by sparse-format construction and I/O.
#[derive(Debug)]
pub enum SparseError {
    /// An index exceeded the declared dimensions.
    IndexOutOfBounds {
        /// Offending row.
        row: usize,
        /// Offending column.
        col: usize,
        /// Declared shape.
        shape: (usize, usize),
    },
    /// Structure arrays are inconsistent (lengths, endpoints).
    Malformed(String),
    /// A compressed pointer array decreased between consecutive slots.
    NonMonotonePtr {
        /// 0-based outer index (column for CSC, row for CSR) whose pointer
        /// exceeds its successor.
        at: usize,
    },
    /// Inner indices are not strictly increasing within an outer slot
    /// (covers both unsorted and duplicate indices).
    UnsortedIndices {
        /// Outer slot (column for CSC, row for CSR).
        outer: usize,
        /// Position within the slot at which order breaks.
        at: usize,
    },
    /// A stored value is NaN or infinite.
    NotFinite {
        /// Row of the offending entry.
        row: usize,
        /// Column of the offending entry.
        col: usize,
    },
    /// A Matrix Market parse problem, with 1-based line number.
    Parse {
        /// Line at which parsing failed.
        line: usize,
        /// Description.
        msg: String,
    },
    /// An underlying I/O failure.
    Io(std::io::Error),
}

impl std::fmt::Display for SparseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SparseError::IndexOutOfBounds { row, col, shape } => write!(
                f,
                "entry ({row}, {col}) outside matrix of shape {}x{}",
                shape.0, shape.1
            ),
            SparseError::Malformed(m) => write!(f, "malformed sparse structure: {m}"),
            SparseError::NonMonotonePtr { at } => {
                write!(f, "compressed pointer array decreases at slot {at}")
            }
            SparseError::UnsortedIndices { outer, at } => write!(
                f,
                "indices not strictly increasing in slot {outer} at position {at}"
            ),
            SparseError::NotFinite { row, col } => {
                write!(f, "non-finite value stored at ({row}, {col})")
            }
            SparseError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
            SparseError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for SparseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SparseError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SparseError {
    fn from(e: std::io::Error) -> Self {
        SparseError::Io(e)
    }
}

/// Workspace-wide result alias.
pub type Result<T> = std::result::Result<T, SparseError>;
