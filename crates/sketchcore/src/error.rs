//! Typed failures of the sketching layer.
//!
//! The plain drivers ([`crate::sketch_alg3`] & friends) keep their
//! panic-on-misuse contract for the benchmarks; the hardened entry points
//! in [`crate::robust`] surface every failure as a [`SketchError`] instead,
//! so the SAP self-healing loop (lstsq) can distinguish transient faults
//! (retry) from structural ones (report).

use sparsekit::SparseError;

/// Why a hardened sketch computation failed.
#[derive(Debug)]
pub enum SketchError {
    /// The sparse input violates a CSC/CSR invariant or carries NaN/Inf.
    InvalidInput(SparseError),
    /// Operand shapes disagree.
    DimensionMismatch {
        /// What was being matched (e.g. `"rhs length"`).
        what: &'static str,
        /// Expected extent.
        expected: usize,
        /// Actual extent.
        got: usize,
    },
    /// The computed sketch contains a non-finite entry (overflow in the
    /// accumulation, or an injected `sketch/nan_stream` fault).
    NonFiniteSketch {
        /// Row of the first offending entry of `Â`.
        row: usize,
        /// Column of the first offending entry of `Â`.
        col: usize,
    },
    /// The sketch outputs (`k·d·n` scalars) exceed the memory budget; the
    /// check runs before anything is allocated.
    BudgetExceeded {
        /// Bytes of the outputs (`u64::MAX` when the count overflows).
        need_bytes: u64,
        /// The configured budget (`SKETCH_MEM_BUDGET`).
        budget_bytes: u64,
    },
    /// A parallel worker panicked; the payload was caught and stringified,
    /// thread-local telemetry was flushed before the unwind left parkit.
    WorkerPanic(String),
}

impl std::fmt::Display for SketchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SketchError::InvalidInput(e) => write!(f, "invalid sparse input: {e}"),
            SketchError::DimensionMismatch {
                what,
                expected,
                got,
            } => write!(
                f,
                "dimension mismatch: {what} expected {expected}, got {got}"
            ),
            SketchError::NonFiniteSketch { row, col } => {
                write!(f, "sketch entry ({row}, {col}) is not finite")
            }
            SketchError::BudgetExceeded {
                need_bytes,
                budget_bytes,
            } => write!(
                f,
                "memory budget exceeded: need {need_bytes} bytes, budget {budget_bytes} \
                 (SKETCH_MEM_BUDGET)"
            ),
            SketchError::WorkerPanic(msg) => write!(f, "parallel worker panicked: {msg}"),
        }
    }
}

impl std::error::Error for SketchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SketchError::InvalidInput(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SparseError> for SketchError {
    fn from(e: SparseError) -> Self {
        SketchError::InvalidInput(e)
    }
}

/// Render a caught panic payload for [`SketchError::WorkerPanic`].
pub fn panic_payload_to_string(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
