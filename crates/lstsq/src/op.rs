//! Linear-operator abstraction for the iterative solvers.
//!
//! LSQR only needs `y = A·x` and `y = Aᵀ·x`. Right preconditioning composes
//! an operator with a [`crate::Preconditioner`]: the solver iterates on
//! `A·M` and the solution is recovered as `x = M·y`.

use crate::precond::Preconditioner;
use sparsekit::CscMatrix;

/// A (possibly implicit) linear operator with transpose application.
///
/// `&mut self` receivers let implementors keep scratch buffers.
pub trait LinOp {
    /// Number of rows.
    fn nrows(&self) -> usize;
    /// Number of columns.
    fn ncols(&self) -> usize;
    /// `y = A·x`.
    fn apply(&mut self, x: &[f64], y: &mut [f64]);
    /// `y = Aᵀ·x`.
    fn apply_t(&mut self, x: &[f64], y: &mut [f64]);
}

/// A sparse CSC matrix viewed as an operator.
pub struct CscOp<'a> {
    a: &'a CscMatrix<f64>,
}

impl<'a> CscOp<'a> {
    /// Wrap a CSC matrix.
    pub fn new(a: &'a CscMatrix<f64>) -> Self {
        Self { a }
    }
}

impl LinOp for CscOp<'_> {
    fn nrows(&self) -> usize {
        self.a.nrows()
    }

    fn ncols(&self) -> usize {
        self.a.ncols()
    }

    fn apply(&mut self, x: &[f64], y: &mut [f64]) {
        self.a.spmv(x, y);
    }

    fn apply_t(&mut self, x: &[f64], y: &mut [f64]) {
        self.a.spmv_t(x, y);
    }
}

/// Right-preconditioned operator `A∘M`: `apply(y) = A(M·y)`.
///
/// The preconditioner may reduce the dimension (SAP-SVD with dropped
/// singular values maps `R^r → R^n`), so `ncols` is `M`'s input dimension.
pub struct PrecondOp<'a, A, M: ?Sized> {
    a: &'a mut A,
    m: &'a M,
    scratch: Vec<f64>,
}

impl<'a, A: LinOp, M: Preconditioner + ?Sized> PrecondOp<'a, A, M> {
    /// Compose `a` with right preconditioner `m`.
    pub fn new(a: &'a mut A, m: &'a M) -> Self {
        let n = a.ncols();
        assert_eq!(
            m.output_dim(),
            n,
            "preconditioner output dim must match A's columns"
        );
        Self {
            a,
            m,
            scratch: vec![0.0; n],
        }
    }
}

impl<A: LinOp, M: Preconditioner + ?Sized> LinOp for PrecondOp<'_, A, M> {
    fn nrows(&self) -> usize {
        self.a.nrows()
    }

    fn ncols(&self) -> usize {
        self.m.input_dim()
    }

    fn apply(&mut self, x: &[f64], y: &mut [f64]) {
        self.m.apply(x, &mut self.scratch);
        self.a.apply(&self.scratch, y);
    }

    fn apply_t(&mut self, x: &[f64], y: &mut [f64]) {
        self.a.apply_t(x, &mut self.scratch);
        self.m.apply_t(&self.scratch, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precond::{DiagPrecond, Preconditioner};
    use sparsekit::CooMatrix;

    fn small() -> CscMatrix<f64> {
        let mut coo = CooMatrix::new(3, 2);
        coo.push(0, 0, 2.0).unwrap();
        coo.push(2, 1, 3.0).unwrap();
        coo.push(1, 0, -1.0).unwrap();
        coo.to_csc().unwrap()
    }

    #[test]
    fn csc_op_matches_spmv() {
        let a = small();
        let mut op = CscOp::new(&a);
        let mut y = [0.0; 3];
        op.apply(&[1.0, 2.0], &mut y);
        assert_eq!(y, [2.0, -1.0, 6.0]);
        let mut z = [0.0; 2];
        op.apply_t(&[1.0, 1.0, 1.0], &mut z);
        assert_eq!(z, [1.0, 3.0]);
    }

    #[test]
    fn precond_op_composes() {
        let a = small();
        let m = DiagPrecond::from_diag(vec![0.5, 2.0]);
        let mut aop = CscOp::new(&a);
        let mut op = PrecondOp::new(&mut aop, &m);
        assert_eq!(op.nrows(), 3);
        assert_eq!(op.ncols(), 2);
        let mut y = [0.0; 3];
        op.apply(&[1.0, 1.0], &mut y); // A·diag(0.5,2)·[1,1] = A·[0.5,2]
        assert_eq!(y, [1.0, -0.5, 6.0]);
        // Transpose: M ᵀAᵀ.
        let mut z = [0.0; 2];
        op.apply_t(&[1.0, 0.0, 1.0], &mut z);
        // Aᵀ[1,0,1] = [2, 3]; Mᵀ = diag → [1, 6].
        assert_eq!(z, [1.0, 6.0]);
        let _ = m.input_dim();
    }

    #[test]
    #[should_panic(expected = "output dim")]
    fn mismatched_preconditioner_rejected() {
        let a = small();
        let m = DiagPrecond::from_diag(vec![1.0; 5]);
        let mut aop = CscOp::new(&a);
        let _ = PrecondOp::new(&mut aop, &m);
    }
}
