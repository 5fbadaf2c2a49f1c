//! Triangular solves.
//!
//! The SAP solvers apply their preconditioner as `R⁻¹` (QR) or implicitly via
//! `V·Σ⁻¹` (SVD); the QR path needs forward/back substitution with the dense
//! triangular factor of the sketch, in both plain and transposed forms
//! (LSQR applies `M` and `Mᵀ` per iteration).

use crate::{Matrix, Scalar};

/// Solve `U·x = b` for upper-triangular `U`, in place in `b`.
///
/// # Panics
/// On dimension mismatch or a zero diagonal entry.
pub fn solve_upper<T: Scalar>(u: &Matrix<T>, b: &mut [T]) {
    let n = u.ncols();
    assert_eq!(u.nrows(), n, "U must be square");
    assert_eq!(b.len(), n, "rhs length mismatch");
    for j in (0..n).rev() {
        let d = u[(j, j)];
        assert!(d != T::ZERO, "singular triangular factor at {j}");
        let xj = b[j] / d;
        b[j] = xj;
        // Update remaining rhs with column j above the diagonal.
        let col = &u.col(j)[..j];
        for (bi, &uij) in b[..j].iter_mut().zip(col.iter()) {
            *bi = (-uij).mul_add(xj, *bi);
        }
    }
}

/// Solve `Uᵀ·x = b` (forward substitution through the upper factor), in place.
pub fn solve_upper_t<T: Scalar>(u: &Matrix<T>, b: &mut [T]) {
    let n = u.ncols();
    assert_eq!(u.nrows(), n, "U must be square");
    assert_eq!(b.len(), n, "rhs length mismatch");
    for j in 0..n {
        // Row j of Uᵀ is column j of U: entries U[0..j, j] multiply x[0..j].
        let col = &u.col(j)[..j];
        let mut acc = b[j];
        for (&uij, &xi) in col.iter().zip(b[..j].iter()) {
            acc = (-uij).mul_add(xi, acc);
        }
        let d = u[(j, j)];
        assert!(d != T::ZERO, "singular triangular factor at {j}");
        b[j] = acc / d;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn upper3() -> Matrix<f64> {
        Matrix::from_row_major(3, 3, &[2.0, 1.0, -1.0, 0.0, 3.0, 2.0, 0.0, 0.0, 4.0])
    }

    #[test]
    fn upper_solve_round_trip() {
        let u = upper3();
        let x_true = [1.0, -2.0, 0.5];
        let mut b = [0.0; 3];
        u.matvec(&x_true, &mut b);
        solve_upper(&u, &mut b);
        for (a, e) in b.iter().zip(x_true.iter()) {
            assert!((a - e).abs() < 1e-14);
        }
    }

    #[test]
    fn upper_t_solve_round_trip() {
        let u = upper3();
        let ut = u.transpose();
        let x_true = [0.25, 3.0, -1.0];
        let mut b = [0.0; 3];
        ut.matvec(&x_true, &mut b);
        solve_upper_t(&u, &mut b);
        for (a, e) in b.iter().zip(x_true.iter()) {
            assert!((a - e).abs() < 1e-14);
        }
    }

    #[test]
    #[should_panic(expected = "singular")]
    fn zero_diagonal_panics() {
        let mut u = upper3();
        u[(1, 1)] = 0.0;
        let mut b = [1.0, 1.0, 1.0];
        solve_upper(&u, &mut b);
    }

    #[test]
    fn identity_solves_are_noops() {
        let i = Matrix::<f64>::identity(4);
        let mut b = [1.0, 2.0, 3.0, 4.0];
        let orig = b;
        solve_upper(&i, &mut b);
        assert_eq!(b, orig);
        solve_upper_t(&i, &mut b);
        assert_eq!(b, orig);
    }
}
