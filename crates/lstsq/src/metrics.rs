//! The solution-quality metric of paper Table X.

use sparsekit::CscMatrix;

/// The paper's backward-error metric for a candidate least-squares solution:
///
/// ```text
/// Error(x) = ‖Aᵀ(Ax − b)‖₂ / (‖A‖_F · ‖Ax − b‖₂)
/// ```
///
/// Zero residual returns 0 (the solution is exact and the metric's
/// denominator degenerates).
pub fn backward_error(a: &CscMatrix<f64>, x: &[f64], b: &[f64]) -> f64 {
    let (m, n) = (a.nrows(), a.ncols());
    assert_eq!(x.len(), n, "x length mismatch");
    assert_eq!(b.len(), m, "b length mismatch");
    let mut r = vec![0.0; m];
    a.spmv(x, &mut r);
    for (ri, &bi) in r.iter_mut().zip(b.iter()) {
        *ri -= bi;
    }
    let rnorm: f64 = r.iter().map(|v| v * v).sum::<f64>().sqrt();
    if rnorm == 0.0 {
        return 0.0;
    }
    let mut atr = vec![0.0; n];
    a.spmv_t(&r, &mut atr);
    let atr_norm: f64 = atr.iter().map(|v| v * v).sum::<f64>().sqrt();
    atr_norm / (a.fro_norm() * rnorm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsekit::CooMatrix;

    #[test]
    fn exact_solution_scores_zero() {
        let a = CscMatrix::<f64>::identity(4);
        let x = [1.0, 2.0, 3.0, 4.0];
        let err = backward_error(&a, &x, &x);
        assert_eq!(err, 0.0);
    }

    #[test]
    fn least_squares_optimum_scores_small() {
        // x = argmin for the 3x2 toy problem from the QR tests: Aᵀr = 0.
        let mut coo = CooMatrix::new(3, 2);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(1, 1, 1.0).unwrap();
        coo.push(2, 0, 1.0).unwrap();
        coo.push(2, 1, 1.0).unwrap();
        let a = coo.to_csc().unwrap();
        let b = [1.0, 1.0, 0.0];
        let x = [1.0 / 3.0, 1.0 / 3.0];
        let err = backward_error(&a, &x, &b);
        assert!(err < 1e-15, "optimal point must score ~0, got {err}");
        // A perturbed point scores worse.
        let bad = [0.5, 0.1];
        assert!(backward_error(&a, &bad, &b) > 1e-2);
    }
}
