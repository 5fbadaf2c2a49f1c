//! Right preconditioners for LSQR.
//!
//! A right preconditioner is a map `M: R^r → R^n`; LSQR iterates on `A∘M`
//! and the solution is `x = M·y`. Three are used in the paper's comparison:
//!
//! * [`DiagPrecond`] — LSQR-D's column equilibration, `D_ii = 1/‖A_i‖₂`,
//!   guarded by the rule `D_ii = 1` when `‖A_i‖₂ ≤ ε·√n·maxᵢ‖A_i‖₂`.
//! * [`UpperTriPrecond`] — SAP-QR's `R⁻¹`, applied by triangular solves.
//! * [`SvdPrecond`] — SAP-SVD's `V·Σ⁻¹` with small singular values dropped;
//!   reduces the iterate dimension to the numerical rank.

use densekit::{solve_upper, solve_upper_t, Matrix, ThinSvd};
use sparsekit::CscMatrix;

/// A right preconditioner `M: R^{input_dim} → R^{output_dim}`.
pub trait Preconditioner {
    /// Dimension of the iterate space (LSQR's unknown).
    fn input_dim(&self) -> usize;
    /// Dimension of the solution space (`A`'s columns).
    fn output_dim(&self) -> usize;
    /// `x = M·y`.
    fn apply(&self, y: &[f64], x: &mut [f64]);
    /// `y = Mᵀ·x`.
    fn apply_t(&self, x: &[f64], y: &mut [f64]);
    /// Extra memory this preconditioner retains, in bytes (Table XI).
    fn memory_bytes(&self) -> usize;
}

/// Diagonal (column-equilibration) preconditioner.
pub struct DiagPrecond {
    d: Vec<f64>,
}

impl DiagPrecond {
    /// The paper's LSQR-D construction from column norms with the ε-guard.
    pub fn from_col_norms(a: &CscMatrix<f64>) -> Self {
        let norms = a.col_norms();
        let n = norms.len();
        let max = norms.iter().cloned().fold(0.0f64, f64::max);
        let floor = f64::EPSILON * (n as f64).sqrt() * max;
        let d = norms
            .iter()
            .map(|&nm| if nm <= floor { 1.0 } else { 1.0 / nm })
            .collect();
        Self { d }
    }

    /// Wrap an explicit diagonal.
    pub fn from_diag(d: Vec<f64>) -> Self {
        Self { d }
    }
}

impl Preconditioner for DiagPrecond {
    fn input_dim(&self) -> usize {
        self.d.len()
    }
    fn output_dim(&self) -> usize {
        self.d.len()
    }
    fn apply(&self, y: &[f64], x: &mut [f64]) {
        for ((xi, &yi), &di) in x.iter_mut().zip(y.iter()).zip(self.d.iter()) {
            *xi = yi * di;
        }
    }
    fn apply_t(&self, x: &[f64], y: &mut [f64]) {
        self.apply(x, y); // diagonal is symmetric
    }
    fn memory_bytes(&self) -> usize {
        self.d.len() * 8
    }
}

/// `M = R⁻¹` for an upper-triangular `R` (SAP-QR).
pub struct UpperTriPrecond {
    r: Matrix<f64>,
}

impl UpperTriPrecond {
    /// Wrap the `R` factor of the sketch. Panics if `R` is singular at
    /// machine precision (a failed sketch).
    pub fn new(r: Matrix<f64>) -> Self {
        assert_eq!(r.nrows(), r.ncols(), "R must be square");
        for j in 0..r.ncols() {
            assert!(
                r[(j, j)] != 0.0,
                "singular R factor at column {j}: use SAP-SVD for rank-deficient problems"
            );
        }
        Self { r }
    }
}

impl Preconditioner for UpperTriPrecond {
    fn input_dim(&self) -> usize {
        self.r.ncols()
    }
    fn output_dim(&self) -> usize {
        self.r.ncols()
    }
    fn apply(&self, y: &[f64], x: &mut [f64]) {
        x.copy_from_slice(y);
        solve_upper(&self.r, x);
    }
    fn apply_t(&self, x: &[f64], y: &mut [f64]) {
        y.copy_from_slice(x);
        solve_upper_t(&self.r, y);
    }
    fn memory_bytes(&self) -> usize {
        self.r.nrows() * self.r.ncols() * 8
    }
}

/// `M = V_r·Σ_r⁻¹` from the thin SVD of the sketch, keeping only singular
/// values above `σ_max·rel_drop` (paper: `rel_drop = 1e-12`).
pub struct SvdPrecond {
    /// `n×r` retained right singular vectors.
    v: Matrix<f64>,
    /// Reciprocals of the retained singular values.
    sinv: Vec<f64>,
}

impl SvdPrecond {
    /// Build from a sketch SVD with the paper's drop rule.
    pub fn from_svd(svd: &ThinSvd<f64>, rel_drop: f64) -> Self {
        let r = svd.rank(rel_drop);
        assert!(r > 0, "sketch is numerically zero");
        let n = svd.v.nrows();
        let v = svd.v.submatrix(0, n, 0, r);
        let sinv = svd.sigma[..r].iter().map(|&s| 1.0 / s).collect();
        Self { v, sinv }
    }

    /// Retained rank.
    pub fn rank(&self) -> usize {
        self.sinv.len()
    }
}

impl Preconditioner for SvdPrecond {
    fn input_dim(&self) -> usize {
        self.sinv.len()
    }
    fn output_dim(&self) -> usize {
        self.v.nrows()
    }
    fn apply(&self, y: &[f64], x: &mut [f64]) {
        // x = V·(Σ⁻¹ y).
        x.fill(0.0);
        for (j, (&yj, &sj)) in y.iter().zip(self.sinv.iter()).enumerate() {
            let c = yj * sj;
            for (xi, &vij) in x.iter_mut().zip(self.v.col(j).iter()) {
                *xi += vij * c;
            }
        }
    }
    fn apply_t(&self, x: &[f64], y: &mut [f64]) {
        // y = Σ⁻¹·Vᵀ·x.
        for (j, (yj, &sj)) in y.iter_mut().zip(self.sinv.iter()).enumerate() {
            let mut acc = 0.0;
            for (&vij, &xi) in self.v.col(j).iter().zip(x.iter()) {
                acc += vij * xi;
            }
            *yj = acc * sj;
        }
    }
    fn memory_bytes(&self) -> usize {
        self.v.memory_bytes() + self.sinv.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsekit::CooMatrix;

    #[test]
    fn diag_from_col_norms() {
        let mut coo = CooMatrix::new(3, 2);
        coo.push(0, 0, 3.0).unwrap();
        coo.push(1, 0, 4.0).unwrap(); // ‖col0‖ = 5
        coo.push(2, 1, 2.0).unwrap(); // ‖col1‖ = 2
        let a = coo.to_csc().unwrap();
        let m = DiagPrecond::from_col_norms(&a);
        let mut x = [0.0; 2];
        m.apply(&[1.0, 1.0], &mut x);
        assert!((x[0] - 0.2).abs() < 1e-15);
        assert!((x[1] - 0.5).abs() < 1e-15);
    }

    #[test]
    fn diag_guard_for_tiny_columns() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(1, 1, 1e-300).unwrap(); // effectively zero column
        let a = coo.to_csc().unwrap();
        let m = DiagPrecond::from_col_norms(&a);
        let mut x = [0.0; 2];
        m.apply(&[1.0, 1.0], &mut x);
        assert_eq!(x[1], 1.0, "guarded column must get D_ii = 1");
    }

    #[test]
    fn upper_tri_round_trip() {
        let r = Matrix::from_row_major(2, 2, &[2.0, 1.0, 0.0, 4.0]);
        let m = UpperTriPrecond::new(r.clone());
        // apply then multiply by R recovers input.
        let y = [3.0, 8.0];
        let mut x = [0.0; 2];
        m.apply(&y, &mut x);
        let mut back = [0.0; 2];
        r.matvec(&x, &mut back);
        assert!((back[0] - 3.0).abs() < 1e-14 && (back[1] - 8.0).abs() < 1e-14);
        // Transpose consistency: Mᵀ = R⁻ᵀ.
        let mut yt = [0.0; 2];
        m.apply_t(&y, &mut yt);
        let rt = r.transpose();
        let mut back_t = [0.0; 2];
        rt.matvec(&yt, &mut back_t);
        assert!((back_t[0] - 3.0).abs() < 1e-14 && (back_t[1] - 8.0).abs() < 1e-14);
    }

    #[test]
    #[should_panic(expected = "singular R")]
    fn singular_r_rejected() {
        let mut r = Matrix::<f64>::identity(2);
        r[(1, 1)] = 0.0;
        let _ = UpperTriPrecond::new(r);
    }

    #[test]
    fn svd_precond_drops_small_values() {
        // Sketch with singular values {1, 1e-3, 1e-15}: paper rule keeps 2.
        let mut a = Matrix::<f64>::zeros(5, 3);
        a[(0, 0)] = 1.0;
        a[(1, 1)] = 1e-3;
        a[(2, 2)] = 1e-15;
        let svd = ThinSvd::factor(&a);
        let m = SvdPrecond::from_svd(&svd, 1e-12);
        assert_eq!(m.rank(), 2);
        assert_eq!(m.input_dim(), 2);
        assert_eq!(m.output_dim(), 3);
        // M maps e_0 to v_0/σ_0.
        let mut x = [0.0; 3];
        m.apply(&[1.0, 0.0], &mut x);
        let norm: f64 = x.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-12); // ‖v_0‖/σ_0 = 1/1
    }

    #[test]
    fn svd_precond_transpose_adjoint_identity() {
        // ⟨M y, x⟩ = ⟨y, Mᵀ x⟩ for random vectors.
        let mut a = Matrix::<f64>::zeros(6, 4);
        for j in 0..4 {
            for i in 0..6 {
                a[(i, j)] = ((i * 7 + j * 3) % 5) as f64 - 2.0;
            }
        }
        let svd = ThinSvd::factor(&a);
        let m = SvdPrecond::from_svd(&svd, 1e-12);
        let r = m.rank();
        let y: Vec<f64> = (0..r).map(|i| i as f64 + 1.0).collect();
        let x: Vec<f64> = (0..4).map(|i| 2.0 - i as f64).collect();
        let mut my = vec![0.0; 4];
        m.apply(&y, &mut my);
        let mut mtx = vec![0.0; r];
        m.apply_t(&x, &mut mtx);
        let lhs: f64 = my.iter().zip(x.iter()).map(|(a, b)| a * b).sum();
        let rhs: f64 = y.iter().zip(mtx.iter()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-10 * lhs.abs().max(1.0));
    }
}
