//! Householder QR factorization.
//!
//! SAP-QR (paper §V-C1) factors the dense sketch `Â = S·A` (a `d×n` matrix
//! with `d = 2n`) and uses `R` as the LSQR preconditioner. Only `R` is needed
//! there, so [`householder_qr_r`] avoids accumulating `Q`. The full
//! [`HouseholderQr`] keeps the reflectors for `Qᵀ·b` application and direct
//! small-problem least-squares solves (used to verify the iterative path).
//!
//! The factorization is blocked right-looking: a panel of `NB` columns is
//! factored one column at a time, then its reflectors are applied, in
//! order, to the trailing columns `G` at a time. Every element still
//! receives reflectors `0..j` in ascending order through the same dot
//! chain and axpy as the unblocked loop, so the bits do not depend on the
//! blocking; the blocking only lets `G` independent dot chains overlap
//! their FMA latencies instead of running one after another.

use crate::{solve_upper, Matrix, Scalar};

/// Columns per panel of the blocked factorization.
const NB: usize = 16;

/// Trailing columns one [`reflect_group`] call updates together: enough
/// independent dot chains to cover the FMA latency.
const G: usize = 8;

/// QR factorization with stored Householder reflectors.
///
/// The reflectors live below the diagonal of the factored matrix in the
/// standard compact layout; `R` occupies the upper triangle.
#[derive(Clone, Debug)]
pub struct HouseholderQr<T> {
    qr: Matrix<T>,
    tau: Vec<T>,
}

impl<T: Scalar> HouseholderQr<T> {
    /// Factor `a` (m×n, m ≥ n).
    pub fn factor(a: &Matrix<T>) -> Self {
        let (m, n) = (a.nrows(), a.ncols());
        assert!(m >= n, "QR requires m >= n (got {m}x{n})");
        let mut qr = a.clone();
        let mut tau = vec![T::ZERO; n];
        for p0 in (0..n).step_by(NB) {
            let p1 = (p0 + NB).min(n);
            // Panel: columns p0..p1, one column at a time.
            for k in p0..p1 {
                tau[k] = make_reflector(&mut qr.col_mut(k)[k..]);
                for j in k + 1..p1 {
                    let (ck, cj) = qr.two_cols_mut(k, j);
                    reflect(&ck[k + 1..], tau[k], &mut cj[k..]);
                }
            }
            // Trailing update: the panel's reflectors, in order, on columns
            // p1..n — whole groups of G columns, then the ragged rest.
            let (done, trailing) = qr.as_mut_slice().split_at_mut(p1 * m);
            let reflector = |k: usize| (&done[k * m + k + 1..(k + 1) * m], tau[k]);
            let mut groups = trailing.chunks_exact_mut(G * m);
            for group in groups.by_ref() {
                for k in p0..p1 {
                    let (v, tk) = reflector(k);
                    reflect_group(v, tk, k, group);
                }
            }
            for cj in groups.into_remainder().chunks_exact_mut(m) {
                for k in p0..p1 {
                    let (v, tk) = reflector(k);
                    reflect(v, tk, &mut cj[k..]);
                }
            }
        }
        Self { qr, tau }
    }

    /// The upper-triangular factor `R` (n×n).
    pub fn r(&self) -> Matrix<T> {
        let n = self.qr.ncols();
        Matrix::from_fn(n, n, |i, j| if i <= j { self.qr[(i, j)] } else { T::ZERO })
    }

    /// Apply `Qᵀ` to a length-m vector in place.
    pub fn apply_qt(&self, x: &mut [T]) {
        assert_eq!(x.len(), self.qr.nrows(), "vector length mismatch");
        for k in 0..self.qr.ncols() {
            reflect(&self.qr.col(k)[k + 1..], self.tau[k], &mut x[k..]);
        }
    }

    /// Apply `Q` to a length-m vector in place (reflectors in reverse).
    pub fn apply_q(&self, x: &mut [T]) {
        assert_eq!(x.len(), self.qr.nrows(), "vector length mismatch");
        for k in (0..self.qr.ncols()).rev() {
            reflect(&self.qr.col(k)[k + 1..], self.tau[k], &mut x[k..]);
        }
    }

    /// Least-squares solve `min ‖A·x − b‖₂` via `R·x = (Qᵀb)[..n]`.
    pub fn solve_ls(&self, b: &[T]) -> Vec<T> {
        let (m, n) = (self.qr.nrows(), self.qr.ncols());
        assert_eq!(b.len(), m, "rhs length mismatch");
        let mut qtb = b.to_vec();
        self.apply_qt(&mut qtb);
        let mut x = qtb[..n].to_vec();
        let r = self.r();
        solve_upper(&r, &mut x);
        x
    }
}

/// Turn `col = [alpha; tail]` into the reflector annihilating `tail`:
/// `col[0]` becomes `beta = ∓‖col‖`, `tail` becomes `v` (the reflector is
/// `I − τ·[1; v]·[1; v]ᵀ`), and `τ` is returned — zero, with `col`
/// untouched, when `col` is all zeros.
fn make_reflector<T: Scalar>(col: &mut [T]) -> T {
    let Some((head, tail)) = col.split_first_mut() else {
        unreachable!("m >= n > k, so the column tail is nonempty");
    };
    let mut sigma = T::ZERO;
    for &v in tail.iter() {
        sigma = v.mul_add(v, sigma);
    }
    let alpha = *head;
    let norm = (alpha.mul_add(alpha, sigma)).sqrt();
    if norm == T::ZERO {
        return T::ZERO;
    }
    // Choose sign to avoid cancellation.
    let beta = if alpha.to_f64() >= 0.0 { -norm } else { norm };
    let scale = T::ONE / (alpha - beta);
    for v in tail.iter_mut() {
        *v *= scale;
    }
    *head = beta;
    (beta - alpha) / beta
}

/// Apply the reflector `I − τ·[1; v]·[1; v]ᵀ` to `x` (length `v.len() + 1`):
/// one dot chain `x[0] + Σ v[i]·x[i+1]` in ascending `i`, then one axpy. A
/// zero `τ` (an all-zero column) is skipped.
fn reflect<T: Scalar>(v: &[T], tau: T, x: &mut [T]) {
    if tau == T::ZERO {
        return;
    }
    let Some((x0, xs)) = x.split_first_mut() else {
        unreachable!("a reflector acts on at least its own row");
    };
    let mut dot = *x0;
    for (&vi, &xi) in v.iter().zip(xs.iter()) {
        dot = vi.mul_add(xi, dot);
    }
    let t = tau * dot;
    *x0 -= t;
    for (xi, &vi) in xs.iter_mut().zip(v.iter()) {
        *xi = (-vi).mul_add(t, *xi);
    }
}

/// [`reflect`] at row `k` of each of the `G` columns of `group` (column
/// major, `group.len() / G` rows each), bit for bit: the `G` dot chains are
/// interleaved, each still one sequential `mul_add` chain over `v`, so
/// they overlap their latencies; then the `G` axpys run.
///
/// Kept out of line: inlined into [`HouseholderQr::factor`], the column
/// pointers spilled to the stack and the row bounds checks stayed in the
/// dot loop, which ran it at half speed.
#[inline(never)]
fn reflect_group<T: Scalar>(v: &[T], tau: T, k: usize, group: &mut [T]) {
    if tau == T::ZERO {
        return;
    }
    let m = group.len() / G;
    let len = v.len();
    let mut rest = group;
    let mut xs: [&mut [T]; G] = std::array::from_fn(|_| {
        let (col, tail) = std::mem::take(&mut rest).split_at_mut(m);
        rest = tail;
        &mut col[k..][..=len]
    });
    let mut dot: [T; G] = std::array::from_fn(|c| xs[c][0]);
    for (i, &vi) in v.iter().enumerate() {
        for c in 0..G {
            dot[c] = vi.mul_add(xs[c][i + 1], dot[c]);
        }
    }
    for (x, d) in xs.iter_mut().zip(dot) {
        let t = tau * d;
        x[0] -= t;
        for (xi, &vi) in x[1..].iter_mut().zip(v.iter()) {
            *xi = (-vi).mul_add(t, *xi);
        }
    }
}

/// Compute only the `R` factor of `a` (m×n, m ≥ n) — the SAP-QR hot path.
///
/// The same factorization as [`HouseholderQr::factor`], bit for bit; the
/// reflectors below the diagonal are dropped when `R` is copied out.
pub fn householder_qr_r<T: Scalar>(a: &Matrix<T>) -> Matrix<T> {
    HouseholderQr::factor(a).r()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(m: usize, n: usize, seed: u64) -> Matrix<f64> {
        let mut s = seed;
        Matrix::from_fn(m, n, |_, _| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        })
    }

    fn reconstruct(qr: &HouseholderQr<f64>, m: usize, n: usize) -> Matrix<f64> {
        // Q·R by applying Q to each column of [R; 0].
        let r = qr.r();
        Matrix::from_fn(m, n, |i, j| if i < n { r[(i, j)] } else { 0.0 }).pipe(|mut qr_mat| {
            for j in 0..n {
                let mut col = qr_mat.col(j).to_vec();
                qr.apply_q(&mut col);
                qr_mat.col_mut(j).copy_from_slice(&col);
            }
            qr_mat
        })
    }

    trait Pipe: Sized {
        fn pipe<U>(self, f: impl FnOnce(Self) -> U) -> U {
            f(self)
        }
    }
    impl<T> Pipe for T {}

    #[test]
    fn qr_reconstructs_a() {
        for (m, n) in [(5, 3), (20, 20), (50, 7), (3, 1)] {
            let a = filled(m, n, 42 + m as u64);
            let qr = HouseholderQr::factor(&a);
            let rec = reconstruct(&qr, m, n);
            assert!(
                rec.diff_norm(&a) < 1e-12 * a.fro_norm().max(1.0),
                "QR reconstruction failed for {m}x{n}"
            );
        }
    }

    #[test]
    fn r_is_upper_triangular_with_nonneg_diag_magnitudes() {
        let a = filled(30, 10, 7);
        let r = householder_qr_r(&a);
        for i in 0..10 {
            for j in 0..i {
                assert_eq!(r[(i, j)], 0.0);
            }
            assert!(r[(i, i)].abs() > 0.0, "rank-deficient unexpected");
        }
    }

    #[test]
    fn q_is_orthonormal() {
        let a = filled(15, 6, 3);
        let qr = HouseholderQr::factor(&a);
        // Apply Qᵀ then Q: identity.
        let mut x = (0..15).map(|i| i as f64 - 7.0).collect::<Vec<_>>();
        let orig = x.clone();
        qr.apply_qt(&mut x);
        // Norm preserved by orthogonal transform.
        let n0: f64 = orig.iter().map(|v| v * v).sum::<f64>().sqrt();
        let n1: f64 = x.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!((n0 - n1).abs() < 1e-12);
        qr.apply_q(&mut x);
        for (a, b) in x.iter().zip(orig.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn least_squares_solve_matches_normal_equations() {
        let a = filled(40, 5, 11);
        let x_true: Vec<f64> = (0..5).map(|i| (i as f64) - 2.0).collect();
        let mut b = vec![0.0; 40];
        a.matvec(&x_true, &mut b);
        let qr = HouseholderQr::factor(&a);
        let x = qr.solve_ls(&b);
        for (xi, ti) in x.iter().zip(x_true.iter()) {
            assert!((xi - ti).abs() < 1e-10, "{xi} vs {ti}");
        }
    }

    #[test]
    fn least_squares_with_residual() {
        // Overdetermined inconsistent system: solution minimizes the
        // residual; check against explicitly computed normal equations.
        let a = Matrix::from_row_major(3, 2, &[1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        let b = [1.0, 1.0, 0.0];
        let qr = HouseholderQr::factor(&a);
        let x = qr.solve_ls(&b);
        // Normal equations: AᵀA = [2 1; 1 2], Aᵀb = [1; 1] → x = [1/3, 1/3].
        assert!((x[0] - 1.0 / 3.0).abs() < 1e-14);
        assert!((x[1] - 1.0 / 3.0).abs() < 1e-14);
    }

    #[test]
    fn rank_deficient_column_keeps_going() {
        // A zero column yields tau = 0 for that reflector; factorization must
        // not produce NaNs.
        let mut a = filled(10, 3, 5);
        for i in 0..10 {
            a[(i, 1)] = 0.0;
        }
        let qr = HouseholderQr::factor(&a);
        let r = qr.r();
        assert!(r.as_slice().iter().all(|v| v.is_finite()));
    }

    /// The unblocked column-at-a-time Householder loop the factorization
    /// must reproduce bit for bit: reflector `k` is built from column `k`
    /// and applied at once to every later column, one column at a time.
    fn unblocked_factor(a: &Matrix<f64>) -> (Matrix<f64>, Vec<f64>) {
        let n = a.ncols();
        let mut qr = a.clone();
        let mut tau = vec![0.0; n];
        for k in 0..n {
            let col = qr.col_mut(k);
            let (head, tail) = col[k..].split_first_mut().unwrap();
            let mut sigma = 0.0;
            for &v in tail.iter() {
                sigma = v.mul_add(v, sigma);
            }
            let alpha = *head;
            let norm = (alpha.mul_add(alpha, sigma)).sqrt();
            if norm == 0.0 {
                tau[k] = 0.0;
                continue;
            }
            let beta = if alpha >= 0.0 { -norm } else { norm };
            let tk = (beta - alpha) / beta;
            let scale = 1.0 / (alpha - beta);
            for v in tail.iter_mut() {
                *v *= scale;
            }
            *head = beta;
            tau[k] = tk;
            for j in k + 1..n {
                let (ck, cj) = qr.two_cols_mut(k, j);
                let vk = &ck[k + 1..];
                let mut dot = cj[k];
                for (&vi, &xi) in vk.iter().zip(cj[k + 1..].iter()) {
                    dot = vi.mul_add(xi, dot);
                }
                let t = tk * dot;
                cj[k] -= t;
                for (xi, &vi) in cj[k + 1..].iter_mut().zip(vk.iter()) {
                    *xi = (-vi).mul_add(t, *xi);
                }
            }
        }
        (qr, tau)
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn factor_is_bitwise_the_unblocked_loop() {
        let zero_cols = |mut a: Matrix<f64>, cols: &[usize]| {
            for &j in cols {
                a.col_mut(j).fill(0.0);
            }
            a
        };
        let mut nan_col = filled(50, 37, 9);
        nan_col[(10, 17)] = f64::NAN;
        let cases = [
            ("n < 16", filled(9, 5, 1)),
            ("n = 16", filled(40, 16, 2)),
            ("n % 8 != 0 over three panels", filled(100, 45, 3)),
            ("m = n", filled(33, 33, 4)),
            ("n = 1", filled(6, 1, 5)),
            ("SAP-shaped 2n x n", filled(240, 120, 6)),
            (
                "zero columns, tau = 0",
                zero_cols(filled(60, 40, 7), &[0, 3, 16, 17, 39]),
            ),
            ("all zero", Matrix::zeros(20, 12)),
            ("NaN column", nan_col),
        ];
        for (what, a) in cases {
            let (want_qr, want_tau) = unblocked_factor(&a);
            let got = HouseholderQr::factor(&a);
            assert_eq!(
                bits(got.qr.as_slice()),
                bits(want_qr.as_slice()),
                "{what}: R and reflectors"
            );
            assert_eq!(bits(&got.tau), bits(&want_tau), "{what}: tau");
            assert_eq!(
                bits(householder_qr_r(&a).as_slice()),
                bits(got.r().as_slice()),
                "{what}: R"
            );
        }
    }

    #[test]
    #[should_panic(expected = "m >= n")]
    fn wide_matrix_rejected() {
        let a = Matrix::<f64>::zeros(2, 3);
        let _ = HouseholderQr::factor(&a);
    }
}
