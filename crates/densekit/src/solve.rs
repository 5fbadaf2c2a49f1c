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

/// Rows [`solve_upper_t`] carries together: enough independent dot chains
/// to cover the FMA latency.
const ROWS: usize = 8;

/// Solve `Uᵀ·x = b` (forward substitution through the upper factor), in place.
///
/// Row `j` is one `mul_add` chain `b[j] − Σ U[i, j]·x[i]` in ascending `i`,
/// then a division by `U[j, j]`. Rows go `ROWS` at a time: first their
/// chains over the prefix that is already solved, interleaved so their
/// latencies overlap, then the `ROWS × ROWS` triangle, where each chain
/// goes on in order. Every chain keeps its order, so the bits are those of
/// solving one row after another.
///
/// # Panics
/// On dimension mismatch or a zero diagonal entry, at the first such row.
pub fn solve_upper_t<T: Scalar>(u: &Matrix<T>, b: &mut [T]) {
    let n = u.ncols();
    assert_eq!(u.nrows(), n, "U must be square");
    assert_eq!(b.len(), n, "rhs length mismatch");
    for j0 in (0..n).step_by(ROWS) {
        let j1 = (j0 + ROWS).min(n);
        let mut acc = [T::ZERO; ROWS];
        acc[..j1 - j0].copy_from_slice(&b[j0..j1]);
        if j1 - j0 == ROWS {
            prefix_chains(u, j0, &b[..j0], &mut acc);
        } else {
            // The ragged last rows: one chain each.
            for (j, a) in (j0..j1).zip(acc.iter_mut()) {
                *a = chain(&u.col(j)[..j0], &b[..j0], *a);
            }
        }
        for (j, a) in (j0..j1).zip(acc) {
            // Row j of Uᵀ is column j of U: entries U[0..j, j] multiply x[0..j].
            let a = chain(&u.col(j)[j0..j], &b[j0..j], a);
            let d = u[(j, j)];
            assert!(d != T::ZERO, "singular triangular factor at {j}");
            b[j] = a / d;
        }
    }
}

/// `acc − Σ col[i]·x[i]`, one `mul_add` chain in ascending `i`.
fn chain<T: Scalar>(col: &[T], x: &[T], mut acc: T) -> T {
    for (&uij, &xi) in col.iter().zip(x.iter()) {
        acc = (-uij).mul_add(xi, acc);
    }
    acc
}

/// [`chain`] for rows `j0..j0 + ROWS` over the solved prefix `x = x[..j0]`,
/// the `ROWS` chains interleaved.
///
/// Kept out of line, like densekit's QR `reflect_group`, so the column
/// pointers stay in registers.
#[inline(never)]
fn prefix_chains<T: Scalar>(u: &Matrix<T>, j0: usize, x: &[T], acc: &mut [T; ROWS]) {
    let cols: [&[T]; ROWS] = std::array::from_fn(|r| &u.col(j0 + r)[..x.len()]);
    for (i, &xi) in x.iter().enumerate() {
        for r in 0..ROWS {
            acc[r] = (-cols[r][i]).mul_add(xi, acc[r]);
        }
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

    /// The one-chain-per-row forward substitution `solve_upper_t` must
    /// reproduce bit for bit.
    fn one_chain_upper_t(u: &Matrix<f64>, b: &mut [f64]) {
        let n = u.ncols();
        for j in 0..n {
            let col = &u.col(j)[..j];
            let mut acc = b[j];
            for (&uij, &xi) in col.iter().zip(b[..j].iter()) {
                acc = (-uij).mul_add(xi, acc);
            }
            let d = u[(j, j)];
            assert!(d != 0.0, "singular triangular factor at {j}");
            b[j] = acc / d;
        }
    }

    fn upper(n: usize, seed: u64) -> Matrix<f64> {
        let mut s = seed;
        Matrix::from_fn(n, n, |i, j| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = ((s >> 33) as f64 / (1u64 << 31) as f64) - 0.5;
            match i.cmp(&j) {
                std::cmp::Ordering::Less => v,
                std::cmp::Ordering::Equal => v + 2.0f64.copysign(v),
                std::cmp::Ordering::Greater => 0.0,
            }
        })
    }

    #[test]
    fn upper_t_is_bitwise_the_one_chain_loop() {
        for n in [1, 7, 8, 9, 300, 301] {
            let u = upper(n, n as u64);
            let b0: Vec<f64> = (0..n).map(|i| (i % 11) as f64 - 5.3).collect();
            let mut want = b0.clone();
            one_chain_upper_t(&u, &mut want);
            let mut got = b0;
            solve_upper_t(&u, &mut got);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "n = {n}");
        }
    }

    #[test]
    fn upper_t_zero_diagonal_panics_at_the_same_row() {
        // Rows inside the first block, on a block edge, past it, and in the
        // ragged tail.
        for (n, row) in [(9, 0), (9, 5), (20, 8), (20, 13), (301, 299)] {
            let mut u = upper(n, 3);
            u[(row, row)] = 0.0;
            let b0: Vec<f64> = (0..n).map(|i| i as f64 + 0.5).collect();
            let msg = |f: fn(&Matrix<f64>, &mut [f64])| {
                let mut b = b0.clone();
                let p = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&u, &mut b)))
                    .expect_err("a zero diagonal must panic");
                let msg = p.downcast_ref::<String>().cloned().unwrap_or_default();
                (msg, b)
            };
            let (want, want_b) = msg(one_chain_upper_t);
            let (got, got_b) = msg(solve_upper_t);
            assert_eq!(got, want, "n = {n}, zero at {row}");
            assert_eq!(got, format!("singular triangular factor at {row}"));
            assert_eq!(got_b, want_b, "rows solved before the panic");
        }
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
