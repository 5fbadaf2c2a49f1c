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
//!
//! Large factorizations run as one pipeline forked once over
//! `T = min(threads, panels / 2)` workers. Blocks of `NB` columns are dealt
//! cyclically, and each worker updates only the blocks it owns
//! (owner-computes). A factored panel is published as a copy of its
//! reflectors and `τ` in a per-panel slot, and the other workers wait only
//! for the panel they apply next. The owner of block `p + 1` looks ahead:
//! it applies panel `p` to that block first, factors and publishes panel
//! `p + 1` at once, and only then updates its other blocks. Each block still
//! receives the panels in ascending order, so R and `τ` are the same bits at
//! every thread count. A worker that dies at claim time never publishes its
//! panels; the waiters see [`parkit::cancelled`] and return, and parkit
//! re-raises the original panic.

use std::sync::OnceLock;

use crate::{solve_upper, Matrix, Scalar};

/// Columns per panel of the blocked factorization.
const NB: usize = 16;

/// Trailing columns one [`reflect_group`] call updates together: enough
/// independent dot chains to cover the FMA latency.
const G: usize = 8;

/// `m·n²` below which the factorization stays on one worker. parkit's
/// fork and join costs ~85 µs per call on a 2-vCPU host (83–103 µs
/// measured); a sequential factorization at this size takes ~1 ms, so a
/// fork repays itself above it. serve_mixed's 80×40 SAP sketch
/// (`m·n²` = 1.3e5) stays far below.
const FORK_MIN_WORK: usize = 4_000_000;

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
        let panels = n.div_ceil(NB);
        let slots: Vec<OnceLock<Panel<T>>> = (0..panels).map(|_| OnceLock::new()).collect();
        let workers = if m.saturating_mul(n).saturating_mul(n) < FORK_MIN_WORK {
            1
        } else {
            parkit::current_threads().min(panels / 2).max(1)
        };
        let mut owned: Vec<Vec<(usize, &mut [T])>> = (0..workers).map(|_| Vec::new()).collect();
        for (b, block) in qr.as_mut_slice().chunks_mut((NB * m).max(1)).enumerate() {
            owned[b % workers].push((b, block));
        }
        if workers == 1 {
            // The same pipeline on the calling thread, without a fork.
            for blocks in owned {
                factor_owned(m, blocks, &slots);
            }
        } else {
            parkit::for_each(owned, |blocks| factor_owned(m, blocks, &slots));
        }
        let tau = slots
            .into_iter()
            .flat_map(|slot| match slot.into_inner() {
                Some(panel) => panel.tau,
                // A panel stays unpublished only when its owner died, and
                // parkit then re-raises that panic before this point.
                None => unreachable!("every panel is published"),
            })
            .collect();
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

/// A factored panel as every worker reads it: a copy of its columns (the
/// reflectors below the diagonal, `m` rows each) and their `τ`.
struct Panel<T> {
    cols: Vec<T>,
    tau: Vec<T>,
}

/// One worker of the pipeline: factor the blocks in `blocks` (ascending
/// `(block index, columns)`, column major with `m` rows) and apply every
/// earlier panel to each, in order, publishing each factored block in
/// `slots`. Panel `p + 1` is factored as soon as panel `p` reaches it, before
/// panel `p` updates the worker's other blocks. Returns early, with its
/// blocks half done, when the call is cancelled while it waits.
fn factor_owned<T: Scalar>(
    m: usize,
    mut blocks: Vec<(usize, &mut [T])>,
    slots: &[OnceLock<Panel<T>>],
) {
    let publish = |b: usize, block: &mut [T]| {
        let tau = factor_panel(b * NB, m, block);
        let panel = Panel {
            cols: block.to_vec(),
            tau,
        };
        // Each panel has one owner, so its slot is empty here.
        let _ = slots[b].set(panel);
    };
    // Panel 0 needs no earlier panel: its owner factors it at once.
    if let Some((0, block)) = blocks.first_mut() {
        publish(0, block);
    }
    for (p, slot) in slots.iter().enumerate() {
        // Blocks still waiting for panel p: those after it, in order.
        let later = blocks.partition_point(|&(b, _)| b <= p);
        if later == blocks.len() {
            break;
        }
        let Some(panel) = wait_for(slot) else {
            return;
        };
        // The first of them is the lookahead block when it is block p + 1.
        let lookahead = blocks[later].0 == p + 1;
        for (i, (b, block)) in blocks[later..].iter_mut().enumerate() {
            apply_panel(panel, p * NB, m, block);
            if i == 0 && lookahead {
                publish(*b, block);
            }
        }
    }
}

/// The published panel in `slot`, once its owner has factored it; `None`
/// when the call is cancelled first (its owner died). Yields while it
/// waits, so a worker sharing a core with the owner does not starve it.
fn wait_for<T>(slot: &OnceLock<Panel<T>>) -> Option<&Panel<T>> {
    loop {
        if let Some(panel) = slot.get() {
            return Some(panel);
        }
        if parkit::cancelled() {
            return None;
        }
        std::thread::yield_now();
    }
}

/// Factor the panel `block` (columns `p0..`, column major with `m` rows),
/// whose earlier panels are all applied, one column at a time: make the
/// column's reflector, then apply it to the panel's later columns.
/// Returns the panel's `τ`.
fn factor_panel<T: Scalar>(p0: usize, m: usize, block: &mut [T]) -> Vec<T> {
    let width = block.len() / m;
    let mut tau = Vec::with_capacity(width);
    for c in 0..width {
        let k = p0 + c;
        let (head, later) = block.split_at_mut((c + 1) * m);
        let col = &mut head[c * m..];
        let tk = make_reflector(&mut col[k..]);
        reflect_cols(&col[k + 1..], tk, k, m, later);
        tau.push(tk);
    }
    tau
}

/// Apply `panel` (columns `p0..`) to `block`, `G` columns at a time: each
/// group of the block receives the panel's reflectors in order.
fn apply_panel<T: Scalar>(panel: &Panel<T>, p0: usize, m: usize, block: &mut [T]) {
    for group in block.chunks_mut(G * m) {
        for (c, &tk) in panel.tau.iter().enumerate() {
            let k = p0 + c;
            reflect_cols(&panel.cols[c * m + k + 1..(c + 1) * m], tk, k, m, group);
        }
    }
}

/// [`reflect`] at row `k` of every column of `cols` (column major, `m`
/// rows each), `G`, 4, 2 or 1 columns at a time so that up to `G`
/// independent dot chains overlap.
fn reflect_cols<T: Scalar>(v: &[T], tau: T, k: usize, m: usize, cols: &mut [T]) {
    let mut rest = cols;
    while !rest.is_empty() {
        let width = match rest.len() / m {
            w if w >= G => G,
            w if w >= 4 => 4,
            w if w >= 2 => 2,
            _ => 1,
        };
        let (group, tail) = std::mem::take(&mut rest).split_at_mut(width * m);
        match width {
            G => reflect_group::<T, G>(v, tau, k, group),
            4 => reflect_group::<T, 4>(v, tau, k, group),
            2 => reflect_group::<T, 2>(v, tau, k, group),
            _ => reflect(v, tau, &mut group[k..]),
        }
        rest = tail;
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

/// [`reflect`] at row `k` of each of the `C` columns of `group` (column
/// major, `group.len() / C` rows each), bit for bit: the `C` dot chains are
/// interleaved, each still one sequential `mul_add` chain over `v`, so
/// they overlap their latencies; then the `C` axpys run.
///
/// Kept out of line: inlined into its caller, the column pointers spilled
/// to the stack and the row bounds checks stayed in the dot loop, which ran
/// it at half speed.
#[inline(never)]
fn reflect_group<T: Scalar, const C: usize>(v: &[T], tau: T, k: usize, group: &mut [T]) {
    if tau == T::ZERO {
        return;
    }
    let m = group.len() / C;
    let len = v.len();
    let mut rest = group;
    let mut xs: [&mut [T]; C] = std::array::from_fn(|_| {
        let (col, tail) = std::mem::take(&mut rest).split_at_mut(m);
        rest = tail;
        &mut col[k..][..=len]
    });
    let mut dot: [T; C] = std::array::from_fn(|c| xs[c][0]);
    for (i, &vi) in v.iter().enumerate() {
        for c in 0..C {
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
            ("no columns", Matrix::zeros(5, 0)),
            ("empty", Matrix::zeros(0, 0)),
            ("NaN column", nan_col),
            // Above FORK_MIN_WORK: the threaded pipeline.
            ("SAP-shaped 600 x 300, threaded", filled(600, 300, 10)),
            ("n % 16 = 13, n % 8 = 5, threaded", filled(1000, 301, 11)),
            ("21 panels, ragged last, threaded", filled(700, 333, 12)),
            (
                "zero columns, threaded",
                zero_cols(filled(400, 200, 13), &[0, 15, 16, 100, 199]),
            ),
        ];
        for (what, a) in cases {
            let (want_qr, want_tau) = unblocked_factor(&a);
            for threads in [1, 2, 3, 5] {
                let got = parkit::with_threads(threads, || HouseholderQr::factor(&a));
                assert_eq!(
                    bits(got.qr.as_slice()),
                    bits(want_qr.as_slice()),
                    "{what}: R and reflectors ({threads} threads)"
                );
                assert_eq!(
                    bits(&got.tau),
                    bits(&want_tau),
                    "{what}: tau ({threads} threads)"
                );
                let r = parkit::with_threads(threads, || householder_qr_r(&a));
                assert_eq!(
                    bits(r.as_slice()),
                    bits(got.r().as_slice()),
                    "{what}: R ({threads} threads)"
                );
            }
        }
    }

    /// The threaded cases above exercise the pipeline only if they fork,
    /// and serve_mixed's 80×40 SAP sketch must not.
    #[test]
    fn fork_cutoff_separates_the_test_shapes() {
        let shapes = [
            (80, 40, false),
            (240, 120, false),
            (600, 300, true),
            (1000, 301, true),
            (700, 333, true),
            (400, 200, true),
        ];
        for (m, n, forks) in shapes {
            assert_eq!(m * n * n >= FORK_MIN_WORK, forks, "{m}x{n}");
            if forks {
                assert!(n.div_ceil(NB) / 2 >= 5, "{m}x{n} gives 5 workers blocks");
            }
        }
    }

    #[test]
    #[should_panic(expected = "m >= n")]
    fn wide_matrix_rejected() {
        let a = Matrix::<f64>::zeros(2, 3);
        let _ = HouseholderQr::factor(&a);
    }
}
