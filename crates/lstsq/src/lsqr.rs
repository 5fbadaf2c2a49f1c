//! LSQR — Paige & Saunders' iterative least-squares solver (TOMS 1982).
//!
//! Solves `min ‖A·x − b‖₂` via Golub–Kahan bidiagonalization of `A`, using
//! only `apply`/`apply_t`. The stopping rule follows the paper's §V-C2
//! setup: iterate until LSQR's internal estimate of
//! `‖Aᵀr‖ / (‖A‖·‖r‖)` — measured with respect to the (preconditioned)
//! system the solver actually sees — falls below `atol = 1e-14`.

use crate::op::LinOp;

/// Why LSQR stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// `‖Aᵀr‖/(‖A‖·‖r‖) ≤ atol` — the paper's criterion.
    AtolSatisfied,
    /// `‖r‖ ≤ btol·‖b‖ + atol·‖A‖·‖x‖` — the consistent-system criterion
    /// (Paige & Saunders' first test; decisive for min-norm solves where
    /// the residual itself goes to zero).
    BtolSatisfied,
    /// The residual itself vanished (consistent system solved exactly).
    ResidualZero,
    /// Iteration limit reached.
    MaxIters,
    /// No improvement of the best `‖Aᵀr‖/(‖A‖·‖r‖)` for a full
    /// [`LsqrOptions::stall_window`] — the solver is grinding without
    /// converging (e.g. a broken preconditioner).
    Stagnated,
    /// An iterate went non-finite — poisoned data or a singular
    /// preconditioner. Iteration cannot recover; stop immediately.
    Diverged,
}

/// LSQR options.
#[derive(Clone, Copy, Debug)]
pub struct LsqrOptions {
    /// Tolerance on the normal-equation residual estimate (paper: 1e-14).
    pub atol: f64,
    /// Tolerance on the relative residual for consistent systems.
    pub btol: f64,
    /// Iteration cap.
    pub max_iters: usize,
    /// Stop with [`StopReason::Stagnated`] when the best
    /// `‖Aᵀr‖/(‖A‖·‖r‖)` has not improved for this many consecutive
    /// iterations. `0` disables the check (the default — plain solves keep
    /// grinding to `max_iters`, as before).
    pub stall_window: usize,
}

impl Default for LsqrOptions {
    fn default() -> Self {
        Self {
            atol: 1e-14,
            btol: 1e-14,
            max_iters: 100_000,
            stall_window: 0,
        }
    }
}

/// LSQR result.
#[derive(Clone, Debug)]
pub struct LsqrResult {
    /// Solution (in the operator's column space — un-precondition it
    /// yourself if the operator was `A∘M`).
    pub x: Vec<f64>,
    /// Iterations performed.
    pub iters: usize,
    /// Final estimate of `‖r‖`.
    pub resid_norm: f64,
    /// Final estimate of `‖Aᵀr‖/(‖A‖·‖r‖)`.
    pub rel_atr: f64,
    /// Why iteration stopped.
    pub stop: StopReason,
}

fn norm2(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

fn scale_in_place(v: &mut [f64], s: f64) {
    for x in v {
        *x *= s;
    }
}

/// Run LSQR on `op` with right-hand side `b`.
///
/// Table IX's iteration counts are [`LsqrResult::iters`]. When obskit
/// telemetry is on, each iteration's time lands in the `lstsq/lsqr/iter`
/// histogram and the total in the `solver_iters` counter; with the flight
/// recorder on, each iteration's `IterEnd` record carries its number and
/// relative residual.
pub fn lsqr<A: LinOp>(op: &mut A, b: &[f64], opts: &LsqrOptions) -> LsqrResult {
    let _sp = obskit::span("lstsq/lsqr");
    let recording = obskit::enabled();
    let tracing = obskit::trace_enabled();
    let m = op.nrows();
    let n = op.ncols();
    assert_eq!(b.len(), m, "rhs length mismatch");

    let mut x = vec![0.0; n];
    let mut u = b.to_vec();
    let bnorm = norm2(&u);
    let mut beta = bnorm;
    if beta == 0.0 {
        return LsqrResult {
            x,
            iters: 0,
            resid_norm: 0.0,
            rel_atr: 0.0,
            stop: StopReason::ResidualZero,
        };
    }
    scale_in_place(&mut u, 1.0 / beta);

    let mut v = vec![0.0; n];
    op.apply_t(&u, &mut v);
    let mut alpha = norm2(&v);
    if alpha == 0.0 {
        // b ⟂ range(A): x = 0 is the solution.
        return LsqrResult {
            x,
            iters: 0,
            resid_norm: beta,
            rel_atr: 0.0,
            stop: StopReason::AtolSatisfied,
        };
    }
    scale_in_place(&mut v, 1.0 / alpha);

    let mut w = v.clone();
    let mut phibar = beta;
    let mut rhobar = alpha;
    let mut anorm2 = 0.0f64; // running ‖A‖_F² estimate

    let mut scratch_m = vec![0.0; m];
    let mut scratch_n = vec![0.0; n];

    let mut iters = 0;
    let mut stop = StopReason::MaxIters;
    let mut rel_atr = f64::INFINITY;
    let mut best_rel_atr = f64::INFINITY;
    let mut best_iter = 0usize;

    while iters < opts.max_iters {
        iters += 1;
        let t_it = (recording || tracing).then(std::time::Instant::now);

        // Bidiagonalization step: β·u = A·v − α·u.
        op.apply(&v, &mut scratch_m);
        for (ui, &avi) in u.iter_mut().zip(scratch_m.iter()) {
            *ui = avi - alpha * *ui;
        }
        beta = norm2(&u);
        if beta > 0.0 {
            scale_in_place(&mut u, 1.0 / beta);
        }

        // α·v = Aᵀ·u − β·v.
        op.apply_t(&u, &mut scratch_n);
        for (vi, &atui) in v.iter_mut().zip(scratch_n.iter()) {
            *vi = atui - beta * *vi;
        }
        alpha = norm2(&v);
        if alpha > 0.0 {
            scale_in_place(&mut v, 1.0 / alpha);
        }

        anorm2 += alpha * alpha + beta * beta;

        // Orthogonal transformation of the bidiagonal system.
        let rho = rhobar.hypot(beta);
        let c = rhobar / rho;
        let s = beta / rho;
        let theta = s * alpha;
        rhobar = -c * alpha;
        let phi = c * phibar;
        phibar *= s;

        // Update x and the search direction w.
        let t1 = phi / rho;
        let t2 = -theta / rho;
        for ((xi, wi), &vi) in x.iter_mut().zip(w.iter_mut()).zip(v.iter()) {
            *xi += t1 * *wi;
            *wi = vi + t2 * *wi;
        }

        // Convergence estimates (Paige–Saunders):
        // ‖r‖ ≈ phibar, ‖Aᵀr‖ ≈ phibar·alpha·|c|, ‖A‖ ≈ sqrt(anorm2).
        let rnorm = phibar;
        let atr = phibar * alpha * c.abs();
        let anorm = anorm2.sqrt();
        rel_atr = if rnorm > 0.0 && anorm > 0.0 {
            atr / (anorm * rnorm)
        } else {
            0.0
        };
        if rel_atr < best_rel_atr {
            best_rel_atr = rel_atr;
            best_iter = iters;
        }
        let stopping = if !rnorm.is_finite() || !alpha.is_finite() || !beta.is_finite() {
            Some(StopReason::Diverged)
        } else if rnorm == 0.0 {
            Some(StopReason::ResidualZero)
        } else if rel_atr <= opts.atol {
            Some(StopReason::AtolSatisfied)
        } else if rnorm <= opts.btol * bnorm + opts.atol * anorm * norm2(&x) {
            Some(StopReason::BtolSatisfied)
        } else if opts.stall_window > 0 && iters - best_iter >= opts.stall_window {
            Some(StopReason::Stagnated)
        } else {
            None
        };
        if let Some(t_it) = t_it {
            let dur_ns = t_it.elapsed().as_nanos() as u64;
            if recording {
                obskit::hist_record_ns("lstsq/lsqr/iter", dur_ns);
            }
            if tracing {
                let end_ns = obskit::trace::now_ns();
                obskit::trace::span_pair(
                    "lstsq/lsqr/iter",
                    end_ns.saturating_sub(dur_ns),
                    end_ns,
                    obskit::trace::TraceKind::IterEnd,
                    [iters as u64, rel_atr.to_bits(), 0, 0, 0, 0],
                );
            }
        }
        if let Some(reason) = stopping {
            stop = reason;
            break;
        }
    }
    obskit::add(obskit::Ctr::SolverIters, iters as u64);

    LsqrResult {
        x,
        iters,
        resid_norm: phibar,
        rel_atr,
        stop,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::CscOp;
    use sparsekit::{CooMatrix, CscMatrix};

    fn random_tall(m: usize, n: usize, seed: u64) -> CscMatrix<f64> {
        let mut s = seed | 1;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            s >> 11
        };
        let mut coo = CooMatrix::new(m, n);
        // Shifted diagonal ensures full rank, plus random fill.
        for j in 0..n {
            coo.push(j, j, 2.0 + (next() % 100) as f64 / 100.0).unwrap();
        }
        for _ in 0..(3 * m) {
            coo.push(
                (next() % m as u64) as usize,
                (next() % n as u64) as usize,
                (next() % 1000) as f64 / 500.0 - 0.9995,
            )
            .unwrap();
        }
        coo.to_csc().unwrap()
    }

    #[test]
    fn solves_consistent_system() {
        let a = random_tall(60, 15, 1);
        let x_true: Vec<f64> = (0..15).map(|i| (i as f64) / 7.0 - 1.0).collect();
        let mut b = vec![0.0; 60];
        a.spmv(&x_true, &mut b);
        let mut op = CscOp::new(&a);
        let r = lsqr(&mut op, &b, &LsqrOptions::default());
        assert!(matches!(
            r.stop,
            StopReason::AtolSatisfied | StopReason::BtolSatisfied | StopReason::ResidualZero
        ));
        for (got, want) in r.x.iter().zip(x_true.iter()) {
            assert!((got - want).abs() < 1e-8, "{got} vs {want}");
        }
    }

    #[test]
    fn solves_inconsistent_system_to_normal_equations() {
        let a = random_tall(80, 10, 2);
        let b: Vec<f64> = (0..80).map(|i| ((i * 37) % 19) as f64 - 9.0).collect();
        let mut op = CscOp::new(&a);
        let r = lsqr(&mut op, &b, &LsqrOptions::default());
        assert_eq!(r.stop, StopReason::AtolSatisfied);
        // Check Aᵀ(Ax − b) ≈ 0 directly.
        let mut ax = vec![0.0; 80];
        a.spmv(&r.x, &mut ax);
        let res: Vec<f64> = ax.iter().zip(b.iter()).map(|(a, b)| a - b).collect();
        let mut atr = vec![0.0; 10];
        a.spmv_t(&res, &mut atr);
        let rel = norm2(&atr) / (a.fro_norm() * norm2(&res));
        assert!(rel < 1e-10, "normal-equation residual {rel}");
    }

    #[test]
    fn zero_rhs_short_circuits() {
        let a = random_tall(20, 5, 3);
        let mut op = CscOp::new(&a);
        let r = lsqr(&mut op, &[0.0; 20], &LsqrOptions::default());
        assert_eq!(r.iters, 0);
        assert!(r.x.iter().all(|&v| v == 0.0));
        assert_eq!(r.stop, StopReason::ResidualZero);
    }

    #[test]
    fn max_iters_respected() {
        let a = random_tall(100, 40, 4);
        let b: Vec<f64> = (0..100).map(|i| (i as f64).sin()).collect();
        let mut op = CscOp::new(&a);
        let r = lsqr(
            &mut op,
            &b,
            &LsqrOptions {
                atol: 1e-30,
                btol: 1e-14,
                max_iters: 3,
                stall_window: 0,
            },
        );
        assert_eq!(r.iters, 3);
        assert_eq!(r.stop, StopReason::MaxIters);
    }

    #[test]
    fn preconditioning_cuts_iterations() {
        // Badly column-scaled matrix: plain LSQR needs many iterations,
        // diagonal preconditioning collapses them.
        let mut coo = CooMatrix::new(200, 20);
        let mut s = 9u64;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            s >> 11
        };
        for j in 0..20 {
            let scale = 10f64.powi(-(j as i32) / 3);
            coo.push(j, j, 2.0 * scale).unwrap();
            for _ in 0..8 {
                let i = (next() % 200) as usize;
                coo.push(i, j, ((next() % 1000) as f64 / 500.0 - 1.0) * scale)
                    .unwrap();
            }
        }
        let a = coo.to_csc().unwrap();
        let b: Vec<f64> = (0..200).map(|i| ((i * 13) % 7) as f64 - 3.0).collect();

        let opts = LsqrOptions {
            atol: 1e-12,
            btol: 1e-14,
            max_iters: 10_000,
            stall_window: 0,
        };
        let mut plain_op = CscOp::new(&a);
        let plain = lsqr(&mut plain_op, &b, &opts);

        let m = crate::precond::DiagPrecond::from_col_norms(&a);
        let mut aop = CscOp::new(&a);
        let mut pop = crate::op::PrecondOp::new(&mut aop, &m);
        let pre = lsqr(&mut pop, &b, &opts);

        assert!(
            pre.iters * 2 < plain.iters,
            "preconditioning didn't help: {} vs {}",
            pre.iters,
            plain.iters
        );
        // Both find the same least-squares solution.
        use crate::precond::Preconditioner;
        let mut x_pre = vec![0.0; 20];
        m.apply(&pre.x, &mut x_pre);
        let diff: f64 = x_pre
            .iter()
            .zip(plain.x.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        let scale = norm2(&plain.x).max(1.0);
        assert!(diff / scale < 1e-6, "solutions diverge: {diff}");
    }

    #[test]
    #[should_panic(expected = "rhs length")]
    fn wrong_rhs_length_panics() {
        let a = random_tall(10, 3, 5);
        let mut op = CscOp::new(&a);
        let _ = lsqr(&mut op, &[1.0; 5], &LsqrOptions::default());
    }
}
