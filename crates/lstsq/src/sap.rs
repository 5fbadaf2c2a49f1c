//! Sketch-and-precondition (SAP) least-squares solvers — paper §V-C.
//!
//! Pipeline: `Â = S·A` via the regeneration kernel (Algorithm 3, parallel
//! over column panels), factor the small `d×n` sketch (`d = γ·n`, γ = 2),
//! precondition LSQR with `R⁻¹` (SAP-QR) or `V·Σ⁻¹` (SAP-SVD, singular
//! values under `σ_max/10¹²` dropped), and iterate on the original sparse
//! `A`. The effective distortion theory (paper §V intro) bounds the
//! preconditioned condition number by `(√γ+1)/(√γ−1)` ≈ 5.8 for γ = 2, which
//! is why the paper's SAP iteration counts sit near 80 for *every* matrix —
//! the invariance the tests below check.

use crate::error::SolveError;
use crate::lsqr::{lsqr, LsqrOptions, LsqrResult, StopReason};
use crate::op::{CscOp, PrecondOp};
use crate::precond::{DiagPrecond, Preconditioner, SvdPrecond, UpperTriPrecond};
use densekit::{householder_qr_r, Matrix, ThinSvd};
use rngkit::{FastRng, UnitUniform};
use sketchcore::error::panic_payload_to_string;
use sketchcore::{try_sketch_alg3_par_cols, SketchConfig, SketchError};
use sparsekit::CscMatrix;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Which factorization of the sketch to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SapFlavor {
    /// Householder QR of the sketch; preconditioner `R⁻¹`.
    Qr,
    /// Thin SVD of the sketch; preconditioner `V·Σ⁻¹` with drop tolerance
    /// `σ_max/10¹²`. For problems with near-zero singular values.
    Svd,
}

/// SAP solver options.
#[derive(Clone, Copy, Debug)]
pub struct SapOptions {
    /// Oversampling factor γ (`d = γ·n`; the paper's least-squares runs use 2).
    pub gamma: usize,
    /// Sketch blocking along `d`.
    pub b_d: usize,
    /// Sketch blocking along `n`.
    pub b_n: usize,
    /// Seed of the sketching matrix.
    pub seed: u64,
    /// Factorization flavour.
    pub flavor: SapFlavor,
    /// LSQR settings (paper: `atol = 1e-14`). The solve runs with
    /// [`RecoveryPolicy::stall_window`] in place of `lsqr.stall_window`.
    pub lsqr: LsqrOptions,
}

impl Default for SapOptions {
    fn default() -> Self {
        Self {
            gamma: 2,
            b_d: 3000,
            b_n: 500,
            seed: 0x5AB,
            flavor: SapFlavor::Qr,
            lsqr: LsqrOptions::default(),
        }
    }
}

/// Outcome of a SAP solve with the phase breakdown of Table IX.
#[derive(Clone, Debug)]
pub struct SapReport {
    /// Least-squares solution.
    pub x: Vec<f64>,
    /// LSQR iterations.
    pub iters: usize,
    /// Seconds to compute the sketch `Â = S·A`.
    pub sketch_s: f64,
    /// Seconds to factor the sketch (QR or SVD).
    pub factor_s: f64,
    /// Seconds inside LSQR.
    pub solve_s: f64,
    /// End-to-end seconds.
    pub total_s: f64,
    /// Extra memory: the dense sketch plus the retained factor, bytes
    /// (Table XI's SAP column).
    pub memory_bytes: usize,
    /// Numerical rank retained (SVD flavour; `n` for QR).
    pub rank: usize,
    /// The raw LSQR diagnostics.
    pub lsqr_result: LsqrResult,
    /// Escalation attempts consumed before this solve succeeded.
    pub retries: u32,
    /// Whether a rank-deficient QR was replaced by the SVD flavour
    /// mid-attempt.
    pub fallback_svd: bool,
}

/// Bounds for [`try_solve_sap`]'s escalation loop.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryPolicy {
    /// Maximum attempts. Attempt `k` doubles γ `k` times and shifts the
    /// sketch seed, so a bad random draw cannot repeat.
    pub max_attempts: u32,
    /// LSQR stall window forwarded to [`LsqrOptions::stall_window`] (0
    /// would disable stagnation detection entirely).
    pub stall_window: usize,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            stall_window: 500,
        }
    }
}

/// Is this failure worth another (escalated) attempt? Structural problems
/// — corrupt input, wrong shapes, budget, zero rank — will not improve
/// with a fresh sketch; transient ones might.
fn retryable(e: &SolveError) -> bool {
    matches!(
        e,
        SolveError::Sketch(SketchError::NonFiniteSketch { .. })
            | SolveError::Sketch(SketchError::WorkerPanic(_))
            | SolveError::FactorizationFailed { .. }
            | SolveError::Stagnated { .. }
            | SolveError::Diverged { .. }
    )
}

/// Rank check on `diag(R)`: `|R_jj|` spans the column scales QR saw, and a
/// (near-)zero diagonal makes `R⁻¹` useless as a preconditioner.
fn qr_rank_deficient(r: &Matrix<f64>) -> Result<bool, SolveError> {
    let mut dmin = f64::INFINITY;
    let mut dmax = 0.0f64;
    for j in 0..r.ncols() {
        let d = r.col(j)[j].abs();
        if !d.is_finite() {
            return Err(SolveError::FactorizationFailed {
                detail: format!("non-finite R diagonal at column {j}"),
            });
        }
        dmin = dmin.min(d);
        dmax = dmax.max(d);
    }
    Ok(dmin <= dmax * 1e-12 || dmax == 0.0)
}

/// Factor the sketch into a preconditioner, with typed failure. A
/// rank-deficient QR (from `diag(R)`) falls back to SVD, and an SVD of rank
/// zero is an error.
///
/// Returns `(preconditioner, factor_bytes, rank, fell_back_to_svd)`.
#[allow(clippy::type_complexity)]
fn try_factor(
    ahat: &Matrix<f64>,
    flavor: SapFlavor,
) -> Result<(Box<dyn Preconditioner>, usize, usize, bool), SolveError> {
    let n = ahat.ncols();
    match flavor {
        SapFlavor::Qr => {
            let r = catch_unwind(AssertUnwindSafe(|| householder_qr_r(ahat))).map_err(|p| {
                SolveError::FactorizationFailed {
                    detail: panic_payload_to_string(p.as_ref()),
                }
            })?;
            if qr_rank_deficient(&r)? {
                // Rank-deficient sketch: fall back to the SVD flavour, which
                // drops the null directions instead of dividing by them.
                obskit::add(obskit::Ctr::SapFallbackSvd, 1);
                let (p, bytes, rank, _) = try_factor(ahat, SapFlavor::Svd)?;
                return Ok((p, bytes, rank, true));
            }
            let p = UpperTriPrecond::new(r);
            let bytes = p.memory_bytes();
            Ok((Box::new(p), bytes, n, false))
        }
        SapFlavor::Svd => {
            let svd = catch_unwind(AssertUnwindSafe(|| ThinSvd::factor(ahat))).map_err(|p| {
                SolveError::FactorizationFailed {
                    detail: panic_payload_to_string(p.as_ref()),
                }
            })?;
            let p = SvdPrecond::from_svd(&svd, 1e-12);
            let rank = p.rank();
            if rank == 0 {
                return Err(SolveError::RankDeficient { rank: 0, n });
            }
            let bytes = p.memory_bytes();
            Ok((Box::new(p), bytes, rank, false))
        }
    }
}

/// One pass of the SAP pipeline at a given oversampling and seed: hardened
/// sketch (validated input, budgeted output, output scan), scale,
/// factor with the rank check, LSQR with `stall_window`, report. Every
/// stop short of convergence is an error.
fn sap_pass(
    a: &CscMatrix<f64>,
    b: &[f64],
    opts: &SapOptions,
    gamma: usize,
    seed: u64,
    stall_window: usize,
    t_start: Instant,
) -> Result<SapReport, SolveError> {
    let n = a.ncols();
    // Saturating: an absurd γ must reach the sketch's budget check as an
    // absurd d, not wrap to a small one.
    let d = gamma.saturating_mul(n).max(n);

    // Phase 1: sketch.
    let t0 = Instant::now();
    let cfg = SketchConfig::new(d, opts.b_d, opts.b_n, seed);
    let sampler = UnitUniform::<f64>::sampler(FastRng::new(seed));
    let mut ahat = {
        let _sp = obskit::span("lstsq/sap/sketch");
        try_sketch_alg3_par_cols(a, &cfg, &sampler)?
    };
    // Normalize variance so σ(SQ) ≈ 1·‖Q‖: entries are uniform(-1,1) with
    // variance 1/3; divide by √(d/3) to make E‖S q‖² = ‖q‖².
    ahat.scale(1.0 / ((d as f64) / 3.0).sqrt());
    let sketch_s = t0.elapsed().as_secs_f64();
    let sketch_bytes = ahat.memory_bytes();

    // Phase 2: factor.
    let t1 = Instant::now();
    let (precond, factor_bytes, rank, fallback_svd) = {
        let _sp = obskit::span("lstsq/sap/factor");
        try_factor(&ahat, opts.flavor)?
    };
    let factor_s = t1.elapsed().as_secs_f64();
    drop(ahat); // the sketch is no longer needed once factored

    // Phase 3: preconditioned LSQR on the original A.
    let t2 = Instant::now();
    let lsqr_opts = LsqrOptions {
        stall_window,
        ..opts.lsqr
    };
    let mut aop = CscOp::new(a);
    let mut pop = PrecondOp::new(&mut aop, precond.as_ref());
    let result = {
        let _sp = obskit::span("lstsq/sap/solve");
        lsqr(&mut pop, b, &lsqr_opts)
    };
    match result.stop {
        StopReason::Diverged => {
            return Err(SolveError::Diverged {
                iters: result.iters,
            })
        }
        StopReason::Stagnated | StopReason::MaxIters => {
            return Err(SolveError::Stagnated {
                iters: result.iters,
                best_rel_atr: result.rel_atr,
            })
        }
        _ => {}
    }
    let mut x = vec![0.0; n];
    precond.apply(&result.x, &mut x);
    let solve_s = t2.elapsed().as_secs_f64();

    Ok(SapReport {
        x,
        iters: result.iters,
        sketch_s,
        factor_s,
        solve_s,
        total_s: t_start.elapsed().as_secs_f64(),
        memory_bytes: sketch_bytes + factor_bytes,
        rank,
        lsqr_result: result,
        retries: 0,
        fallback_svd,
    })
}

/// Solve `min ‖Ax − b‖₂` by sketch-and-precondition, with typed errors and
/// bounded recovery under [`RecoveryPolicy::default`] (3 attempts, stall
/// window 500).
///
/// Detection: invalid/corrupt input (via the hardened sketch path), sketch
/// worker panics, factorization failure, rank deficiency (from `diag(R)`),
/// LSQR stagnation and divergence. Recovery, per retry: γ doubles and the
/// sketch seed shifts (a fresh, larger random draw), and a rank-deficient QR
/// falls back to SVD *within* an attempt without consuming a retry. Each
/// retry bumps the `sap.retries` counter; each fallback `sap.fallback_svd`.
pub fn try_solve_sap(
    a: &CscMatrix<f64>,
    b: &[f64],
    opts: &SapOptions,
) -> Result<SapReport, SolveError> {
    try_solve_sap_with(a, b, opts, &RecoveryPolicy::default())
}

/// Attempt `attempt`'s oversampling: γ doubled `attempt` times, saturating.
fn escalated_gamma(gamma: usize, attempt: u32) -> usize {
    gamma.saturating_mul(1usize.checked_shl(attempt).unwrap_or(usize::MAX))
}

/// [`try_solve_sap`] with explicit escalation bounds.
pub fn try_solve_sap_with(
    a: &CscMatrix<f64>,
    b: &[f64],
    opts: &SapOptions,
    policy: &RecoveryPolicy,
) -> Result<SapReport, SolveError> {
    let _sp = obskit::span("lstsq/sap");
    let t_start = Instant::now();
    let n = a.ncols();
    if n == 0 {
        return Err(SolveError::RankDeficient { rank: 0, n: 0 });
    }
    if b.len() != a.nrows() {
        return Err(SolveError::DimensionMismatch {
            expected: a.nrows(),
            got: b.len(),
        });
    }
    let gamma = opts.gamma.max(1);
    let attempts = policy.max_attempts.max(1);
    let mut retries = 0u32;
    let mut last_err = None;
    for attempt in 0..attempts {
        let gamma_eff = escalated_gamma(gamma, attempt);
        let seed = opts.seed.wrapping_add(attempt as u64);
        match sap_pass(a, b, opts, gamma_eff, seed, policy.stall_window, t_start) {
            Ok(mut rep) => {
                rep.retries = retries;
                return Ok(rep);
            }
            Err(e) => {
                if !retryable(&e) {
                    return Err(e);
                }
                if attempt + 1 < attempts {
                    retries += 1;
                    obskit::add(obskit::Ctr::SapRetries, 1);
                }
                last_err = Some(e);
            }
        }
    }
    match last_err {
        Some(last) => Err(SolveError::RecoveryExhausted {
            attempts,
            last: Box::new(last),
        }),
        None => unreachable!("attempts >= 1, so the loop ran at least once"),
    }
}

/// LSQR with the diagonal column-equilibration preconditioner (the paper's
/// "LSQR-D" baseline). Returns the solution and the iteration count.
pub fn solve_lsqr_d(a: &CscMatrix<f64>, b: &[f64], opts: &LsqrOptions) -> (Vec<f64>, LsqrResult) {
    let m = DiagPrecond::from_col_norms(a);
    let mut aop = CscOp::new(a);
    let mut pop = PrecondOp::new(&mut aop, &m);
    let result = lsqr(&mut pop, b, opts);
    let mut x = vec![0.0; a.ncols()];
    m.apply(&result.x, &mut x);
    (x, result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::backward_error;
    use datagen::lsq::{tall_conditioned, CondSpec};
    use datagen::make_rhs;

    fn opts(flavor: SapFlavor) -> SapOptions {
        SapOptions {
            gamma: 2,
            b_d: 64,
            b_n: 16,
            seed: 42,
            flavor,
            lsqr: LsqrOptions {
                atol: 1e-14,
                btol: 1e-14,
                max_iters: 2000,
                stall_window: 0,
            },
        }
    }

    #[test]
    fn sap_qr_solves_benign_problem() {
        let a = tall_conditioned(600, 40, 0.05, CondSpec::WELL, 1);
        let (b, _) = make_rhs(&a, 7);
        let rep = try_solve_sap(&a, &b, &opts(SapFlavor::Qr)).expect("SAP converges");
        let err = backward_error(&a, &rep.x, &b);
        assert!(err < 1e-12, "backward error {err}");
        assert!(rep.iters < 300, "too many iterations: {}", rep.iters);
        assert_eq!(rep.rank, 40);
        assert!(rep.memory_bytes > 0);
    }

    #[test]
    fn sap_iterations_insensitive_to_conditioning() {
        // The paper's headline: SAP's iteration count barely varies with the
        // input's conditioning (Table IX: 77–90 across cond 1e2..1e18).
        let benign = tall_conditioned(500, 32, 0.06, CondSpec::WELL, 2);
        let scaled = tall_conditioned(500, 32, 0.06, CondSpec::scaled(8.0, 1.0), 3);
        let (b1, _) = make_rhs(&benign, 1);
        let (b2, _) = make_rhs(&scaled, 2);
        let r1 = try_solve_sap(&benign, &b1, &opts(SapFlavor::Qr)).expect("SAP converges");
        let r2 = try_solve_sap(&scaled, &b2, &opts(SapFlavor::Qr)).expect("SAP converges");
        let ratio = r1.iters.max(r2.iters) as f64 / r1.iters.min(r2.iters).max(1) as f64;
        assert!(
            ratio < 2.5,
            "SAP iterations vary too much: {} vs {}",
            r1.iters,
            r2.iters
        );
        // Both accurate.
        assert!(backward_error(&benign, &r1.x, &b1) < 1e-12);
        assert!(backward_error(&scaled, &r2.x, &b2) < 1e-12);
    }

    #[test]
    fn sap_beats_lsqr_d_on_ill_conditioned_problems() {
        // Spread-spectrum chain: conditioning that diagonal equilibration
        // cannot remove (the rails' regime) — LSQR-D grinds through ~n
        // Krylov steps, SAP needs only the distortion-bounded ~40. (At the
        // paper's n in the thousands the gap is 5–16x, Table IX.)
        let a = tall_conditioned(1500, 128, 0.05, CondSpec::chain(2.6), 5);
        let (b, _) = make_rhs(&a, 9);
        let lsqr_opts = LsqrOptions {
            atol: 1e-14,
            btol: 1e-14,
            max_iters: 20_000,
            stall_window: 0,
        };
        let (_, diag) = solve_lsqr_d(&a, &b, &lsqr_opts);
        let sap = try_solve_sap(&a, &b, &opts(SapFlavor::Qr)).expect("SAP converges");
        assert!(
            sap.iters * 3 / 2 < diag.iters,
            "SAP {} iters vs LSQR-D {}",
            sap.iters,
            diag.iters
        );
    }

    #[test]
    fn sap_svd_handles_rank_deficiency() {
        let a = tall_conditioned(400, 32, 0.08, CondSpec::deficient(14.0, 1.0), 7);
        let (b, _) = make_rhs(&a, 3);
        let rep = try_solve_sap(&a, &b, &opts(SapFlavor::Svd)).expect("SAP converges");
        // Dependent columns → rank < n detected from the sketch.
        assert!(rep.rank < 32, "rank {} should reflect deficiency", rep.rank);
        let err = backward_error(&a, &rep.x, &b);
        assert!(err < 1e-8, "backward error {err}");
        assert!(rep.x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn lsqr_d_baseline_solves() {
        let a = tall_conditioned(300, 20, 0.08, CondSpec::chain(2.0), 11);
        let (b, _) = make_rhs(&a, 5);
        let (x, res) = solve_lsqr_d(
            &a,
            &b,
            &LsqrOptions {
                atol: 1e-14,
                btol: 1e-14,
                max_iters: 10_000,
                stall_window: 0,
            },
        );
        assert!(backward_error(&a, &x, &b) < 1e-12);
        assert!(res.iters > 0);
    }

    /// FNV-1a over the little-endian bit patterns of `xs`.
    fn fnv1a(xs: &[f64]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for x in xs {
            for b in x.to_bits().to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn converging_solves_keep_the_unchecked_pipelines_bits() {
        // The checks only act when a stage fails; on a converging solve they
        // change no bit. The fingerprints are the x and iteration counts of
        // the unchecked pipeline (plain sketch, no rank check, no stall
        // window) that the checked one replaced, and are build-independent
        // like tests/numeric_contract.rs.
        let cases = [
            (
                "benign",
                600,
                40,
                0.05,
                CondSpec::WELL,
                1,
                7,
                SapFlavor::Qr,
                40,
                0xe85e_25e3_e6a7_69af,
            ),
            (
                "scaled",
                500,
                32,
                0.06,
                CondSpec::scaled(8.0, 1.0),
                3,
                2,
                SapFlavor::Qr,
                36,
                0x3316_4874_2321_2c74,
            ),
            (
                "chain",
                1500,
                128,
                0.05,
                CondSpec::chain(2.6),
                5,
                9,
                SapFlavor::Qr,
                60,
                0xa804_f9ca_6c6d_7e5c,
            ),
            (
                "deficient",
                400,
                32,
                0.08,
                CondSpec::deficient(14.0, 1.0),
                7,
                3,
                SapFlavor::Svd,
                32,
                0x54af_78ab_2e95_2df5,
            ),
        ];
        for (name, m, n, rho, cond, seed, rhs_seed, flavor, iters, fnv) in cases {
            let a = tall_conditioned(m, n, rho, cond, seed);
            let (b, _) = make_rhs(&a, rhs_seed);
            let rep = try_solve_sap(&a, &b, &opts(flavor)).expect(name);
            assert_eq!(
                (rep.iters, fnv1a(&rep.x)),
                (iters, fnv),
                "{name}: fingerprint"
            );
            assert_eq!((rep.retries, rep.fallback_svd), (0, false), "{name}");
        }
        // Where the checks act: a rank-deficient QR falls back to SVD within
        // the attempt and returns the SVD flavour's solve.
        let a = tall_conditioned(400, 32, 0.08, CondSpec::deficient(14.0, 1.0), 7);
        let (b, _) = make_rhs(&a, 3);
        let rep = try_solve_sap(&a, &b, &opts(SapFlavor::Qr)).expect("fallback");
        assert!(rep.fallback_svd);
        assert_eq!((rep.iters, fnv1a(&rep.x)), (32, 0x54af_78ab_2e95_2df5));
    }

    #[test]
    fn report_phase_times_consistent() {
        let a = tall_conditioned(300, 24, 0.08, CondSpec::WELL, 13);
        let (b, _) = make_rhs(&a, 1);
        let rep = try_solve_sap(&a, &b, &opts(SapFlavor::Qr)).expect("SAP converges");
        assert!(rep.total_s >= rep.sketch_s);
        assert!(rep.total_s + 1e-9 >= rep.sketch_s + rep.factor_s + rep.solve_s - 1e-3);
        // Memory: sketch (2n×n) dominates; must be ≥ 2n² f64.
        assert!(rep.memory_bytes >= 2 * 24 * 24 * 8);
    }
}
