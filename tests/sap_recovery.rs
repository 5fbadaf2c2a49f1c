//! Self-healing SAP against the abnormal generators: the escalation loop
//! must converge where recovery is possible and return the matching typed
//! error where it is not, with every recovery recorded on the obskit
//! counters.
//!
//! The faultkit plan and the obskit registry are process-global, so every
//! test here holds [`serial`] while it arms and clears them.
//!
//! The threaded QR factor hands panels from worker to worker; a worker
//! killed at claim time must not leave the others waiting, so its panic
//! reaches the caller within a deadline.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Mutex, MutexGuard};
use std::time::Duration;

use datagen::{badly_scaled, make_rhs, nan_laced, rank_deficient};
use densekit::{householder_qr_r, Matrix};
use lstsq::{backward_error, try_solve_sap, LsqrOptions, SapFlavor, SapOptions, SolveError};
use sketchcore::SketchError;
use sparsekit::SparseError;

fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run `f` on a thread of its own and return what it returned, or its
/// panic message; panics if neither arrives within `secs` seconds. A hung
/// thread cannot be joined, so it is left detached and the test fails.
fn within<R: Send + 'static>(
    secs: u64,
    what: &str,
    f: impl FnOnce() -> R + Send + 'static,
) -> Result<R, String> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let out = catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
            p.downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| p.downcast_ref::<String>().cloned())
                .unwrap_or_default()
        });
        // Publish this thread's telemetry before the caller can see the
        // result (and release `serial()`), not when the thread exits.
        obskit::flush_thread();
        let _ = tx.send(out);
    });
    rx.recv_timeout(Duration::from_secs(secs))
        .unwrap_or_else(|_| panic!("{what}: hung, no result within {secs} s"))
}

fn opts(flavor: SapFlavor) -> SapOptions {
    SapOptions {
        gamma: 2,
        b_d: 64,
        b_n: 16,
        seed: 42,
        flavor,
        lsqr: LsqrOptions {
            atol: 1e-12,
            btol: 1e-12,
            max_iters: 4000,
            stall_window: 0,
        },
    }
}

#[test]
fn abnormal_inputs_recover_or_fail_typed() {
    let _serial = serial();
    obskit::set_enabled(true);
    obskit::reset();

    // 1. Rank-deficient input, QR flavour: diag(R) exposes the dependent
    //    columns, the attempt falls back to SVD without consuming a retry,
    //    and the min-norm solve converges.
    let a = rank_deficient::<f64>(400, 32, 16, 8, 29);
    let (b, _) = make_rhs(&a, 3);
    let before = obskit::snapshot().counters;
    let rep = try_solve_sap(&a, &b, &opts(SapFlavor::Qr)).expect("rank-deficient must recover");
    assert!(rep.fallback_svd, "QR on a rank-16 sketch must fall back");
    assert!(
        rep.rank < 32,
        "fallback SVD should expose the deficiency, got rank {}",
        rep.rank
    );
    assert!(rep.x.iter().all(|v| v.is_finite()));
    let err = backward_error(&a, &rep.x, &b);
    assert!(err < 1e-8, "backward error {err}");
    let after = obskit::snapshot().counters;
    assert_eq!(
        after[obskit::Ctr::SapFallbackSvd as usize] - before[obskit::Ctr::SapFallbackSvd as usize],
        1,
        "exactly one QR->SVD fallback should be counted"
    );

    // 2. NaN-laced input: structurally valid, so only the value scan can
    //    catch it — a typed validation error, not a retry candidate.
    let a = nan_laced::<f64>(400, 32, 8, 3, 23);
    let b: Vec<f64> = (0..400).map(|i| ((i % 13) as f64) - 6.0).collect();
    match try_solve_sap(&a, &b, &opts(SapFlavor::Qr)) {
        Err(SolveError::Sketch(SketchError::InvalidInput(SparseError::NotFinite { .. }))) => {}
        other => panic!("NaN-laced input must fail validation, got {other:?}"),
    }

    // 3. Badly scaled input (10 decades of column scales): the whole point
    //    of sketch-and-precondition — converges cleanly, no recovery needed.
    let a = badly_scaled::<f64>(400, 32, 8, 10.0, 31);
    let (b, _) = make_rhs(&a, 7);
    let rep = try_solve_sap(&a, &b, &opts(SapFlavor::Qr)).expect("badly scaled must solve");
    assert_eq!(rep.retries, 0);
    assert!(!rep.fallback_svd);
    let err = backward_error(&a, &rep.x, &b);
    assert!(err < 1e-8, "backward error {err}");

    // 4. Gamma escalation: poison the first attempt's sketch stream with a
    //    one-shot NaN; the retry doubles gamma, shifts the seed, and
    //    converges. The retry lands on the sap.retries counter.
    let a = badly_scaled::<f64>(400, 32, 8, 6.0, 37);
    let (b, _) = make_rhs(&a, 9);
    faultkit::clear();
    assert!(faultkit::set_plan_str("sketch/nan_stream=once", 0xC0FFEE).is_ok());
    let before = obskit::snapshot().counters;
    let rep = try_solve_sap(&a, &b, &opts(SapFlavor::Qr)).expect("retry must recover");
    faultkit::clear();
    assert_eq!(rep.retries, 1, "first attempt poisoned, second clean");
    let after = obskit::snapshot().counters;
    assert_eq!(
        after[obskit::Ctr::SapRetries as usize] - before[obskit::Ctr::SapRetries as usize],
        1
    );
    let err = backward_error(&a, &rep.x, &b);
    assert!(err < 1e-8, "backward error after retry {err}");
}

/// Kill each worker of a threaded 600×300 factorization at its claim: the
/// workers waiting for its panels give up, and the injected payload reaches
/// the caller.
#[test]
fn factor_worker_fault_reaches_the_caller() {
    let _serial = serial();
    let mut s = 17u64;
    let a = Matrix::from_fn(600, 300, |_, _| {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((s >> 33) as f64 / (1u64 << 31) as f64) - 0.5
    });
    for threads in [2, 3] {
        for k in 1..=threads {
            let what = format!("{threads} workers, claim {k} killed");
            assert!(faultkit::set_plan_str(&format!("parkit/worker=nth:{k}"), 0).is_ok());
            let a = a.clone();
            let out = within(5, &what, move || {
                parkit::with_threads(threads, || householder_qr_r(&a))
            });
            let fired = faultkit::fired_count("parkit/worker");
            faultkit::clear();
            assert_eq!(fired, 1, "{what}: the factor forks {threads} workers");
            let msg = out.expect_err("the worker's panic must reach the caller");
            assert!(msg.contains("parkit/worker"), "{what}: payload lost: {msg}");
        }
    }
}

/// `try_solve_sap` on the benchmark's `sap` shape (9600×300, a 600×300
/// sketch) with one factor worker killed: the attempt fails as a retryable
/// `FactorizationFailed`, so the solve recovers on a retry or returns a
/// typed error, and never hangs.
#[test]
fn sap_with_a_factor_worker_fault_recovers_or_fails_typed() {
    let _serial = serial();
    let spec = datagen::lsq::paper_spec("spal_004");
    let a = datagen::tall_conditioned(9600, 300, 0.014, spec, 5);
    let b = make_rhs(&a, 5 ^ 0xB).0;
    let opts = SapOptions {
        gamma: 2,
        seed: 7,
        ..SapOptions::default()
    };
    for threads in [2, 3] {
        // A plan that never fires still counts the claims of a clean solve:
        // the sketch's, then the factor's last.
        assert!(faultkit::set_plan_str("parkit/worker=nth:1000000", 0).is_ok());
        let rep = parkit::with_threads(threads, || try_solve_sap(&a, &b, &opts));
        let claims = faultkit::hit_count("parkit/worker");
        faultkit::clear();
        let rep = rep.expect("clean solve");
        assert_eq!(rep.retries, 0);
        let factor_workers = threads.min(300 / 16 / 2) as u64;
        assert!(claims > factor_workers, "{claims} claims");
        for k in claims - factor_workers + 1..=claims {
            let what = format!("{threads} threads, claim {k} of {claims} killed");
            assert!(faultkit::set_plan_str(&format!("parkit/worker=nth:{k}"), 0).is_ok());
            let (a2, b2) = (a.clone(), b.clone());
            let out = within(30, &what, move || {
                parkit::with_threads(threads, || try_solve_sap(&a2, &b2, &opts))
            });
            let fired = faultkit::fired_count("parkit/worker");
            faultkit::clear();
            assert_eq!(fired, 1, "{what}: the fault fired");
            // A typed SolveError is the other outcome the contract allows.
            let solved = out.unwrap_or_else(|msg| panic!("{what}: panicked through: {msg}"));
            if let Ok(rep) = solved {
                assert!(rep.retries >= 1, "{what}: recovered without a retry");
                let err = backward_error(&a, &rep.x, &b);
                assert!(err < 1e-8, "{what}: backward error {err}");
            }
        }
    }
}

#[test]
fn oversized_gamma_is_a_typed_budget_error() {
    // The serving layer's SolveSap shape. No γ here can fit the sketch in
    // memory, and none may wrap d = γ·n to a size that does.
    let _serial = serial();
    let a = datagen::uniform_random::<f64>(2_400, 40, 0.05, 1);
    let (b, _) = make_rhs(&a, 2);
    for gamma in [1usize << 40, 1 << 58, 1 << 62, usize::MAX / 3] {
        let opts = SapOptions {
            gamma,
            ..opts(SapFlavor::Qr)
        };
        let (a2, b2) = (a.clone(), b.clone());
        let what = format!("gamma = {gamma}");
        let out = within(30, &what, move || try_solve_sap(&a2, &b2, &opts));
        match out.unwrap_or_else(|msg| panic!("{what}: panicked through: {msg}")) {
            Err(SolveError::Sketch(SketchError::BudgetExceeded { .. })) => {}
            other => panic!("{what}: expected BudgetExceeded, got {other:?}"),
        }
    }
}
