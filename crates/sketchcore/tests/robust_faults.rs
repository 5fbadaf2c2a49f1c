//! Fault-injection and memory-budget tests for the hardened sketch drivers.
//!
//! The faultkit plan and the `SKETCH_MEM_BUDGET` environment variable are
//! process-global, so this integration binary gives them a process of its
//! own, away from the crate's concurrent unit tests, and its tests
//! serialize on a lock.

use rngkit::{FastRng, UnitUniform};
use sketchcore::{
    sketch_alg3, try_sketch_alg3, try_sketch_alg3_multi, try_sketch_alg3_par_cols, SketchConfig,
    SketchError,
};
use sparsekit::{CooMatrix, CscMatrix};
use std::sync::Mutex;

fn lock() -> std::sync::MutexGuard<'static, ()> {
    static L: Mutex<()> = Mutex::new(());
    L.lock().unwrap_or_else(|e| e.into_inner())
}

fn small_input() -> CscMatrix<f64> {
    let mut coo = CooMatrix::new(40, 12);
    let mut s = 5u64;
    for j in 0..12 {
        for _ in 0..4 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let i = (s >> 33) as usize % 40;
            let _ = coo.push(i, j, ((s >> 11) % 1000) as f64 / 500.0 - 1.0);
        }
    }
    coo.to_csc().expect("in-bounds by construction")
}

#[test]
fn injected_faults_surface_as_typed_errors() {
    let _g = lock();
    let a = small_input();
    let cfg = SketchConfig::new(24, 8, 4, 3);
    let sampler = UnitUniform::<f64>::sampler(FastRng::new(cfg.seed));

    // NaN injected into the sample stream: caught by the output scan.
    faultkit::set_plan_str("sketch/nan_stream=once", 0).expect("valid plan");
    let r = try_sketch_alg3(&a, &cfg, &sampler);
    assert!(
        matches!(r, Err(SketchError::NonFiniteSketch { .. })),
        "got {r:?}"
    );

    // The same fault plan is deterministic: `once` already fired, so a
    // second run under the same plan is clean.
    let r2 = try_sketch_alg3(&a, &cfg, &sampler).expect("once-trigger already spent");
    faultkit::clear();
    let clean = try_sketch_alg3(&a, &cfg, &sampler).expect("disarmed");
    assert_eq!(r2, clean);

    // Worker panic inside parkit: payload propagated, typed, no abort.
    faultkit::set_plan_str("parkit/worker=once", 0).expect("valid plan");
    let r = parkit::with_threads(2, || try_sketch_alg3_par_cols(&a, &cfg, &sampler));
    faultkit::clear();
    match r {
        Err(SketchError::WorkerPanic(msg)) => {
            assert!(msg.contains("parkit/worker"), "payload lost: {msg}")
        }
        other => panic!("expected WorkerPanic, got {other:?}"),
    }
}

/// The budget charges the outputs, `k·d·n` scalars, and nothing else: an
/// output that fits exactly is computed with the caller's blocking, bit for
/// bit, and one byte less is refused before anything is allocated. Two
/// threads, so a rule that also charged per-worker working sets would
/// refuse the exact fit.
#[test]
fn budget_charges_the_outputs_only() {
    let _g = lock();
    faultkit::clear();
    let a = small_input();
    let cfg = SketchConfig::new(24, 8, 4, 3);
    let samplers: Vec<_> = (0..2)
        .map(|r| UnitUniform::<f64>::sampler(FastRng::new(cfg.seed + r)))
        .collect();
    let want: Vec<_> = samplers.iter().map(|s| sketch_alg3(&a, &cfg, s)).collect();
    let output = (cfg.d * a.ncols() * std::mem::size_of::<f64>()) as u64;
    assert_eq!(output, 2304);

    type Run<'a> = Box<dyn Fn() -> Result<Vec<densekit::Matrix<f64>>, SketchError> + 'a>;
    let drivers: [(&str, u64, Run); 3] = [
        (
            "try_sketch_alg3",
            output,
            Box::new(|| try_sketch_alg3(&a, &cfg, &samplers[0]).map(|m| vec![m])),
        ),
        (
            "try_sketch_alg3_par_cols",
            output,
            Box::new(|| try_sketch_alg3_par_cols(&a, &cfg, &samplers[0]).map(|m| vec![m])),
        ),
        (
            "try_sketch_alg3_multi",
            2 * output,
            Box::new(|| try_sketch_alg3_multi(&a, &cfg, &samplers, true)),
        ),
    ];
    for (name, need, run) in &drivers {
        std::env::set_var("SKETCH_MEM_BUDGET", need.to_string());
        let fits = parkit::with_threads(2, run);
        std::env::set_var("SKETCH_MEM_BUDGET", (need - 1).to_string());
        let over = parkit::with_threads(2, run);
        std::env::remove_var("SKETCH_MEM_BUDGET");

        let got = fits.unwrap_or_else(|e| panic!("{name}: exact fit refused: {e}"));
        assert_eq!(got[..], want[..got.len()], "{name}: sketch changed");
        match over {
            Err(SketchError::BudgetExceeded {
                need_bytes,
                budget_bytes,
            }) => assert_eq!((need_bytes, budget_bytes), (*need, need - 1), "{name}"),
            other => panic!("{name}: expected BudgetExceeded, got {other:?}"),
        }
    }
}
