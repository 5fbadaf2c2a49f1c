//! Hardened sketch drivers: validated inputs, a memory-budget guard that
//! degrades block sizes instead of OOM-ing, fault-injectable sample
//! streams, and worker-panic containment.
//!
//! The plain drivers stay panic-on-misuse and zero-overhead; these wrappers
//! add, in order:
//!
//! 1. **Input validation** — full CSC invariant check plus NaN/Inf scan
//!    ([`sparsekit::CscMatrix::validate`]), so corrupted structure is a
//!    typed [`SketchError::InvalidInput`] rather than an out-of-bounds
//!    panic deep inside a kernel.
//! 2. **Memory budget** ([`plan_blocks`]) — the container gives us ~15 GB;
//!    `SKETCH_MEM_BUDGET` (bytes, default 12 GiB) caps the sketch's
//!    footprint. The dense output `d×n` is irreducible, but the per-thread
//!    working set scales with `b_d·b_n`, so the guard halves block sizes
//!    (recording each halving as the `budget.degraded_blocks` counter)
//!    until the plan fits, and only errors with
//!    [`SketchError::BudgetExceeded`] when the output alone cannot fit.
//! 3. **Fault sites** — `sketch/alloc` shrinks the apparent budget (forcing
//!    the degradation path), `sketch/nan_stream` poisons the regenerated
//!    sample stream through [`FaultSampler`], and `parkit/worker` (inside
//!    parkit) panics a worker. All are armed via `SKETCH_FAULTS`; disarmed
//!    they cost one relaxed load per *driver call*, never per nonzero —
//!    the fault wrapper is only installed when [`faultkit::armed`] is true.
//! 4. **Output scan** — the finished sketch is scanned for NaN/Inf
//!    ([`SketchError::NonFiniteSketch`]) so poisoned data cannot leak into
//!    a downstream factorization panic.
//!
//! The three hardened entry points — [`try_sketch_alg3`],
//! [`try_sketch_alg3_par_cols`] and [`crate::try_sketch_alg3_multi`] (no
//! budget planner; validation optional) — share one shell for validation,
//! panic containment and the output scan. Underneath, they call the plain
//! drivers, so they run the same block kernels as every other driver; fault
//! injection is one more sampler adapter ([`FaultSampler`]) around the
//! caller's sampler.

use crate::config::SketchConfig;
use crate::error::{panic_payload_to_string, SketchError};
use densekit::Matrix;
use rngkit::{BlockSampler, SampleCost};
use sparsekit::{CscMatrix, Scalar};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Default memory budget when `SKETCH_MEM_BUDGET` is unset: 12 GiB,
/// leaving headroom below the 15 GB container limit.
pub const DEFAULT_MEM_BUDGET: u64 = 12 * (1 << 30);

/// Parse a byte size with an optional `K`/`M`/`G` suffix (powers of 1024).
fn parse_bytes(s: &str) -> Option<u64> {
    let s = s.trim();
    let (num, unit) = match s.as_bytes().last()? {
        b'K' | b'k' => (&s[..s.len() - 1], 1 << 10),
        b'M' | b'm' => (&s[..s.len() - 1], 1 << 20),
        b'G' | b'g' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    num.trim().parse::<u64>().ok()?.checked_mul(unit)
}

/// The active memory budget in bytes (`SKETCH_MEM_BUDGET`, else 12 GiB).
pub fn memory_budget_bytes() -> u64 {
    std::env::var("SKETCH_MEM_BUDGET")
        .ok()
        .and_then(|s| parse_bytes(&s))
        .unwrap_or(DEFAULT_MEM_BUDGET)
}

/// A budget-checked blocking plan: the configuration to actually run with,
/// plus how much degradation was applied to fit.
#[derive(Clone, Copy, Debug)]
pub struct BudgetPlan {
    /// The (possibly degraded) configuration to run.
    pub cfg: SketchConfig,
    /// Number of block-size halvings applied (also bumped onto the
    /// `budget.degraded_blocks` obskit counter).
    pub degraded: u32,
    /// Bytes the plan needs (output + per-thread working sets).
    pub need_bytes: u64,
    /// The budget the plan was fitted against.
    pub budget_bytes: u64,
}

/// Fit `cfg` to the memory budget for an `n`-column sketch of `T` scalars.
///
/// The model charges the dense output `d·n` plus one `b_d·b_n` panel
/// working set per worker thread. Block sizes are halved (largest first)
/// until the total fits; each halving bumps `budget.degraded_blocks`. If
/// the irreducible output alone exceeds the budget the plan fails with
/// [`SketchError::BudgetExceeded`].
///
/// The `sketch/alloc` fault site simulates allocation pressure by shrinking
/// the apparent budget to just above the output size, driving this exact
/// degradation path.
pub fn plan_blocks<T: Scalar>(cfg: &SketchConfig, n: usize) -> Result<BudgetPlan, SketchError> {
    let word = std::mem::size_of::<T>() as u64;
    let threads = parkit::current_threads() as u64;
    let mut budget = memory_budget_bytes();
    // An output too large to count in bytes fits no budget.
    let Some(out_bytes) = (cfg.d as u64)
        .checked_mul(n as u64)
        .and_then(|v| v.checked_mul(word))
    else {
        return Err(SketchError::BudgetExceeded {
            need_bytes: u64::MAX,
            budget_bytes: budget,
        });
    };
    if faultkit::fire("sketch/alloc") {
        // Simulated allocation failure: leave just enough beyond the output
        // for a b_n=1 working set, forcing the degradation path.
        let b_n1 = threads.saturating_mul(cfg.b_d as u64).saturating_mul(word);
        budget = budget.min(out_bytes.saturating_add(b_n1).saturating_add(1));
    }
    if out_bytes > budget {
        return Err(SketchError::BudgetExceeded {
            need_bytes: out_bytes,
            budget_bytes: budget,
        });
    }
    let (mut b_d, mut b_n) = (cfg.b_d, cfg.b_n);
    let mut degraded = 0u32;
    let working = |b_d: usize, b_n: usize| {
        threads
            .saturating_mul(b_d as u64)
            .saturating_mul(b_n as u64)
            .saturating_mul(word)
    };
    // Halve b_n first: the RNG checkpoints are addressed by (i / b_d, k), so
    // b_n does not enter the stream derivation and the degraded sketch is
    // bitwise identical. Shrinking b_d is the last resort — it re-realizes S
    // (the paper's reproducibility caveat), still a valid sketch.
    while out_bytes.saturating_add(working(b_d, b_n)) > budget && (b_d > 1 || b_n > 1) {
        if b_n > 1 {
            b_n /= 2;
        } else {
            b_d /= 2;
        }
        degraded += 1;
    }
    if degraded > 0 {
        obskit::add(obskit::Ctr::BudgetDegradedBlocks, degraded as u64);
    }
    let need_bytes = out_bytes.saturating_add(working(b_d, b_n));
    if need_bytes > budget {
        return Err(SketchError::BudgetExceeded {
            need_bytes,
            budget_bytes: budget,
        });
    }
    Ok(BudgetPlan {
        cfg: SketchConfig::new(cfg.d, b_d, b_n, cfg.seed),
        degraded,
        need_bytes,
        budget_bytes: budget,
    })
}

/// A [`BlockSampler`] wrapper that poisons the regenerated sample stream
/// when the `sketch/nan_stream` fault site fires (once per fill call, i.e.
/// per regenerated column segment of `S`).
///
/// Only installed when [`faultkit::armed`] returns true, so the disarmed
/// hot path never pays the per-fill site lookup.
#[derive(Clone, Debug)]
pub struct FaultSampler<S> {
    inner: S,
}

impl<S> FaultSampler<S> {
    /// Wrap `inner`.
    pub fn new(inner: S) -> Self {
        Self { inner }
    }
}

impl<T: Scalar, S: BlockSampler<T>> BlockSampler<T> for FaultSampler<S> {
    #[inline]
    fn set_state(&mut self, block_row: usize, col: usize) {
        self.inner.set_state(block_row, col);
    }

    fn fill(&mut self, out: &mut [T]) {
        self.inner.fill(out);
        if !out.is_empty() && faultkit::fire("sketch/nan_stream") {
            out[0] = T::from_f64(f64::NAN);
        }
    }

    fn fill_axpy(&mut self, coeff: T, out: &mut [T]) {
        self.inner.fill_axpy(coeff, out);
        if !out.is_empty() && faultkit::fire("sketch/nan_stream") {
            out[0] = T::from_f64(f64::NAN);
        }
    }

    fn cost(&self) -> SampleCost {
        self.inner.cost()
    }
}

/// The hardened drivers' shared shell: validate `a` (when asked), run the
/// sketch with panics captured as [`SketchError::WorkerPanic`], then scan
/// every output for non-finite entries.
pub(crate) fn checked<T, R, F>(a: &CscMatrix<T>, validate: bool, run: F) -> Result<R, SketchError>
where
    T: Scalar,
    R: AsRef<[Matrix<T>]>,
    F: FnOnce() -> Result<R, SketchError>,
{
    if validate {
        a.validate()?;
    }
    // parkit re-raises worker panic payloads on the calling thread after
    // flushing telemetry; catching here turns them into typed errors.
    // AssertUnwindSafe: the closure only owns its operands; on Err nothing
    // it touched is observable.
    let out = catch_unwind(AssertUnwindSafe(run))
        .map_err(|p| SketchError::WorkerPanic(panic_payload_to_string(p.as_ref())))??;
    for ahat in out.as_ref() {
        for j in 0..ahat.ncols() {
            if let Some(i) = ahat.col(j).iter().position(|v| !v.is_finite()) {
                return Err(SketchError::NonFiniteSketch { row: i, col: j });
            }
        }
    }
    Ok(out)
}

/// Hardened sequential Algorithm 3: validated input, budget-fitted blocks,
/// fault-injectable sample stream, scanned output.
pub fn try_sketch_alg3<T, S>(
    a: &CscMatrix<T>,
    cfg: &SketchConfig,
    sampler: &S,
) -> Result<Matrix<T>, SketchError>
where
    T: Scalar,
    S: BlockSampler<T> + Clone,
{
    let [ahat] = checked(a, true, || {
        let plan = plan_blocks::<T>(cfg, a.ncols())?;
        Ok([if faultkit::armed() {
            crate::sketch_alg3(a, &plan.cfg, &FaultSampler::new(sampler.clone()))
        } else {
            crate::sketch_alg3(a, &plan.cfg, sampler)
        }])
    })?;
    Ok(ahat)
}

/// Hardened parallel Algorithm 3 (column-panel driver): everything
/// [`try_sketch_alg3`] does, plus containment of worker panics — a panic
/// inside a parkit worker (including the injected `parkit/worker` fault)
/// surfaces as [`SketchError::WorkerPanic`] with every thread's telemetry
/// flushed and trace span pairs balanced.
pub fn try_sketch_alg3_par_cols<T, S>(
    a: &CscMatrix<T>,
    cfg: &SketchConfig,
    sampler: &S,
) -> Result<Matrix<T>, SketchError>
where
    T: Scalar + Send + Sync,
    S: BlockSampler<T> + Clone + Send + Sync,
{
    let [ahat] = checked(a, true, || {
        let plan = plan_blocks::<T>(cfg, a.ncols())?;
        Ok([if faultkit::armed() {
            crate::sketch_alg3_par_cols(a, &plan.cfg, &FaultSampler::new(sampler.clone()))
        } else {
            crate::sketch_alg3_par_cols(a, &plan.cfg, sampler)
        }])
    })?;
    Ok(ahat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rngkit::{FastRng, UnitUniform};
    use sparsekit::corrupt::{corrupt_csc, Corruption};

    fn small_input() -> CscMatrix<f64> {
        let mut coo = sparsekit::CooMatrix::new(40, 12);
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
    fn hardened_matches_plain_when_disarmed() {
        faultkit::clear();
        let a = small_input();
        let cfg = SketchConfig::new(24, 8, 4, 3);
        let sampler = UnitUniform::<f64>::sampler(FastRng::new(cfg.seed));
        let plain = crate::sketch_alg3(&a, &cfg, &sampler);
        let hardened = try_sketch_alg3(&a, &cfg, &sampler).expect("benign input");
        assert_eq!(plain, hardened);
        let par = try_sketch_alg3_par_cols(&a, &cfg, &sampler).expect("benign input");
        assert_eq!(plain, par);
    }

    #[test]
    fn corrupt_inputs_yield_typed_errors() {
        faultkit::clear();
        let a = small_input();
        let cfg = SketchConfig::new(24, 8, 4, 3);
        let sampler = UnitUniform::<f64>::sampler(FastRng::new(cfg.seed));
        for kind in Corruption::ALL {
            let Some(bad) = corrupt_csc(&a, kind, 1) else {
                continue;
            };
            match try_sketch_alg3(&bad, &cfg, &sampler) {
                Err(SketchError::InvalidInput(_)) => {}
                other => panic!("{kind:?}: expected InvalidInput, got {other:?}"),
            }
        }
    }

    // Fault-arming and budget-env tests live in tests/robust_faults.rs:
    // the faultkit plan and SKETCH_MEM_BUDGET are process-global, so they
    // need their own binary, away from this crate's concurrent unit tests.

    #[test]
    fn degraded_blocks_compute_the_same_sketch() {
        // b_n does not enter the checkpoint derivation (streams are keyed by
        // (i / b_d, k)), so b_n-only degradation is bitwise invariant.
        faultkit::clear();
        let a = small_input();
        let cfg = SketchConfig::new(24, 8, 4, 3);
        let sampler = UnitUniform::<f64>::sampler(FastRng::new(cfg.seed));
        let reference = crate::sketch_alg3(&a, &cfg, &sampler);
        let degraded_cfg = SketchConfig::new(24, 8, 1, 3);
        let degraded = crate::sketch_alg3(&a, &degraded_cfg, &sampler);
        assert_eq!(degraded, reference);
    }

    #[test]
    fn plentiful_budget_leaves_plan_untouched() {
        let cfg = SketchConfig::new(64, 32, 16, 1);
        let plan = plan_blocks::<f64>(&cfg, 100).expect("fits");
        assert_eq!(plan.degraded, 0);
        assert_eq!((plan.cfg.b_d, plan.cfg.b_n), (32, 16));
        assert!(plan.need_bytes <= plan.budget_bytes);
    }

    #[test]
    fn parse_bytes_suffixes() {
        assert_eq!(parse_bytes("1024"), Some(1024));
        assert_eq!(parse_bytes("4K"), Some(4096));
        assert_eq!(parse_bytes("2M"), Some(2 << 20));
        assert_eq!(parse_bytes("3G"), Some(3u64 << 30));
        assert_eq!(parse_bytes("3g"), Some(3u64 << 30));
        assert_eq!(parse_bytes("nope"), None);
        assert_eq!(parse_bytes(""), None);
        // 2^34 GiB = 2^64 bytes: overflow is malformed, not a 0-byte budget.
        assert_eq!(parse_bytes("17179869184G"), None);
        assert_eq!(parse_bytes("17179869183G"), Some(17179869183u64 << 30));
    }
}
