//! Hardened sketch drivers: validated inputs, a memory budget on the
//! outputs, fault-injectable sample streams, and worker-panic containment.
//!
//! The three hardened entry points — [`try_sketch_alg3`],
//! [`try_sketch_alg3_par_cols`] and [`crate::try_sketch_alg3_multi`] —
//! share one shell (`checked`) that adds, in order:
//!
//! 1. **Input validation** — full CSC invariant check plus NaN/Inf scan
//!    ([`sparsekit::CscMatrix::validate`]), so corrupted structure is a
//!    typed [`SketchError::InvalidInput`] rather than an out-of-bounds
//!    panic deep inside a kernel. The batched driver may skip it for
//!    registry-held (pre-validated) matrices.
//! 2. **Memory budget** — the dense outputs, `k·d·n` scalars for `k`
//!    sketches, are the only dense allocation a sketch makes: Algorithm 3
//!    regenerates each segment of `S` inside its axpy through a 64-entry
//!    stack tile, and the column-panel workers write disjoint chunks of
//!    `Â`. Their byte count is checked against [`memory_budget_bytes`]
//!    (`SKETCH_MEM_BUDGET`, default 12 GiB) before anything is allocated;
//!    over budget, or too large to count, is [`SketchError::BudgetExceeded`].
//!    The blocking `(b_d, b_n)` is never changed.
//! 3. **Fault sites** — `sketch/nan_stream` poisons the regenerated sample
//!    stream through [`FaultSampler`], and `parkit/worker` (inside parkit)
//!    panics a worker. Both are armed via `SKETCH_FAULTS`; disarmed they
//!    cost one relaxed load per *driver call*, never per nonzero — the fault
//!    wrapper is only installed when [`faultkit::armed`] is true.
//! 4. **Panic containment and output scan** — panics (including worker
//!    panics parkit re-raises) become [`SketchError::WorkerPanic`], and the
//!    finished sketch is scanned for NaN/Inf
//!    ([`SketchError::NonFiniteSketch`]) so poisoned data cannot leak into
//!    a downstream factorization panic.
//!
//! Underneath, the shell runs the same block kernels as every other driver.

use crate::config::SketchConfig;
use crate::error::{panic_payload_to_string, SketchError};
use crate::parallel::sketch_alg3_par_cols;
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

/// The hardened drivers' shared shell: validate `a` (when asked), refuse
/// `k` sketch outputs of `cfg.d × a.ncols()` scalars that exceed the memory
/// budget, run the sketch with panics captured as
/// [`SketchError::WorkerPanic`], then scan every output for non-finite
/// entries.
pub(crate) fn checked<T, R, F>(
    a: &CscMatrix<T>,
    cfg: &SketchConfig,
    k: usize,
    validate: bool,
    run: F,
) -> Result<R, SketchError>
where
    T: Scalar,
    R: AsRef<[Matrix<T>]>,
    F: FnOnce() -> R,
{
    if validate {
        a.validate()?;
    }
    let budget_bytes = memory_budget_bytes();
    let need = (k as u64)
        .checked_mul(cfg.d as u64)
        .and_then(|v| v.checked_mul(a.ncols() as u64))
        .and_then(|v| v.checked_mul(std::mem::size_of::<T>() as u64));
    if need.is_none_or(|n| n > budget_bytes) {
        return Err(SketchError::BudgetExceeded {
            need_bytes: need.unwrap_or(u64::MAX),
            budget_bytes,
        });
    }
    // parkit re-raises worker panic payloads on the calling thread after
    // flushing telemetry; catching here turns them into typed errors.
    // AssertUnwindSafe: the closure only owns its operands; on Err nothing
    // it touched is observable.
    let out = catch_unwind(AssertUnwindSafe(run))
        .map_err(|p| SketchError::WorkerPanic(panic_payload_to_string(p.as_ref())))?;
    // A branch-free sweep (it vectorizes) finds the poisoned outputs; only
    // those are searched for the entry.
    let poisoned = out.as_ref().iter().filter(|ahat| {
        !ahat
            .as_slice()
            .iter()
            .fold(true, |ok, v| ok & v.is_finite())
    });
    for ahat in poisoned {
        for j in 0..ahat.ncols() {
            if let Some(i) = ahat.col(j).iter().position(|v| !v.is_finite()) {
                return Err(SketchError::NonFiniteSketch { row: i, col: j });
            }
        }
    }
    Ok(out)
}

/// Hardened sequential Algorithm 3: validated input, budgeted output,
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
    let [ahat] = checked(a, cfg, 1, true, || {
        [if faultkit::armed() {
            crate::sketch_alg3(a, cfg, &FaultSampler::new(sampler.clone()))
        } else {
            crate::sketch_alg3(a, cfg, sampler)
        }]
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
    let [ahat] = checked(a, cfg, 1, true, || {
        [if faultkit::armed() {
            sketch_alg3_par_cols(a, cfg, &FaultSampler::new(sampler.clone()))
        } else {
            sketch_alg3_par_cols(a, cfg, sampler)
        }]
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
