//! Multi-seed batched sketching: one blocked pass through `A` serving `k`
//! independent sketch requests.
//!
//! The serving layer's headline amortization (see the `sketchd` crate): the
//! sparse operand `A` is fixed and resident, while each request only differs
//! in the seed defining its implicit random matrix `S`. A batch of `k`
//! compatible requests (same `A`, same `(d, b_d, b_n)` blocking, distinct
//! seeds) can therefore share a single traversal of `A`'s compressed data —
//! the column pointers, row indices and values are streamed once and served
//! to all `k` output sketches from cache, instead of being re-streamed `k`
//! times by `k` sequential [`crate::sketch_alg3`] calls.
//!
//! Random-sample work is *not* shared (each request's stream is keyed by its
//! own seed), so the win is bounded by the traversal + block-loop share of
//! the kernel: largest for small `d` (few samples per nonzero) over a large
//! `A` (traversal-dominated), and at the service level where a batch also
//! amortizes queue transit and dispatch wakeups.
//!
//! **Bitwise contract:** inside each block the batch loops over its
//! samplers and runs Algorithm 3's one kernel body ([`crate::alg3`]) for
//! each, so sampler `r` sees exactly the `(set_state, fill_axpy)` call
//! sequence a sequential `sketch_alg3` call with that sampler would — same
//! blocks, same order, same slices. Checkpointed samplers are pure functions
//! of `(seed, i, j)`, so output `r` is bitwise identical to the sequential
//! result (asserted by this module's tests and re-asserted end-to-end by
//! `sketchd`'s batching tests).

use crate::alg1::{self, Panel};
use crate::alg3;
use crate::config::SketchConfig;
use crate::error::SketchError;
use crate::robust::checked;
use densekit::Matrix;
use rngkit::BlockSampler;
use sparsekit::{CscMatrix, Scalar};

/// Compute `k` sketches `Âᵣ = Sᵣ·A` in one blocked pass over `A`, hardened:
/// validated input (when `validate`), the `k·d·n` output scalars checked
/// against [`crate::robust::memory_budget_bytes`] before anything is
/// allocated, one catch_unwind around the whole pass, and a per-output
/// non-finite scan.
///
/// `samplers[r]` defines `Sᵣ` (cloned; caller state untouched). Returns one
/// `d×n` matrix per sampler, each bitwise identical to
/// `sketch_alg3(a, cfg, &samplers[r])`. With an empty sampler slice this is
/// a no-op returning an empty vector.
///
/// `validate` can be skipped for registry-held (pre-validated) matrices, so
/// per-request cost stays proportional to the sketch, not to `nnz(A)`.
pub fn try_sketch_alg3_multi<T, S>(
    a: &CscMatrix<T>,
    cfg: &SketchConfig,
    samplers: &[S],
    validate: bool,
) -> Result<Vec<Matrix<T>>, SketchError>
where
    T: Scalar,
    S: BlockSampler<T> + Clone,
{
    checked(a, cfg, samplers.len(), validate, || {
        let _sp = obskit::span("sketch/alg3_multi");
        let mut outs: Vec<Matrix<T>> = samplers
            .iter()
            .map(|_| Matrix::zeros(cfg.d, a.ncols()))
            .collect();
        let mut ss: Vec<S> = samplers.to_vec();
        alg1::drive(cfg, a.ncols(), |b| {
            let t0 = crate::obs::block_timer();
            // The block's slice of A is streamed by the first request and
            // served to the rest from cache.
            for (s, m) in ss.iter_mut().zip(outs.iter_mut()) {
                alg3::kernel(&mut Panel::new(m.as_mut_slice(), cfg.d, 0), a, b, s);
            }
            if let Some(t0) = t0 {
                let dur_ns = t0.elapsed().as_nanos() as u64;
                let nnz_b: usize = (b.j..b.j + b.n1).map(|k| a.col(k).0.len()).sum();
                // Counter accounting scales with the batch (k seeks/samples per
                // nonzero); bytes_a is charged once — the traversal the batch
                // shares — which is exactly the asymmetry the batcher exploits.
                crate::obs::block_done::<T>(
                    crate::obs::BlockObs {
                        path: "sketch/alg3_multi/block",
                        i: b.i,
                        j: b.j,
                        d1: b.d1,
                        n1: b.n1,
                        nnz: nnz_b,
                        rows_hit: None,
                        batch: ss.len(),
                    },
                    dur_ns,
                );
            }
        });
        outs
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rngkit::{FastRng, UnitUniform};

    fn random_csc(m: usize, n: usize, nnz: usize, seed: u64) -> CscMatrix<f64> {
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 11
        };
        let mut coo = sparsekit::CooMatrix::new(m, n);
        for _ in 0..nnz {
            let r = (next() % m as u64) as usize;
            let c = (next() % n as u64) as usize;
            let v = (next() % 2000) as f64 / 1000.0 - 1.0;
            coo.push(r, c, v + 0.001).unwrap();
        }
        coo.to_csc().unwrap()
    }

    /// The tentpole contract: a batched k-request pass is bitwise identical
    /// to k sequential calls with the same seeds (the PR 1 equivalence
    /// pattern, extended to batches).
    #[test]
    fn batched_bitwise_matches_sequential() {
        let a = random_csc(60, 30, 220, 11);
        for (b_d, b_n) in [(8, 5), (64, 30), (1, 1)] {
            let cfg = SketchConfig::new(24, b_d, b_n, 0);
            let samplers: Vec<_> = (0..5)
                .map(|r| UnitUniform::<f64>::sampler(FastRng::new(1000 + r)))
                .collect();
            let batched = try_sketch_alg3_multi(&a, &cfg, &samplers, true).expect("benign input");
            assert_eq!(batched.len(), 5);
            for (r, s) in samplers.iter().enumerate() {
                let seq = crate::sketch_alg3(&a, &cfg, s);
                assert_eq!(
                    batched[r], seq,
                    "request {r} not bitwise identical at blocking ({b_d},{b_n})"
                );
            }
        }
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let a = random_csc(10, 6, 20, 3);
        let cfg = SketchConfig::new(8, 4, 3, 0);
        let none: [rngkit::DistSampler<UnitUniform<f64>, FastRng>; 0] = [];
        let outs = try_sketch_alg3_multi(&a, &cfg, &none, true).expect("benign input");
        assert!(outs.is_empty());
    }

    #[test]
    fn hardened_multi_matches_and_scans() {
        let a = random_csc(40, 16, 120, 7);
        let cfg = SketchConfig::new(12, 6, 4, 0);
        let samplers: Vec<_> = (0..3)
            .map(|r| UnitUniform::<f64>::sampler(FastRng::new(50 + r)))
            .collect();
        let got = try_sketch_alg3_multi(&a, &cfg, &samplers, true).expect("benign input");
        for (r, s) in samplers.iter().enumerate() {
            assert_eq!(got[r], crate::sketch_alg3(&a, &cfg, s));
        }
        // Corrupt input is rejected with a typed error when validating.
        let bad = sparsekit::corrupt::corrupt_csc(&a, sparsekit::corrupt::Corruption::NanValue, 1)
            .expect("hostable");
        match try_sketch_alg3_multi(&bad, &cfg, &samplers, true) {
            Err(SketchError::InvalidInput(_)) => {}
            other => panic!("expected InvalidInput, got {other:?}"),
        }
    }

    /// An output past the memory budget is refused before it is allocated,
    /// including when its size overflows `usize` or `u64`.
    #[test]
    fn hardened_multi_refuses_outputs_over_budget() {
        let a = random_csc(2000, 48, 3000, 9);
        let samplers = [UnitUniform::<f64>::sampler(FastRng::new(1))];
        for d in [1usize << 40, 1 << 61] {
            let cfg = SketchConfig::new(d, 64, 8, 0);
            match try_sketch_alg3_multi(&a, &cfg, &samplers, true) {
                Err(SketchError::BudgetExceeded { need_bytes, .. }) => {
                    let want = (8 * 48u64).saturating_mul(d as u64);
                    assert_eq!(need_bytes, want, "d = {d}");
                }
                Err(e) => panic!("d = {d}: expected BudgetExceeded, got {e:?}"),
                Ok(_) => panic!("d = {d}: a {d}-row sketch cannot be allocated"),
            }
        }
    }
}
