//! Algorithm 3 — compute kernel variant `kji` with on-the-fly RNG.
//!
//! For each column `k` of the current vertical block of `A` and each stored
//! nonzero `A[j, k]`, the kernel re-seeks the sampler to checkpoint `(i, j)`
//! (row offset of the `Â` block, column `j` of `S`), regenerates the `d₁`
//! entries of that column segment of `S` into a scratch vector `v`, and adds
//! `A[j,k]·v` into the column of `Â` — a purely strided (axpy) update on all
//! three operands, which is why this variant wins on architectures that
//! punish random access (paper §II-B1).
//!
//! Cost signature (paper §III-B): always draws `d·nnz(A)` samples — fast-RNG
//! dependent, sparsity-pattern oblivious (Table VI).

use crate::alg1::{self, ColumnSegments, OuterBlock, Panel};
use crate::config::SketchConfig;
use crate::obs;
use densekit::Matrix;
use rngkit::{BlockSampler, ScaledInt};
use sparsekit::{CscMatrix, Scalar};

/// Compute `Â = S·A` with Algorithm 3 (sequential).
///
/// `sampler` defines `S`: it is cloned so the caller's generator state is
/// untouched, and every `(i, j)` checkpoint is a pure function of the
/// sampler's seed, making the result independent of iteration order over
/// blocks with the same `(b_d, b_n)`.
pub fn sketch_alg3<T, S>(a: &CscMatrix<T>, cfg: &SketchConfig, sampler: &S) -> Matrix<T>
where
    T: Scalar,
    S: BlockSampler<T> + Clone,
{
    let _sp = obskit::span("sketch/alg3");
    let mut sampler = sampler.clone();
    let mut ahat = Matrix::zeros(cfg.d, a.ncols());
    let mut out = Panel::new(ahat.as_mut_slice(), cfg.d, 0);
    alg1::drive(cfg, a.ncols(), |b| {
        block(&mut out, a, b, &mut sampler, "sketch/alg3/block")
    });
    ahat
}

/// [`kernel`] on one block, recorded under `path` when telemetry is on —
/// the one place Algorithm 3's unbatched drivers report a block.
pub(crate) fn block<T, S, W>(
    out: &mut W,
    a: &CscMatrix<T>,
    b: OuterBlock,
    sampler: &mut S,
    path: &'static str,
) where
    T: Scalar,
    S: BlockSampler<T>,
    W: ColumnSegments<T>,
{
    let t0 = obs::block_timer();
    kernel(out, a, b, sampler);
    if let Some(t0) = t0 {
        let dur_ns = t0.elapsed().as_nanos() as u64;
        let nnz: usize = (b.j..b.j + b.n1).map(|k| a.col(k).0.len()).sum();
        obs::block_done::<T>(
            obs::BlockObs {
                path,
                i: b.i,
                j: b.j,
                d1: b.d1,
                n1: b.n1,
                nnz,
                rows_hit: None,
                batch: 1,
            },
            dur_ns,
        );
    }
}

/// Algorithm 3's kernel on one outer block: every driver — sequential,
/// column panel, row stripe, each request of a batch, instrumented — runs
/// this body; sampler adapters (the instrumented timer, the fault injector)
/// change what a `fill_axpy` does, not the loop.
pub(crate) fn kernel<T, S, W>(out: &mut W, a: &CscMatrix<T>, b: OuterBlock, sampler: &mut S)
where
    T: Scalar,
    S: BlockSampler<T>,
    W: ColumnSegments<T>,
{
    // Algorithm 3 consumes each regenerated column of S exactly once, so
    // generation and the d₁-long axpy are fused: samples go straight from
    // the generator's registers into Â, never through a scratch vector.
    for k in b.j..b.j + b.n1 {
        let (rows, vals) = a.col(k);
        let out = out.segment(k, b.i, b.d1);
        for (&j, &ajk) in rows.iter().zip(vals.iter()) {
            sampler.set_state(b.i, j);
            sampler.fill_axpy(ajk, out);
        }
    }
}

/// Compute `Â = S·A` with the "(-1,1) scaling trick" of paper §III-C: the
/// kernel runs on raw random integers (no per-entry normalization) and the
/// single scale factor is applied to `Â` afterwards — mathematically
/// `(S·f⁻¹)·A` followed by multiplication with `f`.
pub fn sketch_alg3_scaled<T, R>(a: &CscMatrix<T>, cfg: &SketchConfig, rng: &R) -> Matrix<T>
where
    T: Scalar + rngkit::dist::Element,
    R: rngkit::BlockRng + Clone,
    ScaledInt: rngkit::dist::Distribution<T>,
{
    let sampler = rngkit::DistSampler::new(ScaledInt::new(), rng.clone());
    let mut ahat = sketch_alg3(a, cfg, &sampler);
    ahat.scale(T::from_f64(ScaledInt::SCALE));
    ahat
}

#[cfg(test)]
mod tests {
    use super::*;
    use rngkit::{CheckpointRng, UnitUniform, Xoshiro256PlusPlus};

    type Rng = CheckpointRng<Xoshiro256PlusPlus>;

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

    /// Materialize S explicitly (same sampler, same checkpoints) and verify
    /// the kernel against a dense reference multiply.
    fn reference_sketch<S: BlockSampler<f64> + Clone>(
        a: &CscMatrix<f64>,
        cfg: &SketchConfig,
        sampler: &S,
    ) -> Matrix<f64> {
        let m = a.nrows();
        let mut s_mat = Matrix::zeros(cfg.d, m);
        let mut sampler = dyn_clone(sampler);
        let mut v = vec![0.0; cfg.b_d.min(cfg.d)];
        // Materialize S block-row by block-row using the identical
        // checkpoints the kernel uses.
        let mut i = 0;
        while i < cfg.d {
            let d1 = cfg.b_d.min(cfg.d - i);
            for j in 0..m {
                sampler.set_state(i, j);
                sampler.fill(&mut v[..d1]);
                for (di, &val) in v[..d1].iter().enumerate() {
                    s_mat[(i + di, j)] = val;
                }
            }
            i += cfg.b_d;
        }
        // Dense × sparse reference.
        let mut out = Matrix::zeros(cfg.d, a.ncols());
        for k in 0..a.ncols() {
            let (rows, vals) = a.col(k);
            for (&j, &ajk) in rows.iter().zip(vals.iter()) {
                for di in 0..cfg.d {
                    out[(di, k)] += s_mat[(di, j)] * ajk;
                }
            }
        }
        out
    }

    fn dyn_clone<T: Clone>(x: &T) -> T {
        x.clone()
    }

    #[test]
    fn matches_materialized_reference() {
        let a = random_csc(40, 25, 150, 3);
        for (b_d, b_n) in [(7, 4), (64, 25), (1, 1), (100, 100)] {
            let cfg = SketchConfig::new(30, b_d, b_n, 99);
            let sampler = UnitUniform::<f64>::sampler(Rng::new(cfg.seed));
            let got = sketch_alg3(&a, &cfg, &sampler);
            let want = reference_sketch(&a, &cfg, &sampler);
            assert!(
                got.diff_norm(&want) < 1e-12 * want.fro_norm().max(1.0),
                "mismatch for blocking ({b_d},{b_n})"
            );
        }
    }

    #[test]
    fn deterministic_given_seed_and_blocking() {
        let a = random_csc(30, 20, 90, 5);
        let cfg = SketchConfig::new(25, 8, 6, 42);
        let sampler = UnitUniform::<f64>::sampler(Rng::new(cfg.seed));
        let x = sketch_alg3(&a, &cfg, &sampler);
        let y = sketch_alg3(&a, &cfg, &sampler);
        assert_eq!(x, y);
    }

    #[test]
    fn different_blocking_different_sketch_with_xoshiro() {
        // Checkpointed xoshiro: the sketch depends on b_d (paper §IV-B2).
        let a = random_csc(30, 20, 90, 5);
        let c1 = SketchConfig::new(25, 8, 6, 42);
        let c2 = SketchConfig::new(25, 5, 6, 42);
        let sampler = UnitUniform::<f64>::sampler(Rng::new(42));
        let x = sketch_alg3(&a, &c1, &sampler);
        let y = sketch_alg3(&a, &c2, &sampler);
        assert!(x.diff_norm(&y) > 1e-8);
    }

    #[test]
    fn empty_matrix_gives_zero_sketch() {
        let a = CscMatrix::<f64>::zeros(10, 5);
        let cfg = SketchConfig::new(8, 4, 2, 1);
        let sampler = UnitUniform::<f64>::sampler(Rng::new(1));
        let got = sketch_alg3(&a, &cfg, &sampler);
        assert!(got.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn single_entry_matrix() {
        // A = e_2 e_1ᵀ (entry at row 2, col 1): Â column 1 must equal the
        // corresponding regenerated column of S.
        let mut coo = sparsekit::CooMatrix::new(5, 3);
        coo.push(2, 1, 2.0).unwrap();
        let a = coo.to_csc().unwrap();
        let cfg = SketchConfig::new(6, 6, 3, 7);
        let sampler = UnitUniform::<f64>::sampler(Rng::new(7));
        let got = sketch_alg3(&a, &cfg, &sampler);
        let mut s_col = vec![0.0; 6];
        let mut s = sampler;
        s.set_state(0, 2);
        s.fill(&mut s_col);
        for i in 0..6 {
            assert!((got[(i, 1)] - 2.0 * s_col[i]).abs() < 1e-15);
            assert_eq!(got[(i, 0)], 0.0);
            assert_eq!(got[(i, 2)], 0.0);
        }
    }

    #[test]
    fn scaled_trick_matches_unit_uniform_distributionally() {
        // The scaling trick yields *the same values* as UnitUniform up to the
        // sign/mantissa convention; here we verify moments and range, plus
        // exact linearity: scaled output = raw-int output × SCALE.
        let a = random_csc(30, 12, 80, 13);
        let cfg = SketchConfig::new(24, 8, 5, 17);
        let rng = Rng::new(cfg.seed);
        let scaled = sketch_alg3_scaled(&a, &cfg, &rng);
        let raw = sketch_alg3(&a, &cfg, &rngkit::DistSampler::new(ScaledInt::new(), rng));
        for (s, r) in scaled.as_slice().iter().zip(raw.as_slice().iter()) {
            assert!((s - r * ScaledInt::SCALE).abs() < 1e-12 * r.abs().max(1.0));
        }
    }

    #[test]
    fn sketch_preserves_column_scaling() {
        // S(2A) = 2(SA): linearity sanity on the kernel.
        let a = random_csc(20, 10, 50, 21);
        let mut a2 = a.clone();
        a2.scale_values(2.0);
        let cfg = SketchConfig::new(15, 5, 3, 31);
        let sampler = UnitUniform::<f64>::sampler(Rng::new(cfg.seed));
        let s1 = sketch_alg3(&a, &cfg, &sampler);
        let s2 = sketch_alg3(&a2, &cfg, &sampler);
        let mut s1x2 = s1.clone();
        s1x2.scale(2.0);
        assert!(s2.diff_norm(&s1x2) < 1e-12 * s2.fro_norm());
    }
}
