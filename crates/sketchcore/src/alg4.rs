//! Algorithm 4 — compute kernel variant `jki` with on-the-fly RNG.
//!
//! Consumes the blocked-CSR structure: for each vertical block of `A` and
//! each nonempty *row* `j` of that block, the kernel regenerates the column
//! segment `S[i..i+d₁, j]` **once** and reuses it for every nonzero in the
//! row — a rank-1 update per row. Compared with Algorithm 3 this divides the
//! sample count by the average row occupancy, at the price of scattered
//! column updates into `Â` that follow the sparsity pattern (paper §II-B2).
//! On machines with forgiving prefetchers (the paper's Perlmutter case) the
//! saved generation time wins; on pattern `Abnormal_C` (dense columns) it
//! loses badly (Table VI).

use crate::alg1::{self, ColumnSegments, OuterBlock, Panel};
use crate::config::SketchConfig;
use crate::obs;
use densekit::Matrix;
use rngkit::BlockSampler;
use sparsekit::{BlockedCsr, CsrMatrix, Scalar};

/// Compute `Â = S·A` with Algorithm 4 (sequential).
///
/// `a` must be the blocked-CSR form of the input whose block width plays the
/// role of `b_n` (the `cfg.b_n` field is ignored in favour of
/// `a.block_width()`, which fixes the checkpoint layout).
pub fn sketch_alg4<T, S>(a: &BlockedCsr<T>, cfg: &SketchConfig, sampler: &S) -> Matrix<T>
where
    T: Scalar,
    S: BlockSampler<T> + Clone,
{
    let _sp = obskit::span("sketch/alg4");
    let mut sampler = sampler.clone();
    let mut ahat = Matrix::zeros(cfg.d, a.ncols());
    let mut out = Panel::new(ahat.as_mut_slice(), cfg.d, 0);
    let mut v = vec![T::ZERO; cfg.b_d.min(cfg.d)];
    for (csr, b) in blocks(a, cfg) {
        block(&mut out, csr, b, &mut sampler, &mut v, "sketch/alg4/block");
    }
    ahat
}

/// Algorithm 1's blocks over a blocked-CSR operand, in loop order: each
/// vertical block of `a` is one column panel.
pub(crate) fn blocks<'a, T: Scalar>(
    a: &'a BlockedCsr<T>,
    cfg: &SketchConfig,
) -> impl Iterator<Item = (&'a CsrMatrix<T>, OuterBlock)> {
    let cfg = *cfg;
    (0..a.nblocks()).flat_map(move |blk| {
        let csr = a.block(blk);
        alg1::panel(&cfg, a.block_col_offset(blk), csr.ncols()).map(move |b| (csr, b))
    })
}

/// [`kernel`] on one block, recorded under `path` when telemetry is on —
/// the one place Algorithm 4's drivers report a block.
pub(crate) fn block<T, S, W>(
    out: &mut W,
    csr: &CsrMatrix<T>,
    b: OuterBlock,
    sampler: &mut S,
    v: &mut [T],
    path: &'static str,
) where
    T: Scalar,
    S: BlockSampler<T>,
    W: ColumnSegments<T>,
{
    let t0 = obs::block_timer();
    let rows_hit = kernel(out, csr, b, sampler, v);
    if let Some(t0) = t0 {
        obs::block_done::<T>(
            obs::BlockObs {
                path,
                i: b.i,
                j: b.j,
                d1: b.d1,
                n1: b.n1,
                nnz: csr.nnz(),
                rows_hit: Some(rows_hit),
                batch: 1,
            },
            t0.elapsed().as_nanos() as u64,
        );
    }
}

/// Algorithm 4's kernel on one (vertical block `csr`, d-block) pair — the
/// body every Algorithm 4 driver runs. `v` is scratch of at least `b.d1`
/// entries. Returns the number of nonempty rows (one seek each).
pub(crate) fn kernel<T, S, W>(
    out: &mut W,
    csr: &CsrMatrix<T>,
    b: OuterBlock,
    sampler: &mut S,
    v: &mut [T],
) -> usize
where
    T: Scalar,
    S: BlockSampler<T>,
    W: ColumnSegments<T>,
{
    let v = &mut v[..b.d1];
    let mut rows_hit = 0;
    for j in 0..csr.nrows() {
        let (cols, vals) = csr.row(j);
        if cols.is_empty() {
            // Zero row of the block: the corresponding column of S is never
            // generated — the sample saving the paper's §III-B counts.
            continue;
        }
        rows_hit += 1;
        sampler.set_state(b.i, j);
        sampler.fill(v);
        for (&kl, &ajk) in cols.iter().zip(vals.iter()) {
            let out = out.segment(b.j + kl, b.i, b.d1);
            for (o, &s) in out.iter_mut().zip(v.iter()) {
                *o = ajk.mul_add(s, *o);
            }
        }
    }
    rows_hit
}

/// Count the samples Algorithm 4 actually draws for `a` under `cfg`:
/// `d` per (nonempty row, vertical block) pair. Used in the §III-B
/// sample-count comparisons and the Table III/V "sample time" discussion.
pub fn alg4_samples_actual<T: Scalar>(a: &BlockedCsr<T>, d: usize) -> u64 {
    let mut nonempty: u64 = 0;
    for b in 0..a.nblocks() {
        let csr = a.block(b);
        for j in 0..csr.nrows() {
            if csr.row_nnz(j) > 0 {
                nonempty += 1;
            }
        }
    }
    nonempty * d as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg3::sketch_alg3;
    use rngkit::{CheckpointRng, Rademacher, UnitUniform, Xoshiro256PlusPlus};
    use sparsekit::CscMatrix;

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

    /// The paper's central consistency property: Algorithms 3 and 4 with the
    /// same seed and the same blocking compute the *same* sketch, because
    /// both regenerate `S[i..i+d₁, j]` from checkpoint `(i, j)`.
    #[test]
    fn alg4_matches_alg3_exactly() {
        let a = random_csc(50, 30, 200, 3);
        for (b_d, b_n) in [(8, 5), (30, 30), (1, 3), (64, 7)] {
            let cfg = SketchConfig::new(27, b_d, b_n, 77);
            let blocked = BlockedCsr::from_csc(&a, b_n);
            let sampler = UnitUniform::<f64>::sampler(Rng::new(cfg.seed));
            let x3 = sketch_alg3(&a, &cfg, &sampler);
            let x4 = sketch_alg4(&blocked, &cfg, &sampler);
            assert!(
                x3.diff_norm(&x4) < 1e-12 * x3.fro_norm().max(1.0),
                "alg3/alg4 disagree for blocking ({b_d},{b_n})"
            );
        }
    }

    /// Â's ±1 sketch is the same under both algorithms, bit for bit: each
    /// product `±A[j,k]` is exact, and both add them into a column of `Â`
    /// in the same row order.
    #[test]
    fn signs_variant_matches_alg3_signs() {
        let a = random_csc(40, 20, 120, 5);
        let cfg = SketchConfig::new(18, 6, 4, 13);
        let blocked = BlockedCsr::from_csc(&a, cfg.b_n);
        let sampler = Rademacher::<f64>::sampler(Rng::new(cfg.seed));
        let s3 = sketch_alg3(&a, &cfg, &sampler);
        let s4 = sketch_alg4(&blocked, &cfg, &sampler);
        assert_eq!(s3, s4);
    }

    #[test]
    fn sample_count_reflects_empty_rows() {
        // Matrix with only 3 nonempty rows out of 100: per vertical block
        // only those rows cost samples.
        let mut coo = sparsekit::CooMatrix::new(100, 20);
        for (r, c) in [(5, 0), (50, 10), (99, 19)] {
            coo.push(r, c, 1.0).unwrap();
        }
        let a = coo.to_csc().unwrap();
        let blocked = BlockedCsr::from_csc(&a, 10); // 2 blocks
                                                    // Rows 5 and 99... block 0 holds col 0 (row 5), block 1 holds cols
                                                    // 10,19 (rows 50,99) → 3 nonempty (row, block) pairs.
        assert_eq!(alg4_samples_actual(&blocked, 7), 3 * 7);
        // Versus Algorithm 3's d·nnz = 3·7 here (same: one nnz per row).
        // Add a second nonzero in row 5's block → alg3 pays, alg4 doesn't.
        let mut coo2 = sparsekit::CooMatrix::new(100, 20);
        for (r, c) in [(5, 0), (5, 3), (50, 10), (99, 19)] {
            coo2.push(r, c, 1.0).unwrap();
        }
        let a2 = coo2.to_csc().unwrap();
        let blocked2 = BlockedCsr::from_csc(&a2, 10);
        assert_eq!(alg4_samples_actual(&blocked2, 7), 3 * 7);
        assert_eq!(crate::config::alg3_samples(7, a2.nnz()), 4 * 7);
    }

    #[test]
    fn empty_input() {
        let a = CscMatrix::<f64>::zeros(10, 6);
        let blocked = BlockedCsr::from_csc(&a, 3);
        let cfg = SketchConfig::new(5, 2, 3, 0);
        let out = sketch_alg4(&blocked, &cfg, &UnitUniform::<f64>::sampler(Rng::new(0)));
        assert!(out.as_slice().iter().all(|&x| x == 0.0));
        assert_eq!(alg4_samples_actual(&blocked, 5), 0);
    }

    /// The Tables III/V claim: Algorithm 4 draws `d` samples per nonempty
    /// (row, vertical block) pair, counted here straight from the CSC.
    #[test]
    fn samples_are_d_per_nonempty_row_block() {
        // A pattern-only operand: 600 unit entries at LCG-drawn positions.
        let mut state = 3u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 11
        };
        let mut coo = sparsekit::CooMatrix::new(200, 80);
        for _ in 0..600 {
            let (r, c) = (next() % 200, next() % 80);
            coo.push(r as usize, c as usize, 1.0).unwrap();
        }
        let a = coo.to_csc().unwrap();
        let d = 13;
        for b_n in [1, 7, 20, 80, 200] {
            let mut pairs = std::collections::HashSet::new();
            for j in 0..a.ncols() {
                for &r in a.col(j).0 {
                    pairs.insert((r, j / b_n));
                }
            }
            assert_eq!(
                pairs.len() as u64 * d as u64,
                alg4_samples_actual(&BlockedCsr::from_csc(&a, b_n), d),
                "b_n = {b_n}"
            );
        }
    }

    #[test]
    fn block_width_one_equals_alg3_sample_count() {
        // With b_n = 1, every (nonempty row, block) pair is exactly one
        // nonzero → Algorithm 4 degenerates to Algorithm 3's sample count.
        let a = random_csc(30, 15, 60, 9);
        let blocked = BlockedCsr::from_csc(&a, 1);
        assert_eq!(
            alg4_samples_actual(&blocked, 11),
            crate::config::alg3_samples(11, a.nnz())
        );
    }
}
