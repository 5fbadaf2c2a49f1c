//! Parallel drivers — parkit parallelization of Algorithm 1's outer loops.
//!
//! The paper (§II-C) parallelizes either of the two outer loops. Algorithm 3
//! has both; Algorithm 4 has the row stripes Table VII times:
//!
//! * **Column panels** (the body of [`crate::try_sketch_alg3_par_cols`]):
//!   each worker owns a disjoint panel of columns of `Â` — expressible as
//!   safe disjoint `&mut` chunks of the column-major buffer. The panels are
//!   at most `b_n` wide and narrow to `⌈n/threads⌉` so that a matrix of at
//!   most `b_n` columns still reaches every worker.
//! * **Row stripes** (`sketch_alg3_par_rows`, `sketch_alg4_par_rows`): each
//!   worker owns a `b_d`-row stripe of `Â` across all columns. Stripes of a
//!   column-major matrix are not contiguous, so these drivers use a
//!   raw-pointer window with a manual disjointness argument (see
//!   `StripeWriter`).
//!
//! Every driver runs the same block kernels as the sequential ones
//! ([`crate::alg3`]'s and [`crate::alg4`]'s `block`), writing through a
//! column panel or a stripe window; only the split of the outer loops
//! differs. Because every checkpoint `(i, j)` regenerates the same entries
//! of `S` regardless of which thread asks, the parallel results are
//! bit-identical to the sequential ones — the determinism test below pins
//! this down.
//!
//! Telemetry: each driver opens an obskit span, and every worker records
//! block-granularity counters (samples drawn, `set_state` seeks, FLOPs,
//! bytes touched) when telemetry is on. The counters live in thread-local
//! accumulators that parkit flushes into the global registry at each join
//! point, so the cost on the hot path is one relaxed atomic load per outer
//! block — nothing per nonzero.

use crate::alg1::{self, ColumnSegments, OuterBlock, Panel};
use crate::config::SketchConfig;
use crate::{alg3, alg4};
use densekit::Matrix;
use rngkit::BlockSampler;
use sparsekit::{BlockedCsr, CscMatrix, Scalar};
use std::marker::PhantomData;

/// Algorithm 3 parallelized over column panels of `Â` (the `j` loop).
///
/// Each worker takes panels of `min(b_n, ⌈n/threads⌉)` columns. The panel
/// width does not change a bit of the result: every column's update is the
/// same sequence of checkpoint seeks and axpys whichever panel holds it.
pub(crate) fn sketch_alg3_par_cols<T, S>(
    a: &CscMatrix<T>,
    cfg: &SketchConfig,
    sampler: &S,
) -> Matrix<T>
where
    T: Scalar,
    S: BlockSampler<T> + Clone + Send + Sync,
{
    let _sp = obskit::span("sketch/alg3_par_cols");
    let (d, n) = (cfg.d, a.ncols());
    let width = cfg.b_n.min(n.div_ceil(parkit::current_threads())).max(1);
    let mut ahat = Matrix::zeros(d, n);
    parkit::for_each_chunk_mut(ahat.as_mut_slice(), d * width, |p, chunk| {
        let j0 = p * width;
        let n1 = chunk.len() / d;
        let mut out = Panel::new(chunk, d, j0);
        let mut sampler = sampler.clone();
        for b in alg1::panel(cfg, j0, n1) {
            alg3::block(&mut out, a, b, &mut sampler, "sketch/alg3_par_cols/block");
        }
    });
    ahat
}

/// A window granting write access to one row stripe of a column-major
/// matrix.
///
/// # Safety argument
/// The row-stripe drivers create one `StripeWriter` per `b_d`-row stripe
/// (see [`stripes`]). Stripe `t` touches only elements
/// `col·d + i .. col·d + i + d1` with `i = t·b_d`, `d1 ≤ b_d`, so element
/// sets of distinct stripes are disjoint for every column. No two workers
/// ever alias the same element, and the `'a` borrow of the matrix outlives
/// every stripe — the standard tiled-output pattern.
struct StripeWriter<'a, T> {
    base: *mut T,
    /// Rows and columns of the matrix behind `base`.
    d: usize,
    n: usize,
    /// The stripe: rows `i..i + d1`, with `i + d1 ≤ d`.
    i: usize,
    d1: usize,
    _matrix: PhantomData<&'a mut T>,
}

// SAFETY: `base` points into a matrix mutably borrowed for `'a`, and this
// stripe's element set is disjoint from every other stripe's (see the type
// docs), so moving it to another thread shares no element; `d`, `n`, `i` and
// `d1` are plain integers. `T: Send` because the receiving thread writes `T`s.
unsafe impl<T: Send> Send for StripeWriter<'_, T> {}

impl<T> ColumnSegments<T> for StripeWriter<'_, T> {
    /// The `d1` contiguous elements of column `col` inside this stripe.
    #[inline(always)]
    fn segment(&mut self, col: usize, i: usize, d1: usize) -> &mut [T] {
        assert!(
            col < self.n && i == self.i && d1 == self.d1,
            "segment outside the stripe"
        );
        // SAFETY: `col < n` and `i + d1 ≤ d` (checked above and by
        // `stripes`), so `col·d + i .. col·d + i + d1` lies inside the
        // `d×n` allocation, and it belongs to this stripe alone (type docs).
        unsafe { std::slice::from_raw_parts_mut(self.base.add(col * self.d + self.i), self.d1) }
    }
}

/// Split `ahat` into Algorithm 1's row stripes, one writer each.
fn stripes<'a, T: Scalar>(ahat: &'a mut Matrix<T>, cfg: &SketchConfig) -> Vec<StripeWriter<'a, T>> {
    let (d, n) = (ahat.nrows(), ahat.ncols());
    assert_eq!(d, cfg.d, "stripes of a matrix with cfg.d rows");
    let base = ahat.as_mut_slice().as_mut_ptr();
    alg1::row_blocks(cfg)
        .map(|(i, d1)| StripeWriter {
            base,
            d,
            n,
            i,
            d1,
            _matrix: PhantomData,
        })
        .collect()
}

/// Algorithm 3 parallelized over row stripes of `Â` (the `i` loop).
pub fn sketch_alg3_par_rows<T, S>(a: &CscMatrix<T>, cfg: &SketchConfig, sampler: &S) -> Matrix<T>
where
    T: Scalar,
    S: BlockSampler<T> + Clone + Send + Sync,
{
    let _sp = obskit::span("sketch/alg3_par_rows");
    let n = a.ncols();
    let mut ahat = Matrix::zeros(cfg.d, n);
    parkit::for_each(stripes(&mut ahat, cfg), |mut stripe| {
        let mut sampler = sampler.clone();
        let (i, d1) = (stripe.i, stripe.d1);
        // Keep Algorithm 1's column-block-outermost order inside the stripe.
        for (j, n1) in alg1::col_blocks(cfg.b_n, n) {
            let b = OuterBlock { i, d1, j, n1 };
            alg3::block(
                &mut stripe,
                a,
                b,
                &mut sampler,
                "sketch/alg3_par_rows/block",
            );
        }
    });
    ahat
}

/// Algorithm 4 parallelized over row stripes of `Â` (the `i` loop).
pub fn sketch_alg4_par_rows<T, S>(a: &BlockedCsr<T>, cfg: &SketchConfig, sampler: &S) -> Matrix<T>
where
    T: Scalar,
    S: BlockSampler<T> + Clone + Send + Sync,
{
    let _sp = obskit::span("sketch/alg4_par_rows");
    let mut ahat = Matrix::zeros(cfg.d, a.ncols());
    parkit::for_each(stripes(&mut ahat, cfg), |mut stripe| {
        let mut sampler = sampler.clone();
        let mut v = vec![T::ZERO; stripe.d1];
        let (i, d1) = (stripe.i, stripe.d1);
        for blk in 0..a.nblocks() {
            let csr = a.block(blk);
            let j = a.block_col_offset(blk);
            let b = OuterBlock {
                i,
                d1,
                j,
                n1: csr.ncols(),
            };
            alg4::block(
                &mut stripe,
                csr,
                b,
                &mut sampler,
                &mut v,
                "sketch/alg4_par_rows/block",
            );
        }
    });
    ahat
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg3::sketch_alg3;
    use crate::alg4::sketch_alg4;
    use crate::try_sketch_alg3_par_cols;
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
            coo.push(r, c, (next() % 1000) as f64 / 500.0 - 1.0 + 0.0005)
                .unwrap();
        }
        coo.to_csc().unwrap()
    }

    #[test]
    fn par_cols_bit_identical_to_sequential() {
        let a = random_csc(60, 40, 300, 1);
        let cfg = SketchConfig::new(33, 9, 7, 5);
        let sampler = UnitUniform::<f64>::sampler(Rng::new(cfg.seed));
        let seq = sketch_alg3(&a, &cfg, &sampler);
        let par = try_sketch_alg3_par_cols(&a, &cfg, &sampler).expect("benign input");
        assert_eq!(seq, par);
    }

    #[test]
    fn par_cols_splits_one_b_n_panel_across_workers() {
        // n ≤ b_n: one b_n panel would leave all but one worker idle.
        let a = random_csc(50, 23, 200, 10);
        let cfg = SketchConfig::new(30, 8, 64, 12);
        let sampler = UnitUniform::<f64>::sampler(Rng::new(cfg.seed));
        let seq = sketch_alg3(&a, &cfg, &sampler);
        for t in 1..=5 {
            let par = parkit::with_threads(t, || try_sketch_alg3_par_cols(&a, &cfg, &sampler))
                .expect("benign input");
            assert_eq!(seq, par, "{t} threads");
        }
    }

    #[test]
    fn par_rows_bit_identical_to_sequential() {
        let a = random_csc(60, 40, 300, 2);
        let cfg = SketchConfig::new(33, 9, 7, 6);
        let sampler = UnitUniform::<f64>::sampler(Rng::new(cfg.seed));
        let seq = sketch_alg3(&a, &cfg, &sampler);
        let par = sketch_alg3_par_rows(&a, &cfg, &sampler);
        assert_eq!(seq, par);
    }

    #[test]
    fn alg4_parallel_variants_match() {
        let a = random_csc(50, 30, 250, 3);
        let cfg = SketchConfig::new(21, 8, 6, 7);
        let blocked = BlockedCsr::from_csc(&a, cfg.b_n);
        let sampler = UnitUniform::<f64>::sampler(Rng::new(cfg.seed));
        let seq = sketch_alg4(&blocked, &cfg, &sampler);
        let pr = sketch_alg4_par_rows(&blocked, &cfg, &sampler);
        assert_eq!(seq, pr);
    }

    #[test]
    fn results_independent_of_thread_count() {
        let a = random_csc(40, 30, 200, 4);
        let cfg = SketchConfig::new(24, 6, 5, 9);
        let sampler = UnitUniform::<f64>::sampler(Rng::new(cfg.seed));
        let base = parkit::with_threads(1, || sketch_alg3_par_rows(&a, &cfg, &sampler));
        for t in [2, 4] {
            let out = parkit::with_threads(t, || sketch_alg3_par_rows(&a, &cfg, &sampler));
            assert_eq!(base, out, "thread count {t} changed the sketch");
        }
    }

    #[test]
    fn ragged_edges_handled() {
        // d and n not divisible by block sizes.
        let a = random_csc(35, 23, 150, 8);
        let cfg = SketchConfig::new(29, 10, 9, 3);
        let sampler = UnitUniform::<f64>::sampler(Rng::new(cfg.seed));
        let seq = sketch_alg3(&a, &cfg, &sampler);
        let pc = try_sketch_alg3_par_cols(&a, &cfg, &sampler).expect("benign input");
        assert_eq!(seq, pc);
        assert_eq!(seq, sketch_alg3_par_rows(&a, &cfg, &sampler));
    }
}
