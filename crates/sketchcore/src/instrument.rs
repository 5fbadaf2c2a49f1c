//! Timing instrumentation: the sample-time vs total-time split of paper
//! Tables III and V.
//!
//! The instrumented drivers run the same block kernels as every other driver
//! ([`crate::alg3`], [`crate::alg4`]) through a timing sampler adapter,
//! `Timed`, built like [`crate::FaultSampler`]: it times each `set_state` +
//! `fill` pair with `Instant`, exactly as the paper's Julia implementation
//! wrapped its RNG calls, and does Algorithm 3's axpy outside the timed
//! region. It inherits the same caveat: "the total times are slightly higher
//! than those reported [without instrumentation] since the timer creates
//! additional overhead".
//!
//! The adapter sums sample time, samples and seeks in plain fields (always
//! on — the caller asked for a timing by calling the `_instrumented` entry
//! point) and [`SketchTiming`] is built from them. When the global telemetry
//! gate is on, the run's total and sample time are also recorded into the
//! obskit histograms [`SPAN_ALG3`]/[`SPAN_ALG3_SAMPLE`] (or the Algorithm 4
//! pair) and the samples and seeks into the counters, so instrumented runs
//! show up in JSONL exports for free.

use crate::alg1::{self, Panel};
use crate::config::SketchConfig;
use crate::{alg3, alg4};
use densekit::Matrix;
use obskit::Ctr;
use rngkit::{BlockSampler, SampleCost};
use sparsekit::{BlockedCsr, CscMatrix, Scalar};
use std::time::Instant;

/// Span path for the whole instrumented Algorithm 3 run.
pub const SPAN_ALG3: &str = "sketch/alg3_instrumented";
/// Span path for Algorithm 3's sample (RNG) time.
pub const SPAN_ALG3_SAMPLE: &str = "sketch/alg3_instrumented/sample";
/// Span path for the whole instrumented Algorithm 4 run.
pub const SPAN_ALG4: &str = "sketch/alg4_instrumented";
/// Span path for Algorithm 4's sample (RNG) time.
pub const SPAN_ALG4_SAMPLE: &str = "sketch/alg4_instrumented/sample";

/// Timing breakdown of one sketch computation.
#[derive(Clone, Copy, Debug, Default)]
pub struct SketchTiming {
    /// Wall-clock total, seconds.
    pub total_s: f64,
    /// Time spent inside the sampler's `fill` (random generation), seconds.
    pub sample_s: f64,
    /// Number of samples drawn.
    pub samples: u64,
    /// Number of `set_state` checkpoint seeks performed.
    pub seeks: u64,
}

impl SketchTiming {
    /// Compute time excluding generation.
    pub fn compute_s(&self) -> f64 {
        (self.total_s - self.sample_s).max(0.0)
    }
}

/// Sampler adapter timing every `set_state` + `fill`, with one seek and
/// `len` samples counted per regenerated segment.
struct Timed<T, S> {
    inner: S,
    sample_ns: u64,
    samples: u64,
    seeks: u64,
    started: Instant,
    /// Scratch for `fill_axpy`, which fills here (timed) and then does the
    /// axpy (untimed).
    v: Vec<T>,
}

impl<T: Scalar, S: BlockSampler<T>> Timed<T, S> {
    fn new(inner: S) -> Self {
        Self {
            inner,
            sample_ns: 0,
            samples: 0,
            seeks: 0,
            started: Instant::now(),
            v: Vec::new(),
        }
    }

    /// The run's timing, with the wall-clock time since `t0` as its total.
    /// When telemetry is on, the total and sample time are recorded under
    /// the span paths `total` and `sample`, and the samples and seeks are
    /// counted.
    fn finish(self, total: &'static str, sample: &'static str, t0: Instant) -> SketchTiming {
        let total_ns = t0.elapsed().as_nanos() as u64;
        if obskit::enabled() {
            obskit::hist_record_ns(total, total_ns);
            obskit::hist_record_ns(sample, self.sample_ns);
            obskit::add(Ctr::Samples, self.samples);
            obskit::add(Ctr::Seeks, self.seeks);
        }
        SketchTiming {
            total_s: total_ns as f64 * 1e-9,
            sample_s: self.sample_ns as f64 * 1e-9,
            samples: self.samples,
            seeks: self.seeks,
        }
    }
}

impl<T: Scalar, S: BlockSampler<T>> BlockSampler<T> for Timed<T, S> {
    fn set_state(&mut self, block_row: usize, col: usize) {
        self.seeks += 1;
        self.started = Instant::now();
        self.inner.set_state(block_row, col);
    }

    fn fill(&mut self, out: &mut [T]) {
        self.inner.fill(out);
        self.sample_ns += self.started.elapsed().as_nanos() as u64;
        self.samples += out.len() as u64;
    }

    fn fill_axpy(&mut self, coeff: T, out: &mut [T]) {
        let mut v = std::mem::take(&mut self.v);
        v.resize(out.len(), T::ZERO);
        self.fill(&mut v);
        for (o, &s) in out.iter_mut().zip(&v) {
            *o = coeff.mul_add(s, *o);
        }
        self.v = v;
    }

    fn cost(&self) -> SampleCost {
        self.inner.cost()
    }
}

/// Algorithm 3 with per-fill timing. Returns the sketch and the breakdown.
pub fn sketch_alg3_instrumented<T, S>(
    a: &CscMatrix<T>,
    cfg: &SketchConfig,
    sampler: &S,
) -> (Matrix<T>, SketchTiming)
where
    T: Scalar,
    S: BlockSampler<T> + Clone,
{
    let t0 = Instant::now();
    let mut timed = Timed::new(sampler.clone());
    let mut ahat = Matrix::zeros(cfg.d, a.ncols());
    let mut out = Panel::new(ahat.as_mut_slice(), cfg.d, 0);
    alg1::drive(cfg, a.ncols(), |b| alg3::kernel(&mut out, a, b, &mut timed));
    (ahat, timed.finish(SPAN_ALG3, SPAN_ALG3_SAMPLE, t0))
}

/// Algorithm 4 with per-fill timing.
pub fn sketch_alg4_instrumented<T, S>(
    a: &BlockedCsr<T>,
    cfg: &SketchConfig,
    sampler: &S,
) -> (Matrix<T>, SketchTiming)
where
    T: Scalar,
    S: BlockSampler<T> + Clone,
{
    let t0 = Instant::now();
    let mut timed = Timed::new(sampler.clone());
    let mut ahat = Matrix::zeros(cfg.d, a.ncols());
    let mut out = Panel::new(ahat.as_mut_slice(), cfg.d, 0);
    let mut v = vec![T::ZERO; cfg.b_d.min(cfg.d)];
    for (csr, b) in alg4::blocks(a, cfg) {
        alg4::kernel(&mut out, csr, b, &mut timed, &mut v);
    }
    (ahat, timed.finish(SPAN_ALG4, SPAN_ALG4_SAMPLE, t0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg3::sketch_alg3;
    use crate::alg4::sketch_alg4;
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
    fn instrumented_alg3_matches_plain() {
        let a = random_csc(40, 25, 150, 1);
        let cfg = SketchConfig::new(20, 7, 6, 3);
        let sampler = UnitUniform::<f64>::sampler(Rng::new(cfg.seed));
        let plain = sketch_alg3(&a, &cfg, &sampler);
        let (inst, t) = sketch_alg3_instrumented(&a, &cfg, &sampler);
        assert_eq!(plain, inst);
        assert!(t.total_s >= 0.0 && t.sample_s >= 0.0);
        assert!(t.sample_s <= t.total_s + 1e-9);
        // Alg 3 draws exactly d per nonzero (sum over blocks of d1 = d).
        assert_eq!(t.samples, crate::config::alg3_samples(cfg.d, a.nnz()));
        assert_eq!(t.seeks, a.nnz() as u64 * cfg.d_blocks() as u64);
    }

    #[test]
    fn instrumented_alg4_matches_plain_and_draws_fewer() {
        let a = random_csc(60, 30, 400, 2);
        let cfg = SketchConfig::new(24, 8, 10, 5);
        let blocked = BlockedCsr::from_csc(&a, cfg.b_n);
        let sampler = UnitUniform::<f64>::sampler(Rng::new(cfg.seed));
        let plain = sketch_alg4(&blocked, &cfg, &sampler);
        let (inst, t4) = sketch_alg4_instrumented(&blocked, &cfg, &sampler);
        assert_eq!(plain, inst);
        assert_eq!(
            t4.samples,
            crate::alg4::alg4_samples_actual(&blocked, cfg.d)
        );
        // With 400 nnz in 30 cols (avg row occupancy > 1 per block), Alg 4
        // must draw strictly fewer samples than Alg 3.
        let (_i3, t3) = sketch_alg3_instrumented(&a, &cfg, &sampler);
        assert!(
            t4.samples < t3.samples,
            "alg4 drew {} vs alg3 {}",
            t4.samples,
            t3.samples
        );
    }

    #[test]
    fn compute_time_nonnegative() {
        let t = SketchTiming {
            total_s: 1.0,
            sample_s: 1.5, // timer jitter can nominally exceed total
            samples: 0,
            seeks: 0,
        };
        assert_eq!(t.compute_s(), 0.0);
    }
}
