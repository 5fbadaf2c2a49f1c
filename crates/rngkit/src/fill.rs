//! The sampler interface consumed by the sketching kernels.
//!
//! A [`BlockSampler`] is the object the pseudocode of Algorithms 3 and 4
//! calls `g`: it supports `set_state(r, j)` (O(1) checkpoint seek) and
//! `fill(v)` (`get_samples` — overwrite a scratch vector with the next `d₁`
//! entries of the current column of `S`). Kernels are generic over this
//! trait, so the same kernel body runs with xoshiro checkpoints, lane
//! (SIMD-style) generation, Philox counters, or the junk generator.

use crate::dist::{Distribution, Element};
use crate::BlockRng;

/// Relative cost metadata a sampler reports, feeding the roofline model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SampleCost {
    /// Expected 64-bit random words consumed per emitted sample.
    pub words_per_sample: f64,
    /// Short description of the generator + distribution pair.
    pub label: &'static str,
}

/// A positionable generator of sketch-matrix entries.
pub trait BlockSampler<T> {
    /// Seek to the checkpoint for `(block_row, col)` of `S` in O(1).
    fn set_state(&mut self, block_row: usize, col: usize);

    /// Overwrite `out` with the next `out.len()` samples of the current
    /// checkpoint stream (column-contiguous entries of `S`).
    fn fill(&mut self, out: &mut [T]);

    /// Fused generate-and-accumulate: `out[i] += coeff · sample_i` for the
    /// next `out.len()` samples. Semantically identical to `fill` into a
    /// scratch vector followed by an axpy, but implementations keep the
    /// samples in registers/a small tile — this is Algorithm 3's hot path,
    /// where every regenerated column of `S` is consumed exactly once.
    fn fill_axpy(&mut self, coeff: T, out: &mut [T]);

    /// Cost metadata for modelling and reports.
    fn cost(&self) -> SampleCost;
}

/// The standard sampler: a [`Distribution`] transform over a [`BlockRng`].
#[derive(Clone, Copy, Debug)]
pub struct DistSampler<D, R> {
    dist: D,
    rng: R,
}

impl<D, R> DistSampler<D, R> {
    /// Pair a distribution with a raw generator.
    pub fn new(dist: D, rng: R) -> Self {
        Self { dist, rng }
    }

    /// Access the underlying generator (e.g. to query its seed).
    pub fn rng(&self) -> &R {
        &self.rng
    }
}

impl<T, D, R> BlockSampler<T> for DistSampler<D, R>
where
    T: Element,
    D: Distribution<T>,
    R: BlockRng,
{
    #[inline(always)]
    fn set_state(&mut self, block_row: usize, col: usize) {
        self.rng.set_state(block_row, col);
    }

    #[inline(always)]
    fn fill(&mut self, out: &mut [T]) {
        self.dist.fill(&mut self.rng, out);
    }

    #[inline(always)]
    fn fill_axpy(&mut self, coeff: T, out: &mut [T]) {
        self.dist.fill_axpy(&mut self.rng, coeff, out);
    }

    fn cost(&self) -> SampleCost {
        SampleCost {
            words_per_sample: self.dist.words_per_sample(),
            label: self.dist.name(),
        }
    }
}

/// Convenience constructors so call sites read
/// `UnitUniform::<f64>::sampler(rng)`.
macro_rules! sampler_ctor {
    ($dist:ident) => {
        impl<T> crate::dist::$dist<T> {
            /// Pair this distribution with a raw generator.
            pub fn sampler<R: BlockRng>(rng: R) -> DistSampler<Self, R> {
                DistSampler::new(Self::new(), rng)
            }
        }
    };
    (unit $dist:ident) => {
        impl crate::dist::$dist {
            /// Pair this distribution with a raw generator.
            pub fn sampler<R: BlockRng>(rng: R) -> DistSampler<Self, R> {
                DistSampler::new(Self::new(), rng)
            }
        }
    };
}

sampler_ctor!(UnitUniform);
sampler_ctor!(Rademacher);
sampler_ctor!(Gaussian);
sampler_ctor!(unit ScaledInt);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CheckpointRng, FastRng, Rademacher, UnitUniform, Xoshiro256PlusPlus};

    #[test]
    fn sampler_reseek_reproducible() {
        let mut s = UnitUniform::<f64>::sampler(CheckpointRng::<Xoshiro256PlusPlus>::new(1));
        let mut a = vec![0.0; 33];
        let mut b = vec![0.0; 33];
        s.set_state(6, 7);
        s.fill(&mut a);
        s.set_state(0, 0);
        s.fill(&mut b);
        s.set_state(6, 7);
        s.fill(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn sampler_generic_over_rng() {
        fn first<T, S: BlockSampler<T>>(mut s: S, n: usize) -> Vec<T>
        where
            T: crate::dist::Element + PartialEq + std::fmt::Debug,
        {
            let mut v = vec![T::default(); n];
            s.set_state(1, 2);
            s.fill(&mut v);
            v
        }
        let a: Vec<f64> = first(
            UnitUniform::<f64>::sampler(CheckpointRng::<Xoshiro256PlusPlus>::new(3)),
            16,
        );
        let b: Vec<f64> = first(UnitUniform::<f64>::sampler(FastRng::new(3)), 16);
        assert_ne!(a, b); // different generators, different sketch
        assert!(a.iter().chain(b.iter()).all(|&x| x > -1.0 && x < 1.0));
    }

    #[test]
    fn cost_metadata() {
        let s = Rademacher::<f64>::sampler(CheckpointRng::<Xoshiro256PlusPlus>::new(3));
        let c = BlockSampler::<f64>::cost(&s);
        assert!(c.words_per_sample < 0.1);
        assert!(c.label.contains("±1"));
    }
}
