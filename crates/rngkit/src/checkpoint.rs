//! O(1) checkpoint seeking for sequential generators.
//!
//! xoshiro generators have sequentially-dependent state, so they cannot jump
//! to an arbitrary `(block_row, col)` coordinate of `S` the way a
//! counter-based RNG can. The paper's solution (§IV-B2) is to treat each
//! *block* as a checkpoint: attach a unique state to each `(block_row, col)`
//! pair and re-derive it whenever a kernel seeks there. We derive the state by
//! mixing the coordinates into the seed with the SplitMix64 avalanche
//! finalizer and then expanding, which costs a handful of multiplies — far
//! cheaper than a memory round-trip, which is the whole point of
//! regeneration.
//!
//! Reproducibility caveat (also in the paper): because the checkpoint is the
//! *block* coordinate, two runs with different `b_d` partition `S` into
//! different blocks and therefore sample different sketches. Both are valid
//! draws from the same distribution; use [`crate::PhiloxSampler`] when
//! bit-reproducibility independent of blocking is required.

use crate::splitmix::{mix64, SplitMix64};
use crate::{BlockRng, Xoshiro256PlusPlus};

/// Derive a 64-bit stream seed for checkpoint `(block_row, col)` under a
/// master `seed`. Distinct coordinates map to distinct, well-mixed seeds.
#[inline(always)]
pub fn checkpoint_seed(seed: u64, block_row: usize, col: usize) -> u64 {
    // Two chained avalanche rounds: first bind the column, then the block
    // row. Chaining (rather than XOR-combining independent mixes) prevents
    // any algebraic cancellation between the two coordinates.
    let a = mix64(seed ^ (col as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    mix64(a ^ (block_row as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
}

/// A sequential generator wrapped with O(1) checkpoint re-derivation.
///
/// This is the default generator of the sketching kernels: `set_state(r, j)`
/// reseeds the inner generator from [`checkpoint_seed`], after which draws
/// stream with full sequential speed.
#[derive(Clone, Copy, Debug)]
pub struct CheckpointRng<G> {
    seed: u64,
    inner: G,
}

/// Generators that can be constructed from a 64-bit seed.
pub trait Reseed {
    /// Build a fresh generator from `seed`.
    fn reseed(seed: u64) -> Self;
}

impl Reseed for Xoshiro256PlusPlus {
    #[inline(always)]
    fn reseed(seed: u64) -> Self {
        // Direct SplitMix64 expansion — same as `new`, inlined here to keep
        // the checkpoint path allocation- and branch-free.
        Xoshiro256PlusPlus::new(seed)
    }
}

impl Reseed for SplitMix64 {
    #[inline(always)]
    fn reseed(seed: u64) -> Self {
        SplitMix64::new(seed)
    }
}

impl<G: Reseed> CheckpointRng<G> {
    /// Create a checkpointed generator under master `seed`, positioned at
    /// checkpoint `(0, 0)`.
    #[inline]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            inner: G::reseed(checkpoint_seed(seed, 0, 0)),
        }
    }

    /// The master seed.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

macro_rules! impl_blockrng {
    ($g:ty, $next64:expr) => {
        impl BlockRng for CheckpointRng<$g> {
            #[inline(always)]
            fn set_state(&mut self, block_row: usize, col: usize) {
                self.inner = <$g>::reseed(checkpoint_seed(self.seed, block_row, col));
            }

            #[inline(always)]
            fn next_u64(&mut self) -> u64 {
                ($next64)(&mut self.inner)
            }
        }
    };
}

impl_blockrng!(Xoshiro256PlusPlus, |g: &mut Xoshiro256PlusPlus| g
    .next_u64());
impl_blockrng!(SplitMix64, |g: &mut SplitMix64| g.next_u64());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reseek_replays_stream() {
        let mut g = CheckpointRng::<Xoshiro256PlusPlus>::new(11);
        g.set_state(2, 40);
        let a: Vec<u64> = (0..32).map(|_| g.next_u64()).collect();
        g.set_state(9, 9);
        let _ = g.next_u64();
        g.set_state(2, 40);
        let b: Vec<u64> = (0..32).map(|_| g.next_u64()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_checkpoints_distinct_streams() {
        let mut g = CheckpointRng::<Xoshiro256PlusPlus>::new(5);
        let mut firsts = std::collections::HashSet::new();
        for r in 0..50 {
            for c in 0..50 {
                g.set_state(r, c);
                assert!(firsts.insert(g.next_u64()), "collision at ({r},{c})");
            }
        }
    }

    #[test]
    fn seeds_separate_sketches() {
        let mut a = CheckpointRng::<Xoshiro256PlusPlus>::new(1);
        let mut b = CheckpointRng::<Xoshiro256PlusPlus>::new(2);
        a.set_state(0, 0);
        b.set_state(0, 0);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn checkpoint_seed_no_adjacent_collisions() {
        // (r, c) vs (r+1, c) and (r, c+1) must not collide even for
        // structured small coordinates.
        for r in 0..200usize {
            for c in 0..20usize {
                let s = checkpoint_seed(0, r, c);
                assert_ne!(s, checkpoint_seed(0, r + 1, c));
                assert_ne!(s, checkpoint_seed(0, r, c + 1));
                assert_ne!(s, checkpoint_seed(0, c, r).wrapping_add(u64::from(r == c)));
            }
        }
    }

    #[test]
    fn checkpoint_streams_statistically_balanced() {
        // Mean of unit-uniform draws across many checkpoints ~ 0.
        let mut g = CheckpointRng::<Xoshiro256PlusPlus>::new(123);
        let mut sum = 0.0;
        let mut n = 0usize;
        for r in 0..40 {
            for c in 0..40 {
                g.set_state(r, c);
                for _ in 0..8 {
                    sum += crate::u64_to_unit_f64(g.next_u64());
                    n += 1;
                }
            }
        }
        let mean = sum / n as f64;
        assert!(mean.abs() < 0.01, "mean across checkpoints: {mean}");
    }
}
