#![warn(missing_docs)]
//! # rngkit — seekable random number generation for sketching kernels
//!
//! This crate is the random-number substrate for the sketching SpMM algorithms
//! of Liang, Murray, Buluç and Demmel, *"Fast multiplication of random dense
//! matrices with sparse matrices"* (IPPS 2024). The paper's central idea is that
//! the dense random matrix `S` in the sketch `Â = S·A` is never materialized:
//! entries of `S` are **regenerated on the fly**, column-block by column-block,
//! each time a kernel needs them. That only works if the generator state for an
//! arbitrary `(block_row, column)` coordinate of `S` can be recovered in O(1)
//! time (paper §IV-B).
//!
//! Two generator families are provided, mirroring the paper:
//!
//! * [`Xoshiro256PlusPlus`] and its 8-lane struct-of-arrays form
//!   [`SimdXoshiro256PP`] — XOR-shift based generators (Blackman–Vigna).
//!   Fast, but sequential: O(1) seeking is obtained by *re-deriving* a
//!   fresh state from `(seed, block_row, col)` with a strong avalanche mix. This is the paper's "blocks as checkpoints"
//!   scheme: reproducibility of the sketch depends on the blocking.
//! * [`Philox4x32`] — a counter-based RNG (Salmon et al., Random123). Entries
//!   are a pure function of `(seed, row, col)`, so the sketch is reproducible
//!   independent of blocking and thread count (the RandBLAS-compatible mode,
//!   paper §IV-C). The paper found CBRNGs ~5x slower than xoshiro; our
//!   benchmarks reproduce that gap's direction.
//!
//! On top of the raw generators sit the distribution fills of paper §III-C /
//! Figure 4: uniform over (-1,1), Rademacher ±1 (including a bit-sliced sign
//! mode), Gaussian (Box–Muller), the "(-1,1) scaling trick"
//! (raw integers + a deferred scale factor), and a deliberately trivial
//! [`junk`] generator used to upper-bound kernel speed when RNG cost is
//! removed (paper §V-A, final note).
//!
//! ## The core abstraction
//!
//! [`BlockSampler`] is what the sketching kernels consume: "position yourself
//! at block-checkpoint `(r, j)` of `S`, then fill this slice with the next
//! `d₁` entries of column `j`". See the trait docs for the exact contract.
//!
//! ```
//! use rngkit::{BlockSampler, CheckpointRng, Xoshiro256PlusPlus, UnitUniform};
//!
//! let mut gen = UnitUniform::<f64>::sampler(CheckpointRng::<Xoshiro256PlusPlus>::new(42));
//! let mut v = vec![0.0; 8];
//! gen.set_state(0, 17);       // checkpoint: block-row 0 of S, column 17
//! gen.fill(&mut v);           // v <- S[0..8, 17]
//! let first = v.clone();
//! gen.set_state(0, 17);       // O(1) reseek
//! gen.fill(&mut v);
//! assert_eq!(v, first);       // perfectly reproducible
//! ```

pub mod checkpoint;
pub mod dist;
pub mod fill;
pub mod junk;
pub mod philox;
pub mod simd;
pub mod splitmix;
pub mod stats;
pub mod xoshiro256;

pub use checkpoint::CheckpointRng;
pub use dist::{Gaussian, Rademacher, ScaledInt, UnitUniform};
pub use fill::{BlockSampler, DistSampler, SampleCost};
pub use junk::JunkSampler;
pub use philox::{Philox4x32, PhiloxSampler};
pub use splitmix::SplitMix64;
pub use xoshiro256::Xoshiro256PlusPlus;

pub use simd::SimdXoshiro256PP;

/// The recommended high-throughput generator: eight struct-of-arrays
/// xoshiro256++ lanes (AVX-512-width) with O(1) checkpoint seeking — the
/// portable analogue of the SIMD xoshiro the paper uses through Julia's
/// `RandomNumbers.jl`.
pub type FastRng = SimdXoshiro256PP<8>;

/// A raw pseudo-random word generator that can be repositioned in O(1) to a
/// checkpoint addressed by `(block_row, col)`.
///
/// `block_row` indexes the block-row of the implicit sketching matrix `S`
/// (i.e. `i / b_d` in Algorithm 1 of the paper) and `col` indexes the column
/// of `S` (equivalently the row of the sparse matrix `A`). After
/// `set_state(r, j)`, successive `next_u64` calls enumerate a stream that is a
/// pure function of `(seed, r, j)` — re-seeking to the same coordinates
/// replays the identical stream.
pub trait BlockRng {
    /// Reposition the generator at the checkpoint for `(block_row, col)`.
    fn set_state(&mut self, block_row: usize, col: usize);

    /// Next 64 random bits of the current checkpoint stream.
    fn next_u64(&mut self) -> u64;

    /// Next 32 random bits. Default takes the high half of [`next_u64`],
    /// which has better low-bit quality for `++`-scrambled generators.
    ///
    /// [`next_u64`]: BlockRng::next_u64
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fill a slice with raw 64-bit words. The default draws sequentially;
    /// multi-lane generators override this with an interleaved fill that
    /// breaks the sequential dependency chain (the scalar analogue of the
    /// paper's SIMD xoshiro).
    #[inline]
    fn fill_u64(&mut self, out: &mut [u64]) {
        for o in out {
            *o = self.next_u64();
        }
    }

    /// Whether streams at the same `(block_row, col)` are identical regardless
    /// of how many words earlier checkpoints consumed. True for counter-based
    /// generators and for checkpoint-rederived sequential generators; the
    /// sketching kernels rely on this to regenerate columns of `S` at will.
    fn is_seekable(&self) -> bool {
        true
    }
}

/// Convert 64 random bits into a `f64` uniform over `(-1, 1)`.
///
/// Branchless: the bits are reinterpreted as a signed 54-bit integer (low
/// bit forced odd to exclude the endpoints) and scaled by `2^-53` — one
/// shift, one or, one int→float convert, one multiply, all vectorizable.
#[inline(always)]
pub fn u64_to_unit_f64(x: u64) -> f64 {
    (((x as i64) >> 10) | 1) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Convert 32 random bits into an `f32` uniform over `(-1, 1)` (branchless,
/// same construction as [`u64_to_unit_f64`]).
#[inline(always)]
pub fn u32_to_unit_f32(x: u32) -> f32 {
    (((x as i32) >> 7) | 1) as f32 * (1.0 / (1u32 << 24) as f32)
}

/// Convert 64 random bits into a `f64` uniform over `[0, 1)`.
#[inline(always)]
pub fn u64_to_open01_f64(x: u64) -> f64 {
    ((x >> 11) as f64 + 0.5) * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_f64_in_range() {
        let mut s = SplitMix64::new(7);
        for _ in 0..10_000 {
            let v = u64_to_unit_f64(s.next_u64());
            assert!(v > -1.0 && v < 1.0, "out of range: {v}");
        }
    }

    #[test]
    fn unit_f32_in_range() {
        let mut s = SplitMix64::new(9);
        for _ in 0..10_000 {
            let v = u32_to_unit_f32(s.next_u64() as u32);
            assert!(v > -1.0 && v < 1.0, "out of range: {v}");
        }
    }

    #[test]
    fn open01_in_range() {
        let mut s = SplitMix64::new(11);
        for _ in 0..10_000 {
            let v = u64_to_open01_f64(s.next_u64());
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn unit_f64_sign_balanced() {
        let mut s = SplitMix64::new(13);
        let n = 100_000;
        let neg = (0..n)
            .filter(|_| u64_to_unit_f64(s.next_u64()) < 0.0)
            .count();
        let frac = neg as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.01, "sign imbalance: {frac}");
    }
}
