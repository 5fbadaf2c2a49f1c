//! Struct-of-arrays SIMD xoshiro256++ — the workhorse generator.
//!
//! `L` xoshiro256++ lanes stored as four `[u64; L]` state arrays so that one
//! generator step is a handful of elementwise array operations. Under the
//! repository's `-C target-cpu=native` build LLVM lowers each to vector
//! instructions on 256-bit ymm registers, two per 8-lane array; on an
//! AVX-512 Xeon these include the AVX-512VL rotate `vprolq` and, in the
//! seek's SplitMix multiplies, AVX-512DQ `vpmullq`, but no zmm registers.
//! That reproduces the throughput of the SIMD xoshiro the paper uses via
//! Julia (§IV-A). Lane `l`'s stream is *bit-identical* to lane `l`
//! of [`crate::Lanes<Xoshiro256PlusPlus, L>`] at the same checkpoint — the
//! two differ only in memory layout (tested below).

use crate::checkpoint::checkpoint_seed;
use crate::splitmix::mix64;
use crate::BlockRng;

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
const LANE_SEP: u64 = 0xA076_1D64_78BD_642F;

/// `L`-lane struct-of-arrays xoshiro256++ with O(1) checkpoint seeking.
#[derive(Clone, Copy, Debug)]
pub struct SimdXoshiro256PP<const L: usize> {
    seed: u64,
    s0: [u64; L],
    s1: [u64; L],
    s2: [u64; L],
    s3: [u64; L],
    /// Buffered words for the scalar [`BlockRng::next_u64`] interface.
    buf: [u64; L],
    used: usize,
}

impl<const L: usize> SimdXoshiro256PP<L> {
    /// Create a generator under master `seed`, positioned at checkpoint (0,0).
    pub fn new(seed: u64) -> Self {
        assert!(L > 0 && L.is_power_of_two(), "lane count must be 2^k > 0");
        let mut g = Self {
            seed,
            s0: [0; L],
            s1: [0; L],
            s2: [0; L],
            s3: [0; L],
            buf: [0; L],
            used: L,
        };
        g.seek(0, 0);
        g
    }

    /// Reseed every lane from the `(block_row, col)` checkpoint. Matches
    /// `Lanes<Xoshiro256PlusPlus, L>`: lane `l`'s sub-seed is
    /// `mix64(base ^ l·LANE_SEP)` and the state words are the SplitMix64
    /// expansion of that sub-seed.
    #[inline]
    fn seek(&mut self, block_row: usize, col: usize) {
        let base = checkpoint_seed(self.seed, block_row, col);
        for l in 0..L {
            let lane_seed = mix64(base ^ (l as u64).wrapping_mul(LANE_SEP));
            self.s0[l] = mix64(lane_seed.wrapping_add(GOLDEN));
            self.s1[l] = mix64(lane_seed.wrapping_add(GOLDEN.wrapping_mul(2)));
            self.s2[l] = mix64(lane_seed.wrapping_add(GOLDEN.wrapping_mul(3)));
            self.s3[l] = mix64(lane_seed.wrapping_add(GOLDEN.wrapping_mul(4)));
        }
        self.used = L;
    }

    /// One lockstep xoshiro256++ round: `L` output words.
    // Indexed lane loops keep each statement a single vectorizable L-wide op;
    // iterator forms obscure that shape from LLVM's vectorizer.
    #[allow(clippy::needless_range_loop)]
    #[inline(always)]
    fn step(&mut self, out: &mut [u64; L]) {
        for l in 0..L {
            out[l] = self.s0[l]
                .wrapping_add(self.s3[l])
                .rotate_left(23)
                .wrapping_add(self.s0[l]);
        }
        let mut t = [0u64; L];
        for l in 0..L {
            t[l] = self.s1[l] << 17;
        }
        for l in 0..L {
            self.s2[l] ^= self.s0[l];
        }
        for l in 0..L {
            self.s3[l] ^= self.s1[l];
        }
        for l in 0..L {
            self.s1[l] ^= self.s2[l];
        }
        for l in 0..L {
            self.s0[l] ^= self.s3[l];
        }
        for l in 0..L {
            self.s2[l] ^= t[l];
        }
        for l in 0..L {
            self.s3[l] = self.s3[l].rotate_left(45);
        }
    }
}

impl<const L: usize> BlockRng for SimdXoshiro256PP<L> {
    #[inline(always)]
    fn set_state(&mut self, block_row: usize, col: usize) {
        self.seek(block_row, col);
    }

    #[inline(always)]
    fn next_u64(&mut self) -> u64 {
        if self.used >= L {
            let mut out = [0u64; L];
            self.step(&mut out);
            self.buf = out;
            self.used = 0;
        }
        let w = self.buf[self.used];
        self.used += 1;
        w
    }

    // Never inlined: inside a large caller (a sketch driver with its block
    // loops), LLVM may split the 8-lane state into 32 scalar registers and
    // step each lane with scalar ops, ~5× slower per sample. Compiled on its
    // own, the `step` loops stay vector ops in every crate that instantiates
    // this; the call costs far less than one 8-word round.
    #[inline(never)]
    fn fill_u64(&mut self, out: &mut [u64]) {
        let mut chunks = out.chunks_exact_mut(L);
        let mut block = [0u64; L];
        for chunk in &mut chunks {
            self.step(&mut block);
            chunk.copy_from_slice(&block);
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            self.step(&mut block);
            rem.copy_from_slice(&block[..rem.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanes::Lanes;
    use crate::Xoshiro256PlusPlus;

    #[test]
    fn matches_aos_lanes_bit_exactly() {
        let mut soa = SimdXoshiro256PP::<4>::new(99);
        let mut aos = Lanes::<Xoshiro256PlusPlus, 4>::new(99);
        for &(r, c) in &[(0usize, 0usize), (3, 17), (120, 5)] {
            soa.set_state(r, c);
            aos.set_state(r, c);
            let mut a = vec![0u64; 64];
            let mut b = vec![0u64; 64];
            soa.fill_u64(&mut a);
            aos.fill_u64(&mut b);
            assert_eq!(a, b, "SoA and AoS lanes diverge at ({r},{c})");
        }
    }

    #[test]
    fn reseek_replays() {
        let mut g = SimdXoshiro256PP::<8>::new(5);
        g.set_state(2, 9);
        let mut a = vec![0u64; 100];
        g.fill_u64(&mut a);
        g.set_state(0, 0);
        let _ = g.next_u64();
        g.set_state(2, 9);
        let mut b = vec![0u64; 100];
        g.fill_u64(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn next_u64_matches_fill_prefix() {
        let mut g1 = SimdXoshiro256PP::<8>::new(7);
        let mut g2 = SimdXoshiro256PP::<8>::new(7);
        g1.set_state(1, 2);
        g2.set_state(1, 2);
        let mut filled = vec![0u64; 24];
        g1.fill_u64(&mut filled);
        for (i, &w) in filled.iter().enumerate() {
            assert_eq!(g2.next_u64(), w, "word {i}");
        }
    }

    #[test]
    fn bit_balance() {
        let mut g = SimdXoshiro256PP::<8>::new(1234);
        g.set_state(0, 0);
        let mut v = vec![0u64; 100_000];
        g.fill_u64(&mut v);
        let ones: u64 = v.iter().map(|w| w.count_ones() as u64).sum();
        let frac = ones as f64 / (64.0 * v.len() as f64);
        assert!((frac - 0.5).abs() < 0.005, "bit bias {frac}");
    }

    #[test]
    #[should_panic(expected = "lane count")]
    fn zero_lanes_rejected() {
        let _ = SimdXoshiro256PP::<0>::new(1);
    }
}
