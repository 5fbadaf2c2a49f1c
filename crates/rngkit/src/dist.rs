//! Distribution transforms for entries of the sketching matrix `S`.
//!
//! Paper §III-C / Figure 4 compares five ways of producing entries of `S`:
//! Gaussians on the fly, a pre-generated `S` in memory, uniform (-1,1) on the
//! fly, uniform (-1,1) via the *scaling trick*, and ±1 on the fly. The
//! transforms here implement the on-the-fly variants; the pre-generated
//! baseline lives in the `baselines` crate.
//!
//! * [`UnitUniform`] — divide a random signed integer by 2^31 (or the 64-bit
//!   analogue), paper's default.
//! * [`ScaledInt`] — the "(-1,1) and scaling trick": keep the raw integers as
//!   the entries of `S·f` for `f = 1/i32::MAX` and fold the scale factor into
//!   `A` (compute `(Sf)(A/f)`), skipping the int→float normalization in the
//!   innermost loop.
//! * [`Rademacher`] — iid ±1. Cheapest: 1 random *bit* per entry, and the
//!   fused `fill_axpy` flips the sign bit of the coefficient, replacing the
//!   multiply with an add.
//! * [`Gaussian`] — Box–Muller, the straightforward (and per Figure 4,
//!   impractically slow) dense option.

use crate::{u32_to_unit_f32, u64_to_open01_f64, u64_to_unit_f64, BlockRng};
use std::f64::consts::PI;
use std::marker::PhantomData;

/// Scalar types a distribution can emit. Sealed to the types the kernels use.
pub trait Element:
    Copy + Default + 'static + std::ops::Add<Output = Self> + std::ops::Mul<Output = Self>
{
}
impl Element for f32 {}
impl Element for f64 {}
impl Element for i32 {}

/// A distribution that can fill a slice from a raw bit generator.
pub trait Distribution<T: Element> {
    /// Fill `out` with iid samples drawn from `rng`.
    fn fill<R: BlockRng>(&mut self, rng: &mut R, out: &mut [T]);

    /// Fused generate-and-accumulate: `out[i] += coeff · sample_i`. The
    /// default stages through a 64-element register tile; distributions with
    /// a cheap bit-to-value transform override it with a fully fused loop.
    #[inline]
    fn fill_axpy<R: BlockRng>(&mut self, rng: &mut R, coeff: T, out: &mut [T]) {
        let mut tile = [T::default(); 64];
        for chunk in out.chunks_mut(64) {
            let t = &mut tile[..chunk.len()];
            self.fill(rng, t);
            for (o, &s) in chunk.iter_mut().zip(t.iter()) {
                *o = *o + coeff * s;
            }
        }
    }

    /// Expected random *words* (64-bit draws) consumed per sample, used by
    /// the roofline model's `h` parameter (cost of generating one number).
    fn words_per_sample(&self) -> f64;

    /// Human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// iid uniform over (-1, 1).
#[derive(Clone, Copy, Debug, Default)]
pub struct UnitUniform<T> {
    _t: PhantomData<T>,
}

impl<T> UnitUniform<T> {
    /// Construct the distribution marker.
    pub fn new() -> Self {
        Self { _t: PhantomData }
    }
}

impl Distribution<f64> for UnitUniform<f64> {
    #[inline]
    fn fill<R: BlockRng>(&mut self, rng: &mut R, out: &mut [f64]) {
        // Two-pass over a stack tile: a raw-bit fill (which multi-lane
        // generators implement with L-way ILP) followed by a branchless,
        // vectorizable conversion loop.
        let mut buf = [0u64; 64];
        for chunk in out.chunks_mut(64) {
            let bits = &mut buf[..chunk.len()];
            rng.fill_u64(bits);
            for (o, &w) in chunk.iter_mut().zip(bits.iter()) {
                *o = u64_to_unit_f64(w);
            }
        }
    }

    /// Fully fused: raw bits -> branchless unit conversion -> fma, one pass
    /// over `out`, samples never touching memory beyond a 64-word tile.
    #[inline]
    fn fill_axpy<R: BlockRng>(&mut self, rng: &mut R, coeff: f64, out: &mut [f64]) {
        let mut bits = [0u64; 64];
        for chunk in out.chunks_mut(64) {
            let b = &mut bits[..chunk.len()];
            rng.fill_u64(b);
            for (o, &w) in chunk.iter_mut().zip(b.iter()) {
                *o = coeff.mul_add(u64_to_unit_f64(w), *o);
            }
        }
    }

    fn words_per_sample(&self) -> f64 {
        1.0
    }

    fn name(&self) -> &'static str {
        "uniform(-1,1) f64"
    }
}

impl Distribution<f32> for UnitUniform<f32> {
    #[inline]
    fn fill<R: BlockRng>(&mut self, rng: &mut R, out: &mut [f32]) {
        // Two f32 samples per 64-bit word, staged through a bit tile so
        // multi-lane generators fill with full ILP.
        let mut bits = [0u64; 32];
        for chunk in out.chunks_mut(64) {
            let words = chunk.len().div_ceil(2);
            let b = &mut bits[..words];
            rng.fill_u64(b);
            let mut pairs = chunk.chunks_exact_mut(2);
            for (pair, &w) in (&mut pairs).zip(b.iter()) {
                pair[0] = u32_to_unit_f32(w as u32);
                pair[1] = u32_to_unit_f32((w >> 32) as u32);
            }
            if let [o] = pairs.into_remainder() {
                *o = u32_to_unit_f32(b[words - 1] as u32);
            }
        }
    }

    /// Fused bits → f32 conversion → fma.
    #[inline]
    fn fill_axpy<R: BlockRng>(&mut self, rng: &mut R, coeff: f32, out: &mut [f32]) {
        let mut bits = [0u64; 32];
        for chunk in out.chunks_mut(64) {
            let words = chunk.len().div_ceil(2);
            let b = &mut bits[..words];
            rng.fill_u64(b);
            let mut pairs = chunk.chunks_exact_mut(2);
            for (pair, &w) in (&mut pairs).zip(b.iter()) {
                pair[0] = coeff.mul_add(u32_to_unit_f32(w as u32), pair[0]);
                pair[1] = coeff.mul_add(u32_to_unit_f32((w >> 32) as u32), pair[1]);
            }
            if let [o] = pairs.into_remainder() {
                *o = coeff.mul_add(u32_to_unit_f32(b[words - 1] as u32), *o);
            }
        }
    }

    fn words_per_sample(&self) -> f64 {
        0.5
    }

    fn name(&self) -> &'static str {
        "uniform(-1,1) f32"
    }
}

/// The scaling trick: entries are raw signed 32-bit integers, implicitly
/// representing `S·f` with `f = 1/2^31`. The consumer multiplies `A` by `1/f`
/// once (or rescales the final sketch), so the per-entry normalization
/// disappears from the inner loop.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScaledInt;

impl ScaledInt {
    /// The implicit scale factor `f` such that the true entry is `int * f`.
    pub const SCALE: f64 = 1.0 / (1u64 << 31) as f64;

    /// Construct the distribution marker.
    pub fn new() -> Self {
        Self
    }
}

impl Distribution<i32> for ScaledInt {
    #[inline]
    fn fill<R: BlockRng>(&mut self, rng: &mut R, out: &mut [i32]) {
        let mut chunks = out.chunks_exact_mut(2);
        for pair in &mut chunks {
            let w = rng.next_u64();
            pair[0] = w as i32;
            pair[1] = (w >> 32) as i32;
        }
        for o in chunks.into_remainder() {
            *o = rng.next_u32() as i32;
        }
    }

    fn words_per_sample(&self) -> f64 {
        0.5
    }

    fn name(&self) -> &'static str {
        "(-1,1) scaling trick (raw i32)"
    }
}

/// Emit the scaling-trick integers widened to `f64` (what a kernel that
/// accumulates in f64 consumes); normalization still deferred to the caller.
impl Distribution<f64> for ScaledInt {
    #[inline]
    fn fill<R: BlockRng>(&mut self, rng: &mut R, out: &mut [f64]) {
        let mut chunks = out.chunks_exact_mut(2);
        for pair in &mut chunks {
            let w = rng.next_u64();
            pair[0] = (w as i32) as f64;
            pair[1] = ((w >> 32) as i32) as f64;
        }
        for o in chunks.into_remainder() {
            *o = (rng.next_u32() as i32) as f64;
        }
    }

    fn words_per_sample(&self) -> f64 {
        0.5
    }

    fn name(&self) -> &'static str {
        "(-1,1) scaling trick (as f64)"
    }
}

/// iid Rademacher: ±1 with equal probability, one random bit per entry.
#[derive(Clone, Copy, Debug, Default)]
pub struct Rademacher<T> {
    _t: PhantomData<T>,
}

impl<T> Rademacher<T> {
    /// Construct the distribution marker.
    pub fn new() -> Self {
        Self { _t: PhantomData }
    }
}

macro_rules! rademacher_float {
    ($t:ty, $nm:literal, $b:ty, $shift:literal) => {
        impl Distribution<$t> for Rademacher<$t> {
            #[inline]
            fn fill<R: BlockRng>(&mut self, rng: &mut R, out: &mut [$t]) {
                // 64 entries per random word: broadcast each bit to a sign.
                let mut chunks = out.chunks_exact_mut(64);
                for chunk in &mut chunks {
                    let mut w = rng.next_u64();
                    for o in chunk.iter_mut() {
                        *o = if w & 1 == 0 { 1.0 } else { -1.0 };
                        w >>= 1;
                    }
                }
                let rem = chunks.into_remainder();
                if !rem.is_empty() {
                    let mut w = rng.next_u64();
                    for o in rem.iter_mut() {
                        *o = if w & 1 == 0 { 1.0 } else { -1.0 };
                        w >>= 1;
                    }
                }
            }

            /// Fused sign-apply: each random bit flips the sign of `coeff`
            /// via a bit-XOR on the float representation — no multiply, no
            /// branch, no scratch vector.
            #[inline]
            fn fill_axpy<R: BlockRng>(&mut self, rng: &mut R, coeff: $t, out: &mut [$t]) {
                let mut chunks = out.chunks_exact_mut(64);
                for chunk in &mut chunks {
                    let mut w = rng.next_u64();
                    for o in chunk.iter_mut() {
                        *o += <$t>::from_bits(coeff.to_bits() ^ ((w as $b & 1) << $shift));
                        w >>= 1;
                    }
                }
                let rem = chunks.into_remainder();
                if !rem.is_empty() {
                    let mut w = rng.next_u64();
                    for o in rem.iter_mut() {
                        *o += <$t>::from_bits(coeff.to_bits() ^ ((w as $b & 1) << $shift));
                        w >>= 1;
                    }
                }
            }

            fn words_per_sample(&self) -> f64 {
                1.0 / 64.0
            }

            fn name(&self) -> &'static str {
                $nm
            }
        }
    };
}

rademacher_float!(f64, "±1 f64", u64, 63);
rademacher_float!(f32, "±1 f32", u32, 31);

/// Standard normal via Box–Muller. Exact but requires `ln`, `sqrt`, `sincos`
/// per pair — the expensive transform that makes on-the-fly Gaussians
/// uncompetitive in Figure 4.
#[derive(Clone, Copy, Debug, Default)]
pub struct Gaussian<T> {
    _t: PhantomData<T>,
}

impl<T> Gaussian<T> {
    /// Construct the distribution marker.
    pub fn new() -> Self {
        Self { _t: PhantomData }
    }
}

impl Distribution<f64> for Gaussian<f64> {
    #[inline]
    fn fill<R: BlockRng>(&mut self, rng: &mut R, out: &mut [f64]) {
        let mut chunks = out.chunks_exact_mut(2);
        for pair in &mut chunks {
            let u1 = u64_to_open01_f64(rng.next_u64());
            let u2 = u64_to_open01_f64(rng.next_u64());
            let r = (-2.0 * u1.ln()).sqrt();
            let (s, c) = (2.0 * PI * u2).sin_cos();
            pair[0] = r * c;
            pair[1] = r * s;
        }
        if let [o] = chunks.into_remainder() {
            let u1 = u64_to_open01_f64(rng.next_u64());
            let u2 = u64_to_open01_f64(rng.next_u64());
            *o = (-2.0 * u1.ln()).sqrt() * (2.0 * PI * u2).cos();
        }
    }

    fn words_per_sample(&self) -> f64 {
        1.0
    }

    fn name(&self) -> &'static str {
        "gaussian (Box-Muller) f64"
    }
}

impl Distribution<f32> for Gaussian<f32> {
    #[inline]
    fn fill<R: BlockRng>(&mut self, rng: &mut R, out: &mut [f32]) {
        let mut tmp = [0.0f64; 2];
        let mut g = Gaussian::<f64>::new();
        let mut chunks = out.chunks_exact_mut(2);
        for pair in &mut chunks {
            g.fill(rng, &mut tmp);
            pair[0] = tmp[0] as f32;
            pair[1] = tmp[1] as f32;
        }
        if let [o] = chunks.into_remainder() {
            g.fill(rng, &mut tmp[..1]);
            *o = tmp[0] as f32;
        }
    }

    fn words_per_sample(&self) -> f64 {
        1.0
    }

    fn name(&self) -> &'static str {
        "gaussian (Box-Muller) f32"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CheckpointRng, Xoshiro256PlusPlus};

    fn rng() -> CheckpointRng<Xoshiro256PlusPlus> {
        CheckpointRng::new(2024)
    }

    fn moments(v: &[f64]) -> (f64, f64) {
        let n = v.len() as f64;
        let mean = v.iter().sum::<f64>() / n;
        let var = v.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn unit_uniform_moments() {
        let mut d = UnitUniform::<f64>::new();
        let mut r = rng();
        let mut v = vec![0.0; 200_000];
        d.fill(&mut r, &mut v);
        let (mean, var) = moments(&v);
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0 / 3.0).abs() < 0.01, "var {var} (expect 1/3)");
    }

    #[test]
    fn unit_uniform_f32_moments() {
        let mut d = UnitUniform::<f32>::new();
        let mut r = rng();
        let mut v = vec![0.0f32; 200_001]; // odd length exercises remainder
        d.fill(&mut r, &mut v);
        let v64: Vec<f64> = v.iter().map(|&x| x as f64).collect();
        let (mean, var) = moments(&v64);
        assert!(mean.abs() < 0.01);
        assert!((var - 1.0 / 3.0).abs() < 0.01);
    }

    #[test]
    fn rademacher_is_pm1_and_balanced() {
        let mut d = Rademacher::<f64>::new();
        let mut r = rng();
        let mut v = vec![0.0; 100_003];
        d.fill(&mut r, &mut v);
        assert!(v.iter().all(|&x| x == 1.0 || x == -1.0));
        let (mean, var) = moments(&v);
        assert!(mean.abs() < 0.02);
        assert!((var - 1.0).abs() < 0.02);
    }

    #[test]
    fn scaled_int_normalizes_to_unit_uniform() {
        let mut d = ScaledInt::new();
        let mut r = rng();
        let mut v = vec![0i32; 100_000];
        d.fill(&mut r, &mut v);
        let scaled: Vec<f64> = v.iter().map(|&x| x as f64 * ScaledInt::SCALE).collect();
        assert!(scaled.iter().all(|&x| (-1.0..1.0).contains(&x)));
        let (mean, var) = moments(&scaled);
        assert!(mean.abs() < 0.01);
        assert!((var - 1.0 / 3.0).abs() < 0.01);
    }

    #[test]
    fn scaled_int_f64_path_consistent_with_i32_path() {
        let mut d = ScaledInt::new();
        let mut r1 = rng();
        let mut r2 = rng();
        r1.set_state(2, 3);
        r2.set_state(2, 3);
        let mut vi = vec![0i32; 101];
        let mut vf = vec![0.0f64; 101];
        Distribution::<i32>::fill(&mut d, &mut r1, &mut vi);
        Distribution::<f64>::fill(&mut d, &mut r2, &mut vf);
        for (i, f) in vi.iter().zip(vf.iter()) {
            assert_eq!(*i as f64, *f);
        }
    }

    #[test]
    fn gaussian_box_muller_moments() {
        let mut d = Gaussian::<f64>::new();
        let mut r = rng();
        let mut v = vec![0.0; 200_000];
        d.fill(&mut r, &mut v);
        let (mean, var) = moments(&v);
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
        // Kurtosis ≈ 3 distinguishes normal from uniform.
        let kurt = v.iter().map(|x| x.powi(4)).sum::<f64>() / v.len() as f64 / (var * var);
        assert!((kurt - 3.0).abs() < 0.1, "kurtosis {kurt}");
    }

    #[test]
    fn odd_length_gaussian_fill() {
        let mut d = Gaussian::<f64>::new();
        let mut r = rng();
        let mut v = vec![0.0; 7];
        d.fill(&mut r, &mut v);
        assert!(v.iter().all(|&x| x != 0.0));
    }
}
