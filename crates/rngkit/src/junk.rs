//! The "junk" generator — paper §V-A, final note.
//!
//! Replacing every randomly generated entry of `S` with "a number computed
//! from simple addition" upper-bounds kernel performance with RNG cost
//! removed; the paper saw ~2x headroom on `shar_te2-b2`, arguing that a
//! hardware RNG would be impactful. [`JunkSampler`] produces such entries: a
//! cheap affine recurrence that the compiler cannot hoist entirely (values
//! still depend on position), with near-zero per-sample cost. **Not random**
//! — for ablation only; sketch quality guarantees do not apply.

use crate::fill::{BlockSampler, SampleCost};

/// A deliberately trivial entry generator for RNG-cost ablations.
#[derive(Clone, Copy, Debug)]
pub struct JunkSampler {
    state: f64,
    step: f64,
}

impl JunkSampler {
    /// Create a junk sampler. `seed` only perturbs the starting value.
    pub fn new(seed: u64) -> Self {
        Self {
            state: (seed % 97) as f64 * 1e-2 + 0.1,
            step: 1.9e-3,
        }
    }
}

/// Junk fill for float element types: a bounded sawtooth in (-1, 1).
macro_rules! junk_impl {
    ($t:ty) => {
        impl BlockSampler<$t> for JunkSampler {
            #[inline(always)]
            fn set_state(&mut self, block_row: usize, col: usize) {
                // Position-dependent restart so the optimizer cannot
                // constant-fold entire columns, mirroring what "simple
                // addition" junk looks like in the paper's experiment.
                self.state = ((block_row as f64) * 7.3e-4 + (col as f64) * 1.1e-3) % 1.0 - 0.5;
            }

            #[inline(always)]
            fn fill(&mut self, out: &mut [$t]) {
                // Index-based affine ramp: no loop-carried dependency, no
                // branch — vectorizes fully, which is the point: entries
                // "computed from simple addition" at near-zero cost.
                let base = self.state;
                let step = self.step;
                for (k, o) in out.iter_mut().enumerate() {
                    *o = (k as f64).mul_add(step, base) as $t;
                }
                self.state = base + out.len() as f64 * step;
            }

            #[inline(always)]
            fn fill_axpy(&mut self, coeff: $t, out: &mut [$t]) {
                let base = self.state;
                let step = self.step;
                for (k, o) in out.iter_mut().enumerate() {
                    *o += coeff * (k as f64).mul_add(step, base) as $t;
                }
                self.state = base + out.len() as f64 * step;
            }

            fn cost(&self) -> SampleCost {
                SampleCost {
                    words_per_sample: 0.0,
                    label: "junk (RNG-free upper bound)",
                }
            }
        }
    };
}

junk_impl!(f64);
junk_impl!(f32);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn junk_values_finite_and_cheap_shape() {
        let mut j = JunkSampler::new(3);
        let mut v = vec![0.0f64; 10_000];
        BlockSampler::<f64>::set_state(&mut j, 0, 0);
        BlockSampler::<f64>::fill(&mut j, &mut v);
        assert!(v.iter().all(|&x| x.is_finite() && x.abs() < 100.0));
        // Affine ramp: exact second differences are zero.
        assert!((v[2] - 2.0 * v[1] + v[0]).abs() < 1e-12);
    }

    #[test]
    fn junk_is_position_dependent() {
        let mut j = JunkSampler::new(3);
        let mut a = vec![0.0f64; 8];
        let mut b = vec![0.0f64; 8];
        BlockSampler::<f64>::set_state(&mut j, 0, 1);
        BlockSampler::<f64>::fill(&mut j, &mut a);
        BlockSampler::<f64>::set_state(&mut j, 0, 2);
        BlockSampler::<f64>::fill(&mut j, &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn junk_reports_zero_rng_cost() {
        let j = JunkSampler::new(0);
        assert_eq!(BlockSampler::<f64>::cost(&j).words_per_sample, 0.0);
    }
}
