//! Exact order statistics over raw samples.
//!
//! Every percentile the benchmark reports is computed here from the full
//! sample vector — never from a bucketed histogram, whose 1/8-octave
//! buckets move a quantile by ~12% when one sample crosses a boundary.

/// The `q`-quantile (`0 ≤ q ≤ 1`) by linear interpolation between the two
/// closest ranks (the "type 7" definition, as `numpy.percentile` uses).
/// Returns NaN for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median (the 0.5-quantile).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Largest sample (NaN when empty).
pub fn max(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::NAN, f64::max)
}

/// Tracing overhead: median of the traced samples over the median of the
/// untraced ones, minus one.
pub fn overhead(traced: &[f64], untraced: &[f64]) -> f64 {
    median(traced) / median(untraced) - 1.0
}

/// Median of `reps` timings of `f`, in nanoseconds per call.
pub fn time_median_ns<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut ts = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        let t0 = std::time::Instant::now();
        std::hint::black_box(f());
        ts.push(t0.elapsed().as_nanos() as f64);
    }
    median(&ts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(median(&s), 2.5);
        assert!((quantile(&s, 0.9) - 3.7).abs() < 1e-12);
        assert!(quantile(&[], 0.5).is_nan());
        assert_eq!(max(&s), 4.0);
    }
}
