#![warn(missing_docs)]
//! # bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation section.
//! The [`tables`] module covers the SpMM experiments (Tables I–VII), the
//! [`solvers`] module the least-squares pipeline (Tables VIII–XI and
//! Figure 6), and [`figures`] the distribution study (Figure 4), spy plots
//! (Figure 5), the roofline model report and the junk-RNG ablation.
//!
//! Absolute numbers will differ from the paper (different machine, scaled
//! matrices); the harness is built to reproduce the *shape* of each result —
//! who wins, by what factor, where the crossovers sit. Each runner prints a
//! self-contained table; `repro all` regenerates everything for
//! EXPERIMENTS.md.

pub mod chaos;
pub mod extensions;
pub mod figures;
pub mod flame;
pub mod gate;
pub mod ident;
pub mod json;
pub mod solvers;
pub mod tables;
pub mod tracecli;

use std::time::Instant;

/// Harness-wide run configuration.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Dimension divisor applied to the paper's matrix sizes.
    pub scale: usize,
    /// Thread counts to sweep in the parallel experiments.
    pub max_threads: usize,
    /// Repetitions per measurement (median reported).
    pub reps: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            scale: 8,
            max_threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            reps: 3,
        }
    }
}

/// Median wall-clock seconds of `reps` runs of `f` (result of last run kept
/// alive until timing completes to defeat dead-code elimination).
///
/// Telemetry records only on the *first* repetition: counters describe one
/// execution of `f` regardless of `reps`, so `repro --reps 3` and
/// `--reps 1` export identical work totals.
pub fn time_median<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let was = obskit::enabled();
    let mut times = Vec::with_capacity(reps.max(1));
    for rep in 0..reps.max(1) {
        if rep == 1 {
            obskit::set_enabled(false);
        }
        let t0 = Instant::now();
        let r = f();
        times.push(t0.elapsed().as_secs_f64());
        std::hint::black_box(&r);
    }
    obskit::set_enabled(was);
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

/// GFLOP/s for a sketch of `d × nnz` at `seconds`.
pub fn gflops(d: usize, nnz: usize, seconds: f64) -> f64 {
    if seconds <= 0.0 {
        return f64::NAN;
    }
    sketchcore::flops(d, nnz) as f64 / seconds / 1e9
}

/// Crude peak-FLOPS estimate: a register-blocked fused multiply-add loop.
/// Used as the denominator of Figure 4's "percent of peak" — documented as a
/// proxy for the machine's theoretical peak.
pub fn measure_peak_gflops() -> f64 {
    let n = 1 << 22;
    let mut acc = [1.0f64, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7];
    let x = 1.000000001f64;
    let t0 = Instant::now();
    for _ in 0..n {
        for a in acc.iter_mut() {
            *a = a.mul_add(x, 1e-9);
        }
    }
    let dt = t0.elapsed().as_secs_f64();
    std::hint::black_box(&acc);
    (2.0 * 8.0 * n as f64) / dt / 1e9
}

/// STREAM-style copy bandwidth in GB/s (paper §V-B's machine probe).
pub fn measure_copy_bandwidth_gbs() -> f64 {
    let n = 1 << 24; // 128 MiB of f64 — beyond LLC
    let src = vec![1.0f64; n];
    let mut dst = vec![0.0f64; n];
    let t0 = Instant::now();
    let reps = 4;
    for _ in 0..reps {
        dst.copy_from_slice(&src);
        std::hint::black_box(&dst);
    }
    let dt = t0.elapsed().as_secs_f64();
    (reps as f64 * 2.0 * 8.0 * n as f64) / dt / 1e9
}

/// Rate of generating short random vectors (length 10⁴, the paper's probe),
/// in Gsamples/s.
pub fn measure_short_vector_rng_rate() -> f64 {
    use rngkit::{BlockSampler, FastRng, UnitUniform};
    let mut sampler = UnitUniform::<f64>::sampler(FastRng::new(0xBEEF));
    let mut v = vec![0.0f64; 10_000];
    let t0 = Instant::now();
    let reps = 2_000;
    for i in 0..reps {
        sampler.set_state(0, i);
        sampler.fill(&mut v);
        std::hint::black_box(&v);
    }
    let dt = t0.elapsed().as_secs_f64();
    (reps as f64 * 10_000.0) / dt / 1e9
}

/// Print a Markdown-ish table: a header row then aligned data rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n### {title}\n");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row.iter()) {
            *w = (*w).max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        let mut line = String::from("|");
        for (cell, w) in cells.iter().zip(widths.iter()) {
            line.push_str(&format!(" {cell:>w$} |"));
        }
        line
    };
    let head: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&head));
    let mut sep = String::from("|");
    for w in &widths {
        sep.push_str(&format!("{}|", "-".repeat(w + 2)));
    }
    println!("{sep}");
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Format seconds to 4 significant digits.
pub fn fmt_s(x: f64) -> String {
    if x >= 100.0 {
        format!("{x:.1}")
    } else if x >= 1.0 {
        format!("{x:.3}")
    } else {
        format!("{x:.4}")
    }
}

/// Format a ratio or dimensionless quantity.
pub fn fmt_g(x: f64) -> String {
    if !x.is_finite() {
        return format!("{x}");
    }
    if x == 0.0 {
        return "0".into();
    }
    let a = x.abs();
    if !(1e-2..1e4).contains(&a) {
        format!("{x:.2e}")
    } else {
        format!("{x:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_median_positive() {
        let t = time_median(3, || {
            let mut s = 0u64;
            for i in 0..10_000u64 {
                s = s.wrapping_add(i * i);
            }
            s
        });
        assert!(t > 0.0);
    }

    #[test]
    fn gflops_math() {
        // 2*d*nnz flops; d=10, nnz=1e6, 1 second → 0.02 GFLOP/s.
        assert!((gflops(10, 1_000_000, 1.0) - 0.02).abs() < 1e-12);
        assert!(gflops(1, 1, 0.0).is_nan());
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_g(0.0), "0");
        assert!(fmt_g(12345.0).contains('e'));
        assert_eq!(fmt_s(0.12345), "0.1235");
        // Header/rows print without panicking.
        print_table("t", &["a", "b"], &[vec!["1".into(), "2".into()]]);
    }

    #[test]
    fn run_config_default_sane() {
        let c = RunConfig::default();
        assert!(c.scale >= 1 && c.max_threads >= 1 && c.reps >= 1);
    }
}
