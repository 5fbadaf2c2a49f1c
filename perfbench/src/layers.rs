//! Per-layer measurements: each times one layer's public function on the
//! workload's own inputs. Counts are computed from sizes, not measured.

use crate::stats::{median, time_median_ns};
use crate::Report;
use densekit::Matrix;
use lstsq::{CscOp, LinOp, Preconditioner, UpperTriPrecond};
use rngkit::BlockSampler;
use sketchcore::{CostModel, SketchConfig};
use sparsekit::CscMatrix;
use std::hint::black_box;
use std::time::Instant;

/// Bytes streamed per nonzero of `A`: one `f64` value plus one `usize`
/// row index (the kernels' own accounting).
pub const NNZ_BYTES: u64 = 16;

/// Time `BlockSampler::set_state` over the workload's (row-block, row)
/// pairs, and `fill_axpy` at the workload's `d₁`, on the sketch sampler.
/// Returns `(seek_ns, fill_ns_per_sample)`.
///
/// The pairs are the kernel's own: for every `d`-block and every stored
/// nonzero of `A` (column order), one seek to `(block row, row)`. At most
/// `max_pairs` are timed. Fill time is the seek-plus-fill loop minus the
/// seek-only loop, per sample.
pub fn seek_fill(a: &CscMatrix<f64>, cfg: &SketchConfig, max_pairs: usize) -> (f64, f64) {
    let d1 = cfg.b_d.min(cfg.d);
    let mut pairs = Vec::new();
    'outer: for i in (0..cfg.d).step_by(cfg.b_d) {
        for &j in a.row_idx() {
            if pairs.len() == max_pairs {
                break 'outer;
            }
            pairs.push((i, j));
        }
    }
    let mut s = crate::check::sampler(cfg.seed);
    let mut out = vec![0.0f64; d1];
    let (mut seek, mut both) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let t0 = Instant::now();
        for &(i, j) in &pairs {
            s.set_state(i, j);
            black_box(&mut s);
        }
        seek.push(t0.elapsed().as_nanos() as f64);
        let t0 = Instant::now();
        for &(i, j) in &pairs {
            s.set_state(i, j);
            s.fill_axpy(0.5, &mut out);
        }
        black_box(&out);
        both.push(t0.elapsed().as_nanos() as f64);
    }
    let n = pairs.len().max(1) as f64;
    let (ts, tb) = (median(&seek), median(&both));
    (ts / n, (tb - ts).max(0.0) / (n * d1 as f64))
}

/// `CscMatrix::validate`, median of a few calls, in ms.
pub fn validate_ms(a: &CscMatrix<f64>) -> f64 {
    time_median_ns(5, || a.validate().is_ok()) / 1e6
}

/// Kernel metrics for `reps` sketches of `A` (`k` sketches sharing one
/// pass when `reps > 1`) that took `ms` milliseconds: computed counts,
/// rates, fraction of the measured FMA peak, and the ratio to the §III-A
/// model's attainable rate.
pub fn kernel_metrics(
    r: &mut Report,
    a: &CscMatrix<f64>,
    cfg: &SketchConfig,
    reps: usize,
    ms: f64,
    peak_gflops: f64,
) {
    let (nnz, n) = (a.nnz() as u64, a.ncols() as u64);
    let d = cfg.d as u64;
    let k = reps as u64;
    let samples = k * sketchcore::config::alg3_samples(cfg.d, a.nnz());
    let flops = k * sketchcore::flops(cfg.d, a.nnz());
    let gflops = flops as f64 / (ms * 1e6);
    // §III-A: attainable rate = peak · min(1, CI/B) at this density and b_n.
    let model = CostModel::default_host();
    let rho = a.density().clamp(f64::MIN_POSITIVE, 1.0);
    let frac = (model.ci_at(rho, cfg.b_n as f64) / model.machine_balance).min(1.0);
    r.set("sketchcore.sketch_ms", ms);
    r.set("sketchcore.samples", samples as f64);
    r.set("sketchcore.flops", flops as f64);
    r.set("sketchcore.bytes_a", (nnz * NNZ_BYTES) as f64);
    r.set("sketchcore.bytes_out", (2 * 8 * k * d * n) as f64);
    r.set("sketchcore.ns_per_sample", ms * 1e6 / samples as f64);
    r.set("sketchcore.gflops", gflops);
    r.set("sketchcore.peak_frac", gflops / peak_gflops);
    r.set("sketchcore.model_ratio", gflops / (frac * peak_gflops));
}

/// The FMA peak probe of the bench crate, best of three (it is short).
pub fn peak_gflops() -> f64 {
    (0..3)
        .map(|_| bench::measure_peak_gflops())
        .fold(0.0, f64::max)
}

/// Householder QR of the `2n×n` sketch: `(ms, gflops)`.
pub fn qr(ahat: &Matrix<f64>, reps: usize) -> (f64, f64) {
    let ns = time_median_ns(reps, || densekit::householder_qr_r(ahat));
    let (m, n) = (ahat.nrows() as f64, ahat.ncols() as f64);
    let flops = 2.0 * m * n * n - 2.0 / 3.0 * n * n * n;
    (ns / 1e6, flops / ns)
}

/// One LSQR iteration's operator work: `(spmv_pair_ns, precond_pair_ns)`
/// — `CscOp` apply + apply_t, and `UpperTriPrecond` apply + apply_t.
pub fn lsqr_pairs(a: &CscMatrix<f64>, pre: &UpperTriPrecond, reps: usize) -> (f64, f64) {
    let (m, n) = (a.nrows(), a.ncols());
    let x = crate::check::probe_vector(n, 1);
    let u = crate::check::probe_vector(m, 2);
    let (mut y, mut z) = (vec![0.0; m], vec![0.0; n]);
    let mut op = CscOp::new(a);
    let spmv = time_median_ns(reps, || {
        op.apply(&x, &mut y);
        op.apply_t(&u, &mut z);
        z[0]
    });
    let mut w = vec![0.0; n];
    let pre_ns = time_median_ns(reps, || {
        pre.apply(&x, &mut z);
        pre.apply_t(&z, &mut w);
        w[0]
    });
    (spmv, pre_ns)
}

/// `try_sketch_alg3_multi` over `k` seeds against `k` sequential
/// `try_sketch_alg3` calls on the same inputs: multi time / sequential
/// time, and the multi time in ms.
pub fn fusion(a: &CscMatrix<f64>, cfg: &SketchConfig, k: usize, reps: usize) -> (f64, f64) {
    let k = k.max(1);
    let samplers: Vec<_> = (0..k as u64)
        .map(|i| crate::check::sampler(cfg.seed + i))
        .collect();
    let (mut multi, mut seq) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        let t0 = Instant::now();
        black_box(sketchcore::try_sketch_alg3_multi(a, cfg, &samplers, false).is_ok());
        multi.push(t0.elapsed().as_nanos() as f64);
        let t0 = Instant::now();
        for s in &samplers {
            black_box(sketchcore::try_sketch_alg3(a, cfg, s).is_ok());
        }
        seq.push(t0.elapsed().as_nanos() as f64);
    }
    (median(&multi) / median(&seq), median(&multi) / 1e6)
}

/// `Frame::encode` and `proto::decode`, ns per frame over `frames`.
pub fn proto_codec(frames: &[sketchd::Frame], reps: usize) -> (f64, f64) {
    let bytes: Vec<Vec<u8>> = frames.iter().map(|f| f.encode()).collect();
    let n = frames.len().max(1) as f64;
    let enc = time_median_ns(reps, || {
        frames.iter().map(|f| f.encode().len()).sum::<usize>()
    });
    let dec = time_median_ns(reps, || {
        bytes
            .iter()
            .map(|b| sketchd::proto::decode(b).map_or(0, |(_, used)| used))
            .sum::<usize>()
    });
    (enc / n, dec / n)
}

/// `Registry::insert` (ms per insert of each `scratch` matrix, which
/// evicts under `budget` once full; NaN without scratch matrices) and
/// `Registry::get` of the resident `"hot"` operand (ns per call), on a
/// local registry holding `resident`.
pub fn registry(
    budget: u64,
    resident: &[(&str, &CscMatrix<f64>)],
    scratch: &[CscMatrix<f64>],
) -> (f64, f64) {
    let reg = sketchd::Registry::new(budget);
    for (name, m) in resident {
        let _ = reg.insert(name, (*m).clone());
    }
    let mut ins = Vec::new();
    for (i, m) in scratch.iter().enumerate() {
        let m = m.clone();
        let name = format!("scratch{}", i % 3);
        let t0 = Instant::now();
        black_box(reg.insert(&name, m).is_ok());
        ins.push(t0.elapsed().as_nanos() as f64);
        // Keep the resident operands more recently used, as traffic does.
        for (name, _) in resident {
            let _ = reg.get(name);
        }
    }
    let gets = 10_000;
    let get_ns = time_median_ns(5, || {
        for _ in 0..gets {
            black_box(reg.get("hot").is_ok());
        }
    }) / gets as f64;
    (median(&ins) / 1e6, get_ns)
}
