//! Telemetry glue: block-granularity counter helpers for the kernels and
//! the measured-vs-model traffic comparison of paper §III-A.
//!
//! The kernels call [`block_timer`] / [`block_done`] once per outer block:
//! the timer arms only when a recorder is on ([`obskit::any_enabled`], one
//! relaxed atomic load), and `block_done` fans the measurement out to the
//! latency histogram + counters (aggregate telemetry) and/or an annotated
//! block span in the flight recorder ([`obskit::trace`]). The disabled path
//! costs one relaxed atomic load per block and nothing per nonzero. The
//! counters follow the paper's accounting:
//!
//! * `samples` — entries of `S` regenerated (Algorithm 3: `d₁` per nonzero;
//!   Algorithm 4: `d₁` per nonempty row of the vertical block), times the
//!   number of sketches a batched block serves.
//! * `seeks` — `set_state` checkpoint seeks (one per regenerated column
//!   segment).
//! * `flops` — useful flops, `2·d₁` per nonzero and sketch (multiply-add =
//!   2).
//! * `bytes_a` — the sparse operand streamed: value + row index per nonzero,
//!   charged once per block however many sketches share the traversal.
//! * `bytes_out` — each sketch's `Â` block read and written once per visit.
//!
//! [`TrafficReport`] then puts the measured byte counters side by side with
//! the §III-A cost model: the model predicts a computational intensity
//! `CI(ρ, n₁)` (flops per word moved) at the run's actual blocking, so
//! `modeled_bytes = flops/CI × word size`. A ratio near 1 means the run
//! moved about as much data as the model says it must; a large ratio flags
//! cache misses the model does not account for (or a mis-sized `M`).

use crate::model::CostModel;
use obskit::trace::{self, TraceKind};
use obskit::Ctr;
use std::time::Instant;

/// Bytes per stored nonzero of the sparse operand: one value plus one
/// row/column index (`usize`).
#[inline]
fn nnz_bytes<T>() -> u64 {
    (std::mem::size_of::<T>() + std::mem::size_of::<usize>()) as u64
}

/// Arm the per-block timer iff *any* recorder (aggregate telemetry or the
/// flight recorder) is on. The disabled path is one relaxed atomic load —
/// the same budget PR 1 set for the counters alone, kept by packing both
/// gates into one byte ([`obskit::any_enabled`]).
#[inline]
pub fn block_timer() -> Option<Instant> {
    obskit::any_enabled().then(Instant::now)
}

/// Identity and shape of one completed kernel block, handed to
/// [`block_done`].
#[derive(Clone, Copy, Debug)]
pub struct BlockObs {
    /// Histogram / trace span path, e.g. `"sketch/alg3/block"`.
    pub path: &'static str,
    /// Row offset of the output block in `Â`.
    pub i: usize,
    /// Column offset of the block.
    pub j: usize,
    /// Output rows of the block (`d₁`).
    pub d1: usize,
    /// Output columns of the block (`n₁`).
    pub n1: usize,
    /// Nonzeros of `A` streamed by the block.
    pub nnz: usize,
    /// `Some(rows_hit)` for Algorithm-4-style accounting (one seek and `d₁`
    /// samples per nonempty row), `None` for Algorithm-3-style (per
    /// nonzero).
    pub rows_hit: Option<usize>,
    /// Independent sketches the block served in one traversal of `A` (1
    /// except in [`crate::try_sketch_alg3_multi`]).
    pub batch: usize,
}

/// Record one completed kernel block into whichever recorders are armed:
/// the latency histogram plus §III-B counters when aggregate telemetry is
/// on, and an annotated block span (indices, rows, nnz, bytes, model cost)
/// plus counter deltas when the flight recorder is on. Sample, seek, flop
/// and output counts scale with `b.batch`; `bytes_a` is charged once,
/// because a batch streams the operand once. `dur_ns` is the measured
/// kernel time — callers take it immediately after the kernel so shape
/// bookkeeping (e.g. the nnz sum) never inflates the measurement.
pub fn block_done<T>(b: BlockObs, dur_ns: u64) {
    let (d1, n1, nnz, batch) = (b.d1 as u64, b.n1 as u64, b.nnz as u64, b.batch as u64);
    let seeks = batch * b.rows_hit.map_or(nnz, |rh| rh as u64);
    let samples = d1 * seeks;
    let word = std::mem::size_of::<T>() as u64;
    let bytes_a = nnz * nnz_bytes::<T>();
    let bytes_out = 2 * word * batch * d1 * n1;
    if obskit::enabled() {
        obskit::hist_record_ns(b.path, dur_ns);
        obskit::add(Ctr::Samples, samples);
        obskit::add(Ctr::Seeks, seeks);
        obskit::add(Ctr::Flops, 2 * batch * d1 * nnz);
        obskit::add(Ctr::BytesA, bytes_a);
        obskit::add(Ctr::BytesOut, bytes_out);
    }
    if obskit::trace_enabled() {
        let bytes = bytes_a + bytes_out;
        // §III-A cost functional in byte units: memory traffic plus
        // generation cost h per sample, expressed in word-bytes so the two
        // terms share a unit. The anomaly attributor fits ns-per-cost-unit
        // per span path on top of this.
        let h = CostModel::default_host().h;
        let cost = bytes + (h * samples as f64 * word as f64).round() as u64;
        let end_ns = trace::now_ns();
        trace::span_pair(
            b.path,
            end_ns.saturating_sub(dur_ns),
            end_ns,
            TraceKind::BlockEnd,
            [
                b.i as u64,
                b.j as u64,
                b.rows_hit.unwrap_or(b.d1) as u64,
                nnz,
                bytes,
                cost,
            ],
        );
        trace::counter("samples", samples);
        trace::counter("bytes", bytes);
    }
}

/// Measured memory traffic put side by side with the §III-A model.
#[derive(Clone, Copy, Debug)]
pub struct TrafficReport {
    /// Bytes the kernel counted (operand stream + output tiles).
    pub measured_bytes: u64,
    /// Bytes the cost model says the kernel must move at this blocking:
    /// `flops / CI(ρ, n₁) × word size`.
    pub modeled_bytes: f64,
    /// `measured / modeled`; near 1 when the run behaves like the model.
    pub ratio: f64,
}

impl TrafficReport {
    /// Compare `measured_bytes` (typically `bytes_a + bytes_out` from an
    /// obskit snapshot) against the model at density `rho`, column block
    /// size `b_n`, for a kernel that performs `flops` useful flops on
    /// `word_bytes`-sized scalars.
    pub fn compare(
        model: &CostModel,
        rho: f64,
        b_n: usize,
        flops: u64,
        word_bytes: usize,
        measured_bytes: u64,
    ) -> Self {
        let ci = model.ci_at(rho.clamp(f64::MIN_POSITIVE, 1.0), (b_n as f64).max(1.0));
        let modeled_bytes = flops as f64 / ci * word_bytes as f64;
        let ratio = if modeled_bytes > 0.0 {
            measured_bytes as f64 / modeled_bytes
        } else {
            f64::NAN
        };
        Self {
            measured_bytes,
            modeled_bytes,
            ratio,
        }
    }

    /// One-line human rendering for run summaries.
    pub fn render(&self, kernel: &str) -> String {
        format!(
            "{kernel}: measured {:.3e} B vs model {:.3e} B  (ratio {:.2})",
            self.measured_bytes as f64, self.modeled_bytes, self.ratio
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_ratio_is_measured_over_modeled() {
        let m = CostModel::new(1024.0 * 1024.0, 0.1, 50.0);
        let flops = 2_000_000u64;
        let r = TrafficReport::compare(&m, 0.01, 64, flops, 8, 4_000_000);
        assert!(r.modeled_bytes > 0.0);
        let expect = 4_000_000.0 / r.modeled_bytes;
        assert!((r.ratio - expect).abs() < 1e-12);
        // The model's CI is bounded by the small-ρ closed form (eq. 5), so
        // modeled bytes can't be absurdly small.
        let min_bytes = flops as f64 / m.ci_small_rho() * 8.0;
        assert!(r.modeled_bytes >= min_bytes * 0.5);
    }

    #[test]
    fn degenerate_inputs_do_not_panic() {
        let m = CostModel::new(1e6, 0.1, 50.0);
        let r = TrafficReport::compare(&m, 0.0, 0, 0, 8, 0);
        assert!(r.ratio.is_nan() || r.ratio == 0.0);
        let _ = r.render("alg3");
    }

    // Closed-form counter checks live in the crate's `obs_counters`
    // integration test: the registry is process-global and the unit-test
    // binary's other tests (parallel drivers) record into it concurrently.
}
