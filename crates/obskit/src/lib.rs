#![warn(missing_docs)]
//! # obskit — zero-dependency telemetry for the sketching pipeline
//!
//! The paper's evaluation is built on instrumentation: Tables III/V split
//! sample time from compute time, §IV compares memory traffic against the
//! cost model, Table IX tracks solver convergence. This crate is the one
//! place all of that is recorded:
//!
//! * **Spans** — hierarchical wall-clock timers (`lstsq/sap/factor`) whose
//!   every duration lands in the path's histogram: a span has no record of
//!   its own.
//! * **Histograms** — log-bucketed latency distributions ([`Hist`],
//!   [`hist_record_ns`]) per path, with exact count and total plus
//!   p50/p90/p99 and MAD, accumulated per thread and merged into a global
//!   registry when worker threads finish (parkit flushes at its join points)
//!   or on demand.
//! * **Counters** — typed tallies of samples drawn, `set_state` seeks,
//!   flops, and bytes moved, bumped at *block* granularity by the kernels.
//! * **Sinks** — a human summary table ([`Snapshot::summary`]) and
//!   machine-readable JSONL ([`Snapshot::write_jsonl`], path from
//!   `SKETCH_OBS_JSON` or the `repro --obs-json` flag).
//!
//! Every record is keyed by a code path (a counter slot or a histogram
//! path), so the registry, a snapshot and its JSONL grow with the paths a
//! run takes, not with the work it does. Per-occurrence records belong to
//! the opt-in flight recorder ([`trace`]), whose rings are fixed-capacity.
//!
//! ## Gating
//!
//! Recording is off when `SKETCH_OBS=0`. The disabled path costs exactly
//! one relaxed atomic load per call — the kernels only call at block
//! granularity, never per nonzero, so the uninstrumented hot loops run at
//! full speed.
//!
//! ## No dependencies
//!
//! std only: atomics, `thread_local!`, `Mutex`. The JSON writer is
//! hand-rolled (no serde), which keeps the crate buildable fully offline.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

pub mod trace;

/// Typed counters the kernels and solvers bump.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Ctr {
    /// Random samples drawn (entries of `S` regenerated).
    Samples = 0,
    /// `set_state` checkpoint seeks performed.
    Seeks = 1,
    /// Useful flops (multiply-adds count as 2).
    Flops = 2,
    /// Bytes of the sparse operand `A` streamed (values + indices).
    BytesA = 3,
    /// Bytes of the output `Â` moved (read + write at block granularity).
    BytesOut = 4,
    /// Solver iterations performed (LSQR).
    SolverIters = 5,
    /// Self-healing SAP: recovery attempts (re-sketch with escalated γ).
    SapRetries = 6,
    /// Self-healing SAP: QR→SVD factorization fallbacks taken.
    SapFallbackSvd = 7,
    /// Serving layer (`sketchd`): requests admitted to the work queue.
    SvcAccepted = 8,
    /// Serving layer: requests rejected at admission (queue-depth cap).
    SvcRejectedOverload = 9,
    /// Serving layer: requests whose deadline expired before completion.
    SvcDeadlineMissed = 10,
    /// Serving layer: requests served as part of a coalesced batch of ≥ 2.
    SvcBatched = 11,
}

/// Number of counter slots.
pub const NCTR: usize = 12;

/// Counter names in slot order (JSONL and summary labels).
pub const CTR_NAMES: [&str; NCTR] = [
    "samples",
    "seeks",
    "flops",
    "bytes_a",
    "bytes_out",
    "solver_iters",
    "sap.retries",
    "sap.fallback_svd",
    "svc.accepted",
    "svc.rejected_overload",
    "svc.deadline_missed",
    "svc.batched",
];

// --- histograms --------------------------------------------------------

/// Significant bits per octave of the log bucketing: 8 sub-buckets per
/// power of two, so a bucket's relative width is 1/8 and its midpoint is
/// within ±6.25 % of any value it holds.
const HIST_SUB_BITS: u32 = 3;
const HIST_SUB: u64 = 1 << HIST_SUB_BITS;

/// Number of histogram buckets: values `0..8` get exact buckets, every
/// octave `2^o..2^(o+1)` for `o in 3..64` gets 8 buckets.
pub const HIST_NBUCKETS: usize = (HIST_SUB + (64 - HIST_SUB_BITS as u64) * HIST_SUB) as usize;

#[inline]
fn hist_bucket(v: u64) -> usize {
    if v < HIST_SUB {
        v as usize
    } else {
        let octave = 63 - v.leading_zeros() as u64; // ≥ HIST_SUB_BITS
        let sub = (v >> (octave - HIST_SUB_BITS as u64)) & (HIST_SUB - 1);
        (HIST_SUB + (octave - HIST_SUB_BITS as u64) * HIST_SUB + sub) as usize
    }
}

/// Lower bound of bucket `idx` (its smallest representable value).
fn hist_bucket_lo(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < HIST_SUB {
        idx
    } else {
        let octave = (idx - HIST_SUB) / HIST_SUB + HIST_SUB_BITS as u64;
        let sub = (idx - HIST_SUB) % HIST_SUB;
        (1u64 << octave) + sub * (1u64 << (octave - HIST_SUB_BITS as u64))
    }
}

/// Representative (mid-bucket) value of bucket `idx`.
fn hist_bucket_mid(idx: usize) -> u64 {
    let lo = hist_bucket_lo(idx);
    let width = if (idx as u64) < HIST_SUB {
        1
    } else {
        let octave = (idx as u64 - HIST_SUB) / HIST_SUB + HIST_SUB_BITS as u64;
        1u64 << (octave - HIST_SUB_BITS as u64)
    };
    lo + width / 2
}

/// A log-bucketed histogram of `u64` samples (typically nanoseconds).
///
/// Buckets are base-2 logarithmic with 8 sub-buckets per octave
/// (HDR-histogram style), so quantile estimates carry at most ±6.25 %
/// relative bucketing error while `record` stays O(1) and allocation-free
/// after construction. `count`, `sum`, `min` and `max` are tracked exactly.
/// Merging two histograms bucket-wise is exactly the histogram of the
/// concatenated inputs, which is what lets per-thread accumulators combine
/// at flush time without loss.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hist {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Self {
            buckets: vec![0; HIST_NBUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Hist {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[hist_bucket(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Fold `other` into `self`; the result is identical to a histogram
    /// that recorded both input streams.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Nearest-rank quantile `q ∈ [0, 1]`: the mid-bucket value of the
    /// bucket holding the `⌈q·count⌉`-th smallest sample, clamped to the
    /// exact `[min, max]` range (so `quantile(0.0)` is exactly `min`,
    /// `quantile(1.0)` exactly `max`, and a single-valued histogram reports
    /// that value at every `q`). Returns `NaN` on an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return (hist_bucket_mid(idx) as f64).clamp(self.min as f64, self.max as f64);
            }
        }
        self.max as f64
    }

    /// Median absolute deviation about the median, computed from the bucket
    /// representatives: the weighted median of `|mid(bucket) − median|`.
    /// Carries the same ±6.25 % bucketing error as [`Hist::quantile`];
    /// `NaN` on an empty histogram, exactly 0 when all samples share one
    /// bucket.
    pub fn mad(&self) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let med = self.quantile(0.5);
        let mut devs: Vec<(f64, u64)> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(idx, &c)| {
                let mid = (hist_bucket_mid(idx) as f64).clamp(self.min as f64, self.max as f64);
                ((mid - med).abs(), c)
            })
            .collect();
        devs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let rank = self.count.div_ceil(2);
        let mut seen = 0u64;
        for (d, c) in devs {
            seen += c;
            if seen >= rank {
                return d;
            }
        }
        0.0
    }

    /// Mean of the recorded samples (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// Record `ns` into the histogram registered under `path` on this thread's
/// accumulator (no-op when telemetry is disabled). Merged into the global
/// registry at the same flush points as the counters.
#[inline]
pub fn hist_record_ns(path: &'static str, ns: u64) {
    if !enabled() {
        return;
    }
    with_local(|l| l.hists.entry(path).or_default().record(ns));
}

// --- gating ------------------------------------------------------------

// One byte holds every run-time gate so the kernels pay a single relaxed
// atomic load per block no matter how many recorders exist: bit 0 marks the
// byte initialized from the environment, bit 1 is the telemetry gate
// (`SKETCH_OBS`), bit 2 the flight-recorder gate (`SKETCH_TRACE`).
const GATE_INIT: u8 = 1;
const GATE_OBS: u8 = 2;
const GATE_TRACE: u8 = 4;

static GATE: AtomicU8 = AtomicU8::new(0);

#[cold]
fn init_gate() -> u8 {
    let mut g = GATE_INIT;
    let obs_on = match std::env::var("SKETCH_OBS") {
        Ok(v) => !matches!(v.trim(), "0" | "off" | "false" | "no"),
        Err(_) => true,
    };
    if obs_on {
        g |= GATE_OBS;
    }
    // Tracing is opt-in (a flight recorder is for flagged runs), unlike the
    // aggregate telemetry which is opt-out.
    let trace_on = match std::env::var("SKETCH_TRACE") {
        Ok(v) => matches!(v.trim(), "1" | "on" | "true" | "yes"),
        Err(_) => false,
    };
    if trace_on {
        g |= GATE_TRACE;
    }
    GATE.store(g, Ordering::Relaxed);
    g
}

#[inline(always)]
fn gate() -> u8 {
    let g = GATE.load(Ordering::Relaxed);
    if g & GATE_INIT != 0 {
        g
    } else {
        init_gate()
    }
}

// Set or clear one gate bit, initializing from the environment first so the
// other bits are preserved. Gate writers are test harnesses and CLI startup;
// a racing writer can only lose its own update, never corrupt another bit's
// source of truth beyond that.
fn store_gate_bit(bit: u8, on: bool) {
    let g = gate();
    GATE.store(if on { g | bit } else { g & !bit }, Ordering::Relaxed);
}

/// Is telemetry recording on? One relaxed atomic load on the hot path.
#[inline(always)]
pub fn enabled() -> bool {
    gate() & GATE_OBS != 0
}

/// Is flight-recorder tracing on (see [`trace`])? One relaxed atomic load.
#[inline(always)]
pub fn trace_enabled() -> bool {
    gate() & GATE_TRACE != 0
}

/// Is *any* recorder (aggregate telemetry or the flight recorder) on?
/// The kernels check this once per block — still a single relaxed atomic
/// load, because both gates share one byte.
#[inline(always)]
pub fn any_enabled() -> bool {
    gate() & (GATE_OBS | GATE_TRACE) != 0
}

/// Crate version, for embedding in run manifests.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

/// Override the `SKETCH_OBS` gate programmatically (tests, harnesses).
/// The flight-recorder gate ([`trace::set_enabled`]) is left untouched.
pub fn set_enabled(on: bool) {
    store_gate_bit(GATE_OBS, on);
}

/// Process epoch for trace timestamps (first telemetry touch).
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

// --- global registry ---------------------------------------------------

struct Registry {
    hists: Mutex<HashMap<&'static str, Hist>>,
    counters: [AtomicU64; NCTR],
}

/// Take a telemetry mutex, recovering from poisoning. A poisoned lock here
/// only means a panic (possibly an injected fault) unwound through a flush;
/// the guarded maps hold plain additive aggregates with no cross-entry
/// invariants, so the data stays usable and dropping it would lose
/// telemetry the hardening tests assert on.
pub(crate) fn lock_clean<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn registry() -> &'static Registry {
    static REG: OnceLock<Registry> = OnceLock::new();
    REG.get_or_init(|| Registry {
        hists: Mutex::new(HashMap::new()),
        counters: std::array::from_fn(|_| AtomicU64::new(0)),
    })
}

// --- per-thread accumulators -------------------------------------------

#[derive(Default)]
struct Local {
    counters: [u64; NCTR],
    hists: HashMap<&'static str, Hist>,
    ring: Option<trace::TraceRing>,
}

impl Local {
    fn flush(&mut self) {
        let reg = registry();
        for (slot, v) in self.counters.iter_mut().enumerate() {
            if *v != 0 {
                reg.counters[slot].fetch_add(*v, Ordering::Relaxed);
                *v = 0;
            }
        }
        if !self.hists.is_empty() {
            let mut g = lock_clean(&reg.hists);
            for (path, h) in self.hists.drain() {
                g.entry(path).or_default().merge(&h);
            }
        }
        if let Some(ring) = self.ring.as_mut() {
            trace::flush_ring(ring);
        }
    }
}

// Flushes whatever the thread accumulated when the thread exits, so scoped
// worker threads merge their numbers into the registry at join time even if
// the caller forgets an explicit `flush_thread`.
struct LocalGuard(RefCell<Local>);

impl Drop for LocalGuard {
    fn drop(&mut self) {
        self.0.borrow_mut().flush();
    }
}

thread_local! {
    static LOCAL: LocalGuard = LocalGuard(RefCell::new(Local::default()));
}

fn with_local(f: impl FnOnce(&mut Local)) {
    // During thread teardown the TLS slot may already be gone; drop the
    // record rather than panic.
    let _ = LOCAL.try_with(|l| f(&mut l.0.borrow_mut()));
}

/// Bump a counter by `n` on this thread's accumulator (no-op when disabled).
#[inline]
pub fn add(c: Ctr, n: u64) {
    if !enabled() || n == 0 {
        return;
    }
    with_local(|l| l.counters[c as usize] += n);
}

/// Merge this thread's accumulators into the global registry now. parkit
/// calls this at the end of every worker closure — the "merge at join
/// points" contract — and it is harmless to call redundantly.
pub fn flush_thread() {
    with_local(|l| l.flush());
}

/// RAII span timer: time from construction to drop is recorded into the
/// histogram of `path` (see [`hist_record_ns`]).
/// When the flight recorder is on (see [`trace`]), the same guard also
/// emits a Begin event at construction and an End event at drop.
#[must_use = "a span records on drop; binding it to _ discards the timing"]
pub struct SpanGuard {
    path: &'static str,
    t0: Option<Instant>,
    traced: bool,
}

impl SpanGuard {
    /// Seconds elapsed so far (0 when every recorder is disabled).
    pub fn elapsed_s(&self) -> f64 {
        self.t0.map(|t| t.elapsed().as_secs_f64()).unwrap_or(0.0)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(t0) = self.t0 {
            hist_record_ns(self.path, t0.elapsed().as_nanos() as u64);
            if self.traced {
                trace::end(self.path);
            }
        }
    }
}

/// Start a span. Paths are `/`-separated to express hierarchy
/// (`"sketch/alg3"`, `"sketch/alg3/sample"`); the summary table indents by
/// path depth. Reads the gate byte once: the timer arms when either the
/// aggregate telemetry or the flight recorder is on.
#[inline]
pub fn span(path: &'static str) -> SpanGuard {
    let g = gate();
    let traced = g & GATE_TRACE != 0;
    if traced {
        trace::begin(path);
    }
    SpanGuard {
        path,
        t0: if g & (GATE_OBS | GATE_TRACE) != 0 {
            Some(Instant::now())
        } else {
            None
        },
        traced,
    }
}

// --- snapshot & sinks --------------------------------------------------

/// A point-in-time copy of everything recorded so far.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Histograms (span and block paths) sorted by path.
    pub hists: Vec<(String, Hist)>,
    /// Counter values in [`Ctr`] slot order.
    pub counters: [u64; NCTR],
}

/// Snapshot the registry (flushes the calling thread first).
pub fn snapshot() -> Snapshot {
    flush_thread();
    let reg = registry();
    let mut hists: Vec<(String, Hist)> = lock_clean(&reg.hists)
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect();
    hists.sort_by(|a, b| a.0.cmp(&b.0));
    Snapshot {
        hists,
        counters: std::array::from_fn(|i| reg.counters[i].load(Ordering::Relaxed)),
    }
}

/// Clear all recorded histograms and counters (calling thread flushed
/// and discarded first). Other threads' unflushed locals survive a reset.
///
/// **Long-lived servers must not call this.** `reset()` exists for
/// benchmark harnesses that want each repetition to describe exactly one
/// execution (benchgate's reset-between-reps discipline). In a resident
/// service (`sketchd`) the registry is shared by every in-flight request;
/// a reset would silently zero counters other observers are diffing
/// against. Servers report deltas instead: snapshot once at startup, then
/// have each `Stats` request take a fresh [`snapshot`] and subtract the
/// baseline with [`Snapshot::counters_since`]. Both operations are
/// read-only on the registry, so any number of concurrent `Stats` calls
/// observe monotone, race-free values.
pub fn reset() {
    with_local(|l| {
        l.counters = [0; NCTR];
        l.hists.clear();
    });
    let reg = registry();
    lock_clean(&reg.hists).clear();
    for c in &reg.counters {
        c.store(0, Ordering::Relaxed);
    }
}

/// The JSONL sink path configured by the environment (`SKETCH_OBS_JSON`).
pub fn json_path_from_env() -> Option<String> {
    std::env::var("SKETCH_OBS_JSON")
        .ok()
        .filter(|p| !p.is_empty())
}

/// Resolve the JSONL sink shared by every binary: an explicit CLI value
/// (`--obs-json PATH`) wins over `SKETCH_OBS_JSON`. The one place the
/// precedence rule lives — `repro` and `benchgate` both call
/// this instead of re-implementing it.
///
/// Sink semantics: the resolved file is **truncated and rewritten** on every
/// run ([`Snapshot::write_jsonl`] uses `std::fs::write`), never appended to.
/// Pointing two runs at one path keeps only the last run's snapshot; use
/// distinct paths to keep a history.
pub fn resolve_json_sink(cli: Option<String>) -> Option<String> {
    cli.or_else(json_path_from_env)
}

/// End-of-run sink shared by the binaries: when telemetry is enabled, print
/// the human summary and, if a JSONL path was resolved, write the snapshot
/// there. Returns `Ok(true)` when a file was written. When telemetry is off
/// but a path was requested, warns on stderr (nothing was recorded).
pub fn emit_run_telemetry(json_path: Option<&str>) -> std::io::Result<bool> {
    if !enabled() {
        if json_path.is_some() {
            eprintln!("--obs-json given but telemetry is off (SKETCH_OBS=0); nothing written");
        }
        return Ok(false);
    }
    let snap = snapshot();
    print!("\n{}", snap.summary());
    if let Some(path) = json_path {
        snap.write_jsonl(path)?;
        println!("telemetry JSONL written to {path}");
        return Ok(true);
    }
    Ok(false)
}

fn json_escape(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn json_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        // JSON has no NaN/Inf; encode as null like most exporters do.
        out.push_str("null");
    }
}

impl Snapshot {
    /// Counter-wise `self − base` (saturating): the delta a long-lived
    /// process reports without ever resetting the global registry. `base`
    /// is typically a snapshot taken at process or window start; saturation
    /// covers the (misuse) case where someone reset the registry between
    /// the two snapshots.
    pub fn counters_since(&self, base: &Snapshot) -> [u64; NCTR] {
        std::array::from_fn(|i| self.counters[i].saturating_sub(base.counters[i]))
    }

    /// Serialize as JSONL: one `meta` line, one `hist` line per path (a
    /// span's count and total are its `count` and `sum_ns`), one line per
    /// nonzero counter.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"type\":\"meta\",\"obskit\":\"{}\"}}",
            env!("CARGO_PKG_VERSION")
        );
        for (path, h) in &self.hists {
            if h.is_empty() {
                continue;
            }
            let mut line = String::from("{\"type\":\"hist\",\"path\":\"");
            json_escape(&mut line, path);
            let _ = write!(
                line,
                "\",\"count\":{},\"sum_ns\":{},\"min_ns\":{},\"max_ns\":{}",
                h.count(),
                h.sum(),
                h.min().unwrap_or(0),
                h.max().unwrap_or(0)
            );
            for (name, q) in [("p50_ns", 0.5), ("p90_ns", 0.9), ("p99_ns", 0.99)] {
                let _ = write!(line, ",\"{name}\":");
                json_f64(&mut line, h.quantile(q));
            }
            line.push_str(",\"mad_ns\":");
            json_f64(&mut line, h.mad());
            line.push('}');
            let _ = writeln!(out, "{line}");
        }
        for (slot, name) in CTR_NAMES.iter().enumerate() {
            if self.counters[slot] != 0 {
                let _ = writeln!(
                    out,
                    "{{\"type\":\"counter\",\"name\":\"{name}\",\"value\":{}}}",
                    self.counters[slot]
                );
            }
        }
        out
    }

    /// Write the JSONL serialization to `path`, **truncating** any existing
    /// file: a sink path always holds exactly one run's snapshot (one `meta`
    /// line first), never an append log. All three binaries share this
    /// behavior via [`resolve_json_sink`] + [`emit_run_telemetry`].
    pub fn write_jsonl(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }

    /// Human-readable summary: one table of every histogram path, indented
    /// by path depth, with count, total and p50/p90/p99; then the counters.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        if self.hists.iter().all(|(_, h)| h.is_empty()) && self.counters.iter().all(|&c| c == 0) {
            out.push_str("obskit: nothing recorded\n");
            return out;
        }
        let _ = writeln!(out, "── telemetry ───────────────────────────────");
        let width = self
            .hists
            .iter()
            .map(|(p, _)| p.len() + 2 * p.matches('/').count())
            .max()
            .unwrap_or(8)
            .max(8);
        let _ = writeln!(
            out,
            "{:<width$}  {:>8}  {:>12}  {:>12}  {:>12}  {:>12}",
            "path", "count", "total s", "p50 ns", "p90 ns", "p99 ns"
        );
        for (path, h) in &self.hists {
            if h.is_empty() {
                continue;
            }
            let name = format!("{}{}", "  ".repeat(path.matches('/').count()), path);
            let _ = writeln!(
                out,
                "{name:<width$}  {:>8}  {:>12.6}  {:>12.0}  {:>12.0}  {:>12.0}",
                h.count(),
                h.sum() as f64 * 1e-9,
                h.quantile(0.5),
                h.quantile(0.9),
                h.quantile(0.99)
            );
        }
        for (slot, name) in CTR_NAMES.iter().enumerate() {
            if self.counters[slot] != 0 {
                let _ = writeln!(out, "{name:<width$}  {:>8}", self.counters[slot]);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global, so the tests below (and the trace
    // module's) serialize on a lock to avoid cross-test interference.
    pub(crate) fn lock() -> std::sync::MutexGuard<'static, ()> {
        static L: Mutex<()> = Mutex::new(());
        L.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn counters_and_spans_round_trip() {
        let _g = lock();
        set_enabled(true);
        reset();
        add(Ctr::Samples, 10);
        add(Ctr::Samples, 5);
        add(Ctr::Seeks, 3);
        hist_record_ns("a/b", 1_000);
        hist_record_ns("a/b", 2_000);
        hist_record_ns("a", 5_000);
        {
            let _s = span("a/b");
        }
        let s = snapshot();
        assert_eq!(s.counters[Ctr::Samples as usize], 15);
        assert_eq!(s.counters[Ctr::Seeks as usize], 3);
        // A span's record is its histogram: the guard adds one more sample
        // to the path the direct records went to.
        let (_, ab) = s.hists.iter().find(|(p, _)| p == "a/b").unwrap();
        assert_eq!(ab.count(), 3);
        assert!(ab.sum() >= 3_000);
        let (_, a) = s.hists.iter().find(|(p, _)| p == "a").unwrap();
        assert_eq!((a.count(), a.sum()), (1, 5_000));
        reset();
        assert_eq!(snapshot().counters[Ctr::Samples as usize], 0);
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = lock();
        set_enabled(true);
        reset();
        set_enabled(false);
        add(Ctr::Flops, 100);
        hist_record_ns("x", 1);
        {
            let _s = span("x/guard");
        }
        set_enabled(true);
        let s = snapshot();
        assert_eq!(s.counters[Ctr::Flops as usize], 0);
        assert!(s.hists.is_empty());
    }

    #[test]
    fn span_guard_accumulates_time() {
        let _g = lock();
        set_enabled(true);
        reset();
        {
            let _s = span("t/sleepy");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let s = snapshot();
        let (_, h) = s.hists.iter().find(|(p, _)| p == "t/sleepy").unwrap();
        assert!(h.sum() >= 1_000_000, "slept 2ms but recorded {}ns", h.sum());
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn worker_threads_merge_at_join() {
        let _g = lock();
        set_enabled(true);
        reset();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    add(Ctr::Samples, 100);
                    hist_record_ns("par/task", 10);
                    flush_thread();
                });
            }
        });
        let s = snapshot();
        assert_eq!(s.counters[Ctr::Samples as usize], 400);
        let (_, h) = s.hists.iter().find(|(p, _)| p == "par/task").unwrap();
        assert_eq!((h.count(), h.sum()), (4, 40));
    }

    #[test]
    fn jsonl_shape() {
        let _g = lock();
        set_enabled(true);
        reset();
        add(Ctr::Samples, 42);
        hist_record_ns("sketch/alg3", 1_500_000);
        hist_record_ns("odd/a \"quoted\" path", 7);
        let text = snapshot().to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[0],
            format!("{{\"type\":\"meta\",\"obskit\":\"{VERSION}\"}}")
        );
        assert!(text.contains(
            "\"type\":\"hist\",\"path\":\"sketch/alg3\",\"count\":1,\"sum_ns\":1500000,"
        ));
        assert!(!text.contains("\"type\":\"span\""));
        assert!(text.contains("\"type\":\"counter\",\"name\":\"samples\",\"value\":42"));
        assert!(text.contains("\"path\":\"odd/a \\\"quoted\\\" path\""));
        assert_eq!(lines.len(), 4, "meta, two hists, one counter:\n{text}");
        // Every line parses as a flat JSON object by eye: starts '{' ends '}'.
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'), "bad line {l}");
        }
    }

    #[test]
    fn write_jsonl_truncates_existing_file() {
        let _g = lock();
        set_enabled(true);
        reset();
        let path = std::env::temp_dir().join(format!("obskit_trunc_{}.jsonl", std::process::id()));
        let path = path.to_str().unwrap().to_string();
        add(Ctr::Samples, 1);
        snapshot().write_jsonl(&path).unwrap();
        add(Ctr::Samples, 1);
        snapshot().write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let metas = text
            .lines()
            .filter(|l| l.contains("\"type\":\"meta\""))
            .count();
        // Truncate-on-write: the second snapshot replaces the first, so the
        // file holds exactly one meta line (an append log would hold two).
        assert_eq!(metas, 1, "sink must hold one snapshot, got:\n{text}");
        assert!(text.contains("\"name\":\"samples\",\"value\":2"));
        let _ = std::fs::remove_file(&path);
        reset();
    }

    #[test]
    fn gate_bits_are_independent() {
        let _g = lock();
        set_enabled(true);
        trace::set_enabled(true);
        assert!(enabled() && trace_enabled() && any_enabled());
        set_enabled(false);
        assert!(!enabled() && trace_enabled() && any_enabled());
        trace::set_enabled(false);
        assert!(!enabled() && !trace_enabled() && !any_enabled());
        set_enabled(true);
        assert!(enabled() && !trace_enabled() && any_enabled());
    }

    #[test]
    fn summary_indents_hierarchy() {
        let _g = lock();
        set_enabled(true);
        reset();
        hist_record_ns("sketch", 10);
        hist_record_ns("sketch/alg3", 10);
        let txt = snapshot().summary();
        assert!(txt.contains("\nsketch "));
        assert!(txt.contains("\n  sketch/alg3 "));
        reset();
        assert!(snapshot().summary().contains("nothing recorded"));
    }

    #[test]
    fn counters_since_is_saturating_delta() {
        let _g = lock();
        set_enabled(true);
        reset();
        add(Ctr::SvcAccepted, 5);
        let base = snapshot();
        add(Ctr::SvcAccepted, 7);
        add(Ctr::SvcRejectedOverload, 2);
        let now = snapshot();
        let d = now.counters_since(&base);
        assert_eq!(d[Ctr::SvcAccepted as usize], 7);
        assert_eq!(d[Ctr::SvcRejectedOverload as usize], 2);
        // Saturating: diffing against a *later* snapshot clamps to 0 rather
        // than wrapping (the registry-was-reset misuse case).
        let back = base.counters_since(&now);
        assert_eq!(back[Ctr::SvcAccepted as usize], 0);
        reset();
    }

    // --- histogram unit tests -------------------------------------------

    #[test]
    fn hist_bucket_bounds_are_monotone_and_cover() {
        // Every value lands in a bucket whose [lo, next lo) range holds it.
        for v in (0..200u64).chain([1 << 20, u64::MAX / 3, u64::MAX]) {
            let idx = hist_bucket(v);
            assert!(idx < HIST_NBUCKETS, "index out of range for {v}");
            assert!(hist_bucket_lo(idx) <= v, "lo > v for {v}");
            if idx + 1 < HIST_NBUCKETS {
                assert!(v < hist_bucket_lo(idx + 1), "v beyond bucket for {v}");
            }
        }
        // Lower bounds strictly increase.
        for idx in 1..HIST_NBUCKETS {
            assert!(hist_bucket_lo(idx) > hist_bucket_lo(idx - 1));
        }
    }

    #[test]
    fn hist_closed_form_quantiles() {
        // Values 0..8 are bucketed exactly, so small-input quantiles are
        // closed-form: nearest-rank over {1,2,3,4,5}.
        let mut h = Hist::new();
        for v in [1u64, 2, 3, 4, 5] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 15);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(5));
        assert_eq!(h.quantile(0.0), 1.0);
        assert_eq!(h.quantile(0.5), 3.0);
        assert_eq!(h.quantile(1.0), 5.0);
        // Nearest rank: ⌈0.9·5⌉ = 5th smallest = 5.
        assert_eq!(h.quantile(0.9), 5.0);
        // MAD of {1..5}: deviations {2,1,0,1,2}, median 1.
        assert_eq!(h.mad(), 1.0);
        // Mean is exact (sum and count are exact).
        assert!((h.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn hist_quantiles_within_bucket_error_on_large_inputs() {
        // 1..=1000: quantiles must sit within the ±1/8 relative bucket
        // width of the exact nearest-rank answer.
        let mut h = Hist::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        for (q, exact) in [(0.5, 500.0), (0.9, 900.0), (0.99, 990.0)] {
            let got = h.quantile(q);
            assert!(
                (got - exact).abs() <= exact / 8.0 + 1.0,
                "q{q}: got {got}, exact {exact}"
            );
        }
        // MAD of 1..=1000 is 250; allow bucketing error on both the median
        // and the deviation median (≤ 1/8 each).
        let mad = h.mad();
        assert!((mad - 250.0).abs() <= 250.0 / 4.0 + 2.0, "mad {mad}");
    }

    #[test]
    fn hist_merge_equals_concatenation() {
        let xs: Vec<u64> = (0..500).map(|i| (i * i * 2654435761u64) >> 16).collect();
        let (a_in, b_in) = xs.split_at(173);
        let mut a = Hist::new();
        let mut b = Hist::new();
        let mut whole = Hist::new();
        for &v in a_in {
            a.record(v);
        }
        for &v in b_in {
            b.record(v);
        }
        for &v in &xs {
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole, "merge must equal histogram of concatenation");
        // Merging an empty histogram is the identity.
        let before = whole.clone();
        whole.merge(&Hist::new());
        assert_eq!(whole, before);
    }

    #[test]
    fn hist_empty_edge_cases() {
        let h = Hist::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert!(h.quantile(0.5).is_nan());
        assert!(h.mad().is_nan());
        assert!(h.mean().is_nan());
        // Single sample: every quantile is that sample, MAD is 0.
        let mut h1 = Hist::new();
        h1.record(12345);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h1.quantile(q), 12345.0);
        }
        assert_eq!(h1.mad(), 0.0);
    }

    #[test]
    fn hist_thread_locals_merge_at_flush() {
        let _g = lock();
        set_enabled(true);
        reset();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                s.spawn(move || {
                    for i in 0..10u64 {
                        hist_record_ns("h/par", 100 * t + i);
                    }
                    flush_thread();
                });
            }
        });
        let snap = snapshot();
        let (_, h) = snap.hists.iter().find(|(p, _)| p == "h/par").unwrap();
        assert_eq!(h.count(), 40);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max().map(|m| m >= 300), Some(true));
        reset();
        assert!(snapshot().hists.is_empty());
    }

    #[test]
    fn hist_jsonl_and_summary_lines() {
        let _g = lock();
        set_enabled(true);
        reset();
        for v in [1000u64, 2000, 3000] {
            hist_record_ns("h/block", v);
        }
        let snap = snapshot();
        let text = snap.to_jsonl();
        assert!(text.contains("\"type\":\"hist\",\"path\":\"h/block\",\"count\":3"));
        assert!(text.contains("\"p50_ns\":"));
        assert!(text.contains("\"mad_ns\":"));
        assert!(snap.summary().contains("p50"));
        reset();
    }

    #[test]
    fn hist_disabled_records_nothing() {
        let _g = lock();
        set_enabled(true);
        reset();
        set_enabled(false);
        hist_record_ns("h/off", 5);
        set_enabled(true);
        assert!(snapshot().hists.is_empty());
    }
}
