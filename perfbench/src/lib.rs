//! # perfbench — the repository's end-to-end and per-layer benchmark
//!
//! Two workloads, each a seeded set of generated inputs:
//!
//! * `sap` — closed loop, one caller, `lstsq::try_solve_sap`;
//! * `serve_mixed` — closed loop, one connection to an in-process `sketchd`,
//!   a seeded mix of `Sketch`, `SolveSap` and `LoadMatrix` requests.
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics; a traced
//! run (`--trace 1`) records the benchmark's own spans around each layer
//! call, replays the workload's inputs through each layer's public
//! functions, and reports the per-layer metrics.

pub mod check;
pub mod ident;
pub mod layers;
pub mod library;
pub mod serve;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Workloads the binary runs, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 2] = ["sap", "serve_mixed"];

/// End-to-end metrics (printed by untraced runs) and their units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
];

/// Per-layer metrics (printed by traced runs) and their units. A metric of
/// a layer the workload does not run prints as 0 and is listed as off-path.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("rngkit.seek_ns", "ns"),
    ("rngkit.fill_ns_per_sample", "ns"),
    ("sparsekit.validate_ms", "ms"),
    ("sketchcore.sketch_ms", "ms"),
    ("sketchcore.ns_per_sample", "ns"),
    ("sketchcore.gflops", "GFLOP/s"),
    ("sketchcore.peak_frac", "ratio"),
    ("sketchcore.model_ratio", "ratio"),
    ("sketchcore.samples", "count"),
    ("sketchcore.flops", "count"),
    ("sketchcore.bytes_a", "B"),
    ("sketchcore.bytes_out", "B"),
    ("sketchcore.fusion_ratio", "ratio"),
    ("parkit.par_speedup", "ratio"),
    ("densekit.qr_ms", "ms"),
    ("densekit.qr_gflops", "GFLOP/s"),
    ("densekit.qr_peak_frac", "ratio"),
    ("lstsq.lsqr_ms", "ms"),
    ("lstsq.lsqr_iters", "count"),
    ("lstsq.lsqr_ns_per_iter", "ns"),
    ("lstsq.spmv_pair_ns", "ns"),
    ("lstsq.precond_pair_ns", "ns"),
    ("lstsq.sap_retries", "count"),
    ("lstsq.sap_fallback_svd", "count"),
    ("sketchd.proto.encode_ns", "ns"),
    ("sketchd.proto.decode_ns", "ns"),
    ("sketchd.server.batch_size_mean", "count"),
    ("sketchd.server.queue_wait_us_p50", "us"),
    ("sketchd.server.accepted", "count"),
    ("sketchd.server.rejected_overload", "count"),
    ("sketchd.server.deadline_missed", "count"),
    ("sketchd.registry.insert_ms", "ms"),
    ("sketchd.registry.get_ns", "ns"),
    ("sketchd.registry.evictions", "count"),
    ("sketchd.client.residual_ms", "ms"),
    ("bench.trace_coverage", "ratio"),
    ("datagen.gen_ms", "ms"),
    ("obskit.trace_overhead", "ratio"),
];

/// Times each workload sets up in one run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Input sizes: the benchmark's own, or a tiny variant for self-tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark is defined with.
    Full,
    /// Seconds-fast sizes with the same code paths.
    Tiny,
}

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end to end).
    pub trace: bool,
    /// Input sizes.
    pub size: Size,
    /// Where a traced run writes its spans.
    pub trace_dir: Option<PathBuf>,
}

impl Args {
    /// Parse `--workload W --seed N --seconds S --trace 0|1
    /// [--size full|tiny] [--trace-dir DIR]`.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut a = Args {
            workload: String::new(),
            seed: 0,
            seconds: 10.0,
            trace: false,
            size: Size::Full,
            trace_dir: None,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let val = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .as_str();
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
            match flag.as_str() {
                "--workload" => a.workload = val.to_string(),
                "--seed" => a.seed = val.parse().map_err(|e| bad(&e))?,
                "--seconds" => a.seconds = val.parse().map_err(|e| bad(&e))?,
                "--trace" => {
                    a.trace = match val {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    }
                }
                "--size" => {
                    a.size = match val {
                        "full" => Size::Full,
                        "tiny" => Size::Tiny,
                        _ => return Err(bad(&"expected full or tiny")),
                    }
                }
                "--trace-dir" => a.trace_dir = Some(PathBuf::from(val)),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !WORKLOADS.contains(&a.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {WORKLOADS:?}, got {:?}",
                a.workload
            ));
        }
        if !(a.seconds > 0.0 && a.seconds <= 600.0) {
            return Err(format!("--seconds {} outside (0, 600]", a.seconds));
        }
        Ok(a)
    }

    /// The measured phase as a duration.
    pub fn phase(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// Whether an op starting `at` into the measured phase of a traced run
    /// is traced. The phase alternates untraced and traced slices of a
    /// tenth of its length, so the two halves see the same conditions and
    /// their medians give the tracing overhead.
    pub fn traced_at(&self, at: Duration) -> bool {
        self.trace && ((at.as_secs_f64() / (self.seconds / 10.0)) as u64) % 2 == 1
    }
}

/// What a workload measured, before it becomes metrics.
#[derive(Default)]
pub struct Report {
    /// Ops attempted in the measured phase.
    pub attempted: u64,
    /// Ops that errored or failed their output check.
    pub failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Set a metric; the name must be in [`END_TO_END`] or [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not declared in END_TO_END or PER_LAYER"
        );
        self.metrics.insert(name, value);
    }

    /// A metric set earlier, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Add a note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Set the four end-to-end metrics from raw per-op samples.
    pub fn set_end_to_end(&mut self, lat_ms: &[f64], phase_s: f64, setup_s: &[f64]) {
        let ok = self.attempted - self.failed;
        self.set("op_p50_ms", stats::median(lat_ms));
        self.set("op_p90_ms", stats::quantile(lat_ms, 0.9));
        self.set("ops_per_s", ok as f64 / phase_s);
        self.set("setup_s", stats::median(setup_s));
        self.note(format!(
            "samples={} p50/p90 exact over raw per-op latencies; setup_s median of {:?}",
            lat_ms.len(),
            setup_s
        ));
    }

    /// The result line: the metrics of the run's kind, each with its unit.
    /// Per-layer metrics a workload does not produce print as 0.
    pub fn result_line(&self, trace: bool) -> String {
        let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut all_finite = true;
        let mut body = String::new();
        for (i, (name, unit)) in table.iter().enumerate() {
            let v = self.get(name).unwrap_or(0.0);
            all_finite &= v.is_finite();
            let v = if v.is_finite() { v } else { 0.0 };
            if i > 0 {
                body.push_str(", ");
            }
            let _ = write!(
                body,
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        let correct = self.failed == 0 && self.attempted > 0 && all_finite;
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.attempted, self.failed
        )
    }

    /// Per-layer metrics this run did not produce.
    pub fn off_path(&self) -> Vec<&'static str> {
        PER_LAYER
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| self.get(n).is_none())
            .collect()
    }
}

/// Unit of a declared metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Milliseconds between two instants.
pub fn ms(t0: Instant, t1: Instant) -> f64 {
    t1.saturating_duration_since(t0).as_secs_f64() * 1e3
}

/// A per-op seed derived from the run seed (SplitMix64 finalizer), so ops
/// get fresh, reproducible sketch seeds.
pub fn op_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Least share of traced op and replay time the layer spans must cover.
pub const MIN_COVERAGE: f64 = 0.9;

/// Set `bench.trace_coverage`: the share of the time of the root spans
/// (`op`, `replay`) that their layer spans cover. A traced run whose layer
/// spans cover less than [`MIN_COVERAGE`] does not account for its ops, so
/// it counts as one failed op.
pub fn check_coverage(report: &mut Report, tracer: &trace::Tracer) {
    let (mut cov, mut tot) = (0.0, 0.0);
    for root in ["op", "replay"] {
        let d: f64 = tracer.durations(root).iter().sum();
        cov += tracer.coverage(root) * d;
        tot += d;
    }
    let share = if tot > 0.0 { cov / tot } else { 0.0 };
    report.set("bench.trace_coverage", share);
    if share < MIN_COVERAGE {
        report.failed += 1;
        report.note(format!(
            "failed: layer spans cover {share:.3} of the traced time, below {MIN_COVERAGE}"
        ));
    }
}

/// Run one workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    report.note(format!("build: {}", ident::build_identity()));
    report.note(format!(
        "workload={} seed={} seconds={} trace={} size={:?}",
        args.workload, args.seed, args.seconds, args.trace as u8, args.size
    ));
    let tracer = match args.workload.as_str() {
        "sap" => library::sap(args, &mut report)?,
        "serve_mixed" => serve::serve_mixed(args, &mut report)?,
        other => return Err(format!("unknown workload {other}")),
    };
    if args.trace {
        let op_self = tracer.self_time_by_name();
        let total: u64 = op_self.values().sum();
        for (name, ns) in &op_self {
            report.note(format!(
                "self time {name}: {:.3} ms total, {:.1}% of traced time",
                *ns as f64 / 1e6,
                100.0 * *ns as f64 / total.max(1) as f64
            ));
        }
        check_coverage(&mut report, &tracer);
        if let Some(dir) = &args.trace_dir {
            // One file per workload, replaced by each traced run, so repeated
            // runs do not pile up span dumps.
            let path = dir.join(format!("{}.jsonl", args.workload));
            std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, tracer.to_jsonl()))
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            report.note(format!(
                "spans: {} written to {}",
                tracer.spans().len(),
                path.display()
            ));
        }
        let off = report.off_path();
        if !off.is_empty() {
            report.note(format!("off this workload's path (printed as 0): {off:?}"));
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_prints_every_metric_of_its_kind() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.set_end_to_end(&[1.0, 2.0, 3.0], 1.5, &[0.5]);
        let line = r.result_line(false);
        for (n, u) in END_TO_END {
            assert!(line.contains(&format!("\"{n}\": {{\"value\": ")), "{n}");
            assert!(line.contains(&format!("\"unit\": \"{u}\"")));
        }
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(r.result_line(true).contains("\"obskit.trace_overhead\""));
    }

    #[test]
    fn args_reject_unknown_workloads_and_flags() {
        let v = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        assert!(Args::parse(&v("--workload nope --seed 1")).is_err());
        assert!(Args::parse(&v("--workload sap --bogus 1")).is_err());
        let a = Args::parse(&v("--workload sap --seed 7 --seconds 2 --trace 1")).expect("valid");
        assert!(a.trace && a.seed == 7 && a.seconds == 2.0);
        assert!(!a.traced_at(Duration::from_millis(100)));
        assert!(a.traced_at(Duration::from_millis(300)));
    }
}
