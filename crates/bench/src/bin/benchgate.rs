//! `benchgate` — record performance baselines and gate against them.
//!
//! ```text
//! benchgate record [--out PATH] [--reps R] [--scale N] [--quick]
//!                  [--obs-json PATH] [--trace-out PATH] [--trace-folded PATH]
//! benchgate --against PATH [--reps R] [--rel-tol X] [--mad-k K] [--quick]
//!                  [--obs-json PATH]
//! benchgate list [--scale N] [--quick]
//! ```
//!
//! `record` runs the fixed suite (kernels + solvers, see `bench::gate`) and
//! writes a `BENCH_<unix-timestamp>.json` baseline under `results/` with a
//! full run manifest. `--against` re-runs the suite at the baseline's scale
//! and compares per-scenario medians with the noise-aware threshold
//! `max(rel_tol·median, k·MAD)`, cross-checking that the deterministic work
//! counters are bitwise identical (perf drift vs work drift); a
//! `build differs:` line names the build and host fields (rustc, target
//! and runtime CPU features, CPU, core count) in which the baseline's
//! manifest differs from the running binary. `list` prints
//! the scenario suite (name, kernel, shape) without running anything.
//!
//! `--obs-json PATH` (or `SKETCH_OBS_JSON`) exports the suite's telemetry —
//! one repetition of every scenario, the manifest-counters convention — as
//! JSONL with the same truncate-on-write sink semantics as `repro` and
//! `sketchprof`. `--trace-out` / `--trace-folded` (record mode) arm the
//! flight recorder for the whole suite run and drain it like `repro` does:
//! Perfetto JSON, collapsed stacks + SVG flamegraph, and the slowest-blocks
//! anomaly table.
//!
//! Exit codes: 0 pass, 1 regression / work drift, 2 usage or I/O error.
//!
//! Test hook: `BENCHGATE_SLOWDOWN_NS=<ns>` busy-waits that long inside every
//! timed repetition, letting the verify script prove the gate trips.

use bench::gate::{
    compare, print_deltas, print_suite, record_baseline_with_snapshot, run_suite_with_snapshot,
    Baseline, GateConfig, Manifest,
};
use bench::tracecli::TraceOpts;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  benchgate record [--out PATH] [--reps R] [--scale N] [--quick] \
         [--obs-json PATH] [--trace-out PATH] [--trace-folded PATH]\n  \
         benchgate --against PATH [--reps R] [--rel-tol X] [--mad-k K] [--quick] [--obs-json PATH]\n  \
         benchgate list [--scale N] [--quick]"
    );
    ExitCode::from(2)
}

struct Cli {
    record: bool,
    list: bool,
    against: Option<String>,
    out: Option<String>,
    reps: Option<usize>,
    scale: Option<usize>,
    rel_tol: Option<f64>,
    mad_k: Option<f64>,
    quick: bool,
    obs_json: Option<String>,
    trace: TraceOpts,
}

fn parse_cli(args: &[String]) -> Option<Cli> {
    let mut cli = Cli {
        record: false,
        list: false,
        against: None,
        out: None,
        reps: None,
        scale: None,
        rel_tol: None,
        mad_k: None,
        quick: false,
        obs_json: None,
        trace: TraceOpts::default(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "record" => cli.record = true,
            "list" => cli.list = true,
            "--against" => cli.against = Some(it.next()?.clone()),
            "--out" => cli.out = Some(it.next()?.clone()),
            "--reps" => cli.reps = Some(it.next()?.parse().ok()?),
            "--scale" => cli.scale = Some(it.next()?.parse().ok()?),
            "--rel-tol" => cli.rel_tol = Some(it.next()?.parse().ok()?),
            "--mad-k" => cli.mad_k = Some(it.next()?.parse().ok()?),
            "--quick" => cli.quick = true,
            "--obs-json" => cli.obs_json = Some(it.next()?.clone()),
            "--trace-out" => cli.trace.out = Some(it.next()?.clone()),
            "--trace-folded" => cli.trace.folded = Some(it.next()?.clone()),
            _ => return None,
        }
    }
    let modes = cli.record as usize + cli.list as usize + usize::from(cli.against.is_some());
    if modes != 1 {
        return None; // exactly one mode
    }
    if cli.trace.active() && !cli.record {
        return None; // tracing captures a suite run; only `record` has one
    }
    Some(cli)
}

// Write the suite's merged telemetry snapshot to the resolved JSONL sink
// (CLI beats SKETCH_OBS_JSON; truncate-on-write — identical semantics to
// `repro` / `sketchprof`, which share `obskit::resolve_json_sink`).
fn write_obs_json(cli_path: Option<String>, snap: &obskit::Snapshot) -> std::io::Result<()> {
    if let Some(path) = obskit::resolve_json_sink(cli_path) {
        snap.write_jsonl(&path)?;
        println!("telemetry JSONL written to {path}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cli) = parse_cli(&args) else {
        return usage();
    };

    let mut cfg = GateConfig::default();
    if cli.quick {
        cfg.scale = 4;
        cfg.reps = 3;
    }
    if let Some(s) = cli.scale {
        cfg.scale = s.max(1);
    }
    if let Some(r) = cli.reps {
        cfg.reps = r.max(1);
    }
    if let Some(t) = cli.rel_tol {
        cfg.rel_tol = t;
    }
    if let Some(k) = cli.mad_k {
        cfg.mad_k = k;
    }
    if let Ok(ns) = std::env::var("BENCHGATE_SLOWDOWN_NS") {
        match ns.parse() {
            Ok(ns) => cfg.inject_slowdown_ns = ns,
            Err(_) => {
                eprintln!("benchgate: bad BENCHGATE_SLOWDOWN_NS {ns:?}");
                return ExitCode::from(2);
            }
        }
    }

    if cli.list {
        print_suite(cfg.scale);
        return ExitCode::SUCCESS;
    }

    if let Some(path) = cli.against {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("benchgate: cannot read baseline {path}: {e}");
                return ExitCode::from(2);
            }
        };
        let base = match Baseline::from_json(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("benchgate: {path} is not a usable baseline: {e}");
                return ExitCode::from(2);
            }
        };
        // The suite must re-run at the baseline's scale and reps, or the
        // deterministic counters (and the noise statistics) are not
        // comparable. CLI --scale is rejected in this mode; --reps only
        // changes noise, so it is allowed but defaults to the baseline's.
        if let Some(s) = cli.scale {
            if s != base.manifest.scale {
                eprintln!(
                    "benchgate: --scale {s} conflicts with baseline scale {} (counters would drift)",
                    base.manifest.scale
                );
                return ExitCode::from(2);
            }
        }
        cfg.scale = base.manifest.scale;
        if cli.reps.is_none() {
            cfg.reps = base.manifest.reps;
        }
        println!(
            "benchgate: comparing against {path} (git {}, recorded scale 1/{}, {} reps, rel_tol {:.0}%, mad_k {})",
            base.manifest.git_sha, cfg.scale, cfg.reps, cfg.rel_tol * 100.0, cfg.mad_k
        );
        let differs = base.manifest.build_differences(&Manifest::current(&cfg));
        if !differs.is_empty() {
            // Informational: work counters still gate, timings may not compare.
            println!("build differs: {}", differs.join(", "));
        }
        let (current, snap) = match run_suite_with_snapshot(&cfg) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("benchgate: {e}");
                return ExitCode::from(2);
            }
        };
        let (deltas, fail) = compare(&base, &current, &cfg);
        print_deltas(&deltas);
        if let Err(e) = write_obs_json(cli.obs_json, &snap) {
            eprintln!("benchgate: cannot write telemetry JSONL: {e}");
            return ExitCode::from(2);
        }
        if fail {
            eprintln!("benchgate: FAIL — regression, work drift, or missing scenario (see table)");
            ExitCode::from(1)
        } else {
            println!("benchgate: pass — no regressions beyond noise, counters bitwise identical");
            ExitCode::SUCCESS
        }
    } else {
        cli.trace.arm();
        let (base, snap) = match record_baseline_with_snapshot(&cfg) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("benchgate: {e}");
                return ExitCode::from(2);
            }
        };
        let path = cli.out.unwrap_or_else(|| {
            let _ = std::fs::create_dir_all("results");
            format!("results/BENCH_{}.json", base.manifest.created_unix)
        });
        if let Err(e) = std::fs::write(&path, base.to_json()) {
            eprintln!("benchgate: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        for sc in &base.scenarios {
            println!(
                "  {:12} median {:>12} ns  mad {:>10} ns  ({} reps)",
                sc.name,
                sc.median_ns,
                sc.mad_ns,
                sc.reps_ns.len()
            );
        }
        println!(
            "benchgate: baseline written to {path} (git {}, scale 1/{}, {} scenarios)",
            base.manifest.git_sha,
            base.manifest.scale,
            base.scenarios.len()
        );
        if let Err(e) = write_obs_json(cli.obs_json, &snap) {
            eprintln!("benchgate: cannot write telemetry JSONL: {e}");
            return ExitCode::from(2);
        }
        if let Err(e) = cli.trace.finish() {
            eprintln!("benchgate: cannot write trace outputs: {e}");
            return ExitCode::from(2);
        }
        ExitCode::SUCCESS
    }
}
