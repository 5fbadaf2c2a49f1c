//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [target] [--scale N] [--reps N] [--threads N] [--obs-json PATH]
//!
//! targets:
//!   table1   SpMM test-matrix properties
//!   table2   Alg 3 vs MKL/Eigen/Julia-style baselines (sequential)
//!   table3   sample vs total time, Frontera blocking
//!   table4   Alg 4 vs baselines + conversion time
//!   table5   sample vs total time, Perlmutter blocking
//!   table6   Abnormal_A/B/C exotic patterns
//!   table7   thread-scaling sweep
//!   table8   least-squares matrix properties
//!   table9   solver runtimes + errors + memory (Tables IX, X, XI, Fig 6)
//!   fig4     distribution study (% of peak vs density)
//!   fig5     spy plots
//!   roofline §III-A model report
//!   junk     §V-A RNG-free upper bound
//!   stream   §V-B machine probes
//!   smoke    fast end-to-end consistency check
//!   distortion  sketch quality: σ(S·Q) vs the 1±1/√γ theory
//!   all      everything above
//! ```
//!
//! With no target, `smoke` runs. `--obs-json PATH` (or `SKETCH_OBS_JSON`)
//! writes the run's telemetry — span and block histograms, sample/seek/
//! flop/byte/iteration counters — as JSONL when the run finishes; the human
//! summary prints either way unless telemetry is off (`SKETCH_OBS=0`).
//!
//! `--trace-out PATH` arms the flight recorder (`obskit::trace`) for the
//! whole run and writes a Chrome Trace Event / Perfetto JSON timeline at
//! exit; `--trace-folded PATH` writes collapsed flamegraph stacks plus a
//! self-contained SVG at `PATH.svg`. Either flag also prints the ranked
//! slowest-blocks anomaly table (measured vs traffic-model latency).

use bench::tracecli::TraceOpts;
use bench::{figures, solvers, tables, RunConfig};

fn usage() -> ! {
    eprintln!(
        "usage: repro [table1..table9|fig4|fig5|fig6|roofline|junk|stream|smoke|distortion|all] \
         [--scale N] [--reps N] [--threads N] [--obs-json PATH] [--trace-out PATH] [--trace-folded PATH]"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // A flags-only invocation runs the smoke target: the fastest run that
    // still exercises both kernels, so `repro --obs-json out.jsonl` yields a
    // complete telemetry file in seconds.
    let (target, mut i) = match args.first() {
        Some(a) if !a.starts_with("--") => (a.clone(), 1),
        _ => ("smoke".to_string(), 0),
    };
    let mut rc = RunConfig::default();
    let mut obs_json_cli: Option<String> = None;
    let mut trace = TraceOpts::default();
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                rc.scale = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--reps" => {
                rc.reps = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--threads" => {
                rc.max_threads = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--obs-json" => {
                obs_json_cli = Some(args.get(i + 1).cloned().unwrap_or_else(|| usage()));
                i += 2;
            }
            "--trace-out" => {
                trace.out = Some(args.get(i + 1).cloned().unwrap_or_else(|| usage()));
                i += 2;
            }
            "--trace-folded" => {
                trace.folded = Some(args.get(i + 1).cloned().unwrap_or_else(|| usage()));
                i += 2;
            }
            _ => usage(),
        }
    }
    trace.arm();

    println!(
        "# repro {target} — scale 1/{}, reps {}, up to {} threads",
        rc.scale, rc.reps, rc.max_threads
    );

    match target.as_str() {
        "table1" => tables::table1(&rc),
        "table2" => tables::table2(&rc),
        "table3" => tables::table_sample_split(&rc, false),
        "table4" => tables::table4(&rc),
        "table5" => tables::table_sample_split(&rc, true),
        "table6" => tables::table6(&rc),
        "table7" => tables::table7(&rc),
        "table8" => solvers::table8(&rc),
        "table9" | "table10" | "table11" | "fig6" => solvers::tables9_to_11(&rc),
        "fig4" => figures::fig4(&rc),
        "fig5" => figures::fig5(&rc),
        "roofline" => figures::roofline(),
        "junk" => tables::junk_ablation(&rc),
        "stream" => figures::stream(),
        "distortion" => solvers::distortion(&rc),
        "smoke" => {
            let secs = tables::smoke();
            println!("smoke check passed in {secs:.3}s: Alg3 ≡ Alg4 ≡ materialized baseline");
        }
        "all" => {
            tables::table1(&rc);
            tables::table2(&rc);
            tables::table_sample_split(&rc, false);
            tables::table4(&rc);
            tables::table_sample_split(&rc, true);
            tables::table6(&rc);
            tables::table7(&rc);
            solvers::table8(&rc);
            solvers::tables9_to_11(&rc);
            figures::fig4(&rc);
            figures::fig5(&rc);
            figures::roofline();
            tables::junk_ablation(&rc);
            figures::stream();
            solvers::distortion(&rc);
        }
        _ => usage(),
    }

    if let Err(e) = trace.finish() {
        eprintln!("failed to write trace outputs: {e}");
        std::process::exit(1);
    }
    let sink = obskit::resolve_json_sink(obs_json_cli);
    if let Err(e) = obskit::emit_run_telemetry(sink.as_deref()) {
        eprintln!(
            "failed to write telemetry to {}: {e}",
            sink.as_deref().unwrap_or("?")
        );
        std::process::exit(1);
    }
}
