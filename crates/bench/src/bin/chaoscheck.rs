//! chaoscheck — sweep the fault × scenario matrix and assert the hardening
//! contract: every cell ends in a typed error or a recovery, never a panic,
//! abort, or hang.
//!
//! ```text
//! chaoscheck [--quick] [--service-only] [--report PATH] [--obs-json PATH]
//! ```
//!
//! * `--quick` — the small smoke sweep used by `scripts/verify.sh`.
//! * `--service-only` — skip the kernel matrix and sweep only the
//!   `sketchd` service failpoints (accept/decode/dispatch/reply) against a
//!   live in-process server.
//! * `--report PATH` — write one JSONL record per cell (default
//!   `chaos_report.jsonl` under the current directory).
//! * `--obs-json PATH` — export the obskit run telemetry (counters include
//!   `sap.retries` and `sap.fallback_svd`).
//!
//! Exit code 0 iff no cell panicked or hung.

use bench::chaos::{self, ChaosConfig, Outcome};
use std::io::Write;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!("usage: chaoscheck [--quick] [--service-only] [--report PATH] [--obs-json PATH]");
    std::process::exit(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut service_only = false;
    let mut report_path = String::from("chaos_report.jsonl");
    let mut obs_json: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--service-only" => service_only = true,
            "--report" => {
                report_path = args.get(i + 1).cloned().unwrap_or_else(|| usage());
                i += 1;
            }
            "--obs-json" => {
                obs_json = Some(args.get(i + 1).cloned().unwrap_or_else(|| usage()));
                i += 1;
            }
            _ => usage(),
        }
        i += 1;
    }

    // Telemetry on: the recovery counters are part of the contract.
    obskit::set_enabled(true);
    obskit::reset();

    let cfg = if quick {
        ChaosConfig::quick()
    } else {
        ChaosConfig::full()
    };
    println!(
        "chaoscheck: {} sweep, input {}x{} ({} nnz/col), timeout {:?}/cell",
        if quick { "quick" } else { "full" },
        cfg.m,
        cfg.n,
        cfg.nnz_per_col,
        cfg.timeout
    );

    let mut cells = if service_only {
        Vec::new()
    } else {
        chaos::run_matrix(&cfg, quick)
    };
    println!("chaoscheck: service failpoint sweep (in-process sketchd)");
    cells.extend(chaos::run_service_matrix(&cfg));

    let mut bad = 0usize;
    let mut counts = [0usize; 5];
    for c in &cells {
        let slot = match c.outcome {
            Outcome::CleanOk => 0,
            Outcome::Recovered => 1,
            Outcome::TypedError => 2,
            Outcome::Panicked => 3,
            Outcome::Hung => 4,
        };
        counts[slot] += 1;
        let marker = match c.outcome {
            Outcome::Panicked | Outcome::Hung => {
                bad += 1;
                "!!"
            }
            Outcome::Recovered => "~ ",
            Outcome::TypedError => "e ",
            Outcome::CleanOk => "  ",
        };
        println!(
            "{marker} {:<10} x {:<28} -> {:<11} {:>6} ms  {}",
            c.scenario,
            c.fault,
            c.outcome.label(),
            c.elapsed_ms,
            c.detail
        );
    }
    println!(
        "chaoscheck: {} cells — clean_ok {} / recovered {} / typed_error {} / panicked {} / hung {}",
        cells.len(),
        counts[0],
        counts[1],
        counts[2],
        counts[3],
        counts[4]
    );

    match std::fs::File::create(&report_path).and_then(|mut f| {
        for c in &cells {
            writeln!(f, "{}", c.to_json_line())?;
        }
        Ok(())
    }) {
        Ok(()) => println!("chaoscheck: report written to {report_path}"),
        Err(e) => {
            eprintln!("chaoscheck: cannot write {report_path}: {e}");
            return ExitCode::from(2);
        }
    }

    let sink = obskit::resolve_json_sink(obs_json);
    match obskit::emit_run_telemetry(sink.as_deref()) {
        Ok(true) => {
            if let Some(p) = &sink {
                println!("chaoscheck: telemetry written to {p}");
            }
        }
        Ok(false) => {}
        Err(e) => eprintln!("chaoscheck: telemetry export failed: {e}"),
    }

    if bad > 0 {
        eprintln!("chaoscheck: FAIL — {bad} cell(s) panicked or hung");
        ExitCode::FAILURE
    } else {
        println!("chaoscheck: PASS — no panics, no hangs");
        ExitCode::SUCCESS
    }
}
