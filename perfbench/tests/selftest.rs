//! Self-test of the benchmark: every workload runs at a tiny size and
//! prints every metric `BENCHMARK.json` names, with its unit; corrupted
//! outputs (a flipped sketch value, a perturbed solution) and traced runs
//! that fail their own checks are counted as failed.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use bench::json::{parse, Jval};
use perfbench::check;
use perfbench::serve::SketchReply;
use perfbench::trace::Tracer;
use perfbench::Report;
use sketchcore::SketchConfig;
use sketchd::proto::SketchReq;
use std::process::Command;
use std::time::{Duration, Instant};

fn declared(kind: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    let j = parse(&text).expect("BENCHMARK.json parses");
    j.get(kind)
        .and_then(Jval::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Jval::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn run_tiny(workload: &str, trace: u8) -> Jval {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.5"])
        .args(["--trace", &trace.to_string(), "--size", "tiny"])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} exited {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    parse(last).unwrap_or_else(|e| panic!("result line is not JSON ({e}): {last}"))
}

#[test]
fn every_workload_prints_every_declared_metric_with_its_unit() {
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    for w in perfbench::WORKLOADS {
        for (trace, want) in [(0u8, &e2e), (1u8, &layers)] {
            let res = run_tiny(w, trace);
            assert_eq!(
                res.get("correct"),
                Some(&Jval::Bool(true)),
                "{w} trace={trace}"
            );
            assert!(res.get("attempted").and_then(Jval::as_u64).unwrap_or(0) >= 1);
            assert_eq!(res.get("failed").and_then(Jval::as_u64), Some(0));
            let metrics = res.get("metrics").expect("metrics object");
            let Jval::Obj(fields) = metrics else {
                panic!("metrics is not an object")
            };
            assert_eq!(fields.len(), want.len(), "{w} trace={trace}: metric count");
            for (name, unit) in want.iter() {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{w} trace={trace}: missing {name}"));
                assert!(m.get("value").and_then(Jval::as_f64).is_some(), "{name}");
                assert_eq!(m.get("unit").and_then(Jval::as_str), Some(unit.as_str()));
            }
            if w == "serve_mixed" && trace == 1 {
                // The server admitted every request the phase sent.
                let accepted = metrics
                    .get("sketchd.server.accepted")
                    .and_then(|m| m.get("value"))
                    .and_then(Jval::as_f64);
                let attempted = res.get("attempted").and_then(Jval::as_f64);
                assert_eq!(accepted, attempted, "sketchd.server.accepted");
            }
        }
    }
}

#[test]
fn a_perturbed_solution_is_counted_as_failed() {
    let a = datagen::tall_conditioned(1200, 40, 0.05, datagen::lsq::paper_spec("spal_004"), 4);
    let b = datagen::make_rhs(&a, 5).0;
    let opts = lstsq::SapOptions {
        seed: 6,
        ..lstsq::SapOptions::default()
    };
    let mut x = lstsq::try_solve_sap(&a, &b, &opts).expect("solve").x;
    check::check_sap(&a, &x, &b).expect("converged solution passes");
    x[7] *= 1.0 + 1e-6;
    assert!(check::check_sap(&a, &x, &b).is_err());
}

#[test]
fn a_flipped_sketch_value_is_counted_as_failed() {
    let a = datagen::uniform_random::<f64>(500, 12, 0.02, 3);
    let shape = SketchReq {
        name: "hot".into(),
        d: 16,
        b_d: 16,
        b_n: 12,
        seed: 0,
        flags: sketchd::proto::sketch_flags::CHECKSUM_ONLY,
    };
    let cfg = SketchConfig::new(16, 16, 12, 77);
    let mut ahat = sketchcore::try_sketch_alg3(&a, &cfg, &check::sampler(77)).expect("sketch");
    let good = check::xor_bits(&ahat);
    ahat[(3, 5)] = -ahat[(3, 5)];
    let reply = |xor| SketchReply { seed: 77, xor };
    let replies = [reply(good), reply(check::xor_bits(&ahat))];
    assert_eq!(
        perfbench::serve::check_replies(&a, &shape, &replies, 1).len(),
        1
    );
}

/// A small SAP problem, one first-attempt solve of it, and the failures
/// the traced-run replay counts against that solve's `x` and phase times.
fn replay_failures(perturb_x: bool, phase_ms: Option<f64>) -> u64 {
    let a = datagen::tall_conditioned(1200, 40, 0.05, datagen::lsq::paper_spec("spal_004"), 4);
    let b = datagen::make_rhs(&a, 5).0;
    let opts = lstsq::SapOptions {
        gamma: 2,
        seed: 6,
        ..lstsq::SapOptions::default()
    };
    let mut x = lstsq::try_solve_sap(&a, &b, &opts).expect("solve").x;
    if perturb_x {
        x[7] *= 1.0 + 1e-12;
    }
    let phases = phase_ms.map(|t| [vec![t], vec![t], vec![t]]);
    let mut r = Report::default();
    let mut tr = Tracer::new(true, Instant::now());
    perfbench::library::sap_replay(&mut r, &mut tr, &a, &b, 6, &x, phases.as_ref())
        .expect("replay runs");
    r.failed
}

#[test]
fn a_replay_that_does_not_reproduce_the_solution_is_counted_as_failed() {
    assert_eq!(replay_failures(false, None), 0);
    assert_eq!(replay_failures(true, None), 1);
}

#[test]
fn replayed_phases_far_from_sap_report_are_counted_as_failed() {
    // Each replayed phase takes far less than an hour.
    assert_eq!(replay_failures(false, Some(3.6e6)), 3);
}

#[test]
fn layer_spans_covering_too_little_are_counted_as_failed() {
    let t0 = Instant::now();
    let at = |ms: u64| t0 + Duration::from_millis(ms);
    for (child_end, failed) in [(10, 0), (5, 1)] {
        let mut tr = Tracer::new(true, t0);
        let op = tr.record("op", None, 1, at(0), at(10));
        tr.record("lstsq.try_solve_sap", op, 1, at(0), at(child_end));
        let mut r = Report::default();
        perfbench::check_coverage(&mut r, &tr);
        assert_eq!(r.failed, failed, "child span ends at {child_end} ms");
    }
}
