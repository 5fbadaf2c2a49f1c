//! Integration tests for the benchgate perf-trajectory layer.
//!
//! These tests run real suite scenarios and therefore mutate the
//! process-global obskit registry; a shared mutex serializes them (the same
//! pattern obskit's own tests use).

use bench::gate::{compare, record_baseline, run_suite, Baseline, GateConfig};
use bench::time_median;
use obskit::NCTR;
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Tiny-but-real gate config for tests: small scenarios, generous noise
/// tolerance (the assertions of record are about *counters*, which are
/// exact, not wall time).
fn test_cfg() -> GateConfig {
    GateConfig {
        scale: 16,
        reps: 2,
        rel_tol: 100.0, // time comparisons must never flake in CI
        mad_k: 4.0,
        inject_slowdown_ns: 0,
    }
}

#[test]
fn baseline_written_json_parses_back_identically() {
    let _g = lock();
    let base = record_baseline(&test_cfg()).expect("record");
    assert_eq!(base.scenarios.len(), 11, "full suite recorded");
    assert!(base.manifest.threads >= 1);
    assert_eq!(base.manifest.obskit_version, obskit::VERSION);
    assert!(
        base.manifest.counters.iter().any(|&c| c > 0),
        "manifest counters populated"
    );
    assert_eq!(base.manifest.traffic_ratios.len(), 2, "alg3 + alg4 ratios");
    // The kernel scenarios must have produced latency histograms.
    let alg3 = base
        .scenarios
        .iter()
        .find(|s| s.name == "alg3_tall")
        .unwrap();
    assert!(
        alg3.hists
            .iter()
            .any(|h| h.path == "sketch/alg3/block" && h.count > 0),
        "alg3_tall records per-block histograms, got {:?}",
        alg3.hists
    );
    // Spans are histograms, so the SAP scenario splits into its stages.
    let sap = base.scenarios.iter().find(|s| s.name == "sap_e2e").unwrap();
    for stage in ["lstsq/sap/sketch", "lstsq/sap/factor", "lstsq/sap/solve"] {
        assert!(
            sap.hists.iter().any(|h| h.path == stage && h.count == 1),
            "sap_e2e records {stage} once, got {:?}",
            sap.hists
        );
    }
    let text = base.to_json();
    let back = Baseline::from_json(&text).expect("parse back what we wrote");
    assert_eq!(base, back, "every field round-trips through JSON");
}

#[test]
fn self_comparison_reports_zero_regressions() {
    let _g = lock();
    let cfg = test_cfg();
    let base = record_baseline(&cfg).expect("record");
    let current = run_suite(&cfg).expect("rerun");
    let (deltas, fail) = compare(&base, &current, &cfg);
    assert!(!fail, "self-comparison must pass: {deltas:?}");
    assert_eq!(deltas.len(), base.scenarios.len());
    // The deterministic cross-check behind that verdict: every scenario's
    // counters are bitwise identical between the two runs.
    for (b, c) in base.scenarios.iter().zip(current.iter()) {
        assert_eq!(b.name, c.name);
        assert_eq!(b.counters, c.counters, "counters drift in {}", b.name);
    }
}

#[test]
fn back_to_back_runs_report_identical_counter_totals() {
    let _g = lock();
    // Satellite (a): obskit::reset() between repetitions means totals
    // describe one execution — so two identical runs agree exactly, and a
    // run with more reps agrees with a run with fewer.
    let mut cfg = test_cfg();
    let first = run_suite(&cfg).expect("first run");
    cfg.reps = 4;
    let second = run_suite(&cfg).expect("second run");
    let total = |runs: &[bench::gate::ScenarioResult]| {
        let mut t = [0u64; NCTR];
        for sc in runs {
            for (slot, v) in sc.counters.iter().enumerate() {
                t[slot] += v;
            }
        }
        t
    };
    assert_eq!(
        total(&first),
        total(&second),
        "counter totals must not scale with --reps"
    );
}

#[test]
fn injected_slowdown_trips_the_gate() {
    let _g = lock();
    let mut cfg = test_cfg();
    let base = record_baseline(&cfg).expect("record");
    // A real-tolerance compare against a run that busy-waits 20ms per
    // repetition: every scenario at scale 1/16 runs in well under 20ms, so
    // the median inflates past any plausible threshold.
    cfg.rel_tol = 0.30;
    cfg.inject_slowdown_ns = 20_000_000;
    let slowed = run_suite(&cfg).expect("slowed run");
    cfg.inject_slowdown_ns = 0;
    let (deltas, fail) = compare(&base, &slowed, &cfg);
    assert!(
        fail,
        "20ms injected slowdown must fail the gate: {deltas:?}"
    );
    assert!(
        deltas
            .iter()
            .any(|d| d.verdict == bench::gate::Verdict::Regression),
        "failure must be a timing regression, not drift: {deltas:?}"
    );
}

#[test]
fn time_median_counters_do_not_scale_with_reps() {
    let _g = lock();
    let was = obskit::enabled();
    obskit::set_enabled(true);
    let work = || {
        let a = datagen::uniform_random::<f64>(200, 50, 1e-2, 7);
        let cfg = sketchcore::SketchConfig::new(100, 50, 25, 7);
        let s = rngkit::UnitUniform::<f64>::sampler(rngkit::FastRng::new(7));
        std::hint::black_box(sketchcore::sketch_alg3(&a, &cfg, &s));
    };
    obskit::reset();
    time_median(1, work);
    let once = obskit::snapshot().counters;
    obskit::reset();
    time_median(3, work);
    let thrice = obskit::snapshot().counters;
    obskit::set_enabled(was);
    obskit::reset();
    assert!(once.iter().any(|&c| c > 0), "work must be counted at all");
    assert_eq!(
        once, thrice,
        "time_median must record telemetry for exactly one repetition"
    );
}
