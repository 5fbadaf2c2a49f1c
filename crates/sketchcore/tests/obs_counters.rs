//! Equivalence and invariant checks for the telemetry layer.
//!
//! This lives in its own integration-test binary because the obskit registry
//! is process-global: the crate's unit-test binary runs the parallel drivers
//! concurrently, which would race any exact counter-equality assertion. Here
//! the registry belongs to this binary alone, and the tests below serialize
//! on a lock so they can reset it safely.

use rngkit::{FastRng, Rademacher, UnitUniform};
use sketchcore::{
    config::alg3_samples, instrument, obs, sketch_alg3, sketch_alg3_instrumented, sketch_alg4,
    SketchConfig,
};
use sparsekit::{BlockedCsr, CooMatrix, CscMatrix};
use std::sync::Mutex;

fn lock() -> std::sync::MutexGuard<'static, ()> {
    static L: Mutex<()> = Mutex::new(());
    L.lock().unwrap_or_else(|e| e.into_inner())
}

fn random_csc(m: usize, n: usize, nnz: usize, seed: u64) -> CscMatrix<f64> {
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 11
    };
    let mut coo = CooMatrix::new(m, n);
    for _ in 0..nnz {
        coo.push(
            (next() % m as u64) as usize,
            (next() % n as u64) as usize,
            (next() % 1000) as f64 / 500.0 - 0.9995,
        )
        .unwrap();
    }
    coo.to_csc().unwrap()
}

/// The instrumented Algorithm 3 is bitwise identical to the plain kernel —
/// same fused multiply-adds in the same order — and its timing satisfies the
/// basic invariants: sample time within total time, samples and seeks equal
/// to the closed-form counts.
#[test]
fn instrumented_alg3_bitwise_identical_with_closed_form_counts() {
    let _g = lock();
    let a = random_csc(80, 50, 600, 11);
    let cfg = SketchConfig::new(48, 13, 9, 21);
    let sampler = UnitUniform::<f64>::sampler(FastRng::new(cfg.seed));
    let plain = sketch_alg3(&a, &cfg, &sampler);
    let (inst, t) = sketch_alg3_instrumented(&a, &cfg, &sampler);
    // Bitwise, not approximate: every f64 must match exactly.
    let same = plain
        .as_slice()
        .iter()
        .zip(inst.as_slice())
        .all(|(p, q)| p.to_bits() == q.to_bits());
    assert!(same, "instrumented Alg 3 diverged from the plain kernel");
    assert!(
        t.sample_s <= t.total_s + 1e-9,
        "sample {} > total {}",
        t.sample_s,
        t.total_s
    );
    assert_eq!(t.samples, alg3_samples(cfg.d, a.nnz()));
    assert_eq!(t.seeks, a.nnz() as u64 * cfg.d_blocks() as u64);
}

/// The plain kernels' block-granularity counters land in the global registry
/// with the same closed-form totals the instrumented drivers report.
#[test]
fn global_counters_match_closed_form() {
    let _g = lock();
    let a = random_csc(70, 40, 500, 7);
    let cfg = SketchConfig::new(32, 10, 8, 9);
    let sampler = UnitUniform::<f64>::sampler(FastRng::new(cfg.seed));

    obskit::set_enabled(true);
    obskit::reset();
    let _x3 = sketch_alg3(&a, &cfg, &sampler);
    let s3 = obskit::snapshot();
    assert_eq!(
        s3.counters[obskit::Ctr::Samples as usize],
        alg3_samples(cfg.d, a.nnz())
    );
    assert_eq!(
        s3.counters[obskit::Ctr::Seeks as usize],
        a.nnz() as u64 * cfg.d_blocks() as u64
    );
    assert_eq!(
        s3.counters[obskit::Ctr::Flops as usize],
        2 * cfg.d as u64 * a.nnz() as u64
    );
    // bytes_a: each column block is streamed once per d-block row.
    assert_eq!(
        s3.counters[obskit::Ctr::BytesA as usize],
        a.nnz() as u64 * 16 * cfg.d_blocks() as u64
    );

    obskit::reset();
    let blocked = BlockedCsr::from_csc(&a, cfg.b_n);
    let _x4 = sketch_alg4(&blocked, &cfg, &sampler);
    let s4 = obskit::snapshot();
    assert_eq!(
        s4.counters[obskit::Ctr::Samples as usize],
        sketchcore::alg4::alg4_samples_actual(&blocked, cfg.d)
    );
    assert_eq!(
        s4.counters[obskit::Ctr::Flops as usize],
        2 * cfg.d as u64 * a.nnz() as u64
    );

    // ±1 entries take one random bit each, but the kernels still stream
    // A's f64 values and read/write Â's f64 tile, so on the same operand
    // and blocking every counter equals the uniform kernel's.
    let signs = Rademacher::<f64>::sampler(FastRng::new(cfg.seed));
    obskit::reset();
    let _x3s = sketch_alg3(&a, &cfg, &signs);
    assert_eq!(obskit::snapshot().counters, s3.counters);
    obskit::reset();
    let _x4s = sketch_alg4(&blocked, &cfg, &signs);
    assert_eq!(obskit::snapshot().counters, s4.counters);
    obskit::reset();
}

/// With the gate on, an instrumented run records its total and sample time
/// as one sample each of its two span histograms and its samples and seeks
/// as counters, all equal to the timing handed back to the caller; it
/// records no block counters.
#[test]
fn instrumented_run_records_its_timing() {
    let _g = lock();
    let a = random_csc(50, 30, 300, 5);
    let cfg = SketchConfig::new(24, 7, 6, 3);
    let sampler = UnitUniform::<f64>::sampler(FastRng::new(cfg.seed));

    obskit::set_enabled(true);
    obskit::reset();
    let (_x, t) = sketch_alg3_instrumented(&a, &cfg, &sampler);
    let s = obskit::snapshot();
    let hist = |path: &str| {
        let (_, h) = s.hists.iter().find(|(p, _)| p == path).expect(path);
        (h.count(), h.sum())
    };
    let ns = |secs: f64| (secs * 1e9).round() as u64;
    assert_eq!(
        hist(instrument::SPAN_ALG3),
        (1, ns(t.total_s)),
        "total span"
    );
    assert_eq!(
        hist(instrument::SPAN_ALG3_SAMPLE),
        (1, ns(t.sample_s)),
        "sample span"
    );
    assert_eq!(s.counters[obskit::Ctr::Samples as usize], t.samples);
    assert_eq!(s.counters[obskit::Ctr::Seeks as usize], t.seeks);
    for c in [
        obskit::Ctr::Flops,
        obskit::Ctr::BytesA,
        obskit::Ctr::BytesOut,
    ] {
        assert_eq!(s.counters[c as usize], 0, "{c:?}");
    }
    obskit::reset();
}

/// With the gate off the plain kernels record nothing, and the instrumented
/// driver still hands a full timing back to its caller (publish is the only
/// part that is gated).
#[test]
fn gate_off_records_nothing_but_timing_survives() {
    let _g = lock();
    let a = random_csc(30, 20, 120, 3);
    let cfg = SketchConfig::new(16, 8, 8, 4);
    let sampler = UnitUniform::<f64>::sampler(FastRng::new(cfg.seed));

    obskit::set_enabled(true);
    obskit::reset();
    obskit::set_enabled(false);
    let _x3 = sketch_alg3(&a, &cfg, &sampler);
    let (_xi, t) = sketch_alg3_instrumented(&a, &cfg, &sampler);
    obskit::set_enabled(true);
    let s = obskit::snapshot();
    assert_eq!(s.counters[obskit::Ctr::Samples as usize], 0);
    assert!(s.hists.is_empty());
    // The caller's view is unaffected by the gate.
    assert_eq!(t.samples, alg3_samples(cfg.d, a.nnz()));
    assert!(t.total_s > 0.0);
    obskit::reset();
}

/// Alg 3's counted samples exceed Alg 4's whenever columns share rows within
/// a block — the asymmetry the paper's Algorithm 4 exists to exploit — and
/// the traffic comparison built from the counters is internally consistent.
#[test]
fn traffic_report_from_real_counters() {
    let _g = lock();
    let a = random_csc(100, 60, 900, 13);
    let cfg = SketchConfig::new(40, 12, 10, 17);
    let sampler = UnitUniform::<f64>::sampler(FastRng::new(cfg.seed));

    obskit::set_enabled(true);
    obskit::reset();
    let _x3 = sketch_alg3(&a, &cfg, &sampler);
    let s = obskit::snapshot();
    let flops = s.counters[obskit::Ctr::Flops as usize];
    let measured =
        s.counters[obskit::Ctr::BytesA as usize] + s.counters[obskit::Ctr::BytesOut as usize];
    let model = sketchcore::CostModel::default_host();
    let rep = obs::TrafficReport::compare(&model, a.density(), cfg.b_n, flops, 8, measured);
    assert!(rep.modeled_bytes > 0.0);
    assert!(rep.ratio > 0.0 && rep.ratio.is_finite());
    assert_eq!(rep.measured_bytes, measured);
    obskit::reset();
}
