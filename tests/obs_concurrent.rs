//! Concurrent-correctness test for the telemetry layer: the flight recorder
//! and the counter registry must survive parkit's scoped threads without
//! losing or double-counting anything. Parallel workers record into
//! thread-local rings/accumulators that flush at join points, so the checks
//! here are exact equalities, not tolerances:
//!
//! * deterministic work counters are bitwise identical across the serial
//!   kernel, the 1-thread parallel driver, and the 4-thread parallel driver;
//! * every traced span pair survives (Begin count == close count, no drops);
//! * the sketch itself is unchanged by threading.
//!
//! One test function on purpose: the registry and recorder are
//! process-global and the harness runs tests in one binary concurrently.

use obskit::trace::TraceKind;
use rngkit::{FastRng, UnitUniform};
use sketchcore::{sketch_alg3, try_sketch_alg3_par_cols, SketchConfig};

#[test]
fn scoped_threads_lose_no_telemetry_and_match_serial() {
    let a = datagen::uniform_random::<f64>(4_000, 512, 5e-3, 11);
    let cfg = SketchConfig::new(512, 256, 64, 11);
    let sampler = UnitUniform::<f64>::sampler(FastRng::new(cfg.seed));

    // Serial reference: counters from the sequential kernel.
    obskit::set_enabled(true);
    obskit::reset();
    let x_serial = sketch_alg3(&a, &cfg, &sampler);
    let serial = obskit::snapshot();

    // Same driver at 1 thread: the counter baseline for the threaded run.
    obskit::reset();
    let x1 = parkit::with_threads(1, || try_sketch_alg3_par_cols(&a, &cfg, &sampler))
        .expect("benign input");
    let snap1 = obskit::snapshot();

    // ≥4 threads with the flight recorder armed.
    obskit::trace::set_enabled(true);
    let _ = obskit::trace::take();
    obskit::reset();
    let x4 = parkit::with_threads(4, || try_sketch_alg3_par_cols(&a, &cfg, &sampler))
        .expect("benign input");
    let snap4 = obskit::snapshot();
    obskit::trace::set_enabled(false);
    let cap = obskit::trace::take();

    // The sketch is thread-count-invariant (checkpointed RNG regenerates the
    // same entries of S on any thread) and panel order only permutes the
    // fill_axpy accumulation within disjoint output panels.
    assert_eq!(x1, x4, "thread count changed the parallel sketch");
    assert!(
        x4.diff_norm(&x_serial) < 1e-11 * x_serial.fro_norm(),
        "parallel sketch disagrees with serial by {}",
        x4.diff_norm(&x_serial)
    );

    // Work counters are derived from block shapes only, so all three runs
    // must agree bit for bit — any discrepancy means a lost or duplicated
    // thread-local flush.
    assert_eq!(serial.counters, snap1.counters, "serial vs 1-thread driver");
    assert_eq!(
        snap1.counters, snap4.counters,
        "1-thread vs 4-thread driver"
    );
    assert!(
        snap4.counters.iter().any(|&c| c > 0),
        "counters never recorded"
    );

    // Every outer block landed exactly once in the latency histogram.
    let d_blocks = cfg.d.div_ceil(cfg.b_d);
    let n_blocks = a.ncols().div_ceil(cfg.b_n);
    let hist_count: u64 = snap4
        .hists
        .iter()
        .filter(|(p, _)| p == "sketch/alg3_par_cols/block")
        .map(|(_, h)| h.count())
        .sum();
    assert_eq!(hist_count, (d_blocks * n_blocks) as u64);

    // Flight recorder: nothing dropped, every span pair intact across all
    // worker rings, one annotated record per outer block, and the per-block
    // nnz totals exactly tile the matrix.
    assert_eq!(cap.dropped, 0, "worker ring lost events");
    let begins = cap
        .events
        .iter()
        .filter(|e| e.kind == TraceKind::Begin)
        .count();
    let closes = cap
        .events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                TraceKind::End | TraceKind::BlockEnd | TraceKind::IterEnd
            )
        })
        .count();
    assert_eq!(begins, closes, "lost span pairs under threads");
    let blocks = cap.block_records();
    assert_eq!(blocks.len(), d_blocks * n_blocks);
    let nnz_sum: u64 = blocks.iter().map(|b| b.nnz).sum();
    assert_eq!(nnz_sum, (d_blocks * a.nnz()) as u64);
    let tids: std::collections::BTreeSet<u32> = blocks.iter().map(|b| b.tid).collect();
    println!(
        "4-thread capture: {} events over {} recorder tids",
        cap.events.len(),
        tids.len()
    );

    // Fault leg: inject a one-shot worker panic at 4 threads. The hardened
    // driver must catch it as a typed error, and because parkit fires the
    // fault at claim time (before any span opens) and still flushes every
    // worker's ring on the way out, the captured trace stays pair-balanced.
    faultkit::clear();
    assert!(faultkit::set_plan_str("parkit/worker=once", 0xFA11).is_ok());
    obskit::trace::set_enabled(true);
    let _ = obskit::trace::take();
    let res = parkit::with_threads(4, || try_sketch_alg3_par_cols(&a, &cfg, &sampler));
    obskit::trace::set_enabled(false);
    let cap = obskit::trace::take();
    faultkit::clear();
    match res {
        Err(sketchcore::SketchError::WorkerPanic(msg)) => {
            assert!(msg.contains("parkit/worker"), "payload lost: {msg}");
        }
        other => panic!("injected worker panic must surface typed, got {other:?}"),
    }
    assert_eq!(cap.dropped, 0, "faulted run lost trace events");
    let begins = cap
        .events
        .iter()
        .filter(|e| e.kind == TraceKind::Begin)
        .count();
    let closes = cap
        .events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                TraceKind::End | TraceKind::BlockEnd | TraceKind::IterEnd
            )
        })
        .count();
    assert_eq!(begins, closes, "injected worker fault unbalanced the trace");
    println!("faulted 4-thread capture: {begins} balanced span pairs");
}
