//! SAP's stage timers are obskit spans, and a span's record is its
//! histogram: one converging solve leaves each stage path in the snapshot
//! as a histogram holding one sample. Telemetry is bounded by the code
//! paths a run takes, not by the work it does: repeating the solve adds
//! samples to the same histograms and counters, never a JSONL line.
//!
//! The obskit registry is process-global and threads merge into it when
//! they exit, so this check has a test binary of its own.

use datagen::{badly_scaled, make_rhs};
use lstsq::{try_solve_sap, LsqrOptions, SapFlavor, SapOptions};

#[test]
fn sap_stages_are_span_histograms() {
    obskit::set_enabled(true);
    obskit::reset();
    let a = badly_scaled::<f64>(400, 32, 8, 2.0, 41);
    let (b, _) = make_rhs(&a, 5);
    let opts = SapOptions {
        gamma: 2,
        b_d: 64,
        b_n: 16,
        seed: 42,
        flavor: SapFlavor::Qr,
        lsqr: LsqrOptions {
            atol: 1e-12,
            btol: 1e-12,
            max_iters: 4000,
            stall_window: 0,
        },
    };
    let rep = try_solve_sap(&a, &b, &opts).expect("converges");
    assert_eq!(rep.retries, 0);
    let snap = obskit::snapshot();
    for path in [
        "lstsq/sap",
        "lstsq/sap/sketch",
        "lstsq/sap/factor",
        "lstsq/sap/solve",
    ] {
        let h = snap
            .hists
            .iter()
            .find(|(p, _)| p == path)
            .map(|(_, h)| h)
            .unwrap_or_else(|| panic!("{path} missing from {:?}", snap.hists));
        assert_eq!(h.count(), 1, "{path}");
        assert!(h.sum() > 0, "{path} took no time");
    }

    let lines = snap.to_jsonl().lines().count();
    for _ in 0..10 {
        try_solve_sap(&a, &b, &opts).expect("converges");
    }
    let after = obskit::snapshot();
    let stage = |s: &obskit::Snapshot| {
        s.hists
            .iter()
            .find(|(p, _)| p == "lstsq/sap/solve")
            .map_or(0, |(_, h)| h.count())
    };
    assert_eq!(stage(&after), 11, "the repeated solves were not recorded");
    assert_eq!(
        after.to_jsonl().lines().count(),
        lines,
        "ten more solves grew the JSONL snapshot"
    );
}
