//! Cross-crate integration tests: the full sketching pipeline exercised
//! through the public API, at sizes large enough to cross block boundaries.

use baselines::{csc_outer, eigen_style, materialize_s, mkl_style, pregen_blocked};
use datagen::lsq::{tall_conditioned, CondSpec};
use datagen::{abnormal_a, abnormal_c, make_rhs, spmm_suite, uniform_random};
use lstsq::{
    backward_error, solve_lsqr_d, sparse_qr_solve, try_solve_sap, LsqrOptions, SapFlavor,
    SapOptions,
};
use parkit::with_threads;
use rngkit::{FastRng, Rademacher, UnitUniform};
use sketchcore::parallel::{sketch_alg3_par_rows, sketch_alg4_par_rows};
use sketchcore::{sketch_alg3, sketch_alg4, try_sketch_alg3_par_cols, SketchConfig};
use sparsekit::BlockedCsr;

fn uni(seed: u64) -> rngkit::DistSampler<UnitUniform<f64>, FastRng> {
    UnitUniform::<f64>::sampler(FastRng::new(seed))
}

#[test]
fn every_kernel_and_baseline_computes_the_same_sketch() {
    let a = uniform_random::<f64>(3_000, 500, 4e-3, 1);
    let cfg = SketchConfig::new(700, 256, 96, 99);
    let sampler = uni(cfg.seed);

    let x3 = sketch_alg3(&a, &cfg, &sampler);
    let blocked = BlockedCsr::from_csc(&a, cfg.b_n);
    let x4 = sketch_alg4(&blocked, &cfg, &sampler);

    let s = materialize_s(&sampler, cfg.d, a.nrows(), cfg.b_d);
    let candidates = [
        ("alg4", x4),
        (
            "alg3_par_cols",
            try_sketch_alg3_par_cols(&a, &cfg, &sampler).expect("benign input"),
        ),
        ("alg3_par_rows", sketch_alg3_par_rows(&a, &cfg, &sampler)),
        (
            "alg4_par_rows",
            sketch_alg4_par_rows(&blocked, &cfg, &sampler),
        ),
        ("mkl", mkl_style(&a, &s)),
        ("eigen", eigen_style(&a, &s)),
        ("julia", csc_outer(&a, &s)),
        ("pregen_blocked", pregen_blocked(&a, &s, cfg.b_d, cfg.b_n)),
    ];
    let tol = 1e-11 * x3.fro_norm();
    for (name, got) in candidates {
        assert!(
            got.diff_norm(&x3) < tol,
            "{name} disagrees with alg3 by {}",
            got.diff_norm(&x3)
        );
    }
}

#[test]
fn thread_count_never_changes_the_answer() {
    let a = uniform_random::<f64>(2_000, 300, 5e-3, 2);
    let cfg = SketchConfig::new(420, 128, 64, 3);
    let sampler = uni(cfg.seed);
    let reference = with_threads(1, || sketch_alg3_par_rows(&a, &cfg, &sampler));
    for t in [2, 3, 8] {
        let out = with_threads(t, || sketch_alg3_par_rows(&a, &cfg, &sampler));
        assert_eq!(reference, out, "{t} threads changed the sketch");
    }
}

#[test]
fn sketch_is_a_subspace_embedding() {
    // σ(S·Q) must concentrate around 1 for orthonormal Q — the property that
    // makes the SAP preconditioner work (paper §V intro: ε → 1/√γ).
    let a = uniform_random::<f64>(2_000, 60, 0.02, 5);
    let (smin, smax) = bench::solvers::sketch_distortion(&a, 3, 11);
    assert!(
        smin > 0.35 && smax < 1.75,
        "distortion [{smin:.3}, {smax:.3}] outside γ=3 expectations"
    );
}

#[test]
fn suite_standins_run_through_both_kernels() {
    for nm in spmm_suite(128) {
        let cfg = SketchConfig::new(nm.d, 3000.min(nm.d), 500.min(nm.matrix.ncols()), 1);
        let sampler = uni(1);
        let x3 = sketch_alg3(&nm.matrix, &cfg, &sampler);
        let blocked = BlockedCsr::from_csc(&nm.matrix, cfg.b_n);
        let x4 = sketch_alg4(&blocked, &cfg, &sampler);
        assert!(
            x3.diff_norm(&x4) < 1e-11 * x3.fro_norm().max(1.0),
            "{} kernels disagree",
            nm.name
        );
        assert!(x3.as_slice().iter().all(|v| v.is_finite()), "{}", nm.name);
    }
}

#[test]
fn abnormal_patterns_preserve_correctness() {
    let a = abnormal_a::<f64>(2_000, 200, 20, 7);
    let c = abnormal_c::<f64>(2_000, 200, 20, 7);
    for (name, m) in [("A", &a), ("C", &c)] {
        let cfg = SketchConfig::new(300, 128, 48, 5);
        let sampler = uni(cfg.seed);
        let x3 = sketch_alg3(m, &cfg, &sampler);
        let x4 = sketch_alg4(&BlockedCsr::from_csc(m, cfg.b_n), &cfg, &sampler);
        assert!(
            x3.diff_norm(&x4) < 1e-11 * x3.fro_norm().max(1.0),
            "pattern {name}"
        );
    }
}

#[test]
fn full_sap_pipeline_all_three_solvers_agree() {
    let a = tall_conditioned(4_000, 80, 0.01, CondSpec::chain(2.0), 3);
    let (b, _) = make_rhs(&a, 9);
    let opts = LsqrOptions {
        atol: 1e-14,
        btol: 1e-14,
        max_iters: 50_000,
        stall_window: 0,
    };

    let (x_d, _) = solve_lsqr_d(&a, &b, &opts);
    let sap = try_solve_sap(
        &a,
        &b,
        &SapOptions {
            gamma: 2,
            b_d: 200,
            b_n: 40,
            seed: 4,
            flavor: SapFlavor::Qr,
            lsqr: opts,
        },
    )
    .expect("SAP converges");
    let qr = sparse_qr_solve(&a, &b);

    for (name, x) in [("lsqr-d", &x_d), ("sap", &sap.x), ("direct", &qr.x)] {
        let err = backward_error(&a, x, &b);
        assert!(err < 1e-10, "{name} backward error {err}");
    }
    // Pairwise agreement of the minimizers.
    let dist = |u: &[f64], v: &[f64]| {
        u.iter()
            .zip(v.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    };
    let scale = x_d.iter().map(|v| v * v).sum::<f64>().sqrt();
    assert!(dist(&x_d, &sap.x) < 1e-6 * scale);
    assert!(dist(&x_d, &qr.x) < 1e-6 * scale);
}

#[test]
fn sap_svd_handles_numerically_rank_deficient_input() {
    let a = tall_conditioned(2_000, 64, 0.02, CondSpec::deficient(14.0, 1.3), 6);
    let (b, _) = make_rhs(&a, 2);
    let sap = try_solve_sap(
        &a,
        &b,
        &SapOptions {
            gamma: 2,
            b_d: 128,
            b_n: 32,
            seed: 8,
            flavor: SapFlavor::Svd,
            lsqr: LsqrOptions::default(),
        },
    )
    .expect("SAP converges");
    assert!(sap.rank < 64, "deficiency not detected (rank {})", sap.rank);
    assert!(backward_error(&a, &sap.x, &b) < 1e-8);
    assert!(sap.x.iter().all(|v| v.is_finite()));
}

#[test]
fn matrix_market_round_trip_preserves_pipeline_results() {
    let a = uniform_random::<f64>(500, 60, 0.02, 12);
    let mut buf = Vec::new();
    sparsekit::io::write_matrix_market_to(&a, &mut buf).unwrap();
    let b: sparsekit::CscMatrix<f64> =
        sparsekit::io::read_matrix_market_from(std::io::Cursor::new(buf)).unwrap();
    assert_eq!(a, b);
    let cfg = SketchConfig::new(120, 64, 16, 3);
    let sampler = uni(3);
    assert_eq!(
        sketch_alg3(&a, &cfg, &sampler),
        sketch_alg3(&b, &cfg, &sampler)
    );
}

#[test]
fn scaling_trick_equals_plain_uniform_statistically() {
    // (Sf)(A/f) has identical first/second moments to S·A; check the
    // column-energy ratio is ≈ 1.
    let a = uniform_random::<f64>(1_000, 100, 0.02, 8);
    let cfg = SketchConfig::new(200, 100, 25, 21);
    let plain = sketch_alg3(&a, &cfg, &uni(cfg.seed));
    let scaled = sketchcore::alg3::sketch_alg3_scaled(&a, &cfg, &FastRng::new(cfg.seed));
    let e1: f64 = plain.as_slice().iter().map(|v| v * v).sum();
    let e2: f64 = scaled.as_slice().iter().map(|v| v * v).sum();
    let ratio = e1 / e2;
    assert!((0.9..1.1).contains(&ratio), "energy ratio {ratio}");
}

#[test]
fn rademacher_sketch_preserves_energy() {
    let a = uniform_random::<f64>(1_500, 80, 0.02, 4);
    let cfg = SketchConfig::new(240, 120, 20, 13);
    let sk = sketch_alg3(
        &a,
        &cfg,
        &Rademacher::<f64>::sampler(FastRng::new(cfg.seed)),
    );
    // E‖Â‖_F² = d·‖A‖_F² for ±1 entries.
    let ratio = sk.fro_norm().powi(2) / (cfg.d as f64 * a.fro_norm().powi(2));
    assert!((0.9..1.1).contains(&ratio), "energy ratio {ratio}");
}
