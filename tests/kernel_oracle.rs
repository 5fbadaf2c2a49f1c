//! Differential oracle for every sketch driver in sketchcore.
//!
//! Each driver (sequential, column panels, row stripes, multi-seed batch,
//! instrumented, hardened, scaled integers) is checked against a
//! reference that materializes `S` explicitly — same `(i, j)` checkpoints,
//! same `b_d` — and multiplies it densely. The contracts:
//!
//! * every driver agrees with the reference to a relative tolerance;
//! * drivers that run the same per-element arithmetic agree *bitwise*,
//!   whatever the thread count (1, 2, 4) or batch size (1, 3):
//!   - the fused Alg 3 group (`fill_axpy`): sequential (plain and
//!     hardened), par_cols, par_rows, and each request of a batch;
//!   - the fill-then-multiply-add group: Alg 4 (every driver, instrumented
//!     included) and the instrumented Alg 3, which accumulate the same
//!     products into each output column in the same row order.
//!
//! The sampler families are the checkpointed uniform generators, Philox,
//! the scaled integers and `Rademacher<f64>` (±1 entries through a
//! sign-bit-XOR `fill_axpy`).
//!
//! Shapes are seeded random ones plus the edges: `d < b_d`, `d = 1`,
//! `n = 1`, empty columns, and ragged last blocks in both dimensions.

use densekit::Matrix;
use parkit::with_threads;
use rngkit::{
    BlockSampler, CheckpointRng, DistSampler, FastRng, PhiloxSampler, Rademacher, ScaledInt,
    UnitUniform, Xoshiro256PlusPlus,
};
use sketchcore::{
    sketch_alg3, sketch_alg3_instrumented, sketch_alg3_par_rows, sketch_alg4,
    sketch_alg4_instrumented, sketch_alg4_par_rows, try_sketch_alg3, try_sketch_alg3_multi,
    try_sketch_alg3_par_cols, SketchConfig,
};
use sparsekit::{BlockedCsr, CooMatrix, CscMatrix};

/// Thread counts every parallel driver runs under.
const THREADS: [usize; 3] = [1, 2, 4];

/// One test shape: `A` is `m×n`, the sketch is `d×n` under `(b_d, b_n)`.
#[derive(Clone, Copy, Debug)]
struct Case {
    m: usize,
    n: usize,
    nnz: usize,
    d: usize,
    b_d: usize,
    b_n: usize,
    /// Leave every third column empty.
    empty_cols: bool,
    seed: u64,
}

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 11
}

fn matrix(c: &Case) -> CscMatrix<f64> {
    let mut s = c.seed | 1;
    let mut coo = CooMatrix::new(c.m, c.n);
    for _ in 0..c.nnz {
        let i = (lcg(&mut s) % c.m as u64) as usize;
        let mut j = (lcg(&mut s) % c.n as u64) as usize;
        if c.empty_cols && j % 3 == 1 {
            j -= 1;
        }
        let v = (lcg(&mut s) % 2000) as f64 / 1000.0 - 0.9995;
        coo.push(i, j, v).expect("in bounds");
    }
    coo.to_csc().expect("valid COO")
}

/// Edge shapes as `(m, n, nnz, d, b_d, b_n, empty_cols)`.
const EDGES: [(usize, usize, usize, usize, usize, usize, bool); 6] = [
    (30, 12, 70, 5, 16, 4, false),   // d < b_d: one short row block
    (25, 10, 60, 1, 4, 3, false),    // d = 1
    (40, 1, 15, 9, 4, 2, false),     // n = 1
    (30, 14, 80, 12, 5, 4, true),    // empty columns
    (35, 23, 150, 29, 10, 9, false), // ragged last blocks in both dimensions
    (10, 6, 0, 7, 3, 2, false),      // no nonzeros at all
];

fn cases() -> Vec<Case> {
    let mut out: Vec<Case> = EDGES
        .iter()
        .zip(1..)
        .map(|(&(m, n, nnz, d, b_d, b_n, empty_cols), seed)| Case {
            m,
            n,
            nnz,
            d,
            b_d,
            b_n,
            empty_cols,
            seed,
        })
        .collect();
    // Seeded random shapes.
    let mut s = 0x0AC1E_u64;
    for k in 0..4 {
        let m = 2 + (lcg(&mut s) % 50) as usize;
        let n = 1 + (lcg(&mut s) % 30) as usize;
        let d = 1 + (lcg(&mut s) % 40) as usize;
        out.push(Case {
            m,
            n,
            nnz: (lcg(&mut s) % (3 * (m + n)) as u64) as usize,
            d,
            b_d: 1 + (lcg(&mut s) % 20) as usize,
            b_n: 1 + (lcg(&mut s) % 12) as usize,
            empty_cols: k % 2 == 1,
            seed: 100 + k,
        });
    }
    out
}

/// Materialize `S` with the kernels' checkpoints — `set_state(i, j)` at the
/// top of each `b_d` row block — and multiply densely.
fn reference<S: BlockSampler<f64> + Clone>(
    a: &CscMatrix<f64>,
    cfg: &SketchConfig,
    sampler: &S,
) -> Matrix<f64> {
    let m = a.nrows();
    let mut s_mat = Matrix::zeros(cfg.d, m);
    let mut s = sampler.clone();
    let mut v = vec![0.0; cfg.b_d.min(cfg.d)];
    for i in (0..cfg.d).step_by(cfg.b_d) {
        let d1 = cfg.b_d.min(cfg.d - i);
        for j in 0..m {
            s.set_state(i, j);
            s.fill(&mut v[..d1]);
            for (di, &x) in v[..d1].iter().enumerate() {
                s_mat[(i + di, j)] = x;
            }
        }
    }
    let mut out = Matrix::zeros(cfg.d, a.ncols());
    for k in 0..a.ncols() {
        let (rows, vals) = a.col(k);
        for (&j, &ajk) in rows.iter().zip(vals) {
            for di in 0..cfg.d {
                out[(di, k)] += s_mat[(di, j)] * ajk;
            }
        }
    }
    out
}

fn assert_bits(want: &Matrix<f64>, got: &Matrix<f64>, what: &str) {
    assert_eq!(
        (want.nrows(), want.ncols()),
        (got.nrows(), got.ncols()),
        "{what}: shape"
    );
    for (idx, (x, y)) in want.as_slice().iter().zip(got.as_slice()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: element {idx} differs ({x:e} vs {y:e})"
        );
    }
}

fn assert_close(want: &Matrix<f64>, got: &Matrix<f64>, what: &str) {
    assert_eq!(
        (want.nrows(), want.ncols()),
        (got.nrows(), got.ncols()),
        "{what}: shape"
    );
    let tol = 1e-12 * want.fro_norm().max(1.0);
    let err = want.diff_norm(got);
    assert!(err <= tol, "{what}: ‖got − ref‖ = {err:e} > {tol:e}");
}

/// Run every `f64` driver on the sampler family `make(seed)` and check the
/// bitwise groups and the reference.
fn check_float_family<S, F>(family: &str, make: F)
where
    S: BlockSampler<f64> + Clone + Send + Sync,
    F: Fn(u64) -> S,
{
    for c in cases() {
        let a = matrix(&c);
        let cfg = SketchConfig::new(c.d, c.b_d, c.b_n, c.seed);
        let blocked = BlockedCsr::from_csc(&a, cfg.b_n);
        let sampler = make(c.seed);
        let ctx = |driver: &str| format!("{family} {c:?} {driver}");
        let want = reference(&a, &cfg, &sampler);

        // The fused Alg 3 group.
        let fused = sketch_alg3(&a, &cfg, &sampler);
        assert_close(&want, &fused, &ctx("sketch_alg3"));
        let hardened = try_sketch_alg3(&a, &cfg, &sampler).expect("benign input");
        assert_bits(&fused, &hardened, &ctx("try_sketch_alg3"));

        // The fill-then-multiply-add group.
        let fma = sketch_alg4(&blocked, &cfg, &sampler);
        assert_close(&want, &fma, &ctx("sketch_alg4"));
        let (inst3, t3) = sketch_alg3_instrumented(&a, &cfg, &sampler);
        assert_bits(&fma, &inst3, &ctx("sketch_alg3_instrumented"));
        assert_eq!(
            t3.samples,
            (cfg.d * a.nnz()) as u64,
            "{}",
            ctx("alg3 samples")
        );
        let (inst4, t4) = sketch_alg4_instrumented(&blocked, &cfg, &sampler);
        assert_bits(&fma, &inst4, &ctx("sketch_alg4_instrumented"));
        assert_eq!(
            t4.samples,
            sketchcore::alg4::alg4_samples_actual(&blocked, cfg.d),
            "{}",
            ctx("alg4 samples")
        );

        for t in THREADS {
            let ctx_t = |driver: &str| ctx(&format!("{driver} threads={t}"));
            with_threads(t, || {
                let pc = try_sketch_alg3_par_cols(&a, &cfg, &sampler).expect("benign input");
                assert_bits(&fused, &pc, &ctx_t("try_sketch_alg3_par_cols"));
                let pr = sketch_alg3_par_rows(&a, &cfg, &sampler);
                assert_bits(&fused, &pr, &ctx_t("sketch_alg3_par_rows"));
                let pr4 = sketch_alg4_par_rows(&blocked, &cfg, &sampler);
                assert_bits(&fma, &pr4, &ctx_t("sketch_alg4_par_rows"));
            });
        }

        for k in [1u64, 3] {
            let samplers: Vec<S> = (0..k).map(|r| make(c.seed + r)).collect();
            let batch = try_sketch_alg3_multi(&a, &cfg, &samplers, true).expect("benign");
            assert_eq!(batch.len(), k as usize);
            for (r, s) in samplers.iter().enumerate() {
                let seq = sketch_alg3(&a, &cfg, s);
                let what = format!("k={k} request {r}");
                assert_bits(
                    &seq,
                    &batch[r],
                    &ctx(&format!("try_sketch_alg3_multi {what}")),
                );
                assert_close(&reference(&a, &cfg, s), &batch[r], &ctx(&what));
            }
        }
    }
}

#[test]
fn fast_rng_drivers_match_reference() {
    check_float_family("FastRng", |seed| {
        UnitUniform::<f64>::sampler(FastRng::new(seed))
    });
}

#[test]
fn checkpoint_xoshiro_drivers_match_reference() {
    check_float_family("CheckpointRng<Xoshiro256PlusPlus>", |seed| {
        UnitUniform::<f64>::sampler(CheckpointRng::<Xoshiro256PlusPlus>::new(seed))
    });
}

#[test]
fn philox_drivers_match_reference() {
    check_float_family("PhiloxSampler", PhiloxSampler::new);
}

#[test]
fn scaled_int_drivers_match_reference() {
    let make = |seed| DistSampler::new(ScaledInt::new(), FastRng::new(seed));
    check_float_family("ScaledInt", make);
    // sketch_alg3_scaled is the raw-integer sketch times the scale factor.
    for c in cases() {
        let a = matrix(&c);
        let cfg = SketchConfig::new(c.d, c.b_d, c.b_n, c.seed);
        let mut want = reference(&a, &cfg, &make(c.seed));
        want.scale(ScaledInt::SCALE);
        let got = sketchcore::alg3::sketch_alg3_scaled(&a, &cfg, &FastRng::new(c.seed));
        assert_close(&want, &got, &format!("sketch_alg3_scaled {c:?}"));
        let mut raw = sketch_alg3(&a, &cfg, &make(c.seed));
        raw.scale(ScaledInt::SCALE);
        assert_bits(&raw, &got, &format!("sketch_alg3_scaled {c:?}"));
    }
}

#[test]
fn rademacher_sign_drivers_match_reference() {
    check_float_family("Rademacher<f64>", |seed| {
        Rademacher::<f64>::sampler(FastRng::new(seed))
    });
}
