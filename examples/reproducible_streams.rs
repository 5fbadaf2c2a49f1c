//! Reproducibility semantics of the two generator families (paper §IV-B/C).
//!
//! * Checkpointed xoshiro: the sketch is a pure function of
//!   `(seed, b_d, b_n)` — change the blocking and you get a *different but
//!   equally valid* random sketch.
//! * Philox (counter-based): every entry of `S` is addressed by its absolute
//!   `(row, column)`, so the sketch is identical for *any* blocking and any
//!   thread count — the RandBLAS-compatible mode.
//!
//! ```sh
//! cargo run --release --example reproducible_streams
//! ```

use rngkit::{FastRng, PhiloxSampler, UnitUniform};
use sketchcore::{sketch_alg3, SketchConfig};

fn main() {
    let a = datagen::uniform_random::<f64>(5_000, 400, 5e-3, 9);
    let cfg_a = SketchConfig::gamma(a.ncols(), 3, 512, 128, 7);
    let cfg_b = SketchConfig::gamma(a.ncols(), 3, 300, 64, 7); // different blocking

    // Xoshiro checkpoints: blocking changes the sketch.
    let xo = UnitUniform::<f64>::sampler(FastRng::new(7));
    let x1 = sketch_alg3(&a, &cfg_a, &xo);
    let x2 = sketch_alg3(&a, &cfg_b, &xo);
    println!(
        "xoshiro checkpoints: |Â(b_d=512) − Â(b_d=300)| = {:.3e}  (different draw)",
        x1.diff_norm(&x2)
    );

    // Philox counters: blocking-independent, bit-identical.
    let ph = PhiloxSampler::new(7);
    let p1 = sketch_alg3(&a, &cfg_a, &ph);
    let p2 = sketch_alg3(&a, &cfg_b, &ph);
    println!(
        "philox counters:     |Â(b_d=512) − Â(b_d=300)| = {:.3e}  (bit-identical)",
        p1.diff_norm(&p2)
    );
    assert_eq!(p1, p2);

    // Both sketches have the right second moment: E[‖Âx‖²] ∝ d/3·‖Ax‖².
    let x: Vec<f64> = (0..a.ncols()).map(|i| ((i % 7) as f64) - 3.0).collect();
    let mut ax = vec![0.0; a.nrows()];
    a.spmv(&x, &mut ax);
    let ax_norm2: f64 = ax.iter().map(|v| v * v).sum();
    for (name, sk) in [("xoshiro", &x1), ("philox", &p1)] {
        let mut shx = vec![0.0; sk.nrows()];
        sk.matvec(&x, &mut shx);
        let ratio = shx.iter().map(|v| v * v).sum::<f64>() / (ax_norm2 * cfg_a.d as f64 / 3.0);
        println!("{name}: ‖Âx‖²/(d/3·‖Ax‖²) = {ratio:.3} (≈1 expected)");
    }
}
