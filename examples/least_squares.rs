//! Sketch-and-precondition least squares (the paper's §V-C pipeline).
//!
//! Builds an ill-conditioned tall sparse problem, then solves it three ways:
//! LSQR with diagonal preconditioning, SAP-QR (sketch + Householder QR
//! preconditioner), and the George–Heath direct sparse QR — and prints the
//! runtime / iteration / accuracy / memory contrast of the paper's
//! Tables IX–XI.
//!
//! ```sh
//! cargo run --release --example least_squares
//! ```

use datagen::lsq::{tall_conditioned, CondSpec};
use datagen::make_rhs;
use lstsq::{
    backward_error, solve_lsqr_d, sparse_qr_solve, try_solve_sap, LsqrOptions, SapFlavor,
    SapOptions,
};

fn main() {
    // An 80000x600 problem whose conditioning (spread spectrum, cond ~1500)
    // survives column equilibration — the regime where SAP shines.
    let a = tall_conditioned(80_000, 600, 1.2e-2, CondSpec::chain(3.2), 11);
    let (b, _) = make_rhs(&a, 3);
    println!(
        "A: {}x{}, nnz = {}, mem(A) = {:.2} MB",
        a.nrows(),
        a.ncols(),
        a.nnz(),
        a.memory_bytes() as f64 / 1e6
    );

    // 1. LSQR-D.
    let opts = LsqrOptions {
        atol: 1e-14,
        btol: 1e-14,
        max_iters: 100_000,
        stall_window: 0,
    };
    let t = std::time::Instant::now();
    let (x_d, res) = solve_lsqr_d(&a, &b, &opts);
    println!(
        "\nLSQR-D:    {:.3}s, {} iterations, backward error {:.2e}",
        t.elapsed().as_secs_f64(),
        res.iters,
        backward_error(&a, &x_d, &b)
    );

    // 2. SAP-QR: sketch to d = 2n, factor, precondition.
    let sap = try_solve_sap(
        &a,
        &b,
        &SapOptions {
            gamma: 2,
            b_d: 3000,
            b_n: 500,
            seed: 7,
            flavor: SapFlavor::Qr,
            lsqr: opts,
        },
    )
    .expect("SAP converges");
    println!(
        "SAP-QR:    {:.3}s total (sketch {:.3}s, factor {:.3}s, LSQR {:.3}s), {} iterations, backward error {:.2e}",
        sap.total_s,
        sap.sketch_s,
        sap.factor_s,
        sap.solve_s,
        sap.iters,
        backward_error(&a, &sap.x, &b)
    );
    println!(
        "           extra memory {:.2} MB (dense 2n×n sketch + R factor)",
        sap.memory_bytes as f64 / 1e6
    );

    // 3. Direct sparse QR (George–Heath row Givens).
    let qr = sparse_qr_solve(&a, &b);
    println!(
        "sparse QR: {:.3}s, backward error {:.2e}, factors would occupy {:.2} MB",
        qr.seconds,
        backward_error(&a, &qr.x, &b),
        qr.factor_bytes as f64 / 1e6
    );

    // The three solutions agree.
    let diff: f64 = sap
        .x
        .iter()
        .zip(x_d.iter())
        .map(|(p, q)| (p - q) * (p - q))
        .sum::<f64>()
        .sqrt();
    let norm: f64 = x_d.iter().map(|v| v * v).sum::<f64>().sqrt();
    println!("\n|x_SAP − x_LSQRD| / |x| = {:.2e} ✓", diff / norm);
}
