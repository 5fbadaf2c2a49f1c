//! Output checks. An op whose output fails its check counts as failed.
//!
//! * SAP solutions: the normal-equation residual
//!   `‖Aᵀ(Ax−b)‖ / (‖A‖_F·‖Ax−b‖)` under [`SAP_TOL`].
//! * Served sketches: the reply's XOR checksum is bitwise equal to a local
//!   `try_sketch_alg3` with the same seed (batched ≡ sequential).

use densekit::Matrix;
use rngkit::{FastRng, UnitUniform};
use sketchcore::{try_sketch_alg3, SketchConfig};
use sparsekit::CscMatrix;

/// Tolerance on the SAP normal-equation residual. LSQR stops at an
/// estimated 1e-14; the recomputed residual of a converged solve on the
/// benchmark's problems stays below 1e-11, while a relative 1e-6 change
/// of one solution entry lifts it above 1e-9.
pub const SAP_TOL: f64 = 1e-10;

/// The sampler that defines `S` for a seed — the one every sketch in this
/// repository's service and solver paths uses.
pub fn sampler(seed: u64) -> rngkit::DistSampler<UnitUniform<f64>, FastRng> {
    UnitUniform::<f64>::sampler(FastRng::new(seed))
}

/// A deterministic probe vector with entries of magnitude in [0.5, 1).
pub fn probe_vector(n: usize, seed: u64) -> Vec<f64> {
    let mut s = seed ^ 0x9E37_79B9_7F4A_7C15;
    (0..n)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (s >> 11) as f64 / (1u64 << 53) as f64;
            let sign = if s >> 63 == 0 { 1.0 } else { -1.0 };
            sign * (0.5 + 0.5 * u)
        })
        .collect()
}

/// `‖Aᵀ(Ax−b)‖ / (‖A‖_F·‖Ax−b‖)`, computed independently of the solver.
pub fn normal_residual(a: &CscMatrix<f64>, x: &[f64], b: &[f64]) -> f64 {
    let mut r = vec![0.0; a.nrows()];
    a.spmv(x, &mut r);
    for (ri, bi) in r.iter_mut().zip(b) {
        *ri -= bi;
    }
    let mut atr = vec![0.0; a.ncols()];
    a.spmv_t(&r, &mut atr);
    let nrm = |v: &[f64]| v.iter().map(|t| t * t).sum::<f64>().sqrt();
    nrm(&atr) / (a.fro_norm() * nrm(&r))
}

/// Check a least-squares solution against [`SAP_TOL`].
pub fn check_sap(a: &CscMatrix<f64>, x: &[f64], b: &[f64]) -> Result<f64, String> {
    if x.len() != a.ncols() || x.iter().any(|v| !v.is_finite()) {
        return Err("solution has the wrong length or non-finite entries".into());
    }
    let res = normal_residual(a, x, b);
    if res <= SAP_TOL {
        Ok(res)
    } else {
        Err(format!(
            "normal-equation residual {res:.3e} > {SAP_TOL:.0e}"
        ))
    }
}

/// The XOR of a sketch's value bit patterns, as `sketchd` computes it for
/// `CHECKSUM_ONLY` replies.
pub fn xor_bits(m: &Matrix<f64>) -> u64 {
    m.as_slice().iter().fold(0u64, |acc, v| acc ^ v.to_bits())
}

/// The reference checksum of a served sketch: a local sequential
/// `try_sketch_alg3` with the same seed and blocking.
pub fn local_xor(a: &CscMatrix<f64>, cfg: &SketchConfig) -> Result<u64, String> {
    try_sketch_alg3(a, cfg, &sampler(cfg.seed))
        .map(|m| xor_bits(&m))
        .map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_flipped_sketch_value_changes_the_checksum() {
        let a = datagen::uniform_random::<f64>(400, 30, 0.05, 3);
        let cfg = SketchConfig::new(32, 16, 8, 11);
        let mut m = try_sketch_alg3(&a, &cfg, &sampler(cfg.seed)).expect("sketch");
        assert_eq!(local_xor(&a, &cfg).expect("sketch"), xor_bits(&m));
        m[(5, 7)] = -m[(5, 7)];
        assert_ne!(local_xor(&a, &cfg).expect("sketch"), xor_bits(&m));
    }
}
