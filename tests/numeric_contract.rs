//! Cross-build numeric contract: the sketch, its QR factor and the SAP
//! solution are bitwise identical in every build of the repository — the
//! committed `-C target-cpu=native` build and a portable
//! `RUSTFLAGS="-C target-cpu=x86-64"` build alike. Every fused multiply-add
//! in the kernels is an explicit `mul_add`, rounded once whether it lowers
//! to an FMA instruction or to libm's `fma`, and nothing enables
//! floating-point contraction or fast-math. So the fingerprints below are
//! exact constants, not tolerances; they were recorded on a build without
//! FMA codegen.

use datagen::lsq::{tall_conditioned, CondSpec};
use datagen::{make_rhs, uniform_random};
use densekit::householder_qr_r;
use lstsq::{try_solve_sap, LsqrOptions, SapFlavor, SapOptions};
use rngkit::{FastRng, UnitUniform};
use sketchcore::{sketch_alg3, sketch_alg4, SketchConfig};
use sparsekit::BlockedCsr;

/// FNV-1a over the little-endian bit patterns of `xs`.
fn fnv1a(xs: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in xs {
        for b in x.to_bits().to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn sketch_qr_and_sap_fingerprints_are_build_independent() {
    // Ragged blocks on both axes: d = 80 over b_d = 32, n = 40 over b_n = 16.
    let a = uniform_random::<f64>(2_000, 40, 0.02, 7);
    let cfg = SketchConfig::new(80, 32, 16, 11);
    let sampler = UnitUniform::<f64>::sampler(FastRng::new(cfg.seed));
    let x3 = sketch_alg3(&a, &cfg, &sampler);
    let x4 = sketch_alg4(&BlockedCsr::from_csc(&a, cfg.b_n), &cfg, &sampler);
    let r = householder_qr_r(&x3);

    let a_lsq = tall_conditioned(2_000, 40, 0.02, CondSpec::chain(2.0), 13);
    let (b, _) = make_rhs(&a_lsq, 17);
    let opts = SapOptions {
        gamma: 2,
        b_d: 32,
        b_n: 16,
        seed: 19,
        flavor: SapFlavor::Qr,
        lsqr: LsqrOptions::default(),
    };
    let sap = try_solve_sap(&a_lsq, &b, &opts).expect("SAP solves a well-conditioned problem");

    let got = [
        ("sketch_alg3", fnv1a(x3.as_slice())),
        ("sketch_alg4", fnv1a(x4.as_slice())),
        ("householder_qr_r", fnv1a(r.as_slice())),
        ("try_solve_sap x", fnv1a(&sap.x)),
        ("try_solve_sap iters", sap.iters as u64),
    ];
    let want = [
        ("sketch_alg3", 0xde11_c37b_3557_3945),
        ("sketch_alg4", 0xde11_c37b_3557_3945),
        ("householder_qr_r", 0x295f_06e2_d27b_11fb),
        ("try_solve_sap x", 0xc8a7_02ae_6813_711d),
        ("try_solve_sap iters", 39),
    ];
    assert_eq!(got, want);
}

#[test]
fn sap_shaped_qr_fingerprint_is_build_independent() {
    // SAP's factor stage at γ = 2: the 600×300 sketch of a tall sparse
    // operand. 300 is not a multiple of 8, 16 or 32, so a column-blocked
    // factorization runs many full panels and ends on a ragged one.
    let a = uniform_random::<f64>(3_000, 300, 0.01, 23);
    let cfg = SketchConfig::new(600, 256, 64, 29);
    let sampler = UnitUniform::<f64>::sampler(FastRng::new(cfg.seed));
    let r = householder_qr_r(&sketch_alg3(&a, &cfg, &sampler));
    assert_eq!(fnv1a(r.as_slice()), 0x2fb4_a818_e964_11ee);
}
