//! Figure runners — Figure 4 (distribution study), Figure 5 (spy plots),
//! the §III-A roofline report, and the §V-B machine probes.

use crate::{
    fmt_g, gflops, measure_copy_bandwidth_gbs, measure_peak_gflops, measure_short_vector_rng_rate,
    print_table, time_median, RunConfig,
};
use baselines::{materialize_s, pregen_blocked};
use datagen::uniform_random;
use rngkit::{FastRng, Gaussian, Rademacher, ScaledInt, UnitUniform};
use sketchcore::{sketch_alg4, CostModel, SketchConfig};
use sparsekit::spy::spy_ascii;
use sparsekit::BlockedCsr;

type Rng = FastRng;

/// Figure 4: percent of peak for Algorithm 4 as a function of density, for
/// five ways of producing the entries of `S`.
pub fn fig4(rc: &RunConfig) {
    let peak = measure_peak_gflops();
    println!("\nmeasured FMA-peak proxy: {peak:.2} GFLOP/s");

    let m = (40_000 / rc.scale).max(2_000);
    let n = (4_000 / rc.scale).max(200);
    let d = 3 * n;
    let densities = [1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2];

    let mut rows = Vec::new();
    for &rho in &densities {
        let a = uniform_random::<f64>(m, n, rho, 0xF16);
        let nnz = a.nnz();
        if nnz == 0 {
            continue;
        }
        let cfg = SketchConfig::new(d, 3000.min(d), 1200.min(n), 4);
        let blocked = BlockedCsr::from_csc(&a, cfg.b_n);

        let pct = |secs: f64| 100.0 * gflops(d, nnz, secs) / peak;

        let t_gauss = time_median(rc.reps, || {
            sketch_alg4(&blocked, &cfg, &Gaussian::<f64>::sampler(Rng::new(4)))
        });
        let s = materialize_s(&UnitUniform::<f64>::sampler(Rng::new(4)), d, m, cfg.b_d);
        let t_pregen = time_median(rc.reps, || pregen_blocked(&a, &s, cfg.b_d, cfg.b_n));
        drop(s);
        let t_unit = time_median(rc.reps, || {
            sketch_alg4(&blocked, &cfg, &UnitUniform::<f64>::sampler(Rng::new(4)))
        });
        let t_scaled = time_median(rc.reps, || {
            let mut out = sketch_alg4(
                &blocked,
                &cfg,
                &rngkit::DistSampler::new(ScaledInt::new(), Rng::new(4)),
            );
            out.scale(ScaledInt::SCALE);
            out
        });
        let t_pm1 = time_median(rc.reps, || {
            sketch_alg4(&blocked, &cfg, &Rademacher::<f64>::sampler(Rng::new(4)))
        });

        rows.push(vec![
            format!("{rho:.0e}"),
            fmt_g(pct(t_gauss)),
            fmt_g(pct(t_pregen)),
            fmt_g(pct(t_unit)),
            fmt_g(pct(t_scaled)),
            fmt_g(pct(t_pm1)),
        ]);
    }
    print_table(
        &format!("Figure 4 — % of peak vs density, Algorithm 4 (m={m}, n={n}, d=3n)"),
        &[
            "density",
            "gaussian otf",
            "pregen S",
            "(-1,1) otf",
            "(-1,1) scaling trick",
            "±1 otf",
        ],
        &rows,
    );
}

/// Figure 5: sparsity spy plots of the stand-ins the paper pictures.
pub fn fig5(rc: &RunConfig) {
    let suite = datagen::spmm_suite(rc.scale);
    println!("\n### Figure 5 — sparsity patterns (ASCII spy plots; PGMs in target/spy/)\n");
    std::fs::create_dir_all("target/spy").ok();
    for name in ["shar_te2-b2", "mesh_deform", "cis-n4c6-b4"] {
        let nm = suite.iter().find(|p| p.name == name).expect("suite member");
        println!(
            "{name} ({}x{}, nnz {}):",
            nm.matrix.nrows(),
            nm.matrix.ncols(),
            nm.matrix.nnz()
        );
        println!("{}", spy_ascii(&nm.matrix, 20, 40));
        let path = format!("target/spy/{name}.pgm");
        if sparsekit::spy::spy_pgm(&nm.matrix, 256, 256, &path).is_ok() {
            println!("(wrote {path})\n");
        }
    }
}

/// §III-A roofline report: the model's optimal blockings, CI, and the
/// √M-beyond-GEMM headline at measured machine parameters.
pub fn roofline() {
    let peak = measure_peak_gflops();
    let bw = measure_copy_bandwidth_gbs();
    let balance = peak / (bw / 8.0); // flops per f64 word
                                     // Model cache: 1 MiB of f64 words (L2-ish), h from the measured RNG rate.
    let rng_rate = measure_short_vector_rng_rate() * 1e9; // samples/s
    let mem_rate = bw * 1e9 / 8.0; // words/s
    let h = mem_rate / rng_rate;
    println!("\nmeasured: peak {peak:.1} GFLOP/s, bandwidth {bw:.1} GB/s, machine balance {balance:.1} flops/word");
    println!(
        "RNG rate {:.2} Gsamples/s → h = (cost of RNG / cost of load) = {h:.3}",
        rng_rate / 1e9,
    );

    let model = CostModel::new(131_072.0, h.min(0.999), balance);
    let mut rows = Vec::new();
    for rho in [1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 0.9] {
        let p = model.optimize(rho);
        rows.push(vec![
            format!("{rho:.0e}"),
            fmt_g(p.n1),
            fmt_g(p.d1),
            fmt_g(p.m1),
            fmt_g(p.ci),
            fmt_g(p.frac_peak),
            fmt_g(model.gemm_frac_peak()),
        ]);
    }
    print_table(
        "§III-A model — optimal blocking and fraction of peak (M = 128Ki words)",
        &[
            "ρ",
            "n₁*",
            "d₁*",
            "m₁*",
            "CI",
            "frac peak",
            "GEMM frac peak",
        ],
        &rows,
    );
    println!(
        "small-ρ closed form at measured h: CI = {} (eq. 5).",
        fmt_g(model.ci_small_rho())
    );
    let ideal = CostModel::new(model.cache_size, 1e-9, model.machine_balance);
    println!(
        "h→0 headline (eq. 6): CI → M/2 = {}, beating GEMM's √M CI by {:.1}x (√M = {:.1}) — \
         the √M claim; at this host's measured h the gain is {:.2}x.",
        fmt_g(ideal.ci_small_rho()),
        ideal.ci_small_rho() / model.cache_size.sqrt(),
        model.cache_size.sqrt(),
        model.ci_small_rho() / model.cache_size.sqrt()
    );
}

/// §V-B machine probes: STREAM-style bandwidth and short-vector RNG rate.
pub fn stream() {
    let bw = measure_copy_bandwidth_gbs();
    let rng = measure_short_vector_rng_rate();
    let peak = measure_peak_gflops();
    print_table(
        "§V-B machine probes",
        &["probe", "value"],
        &[
            vec!["copy bandwidth".into(), format!("{bw:.2} GB/s")],
            vec![
                "short-vector RNG (len 10⁴)".into(),
                format!("{rng:.3} Gsamples/s"),
            ],
            vec!["FMA peak proxy".into(), format!("{peak:.2} GFLOP/s")],
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_runs_small() {
        let rc = RunConfig {
            scale: 200,
            max_threads: 1,
            reps: 1,
        };
        fig4(&rc); // must not panic
    }

    #[test]
    fn fig5_runs_small() {
        let rc = RunConfig {
            scale: 512,
            max_threads: 1,
            reps: 1,
        };
        fig5(&rc);
    }

    #[test]
    fn machine_probes_positive() {
        assert!(measure_copy_bandwidth_gbs() > 0.1);
        assert!(measure_short_vector_rng_rate() > 0.001);
    }
}
