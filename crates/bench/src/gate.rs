//! The perf-trajectory layer: a fixed benchmark suite, `BENCH_*.json`
//! baselines with run manifests, and a noise-aware regression comparison.
//!
//! The paper's central claim is a *performance* result, so the repo treats
//! its own benchmark trajectory as an enforced contract (the way DBCSR-style
//! kernel libraries treat benchmark tracking as first-class infrastructure):
//!
//! * [`suite`] builds a fixed set of scenarios — Algorithm 3/4 sketches at
//!   several shapes, SAP-QR's Householder factor of a 2n×n sketch (scaled,
//!   and at Table IX's 1200×600 at every scale), its `R⁻¹`/`R⁻ᵀ`
//!   preconditioner pair, LSQR-D solves, and a SAP end-to-end run at smoke
//!   scale.
//! * [`run_suite`] times each scenario `reps` times with [`obskit::reset`]
//!   between repetitions (so counters and histograms describe exactly one
//!   execution), snapshots the deterministic work counters, and summarizes
//!   the latency histograms of every span and kernel block path (so
//!   `sap_e2e` splits into SAP's sketch, factor and solve stages).
//! * [`Baseline`] embeds a run manifest — git SHA, suite seed, scale,
//!   the build and host identity (rustc, compile-time and runtime CPU
//!   features, CPU brand, core count), an obskit counter snapshot and the
//!   measured-vs-model traffic ratios — for provenance, and round-trips
//!   through the hand-rolled [`crate::json`] module.
//! * [`compare`] is the noise-aware gate: per-scenario medians are compared
//!   with a MAD-scaled threshold (`max(rel_tol·median, k·MAD)`), so only
//!   changes that clear both the relative floor and the run's own measured
//!   noise are flagged; deterministic counters (samples, seeks, flops,
//!   bytes, solver iterations) must be *bitwise identical* to the baseline,
//!   which separates perf drift from work drift.
//!
//! Noise caveat: on a single shared vCPU (this repo's recorded host),
//! hypervisor steal can perturb individual runs by 2–3×. The MAD term
//! absorbs within-run noise, but a baseline recorded on a quiet machine can
//! still false-positive against a noisy later run — the default
//! `rel_tol = 0.30` is deliberately generous, and baselines are only
//! comparable on the host that recorded them.

use crate::json::{parse, Jval};
use crate::{fmt_s, ident, print_table};
use datagen::lsq::{tall_conditioned, CondSpec};
use datagen::make_rhs;
use densekit::{householder_qr_r, Matrix};
use lstsq::{
    solve_lsqr_d, try_solve_sap, LsqrOptions, Preconditioner, SapFlavor, SapOptions,
    UpperTriPrecond,
};
use obskit::{Ctr, CTR_NAMES, NCTR};
use rngkit::{u64_to_unit_f64, FastRng, Rademacher, UnitUniform, Xoshiro256PlusPlus};
use sketchcore::{sketch_alg3, sketch_alg4, try_sketch_alg3_multi, CostModel, SketchConfig};
use sparsekit::BlockedCsr;
use std::time::Instant;

/// Schema version written into every baseline.
pub const SCHEMA_VERSION: u64 = 1;
/// Baseline file discriminator.
pub const BASELINE_KIND: &str = "sparse-sketch-bench-baseline";
/// Seed every suite scenario derives its data and sketches from.
pub const SUITE_SEED: u64 = 0xBE27C4;

/// Configuration for recording or re-running the gate suite.
#[derive(Clone, Copy, Debug)]
pub struct GateConfig {
    /// Dimension divisor on the scenario sizes (1 = full gate suite;
    /// `--quick` uses 4 for the CI self-check).
    pub scale: usize,
    /// Repetitions per scenario (median and MAD are taken over these).
    pub reps: usize,
    /// Relative tolerance floor of the regression threshold.
    pub rel_tol: f64,
    /// MAD multiplier of the regression threshold.
    pub mad_k: f64,
    /// Test hook: busy-wait this many nanoseconds inside every timed
    /// repetition (set from `BENCHGATE_SLOWDOWN_NS` by the binary) to
    /// verify the gate trips on a synthetic slowdown.
    pub inject_slowdown_ns: u64,
}

impl Default for GateConfig {
    fn default() -> Self {
        Self {
            scale: 1,
            reps: 5,
            rel_tol: 0.30,
            mad_k: 4.0,
            inject_slowdown_ns: 0,
        }
    }
}

/// One benchmark scenario: a name plus the timed, deterministic work.
pub struct Scenario {
    /// Stable identifier; the comparison key between runs.
    pub name: &'static str,
    /// Kernel or solver the scenario exercises (`benchgate list` metadata).
    pub kernel: &'static str,
    /// Operand shape at the current scale (`rows×cols nnz N`).
    pub shape: String,
    run: Box<dyn Fn()>,
}

fn div(x: usize, scale: usize) -> usize {
    (x / scale.max(1)).max(8)
}

fn shape_of<T: sparsekit::Scalar>(a: &sparsekit::CscMatrix<T>) -> String {
    format!("{}×{} nnz {}", a.nrows(), a.ncols(), a.nnz())
}

fn dense_shape(a: &Matrix<f64>) -> String {
    format!(
        "{}×{} nnz {} (dense)",
        a.nrows(),
        a.ncols(),
        a.as_slice().len()
    )
}

/// Preconditioner pairs one `precond_pair` repetition runs.
const PRECOND_PAIRS: usize = 200;
/// LSQR-D solves one `lsqr_iter` repetition runs: one solve takes 0.1–0.2 ms
/// at `--quick`, too short to time against the gate's threshold.
const LSQR_SOLVES: usize = 20;

/// The fixed scenario suite at `1/scale` of the gate's full sizes. All data
/// and samplers derive from [`SUITE_SEED`], so the work each scenario does
/// (samples drawn, flops, bytes, solver iterations) is a pure function of
/// `scale` — which is what lets the gate demand bitwise-equal counters.
pub fn suite(scale: usize) -> Vec<Scenario> {
    let mut out: Vec<Scenario> = Vec::new();

    // Algorithm 3 at the paper's tall-and-sparse operating point.
    let a_tall =
        datagen::uniform_random::<f64>(div(12000, scale), div(600, scale), 5e-3, SUITE_SEED);
    let d = 2 * a_tall.ncols();
    let cfg3 = SketchConfig::new(d, 256.min(d), 64.min(a_tall.ncols()), SUITE_SEED);
    {
        let (a, cfg) = (a_tall.clone(), cfg3);
        out.push(Scenario {
            name: "alg3_tall",
            kernel: "alg3",
            shape: shape_of(&a),
            run: Box::new(move || {
                let s = UnitUniform::<f64>::sampler(FastRng::new(cfg.seed));
                std::hint::black_box(sketch_alg3(&a, &cfg, &s));
            }),
        });
    }

    // Same kernel at a denser, squarer shape (different cache behaviour).
    {
        let a = datagen::uniform_random::<f64>(
            div(4000, scale),
            div(1000, scale),
            2e-2,
            SUITE_SEED + 1,
        );
        let d = 2 * a.ncols();
        let cfg = SketchConfig::new(d, 512.min(d), 128.min(a.ncols()), SUITE_SEED + 1);
        out.push(Scenario {
            name: "alg3_square",
            kernel: "alg3",
            shape: shape_of(&a),
            run: Box::new(move || {
                let s = UnitUniform::<f64>::sampler(FastRng::new(cfg.seed));
                std::hint::black_box(sketch_alg3(&a, &cfg, &s));
            }),
        });
    }

    // The ±1 kernel (Table II's cheapest distribution): Rademacher's
    // sign-bit-XOR fill_axpy, the path the table times.
    {
        let (a, cfg) = (a_tall.clone(), cfg3);
        out.push(Scenario {
            name: "alg3_signs",
            kernel: "alg3 ±1",
            shape: shape_of(&a),
            run: Box::new(move || {
                let s = Rademacher::<f64>::sampler(FastRng::new(cfg.seed));
                std::hint::black_box(sketch_alg3(&a, &cfg, &s));
            }),
        });
    }

    // Algorithm 4 on the blocked-CSR form of the tall operand.
    {
        let blocked = BlockedCsr::from_csc(&a_tall, cfg3.b_n);
        let cfg = cfg3;
        out.push(Scenario {
            name: "alg4_tall",
            kernel: "alg4",
            shape: shape_of(&a_tall),
            run: Box::new(move || {
                let s = UnitUniform::<f64>::sampler(FastRng::new(cfg.seed));
                std::hint::black_box(sketch_alg4(&blocked, &cfg, &s));
            }),
        });
    }

    // SAP-QR's factor stage: Householder R of the tall operand's 2n×n
    // sketch, sketched once here so the scenario times the factor alone.
    let s = UnitUniform::<f64>::sampler(FastRng::new(cfg3.seed));
    let ahat = sketch_alg3(&a_tall, &cfg3, &s);
    let r_tall = householder_qr_r(&ahat);
    out.push(Scenario {
        name: "qr_factor",
        kernel: "householder_qr_r",
        shape: dense_shape(&ahat),
        run: Box::new(move || {
            std::hint::black_box(householder_qr_r(&ahat));
        }),
    });

    // The same stage at Table IX's shape, a γ = 2 sketch of a 600-column
    // problem, at every scale: scaled down, `qr_factor` is too small to show
    // how the threaded factor scales. QR's time does not depend on the
    // values, so a uniform dense matrix stands in for the sketch.
    {
        let mut rng = Xoshiro256PlusPlus::new(SUITE_SEED + 5);
        let wide = Matrix::from_fn(1200, 600, |_, _| u64_to_unit_f64(rng.next_u64()) - 0.5);
        out.push(Scenario {
            name: "qr_factor_wide",
            kernel: "householder_qr_r",
            shape: dense_shape(&wide),
            run: Box::new(move || {
                std::hint::black_box(householder_qr_r(&wide));
            }),
        });
    }

    // SAP-QR's preconditioner: one LSQR iteration's `R⁻¹` and `R⁻ᵀ`
    // solves with `qr_factor`'s R, repeated so one repetition is long
    // enough to time. At small scales the tall operand has empty columns,
    // whose zero diagonals SAP would hand to the SVD; the solves' time does
    // not depend on the values, so those diagonals are set to one.
    {
        let mut r = r_tall;
        let n = r.ncols();
        for j in 0..n {
            if r[(j, j)] == 0.0 {
                r[(j, j)] = 1.0;
            }
        }
        let pre = UpperTriPrecond::new(r);
        let y: Vec<f64> = (0..n).map(|i| (i % 7) as f64 - 3.0).collect();
        out.push(Scenario {
            name: "precond_pair",
            kernel: "UpperTriPrecond apply+apply_t",
            shape: format!(
                "{n}×{n} nnz {} (upper triangular), {PRECOND_PAIRS} pairs",
                n * (n + 1) / 2
            ),
            run: Box::new(move || {
                let (mut x, mut yt) = (vec![0.0; n], vec![0.0; n]);
                for _ in 0..PRECOND_PAIRS {
                    pre.apply(&y, &mut x);
                    pre.apply_t(&x, &mut yt);
                    std::hint::black_box(&yt);
                }
            }),
        });
    }

    // LSQR with diagonal preconditioning on a conditioned tall problem,
    // repeated so one repetition is long enough to time.
    let a_lsq = tall_conditioned(
        div(6000, scale),
        div(128, scale),
        0.02,
        CondSpec::chain(2.0),
        SUITE_SEED + 2,
    );
    let (b_lsq, _) = make_rhs(&a_lsq, SUITE_SEED + 3);
    {
        let (a, b) = (a_lsq.clone(), b_lsq.clone());
        out.push(Scenario {
            name: "lsqr_iter",
            kernel: "lsqr_d",
            shape: format!("{}, {LSQR_SOLVES} solves", shape_of(&a)),
            run: Box::new(move || {
                let opts = LsqrOptions {
                    atol: 1e-12,
                    btol: 1e-12,
                    max_iters: 10_000,
                    stall_window: 0,
                };
                for _ in 0..LSQR_SOLVES {
                    std::hint::black_box(solve_lsqr_d(&a, &b, &opts));
                }
            }),
        });
    }

    // The service batcher's fusion, isolated from socket I/O: four
    // same-shape sketches run back to back (what an unbatched server does
    // per connection) versus one multi-seed blocked pass over the operand
    // (what the batcher coalesces them into). The pair is the kernel-level
    // half of the PR-5 acceptance ratio; `loadgen --compare` measures the
    // same fusion end to end over the wire.
    {
        let (a, cfg) = (a_tall.clone(), cfg3);
        out.push(Scenario {
            name: "svc_sketch_seq4",
            kernel: "alg3 x4",
            shape: shape_of(&a),
            run: Box::new(move || {
                for r in 0..4u64 {
                    let s = UnitUniform::<f64>::sampler(FastRng::new(cfg.seed + r));
                    std::hint::black_box(sketch_alg3(&a, &cfg, &s));
                }
            }),
        });
    }
    {
        let (a, cfg) = (a_tall.clone(), cfg3);
        out.push(Scenario {
            name: "svc_sketch_batch4",
            kernel: "alg3_multi",
            shape: shape_of(&a),
            run: Box::new(move || {
                let samplers: Vec<_> = (0..4u64)
                    .map(|r| UnitUniform::<f64>::sampler(FastRng::new(cfg.seed + r)))
                    .collect();
                let outs = try_sketch_alg3_multi(&a, &cfg, &samplers, false);
                std::hint::black_box(outs.expect("benign batch"));
            }),
        });
    }

    // Sketch-and-precondition end to end at smoke scale.
    {
        let (a, b) = (a_lsq, b_lsq);
        out.push(Scenario {
            name: "sap_e2e",
            kernel: "sap(qr)+lsqr",
            shape: shape_of(&a),
            run: Box::new(move || {
                let opts = SapOptions {
                    gamma: 2,
                    b_d: 128,
                    b_n: 32,
                    seed: SUITE_SEED + 4,
                    flavor: SapFlavor::Qr,
                    lsqr: LsqrOptions::default(),
                };
                std::hint::black_box(try_solve_sap(&a, &b, &opts).expect("sap_e2e converges"));
            }),
        });
    }

    out
}

/// Print the scenario suite as a table — the `benchgate list` subcommand.
/// Shapes are evaluated at `1/scale` of the full gate sizes, so `list
/// --quick` shows exactly what `record --quick` would run.
pub fn print_suite(scale: usize) {
    let rows: Vec<Vec<String>> = suite(scale)
        .iter()
        .map(|sc| vec![sc.name.to_string(), sc.kernel.to_string(), sc.shape.clone()])
        .collect();
    print_table(
        &format!("benchgate suite at scale 1/{}", scale.max(1)),
        &["scenario", "kernel", "shape"],
        &rows,
    );
}

/// Percentile summary of one latency histogram, as stored in the baseline.
#[derive(Clone, Debug, PartialEq)]
pub struct HistSummary {
    /// Histogram path (e.g. `sketch/alg3/block`).
    pub path: String,
    /// Recorded samples.
    pub count: u64,
    /// p50 / p90 / p99 in nanoseconds (mid-bucket estimates).
    pub p50_ns: f64,
    /// 90th percentile.
    pub p90_ns: f64,
    /// 99th percentile.
    pub p99_ns: f64,
    /// Median absolute deviation.
    pub mad_ns: f64,
}

/// Measured results of one scenario: all repetition times, their
/// median/MAD, the deterministic counter snapshot of a single repetition,
/// and the per-block latency histograms it produced.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioResult {
    /// Scenario name (comparison key).
    pub name: String,
    /// Wall time of every repetition, in order.
    pub reps_ns: Vec<u64>,
    /// Nearest-rank median of `reps_ns`.
    pub median_ns: u64,
    /// Median absolute deviation of `reps_ns` about the median.
    pub mad_ns: u64,
    /// Minimum repetition (the steal-noise-free floor).
    pub min_ns: u64,
    /// obskit counters of one repetition, in [`Ctr`] slot order. The gate
    /// requires these to be identical across repetitions and runs.
    pub counters: [u64; NCTR],
    /// Histogram summaries of one repetition.
    pub hists: Vec<HistSummary>,
}

/// Run manifest embedded in every baseline for provenance.
#[derive(Clone, Debug, PartialEq)]
pub struct Manifest {
    /// Unix seconds when the baseline was recorded.
    pub created_unix: u64,
    /// `git rev-parse HEAD` of the working tree (or `"unknown"`).
    pub git_sha: String,
    /// [`SUITE_SEED`] the scenarios derive from.
    pub seed: u64,
    /// Size divisor the suite ran at.
    pub scale: usize,
    /// Repetitions per scenario.
    pub reps: usize,
    /// `available_parallelism` of the recording host.
    pub threads: usize,
    /// `rustc --version` of the compiler that built the recording binary.
    pub rustc: String,
    /// Target features the recording binary was compiled for.
    pub target_features: String,
    /// x86 features detected on the recording host at run time.
    pub runtime_features: String,
    /// CPU brand string of the recording host.
    pub cpu: String,
    /// obskit crate version.
    pub obskit_version: String,
    /// Whole-suite counter totals (sum over one repetition of each
    /// scenario).
    pub counters: [u64; NCTR],
    /// Measured-vs-model traffic ratio per kernel, from a calibration
    /// sketch on the suite's tall operand.
    pub traffic_ratios: Vec<(String, f64)>,
}

impl Manifest {
    /// The manifest of this binary on this host for a run under `cfg`,
    /// before any work: no counters and no traffic ratios.
    pub fn current(cfg: &GateConfig) -> Self {
        Self {
            created_unix: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
            git_sha: git_sha(),
            seed: SUITE_SEED,
            scale: cfg.scale,
            reps: cfg.reps,
            threads: ident::threads(),
            rustc: ident::rustc(),
            target_features: ident::target_features(),
            runtime_features: ident::runtime_features(),
            cpu: ident::cpu(),
            obskit_version: obskit::VERSION.to_string(),
            counters: [0; NCTR],
            traffic_ratios: Vec::new(),
        }
    }

    /// Names of the build and host fields in which `self` and `other`
    /// differ: timings are comparable only when this is empty.
    pub fn build_differences(&self, other: &Manifest) -> Vec<&'static str> {
        [
            ("rustc", self.rustc == other.rustc),
            (
                "target_features",
                self.target_features == other.target_features,
            ),
            (
                "runtime_features",
                self.runtime_features == other.runtime_features,
            ),
            ("cpu", self.cpu == other.cpu),
            ("threads", self.threads == other.threads),
        ]
        .into_iter()
        .filter(|&(_, same)| !same)
        .map(|(name, _)| name)
        .collect()
    }
}

/// A recorded `BENCH_*.json` baseline: manifest plus per-scenario results.
#[derive(Clone, Debug, PartialEq)]
pub struct Baseline {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub schema: u64,
    /// Provenance manifest.
    pub manifest: Manifest,
    /// Per-scenario measurements.
    pub scenarios: Vec<ScenarioResult>,
}

fn median_u64(sorted: &[u64]) -> u64 {
    sorted[sorted.len() / 2]
}

fn median_mad(reps: &[u64]) -> (u64, u64) {
    let mut s = reps.to_vec();
    s.sort_unstable();
    let med = median_u64(&s);
    let mut devs: Vec<u64> = s.iter().map(|&x| x.abs_diff(med)).collect();
    devs.sort_unstable();
    (med, median_u64(&devs))
}

#[cfg(not(target_arch = "wasm32"))]
fn busy_wait_ns(ns: u64) {
    let t0 = Instant::now();
    while (t0.elapsed().as_nanos() as u64) < ns {
        std::hint::spin_loop();
    }
}

/// Execute one scenario `reps` times, with [`obskit::reset`] before every
/// repetition so the global registry describes exactly one execution — the
/// fix that keeps counters from scaling with `--reps` (two identical
/// back-to-back runs report identical totals). Returns an error when the
/// deterministic counters differ between repetitions.
pub fn run_scenario(sc: &Scenario, cfg: &GateConfig) -> Result<ScenarioResult, String> {
    run_scenario_acc(sc, cfg, None)
}

// As `run_scenario`, additionally folding the first repetition's telemetry
// snapshot into `acc` (the `--obs-json` export path).
fn run_scenario_acc(
    sc: &Scenario,
    cfg: &GateConfig,
    mut acc: Option<&mut obskit::Snapshot>,
) -> Result<ScenarioResult, String> {
    let mut reps_ns = Vec::with_capacity(cfg.reps);
    let mut counters: Option<[u64; NCTR]> = None;
    let mut hists: Vec<HistSummary> = Vec::new();
    for rep in 0..cfg.reps.max(1) {
        obskit::reset();
        let t0 = Instant::now();
        (sc.run)();
        if cfg.inject_slowdown_ns > 0 {
            busy_wait_ns(cfg.inject_slowdown_ns);
        }
        reps_ns.push(t0.elapsed().as_nanos() as u64);
        let snap = obskit::snapshot();
        match &counters {
            None => {
                counters = Some(snap.counters);
                hists = snap
                    .hists
                    .iter()
                    .map(|(path, h)| HistSummary {
                        path: path.clone(),
                        count: h.count(),
                        p50_ns: h.quantile(0.5),
                        p90_ns: h.quantile(0.9),
                        p99_ns: h.quantile(0.99),
                        mad_ns: h.mad(),
                    })
                    .collect();
                if let Some(acc) = acc.as_deref_mut() {
                    merge_snapshot(acc, &snap);
                }
            }
            Some(first) => {
                if *first != snap.counters {
                    return Err(format!(
                        "scenario {}: counters differ between repetitions ({:?} vs {:?}) — \
                         work is nondeterministic, the gate cannot baseline it",
                        sc.name, first, snap.counters
                    ));
                }
                let _ = rep;
            }
        }
    }
    let (median_ns, mad_ns) = median_mad(&reps_ns);
    Ok(ScenarioResult {
        name: sc.name.to_string(),
        min_ns: reps_ns.iter().copied().min().unwrap_or(0),
        reps_ns,
        median_ns,
        mad_ns,
        counters: counters.unwrap_or([0; NCTR]),
        hists,
    })
}

// Fold snapshot `s` into `acc`: counters add, histograms merge per path
// (exact — see `Hist::merge`). Used to build the suite-wide telemetry export
// out of per-scenario snapshots that `run_scenario`'s reset-between-reps
// discipline would otherwise discard.
fn merge_snapshot(acc: &mut obskit::Snapshot, s: &obskit::Snapshot) {
    for (slot, v) in s.counters.iter().enumerate() {
        acc.counters[slot] += v;
    }
    for (path, h) in &s.hists {
        match acc.hists.iter_mut().find(|(p, _)| p == path) {
            Some((_, e)) => e.merge(h),
            None => acc.hists.push((path.clone(), h.clone())),
        }
    }
}

/// Run the whole suite at `cfg` (telemetry forced on for the duration so
/// counters and histograms are recorded; the prior gate state is restored).
pub fn run_suite(cfg: &GateConfig) -> Result<Vec<ScenarioResult>, String> {
    Ok(run_suite_with_snapshot(cfg)?.0)
}

/// As [`run_suite`], additionally returning the merged telemetry snapshot of
/// **one repetition of every scenario** — the same convention as the
/// manifest's whole-suite counters. This is what `benchgate --obs-json`
/// exports: `run_scenario` resets the registry between repetitions, so the
/// registry itself never holds more than the last repetition.
pub fn run_suite_with_snapshot(
    cfg: &GateConfig,
) -> Result<(Vec<ScenarioResult>, obskit::Snapshot), String> {
    let was = obskit::enabled();
    obskit::set_enabled(true);
    let mut acc = obskit::Snapshot::default();
    let mut results = Vec::new();
    let mut err = None;
    for sc in suite(cfg.scale) {
        match run_scenario_acc(&sc, cfg, Some(&mut acc)) {
            Ok(r) => results.push(r),
            Err(e) => {
                err = Some(e);
                break;
            }
        }
    }
    obskit::set_enabled(was);
    obskit::reset();
    match err {
        Some(e) => Err(e),
        None => {
            acc.hists.sort_by(|a, b| a.0.cmp(&b.0));
            Ok((results, acc))
        }
    }
}

/// Calibration pass for the manifest: sketch the suite's tall operand with
/// Algorithms 3 and 4 and compare the measured byte counters against the
/// §III-A cost model, as `repro smoke` does.
pub fn traffic_calibration(scale: usize) -> Vec<(String, f64)> {
    let was = obskit::enabled();
    obskit::set_enabled(true);
    obskit::reset();
    let a = datagen::uniform_random::<f64>(div(12000, scale), div(600, scale), 5e-3, SUITE_SEED);
    let d = 2 * a.ncols();
    let cfg = SketchConfig::new(d, 256.min(d), 64.min(a.ncols()), SUITE_SEED);
    let sampler = UnitUniform::<f64>::sampler(FastRng::new(cfg.seed));
    let model = CostModel::default_host();
    let rho = a.density();
    let mut out = Vec::new();
    let c0 = obskit::snapshot().counters;
    std::hint::black_box(sketch_alg3(&a, &cfg, &sampler));
    let c1 = obskit::snapshot().counters;
    let blocked = BlockedCsr::from_csc(&a, cfg.b_n);
    std::hint::black_box(sketch_alg4(&blocked, &cfg, &sampler));
    let c2 = obskit::snapshot().counters;
    for (kernel, lo, hi) in [("alg3", &c0, &c1), ("alg4", &c1, &c2)] {
        let flops = hi[Ctr::Flops as usize] - lo[Ctr::Flops as usize];
        let measured = (hi[Ctr::BytesA as usize] - lo[Ctr::BytesA as usize])
            + (hi[Ctr::BytesOut as usize] - lo[Ctr::BytesOut as usize]);
        let rep = sketchcore::TrafficReport::compare(&model, rho, cfg.b_n, flops, 8, measured);
        out.push((kernel.to_string(), rep.ratio));
    }
    obskit::set_enabled(was);
    obskit::reset();
    out
}

/// `git rev-parse HEAD`, or `"unknown"` outside a git checkout.
pub fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Record a full baseline: run the suite, the traffic calibration, and
/// assemble the manifest.
pub fn record_baseline(cfg: &GateConfig) -> Result<Baseline, String> {
    Ok(record_baseline_with_snapshot(cfg)?.0)
}

/// As [`record_baseline`], additionally returning the suite's merged
/// telemetry snapshot (see [`run_suite_with_snapshot`]) for `--obs-json`.
pub fn record_baseline_with_snapshot(
    cfg: &GateConfig,
) -> Result<(Baseline, obskit::Snapshot), String> {
    let (scenarios, snap) = run_suite_with_snapshot(cfg)?;
    let mut counters = [0u64; NCTR];
    for sc in &scenarios {
        for (slot, v) in sc.counters.iter().enumerate() {
            counters[slot] += v;
        }
    }
    let manifest = Manifest {
        counters,
        traffic_ratios: traffic_calibration(cfg.scale),
        ..Manifest::current(cfg)
    };
    Ok((
        Baseline {
            schema: SCHEMA_VERSION,
            manifest,
            scenarios,
        },
        snap,
    ))
}

// --- JSON (de)serialization --------------------------------------------

fn counters_to_json(counters: &[u64; NCTR]) -> Jval {
    Jval::Obj(
        CTR_NAMES
            .iter()
            .zip(counters.iter())
            .map(|(name, &v)| (name.to_string(), Jval::U(v)))
            .collect(),
    )
}

fn counters_from_json(v: &Jval) -> Result<[u64; NCTR], String> {
    let mut out = [0u64; NCTR];
    for (slot, name) in CTR_NAMES.iter().enumerate() {
        // Absent names default to 0: baselines recorded before a counter
        // existed (the set grows over time) stay loadable, and the JSONL
        // writer skips zero-valued counters anyway.
        out[slot] = match v.get(name) {
            Some(field) => field
                .as_u64()
                .ok_or_else(|| format!("counter field {name} is not an integer"))?,
            None => 0,
        };
    }
    Ok(out)
}

fn f64_field(v: &Jval, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Jval::as_f64)
        .ok_or_else(|| format!("missing number field {key}"))
}

fn u64_field(v: &Jval, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Jval::as_u64)
        .ok_or_else(|| format!("missing integer field {key}"))
}

fn str_field(v: &Jval, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Jval::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field {key}"))
}

/// A build-identity string field, or [`ident::UNKNOWN`] in baselines
/// recorded before the manifest carried it.
fn build_field(v: &Jval, key: &str) -> String {
    v.get(key)
        .and_then(Jval::as_str)
        .unwrap_or(ident::UNKNOWN)
        .to_string()
}

impl Baseline {
    /// Serialize as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let m = &self.manifest;
        let manifest = Jval::Obj(vec![
            ("created_unix".into(), Jval::U(m.created_unix)),
            ("git_sha".into(), Jval::Str(m.git_sha.clone())),
            ("seed".into(), Jval::U(m.seed)),
            ("scale".into(), Jval::U(m.scale as u64)),
            ("reps".into(), Jval::U(m.reps as u64)),
            ("threads".into(), Jval::U(m.threads as u64)),
            ("rustc".into(), Jval::Str(m.rustc.clone())),
            (
                "target_features".into(),
                Jval::Str(m.target_features.clone()),
            ),
            (
                "runtime_features".into(),
                Jval::Str(m.runtime_features.clone()),
            ),
            ("cpu".into(), Jval::Str(m.cpu.clone())),
            ("obskit_version".into(), Jval::Str(m.obskit_version.clone())),
            ("counters".into(), counters_to_json(&m.counters)),
            (
                "traffic_ratios".into(),
                Jval::Obj(
                    m.traffic_ratios
                        .iter()
                        .map(|(k, r)| (k.clone(), Jval::F(*r)))
                        .collect(),
                ),
            ),
        ]);
        let scenarios = Jval::Arr(
            self.scenarios
                .iter()
                .map(|sc| {
                    Jval::Obj(vec![
                        ("name".into(), Jval::Str(sc.name.clone())),
                        (
                            "reps_ns".into(),
                            Jval::Arr(sc.reps_ns.iter().map(|&t| Jval::U(t)).collect()),
                        ),
                        ("median_ns".into(), Jval::U(sc.median_ns)),
                        ("mad_ns".into(), Jval::U(sc.mad_ns)),
                        ("min_ns".into(), Jval::U(sc.min_ns)),
                        ("counters".into(), counters_to_json(&sc.counters)),
                        (
                            "hists".into(),
                            Jval::Arr(
                                sc.hists
                                    .iter()
                                    .map(|h| {
                                        Jval::Obj(vec![
                                            ("path".into(), Jval::Str(h.path.clone())),
                                            ("count".into(), Jval::U(h.count)),
                                            ("p50_ns".into(), Jval::F(h.p50_ns)),
                                            ("p90_ns".into(), Jval::F(h.p90_ns)),
                                            ("p99_ns".into(), Jval::F(h.p99_ns)),
                                            ("mad_ns".into(), Jval::F(h.mad_ns)),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        );
        Jval::Obj(vec![
            ("schema".into(), Jval::U(self.schema)),
            ("kind".into(), Jval::Str(BASELINE_KIND.into())),
            ("manifest".into(), manifest),
            ("scenarios".into(), scenarios),
        ])
        .render()
    }

    /// Parse a baseline back from its JSON text, validating the schema.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = parse(text)?;
        let kind = str_field(&v, "kind")?;
        if kind != BASELINE_KIND {
            return Err(format!("not a bench baseline (kind {kind:?})"));
        }
        let schema = u64_field(&v, "schema")?;
        if schema != SCHEMA_VERSION {
            return Err(format!(
                "baseline schema {schema} unsupported (this build reads {SCHEMA_VERSION})"
            ));
        }
        let m = v.get("manifest").ok_or("missing manifest")?;
        let manifest = Manifest {
            created_unix: u64_field(m, "created_unix")?,
            git_sha: str_field(m, "git_sha")?,
            seed: u64_field(m, "seed")?,
            scale: u64_field(m, "scale")? as usize,
            reps: u64_field(m, "reps")? as usize,
            threads: u64_field(m, "threads")? as usize,
            rustc: build_field(m, "rustc"),
            target_features: build_field(m, "target_features"),
            runtime_features: build_field(m, "runtime_features"),
            cpu: build_field(m, "cpu"),
            obskit_version: str_field(m, "obskit_version")?,
            counters: counters_from_json(m.get("counters").ok_or("missing manifest counters")?)?,
            traffic_ratios: match m.get("traffic_ratios") {
                Some(Jval::Obj(fields)) => fields
                    .iter()
                    .map(|(k, r)| {
                        r.as_f64()
                            .map(|x| (k.clone(), x))
                            .ok_or_else(|| format!("bad traffic ratio {k}"))
                    })
                    .collect::<Result<Vec<_>, _>>()?,
                _ => return Err("missing traffic_ratios".into()),
            },
        };
        let scenarios = v
            .get("scenarios")
            .and_then(Jval::as_arr)
            .ok_or("missing scenarios")?
            .iter()
            .map(|sc| {
                let reps_ns: Vec<u64> = sc
                    .get("reps_ns")
                    .and_then(Jval::as_arr)
                    .ok_or("missing reps_ns")?
                    .iter()
                    .filter_map(Jval::as_u64)
                    .collect();
                let hists = sc
                    .get("hists")
                    .and_then(Jval::as_arr)
                    .unwrap_or(&[])
                    .iter()
                    .map(|h| {
                        Ok(HistSummary {
                            path: str_field(h, "path")?,
                            count: u64_field(h, "count")?,
                            p50_ns: f64_field(h, "p50_ns")?,
                            p90_ns: f64_field(h, "p90_ns")?,
                            p99_ns: f64_field(h, "p99_ns")?,
                            mad_ns: f64_field(h, "mad_ns")?,
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(ScenarioResult {
                    name: str_field(sc, "name")?,
                    reps_ns,
                    median_ns: u64_field(sc, "median_ns")?,
                    mad_ns: u64_field(sc, "mad_ns")?,
                    min_ns: u64_field(sc, "min_ns")?,
                    counters: counters_from_json(
                        sc.get("counters").ok_or("missing scenario counters")?,
                    )?,
                    hists,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Baseline {
            schema,
            manifest,
            scenarios,
        })
    }
}

// --- the regression gate -----------------------------------------------

/// Outcome of comparing one scenario against the baseline.
#[derive(Clone, Debug, PartialEq)]
pub enum Verdict {
    /// Within threshold.
    Pass,
    /// Median faster than baseline by more than the threshold
    /// (informational; does not fail the gate).
    Improved,
    /// Median slower than baseline by more than the threshold.
    Regression,
    /// Deterministic counters differ from the baseline: the *work* changed,
    /// so the timing comparison is apples to oranges.
    WorkDrift(Vec<String>),
    /// Scenario present in only one of the two runs.
    Missing,
}

/// Per-scenario comparison row.
#[derive(Clone, Debug)]
pub struct Delta {
    /// Scenario name.
    pub name: String,
    /// Baseline median (ns); 0 when missing.
    pub base_median_ns: u64,
    /// Current median (ns); 0 when missing.
    pub cur_median_ns: u64,
    /// `(cur − base) / base`.
    pub rel_delta: f64,
    /// The applied threshold as a fraction of the baseline median.
    pub rel_threshold: f64,
    /// Verdict.
    pub verdict: Verdict,
}

/// Compare a fresh suite run against a baseline with the noise-aware
/// threshold `max(rel_tol·median_base, k·max(MAD_base, MAD_cur))`. Returns
/// the per-scenario deltas and whether the gate fails (any regression, work
/// drift, or missing scenario).
pub fn compare(
    base: &Baseline,
    current: &[ScenarioResult],
    cfg: &GateConfig,
) -> (Vec<Delta>, bool) {
    let mut deltas = Vec::new();
    let mut fail = false;
    for b in &base.scenarios {
        let Some(c) = current.iter().find(|c| c.name == b.name) else {
            fail = true;
            deltas.push(Delta {
                name: b.name.clone(),
                base_median_ns: b.median_ns,
                cur_median_ns: 0,
                rel_delta: f64::NAN,
                rel_threshold: f64::NAN,
                verdict: Verdict::Missing,
            });
            continue;
        };
        let drift: Vec<String> = CTR_NAMES
            .iter()
            .enumerate()
            .filter(|&(slot, _)| b.counters[slot] != c.counters[slot])
            .map(|(slot, name)| format!("{name}: {} → {}", b.counters[slot], c.counters[slot]))
            .collect();
        let base_med = b.median_ns.max(1);
        let thr_ns = (cfg.rel_tol * base_med as f64).max(cfg.mad_k * b.mad_ns.max(c.mad_ns) as f64);
        let rel_delta = (c.median_ns as f64 - base_med as f64) / base_med as f64;
        let rel_threshold = thr_ns / base_med as f64;
        let verdict = if !drift.is_empty() {
            fail = true;
            Verdict::WorkDrift(drift)
        } else if c.median_ns as f64 > base_med as f64 + thr_ns {
            fail = true;
            Verdict::Regression
        } else if (c.median_ns as f64) < base_med as f64 - thr_ns {
            Verdict::Improved
        } else {
            Verdict::Pass
        };
        deltas.push(Delta {
            name: b.name.clone(),
            base_median_ns: b.median_ns,
            cur_median_ns: c.median_ns,
            rel_delta,
            rel_threshold,
            verdict,
        });
    }
    for c in current {
        if !base.scenarios.iter().any(|b| b.name == c.name) {
            // New scenarios are fine (the suite grew); surface but pass.
            deltas.push(Delta {
                name: c.name.clone(),
                base_median_ns: 0,
                cur_median_ns: c.median_ns,
                rel_delta: f64::NAN,
                rel_threshold: f64::NAN,
                verdict: Verdict::Pass,
            });
        }
    }
    (deltas, fail)
}

/// Print the human-readable delta table.
pub fn print_deltas(deltas: &[Delta]) {
    let rows: Vec<Vec<String>> = deltas
        .iter()
        .map(|d| {
            let verdict = match &d.verdict {
                Verdict::Pass => "pass".to_string(),
                Verdict::Improved => "IMPROVED".to_string(),
                Verdict::Regression => "REGRESSION".to_string(),
                Verdict::WorkDrift(fields) => format!("WORK DRIFT ({})", fields.join("; ")),
                Verdict::Missing => "MISSING".to_string(),
            };
            vec![
                d.name.clone(),
                fmt_s(d.base_median_ns as f64 * 1e-9),
                fmt_s(d.cur_median_ns as f64 * 1e-9),
                if d.rel_delta.is_finite() {
                    format!("{:+.1}%", d.rel_delta * 100.0)
                } else {
                    "-".into()
                },
                if d.rel_threshold.is_finite() {
                    format!("±{:.1}%", d.rel_threshold * 100.0)
                } else {
                    "-".into()
                },
                verdict,
            ]
        })
        .collect();
    print_table(
        "benchgate — per-scenario medians vs baseline",
        &[
            "scenario",
            "base (s)",
            "now (s)",
            "Δ",
            "threshold",
            "verdict",
        ],
        &rows,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_result(name: &str, median: u64, mad: u64, counters: [u64; NCTR]) -> ScenarioResult {
        ScenarioResult {
            name: name.into(),
            reps_ns: vec![median; 3],
            median_ns: median,
            mad_ns: mad,
            min_ns: median,
            counters,
            hists: vec![],
        }
    }

    fn tiny_baseline(scenarios: Vec<ScenarioResult>) -> Baseline {
        Baseline {
            schema: SCHEMA_VERSION,
            manifest: Manifest {
                created_unix: 1,
                git_sha: "abc".into(),
                seed: SUITE_SEED,
                scale: 4,
                reps: 3,
                threads: 1,
                rustc: "rustc 1.0.0".into(),
                target_features: "fxsr,sse,sse2".into(),
                runtime_features: "avx,avx2,fma".into(),
                cpu: "Test CPU @ 1.00GHz".into(),
                obskit_version: "0.1.0".into(),
                counters: [0; NCTR],
                traffic_ratios: vec![("alg3".into(), 1.5)],
            },
            scenarios,
        }
    }

    #[test]
    fn median_mad_closed_form() {
        let (med, mad) = median_mad(&[10, 30, 20, 1000, 25]);
        assert_eq!(med, 25);
        // Deviations: {15, 5, 5, 975, 0} → sorted {0,5,5,15,975} → median 5.
        assert_eq!(mad, 5);
    }

    #[test]
    fn compare_flags_only_beyond_threshold() {
        let base = tiny_baseline(vec![tiny_result("s", 1_000_000, 10_000, [1; NCTR])]);
        let cfg = GateConfig {
            rel_tol: 0.10,
            mad_k: 4.0,
            ..GateConfig::default()
        };
        // +5% — inside the 10% floor.
        let (d, fail) = compare(
            &base,
            &[tiny_result("s", 1_050_000, 10_000, [1; NCTR])],
            &cfg,
        );
        assert!(!fail);
        assert_eq!(d[0].verdict, Verdict::Pass);
        // +50% — regression.
        let (d, fail) = compare(
            &base,
            &[tiny_result("s", 1_500_000, 10_000, [1; NCTR])],
            &cfg,
        );
        assert!(fail);
        assert_eq!(d[0].verdict, Verdict::Regression);
        // +20% but the MAD term is huge: noise absorbs it.
        let (d, fail) = compare(
            &base,
            &[tiny_result("s", 1_200_000, 100_000, [1; NCTR])],
            &cfg,
        );
        assert!(!fail, "400k MAD threshold must absorb a 200k delta");
        assert_eq!(d[0].verdict, Verdict::Pass);
        // −50% — improvement, does not fail.
        let (d, fail) = compare(&base, &[tiny_result("s", 500_000, 10_000, [1; NCTR])], &cfg);
        assert!(!fail);
        assert_eq!(d[0].verdict, Verdict::Improved);
    }

    #[test]
    fn compare_separates_work_drift_from_perf() {
        let base = tiny_baseline(vec![tiny_result("s", 1_000_000, 10_000, [1; NCTR])]);
        let cfg = GateConfig::default();
        let mut drifted = [1u64; NCTR];
        drifted[Ctr::Flops as usize] = 2;
        let (d, fail) = compare(&base, &[tiny_result("s", 1_000_000, 10_000, drifted)], &cfg);
        assert!(fail);
        assert!(matches!(&d[0].verdict, Verdict::WorkDrift(f) if f.len() == 1));
        print_deltas(&d); // must not panic
    }

    #[test]
    fn compare_flags_missing_scenarios() {
        let base = tiny_baseline(vec![tiny_result("gone", 1_000, 1, [0; NCTR])]);
        let (d, fail) = compare(&base, &[], &GateConfig::default());
        assert!(fail);
        assert_eq!(d[0].verdict, Verdict::Missing);
        // A new scenario in the current run passes.
        let (d, fail) = compare(
            &tiny_baseline(vec![]),
            &[tiny_result("new", 1_000, 1, [0; NCTR])],
            &GateConfig::default(),
        );
        assert!(!fail);
        assert_eq!(d[0].verdict, Verdict::Pass);
    }

    #[test]
    fn baseline_json_round_trips_every_field() {
        let mut counters = [0u64; NCTR];
        for (i, c) in counters.iter_mut().enumerate() {
            *c = (i as u64 + 3) * 7 % 11; // distinct nonzero-ish values per slot
        }
        let mut sc = tiny_result("alg3_tall", 123_456, 789, counters);
        sc.reps_ns = vec![123_000, 123_456, 999_999];
        sc.min_ns = 123_000;
        sc.hists = vec![HistSummary {
            path: "sketch/alg3/block".into(),
            count: 40,
            p50_ns: 1000.0,
            p90_ns: 2000.0,
            p99_ns: 3000.0,
            mad_ns: 150.0,
        }];
        let base = tiny_baseline(vec![sc]);
        let text = base.to_json();
        let back = Baseline::from_json(&text).expect("parse back");
        assert_eq!(base, back);
        assert!(base.manifest.build_differences(&back.manifest).is_empty());
        for (key, value) in [
            ("rustc", "rustc 1.0.0"),
            ("target_features", "fxsr,sse,sse2"),
            ("runtime_features", "avx,avx2,fma"),
            ("cpu", "Test CPU @ 1.00GHz"),
        ] {
            assert!(
                text.contains(&format!("\"{key}\": \"{value}\"")),
                "{key} missing from {text}"
            );
        }
    }

    #[test]
    fn build_differences_name_each_differing_field() {
        let a = tiny_baseline(vec![]).manifest;
        let mut b = a.clone();
        b.target_features = "avx2,fma".into();
        b.threads = 2;
        assert_eq!(a.build_differences(&b), ["target_features", "threads"]);
        let here = Manifest::current(&GateConfig::default());
        assert_eq!(here.build_differences(&here.clone()), Vec::<&str>::new());
        assert_ne!(here.rustc, ident::UNKNOWN);
    }

    #[test]
    fn baselines_without_build_identity_parse_as_unknown() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_0002.json");
        let text = std::fs::read_to_string(path).expect("BENCH_0002.json is committed");
        let base = Baseline::from_json(&text).expect("BENCH_0002 parses");
        let m = &base.manifest;
        for field in [&m.rustc, &m.target_features, &m.runtime_features, &m.cpu] {
            assert_eq!(field, ident::UNKNOWN);
        }
        assert_eq!(m.threads, 2);
        assert_eq!(base.scenarios.len(), 9);
        // The running build is known, so its identity strings differ.
        let differs = m.build_differences(&Manifest::current(&GateConfig::default()));
        assert!(
            differs.starts_with(&["rustc", "target_features", "runtime_features"]),
            "{differs:?}"
        );
    }

    #[test]
    fn from_json_rejects_wrong_kind_and_schema() {
        assert!(Baseline::from_json("{\"kind\": \"other\", \"schema\": 1}").is_err());
        let good = tiny_baseline(vec![]).to_json();
        let wrong_schema = good.replace("\"schema\": 1", "\"schema\": 99");
        assert!(Baseline::from_json(&wrong_schema).is_err());
        assert!(Baseline::from_json("not json").is_err());
    }

    #[test]
    fn suite_scenarios_have_unique_names() {
        let names: Vec<&str> = suite(16).iter().map(|s| s.name).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(names.len(), dedup.len());
        assert!(names.len() >= 5, "suite must cover kernels and solvers");
    }

    #[test]
    fn suite_metadata_is_populated() {
        for sc in suite(16) {
            assert!(!sc.kernel.is_empty(), "{} has no kernel", sc.name);
            assert!(
                sc.shape.contains('×') && sc.shape.contains("nnz"),
                "{} has malformed shape {:?}",
                sc.name,
                sc.shape
            );
        }
        print_suite(16); // must not panic
    }

    #[test]
    fn merge_snapshot_adds_counters_spans_and_hists() {
        use obskit::Hist;
        let mut acc = obskit::Snapshot::default();
        // A span's record is its histogram, so merging histograms merges
        // spans too.
        let mut h1 = Hist::new();
        h1.record(100);
        let s1 = obskit::Snapshot {
            hists: vec![("lstsq/sap".into(), h1.clone())],
            counters: {
                let mut c = [0; NCTR];
                c[Ctr::Samples as usize] = 5;
                c
            },
        };
        merge_snapshot(&mut acc, &s1);
        merge_snapshot(&mut acc, &s1);
        assert_eq!(acc.counters[Ctr::Samples as usize], 10);
        assert_eq!((acc.hists[0].1.count(), acc.hists[0].1.sum()), (2, 200));
        // A second path lands as its own entry.
        let s2 = obskit::Snapshot {
            hists: vec![("b".into(), h1)],
            ..obskit::Snapshot::default()
        };
        merge_snapshot(&mut acc, &s2);
        assert_eq!(acc.hists.len(), 2);
    }
}
