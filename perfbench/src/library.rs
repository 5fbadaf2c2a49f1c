//! Library workloads: one caller in a closed loop on a hardened entry
//! point. The clock covers the call itself.

use crate::check;
use crate::trace::Tracer;
use crate::{layers, ms, op_seed, stats, Args, Report, Size, SETUP_REPS};
use lstsq::{LsqrOptions, Preconditioner, RecoveryPolicy, SapOptions, UpperTriPrecond};
use sketchcore::SketchConfig;
use sparsekit::CscMatrix;
use std::time::Instant;

struct SapParams {
    m: usize,
    n: usize,
    density: f64,
}

fn sap_params(size: Size) -> SapParams {
    match size {
        // The spal_004-shaped stand-in of Table IX at a size one op can
        // repeat ~20 times a run.
        Size::Full => SapParams {
            m: 9600,
            n: 300,
            density: 0.014,
        },
        Size::Tiny => SapParams {
            m: 1200,
            n: 40,
            density: 0.05,
        },
    }
}

fn sap_opts(seed: u64) -> SapOptions {
    SapOptions {
        gamma: 2,
        seed,
        ..SapOptions::default()
    }
}

/// `sap`: `try_solve_sap` (γ=2, default recovery) on a fixed problem with
/// a fresh sketch seed per op; each solution's normal-equation residual is
/// checked.
pub fn sap(args: &Args, r: &mut Report) -> Result<Tracer, String> {
    let p = sap_params(args.size);
    let mut setups = Vec::new();
    let mut gen_ms = Vec::new();
    let mut a = CscMatrix::<f64>::zeros(1, 1);
    let mut b = Vec::new();
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        a = datagen::tall_conditioned(
            p.m,
            p.n,
            p.density,
            datagen::lsq::paper_spec("spal_004"),
            args.seed,
        );
        b = datagen::make_rhs(&a, args.seed ^ 0xB).0;
        gen_ms.push(ms(t0, Instant::now()));
        let opts = sap_opts(op_seed(args.seed, u64::MAX - rep as u64));
        lstsq::try_solve_sap(&a, &b, &opts).map_err(|e| format!("warm-up solve failed: {e}"))?;
        setups.push(t0.elapsed().as_secs_f64());
    }
    r.note(format!(
        "A: {}x{} nnz={} (spal_004 recipe); gamma=2 b_d={} b_n={}",
        a.nrows(),
        a.ncols(),
        a.nnz(),
        sap_opts(0).b_d,
        sap_opts(0).b_n
    ));

    let mut tr = Tracer::new(args.trace, Instant::now());
    let (mut lat, mut lat_traced) = (Vec::new(), Vec::new());
    let (mut iters, mut residuals) = (Vec::new(), Vec::new());
    let (mut retries, mut fallbacks) = (0u64, 0u64);
    let mut phases = [Vec::new(), Vec::new(), Vec::new()];
    let mut first_x: Option<(u64, Vec<f64>)> = None;
    let phase = Instant::now();
    let mut i = 0u64;
    while phase.elapsed() < args.phase() {
        let traced = args.traced_at(phase.elapsed());
        let opts = sap_opts(op_seed(args.seed, i));
        r.attempted += 1;
        let t0 = Instant::now();
        let out = lstsq::try_solve_sap(&a, &b, &opts);
        let t1 = Instant::now();
        match out
            .map_err(|e| e.to_string())
            .and_then(|rep| check::check_sap(&a, &rep.x, &b).map(|res| (rep, res)))
        {
            Ok((rep, res)) => {
                if traced {
                    lat_traced.push(ms(t0, t1));
                    let op = tr.record("op", None, i, t0, t1);
                    tr.record("lstsq.try_solve_sap", op, i, t0, t1);
                    phases[0].push(rep.sketch_s * 1e3);
                    phases[1].push(rep.factor_s * 1e3);
                    phases[2].push(rep.solve_s * 1e3);
                    // The replay follows the first attempt only.
                    if first_x.is_none() && rep.retries == 0 && !rep.fallback_svd {
                        first_x = Some((opts.seed, rep.x.clone()));
                    }
                } else {
                    lat.push(ms(t0, t1));
                }
                iters.push(rep.iters as f64);
                residuals.push(res);
                retries += rep.retries as u64;
                fallbacks += rep.fallback_svd as u64;
            }
            Err(e) => {
                r.failed += 1;
                r.note(format!("op {i} failed: {e}"));
            }
        }
        i += 1;
    }
    let phase_s = phase.elapsed().as_secs_f64();
    r.note(format!(
        "LSQR iterations min/median/max {}/{}/{}; normal-equation residual max {:.2e} (tolerance {:.0e})",
        iters.iter().copied().fold(f64::INFINITY, f64::min),
        stats::median(&iters),
        stats::max(&iters),
        stats::max(&residuals),
        check::SAP_TOL
    ));
    if !args.trace {
        r.set_end_to_end(&lat, phase_s, &setups);
        return Ok(tr);
    }
    r.set("datagen.gen_ms", stats::median(&gen_ms));
    r.set("obskit.trace_overhead", stats::overhead(&lat_traced, &lat));
    r.set("lstsq.lsqr_iters", stats::median(&iters));
    r.set("lstsq.sap_retries", retries as f64);
    r.set("lstsq.sap_fallback_svd", fallbacks as f64);
    r.set("sparsekit.validate_ms", layers::validate_ms(&a));
    let (seed, x_ref) = first_x.ok_or("no traced SAP op completed")?;
    sap_replay(r, &mut tr, &a, &b, seed, &x_ref, Some(&phases))?;
    Ok(tr)
}

/// Band a replayed SAP phase's median time must fall in, as a multiple of
/// the median `SapReport` gives for that phase. Both time the same call on
/// the same inputs minutes apart; the band is wide enough for the host's
/// own speed drift and catches a replay that times different work.
pub const PHASE_RATIO: (f64, f64) = (1.0 / 3.0, 3.0);

/// Replay one SAP solve through each layer's own public function —
/// `try_sketch_alg3_par_cols`, `householder_qr_r`, `lsqr` with
/// `UpperTriPrecond` — with the sketch seed of a solve whose solution was
/// `x_ref`, and cross-check against `SapReport`'s phase split (per-phase
/// medians in ms, when given). A replayed solution that differs from
/// `x_ref`, or a phase outside [`PHASE_RATIO`], counts as a failed op.
pub fn sap_replay(
    r: &mut Report,
    tr: &mut Tracer,
    a: &CscMatrix<f64>,
    b: &[f64],
    seed: u64,
    x_ref: &[f64],
    phases: Option<&[Vec<f64>; 3]>,
) -> Result<(), String> {
    let opts = sap_opts(seed);
    let n = a.ncols();
    let d = opts.gamma * n;
    let cfg = SketchConfig::new(d, opts.b_d, opts.b_n, seed);
    let sampler = crate::check::sampler(seed);
    let policy = RecoveryPolicy::default();
    let lsqr_opts = LsqrOptions {
        stall_window: policy.stall_window,
        ..opts.lsqr
    };
    let (mut sk, mut qr, mut ls) = (Vec::new(), Vec::new(), Vec::new());
    let mut x_replay = Vec::new();
    let mut iters = 0usize;
    let mut ahat_keep = None;
    let mut pre_keep = None;
    for rep in 0..3u64 {
        let req = 1_000_000 + rep;
        let root = tr.begin("replay", None, req);
        let t = Instant::now();
        let mut ahat = sketchcore::try_sketch_alg3_par_cols(a, &cfg, &sampler)
            .map_err(|e| format!("replay sketch: {e}"))?;
        let t_s = Instant::now();
        ahat.scale(1.0 / ((d as f64) / 3.0).sqrt());
        let t_q0 = Instant::now();
        let rfac = densekit::householder_qr_r(&ahat);
        let t_q1 = Instant::now();
        let pre = UpperTriPrecond::new(rfac);
        let mut aop = lstsq::CscOp::new(a);
        let mut pop = lstsq::PrecondOp::new(&mut aop, &pre);
        let t_l0 = Instant::now();
        let res = lstsq::lsqr(&mut pop, b, &lsqr_opts);
        let t_l1 = Instant::now();
        let mut x = vec![0.0; n];
        pre.apply(&res.x, &mut x);
        tr.end(root);
        tr.record("sketchcore.try_sketch_alg3_par_cols", root, req, t, t_s);
        tr.record("densekit.householder_qr_r", root, req, t_q0, t_q1);
        tr.record("lstsq.lsqr", root, req, t_l0, t_l1);
        sk.push(ms(t, t_s));
        qr.push(ms(t_q0, t_q1));
        ls.push(ms(t_l0, t_l1));
        x_replay = x;
        iters = res.iters;
        ahat_keep = Some(ahat);
        pre_keep = Some(pre);
    }
    let (ahat, pre) = match (ahat_keep, pre_keep) {
        (Some(a), Some(p)) => (a, p),
        _ => return Err("replay produced nothing".into()),
    };
    // The replay is the solver's own sequence of layer calls: it must
    // reproduce the op's solution bit for bit, and each replayed phase must
    // take about as long as `SapReport` says that phase took in the ops.
    let mut bad = Vec::new();
    if x_replay != x_ref {
        bad.push("replayed x differs from try_solve_sap's x with the same seed".to_string());
    }
    r.note(format!(
        "replay vs try_solve_sap (same seed): x {} ({} LSQR iterations)",
        if x_replay == x_ref {
            "bitwise equal"
        } else {
            "differs"
        },
        iters
    ));
    let names = ["sketch", "factor", "lsqr"];
    for (k, (rep_ms, replay_ms)) in phases
        .into_iter()
        .flatten()
        .zip([&sk, &qr, &ls])
        .enumerate()
    {
        let ratio = stats::median(replay_ms) / stats::median(rep_ms);
        r.note(format!(
            "phase {}: SapReport median {:.2} ms, replay median {:.2} ms (ratio {ratio:.3})",
            names[k],
            stats::median(rep_ms),
            stats::median(replay_ms),
        ));
        if !(PHASE_RATIO.0..=PHASE_RATIO.1).contains(&ratio) {
            bad.push(format!(
                "replayed {} phase is {ratio:.3}x SapReport's, outside {PHASE_RATIO:?}",
                names[k]
            ));
        }
    }
    r.failed += bad.len() as u64;
    for b in &bad {
        r.note(format!("failed: {b}"));
    }
    let peak = layers::peak_gflops();
    let sketch_ms = stats::median(&sk);
    layers::kernel_metrics(r, a, &cfg, 1, sketch_ms, peak);
    let seq_ns =
        stats::time_median_ns(3, || sketchcore::try_sketch_alg3(a, &cfg, &sampler).is_ok());
    r.set("parkit.par_speedup", seq_ns / 1e6 / sketch_ms);
    let (seek, fill) = layers::seek_fill(a, &cfg, 200_000);
    r.set("rngkit.seek_ns", seek);
    r.set("rngkit.fill_ns_per_sample", fill);
    let (qr_ms, qr_gflops) = layers::qr(&ahat, 3);
    r.set("densekit.qr_ms", qr_ms);
    r.set("densekit.qr_gflops", qr_gflops);
    r.set("densekit.qr_peak_frac", qr_gflops / peak);
    let lsqr_ms = stats::median(&ls);
    r.set("lstsq.lsqr_ms", lsqr_ms);
    r.set(
        "lstsq.lsqr_ns_per_iter",
        lsqr_ms * 1e6 / iters.max(1) as f64,
    );
    let (spmv, prec) = layers::lsqr_pairs(a, &pre, 51);
    r.set("lstsq.spmv_pair_ns", spmv);
    r.set("lstsq.precond_pair_ns", prec);
    Ok(())
}
