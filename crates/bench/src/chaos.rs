//! The chaoscheck matrix: every fault × every scenario, asserting the
//! hardened entry points never panic, abort, or hang.
//!
//! Each cell runs one scenario (hardened sketch, sequential or parallel,
//! or a self-healing SAP solve) under one fault (none, an armed faultkit
//! plan, a structural corruption of the input, an abnormal input, or a
//! tight memory budget) on its own thread with a watchdog timeout. The
//! outcome is classified as:
//!
//! * `clean_ok` — succeeded, no recovery machinery engaged;
//! * `recovered` — succeeded after retries or a QR→SVD fallback (read off
//!   the `sap.retries` / `sap.fallback_svd` counter deltas);
//! * `typed_error` — failed with a typed [`sketchcore::SketchError`] or
//!   [`lstsq::SolveError`];
//! * `panicked` / `hung` — the two outcomes the hardening layer promises
//!   never happen; any such cell fails the binary.
//!
//! Faultkit plans and `SKETCH_MEM_BUDGET` are process-global, so cells run
//! strictly sequentially.

use lstsq::sap::{try_solve_sap_with, RecoveryPolicy, SapFlavor, SapOptions};
use lstsq::LsqrOptions;
use rngkit::{FastRng, UnitUniform};
use sketchcore::{try_sketch_alg3, try_sketch_alg3_par_cols, SketchConfig};
use sparsekit::corrupt::{corrupt_csc, Corruption};
use sparsekit::CscMatrix;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// One fault to inject (or not) into a scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Baseline: no fault armed.
    None,
    /// `sketch/nan_stream=once` — poison one regenerated sample.
    NanStream,
    /// `parkit/worker=once` — panic the first parallel worker item.
    WorkerPanic,
    /// Structural corruption of the input's CSC arrays.
    Corrupt(Corruption),
    /// NaN payloads in a structurally valid input.
    NanInput,
    /// Input with exactly dependent columns (rank deficiency).
    RankDeficientInput,
    /// Column scales spanning ten decades.
    BadlyScaledInput,
    /// `SKETCH_MEM_BUDGET` squeezed to one byte below the output size.
    TightBudget,
}

impl Fault {
    /// Stable label for reports.
    pub fn label(&self) -> String {
        match self {
            Fault::None => "none".into(),
            Fault::NanStream => "nan_stream_once".into(),
            Fault::WorkerPanic => "worker_panic_once".into(),
            Fault::Corrupt(c) => format!("corrupt_{c:?}").to_lowercase(),
            Fault::NanInput => "nan_input".into(),
            Fault::RankDeficientInput => "rank_deficient_input".into(),
            Fault::BadlyScaledInput => "badly_scaled_input".into(),
            Fault::TightBudget => "tight_budget".into(),
        }
    }
}

/// One hardened entry point under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scenario {
    /// [`try_sketch_alg3`] (sequential).
    SketchSeq,
    /// [`try_sketch_alg3_par_cols`] on 2 threads.
    SketchPar,
    /// [`try_solve_sap_with`], QR flavour.
    SapQr,
    /// [`try_solve_sap_with`], SVD flavour.
    SapSvd,
}

impl Scenario {
    /// Stable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Scenario::SketchSeq => "sketch_seq",
            Scenario::SketchPar => "sketch_par",
            Scenario::SapQr => "sap_qr",
            Scenario::SapSvd => "sap_svd",
        }
    }
}

/// How a cell ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Success with no recovery machinery engaged.
    CleanOk,
    /// Success after retries or a QR→SVD fallback.
    Recovered,
    /// A typed error — the contract under fault.
    TypedError,
    /// The scenario panicked through the hardened entry point. Forbidden.
    Panicked,
    /// The watchdog expired. Forbidden.
    Hung,
}

impl Outcome {
    /// Stable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::CleanOk => "clean_ok",
            Outcome::Recovered => "recovered",
            Outcome::TypedError => "typed_error",
            Outcome::Panicked => "panicked",
            Outcome::Hung => "hung",
        }
    }
}

/// One cell of the matrix.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Scenario label.
    pub scenario: &'static str,
    /// Fault label.
    pub fault: String,
    /// Classified outcome.
    pub outcome: Outcome,
    /// Human-oriented detail (error display, retry counts, …).
    pub detail: String,
    /// Wall-clock milliseconds.
    pub elapsed_ms: u64,
}

impl Cell {
    /// One JSONL record.
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"scenario\":\"{}\",\"fault\":\"{}\",\"outcome\":\"{}\",\"detail\":\"{}\",\"elapsed_ms\":{}}}",
            self.scenario,
            self.fault,
            self.outcome.label(),
            self.detail.replace('\\', "\\\\").replace('"', "\\'").replace('\n', " "),
            self.elapsed_ms
        )
    }
}

/// Problem sizes for one matrix sweep.
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// Input rows.
    pub m: usize,
    /// Input columns.
    pub n: usize,
    /// Nonzeros per column of the benign input.
    pub nnz_per_col: usize,
    /// Watchdog per cell.
    pub timeout: Duration,
}

impl ChaosConfig {
    /// The full-size sweep.
    pub fn full() -> Self {
        Self {
            m: 2000,
            n: 64,
            nnz_per_col: 12,
            timeout: Duration::from_secs(120),
        }
    }

    /// The `--quick` smoke sweep for verify.sh.
    pub fn quick() -> Self {
        Self {
            m: 400,
            n: 24,
            nnz_per_col: 6,
            timeout: Duration::from_secs(60),
        }
    }
}

/// The fault list for a sweep (`quick` drops the redundant corruptions).
pub fn faults(quick: bool) -> Vec<Fault> {
    let mut f = vec![
        Fault::None,
        Fault::NanStream,
        Fault::WorkerPanic,
        Fault::Corrupt(Corruption::OutOfBoundsIndex),
        Fault::NanInput,
        Fault::RankDeficientInput,
        Fault::TightBudget,
    ];
    if !quick {
        f.extend([
            Fault::Corrupt(Corruption::SwapAdjacentIndices),
            Fault::Corrupt(Corruption::NonMonotonePtr),
            Fault::Corrupt(Corruption::NanValue),
            Fault::Corrupt(Corruption::InfValue),
            Fault::BadlyScaledInput,
        ]);
    }
    f
}

/// All scenarios.
pub fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario::SketchSeq,
        Scenario::SketchPar,
        Scenario::SapQr,
        Scenario::SapSvd,
    ]
}

fn benign_input(cfg: &ChaosConfig) -> CscMatrix<f64> {
    datagen::tall_conditioned(
        cfg.m,
        cfg.n,
        cfg.nnz_per_col as f64 / cfg.m as f64,
        datagen::CondSpec::WELL,
        17,
    )
}

/// Build the input this fault calls for (benign unless the fault *is* the
/// input). `None` means the corruption could not be hosted (tiny matrix).
fn input_for(fault: Fault, cfg: &ChaosConfig) -> Option<CscMatrix<f64>> {
    match fault {
        Fault::Corrupt(kind) => corrupt_csc(&benign_input(cfg), kind, 5),
        Fault::NanInput => Some(datagen::nan_laced(cfg.m, cfg.n, cfg.nnz_per_col, 3, 23)),
        Fault::RankDeficientInput => Some(datagen::rank_deficient(
            cfg.m,
            cfg.n,
            (cfg.n / 2).max(1),
            cfg.nnz_per_col,
            29,
        )),
        Fault::BadlyScaledInput => Some(datagen::badly_scaled(
            cfg.m,
            cfg.n,
            cfg.nnz_per_col,
            10.0,
            31,
        )),
        _ => Some(benign_input(cfg)),
    }
}

/// Arm process-global fault state for a cell; the guard restores it.
struct Armed {
    budget_set: bool,
}

impl Armed {
    fn arm(fault: Fault, cfg: &ChaosConfig) -> Self {
        faultkit::clear();
        let plan = match fault {
            Fault::NanStream => Some("sketch/nan_stream=once"),
            Fault::WorkerPanic => Some("parkit/worker=once"),
            _ => None,
        };
        if let Some(p) = plan {
            // The spec is a compile-time constant; parsing cannot fail.
            if faultkit::set_plan_str(p, 0xC0FFEE).is_err() {
                unreachable!("static fault plan must parse: {p}");
            }
        }
        let budget_set = fault == Fault::TightBudget;
        if budget_set {
            // Every scenario sketches at d = 2n, so the output is 2n²·8
            // bytes; one byte less must be refused with a typed error.
            let out = 2 * cfg.n as u64 * cfg.n as u64 * 8;
            std::env::set_var("SKETCH_MEM_BUDGET", (out - 1).to_string());
        }
        Self { budget_set }
    }
}

impl Drop for Armed {
    fn drop(&mut self) {
        faultkit::clear();
        if self.budget_set {
            std::env::remove_var("SKETCH_MEM_BUDGET");
        }
    }
}

fn run_scenario(scenario: Scenario, a: &CscMatrix<f64>) -> Result<String, String> {
    let cfg = SketchConfig::new(2 * a.ncols(), 16, 8, 7);
    let sampler = UnitUniform::<f64>::sampler(FastRng::new(cfg.seed));
    match scenario {
        Scenario::SketchSeq => try_sketch_alg3(a, &cfg, &sampler)
            .map(|m| format!("sketch {}x{}", m.nrows(), m.ncols()))
            .map_err(|e| e.to_string()),
        Scenario::SketchPar => {
            parkit::with_threads(2, || try_sketch_alg3_par_cols(a, &cfg, &sampler))
                .map(|m| format!("sketch {}x{}", m.nrows(), m.ncols()))
                .map_err(|e| e.to_string())
        }
        Scenario::SapQr | Scenario::SapSvd => {
            let flavor = if scenario == Scenario::SapQr {
                SapFlavor::Qr
            } else {
                SapFlavor::Svd
            };
            let b: Vec<f64> = (0..a.nrows())
                .map(|i| ((i * 31) % 17) as f64 - 8.0)
                .collect();
            let opts = SapOptions {
                gamma: 2,
                b_d: 16,
                b_n: 8,
                seed: 7,
                flavor,
                lsqr: LsqrOptions {
                    atol: 1e-12,
                    btol: 1e-12,
                    max_iters: 5000,
                    stall_window: 0,
                },
            };
            let policy = RecoveryPolicy {
                max_attempts: 3,
                stall_window: 400,
            };
            try_solve_sap_with(a, &b, &opts, &policy)
                .map(|rep| {
                    format!(
                        "iters={} rank={} retries={} fallback_svd={}",
                        rep.iters, rep.rank, rep.retries, rep.fallback_svd
                    )
                })
                .map_err(|e| e.to_string())
        }
    }
}

/// Counter deltas that count as "the recovery machinery engaged".
fn recovery_delta(before: &[u64], after: &[u64]) -> u64 {
    [obskit::Ctr::SapRetries, obskit::Ctr::SapFallbackSvd]
        .iter()
        .map(|&c| after[c as usize].saturating_sub(before[c as usize]))
        .sum()
}

/// Run one cell: scenario under fault, on a watchdogged thread.
pub fn run_cell(scenario: Scenario, fault: Fault, cfg: &ChaosConfig) -> Cell {
    let t0 = Instant::now();
    let Some(a) = input_for(fault, cfg) else {
        return Cell {
            scenario: scenario.label(),
            fault: fault.label(),
            outcome: Outcome::CleanOk,
            detail: "corruption not hostable at this size; skipped".into(),
            elapsed_ms: 0,
        };
    };
    let before = obskit::snapshot().counters;
    let _armed = Armed::arm(fault, cfg);

    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let out = catch_unwind(AssertUnwindSafe(|| run_scenario(scenario, &a)));
        obskit::flush_thread();
        // The receiver may have timed out and gone away; nothing to do then.
        let _ = tx.send(out);
    });

    let (outcome, detail) = match rx.recv_timeout(cfg.timeout) {
        Ok(Ok(Ok(detail))) => {
            let after = obskit::snapshot().counters;
            if recovery_delta(&before, &after) > 0 {
                (Outcome::Recovered, detail)
            } else {
                (Outcome::CleanOk, detail)
            }
        }
        Ok(Ok(Err(e))) => (Outcome::TypedError, e),
        Ok(Err(p)) => (
            Outcome::Panicked,
            sketchcore::error::panic_payload_to_string(p.as_ref()),
        ),
        Err(_) => (Outcome::Hung, format!("no result within {:?}", cfg.timeout)),
    };
    if outcome != Outcome::Hung {
        // Joining is safe: the worker already sent its result.
        let _ = handle.join();
    }
    Cell {
        scenario: scenario.label(),
        fault: fault.label(),
        outcome,
        detail,
        elapsed_ms: t0.elapsed().as_millis() as u64,
    }
}

/// Sweep the whole matrix sequentially.
pub fn run_matrix(cfg: &ChaosConfig, quick: bool) -> Vec<Cell> {
    let mut cells = Vec::new();
    for scenario in scenarios() {
        for fault in faults(quick) {
            cells.push(run_cell(scenario, fault, cfg));
        }
    }
    cells
}

// --- service cells ------------------------------------------------------

/// A `sketchd` failpoint swept against a live in-process server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SvcFault {
    /// Baseline: clean request/response.
    None,
    /// `svc/accept=once` — the accepted connection is dropped before any
    /// byte is read.
    Accept,
    /// `svc/decode=once` — a request fails at decode time; the server
    /// answers a typed `BadRequest` frame and the connection survives.
    Decode,
    /// `svc/dispatch=once` — the worker panics mid-request inside its
    /// containment; the server answers a typed `Internal` frame and the
    /// queue is not poisoned.
    Dispatch,
    /// `svc/reply=once` — the reply write is shot down; the client sees a
    /// closed connection, the worker moves on.
    Reply,
}

impl SvcFault {
    /// Stable label for reports.
    pub fn label(&self) -> String {
        match self {
            SvcFault::None => "none".into(),
            SvcFault::Accept => "svc_accept_once".into(),
            SvcFault::Decode => "svc_decode_once".into(),
            SvcFault::Dispatch => "svc_dispatch_once".into(),
            SvcFault::Reply => "svc_reply_once".into(),
        }
    }

    fn plan(&self) -> Option<&'static str> {
        match self {
            SvcFault::None => None,
            SvcFault::Accept => Some("svc/accept=once"),
            SvcFault::Decode => Some("svc/decode=once"),
            SvcFault::Dispatch => Some("svc/dispatch=once"),
            SvcFault::Reply => Some("svc/reply=once"),
        }
    }
}

/// All service failpoints.
pub fn svc_faults() -> Vec<SvcFault> {
    vec![
        SvcFault::None,
        SvcFault::Accept,
        SvcFault::Decode,
        SvcFault::Dispatch,
        SvcFault::Reply,
    ]
}

/// Clears the process-global fault plan on scope exit (including unwind,
/// so a failed assertion cannot leak a plan into the next cell).
struct ArmedSvc;

impl ArmedSvc {
    fn arm(plan: &str) -> Self {
        if faultkit::set_plan_str(plan, 0xC0FFEE).is_err() {
            unreachable!("static fault plan must parse: {plan}");
        }
        ArmedSvc
    }
}

impl Drop for ArmedSvc {
    fn drop(&mut self) {
        faultkit::clear();
    }
}

/// One faulted client/server interaction against a fresh in-process
/// `sketchd`. Contract violations panic (→ `Outcome::Panicked`, which
/// fails the binary); the return value is the cell detail.
fn service_interaction(fault: SvcFault, cfg: &ChaosConfig) -> String {
    use sketchd::proto::Status;
    let timeout = Duration::from_secs(10);
    let server =
        sketchd::Server::start(sketchd::ServerConfig::default()).expect("bind ephemeral port");
    let addr = server.addr();
    let mut c = sketchd::Client::connect(addr, timeout).expect("connect");
    let density = cfg.nnz_per_col as f64 / cfg.m as f64;
    c.load_generated("chaos", cfg.m as u64, cfg.n as u64, density, 17)
        .expect("load");
    let d = 2 * cfg.n as u64;
    let detail = {
        let _armed = fault.plan().map(ArmedSvc::arm);
        match fault {
            SvcFault::None => {
                let r = c.sketch("chaos", d, 16, 8, 7, 0, 0).expect("clean sketch");
                format!("clean sketch served, batch {}", r.batch())
            }
            SvcFault::Accept => {
                let dropped = sketchd::Client::connect(addr, Duration::from_millis(500))
                    .and_then(|mut c2| c2.health().map(|_| ()));
                assert!(dropped.is_err(), "faulted accept must not serve");
                "accepted connection dropped; typed client error".into()
            }
            SvcFault::Decode => {
                let e = c
                    .sketch("chaos", d, 16, 8, 7, 0, 0)
                    .expect_err("decode fault");
                assert_eq!(e.status(), Some(Status::BadRequest), "got {e}");
                format!("typed error frame: {e}")
            }
            SvcFault::Dispatch => {
                let e = c
                    .sketch("chaos", d, 16, 8, 7, 0, 0)
                    .expect_err("dispatch fault");
                assert_eq!(e.status(), Some(Status::Internal), "got {e}");
                format!("typed error frame: {e}")
            }
            SvcFault::Reply => {
                let e = c
                    .sketch("chaos", d, 16, 8, 7, 0, 0)
                    .expect_err("reply fault");
                assert!(
                    e.status().is_none(),
                    "reply fault closes the connection: {e}"
                );
                format!("connection closed by reply fault: {e}")
            }
        }
    };
    // Recovery: with the plan cleared, a fresh connection must be served
    // by the same (alive) worker pool, then shut the server down cleanly.
    let mut c2 = sketchd::Client::connect(addr, timeout).expect("reconnect after fault");
    c2.sketch("chaos", d, 16, 8, 7, 0, 0)
        .expect("service must survive the fault");
    c2.shutdown().expect("shutdown");
    server.join();
    format!("{detail}; recovered, clean shutdown")
}

/// Run one service cell on a watchdogged thread.
pub fn run_service_cell(fault: SvcFault, cfg: &ChaosConfig) -> Cell {
    let t0 = Instant::now();
    faultkit::clear();
    let (tx, rx) = mpsc::channel();
    let cfg2 = *cfg;
    let handle = std::thread::spawn(move || {
        let out = catch_unwind(AssertUnwindSafe(|| service_interaction(fault, &cfg2)));
        obskit::flush_thread();
        let _ = tx.send(out);
    });
    let (outcome, detail) = match rx.recv_timeout(cfg.timeout) {
        Ok(Ok(detail)) => {
            let outcome = if fault == SvcFault::None {
                Outcome::CleanOk
            } else {
                Outcome::TypedError
            };
            (outcome, detail)
        }
        Ok(Err(p)) => (
            Outcome::Panicked,
            sketchcore::error::panic_payload_to_string(p.as_ref()),
        ),
        Err(_) => (Outcome::Hung, format!("no result within {:?}", cfg.timeout)),
    };
    if outcome != Outcome::Hung {
        let _ = handle.join();
    }
    faultkit::clear();
    Cell {
        scenario: "svc_roundtrip",
        fault: fault.label(),
        outcome,
        detail,
        elapsed_ms: t0.elapsed().as_millis() as u64,
    }
}

/// Sweep every service failpoint sequentially.
pub fn run_service_matrix(cfg: &ChaosConfig) -> Vec<Cell> {
    svc_faults()
        .into_iter()
        .map(|f| run_service_cell(f, cfg))
        .collect()
}
