//! The `sketchd` server: acceptor → bounded queue → batching workers.
//!
//! Threading model (all std):
//!
//! * One **acceptor** thread blocks on [`std::net::TcpListener::accept`]
//!   and spawns a connection thread per client.
//! * One **connection** thread per client frames requests off the socket
//!   ([`crate::proto::FrameReader`] with a short read timeout so it can poll the
//!   shutdown flag), answers `Health`/`Stats`/`Shutdown` inline, and
//!   pushes work ops (`LoadMatrix`/`Sketch`/`SolveSap`) onto the shared
//!   queue under admission control.
//! * A **worker host** thread runs the worker loops via
//!   [`parkit::for_each`] — the same fork/join substrate as the kernels,
//!   so worker panics are contained, stashed and re-raised by parkit, and
//!   per-thread telemetry is flushed at the join.
//!
//! Admission control is three gates at enqueue time: shutting-down →
//! `ShuttingDown`, queue at `queue_cap` → `Overloaded` (plus the
//! `svc.rejected_overload` counter), malformed request → `BadRequest`.
//! Deadlines are enforced again at dispatch: a request whose relative
//! deadline passed while queued is answered `DeadlineExceeded` without
//! running its kernel (`svc.deadline_missed`).
//!
//! The **batcher** lives in the worker loop: after popping a `Sketch` job
//! it drains up to `batch_max − 1` further queued `Sketch` jobs against
//! the same `(name, d, b_d, b_n)` and serves them all with one
//! [`sketchcore::try_sketch_alg3_multi`] pass — one traversal of `A` for the
//! whole batch. Responses are per-request and bitwise identical to
//! sequential execution (the kernel's contract, re-asserted by the
//! service tests).
//!
//! Telemetry is **snapshot-and-diff**: the server takes an
//! [`obskit::snapshot`] baseline at startup and every `Stats` request
//! subtracts it with [`obskit::Snapshot::counters_since`]. The server
//! never calls `obskit::reset()` — see the warning on that function.
//!
//! Failpoints (swept by chaoscheck's service cells):
//! `svc/accept` drops a just-accepted connection, `svc/decode` fails a
//! request at decode time (typed `BadRequest`, connection survives),
//! `svc/dispatch` panics inside the worker's per-batch `catch_unwind`
//! (typed `Internal`, worker and queue survive), `svc/reply` kills the
//! reply write (client sees a dropped connection, server moves on).

use crate::proto::{
    sketch_flags, Frame, FrameReadError, FrameReader, HealthResp, LoadMatrixReq, LoadMatrixResp,
    MatrixSource, Op, SketchReq, SketchResult, SolveSapReq, SolveSapResp, Status,
};
use crate::registry::{Registry, RegistryError};
use lstsq::{RecoveryPolicy, SapOptions, SolveError};
use rngkit::{FastRng, UnitUniform};
use sketchcore::error::panic_payload_to_string;
use sketchcore::{SketchConfig, SketchError};
use sparsekit::CscMatrix;
use std::collections::VecDeque;
use std::io;
use std::net::{Shutdown as NetShutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Everything tunable about a server instance.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (read it back from
    /// [`Server::addr`]).
    pub addr: String,
    /// Admission-control cap on queued requests.
    pub queue_cap: usize,
    /// Worker loops (parkit threads executing kernels).
    pub workers: usize,
    /// Largest sketch batch one traversal may serve.
    pub batch_max: usize,
    /// Registry byte budget.
    pub registry_budget: u64,
    /// Test hook: artificial per-job service delay, for deterministic
    /// deadline/overload tests. 0 in production.
    pub worker_delay_ms: u64,
    /// Socket read timeout — the shutdown-poll period of connection
    /// threads.
    pub read_timeout_ms: u64,
    /// Socket write timeout — bounds how long a slow client can pin a
    /// worker in a reply write.
    pub write_timeout_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            queue_cap: 64,
            workers: 1,
            batch_max: 8,
            registry_budget: Registry::default_budget(),
            worker_delay_ms: 0,
            read_timeout_ms: 200,
            write_timeout_ms: 5000,
        }
    }
}

/// The reply side of a connection, shared between its reader thread and
/// the workers answering its requests.
struct Conn {
    stream: Mutex<TcpStream>,
}

impl Conn {
    /// Write a frame; on any failure (including the `svc/reply` failpoint)
    /// the stream is shut down so the client observes a closed connection
    /// rather than a hang.
    fn send(&self, frame: &Frame) {
        self.send_bytes(&frame.encode());
    }

    /// Write pre-encoded frames in a single syscall. The batcher's reply
    /// path concatenates every same-connection reply of a batch into one
    /// buffer, so a pipelined client costs one write per batch instead of
    /// one per request.
    fn send_bytes(&self, bytes: &[u8]) {
        use std::io::Write;
        let mut s = self.stream.lock().unwrap_or_else(|e| e.into_inner());
        if faultkit::armed() && faultkit::fire("svc/reply") {
            let _ = s.shutdown(NetShutdown::Both);
            return;
        }
        if s.write_all(bytes).and_then(|()| s.flush()).is_err() {
            let _ = s.shutdown(NetShutdown::Both);
        }
    }
}

/// A parsed work op waiting in the queue.
enum Work {
    Load(LoadMatrixReq),
    Sketch(SketchReq),
    Solve(SolveSapReq),
}

struct Job {
    op: Op,
    req_id: u64,
    deadline: Option<Instant>,
    enqueued: Instant,
    work: Work,
    conn: Arc<Conn>,
}

impl Job {
    fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() > d)
    }

    fn reply_error(&self, status: Status, detail: &str) {
        self.conn
            .send(&Frame::error(self.op, status, self.req_id, detail));
    }
}

struct Shared {
    cfg: ServerConfig,
    registry: Registry,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    start: Instant,
    /// The bound address — needed to self-connect and unblock the
    /// acceptor's blocking `accept` during shutdown.
    addr: SocketAddr,
    /// Telemetry baseline for `Stats` snapshot-and-diff.
    base: obskit::Snapshot,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Flip the shutdown flag and wake every sleeper: workers on the
    /// condvar, the acceptor via a throwaway self-connection (it re-checks
    /// the flag on wake). Idempotent; used by both [`Server::shutdown`]
    /// and the wire-level `Shutdown` op.
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue_cv.notify_all();
        let _ = TcpStream::connect(self.addr);
    }

    fn queue_depth(&self) -> usize {
        self.queue.lock().unwrap_or_else(|e| e.into_inner()).len()
    }
}

/// A running server instance.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<std::thread::JoinHandle<()>>,
    worker_host: Option<std::thread::JoinHandle<()>>,
    conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl Server {
    /// Bind, spawn acceptor + workers, and return immediately.
    pub fn start(cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            registry: Registry::new(cfg.registry_budget),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            start: Instant::now(),
            addr,
            base: obskit::snapshot(),
            cfg,
        });
        let conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let worker_host = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("sketchd-workers".into())
                .spawn(move || {
                    let n = shared.cfg.workers.max(1);
                    // parkit supplies panic containment and the telemetry
                    // flush-at-join for the worker pool, mirroring the kernels.
                    parkit::with_threads(n, || {
                        parkit::for_each((0..n).collect(), |_w| worker_loop(&shared));
                    });
                })?
        };

        let acceptor = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("sketchd-accept".into())
                .spawn(move || {
                    accept_loop(&listener, &shared, &conns);
                })?
        };

        Ok(Server {
            shared,
            addr,
            acceptor: Some(acceptor),
            worker_host: Some(worker_host),
            conns,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begin an orderly shutdown: stop accepting, let workers drain the
    /// queue, wake every sleeper. Idempotent.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Block until every thread the server spawned has exited. Call after
    /// [`Server::shutdown`] (or after a client sent the `Shutdown` op).
    /// Ensures zero leaked threads — asserted by the verify.sh smoke test.
    pub fn join(mut self) {
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        if let Some(h) = self.worker_host.take() {
            let _ = h.join();
        }
        let handles: Vec<_> = self
            .conns
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain(..)
            .collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    conns: &Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => {
                if shared.shutting_down() {
                    return;
                }
                continue;
            }
        };
        if shared.shutting_down() {
            return;
        }
        if faultkit::armed() && faultkit::fire("svc/accept") {
            // Injected accept failure: the connection is dropped before any
            // byte is read; clients see a clean close and may retry.
            let _ = stream.shutdown(NetShutdown::Both);
            continue;
        }
        let shared2 = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name("sketchd-conn".into())
            .spawn(move || conn_loop(stream, &shared2));
        if let Ok(h) = spawned {
            conns.lock().unwrap_or_else(|e| e.into_inner()).push(h);
        }
    }
}

fn conn_loop(mut stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(
        shared.cfg.read_timeout_ms.max(1),
    )));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(
        shared.cfg.write_timeout_ms.max(1),
    )));
    let _ = stream.set_nodelay(true);
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let conn = Arc::new(Conn {
        stream: Mutex::new(write_half),
    });
    let mut reader = FrameReader::new();
    loop {
        if shared.shutting_down() {
            return;
        }
        let frame = match reader.next_frame(&mut stream) {
            Ok(f) => f,
            Err(FrameReadError::TimedOut) => continue,
            Err(FrameReadError::Closed) | Err(FrameReadError::Io(_)) => return,
            Err(FrameReadError::Decode(e)) => {
                // The byte stream can no longer be framed: answer with a
                // typed error, then close. (Request-level payload errors,
                // by contrast, keep the connection alive — see
                // `admit_work`.)
                conn.send(&Frame::error(
                    Op::Health,
                    Status::BadRequest,
                    0,
                    &e.to_string(),
                ));
                return;
            }
        };
        if !handle_frame(frame, &conn, shared) {
            return;
        }
    }
}

/// Dispatch one request frame. Returns `false` when the connection should
/// close (shutdown requested).
fn handle_frame(frame: Frame, conn: &Arc<Conn>, shared: &Arc<Shared>) -> bool {
    if faultkit::armed() && faultkit::fire("svc/decode") {
        // Injected decode failure: typed BadRequest, connection survives —
        // one fault, one error frame, next request unaffected.
        conn.send(&Frame::error(
            frame.op,
            Status::BadRequest,
            frame.req_id,
            "fault injected: svc/decode",
        ));
        return true;
    }
    match frame.op {
        Op::Health => {
            let resp = HealthResp {
                uptime_ms: shared.start.elapsed().as_millis() as u64,
                queue_depth: shared.queue_depth() as u64,
                matrices: shared.registry.len() as u64,
                batch_max: shared.cfg.batch_max as u32,
            };
            conn.send(&Frame::response(
                Op::Health,
                Status::Ok,
                frame.req_id,
                resp.encode(),
            ));
            true
        }
        Op::Stats => {
            // Snapshot-and-diff: read-only against the global registry, so
            // concurrent Stats calls cannot race each other or the workers.
            let json = stats_json(shared);
            conn.send(&Frame::response(
                Op::Stats,
                Status::Ok,
                frame.req_id,
                json.into_bytes(),
            ));
            true
        }
        Op::Shutdown => {
            shared.begin_shutdown();
            conn.send(&Frame::response(
                Op::Shutdown,
                Status::Ok,
                frame.req_id,
                Vec::new(),
            ));
            false
        }
        Op::LoadMatrix | Op::Sketch | Op::SolveSap => {
            admit_work(frame, conn, shared);
            true
        }
    }
}

/// Parse + admission-control a work op, enqueueing it or answering with a
/// typed rejection. Payload errors answer `BadRequest` and keep the
/// connection alive.
fn admit_work(frame: Frame, conn: &Arc<Conn>, shared: &Arc<Shared>) {
    let work = match parse_work(&frame) {
        Ok(w) => w,
        Err(detail) => {
            conn.send(&Frame::error(
                frame.op,
                Status::BadRequest,
                frame.req_id,
                &detail,
            ));
            return;
        }
    };
    if shared.shutting_down() {
        conn.send(&Frame::error(
            frame.op,
            Status::ShuttingDown,
            frame.req_id,
            "server is shutting down",
        ));
        return;
    }
    let now = Instant::now();
    let job = Job {
        op: frame.op,
        req_id: frame.req_id,
        deadline: (frame.deadline_ms > 0)
            .then(|| now + Duration::from_millis(frame.deadline_ms as u64)),
        enqueued: now,
        work,
        conn: Arc::clone(conn),
    };
    let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
    if q.len() >= shared.cfg.queue_cap {
        drop(q);
        obskit::add(obskit::Ctr::SvcRejectedOverload, 1);
        conn.send(&Frame::error(
            frame.op,
            Status::Overloaded,
            frame.req_id,
            &format!("queue at capacity ({})", shared.cfg.queue_cap),
        ));
        return;
    }
    q.push_back(job);
    drop(q);
    obskit::add(obskit::Ctr::SvcAccepted, 1);
    shared.queue_cv.notify_one();
}

/// Parse and sanity-check a work payload. Returns a human-readable
/// rejection detail on failure.
fn parse_work(frame: &Frame) -> Result<Work, String> {
    match frame.op {
        Op::LoadMatrix => {
            let req = LoadMatrixReq::decode(&frame.payload).map_err(|e| e.to_string())?;
            if req.name.is_empty() {
                return Err("matrix name must be non-empty".into());
            }
            if let MatrixSource::Generate { m, n, density, .. } = &req.source {
                if *m == 0 || *n == 0 {
                    return Err("generated matrix must be non-empty".into());
                }
                if !(0.0..=1.0).contains(density) {
                    return Err(format!("density {density} outside [0, 1]"));
                }
            }
            Ok(Work::Load(req))
        }
        Op::Sketch => {
            let req = SketchReq::decode(&frame.payload).map_err(|e| e.to_string())?;
            if req.d == 0 || req.b_d == 0 || req.b_n == 0 {
                return Err("d, b_d and b_n must all be positive".into());
            }
            if req.flags & !sketch_flags::KNOWN != 0 {
                return Err(format!(
                    "unknown sketch flags {:#x}",
                    req.flags & !sketch_flags::KNOWN
                ));
            }
            Ok(Work::Sketch(req))
        }
        Op::SolveSap => {
            let req = SolveSapReq::decode(&frame.payload).map_err(|e| e.to_string())?;
            if req.gamma == 0 {
                return Err("gamma must be at least 1".into());
            }
            Ok(Work::Solve(req))
        }
        _ => Err("not a work op".into()),
    }
}

// --- workers ------------------------------------------------------------

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(j) = q.pop_front() {
                    break j;
                }
                if shared.shutting_down() {
                    return;
                }
                q = shared
                    .queue_cv
                    .wait_timeout(q, Duration::from_millis(100))
                    .unwrap_or_else(|e| e.into_inner())
                    .0;
            }
        };
        obskit::hist_record_ns("svc/queue_wait", job.enqueued.elapsed().as_nanos() as u64);
        if shared.cfg.worker_delay_ms > 0 {
            std::thread::sleep(Duration::from_millis(shared.cfg.worker_delay_ms));
        }
        if job.expired() {
            obskit::add(obskit::Ctr::SvcDeadlineMissed, 1);
            job.reply_error(Status::DeadlineExceeded, "deadline expired while queued");
            continue;
        }
        match &job.work {
            Work::Load(_) => execute_load(shared, job),
            Work::Solve(_) => execute_solve(shared, job),
            Work::Sketch(req) => {
                let batch = if req.flags & sketch_flags::NO_BATCH != 0 {
                    vec![job]
                } else {
                    drain_batch(shared, job)
                };
                execute_sketch_batch(shared, batch);
            }
        }
        obskit::flush_thread();
    }
}

/// Pull queued `Sketch` jobs compatible with `first` (same matrix, same
/// blocking, batching not opted out) up to `batch_max`, preserving the
/// queue order of everything left behind.
fn drain_batch(shared: &Arc<Shared>, first: Job) -> Vec<Job> {
    let proto_req = match &first.work {
        Work::Sketch(r) => r.clone(),
        _ => unreachable!("drain_batch is only called for sketch jobs"),
    };
    let mut batch = vec![first];
    let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
    let mut i = 0;
    while i < q.len() && batch.len() < shared.cfg.batch_max.max(1) {
        let compatible = matches!(
            &q[i].work,
            Work::Sketch(r)
                if r.name == proto_req.name
                    && r.d == proto_req.d
                    && r.b_d == proto_req.b_d
                    && r.b_n == proto_req.b_n
                    && r.flags & sketch_flags::NO_BATCH == 0
        );
        if compatible {
            if let Some(j) = q.remove(i) {
                batch.push(j);
            }
        } else {
            i += 1;
        }
    }
    batch
}

/// Run one sketch batch: one `try_sketch_alg3_multi` traversal, one reply per
/// member. Any panic in the kernel (or the `svc/dispatch` failpoint) is
/// contained here — each member gets a typed `Internal` frame and the
/// worker returns to the queue.
fn execute_sketch_batch(shared: &Arc<Shared>, mut batch: Vec<Job>) {
    obskit::hist_record_ns("svc/batch_size", batch.len() as u64);
    if batch.len() >= 2 {
        obskit::add(obskit::Ctr::SvcBatched, batch.len() as u64);
    }
    // Deadline re-check per member: queued time plus the drain may have
    // consumed someone's budget.
    batch.retain(|j| {
        if j.expired() {
            obskit::add(obskit::Ctr::SvcDeadlineMissed, 1);
            j.reply_error(Status::DeadlineExceeded, "deadline expired before dispatch");
            false
        } else {
            true
        }
    });
    if batch.is_empty() {
        return;
    }
    let req0 = match &batch[0].work {
        Work::Sketch(r) => r.clone(),
        _ => unreachable!("sketch batch holds sketch jobs"),
    };
    let a = match shared.registry.get(&req0.name) {
        Ok(a) => a,
        Err(e) => {
            for j in &batch {
                j.reply_error(Status::NotFound, &e.to_string());
            }
            return;
        }
    };
    let (d, n) = (req0.d as usize, a.ncols());
    let cfg = SketchConfig::new(d, req0.b_d as usize, req0.b_n as usize, req0.seed);
    let seeds: Vec<u64> = batch
        .iter()
        .map(|j| match &j.work {
            Work::Sketch(r) => r.seed,
            _ => unreachable!(),
        })
        .collect();
    let samplers: Vec<_> = seeds
        .iter()
        .map(|&s| UnitUniform::<f64>::sampler(FastRng::new(s)))
        .collect();
    let result = catch_unwind(AssertUnwindSafe(|| {
        if faultkit::armed() && faultkit::fire("svc/dispatch") {
            panic!("fault injected: svc/dispatch");
        }
        sketchcore::try_sketch_alg3_multi(a.as_ref(), &cfg, &samplers, false)
    }))
    .unwrap_or_else(|p| {
        Err(SketchError::WorkerPanic(panic_payload_to_string(
            p.as_ref(),
        )))
    });
    match result {
        Ok(outs) => {
            // Replies are coalesced per connection: all of one client's
            // replies in this batch go out in a single write, preserving
            // per-connection request order (the drain keeps queue order).
            let bsz = batch.len() as u32;
            let mut groups: Vec<(Arc<Conn>, Vec<u8>)> = Vec::new();
            for (j, m) in batch.iter().zip(outs.iter()) {
                let flags = match &j.work {
                    Work::Sketch(r) => r.flags,
                    _ => unreachable!(),
                };
                let body = if flags & sketch_flags::CHECKSUM_ONLY != 0 {
                    SketchResult::Checksum {
                        d: d as u64,
                        n: n as u64,
                        batch: bsz,
                        fro: m.fro_norm(),
                        xor: m.as_slice().iter().fold(0u64, |acc, v| acc ^ v.to_bits()),
                    }
                } else {
                    SketchResult::Full {
                        d: d as u64,
                        n: n as u64,
                        batch: bsz,
                        data: m.as_slice().to_vec(),
                    }
                };
                let bytes =
                    Frame::response(Op::Sketch, Status::Ok, j.req_id, body.encode()).encode();
                match groups.iter_mut().find(|(c, _)| Arc::ptr_eq(c, &j.conn)) {
                    Some((_, buf)) => buf.extend_from_slice(&bytes),
                    None => groups.push((Arc::clone(&j.conn), bytes)),
                }
            }
            for (conn, buf) in groups {
                conn.send_bytes(&buf);
            }
        }
        Err(e) => {
            let status = match &e {
                SketchError::InvalidInput(_) | SketchError::DimensionMismatch { .. } => {
                    Status::BadRequest
                }
                SketchError::BudgetExceeded { .. } => Status::Overloaded,
                _ => Status::Internal,
            };
            for j in &batch {
                j.reply_error(status, &e.to_string());
            }
        }
    }
}

fn execute_solve(shared: &Arc<Shared>, job: Job) {
    let req = match &job.work {
        Work::Solve(r) => r.clone(),
        _ => unreachable!("execute_solve is only called for solve jobs"),
    };
    let a = match shared.registry.get(&req.name) {
        Ok(a) => a,
        Err(e) => {
            job.reply_error(Status::NotFound, &e.to_string());
            return;
        }
    };
    let opts = SapOptions {
        gamma: req.gamma as usize,
        seed: req.seed,
        ..SapOptions::default()
    };
    let result = catch_unwind(AssertUnwindSafe(|| {
        if faultkit::armed() && faultkit::fire("svc/dispatch") {
            panic!("fault injected: svc/dispatch");
        }
        lstsq::try_solve_sap_with(a.as_ref(), &req.rhs, &opts, &RecoveryPolicy::default())
    }));
    match result {
        Ok(Ok(rep)) => {
            let resp = SolveSapResp {
                iters: rep.iters as u64,
                rank: rep.rank as u64,
                retries: rep.retries,
                fallback_svd: rep.fallback_svd,
                x: rep.x,
            };
            job.conn.send(&Frame::response(
                Op::SolveSap,
                Status::Ok,
                job.req_id,
                resp.encode(),
            ));
        }
        Ok(Err(e)) => {
            let status = match &e {
                SolveError::DimensionMismatch { .. }
                | SolveError::RankDeficient { .. }
                | SolveError::Sketch(SketchError::InvalidInput(_)) => Status::BadRequest,
                SolveError::Sketch(SketchError::BudgetExceeded { .. }) => Status::Overloaded,
                _ => Status::Internal,
            };
            job.reply_error(status, &e.to_string());
        }
        Err(p) => {
            job.reply_error(Status::Internal, &panic_payload_to_string(p.as_ref()));
        }
    }
}

fn execute_load(shared: &Arc<Shared>, job: Job) {
    let req = match &job.work {
        Work::Load(r) => r.clone(),
        _ => unreachable!("execute_load is only called for load jobs"),
    };
    let built: Result<CscMatrix<f64>, String> = catch_unwind(AssertUnwindSafe(|| {
        if faultkit::armed() && faultkit::fire("svc/dispatch") {
            panic!("fault injected: svc/dispatch");
        }
        match req.source {
            MatrixSource::Generate {
                m,
                n,
                density,
                seed,
            } => Ok(datagen::uniform_random::<f64>(
                m as usize, n as usize, density, seed,
            )),
            MatrixSource::Inline {
                nrows,
                ncols,
                col_ptr,
                row_idx,
                values,
            } => {
                let a = CscMatrix::try_new(
                    nrows as usize,
                    ncols as usize,
                    col_ptr.into_iter().map(|v| v as usize).collect(),
                    row_idx.into_iter().map(|v| v as usize).collect(),
                    values,
                )
                .map_err(|e| e.to_string())?;
                a.validate().map_err(|e| e.to_string())?;
                Ok(a)
            }
        }
    }))
    .unwrap_or_else(|p| Err(panic_payload_to_string(p.as_ref())));
    let a = match built {
        Ok(a) => a,
        Err(detail) => {
            job.reply_error(Status::BadRequest, &detail);
            return;
        }
    };
    let (nrows, ncols, nnz, bytes) = (
        a.nrows() as u64,
        a.ncols() as u64,
        a.nnz() as u64,
        a.memory_bytes() as u64,
    );
    match shared.registry.insert(&req.name, a) {
        Ok(evicted) => {
            let resp = LoadMatrixResp {
                nrows,
                ncols,
                nnz,
                bytes,
                evicted,
            };
            job.conn.send(&Frame::response(
                Op::LoadMatrix,
                Status::Ok,
                job.req_id,
                resp.encode(),
            ));
        }
        Err(e @ RegistryError::Full { .. }) => job.reply_error(Status::Overloaded, &e.to_string()),
        Err(e) => job.reply_error(Status::Internal, &e.to_string()),
    }
}

// --- stats --------------------------------------------------------------

/// Hand-rolled JSON stats body: counter deltas since startup plus the
/// `svc/*` latency histograms. Built from a fresh [`obskit::snapshot`]
/// diffed against the startup baseline — never from `obskit::reset()`.
fn stats_json(shared: &Arc<Shared>) -> String {
    let snap = obskit::snapshot();
    let deltas = snap.counters_since(&shared.base);
    let mut out = String::with_capacity(512);
    out.push('{');
    out.push_str(&format!(
        "\"uptime_ms\":{}",
        shared.start.elapsed().as_millis()
    ));
    out.push_str(&format!(",\"queue_depth\":{}", shared.queue_depth()));
    out.push_str(&format!(",\"matrices\":{}", shared.registry.len()));
    out.push_str(&format!(
        ",\"registry_bytes\":{}",
        shared.registry.used_bytes()
    ));
    out.push_str(",\"counters\":{");
    for (i, name) in obskit::CTR_NAMES.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{name}\":{}", deltas[i]));
    }
    out.push_str("},\"hists\":{");
    let mut first = true;
    for (path, h) in &snap.hists {
        if !path.starts_with("svc/") {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "\"{path}\":{{\"count\":{},\"p50\":{:.1},\"p90\":{:.1},\"p99\":{:.1}}}",
            h.count(),
            h.quantile(0.5),
            h.quantile(0.9),
            h.quantile(0.99)
        ));
    }
    out.push_str("}}");
    out
}
