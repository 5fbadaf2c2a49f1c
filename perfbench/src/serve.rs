//! The service workload, `serve_mixed`, against an in-process `sketchd` on
//! loopback.
//!
//! The benchmark speaks the wire protocol through `sketchd::proto` on a raw
//! socket, so it can stamp every request and reply itself. Replies are
//! stored and checked after the phase.

use crate::check::{self, local_xor};
use crate::trace::Tracer;
use crate::{layers, ms, op_seed, stats, Args, Report, Size, SETUP_REPS};
use bench::json::{parse, Jval};
use sketchcore::SketchConfig;
use sketchd::proto::{
    sketch_flags, FrameReader, LoadMatrixReq, LoadMatrixResp, MatrixSource, SketchReq,
    SketchResult, SolveSapReq, SolveSapResp,
};
use sketchd::{Client, Frame, Op, Server, ServerConfig, Status};
use sparsekit::CscMatrix;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const HOT: &str = "hot";
const TALL: &str = "tall";
/// Client-side socket timeout: a reply later than this is a failed op.
const TIMEOUT: Duration = Duration::from_secs(30);

/// A uniform random operand the server generates from four numbers.
#[derive(Clone, Copy, Debug)]
struct Gen {
    m: u64,
    n: u64,
    density: f64,
    seed: u64,
}

impl Gen {
    fn local(&self) -> CscMatrix<f64> {
        datagen::uniform_random::<f64>(self.m as usize, self.n as usize, self.density, self.seed)
    }

    fn load(&self, c: &mut Client, name: &str) -> Result<LoadMatrixResp, String> {
        c.load_generated(name, self.m, self.n, self.density, self.seed)
            .map_err(|e| format!("LoadMatrix {name}: {e}"))
    }
}

/// The hot operand and the shape of its sketch requests: the paper's
/// fixed-A, many-S shape, three row blocks at a seek-bound d₁ = b_d = 16.
fn hot(size: Size, seed: u64) -> (Gen, SketchReq) {
    let g = match size {
        Size::Full => Gen {
            m: 2000,
            n: 48,
            density: 0.01,
            seed,
        },
        Size::Tiny => Gen {
            m: 500,
            n: 12,
            density: 0.02,
            seed,
        },
    };
    let req = SketchReq {
        name: HOT.to_string(),
        d: 48,
        b_d: 16,
        b_n: g.n,
        seed: 0,
        flags: sketch_flags::CHECKSUM_ONLY,
    };
    (g, req)
}

fn cfg_of(req: &SketchReq) -> SketchConfig {
    SketchConfig::new(req.d as usize, req.b_d as usize, req.b_n as usize, req.seed)
}

fn connect(addr: SocketAddr) -> Result<Client, String> {
    Client::connect(addr, TIMEOUT).map_err(|e| format!("connect: {e}"))
}

/// A raw connection: (write half, read half).
fn raw(addr: SocketAddr) -> Result<(TcpStream, TcpStream), String> {
    let s = TcpStream::connect_timeout(&addr, TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    s.set_nodelay(true).map_err(|e| e.to_string())?;
    s.set_read_timeout(Some(TIMEOUT))
        .map_err(|e| e.to_string())?;
    let r = s.try_clone().map_err(|e| e.to_string())?;
    Ok((s, r))
}

fn stop(server: Server) {
    server.shutdown();
    server.join();
}

/// Server counters and histogram counts through the public `Stats` op.
struct ServerStats {
    accepted: f64,
    rejected: f64,
    deadline_missed: f64,
    batches: f64,
    queue_wait_p50_ns: f64,
}

fn server_stats(c: &mut Client) -> Result<ServerStats, String> {
    let text = c.stats().map_err(|e| format!("Stats: {e}"))?;
    let j = parse(&text)?;
    let ctr = |k: &str| {
        j.get("counters")
            .and_then(|c| c.get(k))
            .and_then(Jval::as_f64)
            .unwrap_or(0.0)
    };
    let hist = |p: &str, k: &str| {
        j.get("hists")
            .and_then(|h| h.get(p))
            .and_then(|h| h.get(k))
            .and_then(Jval::as_f64)
            .unwrap_or(0.0)
    };
    Ok(ServerStats {
        accepted: ctr("svc.accepted"),
        rejected: ctr("svc.rejected_overload"),
        deadline_missed: ctr("svc.deadline_missed"),
        batches: hist("svc/batch_size", "count"),
        queue_wait_p50_ns: hist("svc/queue_wait", "p50"),
    })
}

/// `Stats` once the measured connection's requests show in it. The server
/// counts admissions on the connection's own thread, which publishes its
/// counters when it exits after the client closes; wait up to two seconds
/// for that, then take what `Stats` reports.
fn stats_after(c: &mut Client, before: &ServerStats, sent: usize) -> Result<ServerStats, String> {
    let t0 = Instant::now();
    loop {
        let s = server_stats(c)?;
        if s.accepted - before.accepted >= sent as f64 || t0.elapsed() > Duration::from_secs(2) {
            return Ok(s);
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Set the server-layer metrics from `Stats` before and after the phase.
/// `queue_wait_us_p50` is the one exception to exact percentiles: it is the
/// p50 of the `svc/queue_wait` histogram, the only view of queueing the
/// protocol offers. That histogram is bucketed (1/8 octave), process-wide
/// and never reset, and `Stats` exposes no buckets to diff, so it also
/// holds the warm-up requests of every set-up server. A diagnostic only.
fn server_metrics(r: &mut Report, before: &ServerStats, after: &ServerStats, sketches: u64) {
    let batches = after.batches - before.batches;
    r.set(
        "sketchd.server.batch_size_mean",
        if batches > 0.0 {
            sketches as f64 / batches
        } else {
            0.0
        },
    );
    r.set(
        "sketchd.server.queue_wait_us_p50",
        after.queue_wait_p50_ns / 1e3,
    );
    r.set("sketchd.server.accepted", after.accepted - before.accepted);
    r.set(
        "sketchd.server.rejected_overload",
        after.rejected - before.rejected,
    );
    r.set(
        "sketchd.server.deadline_missed",
        after.deadline_missed - before.deadline_missed,
    );
}

/// A received sketch reply kept for the post-phase check.
#[derive(Clone, Copy)]
pub struct SketchReply {
    /// Sketch seed of the request.
    pub seed: u64,
    /// XOR checksum the server sent.
    pub xor: u64,
}

fn sketch_reply(f: &Frame, want: &SketchReq) -> Result<SketchReply, String> {
    match SketchResult::decode(&f.payload).map_err(|e| e.to_string())? {
        SketchResult::Checksum { d, xor, .. } if d == want.d => Ok(SketchReply {
            seed: want.seed,
            xor,
        }),
        other => Err(format!("unexpected sketch reply {other:?}")),
    }
}

/// Check every `stride`-th reply's checksum against a local sequential
/// sketch. Returns the failure messages.
pub fn check_replies(
    a: &CscMatrix<f64>,
    shape: &SketchReq,
    replies: &[SketchReply],
    stride: usize,
) -> Vec<String> {
    let mut bad = Vec::new();
    for rep in replies.iter().step_by(stride.max(1)) {
        let req = SketchReq {
            seed: rep.seed,
            ..shape.clone()
        };
        match local_xor(a, &cfg_of(&req)) {
            Ok(x) if x == rep.xor => {}
            Ok(x) => bad.push(format!(
                "seed {}: checksum {:#x} != local {x:#x}",
                rep.seed, rep.xor
            )),
            Err(e) => bad.push(format!("seed {}: local sketch failed: {e}", rep.seed)),
        }
    }
    bad
}

/// Every `CHECK_STRIDE`-th sketch reply is checked against a local sketch:
/// ~2500 checks in a 55-s run, ~1.3 s of local kernel time after the phase.
const CHECK_STRIDE: usize = 16;
/// Untimed warm-up ops of each set-up, in the mix's proportions: enough
/// work (~0.3 s) that `setup_s` is not a few milliseconds of noise.
const WARMUP_SKETCHES: u64 = 256;
const WARMUP_SOLVES: u64 = 60;

/// Kernel-side layer metrics of the service workload: kernel at the served
/// batch size, fusion, RNG seek/fill at d₁, proto codec on the workload's
/// frames, registry lookup.
fn serve_layers(
    r: &mut Report,
    a: &CscMatrix<f64>,
    shape: &SketchReq,
    k: usize,
    frames: &[Frame],
) -> Result<(), String> {
    let cfg = cfg_of(&SketchReq {
        seed: 1,
        ..shape.clone()
    });
    let (fusion, multi_ms) = layers::fusion(a, &cfg, k, 201);
    r.set("sketchcore.fusion_ratio", fusion);
    layers::kernel_metrics(r, a, &cfg, k, multi_ms, layers::peak_gflops());
    let (seek, fill) = layers::seek_fill(a, &cfg, 200_000);
    r.set("rngkit.seek_ns", seek);
    r.set("rngkit.fill_ns_per_sample", fill);
    let (enc, dec) = layers::proto_codec(frames, 201);
    r.set("sketchd.proto.encode_ns", enc);
    r.set("sketchd.proto.decode_ns", dec);
    Ok(())
}

// --- serve_mixed ---------------------------------------------------------

/// Operand settings and mix of `serve_mixed`.
struct MixedParams {
    /// Resident tall operand of the `SolveSap` requests.
    tall: Gen,
    /// Shape of the `LoadMatrix` scratch operands (seed varies per load).
    scratch: Gen,
    /// Of every `block` consecutive requests, `minority` are minority ops,
    /// at seeded positions. In send order, every `load_every`-th minority
    /// op (starting with the second) is a `LoadMatrix` and the rest are
    /// `SolveSap`, so a solve runs between any two loads.
    block: usize,
    minority: usize,
    load_every: usize,
}

fn mixed_params(size: Size, seed: u64) -> MixedParams {
    match size {
        // 80% sketches (~0.8 ms), 18% solves (~4.5 ms), 2% loads (~1.5
        // ms). p50 falls inside the sketch mode and p90 inside the solve
        // mode, each with about ten percent of the requests between it and
        // the mode's edge, so neither sits where two op types' latencies
        // meet.
        Size::Full => MixedParams {
            tall: Gen {
                m: 2400,
                n: 40,
                density: 0.04,
                seed: seed ^ 0x7A11,
            },
            scratch: Gen {
                m: 20000,
                n: 200,
                density: 0.005,
                seed: 0,
            },
            block: 100,
            minority: 20,
            load_every: 10,
        },
        Size::Tiny => MixedParams {
            tall: Gen {
                m: 600,
                n: 20,
                density: 0.05,
                seed: seed ^ 0x7A11,
            },
            scratch: Gen {
                m: 2000,
                n: 40,
                density: 0.01,
                seed: 0,
            },
            block: 20,
            minority: 3,
            load_every: 3,
        },
    }
}

/// Scratch registry names the loads rotate through. The budget holds the
/// hot and tall operands plus `SCRATCH_NAMES - 1` scratch matrices, so each
/// load evicts the scratch loaded two loads earlier: a solve runs between
/// any two loads, so the tall operand is always more recently used than it.
const SCRATCH_NAMES: usize = 3;

#[derive(Clone, Debug)]
enum Kind {
    Sketch(SketchReq),
    Solve(u64),
    Load(usize, Gen),
}

impl Kind {
    fn label(&self) -> &'static str {
        match self {
            Kind::Sketch(_) => "Sketch",
            Kind::Solve(_) => "SolveSap",
            Kind::Load(..) => "LoadMatrix",
        }
    }
}

/// The seeded request sequence of `serve_mixed`, stratified so that every
/// run sends the same mix: each block of `p.block` requests holds
/// `p.minority` minority ops at seeded positions. Request `i` draws its
/// sketch, solve or load seed from the run seed and `i`.
struct Mix<'a> {
    p: &'a MixedParams,
    shape: &'a SketchReq,
    seed: u64,
    state: u64,
    next_id: u64,
    block: std::collections::VecDeque<bool>,
    n_min: usize,
    n_load: usize,
}

impl<'a> Mix<'a> {
    fn new(p: &'a MixedParams, shape: &'a SketchReq, seed: u64) -> Mix<'a> {
        Mix {
            p,
            shape,
            seed,
            state: seed ^ 0xA5A5_0F0F_1234_5678,
            next_id: 0,
            block: Default::default(),
            n_min: 0,
            n_load: 0,
        }
    }

    /// SplitMix64 step, as a uniform in [0, 1).
    fn unif(&mut self) -> f64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The next request, with its id.
    fn next(&mut self) -> (u64, Kind) {
        if self.block.is_empty() {
            // Partial Fisher-Yates: distinct seeded positions in the block.
            let n = self.p.block;
            let mut slots: Vec<usize> = (0..n).collect();
            let mut minority = vec![false; n];
            for k in 0..self.p.minority.min(n) {
                let pick = (k + (self.unif() * (n - k) as f64) as usize).min(n - 1);
                slots.swap(k, pick);
                minority[slots[k]] = true;
            }
            self.block.extend(minority);
        }
        let id = self.next_id;
        self.next_id += 1;
        let kind_seed = op_seed(self.seed, id);
        let kind = if self.block.pop_front() == Some(true) {
            self.n_min += 1;
            if self.n_min % self.p.load_every == 2 {
                // Set-up loaded names 0..SCRATCH_NAMES-1; continue the
                // rotation with the name it did not use.
                let name = (self.n_load + SCRATCH_NAMES - 1) % SCRATCH_NAMES;
                self.n_load += 1;
                let g = Gen {
                    seed: kind_seed,
                    ..self.p.scratch
                };
                Kind::Load(name, g)
            } else {
                Kind::Solve(kind_seed)
            }
        } else {
            Kind::Sketch(SketchReq {
                seed: kind_seed,
                ..self.shape.clone()
            })
        };
        (id, kind)
    }
}

fn scratch_name(k: usize) -> String {
    format!("scratch{k}")
}

fn request_frame(id: u64, kind: &Kind, rhs: &[f64]) -> Frame {
    let (op, payload) = match kind {
        Kind::Sketch(req) => (Op::Sketch, req.encode()),
        Kind::Solve(seed) => (
            Op::SolveSap,
            SolveSapReq {
                name: TALL.to_string(),
                gamma: 2,
                seed: *seed,
                rhs: rhs.to_vec(),
            }
            .encode(),
        ),
        Kind::Load(k, g) => (
            Op::LoadMatrix,
            LoadMatrixReq {
                name: scratch_name(*k),
                source: MatrixSource::Generate {
                    m: g.m,
                    n: g.n,
                    density: g.density,
                    seed: g.seed,
                },
            }
            .encode(),
        ),
    };
    Frame::request(op, id, 0, payload)
}

enum Reply {
    Sketch(SketchReply),
    Solve(SolveSapResp),
    Load(LoadMatrixResp),
}

fn parse_reply(f: &Frame, id: u64, kind: &Kind) -> Result<Reply, String> {
    if f.req_id != id {
        return Err(format!("reply id {} for request {id}", f.req_id));
    }
    if f.status != Status::Ok {
        return Err(format!(
            "{}: {}",
            f.status.name(),
            String::from_utf8_lossy(&f.payload)
        ));
    }
    match kind {
        Kind::Sketch(req) => sketch_reply(f, req).map(Reply::Sketch),
        Kind::Solve(_) => SolveSapResp::decode(&f.payload)
            .map(Reply::Solve)
            .map_err(|e| e.to_string()),
        Kind::Load(..) => LoadMatrixResp::decode(&f.payload)
            .map(Reply::Load)
            .map_err(|e| e.to_string()),
    }
}

/// One request of the closed loop: what was sent, the client-side stamps
/// of its round trip, and what came back.
struct Done {
    id: u64,
    kind: Kind,
    send: Instant,
    encoded: Instant,
    written: Instant,
    framed: Instant,
    decoded: Instant,
    reply: Result<Reply, String>,
}

/// `serve_mixed`: closed loop, one connection, one request in flight. Each
/// request is timed from its send to its decoded reply.
pub fn serve_mixed(args: &Args, r: &mut Report) -> Result<Tracer, String> {
    let (g, shape) = hot(args.size, args.seed);
    let p = mixed_params(args.size, args.seed);
    let t_gen = Instant::now();
    let hot_a = g.local();
    let tall_a = p.tall.local();
    let scratch0 = Gen {
        seed: 1,
        ..p.scratch
    }
    .local();
    let rhs = datagen::make_rhs(&tall_a, args.seed ^ 0xB).0;
    let gen_ms = ms(t_gen, Instant::now());
    let budget = hot_a.memory_bytes() as u64
        + tall_a.memory_bytes() as u64
        + (SCRATCH_NAMES as u64 * 2 - 1) * scratch0.memory_bytes() as u64 / 2;
    let cfg = ServerConfig {
        registry_budget: budget,
        ..ServerConfig::default()
    };

    let mut setups = Vec::new();
    let mut server = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let s = Server::start(cfg.clone()).map_err(|e| format!("server: {e}"))?;
        let mut c = connect(s.addr())?;
        g.load(&mut c, HOT)?;
        p.tall.load(&mut c, TALL)?;
        // Scratch matrices first, so the first load of the phase evicts the
        // oldest of them rather than an operand the warm-up then uses.
        for k in 0..SCRATCH_NAMES - 1 {
            let sg = Gen {
                seed: op_seed(args.seed ^ 0x5E7, k as u64),
                ..p.scratch
            };
            sg.load(&mut c, &scratch_name(k))?;
        }
        for w in 0..WARMUP_SKETCHES {
            let seed = op_seed(args.seed ^ 0x5E7, rep as u64 * 1000 + w);
            c.sketch(HOT, shape.d, shape.b_d, shape.b_n, seed, shape.flags, 0)
                .map_err(|e| format!("warm-up sketch: {e}"))?;
        }
        for k in 0..WARMUP_SOLVES {
            c.solve_sap(TALL, 2, op_seed(args.seed ^ 0x50, k), rhs.clone(), 0)
                .map_err(|e| format!("warm-up solve: {e}"))?;
        }
        setups.push(t0.elapsed().as_secs_f64());
        if let Some(old) = server.replace(s) {
            stop(old);
        }
    }
    let server = server.ok_or("no server")?;
    let addr = server.addr();
    let mut ctl = connect(addr)?;
    let before = server_stats(&mut ctl)?;
    let (wr, rd) = raw(addr)?;
    let mut mix = Mix::new(&p, &shape, args.seed);
    let phase = Instant::now();
    let done = closed_loop(wr, rd, &mut mix, &rhs, phase, args.phase());
    let after = stats_after(&mut ctl, &before, done.len())?;
    drop(ctl);
    stop(server);
    let phase_s = ms(phase, done.last().map_or(phase, |d| d.decoded)) / 1e3;

    let mut tr = Tracer::new(args.trace, phase);
    let (mut lat, mut lat_traced) = (Vec::new(), Vec::new());
    let mut sketches = Vec::new();
    let mut solves = Vec::new();
    let (mut evictions, mut counts) = (0u64, [0usize; 3]);
    let mut by_kind: [Vec<f64>; 3] = Default::default();
    let mut failures = Vec::new();
    let mut scratch_nnz: Vec<(u64, u64)> = Vec::new();
    for d in &done {
        r.attempted += 1;
        let reply = match &d.reply {
            Ok(rep) => rep,
            Err(e) => {
                failures.push(format!("request {} ({}): {e}", d.id, d.kind.label()));
                continue;
            }
        };
        let kind = match (reply, &d.kind) {
            (Reply::Sketch(s), _) => {
                sketches.push(*s);
                0
            }
            (Reply::Solve(s), Kind::Solve(seed)) => {
                solves.push((*seed, s.clone()));
                1
            }
            (Reply::Load(l), Kind::Load(_, sg)) => {
                evictions += l.evicted;
                scratch_nnz.push((sg.seed, l.nnz));
                2
            }
            _ => {
                failures.push(format!("request {}: reply of the wrong kind", d.id));
                continue;
            }
        };
        counts[kind] += 1;
        let l = ms(d.send, d.decoded);
        by_kind[kind].push(l);
        if args.traced_at(d.send - phase) {
            lat_traced.push(l);
            let op = tr.record("op", None, d.id, d.send, d.decoded);
            tr.record("sketchd.proto.encode", op, d.id, d.send, d.encoded);
            tr.record("sketchd.client.write", op, d.id, d.encoded, d.written);
            tr.record("sketchd.client.wait", op, d.id, d.written, d.framed);
            tr.record("sketchd.proto.decode", op, d.id, d.framed, d.decoded);
        } else {
            lat.push(l);
        }
    }

    // Output checks, off the clock.
    failures.extend(check_replies(&hot_a, &shape, &sketches, CHECK_STRIDE));
    for (seed, resp) in &solves {
        if let Err(e) = check::check_sap(&tall_a, &resp.x, &rhs) {
            failures.push(format!("solve seed {seed}: {e}"));
        }
    }
    for (seed, nnz) in &scratch_nnz {
        let local = Gen {
            seed: *seed,
            ..p.scratch
        }
        .local()
        .nnz() as u64;
        if local != *nnz {
            failures.push(format!("load seed {seed}: nnz {nnz} != local {local}"));
        }
    }
    r.failed += failures.len() as u64;
    for f in failures.iter().take(5) {
        r.note(format!("failed: {f}"));
    }
    let total = counts.iter().sum::<usize>().max(1) as f64;
    r.note(format!(
        "closed loop over {} requests; realized shares Sketch {:.2}% SolveSap {:.2}% LoadMatrix {:.2}%; evictions {evictions}",
        done.len(),
        100.0 * counts[0] as f64 / total,
        100.0 * counts[1] as f64 / total,
        100.0 * counts[2] as f64 / total
    ));
    r.note(format!(
        "checked {} sketch checksums, {} solves, {} loads",
        sketches.len().div_ceil(CHECK_STRIDE),
        solves.len(),
        scratch_nnz.len()
    ));
    let labels = ["Sketch", "SolveSap", "LoadMatrix"];
    for (label, l) in labels.iter().zip(&by_kind) {
        r.note(format!(
            "{label}: round trip p50 {:.3} / p75 {:.3} / p90 {:.3} / p99 {:.3} ms over {} requests",
            stats::median(l),
            stats::quantile(l, 0.75),
            stats::quantile(l, 0.9),
            stats::quantile(l, 0.99),
            l.len()
        ));
    }
    if !args.trace {
        r.set_end_to_end(&lat, phase_s, &setups);
        return Ok(tr);
    }
    r.set("datagen.gen_ms", gen_ms);
    r.set("obskit.trace_overhead", stats::overhead(&lat_traced, &lat));
    r.set("sketchd.registry.evictions", evictions as f64);
    server_metrics(r, &before, &after, sketches.len() as u64);
    let iters: Vec<f64> = solves.iter().map(|(_, s)| s.iters as f64).collect();
    r.set("lstsq.lsqr_iters", stats::median(&iters));
    r.set(
        "lstsq.sap_retries",
        solves.iter().map(|(_, s)| s.retries as f64).sum(),
    );
    r.set(
        "lstsq.sap_fallback_svd",
        solves.iter().filter(|(_, s)| s.fallback_svd).count() as f64,
    );
    let (seed0, s0) = solves
        .iter()
        .find(|(_, s)| s.retries == 0 && !s.fallback_svd)
        .ok_or("no solve completed on its first attempt")?;
    crate::library::sap_replay(r, &mut tr, &tall_a, &rhs, *seed0, &s0.x, None)?;
    let k = r
        .get("sketchd.server.batch_size_mean")
        .unwrap_or(1.0)
        .round()
        .max(1.0) as usize;
    let frames: Vec<Frame> = done
        .iter()
        .take(200)
        .map(|d| request_frame(d.id, &d.kind, &rhs))
        .collect();
    serve_layers(r, &hot_a, &shape, k, &frames)?;
    // Client round trip of a sketch minus one kernel run at the served
    // mean batch size: the network and dispatch share.
    let kernel_ms = r.get("sketchcore.sketch_ms").unwrap_or(0.0);
    let sketch_rtt = stats::median(&by_kind[0]);
    r.set("sketchd.client.residual_ms", sketch_rtt - kernel_ms);
    r.note(format!(
        "sketch round trip p50 {sketch_rtt:.3} ms; one kernel run (k={k}) {kernel_ms:.3} ms"
    ));
    let scratch: Vec<CscMatrix<f64>> = (0..8u64)
        .map(|s| {
            Gen {
                seed: s,
                ..p.scratch
            }
            .local()
        })
        .collect();
    let (insert_ms, get_ns) = layers::registry(budget, &[(HOT, &hot_a), (TALL, &tall_a)], &scratch);
    r.set("sketchd.registry.insert_ms", insert_ms);
    r.set("sketchd.registry.get_ns", get_ns);
    Ok(tr)
}

/// Send the mix's requests one at a time over one connection, each as soon
/// as the previous reply is decoded, until `len` has passed since `phase`.
/// A broken connection ends the loop with that request failed.
fn closed_loop(
    mut wr: TcpStream,
    mut rd: TcpStream,
    mix: &mut Mix,
    rhs: &[f64],
    phase: Instant,
    len: Duration,
) -> Vec<Done> {
    let mut fr = FrameReader::new();
    let mut done = Vec::new();
    while phase.elapsed() < len {
        let (id, kind) = mix.next();
        let send = Instant::now();
        let bytes = request_frame(id, &kind, rhs).encode();
        let encoded = Instant::now();
        let wrote = wr.write_all(&bytes).map_err(|e| format!("write: {e}"));
        let written = Instant::now();
        let frame = wrote.and_then(|()| fr.next_frame(&mut rd).map_err(|e| format!("read: {e}")));
        let framed = Instant::now();
        let broken = frame.is_err();
        let reply = frame.and_then(|f| parse_reply(&f, id, &kind));
        done.push(Done {
            id,
            kind,
            send,
            encoded,
            written,
            framed,
            decoded: Instant::now(),
            reply,
        });
        if broken {
            break;
        }
    }
    done
}
