//! End-to-end service tests against an in-process `sketchd` server:
//! request/response correctness, the batching bitwise contract, admission
//! control (deadlines, overload), snapshot-and-diff `Stats`, registry
//! eviction over the wire, and clean shutdown.
//!
//! Fault-injection paths live in `tests/faults.rs` — a separate test
//! binary, because faultkit plans are process-global and must not leak
//! into these tests' requests.

use rngkit::{FastRng, UnitUniform};
use sketchcore::SketchConfig;
use sketchd::client::Client;
use sketchd::proto::{self, sketch_flags, Frame, Op, SketchResult, Status};
use sketchd::{Server, ServerConfig};
use sparsekit::CscMatrix;
use std::time::Duration;

fn start(cfg: ServerConfig) -> Server {
    obskit::set_enabled(true);
    Server::start(cfg).expect("bind ephemeral port")
}

fn client(server: &Server) -> Client {
    Client::connect(server.addr(), Duration::from_secs(30)).expect("connect")
}

/// A small deterministic CSC matrix plus its wire parts.
fn test_matrix(n: usize) -> (CscMatrix<f64>, Vec<u64>, Vec<u64>, Vec<f64>) {
    // Tridiagonal-ish: dense enough to be a real traversal, small enough
    // for fast tests.
    let mut col_ptr = vec![0usize];
    let mut row_idx = Vec::new();
    let mut values = Vec::new();
    for j in 0..n {
        for i in j.saturating_sub(1)..(j + 2).min(n) {
            row_idx.push(i);
            values.push(((i * 7 + j * 3) % 11) as f64 / 11.0 + 0.25);
        }
        col_ptr.push(row_idx.len());
    }
    let a = CscMatrix::try_new(n, n, col_ptr.clone(), row_idx.clone(), values.clone())
        .expect("valid parts");
    (
        a,
        col_ptr.iter().map(|&v| v as u64).collect(),
        row_idx.iter().map(|&v| v as u64).collect(),
        values,
    )
}

#[test]
fn sketch_roundtrip_is_bitwise_identical_to_local() {
    let server = start(ServerConfig::default());
    let mut c = client(&server);
    let (a, col_ptr, row_idx, values) = test_matrix(24);
    let resp = c
        .load_inline("rt", 24, 24, col_ptr, row_idx, values)
        .expect("load");
    assert_eq!((resp.nrows, resp.ncols), (24, 24));
    assert_eq!(resp.nnz as usize, a.nnz());

    let (d, b_d, b_n, seed) = (16u64, 8u64, 6u64, 0xAB5u64);
    let got = c.sketch("rt", d, b_d, b_n, seed, 0, 0).expect("sketch");
    let cfg = SketchConfig::new(d as usize, b_d as usize, b_n as usize, seed);
    let sampler = UnitUniform::<f64>::sampler(FastRng::new(seed));
    let want = sketchcore::sketch_alg3(&a, &cfg, &sampler);
    match got {
        SketchResult::Full {
            d: gd, n: gn, data, ..
        } => {
            assert_eq!((gd as usize, gn as usize), (want.nrows(), want.ncols()));
            assert_eq!(
                data.as_slice(),
                want.as_slice(),
                "service sketch must be bitwise local"
            );
        }
        other => panic!("expected full body, got {other:?}"),
    }

    // Checksum mode agrees with the locally computed reference.
    let sum = c
        .sketch("rt", d, b_d, b_n, seed, sketch_flags::CHECKSUM_ONLY, 0)
        .expect("checksum");
    match sum {
        SketchResult::Checksum { fro, xor, .. } => {
            assert_eq!(fro.to_bits(), want.fro_norm().to_bits());
            let want_xor = want
                .as_slice()
                .iter()
                .fold(0u64, |acc, v| acc ^ v.to_bits());
            assert_eq!(xor, want_xor);
        }
        other => panic!("expected checksum body, got {other:?}"),
    }

    c.shutdown().expect("shutdown");
    server.join();
}

/// The tentpole end-to-end: concurrent compatible requests are coalesced
/// into one traversal, and every batched response is bitwise identical to
/// a sequential local sketch with the same seed.
#[test]
fn batched_requests_are_bitwise_and_actually_batch() {
    let server = start(ServerConfig {
        worker_delay_ms: 120, // lets the queue fill while job 1 is in service
        ..ServerConfig::default()
    });
    let addr = server.addr();
    let mut c = client(&server);
    let (a, col_ptr, row_idx, values) = test_matrix(20);
    c.load_inline("bt", 20, 20, col_ptr, row_idx, values)
        .expect("load");

    let (d, b_d, b_n) = (12u64, 6u64, 5u64);
    let k = 4;
    let handles: Vec<_> = (0..k)
        .map(|r| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr, Duration::from_secs(30)).expect("connect");
                let seed = 7000 + r as u64;
                let got = c.sketch("bt", d, b_d, b_n, seed, 0, 0).expect("sketch");
                (seed, got)
            })
        })
        .collect();
    let mut max_batch = 0u32;
    for h in handles {
        let (seed, got) = h.join().expect("worker thread");
        let cfg = SketchConfig::new(d as usize, b_d as usize, b_n as usize, seed);
        let sampler = UnitUniform::<f64>::sampler(FastRng::new(seed));
        let want = sketchcore::sketch_alg3(&a, &cfg, &sampler);
        match got {
            SketchResult::Full { data, batch, .. } => {
                assert_eq!(
                    data.as_slice(),
                    want.as_slice(),
                    "seed {seed} diverged under batching"
                );
                max_batch = max_batch.max(batch);
            }
            other => panic!("expected full body, got {other:?}"),
        }
    }
    assert!(
        max_batch >= 2,
        "with a 120ms service delay and {k} concurrent requests, at least one \
         batch of >= 2 must form (got max batch {max_batch})"
    );

    // NO_BATCH requests never coalesce, even under the same pressure.
    let handles: Vec<_> = (0..k)
        .map(|r| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr, Duration::from_secs(30)).expect("connect");
                c.sketch(
                    "bt",
                    d,
                    b_d,
                    b_n,
                    9000 + r as u64,
                    sketch_flags::NO_BATCH,
                    0,
                )
                .expect("sketch")
                .batch()
            })
        })
        .collect();
    for h in handles {
        assert_eq!(
            h.join().expect("thread"),
            1,
            "NO_BATCH request rode in a batch"
        );
    }

    c.shutdown().expect("shutdown");
    server.join();
}

/// Pipelined requests on one connection: the window goes out in one write,
/// the server coalesces the whole window into one batch (replying with one
/// coalesced write), and every slot is bitwise identical to a sequential
/// local sketch with that slot's seed, in request order.
#[test]
fn pipelined_window_is_batched_and_bitwise() {
    let server = start(ServerConfig {
        worker_delay_ms: 80, // lets the full window queue before dispatch
        ..ServerConfig::default()
    });
    let mut c = client(&server);
    let (a, col_ptr, row_idx, values) = test_matrix(18);
    c.load_inline("pl", 18, 18, col_ptr, row_idx, values)
        .expect("load");

    let (d, b_d, b_n) = (10u64, 5u64, 6u64);
    let seeds: Vec<u64> = (0..6u64).map(|r| 4400 + r).collect();
    let results = c
        .sketch_many("pl", d, b_d, b_n, &seeds, 0, 0)
        .expect("pipeline");
    assert_eq!(results.len(), seeds.len());
    let mut max_batch = 0u32;
    for (seed, got) in seeds.iter().zip(results) {
        let cfg = SketchConfig::new(d as usize, b_d as usize, b_n as usize, *seed);
        let sampler = UnitUniform::<f64>::sampler(FastRng::new(*seed));
        let want = sketchcore::sketch_alg3(&a, &cfg, &sampler);
        match got.expect("pipelined sketch") {
            SketchResult::Full { data, batch, .. } => {
                assert_eq!(
                    data.as_slice(),
                    want.as_slice(),
                    "seed {seed} diverged in the pipelined batch"
                );
                max_batch = max_batch.max(batch);
            }
            other => panic!("expected full body, got {other:?}"),
        }
    }
    assert!(
        max_batch >= 2,
        "a pipelined window behind an 80ms delay must coalesce (max batch {max_batch})"
    );

    // A bad name mid-window errors only its own slot; later slots and the
    // connection itself survive.
    let mixed = c
        .sketch_many("no-such", d, b_d, b_n, &[1, 2], 0, 0)
        .expect("transport ok");
    assert!(mixed.iter().all(|r| matches!(
        r,
        Err(e) if e.status() == Some(Status::NotFound)
    )));
    let ok = c
        .sketch("pl", d, b_d, b_n, 1, 0, 0)
        .expect("connection survives");
    assert!(matches!(ok, SketchResult::Full { .. }));

    c.shutdown().expect("shutdown");
    server.join();
}

#[test]
fn expired_deadline_is_rejected_without_running() {
    let server = start(ServerConfig {
        worker_delay_ms: 150,
        ..ServerConfig::default()
    });
    let mut c = client(&server);
    let (_, col_ptr, row_idx, values) = test_matrix(12);
    c.load_inline("dl", 12, 12, col_ptr, row_idx, values)
        .expect("load");
    // 1ms deadline against a 150ms service delay: must come back
    // DeadlineExceeded, not Ok and not a hang.
    let err = c
        .sketch("dl", 8, 4, 4, 1, 0, 1)
        .expect_err("deadline must expire");
    assert_eq!(err.status(), Some(Status::DeadlineExceeded), "got {err}");
    // The connection is still usable afterwards.
    let ok = c.sketch("dl", 8, 4, 4, 1, 0, 0).expect("no deadline");
    assert!(matches!(ok, SketchResult::Full { .. }));
    c.shutdown().expect("shutdown");
    server.join();
}

#[test]
fn overload_is_rejected_with_a_typed_frame() {
    let server = start(ServerConfig {
        queue_cap: 1,
        worker_delay_ms: 300,
        ..ServerConfig::default()
    });
    let mut c = client(&server);
    let (_, col_ptr, row_idx, values) = test_matrix(12);
    c.load_inline("ov", 12, 12, col_ptr, row_idx, values)
        .expect("load");

    // Fire 5 requests down one connection without waiting for replies;
    // with queue_cap=1 and a slow worker, admission must reject some with
    // Overloaded while the rest are served.
    let mut raw = std::net::TcpStream::connect(server.addr()).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let req = sketchd::proto::SketchReq {
        name: "ov".into(),
        d: 8,
        b_d: 4,
        b_n: 4,
        seed: 5,
        flags: 0,
    };
    for id in 0..5u64 {
        let frame = Frame::request(Op::Sketch, id, 0, req.encode());
        proto::write_frame(&mut raw, &frame).expect("write");
    }
    let mut reader = proto::FrameReader::new();
    let mut ok = 0;
    let mut overloaded = 0;
    for _ in 0..5 {
        let f = loop {
            match reader.next_frame(&mut raw) {
                Ok(f) => break f,
                Err(proto::FrameReadError::TimedOut) => continue,
                Err(e) => panic!("reply read failed: {e}"),
            }
        };
        match f.status {
            Status::Ok => ok += 1,
            Status::Overloaded => overloaded += 1,
            s => panic!("unexpected status {s:?}"),
        }
    }
    assert!(ok >= 1, "some requests must be served");
    assert!(
        overloaded >= 1,
        "queue_cap=1 under 5 back-to-back requests must shed load"
    );
    c.shutdown().expect("shutdown");
    server.join();
}

#[test]
fn concurrent_stats_snapshot_and_diff_is_monotone() {
    let server = start(ServerConfig::default());
    let addr = server.addr();
    let mut c = client(&server);
    let (_, col_ptr, row_idx, values) = test_matrix(12);
    c.load_inline("st", 12, 12, col_ptr, row_idx, values)
        .expect("load");

    // Two threads hammer Stats while a third submits work; every Stats
    // body must parse and the svc.accepted delta must be monotone within
    // each thread (snapshot-and-diff over monotone counters — no reset).
    let stats_thread = move |n: usize| {
        let mut c = Client::connect(addr, Duration::from_secs(30)).expect("connect");
        let mut last = 0i64;
        for _ in 0..n {
            let body = c.stats().expect("stats");
            let accepted = json_u64(&body, "svc.accepted") as i64;
            assert!(
                accepted >= last,
                "svc.accepted went backwards: {last} -> {accepted} in {body}"
            );
            last = accepted;
        }
        last
    };
    let work = std::thread::spawn(move || {
        let mut c = Client::connect(addr, Duration::from_secs(30)).expect("connect");
        for s in 0..10 {
            let _ = c.sketch("st", 8, 4, 4, s, 0, 0).expect("sketch");
        }
    });
    let s1 = std::thread::spawn(move || stats_thread(20));
    let s2 = std::thread::spawn(move || stats_thread(20));
    work.join().expect("work thread");
    let (a1, a2) = (s1.join().expect("stats 1"), s2.join().expect("stats 2"));
    // After all 10 sketches completed, a final Stats must see them.
    let final_accepted = json_u64(&c.stats().expect("stats"), "svc.accepted");
    assert!(
        final_accepted >= 10,
        "expected >= 10 accepted, saw {final_accepted}"
    );
    assert!(a1 >= 0 && a2 >= 0);
    c.shutdown().expect("shutdown");
    server.join();
}

#[test]
fn registry_eviction_over_the_wire() {
    // Budget sized for roughly one matrix: the second load evicts the
    // first, and sketching the evicted name is NotFound.
    let (a, _, _, _) = test_matrix(64);
    let budget = (a.memory_bytes() as u64 * 3) / 2;
    let server = start(ServerConfig {
        registry_budget: budget,
        ..ServerConfig::default()
    });
    let mut c = client(&server);
    let load = |c: &mut Client, name: &str| {
        let (_, col_ptr, row_idx, values) = test_matrix(64);
        c.load_inline(name, 64, 64, col_ptr, row_idx, values)
            .expect("load")
    };
    let first = load(&mut c, "ev1");
    assert_eq!(first.evicted, 0);
    let second = load(&mut c, "ev2");
    assert_eq!(
        second.evicted, 1,
        "budget for ~1.5 matrices must evict the LRU entry"
    );
    let err = c.sketch("ev1", 8, 4, 4, 1, 0, 0).expect_err("evicted name");
    assert_eq!(err.status(), Some(Status::NotFound), "got {err}");
    assert!(matches!(
        c.sketch("ev2", 8, 4, 4, 1, 0, 0),
        Ok(SketchResult::Full { .. })
    ));
    c.shutdown().expect("shutdown");
    server.join();
}

#[test]
fn solve_sap_over_the_wire_matches_local() {
    let server = start(ServerConfig::default());
    let mut c = client(&server);
    // A well-conditioned tall system from datagen, shipped inline.
    let a = datagen::tall_conditioned(60, 8, 0.4, datagen::CondSpec::WELL, 42);
    c.load_inline(
        "sap",
        a.nrows() as u64,
        a.ncols() as u64,
        a.col_ptr().iter().map(|&v| v as u64).collect(),
        a.row_idx().iter().map(|&v| v as u64).collect(),
        a.values().to_vec(),
    )
    .expect("load");
    let (rhs, _x_true) = datagen::make_rhs(&a, 7);
    let resp = c.solve_sap("sap", 2, 0x5AB, rhs.clone(), 0).expect("solve");
    assert_eq!(resp.x.len(), a.ncols());
    let local = lstsq::try_solve_sap_with(
        &a,
        &rhs,
        &lstsq::SapOptions {
            gamma: 2,
            seed: 0x5AB,
            ..lstsq::SapOptions::default()
        },
        &lstsq::RecoveryPolicy::default(),
    )
    .expect("local solve");
    for (got, want) in resp.x.iter().zip(local.x.iter()) {
        assert!(
            (got - want).abs() <= 1e-10 * (1.0 + want.abs()),
            "{got} vs {want}"
        );
    }
    c.shutdown().expect("shutdown");
    server.join();
}

#[test]
fn bad_requests_get_typed_frames_and_the_connection_survives() {
    let server = start(ServerConfig::default());
    let mut c = client(&server);
    // Unknown name.
    let err = c
        .sketch("nope", 8, 4, 4, 1, 0, 0)
        .expect_err("unknown name");
    assert_eq!(err.status(), Some(Status::NotFound));
    // Zero d.
    let err = c.sketch("nope", 0, 4, 4, 1, 0, 0).expect_err("d = 0");
    assert_eq!(err.status(), Some(Status::BadRequest));
    // Unknown flags.
    let err = c
        .sketch("nope", 8, 4, 4, 1, 0x8000_0000, 0)
        .expect_err("bad flags");
    assert_eq!(err.status(), Some(Status::BadRequest));
    // Structurally broken inline matrix.
    let err = c
        .load_inline("bad", 4, 2, vec![0, 1], vec![0], vec![1.0])
        .expect_err("short col_ptr");
    assert_eq!(err.status(), Some(Status::BadRequest));
    // After all of that, the same connection still serves work.
    let (_, col_ptr, row_idx, values) = test_matrix(8);
    c.load_inline("fine", 8, 8, col_ptr, row_idx, values)
        .expect("load");
    assert!(matches!(
        c.sketch("fine", 4, 2, 2, 1, 0, 0),
        Ok(SketchResult::Full { .. })
    ));
    // A sketch whose output size overflows u64 bytes is over budget, not a
    // wrapped small size: the server answers and stays up.
    let err = c
        .sketch("fine", 1 << 61, 4, 4, 1, 0, 0)
        .expect_err("d = 2^61");
    assert_eq!(err.status(), Some(Status::Overloaded));
    c.health().expect("health after an oversized sketch");
    // Likewise a γ whose sketch cannot fit, however d = γ·n would wrap.
    for gamma in [1u64 << 40, 1 << 58, 1 << 62, u64::MAX / 3] {
        let err = c
            .solve_sap("fine", gamma, 1, vec![1.0; 8], 0)
            .expect_err("oversized gamma");
        assert_eq!(err.status(), Some(Status::Overloaded), "gamma = {gamma}");
    }
    c.health().expect("health after oversized solves");
    c.shutdown().expect("shutdown");
    server.join();
}

#[test]
fn shutdown_drains_and_joins_cleanly() {
    let server = start(ServerConfig {
        worker_delay_ms: 50,
        ..ServerConfig::default()
    });
    let addr = server.addr();
    let mut c = client(&server);
    let (_, col_ptr, row_idx, values) = test_matrix(12);
    c.load_inline("sd", 12, 12, col_ptr, row_idx, values)
        .expect("load");
    // Submit work, then shut down from another connection while it is in
    // flight; the queued job must still be answered (drain semantics).
    let worker = std::thread::spawn(move || {
        let mut c = Client::connect(addr, Duration::from_secs(30)).expect("connect");
        c.sketch("sd", 8, 4, 4, 3, 0, 0)
    });
    std::thread::sleep(Duration::from_millis(10));
    c.shutdown().expect("shutdown");
    let inflight = worker.join().expect("thread");
    assert!(
        inflight.is_ok(),
        "in-flight request must drain through shutdown: {inflight:?}"
    );
    server.join();
    // New connections are refused (or reset) once the listener is gone.
    let post =
        Client::connect(addr, Duration::from_millis(300)).and_then(|mut c| c.health().map(|_| ()));
    assert!(post.is_err(), "server must not serve after join()");
}

#[test]
fn work_after_shutdown_flag_is_refused_as_shutting_down() {
    let server = start(ServerConfig::default());
    let mut c1 = client(&server);
    let mut c2 = client(&server);
    c1.shutdown().expect("shutdown");
    // The second connection races server teardown: acceptable outcomes are
    // a typed ShuttingDown frame or a closed/reset connection — never a
    // hang or a served request.
    match c2.sketch("x", 8, 4, 4, 1, 0, 0) {
        Err(e) => {
            if let Some(s) = e.status() {
                assert!(
                    matches!(s, Status::ShuttingDown | Status::NotFound),
                    "unexpected status {s:?}"
                );
            }
        }
        Ok(r) => panic!("request served after shutdown: {r:?}"),
    }
    server.join();
}

/// Minimal JSON number extraction for the hand-rolled stats body.
fn json_u64(body: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let start = body
        .find(&pat)
        .unwrap_or_else(|| panic!("{key} missing from {body}"))
        + pat.len();
    body[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("{key} not a number in {body}"))
}
