//! In-process end-to-end exercise of the sweepd service loop
//! (ISSUE 7): ephemeral-port startup, spec submission, status
//! polling, worker kill + retry via the fault hooks, byte-identity
//! against direct computation, and graceful drain.
#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "polls a live server against wall-clock timeouts and plants a corrupt snapshot"
)]

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use mobic::core::AlgorithmKind;
use mobic::scenario::{run_cell, ScenarioConfig, Supervision, SweepSpec};
use mobic::sweepd::http::request;
use mobic::sweepd::{Server, ServerConfig};

fn tmp_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("mobic_sweepd_e2e_{tag}_{}_{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Binds a server on an ephemeral port and serves it from a thread,
/// applying `tweak` to the config first.
fn start_with(
    tag: &str,
    workers: usize,
    tweak: impl FnOnce(&mut ServerConfig),
) -> (String, PathBuf, std::thread::JoinHandle<()>) {
    let cache_dir = tmp_dir(tag);
    let mut cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        cache_dir: cache_dir.clone(),
        workers,
        retry_budget: 2,
        ..ServerConfig::default()
    };
    tweak(&mut cfg);
    let server = Server::bind(&cfg).expect("server binds");
    let addr = server.addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("server runs"));
    (addr, cache_dir, handle)
}

/// Binds a default-configured server on an ephemeral port.
fn start(tag: &str, workers: usize) -> (String, PathBuf, std::thread::JoinHandle<()>) {
    start_with(tag, workers, |_| {})
}

fn tiny_base() -> ScenarioConfig {
    let mut base = ScenarioConfig::paper_table1();
    base.n_nodes = 8;
    base.sim_time_s = 30.0;
    base
}

fn status_json(addr: &str) -> serde_json::Value {
    let (code, body) = request(addr, "GET", "/status", "").expect("status reachable");
    assert_eq!(code, 200, "{body}");
    serde_json::from_str(&body).expect("status is JSON")
}

/// Polls `/cell/<key>` for every key until all land (or fails the
/// test after `limit`), returning the raw cell bodies.
fn wait_for_cells(addr: &str, keys: &[String], limit: Duration) -> Vec<String> {
    let started = Instant::now();
    let mut bodies: Vec<Option<String>> = vec![None; keys.len()];
    while bodies.iter().any(Option::is_none) {
        assert!(
            started.elapsed() < limit,
            "cells did not land in {limit:?}; status: {}",
            status_json(addr)
        );
        for (i, key) in keys.iter().enumerate() {
            if bodies[i].is_some() {
                continue;
            }
            let (code, body) = request(addr, "GET", &format!("/cell/{key}"), "").expect("poll");
            match code {
                200 => bodies[i] = Some(body),
                404 => {} // pending
                other => panic!("cell {key} failed: {other} {body}"),
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    bodies.into_iter().flatten().collect()
}

fn submit(addr: &str, spec: &SweepSpec) -> serde_json::Value {
    let (code, body) = request(addr, "POST", "/sweep", &spec.to_json()).expect("submit");
    assert_eq!(code, 200, "{body}");
    serde_json::from_str(&body).expect("submit response is JSON")
}

#[test]
fn service_computes_caches_and_drains() {
    let (addr, cache_dir, handle) = start("full", 2);
    let spec = SweepSpec {
        base: tiny_base(),
        tx_values: vec![150.0, 200.0],
        algorithms: vec![AlgorithmKind::Mobic],
        seeds: 2,
        fault_panic_attempts: 0,
    };

    // Cold submit: everything queues.
    let response = submit(&addr, &spec);
    let keys: Vec<String> = response["cells"]
        .as_array()
        .expect("cells array")
        .iter()
        .map(|v| v.as_str().expect("key string").to_string())
        .collect();
    assert_eq!(keys.len(), 2);
    assert_eq!(response["cached"].as_u64(), Some(0));
    assert_eq!(response["queued"].as_u64(), Some(2));
    // The response keys are exactly the spec's own cell keys, in
    // expansion order.
    let expected: Vec<String> = spec.cells().iter().map(|c| c.key()).collect();
    assert_eq!(keys, expected);

    // Every cell lands and is byte-identical to direct computation.
    let bodies = wait_for_cells(&addr, &keys, Duration::from_secs(120));
    for (cell, body) in spec.cells().iter().zip(&bodies) {
        let direct = run_cell(cell, &Supervision::default(), None)
            .0
            .expect("direct run");
        assert_eq!(
            &direct.to_json_pretty(),
            body,
            "service cell {} must match direct computation byte-for-byte",
            cell.key()
        );
    }

    // The acceptance criterion: resubmitting the identical spec
    // performs ZERO scenario runs — all cells answer from the cache
    // and the runs_executed counter does not move.
    let status = status_json(&addr);
    let runs_before = status["runs_executed"].as_u64().expect("runs_executed");
    assert_eq!(runs_before, 4, "2 cells x 2 seeds, no retries: {status}");
    assert_eq!(status["cached"].as_u64(), Some(2), "{status}");
    assert_eq!(status["failed"].as_u64(), Some(0), "{status}");
    let resubmit = submit(&addr, &spec);
    assert_eq!(resubmit["cached"].as_u64(), Some(2), "{resubmit}");
    assert_eq!(resubmit["queued"].as_u64(), Some(0), "{resubmit}");
    let status = status_json(&addr);
    assert_eq!(
        status["runs_executed"].as_u64(),
        Some(runs_before),
        "a 100% cache hit must not execute a single run: {status}"
    );
    assert!(status["cache_hits"].as_u64() >= Some(2), "{status}");

    // API edges while the service is still up.
    let (code, _) = request(&addr, "POST", "/sweep", "{not json").expect("bad spec");
    assert_eq!(code, 400);
    let (code, _) = request(&addr, "GET", "/cell/fnv1a64:0000000000000000", "").expect("miss");
    assert_eq!(code, 404);
    let (code, _) = request(&addr, "GET", "/nope", "").expect("bad route");
    assert_eq!(code, 404);

    // Drain: the server acknowledges, finishes (nothing in flight),
    // and exits; its thread joins cleanly.
    let (code, body) = request(&addr, "POST", "/drain", "").expect("drain");
    assert_eq!(code, 200, "{body}");
    handle.join().expect("server thread exits cleanly");
    assert!(
        request(&addr, "GET", "/status", "").is_err(),
        "a drained server must stop answering"
    );
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn killed_worker_cell_is_retried_and_stays_byte_identical() {
    let (addr, cache_dir, handle) = start("fault", 1);
    // The fault hook kills the worker's cell mid-flight (a deliberate
    // panic inside the supervised batch) on the first attempt; the
    // retry then runs clean.
    let spec = SweepSpec {
        base: tiny_base(),
        tx_values: vec![175.0],
        algorithms: vec![AlgorithmKind::Mobic],
        seeds: 2,
        fault_panic_attempts: 1,
    };
    let response = submit(&addr, &spec);
    assert_eq!(response["queued"].as_u64(), Some(1), "{response}");
    let keys: Vec<String> = response["cells"]
        .as_array()
        .expect("cells")
        .iter()
        .map(|v| v.as_str().expect("key").to_string())
        .collect();

    let bodies = wait_for_cells(&addr, &keys, Duration::from_secs(120));
    let status = status_json(&addr);
    assert!(
        status["retries"].as_u64() >= Some(1),
        "the killed attempt must be retried: {status}"
    );
    // Despite the mid-cell kill, the final cell matches an unfaulted
    // direct computation byte-for-byte (the panicked attempt left no
    // partial outcome).
    let cells = spec.cells();
    let direct = run_cell(&cells[0], &Supervision::default(), None)
        .0
        .expect("direct run");
    assert_eq!(direct.to_json_pretty(), bodies[0]);

    // The fault hook is not part of the content address: the same
    // cell without faults is a pure cache hit.
    let mut clean = spec.clone();
    clean.fault_panic_attempts = 0;
    let resubmit = submit(&addr, &clean);
    assert_eq!(resubmit["cached"].as_u64(), Some(1), "{resubmit}");

    let (code, _) = request(&addr, "POST", "/drain", "").expect("drain");
    assert_eq!(code, 200);
    handle.join().expect("server thread exits cleanly");
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// The crash-recovery story end to end: a previous sweepd (or one of
/// its workers) died mid-cell leaving snapshots on disk; a fresh
/// server picking the cell up resumes from them — counted in
/// `/status` — and still serves bytes identical to a cold
/// computation. A corrupt snapshot for another seed degrades to a
/// cold start instead of poisoning the cell.
#[test]
fn checkpointing_server_resumes_from_prior_snapshots() {
    use mobic::scenario::{run_scenario_until, write_rotated, RunOutcome};
    use mobic::trace::NullSink;

    let spec = SweepSpec {
        base: tiny_base(),
        tx_values: vec![190.0],
        algorithms: vec![AlgorithmKind::Mobic],
        seeds: 2,
        fault_panic_attempts: 0,
    };
    let cells = spec.cells();
    let cell = &cells[0];

    // Simulate the killed predecessor: suspend seed 0 mid-run and
    // leave the rotated snapshot exactly where a checkpointing worker
    // would have put it (`<cache>/ckpt/<key with : mapped to ->/seed-0/`),
    // plus a corrupt snapshot for seed 1.
    let cache_dir = tmp_dir("ckpt_pre");
    let cell_dir = cache_dir.join("ckpt").join(cell.key().replace(':', "-"));
    let outcome = run_scenario_until(&cell.config, 0, 40, &mut NullSink).expect("suspendable run");
    let RunOutcome::Suspended(snapshot) = outcome else {
        panic!("the run must suspend at event 40");
    };
    write_rotated(&snapshot, &cell_dir.join("seed-0"), 2).expect("snapshot lands");
    let seed1 = cell_dir.join("seed-1");
    std::fs::create_dir_all(&seed1).expect("seed-1 dir");
    std::fs::write(seed1.join("ckpt-00000000000000000050.ckpt"), b"garbage").expect("corrupt");

    // A fresh checkpointing server over the same cache directory.
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        cache_dir: cache_dir.clone(),
        workers: 1,
        checkpoint_every: Some(1e-9),
        ..ServerConfig::default()
    };
    let server = Server::bind(&cfg).expect("server binds");
    let addr = server.addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("server runs"));

    let response = submit(&addr, &spec);
    assert_eq!(response["queued"].as_u64(), Some(1), "{response}");
    let keys: Vec<String> = response["cells"]
        .as_array()
        .expect("cells")
        .iter()
        .map(|v| v.as_str().expect("key").to_string())
        .collect();
    let bodies = wait_for_cells(&addr, &keys, Duration::from_secs(120));

    // Byte identity despite the mixed resume/corrupt/cold starts.
    let direct = run_cell(cell, &Supervision::default(), None)
        .0
        .expect("direct run");
    assert_eq!(direct.to_json_pretty(), bodies[0]);

    // The recovery is visible: seed 0 resumed, seed 1's garbage was
    // rejected, and both tallies are attributed to worker 0.
    let status = status_json(&addr);
    assert!(
        status["resumed_runs"].as_u64() >= Some(1),
        "seed 0 must resume from the snapshot: {status}"
    );
    assert!(
        status["snapshot_fallbacks"].as_u64() >= Some(1),
        "seed 1's corrupt snapshot must be counted: {status}"
    );
    assert_eq!(
        status["recovery"].as_array().expect("a recovery array")[0]["resumed"],
        status["resumed_runs"],
        "one worker owns every resume: {status}"
    );

    // The finished cell's snapshots were cleaned up.
    assert!(
        !cell_dir.exists(),
        "a completed cell must remove its snapshot directory"
    );

    let (code, _) = request(&addr, "POST", "/drain", "").expect("drain");
    assert_eq!(code, 200);
    handle.join().expect("server thread exits cleanly");
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// HTTP hardening edges: an oversized request is answered with a
/// protocol-level `413` (not a silent connection drop), a client
/// that stalls without sending a request is cut off by the socket
/// timeout without wedging the service, and a spec whose grid expands
/// past the run cap is a `400` from the count alone, before anything
/// is expanded.
#[test]
fn oversized_and_stalled_clients_cannot_wedge_the_service() {
    use std::io::{Read, Write};
    use std::net::TcpStream;

    use mobic::sweepd::http::MAX_REQUEST_BYTES;

    let (addr, cache_dir, handle) = start_with("harden", 1, |cfg| {
        cfg.io_timeout = Duration::from_millis(300);
    });

    // Oversized: the declared body exceeds the cap, so the verdict
    // arrives from the headers alone — no body bytes are ever sent.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    write!(
        stream,
        "POST /sweep HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        MAX_REQUEST_BYTES + 1
    )
    .expect("send head");
    stream.flush().expect("flush");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("read 413 response");
    assert!(
        response.starts_with("HTTP/1.1 413 Payload Too Large"),
        "{response}"
    );
    drop(stream);

    // Stalled: connect and send nothing. The read timeout must close
    // the connection rather than parking the accept loop forever.
    let mut stalled = TcpStream::connect(&addr).expect("connect stalled");
    let mut buf = [0u8; 64];
    let n = stalled.read(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "a stalled connection must be cut off, not served");
    drop(stalled);

    // Too many runs: 2 tx × 2 algorithms × 2^62 seeds.
    let spec = SweepSpec {
        base: tiny_base(),
        tx_values: vec![150.0, 200.0],
        algorithms: vec![AlgorithmKind::Lcc, AlgorithmKind::Mobic],
        seeds: 1 << 62,
        fault_panic_attempts: 0,
    };
    let (code, body) = request(&addr, "POST", "/sweep", &spec.to_json()).expect("submit");
    assert_eq!(code, 400, "{body}");
    assert!(body.contains("131072 runs"), "{body}");

    // The service is still healthy after all three abuses, and the
    // refused spec queued nothing.
    let status = status_json(&addr);
    assert_eq!(
        status["draining"],
        serde_json::Value::Bool(false),
        "{status}"
    );
    assert_eq!(status["queued"].as_u64(), Some(0), "{status}");
    assert_eq!(status["cache_misses"].as_u64(), Some(0), "{status}");

    let (code, _) = request(&addr, "POST", "/drain", "").expect("drain");
    assert_eq!(code, 200);
    handle.join().expect("server thread exits cleanly");
    let _ = std::fs::remove_dir_all(&cache_dir);
}
