//! The sweepd service: a bounded worker pool pulling cells from a
//! shared deadline-aware queue (idle workers steal whatever is next —
//! there is no per-worker ownership), a content-addressed
//! [`CellCache`], and a small HTTP API:
//!
//! * `POST /sweep` — submit a [`SweepSpec`]; cached cells are answered
//!   from the cache, the rest are enqueued;
//! * `GET /status` — queue/worker/cache counters as JSON;
//! * `GET /cell/<key>` — one cell's canonical JSON (`200`), its
//!   failure verdict (`500`), or `404` while pending/unknown;
//! * `POST /drain` — stop accepting sweeps, finish in-flight cells,
//!   then shut down.
//!
//! Every cell executes through one [`run_cell`] call on the supervised
//! executor, so a panicking or stuck seed becomes a typed verdict
//! (the soft deadline applies whether or not cells checkpoint); the
//! cell is retried up to the configured budget, then parked as failed
//! with the verdict attached. With a checkpoint cadence configured
//! ([`ServerConfig::checkpoint_every`]) the seeds publish rotated
//! snapshots under `<cache_dir>/ckpt/<cell key>/` and — after a kill,
//! crash, timeout or parked attempt — resume from the newest snapshot
//! passing the integrity and compatibility gates, degrading to older
//! snapshots and finally a cold start on corruption. `/status`
//! reports the per-worker resume/fallback tallies.

use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use mobic_scenario::{run_cell, CheckpointPolicy, Supervision, SweepCell, SweepSpec};
use mobic_trace::Stopwatch;

use crate::cache::CellCache;
use crate::http::{json_escape, read_request, write_response, Request};

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; use port `0` for an ephemeral port (tests).
    pub addr: String,
    /// Cache directory (created if missing). A PR-4 `--out` directory
    /// works as a warm start.
    pub cache_dir: PathBuf,
    /// Worker threads; `0` means one per host core.
    pub workers: usize,
    /// Extra attempts after a cell's first failure before it is
    /// parked as failed.
    pub retry_budget: u32,
    /// Soft per-run wall-clock deadline handed to the supervised
    /// batch executor; `None` disables the watchdog.
    pub deadline: Option<Duration>,
    /// Checkpoint cadence in seconds for cell computations. With
    /// `Some(s)`, rotated snapshots land under
    /// `<cache_dir>/ckpt/<cell key>/seed-<n>/` roughly every `s`
    /// wall-clock seconds, and a worker picking up a cell resumes each
    /// seed from its newest snapshot passing the integrity +
    /// compatibility gates (degrading to older snapshots, then a cold
    /// start, on corruption). `None` (the default) writes no
    /// snapshots. Either way the cell runs through [`run_cell`].
    pub checkpoint_every: Option<f64>,
    /// Per-connection socket read **and** write timeout: a peer that
    /// stalls sending its request or draining our response is cut
    /// off, never parking a service thread forever.
    pub io_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7700".to_string(),
            cache_dir: PathBuf::from("cache"),
            workers: 0,
            retry_budget: 2,
            deadline: None,
            checkpoint_every: None,
            io_timeout: Duration::from_secs(10),
        }
    }
}

/// One queued cell computation.
struct Job {
    key: String,
    cell: SweepCell,
    /// Retries remaining after the current attempt.
    attempts_left: u32,
    /// Fault hook carried over from the spec: remaining attempts that
    /// deliberately panic (see [`SweepSpec::fault_panic_attempts`]).
    panic_attempts: u32,
}

/// Per-worker crash-recovery tally, reported verbatim by `/status`.
#[derive(Debug, Clone, Copy, Default)]
struct WorkerRecovery {
    /// Seeds this worker resumed from a snapshot.
    resumed: u64,
    /// Snapshots this worker rejected (corrupt or incompatible),
    /// degrading to an older snapshot or a cold start.
    fallbacks: u64,
}

/// Mutable service state, behind the one mutex.
struct Inner {
    queue: VecDeque<Job>,
    /// Per-worker current cell key; `None` = idle.
    busy: Vec<Option<String>>,
    /// Per-worker resume/fallback counters (same indexing as `busy`).
    recovery: Vec<WorkerRecovery>,
    /// Parked cells: key → failure verdict.
    failed: BTreeMap<String, String>,
    cache: CellCache,
    cache_hits: u64,
    cache_misses: u64,
    cells_computed: u64,
    /// Scenario runs *attempted* (seeds × attempts) — the counter the
    /// e2e test watches to prove a resubmitted spec runs nothing.
    runs_executed: u64,
    retries: u64,
    /// Worker threads abandoned past the supervised batch's join
    /// grace (see [`mobic_scenario::BatchStats`]).
    leaked_workers: u64,
    draining: bool,
    stop: bool,
}

struct Shared {
    inner: Mutex<Inner>,
    work: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Inner> {
        // A worker can only poison this mutex by panicking mid-update;
        // every update leaves the state consistent line-by-line, so
        // recovering the guard is safe and keeps the service up.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A running sweepd instance: bound listener + worker pool.
pub struct Server {
    listener: TcpListener,
    local: SocketAddr,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    retry_budget: u32,
    io_timeout: Duration,
    clock: Stopwatch,
}

impl Server {
    /// Binds the listener, loads the cache, and spawns the worker
    /// pool. The service does not accept connections until
    /// [`Server::run`] is called.
    ///
    /// # Errors
    ///
    /// Returns an [`io::Error`] if the address cannot be bound or the
    /// cache directory cannot be opened.
    pub fn bind(cfg: &ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local = listener.local_addr()?;
        let cache = CellCache::open(&cfg.cache_dir)?;
        let n_workers = if cfg.workers == 0 {
            // Worker count shapes throughput only — every cell is an
            // independent (config, seeds) computation, so sizing the
            // pool from the host can never affect result bytes.
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4)
        } else {
            cfg.workers
        };
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                busy: vec![None; n_workers],
                recovery: vec![WorkerRecovery::default(); n_workers],
                failed: BTreeMap::new(),
                cache,
                cache_hits: 0,
                cache_misses: 0,
                cells_computed: 0,
                runs_executed: 0,
                retries: 0,
                leaked_workers: 0,
                draining: false,
                stop: false,
            }),
            work: Condvar::new(),
        });
        let options = WorkerOptions {
            deadline: cfg.deadline,
            checkpoint: cfg
                .checkpoint_every
                .map(|every_s| CheckpointPolicy { every_s, keep: 2 }),
            ckpt_root: cfg.cache_dir.join("ckpt"),
        };
        let workers = (0..n_workers)
            .map(|idx| {
                let shared = Arc::clone(&shared);
                let options = options.clone();
                std::thread::spawn(move || worker_loop(&shared, idx, &options))
            })
            .collect();
        Ok(Server {
            listener,
            local,
            shared,
            workers,
            retry_budget: cfg.retry_budget,
            io_timeout: cfg.io_timeout,
            clock: Stopwatch::start(),
        })
    }

    /// The bound address (resolves port `0` to the actual port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.local
    }

    /// Number of worker threads in the pool.
    #[must_use]
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Serves requests until a `POST /drain` lands **and** the queue
    /// and every worker are empty; then stops the pool and joins it.
    ///
    /// # Errors
    ///
    /// Returns an [`io::Error`] only for listener-level failures;
    /// per-connection errors are logged to stderr and dropped.
    pub fn run(mut self) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if let Err(e) = self.handle(stream) {
                        eprintln!("mobic-sweepd: connection error: {e}");
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if self.drained() {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(e),
            }
        }
        {
            let mut inner = self.shared.lock();
            inner.stop = true;
        }
        self.shared.work.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        Ok(())
    }

    /// `true` once draining was requested and all work has landed.
    fn drained(&self) -> bool {
        let inner = self.shared.lock();
        inner.draining && inner.queue.is_empty() && inner.busy.iter().all(Option::is_none)
    }

    /// Serves one connection (requests are small and handlers only
    /// briefly take the state lock, so serial handling suffices).
    ///
    /// Both socket directions carry `io_timeout`: a client that stalls
    /// mid-request or stops draining the response is cut off instead
    /// of parking the accept loop. An oversized request is answered
    /// with `413` — a protocol-level verdict the client can act on —
    /// rather than a bare connection drop.
    fn handle(&self, mut stream: TcpStream) -> io::Result<()> {
        stream.set_read_timeout(Some(self.io_timeout))?;
        stream.set_write_timeout(Some(self.io_timeout))?;
        let request = match read_request(&mut stream) {
            Ok(request) => request,
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                let status = if e.to_string().contains("too large") {
                    413
                } else {
                    400
                };
                let body = format!("{{\"error\":\"{}\"}}", json_escape(&e.to_string()));
                return write_response(&mut stream, status, &body);
            }
            Err(e) => return Err(e),
        };
        let (status, body) = self.route(&request);
        write_response(&mut stream, status, &body)
    }

    /// Dispatches one parsed request to its handler.
    fn route(&self, request: &Request) -> (u16, String) {
        match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/status") => (200, self.status_json()),
            ("GET", path) if path.starts_with("/cell/") => self.cell(&path["/cell/".len()..]),
            ("POST", "/sweep") => self.submit(&request.body),
            ("POST", "/drain") => {
                self.shared.lock().draining = true;
                self.shared.work.notify_all();
                (200, "{\"draining\":true}".to_string())
            }
            (method, path) => (
                404,
                format!(
                    "{{\"error\":\"no route for {} {}\"}}",
                    json_escape(method),
                    json_escape(path)
                ),
            ),
        }
    }

    /// `GET /cell/<key>`: the cell's canonical JSON, its failure
    /// verdict, or 404 while pending/unknown.
    fn cell(&self, key: &str) -> (u16, String) {
        let inner = self.shared.lock();
        if let Some(json) = inner.cache.get(key) {
            return (200, json.to_string());
        }
        if let Some(verdict) = inner.failed.get(key) {
            return (500, format!("{{\"error\":\"{}\"}}", json_escape(verdict)));
        }
        (404, "{\"error\":\"cell pending or unknown\"}".to_string())
    }

    /// `POST /sweep`: expand the spec, answer cached cells from the
    /// cache, enqueue the rest (re-queueing previously failed cells,
    /// deduplicating against queued and running ones).
    fn submit(&self, body: &str) -> (u16, String) {
        let spec = match SweepSpec::from_json(body) {
            Ok(spec) => spec,
            Err(e) => {
                return (
                    400,
                    format!("{{\"error\":\"{}\"}}", json_escape(&e.to_string())),
                )
            }
        };
        let mut inner = self.shared.lock();
        if inner.draining {
            return (
                503,
                "{\"error\":\"draining; not accepting new sweeps\"}".to_string(),
            );
        }
        let mut keys = Vec::new();
        let mut cached = 0usize;
        let mut queued = 0usize;
        for cell in spec.cells() {
            let key = cell.key();
            if inner.cache.lookup(&cell).is_some() {
                inner.cache_hits += 1;
                cached += 1;
            } else {
                queued += 1;
                let in_flight = inner.queue.iter().any(|j| j.key == key)
                    || inner.busy.iter().flatten().any(|k| *k == key);
                if !in_flight {
                    inner.cache_misses += 1;
                    inner.failed.remove(&key);
                    inner.queue.push_back(Job {
                        key: key.clone(),
                        cell,
                        attempts_left: self.retry_budget,
                        panic_attempts: spec.fault_panic_attempts,
                    });
                }
            }
            keys.push(format!("\"{}\"", json_escape(&key)));
        }
        drop(inner);
        self.shared.work.notify_all();
        (
            200,
            format!(
                "{{\"cells\":[{}],\"cached\":{cached},\"queued\":{queued}}}",
                keys.join(",")
            ),
        )
    }

    /// `GET /status`: the full counter set as hand-rolled JSON.
    fn status_json(&self) -> String {
        let inner = self.shared.lock();
        let running = inner.busy.iter().flatten().count();
        let lookups = inner.cache_hits + inner.cache_misses;
        #[allow(clippy::cast_precision_loss)] // counters stay far below 2^52
        let hit_rate = if lookups == 0 {
            0.0
        } else {
            inner.cache_hits as f64 / lookups as f64
        };
        let workers: Vec<String> = inner
            .busy
            .iter()
            .map(|b| match b {
                Some(key) => format!("\"{}\"", json_escape(key)),
                None => "null".to_string(),
            })
            .collect();
        let recovery: Vec<String> = inner
            .recovery
            .iter()
            .map(|r| {
                format!(
                    "{{\"resumed\":{},\"fallbacks\":{}}}",
                    r.resumed, r.fallbacks
                )
            })
            .collect();
        let resumed_runs: u64 = inner.recovery.iter().map(|r| r.resumed).sum();
        let snapshot_fallbacks: u64 = inner.recovery.iter().map(|r| r.fallbacks).sum();
        format!(
            "{{\"queued\":{},\"running\":{running},\"cached\":{},\"failed\":{},\
             \"cache_hits\":{},\"cache_misses\":{},\"cache_hit_rate\":{hit_rate:.4},\
             \"cells_computed\":{},\"runs_executed\":{},\"retries\":{},\
             \"resumed_runs\":{resumed_runs},\"snapshot_fallbacks\":{snapshot_fallbacks},\
             \"leaked_workers\":{},\"uptime_ms\":{:.1},\"draining\":{},\
             \"workers\":[{}],\"recovery\":[{}]}}",
            inner.queue.len(),
            inner.cache.len(),
            inner.failed.len(),
            inner.cache_hits,
            inner.cache_misses,
            inner.cells_computed,
            inner.runs_executed,
            inner.retries,
            inner.leaked_workers,
            self.clock.elapsed_ms(),
            inner.draining,
            workers.join(","),
            recovery.join(",")
        )
    }
}

/// Per-worker execution knobs, shared by every worker thread.
#[derive(Debug, Clone)]
struct WorkerOptions {
    /// Soft per-run deadline.
    deadline: Option<Duration>,
    /// Snapshot cadence; `None` writes no snapshots.
    checkpoint: Option<CheckpointPolicy>,
    /// Snapshot root (`<cache_dir>/ckpt`); each cell gets a
    /// subdirectory named after its key.
    ckpt_root: PathBuf,
}

/// One worker: pull the next job, compute it under supervision, store
/// or retry/park, repeat until the stop flag is up and the queue dry.
fn worker_loop(shared: &Shared, idx: usize, options: &WorkerOptions) {
    loop {
        let mut inner = shared.lock();
        let job = loop {
            if let Some(job) = inner.queue.pop_front() {
                break Some(job);
            }
            if inner.stop {
                break None;
            }
            inner = shared
                .work
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        };
        let Some(mut job) = job else {
            return;
        };
        inner.busy[idx] = Some(job.key.clone());
        inner.runs_executed += job.cell.seeds.len() as u64;
        drop(inner);

        let supervision = Supervision {
            soft_deadline: options.deadline,
            // The spec-level fault hook: panic the first seed of this
            // attempt, exactly like the CI fault smoke does locally.
            panic_on: (job.panic_attempts > 0).then_some(0),
            ..Supervision::default()
        };
        // With a cadence, snapshots go under `ckpt/<key>/seed-<n>/`,
        // resumed on pickup. A parked, timed-out or killed attempt
        // leaves its snapshots behind, so the retry — or a
        // resubmission after a crash — resumes instead of recomputing
        // (`:` is not portable in file names, same mapping as the cell
        // cache).
        let dir = options.ckpt_root.join(job.key.replace(':', "-"));
        let checkpoint = options.checkpoint.map(|policy| (dir.as_path(), policy));
        let (result, stats) = run_cell(&job.cell, &supervision, checkpoint);

        let mut inner = shared.lock();
        inner.busy[idx] = None;
        inner.recovery[idx].resumed += u64::from(stats.resumed);
        inner.recovery[idx].fallbacks += u64::from(stats.fallbacks);
        inner.leaked_workers += u64::from(stats.leaked_workers);
        match result {
            Ok(outcome) => {
                let json = outcome.to_json_pretty();
                match inner.cache.put(&job.key, &json) {
                    Ok(()) => inner.cells_computed += 1,
                    Err(e) => {
                        let verdict = format!("cache write failed: {e}");
                        inner.failed.insert(job.key.clone(), verdict);
                    }
                }
            }
            Err(e) => {
                job.panic_attempts = job.panic_attempts.saturating_sub(1);
                if job.attempts_left > 0 {
                    job.attempts_left -= 1;
                    inner.retries += 1;
                    inner.queue.push_back(job);
                } else {
                    inner.failed.insert(job.key.clone(), e.to_string());
                }
            }
        }
        drop(inner);
        shared.work.notify_all();
    }
}
