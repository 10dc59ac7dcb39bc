//! Multi-run parameter sweeps on one thread-parallel executor — the
//! supervised one, which survives panicking or stuck jobs and can
//! checkpoint them — and the sweep-spec layer (grid expansion +
//! content-addressed cell keys) shared by `mobic-cli sweep` and the
//! `mobic-sweepd` service.
//!
//! Three entry points: [`run_batch_supervised`] is the executor and
//! gives every job a verdict, [`run_batch`] is its fail-fast form, and
//! [`run_cell`] computes one sweep cell on it, the only way a cell is
//! computed.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::mpsc;
use std::time::Duration;

use mobic_core::AlgorithmKind;
use mobic_metrics::OnlineStats;
use mobic_trace::{NullSink, PhaseTimings, Stopwatch};
use serde::{Deserialize, Serialize};

use crate::{
    config_hash_for, latest_snapshot, run_scenario, run_scenario_checkpointed, CheckpointPolicy,
    RunError, RunResult, ScenarioConfig,
};

/// A batch job failure, carrying enough context to pinpoint the job
/// without re-deriving it: its index in the input slice and the
/// content hash of its configuration (as in run manifests).
#[derive(Debug, Clone, PartialEq)]
pub struct JobError {
    /// Index of the failing job in the input slice.
    pub index: usize,
    /// Canonical config hash of the failing job (see
    /// [`config_hash_for`]).
    pub config_hash: String,
    /// What went wrong.
    pub error: RunError,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "job {} ({}): {}",
            self.index, self.config_hash, self.error
        )
    }
}

impl std::error::Error for JobError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// Knobs for [`run_batch_supervised`].
///
/// `soft_deadline` is the production control; the two `*_on` fields
/// are deliberate fault hooks used by the test suite and the CI smoke
/// to prove the supervisor isolates misbehaving jobs.
#[derive(Debug, Clone, Copy)]
pub struct Supervision {
    /// Soft per-job wall-clock deadline. A job still running past it
    /// is reported as [`RunError::TimedOut`] and its worker thread is
    /// abandoned (it finishes in the background; its late result is
    /// discarded). `None` disables the watchdog.
    pub soft_deadline: Option<Duration>,
    /// How long the batch waits at the end for abandoned (timed-out)
    /// worker threads to finish before counting them as leaked in
    /// [`BatchStats::leaked_workers`]. Healthy workers have already
    /// exited by then, so this only delays batches that actually
    /// abandoned a thread.
    pub join_grace: Duration,
    /// Fault hook: the job at this index panics instead of running.
    pub panic_on: Option<usize>,
    /// Fault hook: the job at this index sleeps this long before
    /// running (used to trip the watchdog deterministically).
    pub delay_on: Option<(usize, Duration)>,
}

impl Default for Supervision {
    fn default() -> Self {
        Supervision {
            soft_deadline: None,
            join_grace: Duration::from_millis(200),
            panic_on: None,
            delay_on: None,
        }
    }
}

/// Thread, recovery and timing accounting for one supervised batch
/// (see [`run_batch_supervised`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BatchStats {
    /// Worker threads still running after the end-of-batch grace
    /// period: each was abandoned by the soft-deadline watchdog and
    /// keeps holding memory until its (discarded) run completes. A
    /// nonzero count across many batches signals the deadline is set
    /// below real run times.
    pub leaked_workers: u32,
    /// Checkpointed jobs that resumed from a valid snapshot instead of
    /// starting cold.
    pub resumed: u32,
    /// Snapshots that could not be used — corrupt files skipped by
    /// [`latest_snapshot`] plus snapshots rejected by the
    /// `(config, seed)` compatibility gate — each degrading to an
    /// older snapshot or a cold start, never to restored bad state.
    pub fallbacks: u32,
    /// Wall-clock phase timings summed over the jobs that succeeded.
    pub phase_ms: PhaseTimings,
}

/// Runs every `(config, seed)` job on the supervised executor
/// ([`run_batch_supervised`], default [`Supervision`], no snapshots)
/// and returns the results **in input order** (the parallelism is
/// unobservable). An empty slice returns `Ok(vec![])` without spawning
/// a single thread.
///
/// # Errors
///
/// Returns the first failing job in input order as a [`JobError`]
/// naming its index and config hash. All configs are validated up
/// front so no work is wasted on a doomed batch; a job that still
/// fails at runtime (e.g. a strict audit, or a panic, which the
/// executor turns into [`RunError::Panicked`]) fails the batch. For
/// every job's verdict instead of the first failure, use
/// [`run_batch_supervised`].
pub fn run_batch(jobs: &[(ScenarioConfig, u64)]) -> Result<Vec<RunResult>, JobError> {
    for (i, (cfg, _)) in jobs.iter().enumerate() {
        cfg.validate().map_err(|e| JobError {
            index: i,
            config_hash: config_hash_for(cfg),
            error: e.into(),
        })?;
    }
    run_batch_supervised(jobs, &Supervision::default(), None)
        .0
        .into_iter()
        .collect()
}

/// Extracts a human-readable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The batch executor, and the only code that runs jobs on threads:
/// every job runs under [`catch_unwind`] on its own worker thread,
/// watched by a soft deadline, and **every** job gets a verdict — a
/// panicking or stuck job becomes a per-job [`JobError`] while the
/// healthy jobs' results return normally, in input order.
///
/// [`run_batch`] reduces the verdicts to the first failure and
/// [`run_cell`] aggregates one cell's; this is the entry point for
/// long unattended sweeps where one poisoned job must not take down
/// the campaign. Timed-out worker threads are abandoned, not killed —
/// they finish in the background and their late results are
/// discarded, so a pathological job can hold memory until it
/// completes, but never the batch. At batch end every spawned thread
/// is joined, waiting up to [`Supervision::join_grace`]; one that
/// outlives the grace is counted in [`BatchStats::leaked_workers`], so
/// operators (`mobic-sweepd`'s `/status`) see resource pressure
/// instead of silently accumulating zombies.
///
/// With `checkpoint = Some((dir, policy))`, job `(config, seed)` keeps
/// its snapshots in `<dir>/seed-<seed>/`: it resumes from the newest
/// one there that passes [`latest_snapshot`]'s integrity gates and
/// [`SimSnapshot::compatible_with`](crate::SimSnapshot::compatible_with)
/// (degrading to older snapshots, then to a cold start), and publishes
/// rotated snapshots at `policy`'s cadence through
/// [`run_scenario_checkpointed`]. A resumed job returns the result an
/// uninterrupted one would; [`BatchStats`] counts the resumes and the
/// snapshots passed over.
///
/// An empty `jobs` slice returns an empty vector without spawning a
/// single thread.
pub fn run_batch_supervised(
    jobs: &[(ScenarioConfig, u64)],
    supervision: &Supervision,
    checkpoint: Option<(&Path, CheckpointPolicy)>,
) -> (Vec<Result<RunResult, JobError>>, BatchStats) {
    let n_jobs = jobs.len();
    if n_jobs == 0 {
        return (Vec::new(), BatchStats::default());
    }
    #[expect(
        clippy::disallowed_methods,
        reason = "sizes the job pool only; each job is an independent `(config, seed)` run, so per-run bytes cannot depend on it"
    )]
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
        .min(n_jobs);
    let job_error = |i: usize, error: RunError| JobError {
        index: i,
        config_hash: config_hash_for(&jobs[i].0),
        error,
    };
    let (send, recv) = mpsc::channel::<(usize, Result<RunResult, RunError>, BatchStats)>();
    let spawn_job = |i: usize| -> std::thread::JoinHandle<()> {
        let (cfg, seed) = jobs[i]; // `ScenarioConfig` is `Copy`
        let snapshots = checkpoint.map(|(dir, policy)| (dir.join(format!("seed-{seed}")), policy));
        if let Some((dir, _)) = &snapshots {
            // The batch owns the snapshot directory: created here,
            // before the job or its fault hooks start, and removed by
            // `run_cell` once the cell completes. Snapshot writes never
            // create it, so a job abandoned past its deadline cannot
            // bring it back. A failure here only costs snapshots.
            let _ = std::fs::create_dir_all(dir);
        }
        let sender = send.clone();
        let panics = supervision.panic_on == Some(i);
        let delay = supervision
            .delay_on
            .and_then(|(j, d)| (j == i).then_some(d));
        std::thread::spawn(move || {
            let mut tally = BatchStats::default();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if let Some(d) = delay {
                    std::thread::sleep(d);
                }
                assert!(!panics, "supervision fault hook: deliberate panic");
                match &snapshots {
                    None => run_scenario(&cfg, seed),
                    Some((dir, policy)) => run_resumable(cfg, seed, dir, *policy, &mut tally),
                }
            }));
            let message = outcome.unwrap_or_else(|payload| {
                Err(RunError::Panicked {
                    message: panic_message(payload.as_ref()),
                })
            });
            // The supervisor may have already timed this job out and
            // stopped listening; a dead channel is fine.
            let _ = sender.send((i, message, tally));
        })
    };

    let mut stats = BatchStats::default();
    let mut results: Vec<Option<Result<RunResult, JobError>>> = (0..n_jobs).map(|_| None).collect();
    // (job index, per-job stopwatch) of every live worker.
    let mut running: Vec<(usize, Stopwatch)> = Vec::new();
    // Every spawned thread, live or abandoned, for the end-of-batch
    // join below.
    let mut spawned: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let mut next = 0usize;
    while results.iter().any(Option::is_none) {
        while next < n_jobs && running.len() < workers {
            spawned.push(spawn_job(next));
            running.push((next, Stopwatch::start()));
            next += 1;
        }
        let message = match supervision.soft_deadline {
            None => recv.recv().ok(),
            Some(limit) => {
                // Sleep until the first message or the earliest
                // running job's deadline, whichever comes first.
                let earliest = running
                    .iter()
                    .map(|&(_, started)| started.remaining_of(limit))
                    .min()
                    .unwrap_or(Duration::from_millis(10));
                match recv.recv_timeout(earliest) {
                    Ok(m) => Some(m),
                    Err(mpsc::RecvTimeoutError::Timeout) => None,
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                }
            }
        };
        match message {
            Some((i, r, tally)) => {
                running.retain(|&(j, _)| j != i);
                if results[i].is_none() {
                    // A late result for an already timed-out job is
                    // discarded: the verdict stands.
                    stats.resumed += tally.resumed;
                    stats.fallbacks += tally.fallbacks;
                    if let Ok(run) = &r {
                        stats.phase_ms.accumulate(&run.perf.phase_ms);
                    }
                    results[i] = Some(r.map_err(|e| job_error(i, e)));
                }
            }
            None => {
                // Timeouts only fire with a deadline configured; a
                // `None` message without one means the channel closed
                // (impossible while we hold `send`, but the fallback
                // below turns it into per-job errors, not an abort).
                let Some(limit) = supervision.soft_deadline else {
                    break;
                };
                let overdue: Vec<usize> = running
                    .iter()
                    .filter(|&&(_, started)| started.remaining_of(limit).is_zero())
                    .map(|&(i, _)| i)
                    .collect();
                for i in overdue {
                    running.retain(|&(j, _)| j != i);
                    results[i] = Some(Err(job_error(
                        i,
                        RunError::TimedOut {
                            limit_s: limit.as_secs_f64(),
                        },
                    )));
                }
            }
        }
    }
    // Batch end: reap every thread we spawned. Healthy workers have
    // already exited, so joining them is instant; abandoned
    // (timed-out) ones get one shared grace window to wind down
    // before being counted as leaked. Verdicts are final either way —
    // late results were discarded above.
    let grace = Stopwatch::start();
    for handle in spawned {
        while !handle.is_finished() && !grace.remaining_of(supervision.join_grace).is_zero() {
            std::thread::sleep(Duration::from_millis(1));
        }
        if handle.is_finished() {
            let _ = handle.join();
        } else {
            stats.leaked_workers += 1;
        }
    }
    let verdicts = results
        .into_iter()
        .enumerate()
        .map(|(i, r)| {
            // Every job normally has a verdict by now; the only way to
            // miss one is the supervisor channel closing early, which
            // becomes a structured per-job error.
            r.unwrap_or_else(|| {
                Err(job_error(
                    i,
                    RunError::Panicked {
                        message: "supervisor channel closed before a verdict arrived".to_string(),
                    },
                ))
            })
        })
        .collect();
    (verdicts, stats)
}

/// One checkpointed job: resumes from the newest snapshot in `dir`
/// that passes the integrity and compatibility gates, tallying the
/// resume or every snapshot it passed over, and publishes rotated
/// snapshots there at `policy`'s cadence.
fn run_resumable(
    cfg: ScenarioConfig,
    seed: u64,
    dir: &Path,
    policy: CheckpointPolicy,
    tally: &mut BatchStats,
) -> Result<RunResult, RunError> {
    let cfg = ScenarioConfig {
        checkpoint: policy,
        ..cfg
    };
    let resume = match latest_snapshot(dir) {
        (Some(snap), rejected) if snap.compatible_with(&cfg, seed).is_ok() => {
            tally.fallbacks += rejected;
            tally.resumed += 1;
            Some(snap)
        }
        // A stale snapshot from a different cell layout is passed
        // over too: a cold start is always correct.
        (stale, rejected) => {
            tally.fallbacks += rejected + u32::from(stale.is_some());
            None
        }
    };
    run_scenario_checkpointed(&cfg, seed, Some(dir), resume, &mut NullSink)
}

/// Aggregated outcome of one sweep cell (one algorithm at one
/// parameter point, across seeds).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepOutcome {
    /// The swept x-value (e.g. transmission range in meters).
    pub x: f64,
    /// Algorithm name.
    pub algorithm: String,
    /// Number of seeds aggregated.
    pub runs: usize,
    /// Mean steady-state clusterhead changes (`CS`).
    pub mean_cs: f64,
    /// Standard error of `CS` across seeds.
    pub stderr_cs: f64,
    /// Mean steady-state cluster count.
    pub mean_clusters: f64,
    /// Mean gateway fraction.
    pub mean_gateway_fraction: f64,
    /// The raw per-seed `CS` samples (for significance testing).
    pub cs_samples: Vec<f64>,
}

/// Aggregates a group of runs (same cell, different seeds) into a
/// [`SweepOutcome`] keyed by `x`.
///
/// # Panics
///
/// Panics if `runs` is empty or mixes algorithms.
#[must_use]
pub fn summarize_cs(x: f64, runs: &[RunResult]) -> SweepOutcome {
    assert!(!runs.is_empty(), "cannot summarize zero runs");
    let algorithm = runs[0].algorithm;
    assert!(
        runs.iter().all(|r| r.algorithm == algorithm),
        "mixed algorithms in one sweep cell"
    );
    let cs: OnlineStats = runs.iter().map(|r| r.clusterhead_changes as f64).collect();
    let clusters: OnlineStats = runs.iter().map(|r| r.avg_clusters).collect();
    let gw: OnlineStats = runs.iter().map(|r| r.gateway_fraction).collect();
    SweepOutcome {
        x,
        algorithm: algorithm.name().to_string(),
        runs: runs.len(),
        mean_cs: cs.mean(),
        stderr_cs: cs.std_error(),
        mean_clusters: clusters.mean(),
        mean_gateway_fraction: gw.mean(),
        cs_samples: runs.iter().map(|r| r.clusterhead_changes as f64).collect(),
    }
}

impl SweepOutcome {
    /// The canonical serialization of a sweep cell — the **exact**
    /// bytes `mobic-cli sweep --out` writes and the `mobic-sweepd`
    /// cache stores/serves, so "cached cell" and "directly computed
    /// cell" can be compared with `==` on strings.
    #[must_use]
    pub fn to_json_pretty(&self) -> String {
        // Plain data; serialization is infallible in practice, and an
        // empty string (which never parses back) beats aborting a
        // sweep should that ever change.
        serde_json::to_string_pretty(self).unwrap_or_default()
    }

    /// Parses a cell file's contents. Returns `None` for anything that
    /// is not a complete, well-formed cell — a truncated or corrupted
    /// file is indistinguishable from a missing one, which is what
    /// makes resume/cache logic safe: damaged cells are recomputed,
    /// never served.
    #[must_use]
    pub fn from_json(text: &str) -> Option<SweepOutcome> {
        serde_json::from_str(text).ok()
    }
}

/// Content address of one sweep cell: the FNV-1a hash of the cell's
/// canonical config JSON (same canonicalization as
/// [`config_hash_for`]) concatenated with its seed list.
///
/// Two cells collide only if they agree on **every** config field
/// (algorithm and swept value included — both live inside
/// [`ScenarioConfig`]) *and* run the same seeds — in which case they
/// are the same computation and sharing the cached result is the
/// point. Distinctness over the paper's experiment grids is asserted
/// exhaustively in `tests/sweepd_cache.rs`.
#[must_use]
pub fn cell_key(config: &ScenarioConfig, seeds: &[u64]) -> String {
    let value = serde_json::to_value(config).unwrap_or(serde_json::Value::Null);
    let mut keyed = serde_json::to_string(&value).unwrap_or_default();
    for s in seeds {
        keyed.push(',');
        keyed.push_str(&s.to_string());
    }
    mobic_trace::config_hash(&keyed)
}

/// A malformed or invalid sweep spec (bad JSON, empty grid, or a cell
/// whose scenario fails validation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid sweep spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

/// A declarative sweep: the JSON payload of `POST /sweep` on
/// `mobic-sweepd`, and the same grid `mobic-cli sweep` expands
/// locally.
///
/// Expansion order is fixed (outer loop over `tx_values`, inner loop
/// over `algorithms`, seeds `0..seeds` per cell) so a spec's cell
/// list — and therefore the order of keys in a submit response and
/// the rows of the CLI's table — is deterministic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSpec {
    /// Base scenario; each cell overrides `tx_range_m` and
    /// `algorithm`.
    pub base: ScenarioConfig,
    /// Swept transmission ranges in meters (the x-axis).
    pub tx_values: Vec<f64>,
    /// Algorithms compared at every x.
    pub algorithms: Vec<AlgorithmKind>,
    /// Seeds per cell: every cell runs master seeds `0..seeds`.
    pub seeds: u64,
    /// Deliberate fault hook for the service's retry path: each cell's
    /// first `fault_panic_attempts` executions panic inside the
    /// supervised batch before running cleanly. Test/CI only; omitted
    /// from serialization when zero, so real specs are unaffected.
    /// The hook is **not** part of any cell's content address — a
    /// cell's identity is `(config, seeds)` alone.
    #[serde(default, skip_serializing_if = "u32_is_zero")]
    pub fault_panic_attempts: u32,
}

/// `skip_serializing_if` helper for [`SweepSpec::fault_panic_attempts`].
fn u32_is_zero(v: &u32) -> bool {
    *v == 0
}

/// The most runs (`tx_values × algorithms × seeds`) one spec may
/// expand to: 2^17, whose seed ids (8 B each) fill 1 MiB, the size of
/// the service's request cap.
const MAX_SPEC_RUNS: u64 = 1 << 17;

impl SweepSpec {
    /// Checks the grid is non-empty, expands to at most 2^17 runs, and
    /// every expanded cell config validates. The run count is checked
    /// before anything is expanded.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming the first problem.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.tx_values.is_empty() {
            return Err(SpecError("tx_values must be non-empty".to_string()));
        }
        if self.algorithms.is_empty() {
            return Err(SpecError("algorithms must be non-empty".to_string()));
        }
        if self.seeds == 0 {
            return Err(SpecError("seeds must be at least 1".to_string()));
        }
        let runs = [self.tx_values.len(), self.algorithms.len()]
            .into_iter()
            .try_fold(self.seeds, |acc, n| acc.checked_mul(u64::try_from(n).ok()?));
        if runs.is_none_or(|runs| runs > MAX_SPEC_RUNS) {
            return Err(SpecError(format!(
                "the grid expands to more than {MAX_SPEC_RUNS} runs \
                 (tx_values × algorithms × seeds)"
            )));
        }
        for cell in self.cells() {
            cell.config
                .validate()
                .map_err(|e| SpecError(format!("cell {}: {e}", cell.key())))?;
        }
        Ok(())
    }

    /// Expands the grid into cells, in the canonical order (see the
    /// type docs).
    #[must_use]
    pub fn cells(&self) -> Vec<SweepCell> {
        let seeds: Vec<u64> = (0..self.seeds).collect();
        let mut cells = Vec::with_capacity(self.tx_values.len() * self.algorithms.len());
        for &tx in &self.tx_values {
            for &alg in &self.algorithms {
                cells.push(SweepCell {
                    config: self.base.with_algorithm(alg).with_tx_range(tx),
                    x: tx,
                    seeds: seeds.clone(),
                });
            }
        }
        cells
    }

    /// Serializes the spec as the `POST /sweep` JSON payload.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_default()
    }

    /// Parses and validates a spec from JSON.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] for malformed JSON or an invalid grid.
    pub fn from_json(text: &str) -> Result<SweepSpec, SpecError> {
        let spec: SweepSpec =
            serde_json::from_str(text).map_err(|e| SpecError(format!("bad JSON: {e}")))?;
        spec.validate()?;
        Ok(spec)
    }
}

/// One expanded sweep cell: a fully-resolved scenario (algorithm and
/// tx already applied) plus the seed list it aggregates over.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// The cell's complete scenario configuration.
    pub config: ScenarioConfig,
    /// The swept x-value (redundant with `config.tx_range_m`, kept
    /// explicit because [`SweepOutcome::x`] echoes it).
    pub x: f64,
    /// Master seeds aggregated by this cell.
    pub seeds: Vec<u64>,
}

impl SweepCell {
    /// The cell's content address (see [`cell_key`]).
    #[must_use]
    pub fn key(&self) -> String {
        cell_key(&self.config, &self.seeds)
    }

    /// The pre-service (`mobic-cli sweep --out`) file name of this
    /// cell — `cell_<algorithm>_tx<x>.json` — which the sweepd cache
    /// also recognizes so an old `--out` directory warms it.
    #[must_use]
    pub fn legacy_file_name(&self) -> String {
        format!("cell_{}_tx{:.0}.json", self.config.algorithm.name(), self.x)
    }

    /// `true` when `outcome` has this cell's shape: its algorithm, its
    /// x and one run per seed. A legacy file carries no key, so this is
    /// the check that a `cell_*` file found by name (a `--resume` pass,
    /// a warm sweepd cache) is an outcome of this cell and not of a
    /// sweep with fewer seeds.
    #[must_use]
    pub fn has_shape_of(&self, outcome: &SweepOutcome) -> bool {
        outcome.runs == self.seeds.len()
            && outcome.algorithm == self.config.algorithm.name()
            && outcome.x == self.x
    }
}

/// Computes one sweep cell: runs every seed on the supervised executor
/// ([`run_batch_supervised`]), then aggregates with [`summarize_cs`].
/// `mobic-cli sweep` and `mobic-sweepd` both compute cells here, so a
/// cell's bytes, serialized via [`SweepOutcome::to_json_pretty`], are
/// the same wherever it ran.
///
/// With `checkpoint = Some((dir, policy))`, every seed keeps rotated
/// snapshots in `<dir>/seed-<seed>/` and resumes from them after a
/// crash or a kill (see [`run_batch_supervised`]); checkpointing
/// changes how the value is evaluated, never the value, and the soft
/// deadline applies as it does without a directory. On success the
/// directory is removed (the outcome will be cached; the snapshots are
/// dead weight). On failure it is kept so a retry resumes rather than
/// recomputes.
///
/// The outcome is the first failing seed's [`JobError`] (config,
/// panic, timeout, or strict-audit verdicts) if any seed fails: a cell
/// has no partial outcome, so callers retry, park or skip it. The
/// batch's [`BatchStats`] come back either way.
pub fn run_cell(
    cell: &SweepCell,
    supervision: &Supervision,
    checkpoint: Option<(&Path, CheckpointPolicy)>,
) -> (Result<SweepOutcome, JobError>, BatchStats) {
    let jobs: Vec<(ScenarioConfig, u64)> = cell.seeds.iter().map(|&s| (cell.config, s)).collect();
    let (verdicts, stats) = run_batch_supervised(&jobs, supervision, checkpoint);
    let outcome = verdicts
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .map(|runs| summarize_cs(cell.x, &runs));
    if let (Ok(_), Some((dir, _))) = (&outcome, checkpoint) {
        // Best-effort cleanup only: a leftover directory passes the
        // integrity and compatibility gates again on any reuse.
        let _ = std::fs::remove_dir_all(dir);
    }
    (outcome, stats)
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "writes a corrupt checkpoint on purpose"
)]
mod tests {
    use super::*;
    use mobic_core::AlgorithmKind;

    fn tiny(alg: AlgorithmKind, tx: f64) -> ScenarioConfig {
        let mut c = ScenarioConfig::paper_table1();
        c.n_nodes = 8;
        c.sim_time_s = 30.0;
        c.tx_range_m = tx;
        c.algorithm = alg;
        c
    }

    #[test]
    fn batch_matches_sequential_and_preserves_order() {
        let jobs: Vec<(ScenarioConfig, u64)> = (0..6)
            .map(|s| (tiny(AlgorithmKind::Mobic, 150.0 + 10.0 * s as f64), s))
            .collect();
        let batch = run_batch(&jobs).unwrap();
        for (i, (cfg, seed)) in jobs.iter().enumerate() {
            let solo = run_scenario(cfg, *seed).unwrap();
            assert_eq!(batch[i].deliveries, solo.deliveries, "job {i}");
            assert_eq!(batch[i].tx_range_m, cfg.tx_range_m);
        }
    }

    #[test]
    fn batch_rejects_invalid_configs_upfront_with_context() {
        let mut bad = tiny(AlgorithmKind::Mobic, 100.0);
        bad.n_nodes = 0;
        let jobs = vec![(tiny(AlgorithmKind::Mobic, 100.0), 1), (bad, 2)];
        let err = run_batch(&jobs).unwrap_err();
        assert_eq!(err.index, 1, "the error must name the failing job");
        assert_eq!(err.config_hash, crate::config_hash_for(&bad));
        assert!(matches!(err.error, RunError::Config(_)));
        // The rendered error carries index and hash for log grepping.
        let text = err.to_string();
        assert!(text.contains("job 1"), "{text}");
        assert!(text.contains("fnv1a64:"), "{text}");
    }

    #[test]
    fn empty_batch_is_fine() {
        assert!(run_batch(&[]).unwrap().is_empty());
        assert!(run_batch_supervised(&[], &Supervision::default(), None)
            .0
            .is_empty());
    }

    #[test]
    fn summarize_aggregates_across_seeds() {
        let cfg = tiny(AlgorithmKind::Lcc, 200.0);
        let runs: Vec<RunResult> = (0..3).map(|s| run_scenario(&cfg, s).unwrap()).collect();
        let out = summarize_cs(200.0, &runs);
        assert_eq!(out.runs, 3);
        assert_eq!(out.cs_samples.len(), 3);
        assert_eq!(out.algorithm, "lcc");
        assert_eq!(out.x, 200.0);
        let mean = runs
            .iter()
            .map(|r| r.clusterhead_changes as f64)
            .sum::<f64>()
            / 3.0;
        assert!((out.mean_cs - mean).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "zero runs")]
    fn summarize_rejects_empty() {
        let _ = summarize_cs(0.0, &[]);
    }

    #[test]
    fn sweep_outcomes_round_trip_through_json() {
        // `SweepOutcome` doubles as the per-cell resume artifact, so
        // a full serde round trip must preserve it.
        let cfg = tiny(AlgorithmKind::Mobic, 200.0);
        let runs: Vec<RunResult> = (0..2).map(|s| run_scenario(&cfg, s).unwrap()).collect();
        let out = summarize_cs(200.0, &runs);
        let json = serde_json::to_string(&out).unwrap();
        let back: SweepOutcome = serde_json::from_str(&json).unwrap();
        assert_eq!(back.runs, out.runs);
        assert_eq!(back.algorithm, out.algorithm);
        assert_eq!(back.cs_samples, out.cs_samples);
    }

    #[test]
    fn supervised_batch_matches_unsupervised_results() {
        let jobs: Vec<(ScenarioConfig, u64)> = (0..5)
            .map(|s| (tiny(AlgorithmKind::Mobic, 150.0 + 10.0 * s as f64), s))
            .collect();
        let plain = run_batch(&jobs).unwrap();
        let supervised = run_batch_supervised(&jobs, &Supervision::default(), None).0;
        assert_eq!(supervised.len(), jobs.len());
        for (i, r) in supervised.iter().enumerate() {
            let r = r.as_ref().expect("healthy job");
            assert_eq!(r.deliveries, plain[i].deliveries, "job {i}");
            assert_eq!(r.final_roles, plain[i].final_roles, "job {i}");
        }
    }

    #[test]
    fn supervised_batch_isolates_a_panicking_job() {
        let jobs: Vec<(ScenarioConfig, u64)> = (0..4)
            .map(|s| (tiny(AlgorithmKind::Mobic, 200.0), s))
            .collect();
        let sup = Supervision {
            panic_on: Some(2),
            ..Supervision::default()
        };
        let results = run_batch_supervised(&jobs, &sup, None).0;
        assert_eq!(results.len(), 4);
        for (i, r) in results.iter().enumerate() {
            if i == 2 {
                let e = r.as_ref().unwrap_err();
                assert_eq!(e.index, 2);
                assert!(
                    matches!(&e.error, RunError::Panicked { message } if message.contains("deliberate")),
                    "{e}"
                );
            } else {
                assert!(r.is_ok(), "job {i} must survive the panic");
            }
        }
    }

    #[test]
    fn supervised_batch_times_out_a_stuck_job_and_finishes_the_rest() {
        let jobs: Vec<(ScenarioConfig, u64)> = (0..3)
            .map(|s| (tiny(AlgorithmKind::Mobic, 200.0), s))
            .collect();
        let sup = Supervision {
            soft_deadline: Some(std::time::Duration::from_secs(5)),
            delay_on: Some((1, std::time::Duration::from_secs(60))),
            ..Supervision::default()
        };
        let results = run_batch_supervised(&jobs, &sup, None).0;
        let e = results[1].as_ref().unwrap_err();
        assert_eq!(e.index, 1);
        assert!(
            matches!(e.error, RunError::TimedOut { limit_s } if (limit_s - 5.0).abs() < 1e-9),
            "{e}"
        );
        assert!(results[0].is_ok());
        assert!(results[2].is_ok());
    }

    fn tiny_spec() -> SweepSpec {
        let mut base = ScenarioConfig::paper_table1();
        base.n_nodes = 8;
        base.sim_time_s = 30.0;
        SweepSpec {
            base,
            tx_values: vec![150.0, 200.0],
            algorithms: vec![AlgorithmKind::Lcc, AlgorithmKind::Mobic],
            seeds: 2,
            fault_panic_attempts: 0,
        }
    }

    #[test]
    fn spec_expands_tx_outer_alg_inner_with_all_seeds() {
        let spec = tiny_spec();
        let cells = spec.cells();
        assert_eq!(cells.len(), 4);
        // Order must match the CLI sweep loop: tx outer, algorithm
        // inner.
        let expect = [
            (150.0, AlgorithmKind::Lcc),
            (150.0, AlgorithmKind::Mobic),
            (200.0, AlgorithmKind::Lcc),
            (200.0, AlgorithmKind::Mobic),
        ];
        for (cell, (tx, alg)) in cells.iter().zip(expect) {
            assert_eq!(cell.x, tx);
            assert_eq!(cell.config.tx_range_m, tx);
            assert_eq!(cell.config.algorithm, alg);
            assert_eq!(cell.seeds, vec![0, 1]);
        }
    }

    #[test]
    fn spec_round_trips_through_json_and_validates() {
        let spec = tiny_spec();
        let json = spec.to_json();
        let back = SweepSpec::from_json(&json).unwrap();
        assert_eq!(back, spec);
        // The fault hook is test-only and must not appear in real
        // specs' serialization (it would be noise in operator logs).
        assert!(!json.contains("fault_panic_attempts"), "{json}");

        let mut faulty = spec.clone();
        faulty.fault_panic_attempts = 1;
        let json = faulty.to_json();
        assert!(json.contains("fault_panic_attempts"), "{json}");
        assert_eq!(SweepSpec::from_json(&json).unwrap(), faulty);
    }

    #[test]
    fn spec_refuses_an_over_budget_base_before_expanding_it() {
        // Validation only: at u32::MAX nodes a run would first ask for
        // 172 GB, and a failed allocation aborts the whole service.
        let mut spec = tiny_spec();
        spec.base.n_nodes = u32::MAX;
        let err = spec.validate().unwrap_err().to_string();
        assert!(err.contains("memory budget"), "{err}");
        assert!(SweepSpec::from_json(&spec.to_json()).is_err());
    }

    #[test]
    fn spec_rejects_empty_grids_and_bad_cells() {
        let mut spec = tiny_spec();
        spec.tx_values.clear();
        assert!(spec.validate().is_err());

        let mut spec = tiny_spec();
        spec.algorithms.clear();
        assert!(spec.validate().is_err());

        let mut spec = tiny_spec();
        spec.seeds = 0;
        assert!(spec.validate().is_err());

        let mut spec = tiny_spec();
        spec.base.n_nodes = 0;
        let err = spec.validate().unwrap_err();
        assert!(err.to_string().contains("cell fnv1a64:"), "{err}");

        // 2 tx × 2 algorithms × 2^15 seeds is exactly the 2^17-run
        // cap. Past it, the count alone refuses the spec: expanding
        // 2^62 seeds per cell would overflow the allocator.
        let mut spec = tiny_spec();
        spec.seeds = 1 << 15;
        spec.validate().expect("2^17 runs are within the cap");
        for seeds in [(1 << 15) + 1, 1 << 62, u64::MAX] {
            spec.seeds = seeds;
            let err = spec.validate().expect_err("past the cap");
            assert!(err.to_string().contains("131072 runs"), "{seeds}: {err}");
        }

        assert!(SweepSpec::from_json("{not json").is_err());
    }

    /// Every number in a valid spec set in turn to 0, −1, the smallest
    /// subnormal, 1e308 and `u64::MAX`: parsing and validating return a
    /// spec or a `SpecError`, and never panic.
    #[test]
    fn spec_from_json_types_every_hostile_number() {
        use serde_json::Value;
        /// Replaces the `k`-th number (depth first) with `x`; `false`
        /// when the document holds fewer than `k + 1` numbers.
        fn set_nth_number(v: &mut Value, k: &mut usize, x: &Value) -> bool {
            match v {
                Value::Number(_) if *k == 0 => {
                    *v = x.clone();
                    true
                }
                Value::Number(_) => {
                    *k -= 1;
                    false
                }
                Value::Array(items) => items.iter_mut().any(|i| set_nth_number(i, k, x)),
                Value::Object(map) => map.values_mut().any(|i| set_nth_number(i, k, x)),
                _ => false,
            }
        }
        let mut spec = tiny_spec();
        spec.base.history_alpha = Some(0.5);
        spec.base.faults.crashes = 1;
        spec.fault_panic_attempts = 1;
        let good: Value = serde_json::from_str(&spec.to_json()).unwrap();
        let hostile: Vec<Value> = ["0", "-1", "5e-324", "1e308", "18446744073709551615"]
            .iter()
            .map(|text| serde_json::from_str(text).unwrap())
            .collect();
        let mut fields = 0;
        for field in 0.. {
            let mut touched = false;
            for x in &hostile {
                let mut doc = good.clone();
                if !set_nth_number(&mut doc, &mut { field }, x) {
                    break;
                }
                touched = true;
                let text = serde_json::to_string(&doc).unwrap();
                let verdict = catch_unwind(|| SweepSpec::from_json(&text).map(|_| ()));
                assert!(verdict.is_ok(), "number {field} set to {x:?} panicked");
            }
            if !touched {
                break;
            }
            fields += 1;
        }
        assert!(fields >= 30, "only {fields} numbers fuzzed");
    }

    #[test]
    fn cell_shape_check_names_algorithm_x_and_seed_count() {
        let cells = tiny_spec().cells();
        let outcome = run_cell(&cells[0], &Supervision::default(), None)
            .0
            .unwrap();
        assert!(cells[0].has_shape_of(&outcome));
        assert!(!cells[1].has_shape_of(&outcome), "another algorithm");
        assert!(!cells[2].has_shape_of(&outcome), "another x");
        let mut wider = cells[0].clone();
        wider.seeds.push(2);
        assert!(!wider.has_shape_of(&outcome), "more seeds");
    }

    #[test]
    fn cell_keys_are_distinct_across_the_grid_and_stable() {
        let spec = tiny_spec();
        let cells = spec.cells();
        let keys: Vec<String> = cells.iter().map(SweepCell::key).collect();
        for (i, a) in keys.iter().enumerate() {
            assert!(a.starts_with("fnv1a64:"), "{a}");
            for (j, b) in keys.iter().enumerate() {
                if i != j {
                    assert_ne!(a, b, "cells {i} and {j} collide");
                }
            }
        }
        // Same cell, same key — and the seed list is part of the
        // address, so more seeds means a different cell.
        assert_eq!(keys[0], cells[0].key());
        let mut wider = cells[0].clone();
        wider.seeds.push(2);
        assert_ne!(keys[0], wider.key());
    }

    #[test]
    fn legacy_file_name_matches_the_cli_naming() {
        let spec = tiny_spec();
        let names: Vec<String> = spec
            .cells()
            .iter()
            .map(SweepCell::legacy_file_name)
            .collect();
        assert_eq!(
            names,
            [
                "cell_lcc_tx150.json",
                "cell_mobic_tx150.json",
                "cell_lcc_tx200.json",
                "cell_mobic_tx200.json",
            ]
        );
    }

    #[test]
    fn run_cell_matches_the_manual_batch_plus_summarize_path() {
        let spec = tiny_spec();
        let cell = &spec.cells()[1]; // mobic @ 150 m
        let via_cell = run_cell(cell, &Supervision::default(), None).0.unwrap();
        let jobs: Vec<(ScenarioConfig, u64)> =
            cell.seeds.iter().map(|&s| (cell.config, s)).collect();
        let runs = run_batch(&jobs).unwrap();
        let manual = summarize_cs(cell.x, &runs);
        // Byte-identity of the serialized artifacts is the standing
        // contract between the CLI and the sweepd cache.
        assert_eq!(via_cell.to_json_pretty(), manual.to_json_pretty());
        assert_eq!(
            SweepOutcome::from_json(&manual.to_json_pretty())
                .unwrap()
                .to_json_pretty(),
            manual.to_json_pretty()
        );
        assert!(SweepOutcome::from_json("{\"x\": 150.0").is_none());
    }

    #[test]
    fn run_cell_propagates_a_panicking_seed_as_a_job_error() {
        let spec = tiny_spec();
        let cell = &spec.cells()[0];
        let sup = Supervision {
            panic_on: Some(0),
            ..Supervision::default()
        };
        let err = run_cell(cell, &sup, None).0.unwrap_err();
        assert_eq!(err.index, 0);
        assert!(matches!(err.error, RunError::Panicked { .. }));
    }

    #[test]
    fn supervised_batch_reports_config_errors_per_job() {
        let mut bad = tiny(AlgorithmKind::Mobic, 100.0);
        bad.n_nodes = 0;
        let jobs = vec![(tiny(AlgorithmKind::Mobic, 100.0), 1), (bad, 2)];
        let results = run_batch_supervised(&jobs, &Supervision::default(), None).0;
        assert!(results[0].is_ok(), "healthy job must complete");
        let e = results[1].as_ref().unwrap_err();
        assert_eq!(e.index, 1);
        assert!(matches!(e.error, RunError::Config(_)));
    }

    #[test]
    fn healthy_batches_leak_no_worker_threads() {
        let jobs: Vec<(ScenarioConfig, u64)> = (0..3)
            .map(|s| (tiny(AlgorithmKind::Mobic, 180.0), s))
            .collect();
        let (results, stats) = run_batch_supervised(&jobs, &Supervision::default(), None);
        assert!(results.iter().all(Result::is_ok));
        // No leaked thread, resume or fallback; only the timings move.
        let counters = BatchStats {
            phase_ms: PhaseTimings::default(),
            ..stats
        };
        assert_eq!(counters, BatchStats::default());
    }

    /// A fresh per-test checkpoint root under the OS temp dir.
    fn ckpt_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mobic-sweep-ckpt-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fast_policy() -> CheckpointPolicy {
        CheckpointPolicy {
            every_s: 1e-9,
            keep: 2,
        }
    }

    #[test]
    fn recoverable_cell_matches_run_cell_and_cleans_up() {
        let spec = tiny_spec();
        let cell = &spec.cells()[0];
        let dir = ckpt_dir("clean");
        let (outcome, recovery) =
            run_cell(cell, &Supervision::default(), Some((&dir, fast_policy())));
        let recovered = outcome.expect("cell must complete").to_json_pretty();
        let direct = run_cell(cell, &Supervision::default(), None)
            .0
            .expect("direct run")
            .to_json_pretty();
        assert_eq!(recovered, direct, "checkpointing must not change bytes");
        assert_eq!(recovery.resumed, 0, "nothing to resume on a cold cell");
        assert!(
            !dir.exists(),
            "a completed cell must remove its snapshot directory"
        );
    }

    #[test]
    fn recoverable_cell_resumes_after_a_crash_with_identical_bytes() {
        let spec = tiny_spec();
        let cell = &spec.cells()[1];
        let dir = ckpt_dir("crash");
        // First attempt: seed 0 completes (leaving snapshots behind is
        // irrelevant — it re-verifies), then the fault hook crashes
        // the attempt at seed index 1, exactly like a killed worker.
        let crash = Supervision {
            panic_on: Some(1),
            ..Supervision::default()
        };
        let (outcome, _) = run_cell(cell, &crash, Some((&dir, fast_policy())));
        let err = outcome.expect_err("the fault hook must crash the attempt");
        assert_eq!(err.index, 1);
        assert!(matches!(err.error, RunError::Panicked { .. }));
        assert!(dir.exists(), "a failed attempt must keep its snapshots");

        // The retry resumes seed 0 from its snapshot instead of
        // recomputing it, and the final bytes are the uninterrupted
        // cell's bytes.
        let (outcome, recovery) =
            run_cell(cell, &Supervision::default(), Some((&dir, fast_policy())));
        let resumed = outcome.expect("retry must complete").to_json_pretty();
        let direct = run_cell(cell, &Supervision::default(), None)
            .0
            .expect("direct run")
            .to_json_pretty();
        assert_eq!(resumed, direct, "resume must not change bytes");
        assert!(recovery.resumed >= 1, "seed 0 must resume from snapshot");
        assert!(!dir.exists(), "completion must remove the snapshots");
    }

    #[test]
    fn recoverable_cell_degrades_to_cold_start_on_corrupt_snapshots() {
        let spec = tiny_spec();
        let cell = &spec.cells()[0];
        let dir = ckpt_dir("corrupt");
        // A corrupt snapshot for seed 0: one bogus .ckpt file that
        // fails the integrity gate.
        let seed_dir = dir.join("seed-0");
        std::fs::create_dir_all(&seed_dir).unwrap();
        std::fs::write(seed_dir.join("ckpt-00000000000000000099.ckpt"), b"garbage").unwrap();
        let (outcome, recovery) =
            run_cell(cell, &Supervision::default(), Some((&dir, fast_policy())));
        let recovered = outcome.expect("cell must complete").to_json_pretty();
        let direct = run_cell(cell, &Supervision::default(), None)
            .0
            .expect("direct run")
            .to_json_pretty();
        assert_eq!(recovered, direct, "corruption must cost bytes nothing");
        assert_eq!(recovery.resumed, 0, "garbage must never be restored");
        assert!(recovery.fallbacks >= 1, "the rejection must be counted");
    }

    #[test]
    fn checkpointed_cell_honors_the_deadline() {
        let spec = tiny_spec();
        let cell = &spec.cells()[0];
        let dir = ckpt_dir("deadline");
        let delay = Duration::from_secs(3);
        let sup = Supervision {
            soft_deadline: Some(Duration::from_secs(1)),
            delay_on: Some((1, delay)),
            ..Supervision::default()
        };
        let (outcome, stats) = run_cell(cell, &sup, Some((&dir, fast_policy())));
        let err = outcome.expect_err("the stuck seed must time out");
        assert_eq!(err.index, 1);
        assert!(
            matches!(err.error, RunError::TimedOut { limit_s } if (limit_s - 1.0).abs() < 1e-9),
            "{err}"
        );
        assert_eq!(stats.leaked_workers, 1, "the sleeper is abandoned");
        assert!(dir.exists(), "a failed cell must keep its snapshots");

        // A clean retry completes the cell and removes the directory
        // while the abandoned sleeper still sleeps. Once the sleeper
        // has woken and run, its late snapshots must not have brought
        // the directory back.
        let (outcome, _) = run_cell(cell, &Supervision::default(), Some((&dir, fast_policy())));
        outcome.expect("the retry must complete");
        assert!(!dir.exists(), "completion must remove the snapshots");
        std::thread::sleep(delay + Duration::from_secs(1));
        assert!(
            !dir.exists(),
            "the abandoned attempt re-created a finished cell's snapshot directory"
        );
    }
}
