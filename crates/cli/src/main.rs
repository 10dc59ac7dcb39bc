//! The `mobic-cli` binary: run and sweep MANET clustering scenarios
//! from the command line. See `mobic-cli help`.

use std::path::Path;
use std::time::Duration;

use mobic_cli::{parse, usage, Command};
use mobic_metrics::AsciiTable;
use mobic_scenario::{
    latest_snapshot, manifest_for, params, run_cell, run_scenario_checkpointed,
    run_scenario_instrumented, summarize_cs, ScenarioConfig, SimSnapshot, Supervision,
    SweepOutcome, SweepSpec,
};
use mobic_sweepd::http;
use mobic_trace::{write_atomic, write_manifests, JsonlSink, NullSink, PhaseTimings};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(cmd) => {
            if let Err(e) = execute(cmd) {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("error: {e}\nrun `mobic-cli help` for usage");
            std::process::exit(2);
        }
    }
}

fn execute(cmd: Command) -> Result<(), Box<dyn std::error::Error>> {
    match cmd {
        Command::Help => print!("{}", usage()),
        Command::Table1 => print!("{}", params::render_table1()),
        Command::Run {
            config,
            seed,
            json,
            trace,
            profile,
            checkpoint_dir,
        } => {
            let dir = checkpoint_dir.as_deref().map(Path::new);
            if let Some(dir) = dir {
                // Snapshot writes never create their directory.
                std::fs::create_dir_all(dir)?;
            }
            let snap = dir.and_then(|dir| resume_point(&config, seed, dir, trace.is_some()));
            let result = if let Some(path) = &trace {
                let mut sink = match snap.as_ref().and_then(SimSnapshot::trace_cursor) {
                    Some(cursor) => JsonlSink::resume(path, cursor)?,
                    None => JsonlSink::create(path)?,
                };
                let result = run_scenario_checkpointed(&config, seed, dir, snap, &mut sink)?;
                let events = sink.lines();
                sink.finish()?;
                let manifest = manifest_for(&config, seed, &result);
                let mpath = write_manifests(Path::new(path), &[manifest])?;
                eprintln!(
                    "trace: {events} events -> {path}; manifest -> {}",
                    mpath.display()
                );
                result
            } else {
                run_scenario_checkpointed(&config, seed, dir, snap, &mut NullSink)?
            };
            if profile {
                // stderr so `--json` stdout stays machine-readable.
                eprintln!("{}", result.perf.phase_ms);
            }
            if json {
                println!("{}", serde_json::to_string_pretty(&result)?);
            } else {
                println!(
                    "algorithm           {}\nseed                {}\ntx range            {} m",
                    result.algorithm, result.seed, result.tx_range_m
                );
                println!(
                    "clusterhead changes {} (plus {} during warmup)",
                    result.clusterhead_changes,
                    result.clusterhead_changes_total - result.clusterhead_changes
                );
                println!("affiliation changes {}", result.affiliation_changes);
                println!("avg clusters        {:.2}", result.avg_clusters);
                println!(
                    "gateway fraction    {:.1}%",
                    100.0 * result.gateway_fraction
                );
                println!("mean metric M       {:.3}", result.mean_aggregate_metric);
                println!(
                    "hello traffic       {} broadcasts, {} deliveries",
                    result.hello_broadcasts, result.deliveries
                );
            }
        }
        Command::Drain { addr } => {
            let (status, body) = http::request(&addr, "POST", "/drain", "")?;
            if status != 200 {
                return Err(format!("drain failed ({status}): {body}").into());
            }
            eprintln!("server {addr} draining (in-flight cells finish, then it exits)");
        }
        Command::Sweep {
            config,
            tx_values,
            algorithms,
            seeds,
            trace,
            profile,
            out,
            resume,
            deadline_s,
            server,
        } => {
            let spec = SweepSpec {
                base: config,
                tx_values,
                algorithms,
                seeds,
                fault_panic_attempts: 0,
            };
            let cells = match &server {
                Some(addr) => sweep_via_server(addr, &spec)?,
                None => sweep_locally(
                    &spec,
                    trace.as_deref().map(Path::new),
                    out.as_deref().map(Path::new),
                    resume,
                    deadline_s,
                    profile,
                )?,
            };
            print!("{}", cs_table(&spec, &cells).render());
        }
    }
    Ok(())
}

/// Crash recovery for `run --checkpoint-dir`: the newest valid
/// snapshot in `dir` to resume from, or `None` for a cold start.
/// Corrupt or foreign snapshots are skipped with a warning, never
/// restored. Resuming one gives the same result — and, when `traced`,
/// the same trace file — as an uninterrupted run.
fn resume_point(
    config: &ScenarioConfig,
    seed: u64,
    dir: &Path,
    traced: bool,
) -> Option<SimSnapshot> {
    let (snap, rejected) = latest_snapshot(dir);
    if rejected > 0 {
        eprintln!(
            "checkpoint: skipped {rejected} corrupt snapshot(s) in {}",
            dir.display()
        );
    }
    // Never hand a foreign snapshot to the runner: a stale directory
    // (different scenario or seed) degrades to a cold start.
    let snap = snap.filter(|s| match s.compatible_with(config, seed) {
        Ok(()) => true,
        Err(reason) => {
            eprintln!("checkpoint: ignoring snapshot ({reason}); cold start");
            false
        }
    });
    // A snapshot from an untraced run cannot resume a traced one
    // byte-exactly (no cursor to truncate the trace to).
    let snap = snap.filter(|s| {
        if traced && s.trace_cursor().is_none() {
            eprintln!("checkpoint: snapshot has no trace cursor; cold start for a traced run");
            false
        } else {
            true
        }
    });
    if let Some(s) = &snap {
        eprintln!(
            "checkpoint: resuming at event {} (t = {:.1} s)",
            s.events_processed(),
            s.sim_now().as_secs_f64()
        );
    }
    snap
}

/// Runs the sweep in this process, cell by cell in the spec's order,
/// and returns each cell's outcome: `None` for a cell that failed
/// under `--deadline`, which is reported and skipped rather than
/// averaged over the seeds that survived.
fn sweep_locally(
    spec: &SweepSpec,
    trace: Option<&Path>,
    out: Option<&Path>,
    resume: bool,
    deadline_s: Option<f64>,
    profile: bool,
) -> Result<Vec<Option<SweepOutcome>>, Box<dyn std::error::Error>> {
    spec.validate()?;
    let supervision = Supervision {
        soft_deadline: deadline_s.map(Duration::from_secs_f64),
        ..Supervision::default()
    };
    let mut outcomes = Vec::new();
    let mut manifests = Vec::new();
    let mut phase_total = PhaseTimings::default();
    for cell in spec.cells() {
        let (alg, tx) = (cell.config.algorithm.name(), cell.x);
        let cell_path = out.map(|d| d.join(cell.legacy_file_name()));
        if resume {
            // A parseable cell file of this cell's shape is a finished
            // cell; a missing, truncated or differently shaped one
            // (another seed count) reruns. Writes are atomic, so
            // truncation means pre-atomic tooling or manual editing.
            if let Some(done) = cell_path
                .as_ref()
                .and_then(|p| std::fs::read_to_string(p).ok())
                .and_then(|text| SweepOutcome::from_json(&text))
                .filter(|done| cell.has_shape_of(done))
            {
                eprintln!("resume: {alg} tx {tx:.0} already done, skipping");
                outcomes.push(Some(done));
                continue;
            }
        }
        let outcome = if let Some(dir) = trace {
            // Traced sweeps run sequentially: one JSONL file per
            // (algorithm, tx, seed) cell member.
            let mut runs = Vec::with_capacity(cell.seeds.len());
            for &seed in &cell.seeds {
                let file = dir.join(format!("trace_{alg}_tx{tx:.0}_seed{seed}.jsonl"));
                let mut sink = JsonlSink::create(&file)?;
                let run = run_scenario_instrumented(&cell.config, seed, |_| {}, &mut sink)?;
                sink.finish()?;
                manifests.push(manifest_for(&cell.config, seed, &run));
                phase_total.accumulate(&run.perf.phase_ms);
                runs.push(run);
            }
            summarize_cs(tx, &runs)
        } else {
            let (result, stats) = run_cell(&cell, &supervision, None);
            phase_total.accumulate(&stats.phase_ms);
            match result {
                Ok(outcome) => outcome,
                Err(e) if deadline_s.is_some() => {
                    eprintln!("warning: {alg} tx {tx:.0}: {e}; cell skipped");
                    outcomes.push(None);
                    continue;
                }
                Err(e) => return Err(e.into()),
            }
        };
        if let Some(path) = &cell_path {
            // `to_json_pretty` is the same canonical serialization the
            // sweepd cache stores, so an `--out` dir doubles as a warm
            // cache.
            write_atomic(path, outcome.to_json_pretty())?;
        }
        outcomes.push(Some(outcome));
    }
    if let Some(dir) = trace {
        let mpath = write_manifests(dir.join("sweep.json"), &manifests)?;
        eprintln!(
            "traces: {} files -> {}; manifest -> {}",
            manifests.len(),
            dir.display(),
            mpath.display()
        );
    }
    if profile {
        eprintln!("accumulated over all runs:\n{phase_total}");
    }
    Ok(outcomes)
}

/// Submits the sweep to a `mobic-sweepd` service, tails its progress,
/// and returns its cells in the spec's order. The cells come back
/// byte-identical to a local `mobic-cli sweep`, so the rendered table
/// is identical too.
fn sweep_via_server(
    addr: &str,
    spec: &SweepSpec,
) -> Result<Vec<Option<SweepOutcome>>, Box<dyn std::error::Error>> {
    let (status, body) = http::request(addr, "POST", "/sweep", &spec.to_json())?;
    if status != 200 {
        return Err(format!("server rejected the sweep ({status}): {body}").into());
    }
    let response: serde_json::Value = serde_json::from_str(&body)?;
    let keys: Vec<String> = response["cells"]
        .as_array()
        .map(|a| {
            a.iter()
                .filter_map(|v| v.as_str().map(String::from))
                .collect()
        })
        .unwrap_or_default();
    let expected = spec.tx_values.len() * spec.algorithms.len();
    if keys.len() != expected {
        return Err(format!(
            "server returned {} cell keys, expected {expected}",
            keys.len()
        )
        .into());
    }
    eprintln!(
        "server accepted {} cells ({} from cache, {} queued)",
        keys.len(),
        response["cached"],
        response["queued"]
    );
    let mut cells: Vec<Option<SweepOutcome>> = vec![None; keys.len()];
    let mut last_progress = String::new();
    loop {
        let mut pending = 0usize;
        for (i, key) in keys.iter().enumerate() {
            if cells[i].is_some() {
                continue;
            }
            let (status, body) = http::request(addr, "GET", &format!("/cell/{key}"), "")?;
            match status {
                200 => {
                    cells[i] = Some(
                        SweepOutcome::from_json(&body)
                            .ok_or_else(|| format!("cell {key}: unparseable response"))?,
                    );
                }
                404 => pending += 1,
                _ => return Err(format!("cell {key} failed on the server: {body}").into()),
            }
        }
        if pending == 0 {
            return Ok(cells);
        }
        if let Ok((200, status_body)) = http::request(addr, "GET", "/status", "") {
            if let Ok(v) = serde_json::from_str::<serde_json::Value>(&status_body) {
                let progress = format!(
                    "server: {} queued, {} running, {} cells pending",
                    v["queued"], v["running"], pending
                );
                if progress != last_progress {
                    eprintln!("{progress}");
                    last_progress = progress;
                }
            }
        }
        std::thread::sleep(Duration::from_millis(200));
    }
}

/// The sweep's CS table, one row per tx value, from its cells in the
/// spec's order (tx outer, algorithm inner); a skipped cell shows `-`.
fn cs_table(spec: &SweepSpec, cells: &[Option<SweepOutcome>]) -> AsciiTable {
    let mut header = vec!["Tx (m)".to_string()];
    for alg in &spec.algorithms {
        header.push(format!("{} CS", alg.name()));
        header.push(format!("{} clusters", alg.name()));
    }
    let mut table = AsciiTable::new(header);
    for (tx, row_cells) in spec
        .tx_values
        .iter()
        .zip(cells.chunks(spec.algorithms.len()))
    {
        let mut row = vec![format!("{tx:.0}")];
        for cell in row_cells {
            match cell {
                Some(cell) => {
                    row.push(format!("{:.1}", cell.mean_cs));
                    row.push(format!("{:.1}", cell.mean_clusters));
                }
                None => {
                    row.push("-".to_string());
                    row.push("-".to_string());
                }
            }
        }
        table.row(row);
    }
    table
}
