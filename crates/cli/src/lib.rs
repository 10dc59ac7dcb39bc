//! Argument parsing and command logic for the `mobic-cli` binary —
//! kept in a library so every parsing rule is unit-testable.
//!
//! Commands:
//!
//! * `run` — simulate one scenario and print (or JSON-dump) the
//!   results;
//! * `sweep` — sweep the transmission range for several algorithms,
//!   print the paper-style CS table (locally, or through a
//!   `mobic-sweepd` service with `--server`);
//! * `drain` — gracefully shut down a `mobic-sweepd` service;
//! * `table1` — print the paper's simulation parameters.
//!
//! No external argument-parsing dependency: the grammar is small and a
//! hand-rolled parser keeps the dependency budget honest.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use mobic_core::AlgorithmKind;
use mobic_scenario::{AuditMode, FaultPlan, FaultTarget, MobilityKind, ScenarioConfig};

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run one scenario.
    Run {
        /// The scenario to run.
        config: ScenarioConfig,
        /// Master seed.
        seed: u64,
        /// Emit machine-readable JSON instead of a human summary.
        json: bool,
        /// Write a JSONL event trace (plus a manifest next to it).
        trace: Option<String>,
        /// Print wall-clock phase timings to stderr.
        profile: bool,
        /// Snapshot directory for crash-safe checkpointing: resume
        /// from the newest valid snapshot found there, and (when the
        /// config's checkpoint cadence is on) keep writing rotated
        /// snapshots into it.
        checkpoint_dir: Option<String>,
    },
    /// Sweep the transmission range.
    Sweep {
        /// Base scenario (tx range overridden per point).
        config: ScenarioConfig,
        /// Sweep points (meters).
        tx_values: Vec<f64>,
        /// Algorithms to compare.
        algorithms: Vec<AlgorithmKind>,
        /// Seeds per cell.
        seeds: u64,
        /// Directory for per-run JSONL traces and the sweep manifest.
        trace: Option<String>,
        /// Print accumulated wall-clock phase timings to stderr.
        profile: bool,
        /// Directory for per-cell outcome JSON files (written
        /// atomically, one per `(algorithm, tx)` cell).
        out: Option<String>,
        /// Skip cells whose outcome file under `out` has the cell's
        /// shape (algorithm, x, seed count).
        resume: bool,
        /// Soft per-run wall-clock deadline in seconds. A cell with a
        /// stuck or failing run is then warned about and skipped
        /// instead of failing the sweep.
        deadline_s: Option<f64>,
        /// Submit the sweep to a `mobic-sweepd` service at this
        /// address instead of running locally; the client tails
        /// progress and renders the same table from cached cells.
        server: Option<String>,
    },
    /// Gracefully shut down a `mobic-sweepd` service (`POST /drain`).
    Drain {
        /// Service address, e.g. `127.0.0.1:7700`.
        addr: String,
    },
    /// Print Table 1.
    Table1,
    /// Print usage.
    Help,
}

/// A command-line error with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// The usage text.
#[must_use]
pub fn usage() -> &'static str {
    "mobic-cli — MANET clustering simulator (MOBIC reproduction)

USAGE:
  mobic-cli run   [OPTIONS]          simulate one scenario
  mobic-cli sweep [OPTIONS]          sweep Tx for several algorithms
  mobic-cli drain --server <addr>    gracefully stop a mobic-sweepd
  mobic-cli table1                   print the paper's Table 1
  mobic-cli help                     this text

RUN / SWEEP OPTIONS (defaults = the paper's Table 1):
  --algorithm <lowest-id|lcc|highest-degree|mobic|wca> (run only)
  --algorithms <a,b,...>                             (sweep only, default lcc,mobic)
  --nodes <n>              number of nodes          [50]
  --field <WxH>            field size in meters     [670x670]
  --speed <mps>            max speed                [20]
  --pause <s>              pause time               [0]
  --tx <m>                 transmission range (run) [250]
  --tx-sweep <from:to:step>  sweep points (sweep)   [10:250:25]
  --time <s>               simulated seconds        [900]
  --seed <n>               master seed (run)        [42]
  --seeds <n>              seeds per cell (sweep)   [5]
  --mobility <kind>        rwp | walk | gauss | rpgm:<groups> |
                           highway:<lanes> | conference:<booths> |
                           manhattan:<block> | static        [rwp]
  --history <alpha>        EWMA metric smoothing (0..1)
  --faults <k=v,...>       node-lifecycle fault plan, e.g.
                           crashes=3,recoveries=2,recovery-after=10,
                           late-joins=2,deaf=1,mute=1,spell=5,
                           from=30,until=200,target=any|clusterhead
  --audit <off|warn|strict>  periodic Theorem-1 invariant audit;
                           warn = trace violations, strict = fail run [off]
  --json                   machine-readable output (run)

OBSERVABILITY:
  --trace <path>           write a JSONL event trace; for `run` a file,
                           for `sweep` a directory (one file per run).
                           A run manifest is written next to it.
  --profile                print wall-clock phase timings to stderr

CHECKPOINTING (run only; see OPERATIONS.md):
  --checkpoint-dir <dir>   resume from the newest valid snapshot in
                           <dir> (corrupt or foreign snapshots are
                           skipped); results are byte-identical to an
                           uninterrupted run
  --checkpoint-every <s>   write a rotated snapshot into the directory
                           roughly every <s> wall-clock seconds
                           (requires --checkpoint-dir)
  --checkpoint-keep <n>    rotated snapshots to keep          [2]

ROBUSTNESS (sweep only):
  --out <dir>              write one JSON outcome file per sweep cell,
                           atomically (temp file + rename)
  --resume                 skip cells whose outcome file under --out
                           has the cell's algorithm, x and seed count
                           (resume an interrupted sweep)
  --deadline <s>           per-run soft deadline; a cell with a stuck
                           or panicking run is reported and skipped
                           (shown as -, not written) instead of
                           hanging or aborting the sweep. Not with
                           --trace, whose runs are unsupervised

SERVICE (sweep/drain):
  --server <addr>          submit the sweep to a mobic-sweepd service
                           (e.g. 127.0.0.1:7700) and tail its progress;
                           cells already in the service cache are never
                           recomputed. Incompatible with --out,
                           --resume, --trace and --deadline (the
                           service owns persistence and supervision).
"
}

/// Parses an argument vector (without the program name).
///
/// # Errors
///
/// Returns a [`CliError`] describing the first problem found.
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let mut it = args.iter();
    let Some(cmd) = it.next() else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "table1" => Ok(Command::Table1),
        "drain" => {
            let rest: Vec<&String> = it.collect();
            match rest.as_slice() {
                [flag, addr] if flag.as_str() == "--server" && !addr.starts_with("--") => {
                    Ok(Command::Drain {
                        addr: (*addr).clone(),
                    })
                }
                _ => Err(err("drain expects exactly `--server <addr>`")),
            }
        }
        "run" | "sweep" => {
            let rest: Vec<&String> = it.collect();
            let mut config = ScenarioConfig::paper_table1();
            let mut seed = 42u64;
            let mut seeds = 5u64;
            let mut json = false;
            let mut trace: Option<String> = None;
            let mut profile = false;
            let mut tx_values = sweep_points(10.0, 250.0, 25.0);
            let mut algorithms = vec![AlgorithmKind::Lcc, AlgorithmKind::Mobic];
            let mut out: Option<String> = None;
            let mut resume = false;
            let mut deadline_s: Option<f64> = None;
            let mut server: Option<String> = None;
            let mut checkpoint_dir: Option<String> = None;
            let mut i = 0;
            while i < rest.len() {
                let flag = rest[i].as_str();
                let mut value = || -> Result<&String, CliError> {
                    i += 1;
                    rest.get(i)
                        .copied()
                        .ok_or_else(|| err(format!("{flag} needs a value")))
                };
                match flag {
                    "--json" => json = true,
                    "--profile" => profile = true,
                    "--trace" => {
                        let path = value()?;
                        if path.is_empty() || path.starts_with("--") {
                            return Err(err(format!("--trace expects a path, got {path:?}")));
                        }
                        trace = Some(path.clone());
                    }
                    "--algorithm" => config.algorithm = parse_algorithm(value()?)?,
                    "--algorithms" => {
                        algorithms = value()?
                            .split(',')
                            .map(parse_algorithm)
                            .collect::<Result<_, _>>()?;
                    }
                    "--nodes" => config.n_nodes = parse_num(value()?, "--nodes")?,
                    "--field" => {
                        let (w, h) = parse_field(value()?)?;
                        config.field_w_m = w;
                        config.field_h_m = h;
                    }
                    "--speed" => config.max_speed_mps = parse_num(value()?, "--speed")?,
                    "--pause" => config.pause_s = parse_num(value()?, "--pause")?,
                    "--tx" => config.tx_range_m = parse_num(value()?, "--tx")?,
                    "--tx-sweep" => tx_values = parse_sweep(value()?)?,
                    "--time" => config.sim_time_s = parse_num(value()?, "--time")?,
                    "--seed" => seed = parse_num(value()?, "--seed")?,
                    "--seeds" => seeds = parse_num(value()?, "--seeds")?,
                    "--mobility" => config.mobility = parse_mobility(value()?)?,
                    "--history" => config.history_alpha = Some(parse_num(value()?, "--history")?),
                    "--faults" => config.faults = parse_faults(value()?)?,
                    "--audit" => config.audit = parse_audit(value()?)?,
                    "--out" => {
                        let path = value()?;
                        if path.is_empty() || path.starts_with("--") {
                            return Err(err(format!("--out expects a directory, got {path:?}")));
                        }
                        out = Some(path.clone());
                    }
                    "--resume" => resume = true,
                    "--server" => {
                        let addr = value()?;
                        if addr.is_empty() || addr.starts_with("--") {
                            return Err(err(format!("--server expects an address, got {addr:?}")));
                        }
                        server = Some(addr.clone());
                    }
                    "--deadline" => {
                        let d: f64 = parse_num(value()?, "--deadline")?;
                        if d <= 0.0 {
                            return Err(err("--deadline must be positive"));
                        }
                        deadline_s = Some(d);
                    }
                    "--checkpoint-dir" => {
                        let dir = value()?;
                        if dir.is_empty() || dir.starts_with("--") {
                            return Err(err(format!(
                                "--checkpoint-dir expects a directory, got {dir:?}"
                            )));
                        }
                        checkpoint_dir = Some(dir.clone());
                    }
                    "--checkpoint-every" => {
                        let every: f64 = parse_num(value()?, "--checkpoint-every")?;
                        if every <= 0.0 {
                            return Err(err("--checkpoint-every must be positive"));
                        }
                        config.checkpoint.every_s = every;
                    }
                    "--checkpoint-keep" => {
                        config.checkpoint.keep = parse_num(value()?, "--checkpoint-keep")?;
                    }
                    other => return Err(err(format!("unknown option {other}"))),
                }
                i += 1;
            }
            config
                .validate()
                .map_err(|e| err(format!("invalid scenario: {e}")))?;
            if cmd == "run" {
                if server.is_some() {
                    return Err(err("--server applies to sweep only"));
                }
                if !config.checkpoint.is_off() && checkpoint_dir.is_none() {
                    return Err(err(
                        "--checkpoint-every needs --checkpoint-dir <dir> to put snapshots in",
                    ));
                }
                Ok(Command::Run {
                    config,
                    seed,
                    json,
                    trace,
                    profile,
                    checkpoint_dir,
                })
            } else {
                if checkpoint_dir.is_some() || !config.checkpoint.is_off() {
                    return Err(err(
                        "--checkpoint-* applies to run only (sweepd checkpoints its own cells)",
                    ));
                }
                if algorithms.is_empty() {
                    return Err(err("--algorithms must name at least one algorithm"));
                }
                if resume && out.is_none() {
                    return Err(err("--resume needs --out <dir> to find prior cell files"));
                }
                if trace.is_some() && deadline_s.is_some() {
                    return Err(err(
                        "--trace runs each seed in turn without supervision; it \
                         cannot be combined with --deadline",
                    ));
                }
                if server.is_some()
                    && (out.is_some() || resume || trace.is_some() || deadline_s.is_some())
                {
                    return Err(err(
                        "--server owns persistence and supervision; it cannot be \
                         combined with --out, --resume, --trace or --deadline",
                    ));
                }
                Ok(Command::Sweep {
                    config,
                    tx_values,
                    algorithms,
                    seeds: seeds.max(1),
                    trace,
                    profile,
                    out,
                    resume,
                    deadline_s,
                    server,
                })
            }
        }
        other => Err(err(format!(
            "unknown command {other}; try `mobic-cli help`"
        ))),
    }
}

fn parse_algorithm(s: impl AsRef<str>) -> Result<AlgorithmKind, CliError> {
    match s.as_ref() {
        "lowest-id" => Ok(AlgorithmKind::LowestId),
        "lcc" => Ok(AlgorithmKind::Lcc),
        "highest-degree" => Ok(AlgorithmKind::HighestDegree),
        "mobic" => Ok(AlgorithmKind::Mobic),
        "wca" => Ok(AlgorithmKind::Wca),
        other => Err(err(format!(
            "unknown algorithm {other}; expected lowest-id|lcc|highest-degree|mobic|wca"
        ))),
    }
}

fn parse_audit(s: impl AsRef<str>) -> Result<AuditMode, CliError> {
    match s.as_ref() {
        "off" => Ok(AuditMode::Off),
        "warn" => Ok(AuditMode::Warn),
        "strict" => Ok(AuditMode::Strict),
        other => Err(err(format!(
            "unknown audit mode {other}; expected off|warn|strict"
        ))),
    }
}

fn parse_faults(s: &str) -> Result<FaultPlan, CliError> {
    let mut plan = FaultPlan::default();
    for pair in s.split(',') {
        let (key, val) = pair
            .split_once('=')
            .ok_or_else(|| err(format!("--faults expects k=v pairs, got {pair:?}")))?;
        match key {
            "crashes" => plan.crashes = parse_num(val, "--faults crashes")?,
            "recoveries" => plan.recoveries = parse_num(val, "--faults recoveries")?,
            "recovery-after" => {
                plan.recovery_after_s = parse_num(val, "--faults recovery-after")?;
            }
            "late-joins" => plan.late_joins = parse_num(val, "--faults late-joins")?,
            "deaf" => plan.deaf_spells = parse_num(val, "--faults deaf")?,
            "mute" => plan.mute_spells = parse_num(val, "--faults mute")?,
            "spell" => plan.spell_s = parse_num(val, "--faults spell")?,
            "from" => plan.from_s = parse_num(val, "--faults from")?,
            "until" => plan.until_s = parse_num(val, "--faults until")?,
            "target" => {
                plan.target = match val {
                    "any" => FaultTarget::Any,
                    "clusterhead" => FaultTarget::Clusterhead,
                    other => {
                        return Err(err(format!(
                            "--faults target expects any|clusterhead, got {other:?}"
                        )))
                    }
                };
            }
            other => return Err(err(format!("--faults: unknown key {other:?}"))),
        }
    }
    Ok(plan)
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, CliError> {
    s.parse()
        .map_err(|_| err(format!("{flag}: cannot parse {s:?}")))
}

fn parse_field(s: &str) -> Result<(f64, f64), CliError> {
    let (w, h) = s
        .split_once(['x', 'X'])
        .ok_or_else(|| err(format!("--field expects WxH, got {s:?}")))?;
    Ok((parse_num(w, "--field")?, parse_num(h, "--field")?))
}

fn parse_sweep(s: &str) -> Result<Vec<f64>, CliError> {
    let parts: Vec<&str> = s.split(':').collect();
    if parts.len() != 3 {
        return Err(err(format!("--tx-sweep expects from:to:step, got {s:?}")));
    }
    let from: f64 = parse_num(parts[0], "--tx-sweep")?;
    let to: f64 = parse_num(parts[1], "--tx-sweep")?;
    let step: f64 = parse_num(parts[2], "--tx-sweep")?;
    if step <= 0.0 || to < from {
        return Err(err("--tx-sweep requires step > 0 and to >= from"));
    }
    Ok(sweep_points(from, to, step))
}

fn sweep_points(from: f64, to: f64, step: f64) -> Vec<f64> {
    let mut v = Vec::new();
    let mut x = from;
    while x <= to + 1e-9 {
        v.push(x);
        x += step;
    }
    v
}

fn parse_mobility(s: &str) -> Result<MobilityKind, CliError> {
    let (kind, arg) = match s.split_once(':') {
        Some((k, a)) => (k, Some(a)),
        None => (s, None),
    };
    let num = |flag: &str| -> Result<f64, CliError> {
        arg.ok_or_else(|| err(format!("{flag} needs an argument, e.g. {flag}:4")))
            .and_then(|a| parse_num(a, flag))
    };
    match kind {
        "rwp" => Ok(MobilityKind::RandomWaypoint),
        "walk" => Ok(MobilityKind::RandomWalk { epoch_s: 10.0 }),
        "gauss" => Ok(MobilityKind::GaussMarkov { alpha: 0.85 }),
        "rpgm" => Ok(MobilityKind::Rpgm {
            groups: num("rpgm")? as u32,
            member_radius_m: 50.0,
        }),
        "highway" => Ok(MobilityKind::Highway {
            lanes: num("highway")? as u32,
            bidirectional: true,
        }),
        "conference" => Ok(MobilityKind::ConferenceHall {
            booths: num("conference")? as u32,
        }),
        "manhattan" => Ok(MobilityKind::Manhattan {
            block_m: num("manhattan")?,
            p_turn: 0.5,
        }),
        "static" => Ok(MobilityKind::Stationary),
        other => Err(err(format!("unknown mobility kind {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(line: &str) -> Command {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args).expect("should parse")
    }

    fn parse_err(line: &str) -> CliError {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args).expect_err("should fail")
    }

    #[test]
    fn empty_and_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse_ok("help"), Command::Help);
        assert_eq!(parse_ok("--help"), Command::Help);
        assert_eq!(parse_ok("table1"), Command::Table1);
    }

    #[test]
    fn run_defaults_are_table1() {
        let Command::Run {
            config,
            seed,
            json,
            trace,
            profile,
            checkpoint_dir,
        } = parse_ok("run")
        else {
            panic!("expected run");
        };
        assert_eq!(config, ScenarioConfig::paper_table1());
        assert_eq!(seed, 42);
        assert!(!json);
        assert_eq!(trace, None);
        assert!(!profile);
        assert_eq!(checkpoint_dir, None);
    }

    #[test]
    fn run_with_overrides() {
        let Command::Run {
            config, seed, json, ..
        } = parse_ok(
            "run --algorithm mobic --nodes 30 --field 1000x500 --speed 10 \
             --pause 30 --tx 100 --time 300 --seed 7 --history 0.7 --json",
        )
        else {
            panic!("expected run");
        };
        assert_eq!(config.algorithm, AlgorithmKind::Mobic);
        assert_eq!(config.n_nodes, 30);
        assert_eq!((config.field_w_m, config.field_h_m), (1000.0, 500.0));
        assert_eq!(config.max_speed_mps, 10.0);
        assert_eq!(config.pause_s, 30.0);
        assert_eq!(config.tx_range_m, 100.0);
        assert_eq!(config.sim_time_s, 300.0);
        assert_eq!(config.history_alpha, Some(0.7));
        assert_eq!(seed, 7);
        assert!(json);
    }

    #[test]
    fn mobility_kinds_parse() {
        for (arg, expect) in [
            ("rwp", MobilityKind::RandomWaypoint),
            ("static", MobilityKind::Stationary),
            (
                "rpgm:5",
                MobilityKind::Rpgm {
                    groups: 5,
                    member_radius_m: 50.0,
                },
            ),
            (
                "highway:4",
                MobilityKind::Highway {
                    lanes: 4,
                    bidirectional: true,
                },
            ),
            ("conference:8", MobilityKind::ConferenceHall { booths: 8 }),
            (
                "manhattan:100",
                MobilityKind::Manhattan {
                    block_m: 100.0,
                    p_turn: 0.5,
                },
            ),
        ] {
            let Command::Run { config, .. } = parse_ok(&format!("run --mobility {arg}")) else {
                panic!();
            };
            assert_eq!(config.mobility, expect, "{arg}");
        }
    }

    #[test]
    fn sweep_defaults() {
        let Command::Sweep {
            tx_values,
            algorithms,
            seeds,
            ..
        } = parse_ok("sweep")
        else {
            panic!("expected sweep");
        };
        assert_eq!(tx_values.first(), Some(&10.0));
        assert_eq!(tx_values.last(), Some(&235.0));
        assert_eq!(algorithms, vec![AlgorithmKind::Lcc, AlgorithmKind::Mobic]);
        assert_eq!(seeds, 5);
    }

    #[test]
    fn sweep_custom_points_and_algorithms() {
        let Command::Sweep {
            tx_values,
            algorithms,
            ..
        } = parse_ok("sweep --tx-sweep 50:250:100 --algorithms lowest-id,highest-degree")
        else {
            panic!("expected sweep");
        };
        assert_eq!(tx_values, vec![50.0, 150.0, 250.0]);
        assert_eq!(
            algorithms,
            vec![AlgorithmKind::LowestId, AlgorithmKind::HighestDegree]
        );
    }

    #[test]
    fn error_messages_name_the_problem() {
        assert!(parse_err("run --algorithm bogus").0.contains("bogus"));
        assert!(parse_err("run --nodes").0.contains("--nodes"));
        assert!(parse_err("run --field 670").0.contains("WxH"));
        assert!(parse_err("sweep --tx-sweep 10:5:1")
            .0
            .contains("to >= from"));
        assert!(parse_err("frobnicate").0.contains("unknown command"));
        assert!(parse_err("run --mobility rpgm").0.contains("argument"));
        assert!(parse_err("run --trace").0.contains("--trace"));
        assert!(parse_err("run --trace --json").0.contains("path"));
    }

    #[test]
    fn trace_and_profile_parse_on_both_commands() {
        let Command::Run { trace, profile, .. } = parse_ok("run --trace out/run.jsonl --profile")
        else {
            panic!("expected run");
        };
        assert_eq!(trace.as_deref(), Some("out/run.jsonl"));
        assert!(profile);
        let Command::Sweep { trace, profile, .. } = parse_ok("sweep --trace traces/ --profile")
        else {
            panic!("expected sweep");
        };
        assert_eq!(trace.as_deref(), Some("traces/"));
        assert!(profile);
        // Defaults stay off for sweep too.
        let Command::Sweep { trace, profile, .. } = parse_ok("sweep") else {
            panic!("expected sweep");
        };
        assert_eq!(trace, None);
        assert!(!profile);
    }

    #[test]
    fn retired_knobs_have_no_flags() {
        assert!(parse_err("run --scheduler calendar")
            .0
            .contains("unknown option --scheduler"));
        assert!(parse_err("run --delivery scalar")
            .0
            .contains("unknown option --delivery"));
        assert!(parse_err("run --recluster full")
            .0
            .contains("unknown option --recluster"));
    }

    #[test]
    fn invalid_scenarios_are_rejected_at_parse_time() {
        assert!(parse_err("run --nodes 0").0.contains("invalid scenario"));
        assert!(parse_err("run --speed -1").0.contains("invalid scenario"));
    }

    #[test]
    fn faults_and_audit_parse_on_run() {
        let Command::Run { config, .. } = parse_ok(
            "run --faults crashes=3,recoveries=2,recovery-after=12,late-joins=1,\
             deaf=1,mute=2,spell=4,from=30,until=200,target=clusterhead --audit warn",
        ) else {
            panic!("expected run");
        };
        assert_eq!(config.faults.crashes, 3);
        assert_eq!(config.faults.recoveries, 2);
        assert_eq!(config.faults.recovery_after_s, 12.0);
        assert_eq!(config.faults.late_joins, 1);
        assert_eq!(config.faults.deaf_spells, 1);
        assert_eq!(config.faults.mute_spells, 2);
        assert_eq!(config.faults.spell_s, 4.0);
        assert_eq!(config.faults.from_s, 30.0);
        assert_eq!(config.faults.until_s, 200.0);
        assert_eq!(config.faults.target, FaultTarget::Clusterhead);
        assert_eq!(config.audit, AuditMode::Warn);
        // Defaults stay off.
        let Command::Run { config, .. } = parse_ok("run") else {
            panic!("expected run");
        };
        assert!(config.faults.is_empty());
        assert_eq!(config.audit, AuditMode::Off);
    }

    #[test]
    fn bad_fault_specs_are_rejected() {
        assert!(parse_err("run --faults crashes").0.contains("k=v"));
        assert!(parse_err("run --faults frobs=3").0.contains("frobs"));
        assert!(parse_err("run --faults target=everyone")
            .0
            .contains("clusterhead"));
        assert!(parse_err("run --audit sometimes").0.contains("sometimes"));
        // Invalid plans trip config validation at parse time.
        assert!(parse_err("run --faults crashes=1,from=-5")
            .0
            .contains("invalid scenario"));
    }

    #[test]
    fn sweep_robustness_flags_parse() {
        let Command::Sweep {
            out,
            resume,
            deadline_s,
            ..
        } = parse_ok("sweep --out cells/ --resume --deadline 30")
        else {
            panic!("expected sweep");
        };
        assert_eq!(out.as_deref(), Some("cells/"));
        assert!(resume);
        assert_eq!(deadline_s, Some(30.0));
        // Defaults stay off.
        let Command::Sweep {
            out,
            resume,
            deadline_s,
            ..
        } = parse_ok("sweep")
        else {
            panic!("expected sweep");
        };
        assert_eq!(out, None);
        assert!(!resume);
        assert_eq!(deadline_s, None);
    }

    #[test]
    fn resume_and_deadline_are_validated() {
        assert!(parse_err("sweep --resume").0.contains("--out"));
        assert!(parse_err("sweep --deadline 0").0.contains("positive"));
        assert!(parse_err("sweep --trace d --deadline 60")
            .0
            .contains("--deadline"));
        assert!(parse_err("sweep --out --resume").0.contains("directory"));
    }

    #[test]
    fn checkpoint_flags_parse_on_run() {
        let Command::Run {
            config,
            checkpoint_dir,
            ..
        } = parse_ok("run --checkpoint-dir ckpts/ --checkpoint-every 30 --checkpoint-keep 4")
        else {
            panic!("expected run");
        };
        assert_eq!(checkpoint_dir.as_deref(), Some("ckpts/"));
        assert_eq!(config.checkpoint.every_s, 30.0);
        assert_eq!(config.checkpoint.keep, 4);
        // Resume-only: a directory without a cadence is fine (look for
        // snapshots, never write new ones).
        let Command::Run {
            config,
            checkpoint_dir,
            ..
        } = parse_ok("run --checkpoint-dir ckpts/")
        else {
            panic!("expected run");
        };
        assert_eq!(checkpoint_dir.as_deref(), Some("ckpts/"));
        assert!(config.checkpoint.is_off());
    }

    #[test]
    fn checkpoint_flags_are_validated() {
        assert!(parse_err("run --checkpoint-every 30")
            .0
            .contains("--checkpoint-dir"));
        assert!(parse_err("run --checkpoint-every 0").0.contains("positive"));
        assert!(parse_err("run --checkpoint-every -5")
            .0
            .contains("positive"));
        assert!(parse_err("run --checkpoint-dir --json")
            .0
            .contains("directory"));
        assert!(
            parse_err("run --checkpoint-dir c/ --checkpoint-every 30 --checkpoint-keep 0")
                .0
                .contains("invalid scenario")
        );
        assert!(parse_err("sweep --checkpoint-dir ckpts/")
            .0
            .contains("run only"));
        assert!(parse_err("sweep --checkpoint-every 30")
            .0
            .contains("run only"));
    }

    #[test]
    fn usage_mentions_every_command() {
        for needle in [
            "run",
            "sweep",
            "table1",
            "--mobility",
            "--tx-sweep",
            "--trace",
            "--profile",
            "--faults",
            "--audit",
            "--out",
            "--resume",
            "--deadline",
            "drain",
            "--server",
            "--checkpoint-dir",
            "--checkpoint-every",
            "--checkpoint-keep",
        ] {
            assert!(usage().contains(needle), "usage lacks {needle}");
        }
    }

    #[test]
    fn server_mode_parses_on_sweep_only() {
        let Command::Sweep { server, .. } = parse_ok("sweep --server 127.0.0.1:7700") else {
            panic!("expected sweep");
        };
        assert_eq!(server.as_deref(), Some("127.0.0.1:7700"));
        // Defaults stay local.
        let Command::Sweep { server, .. } = parse_ok("sweep") else {
            panic!("expected sweep");
        };
        assert_eq!(server, None);
        assert!(parse_err("run --server 127.0.0.1:7700")
            .0
            .contains("sweep only"));
        assert!(parse_err("sweep --server").0.contains("--server"));
        assert!(parse_err("sweep --server --profile").0.contains("address"));
    }

    #[test]
    fn server_mode_rejects_local_persistence_flags() {
        for line in [
            "sweep --server 127.0.0.1:7700 --out cells/",
            "sweep --server 127.0.0.1:7700 --out cells/ --resume",
            "sweep --server 127.0.0.1:7700 --trace traces/",
            "sweep --server 127.0.0.1:7700 --deadline 30",
        ] {
            assert!(parse_err(line).0.contains("--server"), "{line}");
        }
    }

    #[test]
    fn drain_parses_and_validates() {
        assert_eq!(
            parse_ok("drain --server 127.0.0.1:7700"),
            Command::Drain {
                addr: "127.0.0.1:7700".to_string()
            }
        );
        assert!(parse_err("drain").0.contains("--server"));
        assert!(parse_err("drain --server").0.contains("--server"));
        assert!(parse_err("drain 127.0.0.1:7700").0.contains("--server"));
        assert!(parse_err("drain --server --now").0.contains("--server"));
    }
}
