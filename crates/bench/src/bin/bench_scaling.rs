//! **BENCH_scaling** — end-to-end event-loop scaling at constant
//! paper density: brute-force vs spatial-index fast path.
//!
//! For each population size the field grows with `√n` so node density
//! (and therefore mean degree) matches Table 1's 50 nodes on 670 m ×
//! 670 m. Each cell runs the identical `(cfg, seed)`:
//!
//! * `fast_path: Off` (the reference scan) — only up to `n = 2000`,
//!   where the `O(n²)` cost stops being informative and starts being
//!   prohibitive;
//! * `fast_path: On` (indexed).
//!
//! and asserts that both variants agree on everything physical before
//! recording the speedup.
//!
//! Flags / environment:
//! * `--smoke` — tiny populations (`50,200`) and 20 s of simulated
//!   time, for CI; prints the table and writes nothing;
//! * `--large` — append the `n = 100_000` cell;
//! * `--stretch` — append the `n = 1_000_000` cell (indexed only;
//!   expect minutes);
//! * `MOBIC_SCALING_NS` — comma-separated populations (overrides the
//!   defaults, composes with `--large`/`--stretch`),
//! * `MOBIC_FAST` — shrink simulated time from 60 s to 20 s.
//!
//! A full run writes `results/BENCH_scaling.json` and its manifest.

use std::time::Instant;

use mobic_metrics::AsciiTable;
use mobic_scenario::{manifest_for, run_scenario, FastPath, RunResult, ScenarioConfig};
use serde::Serialize;

/// Brute-force cells stop here: beyond it the `O(n²)` scan dominates
/// wall-clock without adding information (the equality proof already
/// ran at every smaller n).
const BRUTE_CAP: u32 = 2000;

/// Above this population the simulated time is clamped to 20 s so the
/// large/stretch cells finish; scaling is per-event, so the shorter
/// horizon does not distort the comparison.
const LARGE_N: u32 = 100_000;

/// One population-size cell of the scaling comparison.
#[derive(Debug, Serialize)]
struct ScalingRow {
    n: u32,
    field_m: f64,
    /// `None` when the brute-force reference was skipped (n > cap).
    brute_ms: Option<f64>,
    indexed_ms: f64,
    /// brute / indexed; `None` without a brute cell.
    speedup_index: Option<f64>,
    mean_candidates: f64,
    index_refreshes: u64,
    events: u64,
}

struct Args {
    smoke: bool,
    large: bool,
    stretch: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        large: false,
        stretch: false,
    };
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--large" => args.large = true,
            "--stretch" => args.stretch = true,
            other => {
                eprintln!("ignoring unknown argument {other:?} (known: --smoke --large --stretch)");
            }
        }
    }
    args
}

fn populations(args: &Args) -> Vec<u32> {
    let mut ns: Vec<u32> = std::env::var("MOBIC_SCALING_NS")
        .ok()
        .map(|v| {
            v.split(',')
                .filter_map(|s| s.trim().parse::<u32>().ok())
                .collect()
        })
        .filter(|ns: &Vec<u32>| !ns.is_empty())
        .unwrap_or_else(|| {
            if args.smoke {
                vec![50, 200]
            } else {
                vec![100, 200, 400, 800]
            }
        });
    if args.large {
        ns.push(100_000);
    }
    if args.stretch {
        ns.push(1_000_000);
    }
    ns
}

fn cell_config(n: u32, args: &Args) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::paper_table1();
    cfg.n_nodes = n;
    // Constant density: area ∝ n, so side ∝ √n (50 nodes ↔ 670 m).
    let side = 670.0 * (f64::from(n) / 50.0).sqrt();
    cfg.field_w_m = side;
    cfg.field_h_m = side;
    let fast = args.smoke || std::env::var_os("MOBIC_FAST").is_some();
    cfg.sim_time_s = if fast || n >= LARGE_N { 20.0 } else { 60.0 };
    cfg.warmup_s = 5.0;
    cfg
}

fn timed(cfg: &ScenarioConfig, seed: u64) -> (RunResult, f64) {
    let t0 = Instant::now();
    let r = run_scenario(cfg, seed).expect("scaling configs are valid");
    (r, t0.elapsed().as_secs_f64() * 1e3)
}

fn main() {
    let args = parse_args();
    let seed = 1u64;
    let mut rows = Vec::new();
    let mut manifests = Vec::new();
    let mut table = AsciiTable::new([
        "n",
        "field (m)",
        "brute (ms)",
        "indexed (ms)",
        "idx speedup",
        "cand/hello",
    ]);
    println!("== BENCH_scaling: brute vs indexed event loop ==\n");
    for n in populations(&args) {
        let mut cfg = cell_config(n, &args);

        cfg.fast_path = FastPath::On;
        let (fast, indexed_ms) = timed(&cfg, seed);
        assert!(fast.perf.indexed, "n={n}");
        manifests.push(manifest_for(&cfg, seed, &fast));

        let brute = if n <= BRUTE_CAP {
            cfg.fast_path = FastPath::Off;
            let (brute, brute_ms) = timed(&cfg, seed);
            assert!(!brute.perf.indexed, "n={n}");
            // Brute force takes a different candidate path, so the
            // perf echo differs; everything physical must agree.
            assert_eq!(fast.deliveries, brute.deliveries, "n={n}");
            assert_eq!(fast.final_roles, brute.final_roles, "n={n}");
            assert_eq!(fast.cluster_series, brute.cluster_series, "n={n}");
            assert_eq!(
                fast.clusterhead_changes_total, brute.clusterhead_changes_total,
                "n={n}"
            );
            manifests.push(manifest_for(&cfg, seed, &brute));
            cfg.fast_path = FastPath::On;
            Some(brute_ms)
        } else {
            None
        };

        let speedup_index = brute.map(|b| b / indexed_ms);
        table.row([
            format!("{n}"),
            format!("{:.0}", cfg.field_w_m),
            brute.map_or_else(|| "-".to_string(), |b| format!("{b:.1}")),
            format!("{indexed_ms:.1}"),
            speedup_index.map_or_else(|| "-".to_string(), |s| format!("{s:.2}x")),
            format!("{:.1}", fast.perf.mean_candidates),
        ]);
        rows.push(ScalingRow {
            n,
            field_m: cfg.field_w_m,
            brute_ms: brute,
            indexed_ms,
            speedup_index,
            mean_candidates: fast.perf.mean_candidates,
            index_refreshes: fast.perf.index_refreshes,
            events: fast.perf.events,
        });
    }
    println!("{}", table.render());
    if args.smoke {
        return;
    }
    let path = mobic_bench::results_dir().join("BENCH_scaling.json");
    match mobic_metrics::report::write_json(&rows, &path) {
        Ok(()) => println!("(wrote {})", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
    match mobic_trace::write_manifests(&path, &manifests) {
        Ok(p) => println!("(wrote {})", p.display()),
        Err(e) => eprintln!("warning: could not write manifest: {e}"),
    }
}
