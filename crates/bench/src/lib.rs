//! Experiment harness regenerating every table and figure of the MOBIC
//! paper, plus the `bench_scaling` and `bench_hotpath` smokes.
//!
//! Each figure/table has a dedicated binary in `src/bin/` (see
//! DESIGN.md §3 for the index). All binaries:
//!
//! * print the figure's rows/series as an ASCII table on stdout,
//! * write CSV + JSON under `results/`,
//! * honor two environment variables so CI can run cheap versions:
//!   - `MOBIC_SEEDS` — number of seeds per cell (default 5),
//!   - `MOBIC_FAST`  — if set, shrink the simulated time to 180 s
//!     (default: the paper's 900 s).
//!
//! Run the full reproduction with e.g.:
//!
//! ```text
//! cargo run --release -p mobic-bench --bin fig3
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;

use mobic_core::AlgorithmKind;
use mobic_metrics::{report, AsciiTable};
use mobic_scenario::{manifest_for, run_batch, summarize_cs, ScenarioConfig, SweepOutcome};
use mobic_trace::{write_manifests, RunManifest};

/// Number of seeds per experiment cell (`MOBIC_SEEDS`, default 5).
#[must_use]
pub fn seeds() -> Vec<u64> {
    let n = std::env::var("MOBIC_SEEDS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(5)
        .max(1);
    (0..n).collect()
}

/// Applies the `MOBIC_FAST` switch to a base config.
#[must_use]
pub fn apply_fast(mut cfg: ScenarioConfig) -> ScenarioConfig {
    if std::env::var_os("MOBIC_FAST").is_some() {
        cfg.sim_time_s = 180.0;
    }
    cfg
}

/// Where experiment outputs are written (`results/` under the
/// workspace root, falling back to the current directory).
#[must_use]
pub fn results_dir() -> PathBuf {
    // The binaries run from the workspace root under `cargo run`; if
    // not, a local results/ directory is still a sensible place.
    PathBuf::from("results")
}

/// One cell of a sweep: an algorithm at an x-value, over all seeds.
#[derive(Debug, Clone)]
pub struct SweepTable {
    /// The x-axis label (e.g. "Tx (m)").
    pub x_label: String,
    /// The algorithms, in column order.
    pub algorithms: Vec<AlgorithmKind>,
    /// Rows: (x, one outcome per algorithm).
    pub rows: Vec<(f64, Vec<SweepOutcome>)>,
    /// One reproducibility manifest per underlying run, in job order
    /// (`xs × algorithms × seeds`); [`publish`](Self::publish) writes
    /// them next to the results JSON.
    pub manifests: Vec<RunManifest>,
}

impl SweepTable {
    /// Runs the full cross product `xs × algorithms × seeds`, where
    /// `configure` maps an x-value to a scenario (algorithm is set by
    /// the driver).
    ///
    /// # Panics
    ///
    /// Panics if any generated configuration is invalid — experiment
    /// definitions are static, so an invalid one is a programming
    /// error.
    #[must_use]
    pub fn run(
        x_label: &str,
        xs: &[f64],
        algorithms: &[AlgorithmKind],
        seeds: &[u64],
        configure: impl Fn(f64) -> ScenarioConfig,
    ) -> Self {
        // Flatten into one parallel batch for maximal core use.
        let mut jobs = Vec::new();
        for &x in xs {
            for &alg in algorithms {
                for &seed in seeds {
                    jobs.push((configure(x).with_algorithm(alg), seed));
                }
            }
        }
        let results = run_batch(&jobs).expect("experiment configs must be valid");
        let manifests = jobs
            .iter()
            .zip(&results)
            .map(|((cfg, seed), r)| manifest_for(cfg, *seed, r))
            .collect();
        let mut rows = Vec::new();
        let mut idx = 0;
        for &x in xs {
            let mut per_alg = Vec::new();
            for _ in algorithms {
                let chunk = &results[idx..idx + seeds.len()];
                idx += seeds.len();
                per_alg.push(summarize_cs(x, chunk));
            }
            rows.push((x, per_alg));
        }
        SweepTable {
            x_label: x_label.to_string(),
            algorithms: algorithms.to_vec(),
            rows,
            manifests,
        }
    }

    /// Renders the clusterhead-change (`CS`) view of the sweep.
    #[must_use]
    pub fn cs_table(&self) -> AsciiTable {
        let mut header = vec![self.x_label.clone()];
        for alg in &self.algorithms {
            header.push(format!("{} CS", alg.name()));
            header.push(format!("{} ±", alg.name()));
        }
        let mut t = AsciiTable::new(header);
        for (x, outs) in &self.rows {
            let mut row = vec![format!("{x:.0}")];
            for o in outs {
                row.push(format!("{:.1}", o.mean_cs));
                row.push(format!("{:.1}", o.stderr_cs));
            }
            t.row(row);
        }
        t
    }

    /// Renders the cluster-count view of the sweep (Figure 4's
    /// quantity).
    #[must_use]
    pub fn clusters_table(&self) -> AsciiTable {
        let mut header = vec![self.x_label.clone()];
        for alg in &self.algorithms {
            header.push(format!("{} clusters", alg.name()));
        }
        let mut t = AsciiTable::new(header);
        for (x, outs) in &self.rows {
            let mut row = vec![format!("{x:.0}")];
            for o in outs {
                row.push(format!("{:.2}", o.mean_clusters));
            }
            t.row(row);
        }
        t
    }

    /// All outcomes flattened (for JSON export).
    #[must_use]
    pub fn outcomes(&self) -> Vec<&SweepOutcome> {
        self.rows.iter().flat_map(|(_, v)| v.iter()).collect()
    }

    /// Prints both views and writes `results/<name>.{csv,json}`.
    pub fn publish(&self, name: &str, title: &str) {
        println!("== {title} ==");
        println!("{}", self.cs_table().render());
        println!("{}", self.clusters_table().render());
        let dir = results_dir();
        let csv = self.cs_table();
        if let Err(e) = csv.write_csv(dir.join(format!("{name}.csv"))) {
            eprintln!("warning: could not write CSV: {e}");
        }
        let flat: Vec<&SweepOutcome> = self.outcomes();
        if let Err(e) = report::write_json(&flat, dir.join(format!("{name}.json"))) {
            eprintln!("warning: could not write JSON: {e}");
        }
        if let Err(e) = write_manifests(dir.join(format!("{name}.json")), &self.manifests) {
            eprintln!("warning: could not write manifest: {e}");
        }
        println!(
            "(wrote results/{name}.csv, results/{name}.json and results/{name}.manifest.json)\n"
        );
    }

    /// The mean CS for (x, algorithm), if present.
    #[must_use]
    pub fn mean_cs(&self, x: f64, alg: AlgorithmKind) -> Option<f64> {
        let col = self.algorithms.iter().position(|&a| a == alg)?;
        self.rows
            .iter()
            .find(|(rx, _)| (rx - x).abs() < 1e-9)
            .map(|(_, outs)| outs[col].mean_cs)
    }
}

/// Per-row Welch significance of `b` beating (or losing to) `a`:
/// returns `(x, mean_a − mean_b, significant_at_5%)` rows.
#[must_use]
pub fn significance_vs(
    table: &SweepTable,
    a: AlgorithmKind,
    b: AlgorithmKind,
) -> Vec<(f64, f64, bool)> {
    let Some(ia) = table.algorithms.iter().position(|&k| k == a) else {
        return Vec::new();
    };
    let Some(ib) = table.algorithms.iter().position(|&k| k == b) else {
        return Vec::new();
    };
    table
        .rows
        .iter()
        .map(|(x, outs)| {
            let sa: mobic_metrics::OnlineStats = outs[ia].cs_samples.iter().copied().collect();
            let sb: mobic_metrics::OnlineStats = outs[ib].cs_samples.iter().copied().collect();
            let (_, _, sig) = mobic_metrics::welch_t(&sa, &sb);
            (*x, sa.mean() - sb.mean(), sig)
        })
        .collect()
}

/// Finds where algorithm `b` starts to consistently beat algorithm
/// `a` along the sweep (first x after which `b`'s mean CS stays
/// lower). Used by the §4.3 √f-scaling analysis.
#[must_use]
pub fn crossover_x(table: &SweepTable, a: AlgorithmKind, b: AlgorithmKind) -> Option<f64> {
    let ia = table.algorithms.iter().position(|&k| k == a)?;
    let ib = table.algorithms.iter().position(|&k| k == b)?;
    let mut candidate = None;
    for (x, outs) in &table.rows {
        if outs[ib].mean_cs < outs[ia].mean_cs {
            if candidate.is_none() {
                candidate = Some(*x);
            }
        } else {
            candidate = None;
        }
    }
    candidate
}

/// The x of the maximum mean CS for an algorithm (the "peak" the
/// paper's §4.3 analysis tracks).
#[must_use]
pub fn peak_x(table: &SweepTable, alg: AlgorithmKind) -> Option<f64> {
    let i = table.algorithms.iter().position(|&k| k == alg)?;
    table
        .rows
        .iter()
        .max_by(|a, b| {
            a.1[i]
                .mean_cs
                .partial_cmp(&b.1[i].mean_cs)
                .expect("CS is never NaN")
        })
        .map(|(x, _)| *x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_table() -> SweepTable {
        let algs = [AlgorithmKind::Lcc, AlgorithmKind::Mobic];
        SweepTable::run("Tx (m)", &[150.0, 250.0], &algs, &[0, 1], |tx| {
            let mut c = ScenarioConfig::paper_table1();
            c.n_nodes = 8;
            c.sim_time_s = 40.0;
            c.tx_range_m = tx;
            c
        })
    }

    #[test]
    fn sweep_covers_cross_product() {
        let t = tiny_table();
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[0].1.len(), 2);
        assert_eq!(t.rows[0].1[0].runs, 2);
        assert_eq!(t.outcomes().len(), 4);
        assert!(t.mean_cs(150.0, AlgorithmKind::Lcc).is_some());
        assert!(t.mean_cs(999.0, AlgorithmKind::Lcc).is_none());
    }

    #[test]
    fn tables_render() {
        let t = tiny_table();
        let cs = t.cs_table().render();
        assert!(cs.contains("lcc CS"));
        assert!(cs.contains("mobic CS"));
        let cl = t.clusters_table().render();
        assert!(cl.contains("clusters"));
        assert_eq!(t.cs_table().len(), 2);
    }

    #[test]
    fn significance_rows_cover_sweep() {
        let t = tiny_table();
        let rows = significance_vs(&t, AlgorithmKind::Lcc, AlgorithmKind::Mobic);
        assert_eq!(rows.len(), 2);
        assert!(significance_vs(&t, AlgorithmKind::LowestId, AlgorithmKind::Mobic).is_empty());
    }

    #[test]
    fn peak_and_crossover_helpers() {
        let t = tiny_table();
        assert!(peak_x(&t, AlgorithmKind::Lcc).is_some());
        // Crossover may or may not exist on a tiny run; just ensure it
        // doesn't panic and respects membership.
        let _ = crossover_x(&t, AlgorithmKind::Lcc, AlgorithmKind::Mobic);
        assert_eq!(
            crossover_x(&t, AlgorithmKind::LowestId, AlgorithmKind::Mobic),
            None
        );
    }

    #[test]
    fn sweep_carries_one_manifest_per_run() {
        let t = tiny_table();
        // 2 xs × 2 algorithms × 2 seeds.
        assert_eq!(t.manifests.len(), 8);
        assert!(t
            .manifests
            .iter()
            .all(|m| m.schema == mobic_trace::MANIFEST_SCHEMA));
        // Job order is xs-major: the first seeds-len chunk shares a config.
        assert_eq!(t.manifests[0].config_hash, t.manifests[1].config_hash);
        assert_ne!(t.manifests[0].seed, t.manifests[1].seed);
    }

    #[test]
    fn seeds_env_default() {
        // Without the env var set we get at least one seed.
        assert!(!seeds().is_empty());
    }
}
