//! Checks that the paper's *qualitative* results hold. Most re-run
//! the comparisons EXPERIMENTS.md reports at full scale, shrunk to stay
//! test-suite friendly; each uses several seeds and asserts on the
//! seed-mean, not individual runs. The `golden_*` tests read the
//! headline claims straight off the checked-in full-scale results.

use mobic::core::AlgorithmKind;
use mobic::scenario::{run_batch, ScenarioConfig};

/// Mean steady-state clusterhead changes across seeds.
fn mean_cs(cfg: &ScenarioConfig, alg: AlgorithmKind, seeds: std::ops::Range<u64>) -> f64 {
    let jobs: Vec<_> = seeds
        .clone()
        .map(|s| (cfg.with_algorithm(alg), s))
        .collect();
    let runs = run_batch(&jobs).expect("valid config");
    runs.iter()
        .map(|r| r.clusterhead_changes as f64)
        .sum::<f64>()
        / runs.len() as f64
}

fn paper_cfg(tx: f64, sim_time_s: f64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::paper_table1();
    cfg.sim_time_s = sim_time_s;
    cfg.tx_range_m = tx;
    cfg
}

#[test]
fn mobic_beats_lcc_at_large_range() {
    // Figure 3's headline comparison at Tx = 250 m (shortened run).
    let cfg = paper_cfg(250.0, 400.0);
    let lcc = mean_cs(&cfg, AlgorithmKind::Lcc, 0..4);
    let mobic = mean_cs(&cfg, AlgorithmKind::Mobic, 0..4);
    assert!(
        mobic < lcc,
        "MOBIC ({mobic:.1}) must beat LCC ({lcc:.1}) at Tx=250 m"
    );
}

#[test]
fn robust_median_aggregate_widens_the_gain() {
    // EXPERIMENTS.md X17: median-of-squares aggregation beats the raw
    // Eq.-2 mean of squares (which single close passes dominate).
    let cfg = paper_cfg(250.0, 400.0);
    let lcc = mean_cs(&cfg, AlgorithmKind::Lcc, 0..4);
    let mut med_cfg = cfg.with_algorithm(AlgorithmKind::Mobic);
    med_cfg.metric_aggregation = mobic::core::metric::MetricAggregation::MedianSq;
    let jobs: Vec<_> = (0..4u64).map(|s| (med_cfg, s)).collect();
    let runs = run_batch(&jobs).expect("valid config");
    let median = runs
        .iter()
        .map(|r| r.clusterhead_changes as f64)
        .sum::<f64>()
        / 4.0;
    assert!(
        median < lcc * 0.9,
        "median-aggregate MOBIC ({median:.1}) should clearly beat LCC ({lcc:.1})"
    );
}

#[test]
fn churn_peaks_at_small_ranges_then_falls() {
    // Figure 3's rise-and-fall shape: CS(50) > CS(250) and
    // CS(50) > CS(10) for LCC.
    let at = |tx: f64| mean_cs(&paper_cfg(tx, 300.0), AlgorithmKind::Lcc, 0..3);
    let low = at(10.0);
    let peak = at(50.0);
    let high = at(250.0);
    assert!(
        peak > high,
        "peak ({peak:.1}) must exceed large-range churn ({high:.1})"
    );
    assert!(
        peak > low,
        "peak ({peak:.1}) must exceed tiny-range churn ({low:.1})"
    );
}

#[test]
fn cluster_count_decreases_with_range() {
    // Figure 4's monotone shape, and near-equality of the algorithms.
    let cfg = paper_cfg(0.0, 300.0);
    let counts: Vec<(f64, f64)> = [50.0, 100.0, 200.0]
        .into_iter()
        .map(|tx| {
            let jobs: Vec<_> = (0..3u64)
                .map(|s| (cfg.with_tx_range(tx).with_algorithm(AlgorithmKind::Lcc), s))
                .collect();
            let lcc = run_batch(&jobs).unwrap();
            let jobs: Vec<_> = (0..3u64)
                .map(|s| {
                    (
                        cfg.with_tx_range(tx).with_algorithm(AlgorithmKind::Mobic),
                        s,
                    )
                })
                .collect();
            let mobic = run_batch(&jobs).unwrap();
            (
                lcc.iter().map(|r| r.avg_clusters).sum::<f64>() / 3.0,
                mobic.iter().map(|r| r.avg_clusters).sum::<f64>() / 3.0,
            )
        })
        .collect();
    assert!(
        counts[0].0 > counts[1].0 && counts[1].0 > counts[2].0,
        "{counts:?}"
    );
    for (lcc, mobic) in &counts {
        let rel = (lcc - mobic).abs() / lcc;
        assert!(
            rel < 0.35,
            "algorithms should form similar cluster counts: {counts:?}"
        );
    }
}

#[test]
fn highest_degree_is_least_stable() {
    // The [3]/[5] claim the paper builds on: max-connectivity churns
    // far more than id-based clustering.
    let cfg = paper_cfg(200.0, 300.0);
    let hd = mean_cs(&cfg, AlgorithmKind::HighestDegree, 0..3);
    let lcc = mean_cs(&cfg, AlgorithmKind::Lcc, 0..3);
    assert!(
        hd > lcc,
        "highest-degree ({hd:.1}) must churn more than LCC ({lcc:.1})"
    );
}

#[test]
fn plain_lowest_id_churns_more_than_lcc() {
    let cfg = paper_cfg(200.0, 300.0);
    let plain = mean_cs(&cfg, AlgorithmKind::LowestId, 0..3);
    let lcc = mean_cs(&cfg, AlgorithmKind::Lcc, 0..3);
    assert!(
        plain > lcc,
        "plain lowest-id ({plain:.1}) must churn more than LCC ({lcc:.1})"
    );
}

#[test]
fn sparser_field_churns_more_at_same_range() {
    // §4.3: the 1000×1000 field has more clusterhead changes at the
    // same moderate range.
    let dense = mean_cs(&paper_cfg(150.0, 300.0), AlgorithmKind::Lcc, 0..3);
    let mut sparse_cfg = ScenarioConfig::paper_sparse();
    sparse_cfg.sim_time_s = 300.0;
    sparse_cfg.tx_range_m = 150.0;
    let sparse = mean_cs(&sparse_cfg, AlgorithmKind::Lcc, 0..3);
    assert!(
        sparse > dense,
        "sparse ({sparse:.1}) must exceed dense ({dense:.1})"
    );
}

#[test]
fn slower_nodes_mean_fewer_changes() {
    // Figure 6's mobility-degree axis: MaxSpeed 1 m/s vs 20 m/s.
    let mut slow_cfg = paper_cfg(250.0, 300.0);
    slow_cfg.max_speed_mps = 1.0;
    let slow = mean_cs(&slow_cfg, AlgorithmKind::Mobic, 0..3);
    let fast = mean_cs(&paper_cfg(250.0, 300.0), AlgorithmKind::Mobic, 0..3);
    assert!(
        slow < fast,
        "slow ({slow:.1}) must be below fast ({fast:.1})"
    );
}

#[test]
fn pauses_reduce_churn() {
    // Figure 6(b): PT = 30 s is gentler than PT = 0 at equal speed.
    let mut paused_cfg = paper_cfg(250.0, 300.0);
    paused_cfg.pause_s = 30.0;
    let paused = mean_cs(&paused_cfg, AlgorithmKind::Lcc, 0..3);
    let moving = mean_cs(&paper_cfg(250.0, 300.0), AlgorithmKind::Lcc, 0..3);
    assert!(
        paused < moving,
        "paused ({paused:.1}) must be below always-moving ({moving:.1})"
    );
}

/// `(x, seed mean of key)` of one algorithm in a `results/*.json`
/// sweep, where `key` is a cell's `mean_cs` or `mean_clusters`.
fn golden_sweep(json: &str, algorithm: &str, key: &str) -> Vec<(f64, f64)> {
    let cells: serde_json::Value = serde_json::from_str(json).expect("golden parses");
    cells
        .as_array()
        .expect("a golden sweep is an array of cells")
        .iter()
        .filter(|cell| cell["algorithm"].as_str() == Some(algorithm))
        .map(|cell| {
            let x = cell["x"].as_f64().expect("x");
            (x, cell[key].as_f64().unwrap_or_else(|| panic!("{key}")))
        })
        .collect()
}

/// `(x, LCC, MOBIC)` rows of one key (see [`golden_sweep`]) of a
/// `results/*.json` sweep, paired by x.
fn golden_pairs(json: &str, key: &str) -> Vec<(f64, f64, f64)> {
    let lcc = golden_sweep(json, "lcc", key);
    let mobic = golden_sweep(json, "mobic", key);
    assert_eq!(lcc.len(), mobic.len(), "the golden pairs the algorithms");
    lcc.iter()
        .zip(&mobic)
        .map(|(&(x, l), &(mx, m))| {
            assert_eq!(x, mx, "the golden pairs the algorithms by x");
            (x, l, m)
        })
        .collect()
}

/// The rows of a `results/*.csv` golden, header dropped.
fn golden_csv(csv: &str) -> Vec<Vec<&str>> {
    csv.lines()
        .skip(1)
        .map(|l| l.split(',').collect())
        .collect()
}

/// The x of the largest y.
fn peak(points: &[(f64, f64)]) -> f64 {
    let mut best = points[0];
    for &p in points {
        if p.1 > best.1 {
            best = p;
        }
    }
    best.0
}

#[test]
fn golden_fig3_peaks_at_50m_and_crosses_over_near_100m() {
    // (Tx, LCC CS, MOBIC CS), printed by every failure below.
    let table = golden_pairs(include_str!("../results/fig3.json"), "mean_cs");
    let lcc: Vec<(f64, f64)> = table.iter().map(|&(x, l, _)| (x, l)).collect();
    assert_eq!(table.len(), 11, "{table:?}");
    assert_eq!(
        peak(&lcc),
        50.0,
        "Fig 3: LCC's CS peaks at Tx = 50 m; golden (Tx, LCC, MOBIC): {table:?}"
    );
    for &(x, l, m) in &table {
        if x >= 100.0 {
            assert!(
                m < l,
                "Fig 3: MOBIC beats LCC at every Tx from 100 m, not at {x} m; \
                 golden (Tx, LCC, MOBIC): {table:?}"
            );
        }
        if x == 75.0 {
            assert!(
                m >= l,
                "Fig 3: the crossover is near 100 m, so MOBIC does not beat LCC at \
                 75 m; golden (Tx, LCC, MOBIC): {table:?}"
            );
        }
    }
}

#[test]
fn golden_fig4_clusters_fall_with_range_and_mobic_forms_slightly_more() {
    // (Tx, LCC clusters, MOBIC clusters), printed by every failure.
    let table = golden_pairs(include_str!("../results/fig4.json"), "mean_clusters");
    assert_eq!(
        table.len(),
        11,
        "Fig 4 sweeps Tx 10, 25 and 50..=250 m; golden (Tx, LCC, MOBIC): {table:?}"
    );
    for pair in table.windows(2) {
        let ((x0, l0, m0), (x1, l1, m1)) = (pair[0], pair[1]);
        assert!(
            l1 < l0 && m1 < m0,
            "Fig 4: the cluster count falls strictly with Tx for both algorithms, \
             not from {x0} to {x1} m; golden (Tx, LCC, MOBIC): {table:?}"
        );
    }
    for &(x, l, m) in &table {
        assert!(
            (1.0..=1.13).contains(&(m / l)),
            "Fig 4: MOBIC forms at least as many clusters as LCC and at most 13 % \
             more (\"little difference\"), not {:.3}× at {x} m; golden (Tx, LCC, MOBIC): \
             {table:?}",
            m / l
        );
    }
    let peak = table.iter().find(|r| r.0 == 50.0).expect("a 50 m row");
    assert!(
        (30.0..=34.0).contains(&peak.1) && (30.0..=34.0).contains(&peak.2),
        "Fig 4: both algorithms sit at 30–34 clusters at the 50 m churn peak; \
         golden (Tx, LCC, MOBIC): {table:?}"
    );
}

#[test]
fn golden_fig5_mobic_beats_lcc_from_150_to_250m() {
    let table = golden_pairs(include_str!("../results/fig5.json"), "mean_cs");
    let large: Vec<(f64, f64, f64)> = table
        .iter()
        .copied()
        .filter(|&(x, _, _)| x >= 150.0)
        .collect();
    assert_eq!(
        large.len(),
        5,
        "Fig 5 sweeps Tx 150..=250 m in 25 m steps; golden (Tx, LCC, MOBIC): {table:?}"
    );
    for (x, l, m) in large {
        assert!(
            m < l,
            "Fig 5: on the 1000 m field MOBIC's CS is below LCC's at every Tx from \
             150 to 250 m, not at {x} m; golden (Tx, LCC, MOBIC): {table:?}"
        );
    }
}

#[test]
fn golden_fig6a_mobic_beats_lcc_at_every_max_speed() {
    let table = golden_pairs(include_str!("../results/fig6a.json"), "mean_cs");
    assert_eq!(
        table.len(),
        3,
        "Fig 6(a) has three max speeds; golden (max speed, LCC, MOBIC): {table:?}"
    );
    for &(v, l, m) in &table {
        assert!(
            m < l,
            "Fig 6(a): always mobile at Tx = 250 m, MOBIC's CS is below LCC's at every \
             max speed, not at {v} m/s; golden (max speed, LCC, MOBIC): {table:?}"
        );
    }
}

#[test]
fn golden_fig6b_mobic_is_at_parity_with_lcc_at_every_max_speed() {
    // The documented partial result: with pauses the paper keeps a
    // reduced gain, ours reaches parity.
    let table = golden_pairs(include_str!("../results/fig6b.json"), "mean_cs");
    assert_eq!(
        table.len(),
        3,
        "Fig 6(b) has three max speeds; golden (max speed, LCC, MOBIC): {table:?}"
    );
    for &(v, l, m) in &table {
        assert!(
            (m / l - 1.0).abs() <= 0.05,
            "Fig 6(b): with pauses MOBIC's CS is within ±5 % of LCC's at every max \
             speed, not {:+.1} % at {v} m/s; golden (max speed, LCC, MOBIC): {table:?}",
            (m / l - 1.0) * 100.0
        );
    }
}

#[test]
fn golden_median_aggregate_gains_33_percent_at_250m() {
    let rows = golden_csv(include_str!("../results/ablation_aggregation.csv"));
    let row = |name: &str| {
        rows.iter()
            .find(|r| r[0] == name)
            .unwrap_or_else(|| panic!("no `{name}` row; golden rows: {rows:?}"))
    };
    let lcc: f64 = row("lcc reference")[3].parse().expect("CS @250m");
    let median = row("median");
    let cs: f64 = median[3].parse().expect("CS @250m");
    assert_eq!(
        median[4], "+33.1",
        "X17: the median aggregate cuts CS at Tx = 250 m by 33.1 % against LCC \
         (the paper's ~33 %); golden rows: {rows:?}"
    );
    assert!(
        ((1.0 - cs / lcc) * 100.0 - 33.1).abs() < 0.05,
        "X17: the +33.1 % gain follows from its CS columns ({cs} vs LCC {lcc}); \
         golden rows: {rows:?}"
    );
}

#[test]
fn golden_lcc_churn_peak_scales_with_the_square_root_of_the_area() {
    let lcc = |csv: &str| -> Vec<(f64, f64)> {
        golden_csv(csv)
            .iter()
            .map(|r| (r[0].parse().expect("Tx"), r[1].parse().expect("LCC CS")))
            .collect()
    };
    let small = lcc(include_str!("../results/scaling_670.csv"));
    let large = lcc(include_str!("../results/scaling_1000.csv"));
    let peaks = (peak(&small), peak(&large));
    assert_eq!(
        peaks,
        (40.0, 60.0),
        "scaling: LCC's churn peaks at Tx = 40 m on 670 m and 60 m on 1000 m; \
         golden (Tx, LCC CS) 670 m: {small:?}, 1000 m: {large:?}"
    );
    // √f for the field ratio f = (1000/670)² is 1000/670 ≈ 1.49.
    let ratio = peaks.1 / peaks.0;
    assert!(
        (ratio - 1000.0 / 670.0).abs() < 0.01,
        "scaling: the peak ratio {ratio} is √f ≈ 1.49; \
         golden (Tx, LCC CS) 670 m: {small:?}, 1000 m: {large:?}"
    );
}
