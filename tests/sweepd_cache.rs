//! Cache-correctness coverage for the sweepd service (ISSUE 7):
//! cold vs warm byte-identity, corruption detection, PR-4 `--out`
//! directories as warm caches, and key uniqueness over the paper's
//! fig-4 matrix.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use mobic::core::AlgorithmKind;
use mobic::scenario::{run_cell, ScenarioConfig, Supervision, SweepOutcome, SweepSpec};
use mobic::sweepd::CellCache;
use mobic::trace::write_atomic;

/// A fresh per-test scratch directory (unique per process + call).
fn tmp_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "mobic_sweepd_cache_{tag}_{}_{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn tiny_spec() -> SweepSpec {
    let mut base = ScenarioConfig::paper_table1();
    base.n_nodes = 8;
    base.sim_time_s = 30.0;
    SweepSpec {
        base,
        tx_values: vec![150.0, 200.0],
        algorithms: vec![AlgorithmKind::Mobic],
        seeds: 2,
        fault_panic_attempts: 0,
    }
}

#[test]
fn cold_and_warm_cells_are_byte_identical() {
    let dir = tmp_dir("warm");
    let cell = tiny_spec().cells().remove(0);
    let key = cell.key();

    // Cold: compute and store.
    let outcome = run_cell(&cell, &Supervision::default(), None)
        .0
        .expect("cell runs");
    let json = outcome.to_json_pretty();
    {
        let mut cache = CellCache::open(&dir).expect("cache opens");
        assert!(cache.is_empty());
        assert_eq!(cache.lookup(&cell), None, "cold cache must miss");
        cache.put(&key, &json).expect("cell stores");
        assert_eq!(cache.get(&key), Some(json.as_str()));
    }

    // Warm: a fresh process (modeled by reopening) serves the exact
    // bytes, which equal a fresh direct computation's bytes.
    let mut cache = CellCache::open(&dir).expect("cache reopens");
    assert_eq!(cache.len(), 1);
    assert_eq!(cache.lookup(&cell).as_deref(), Some(json.as_str()));
    let recomputed = run_cell(&cell, &Supervision::default(), None)
        .0
        .expect("cell reruns");
    assert_eq!(
        recomputed.to_json_pretty(),
        json,
        "direct computation and cached cell must agree byte-for-byte"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_and_truncated_cells_are_never_served() {
    let dir = tmp_dir("corrupt");
    let cell = tiny_spec().cells().remove(0);
    let key = cell.key();
    let json = run_cell(&cell, &Supervision::default(), None)
        .0
        .expect("cell runs")
        .to_json_pretty();

    {
        let mut cache = CellCache::open(&dir).expect("cache opens");
        cache.put(&key, &json).expect("cell stores");
    }
    // Truncate the stored cell file in place (what a pre-atomic tool
    // or a disk-full event would leave behind).
    let file = dir.join(format!("{}.json", key.replace(':', "-")));
    let stored = std::fs::read_to_string(&file).expect("cell file exists");
    write_atomic(&file, &stored[..stored.len() / 2]).expect("truncate");

    let mut cache = CellCache::open(&dir).expect("cache reopens");
    assert_eq!(cache.get(&key), None, "truncated cell must not index");
    assert_eq!(cache.lookup(&cell), None, "truncated cell must not serve");

    // Outright garbage behaves the same.
    write_atomic(&file, "{\"x\": not json").expect("corrupt");
    let cache = CellCache::open(&dir).expect("cache reopens again");
    assert_eq!(cache.get(&key), None, "corrupted cell must not index");

    // And the parse gate itself: a truncated outcome never parses.
    assert!(SweepOutcome::from_json(&stored[..stored.len() / 2]).is_none());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_sweep_out_directory_is_a_warm_cache() {
    let dir = tmp_dir("legacy");
    let cell = tiny_spec().cells().remove(0);
    let json = run_cell(&cell, &Supervision::default(), None)
        .0
        .expect("cell runs")
        .to_json_pretty();
    // What `mobic-cli sweep --out` writes: legacy name, same bytes.
    write_atomic(dir.join(cell.legacy_file_name()), &json).expect("legacy cell");

    let mut cache = CellCache::open(&dir).expect("cache opens over --out dir");
    assert!(cache.is_empty(), "legacy files index lazily");
    assert_eq!(
        cache.lookup(&cell).as_deref(),
        Some(json.as_str()),
        "legacy cell must hit with identical bytes"
    );
    // The hit re-indexed the cell under its content address.
    assert_eq!(cache.get(&cell.key()), Some(json.as_str()));

    // A cell with a different seed count must NOT match the legacy
    // file (its filename ignores seeds; the shape check catches it).
    let mut wider = cell.clone();
    wider.seeds.push(2);
    assert_eq!(cache.lookup(&wider), None);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fig4_matrix_keys_are_exhaustively_distinct() {
    // The paper's fig-4 style matrix: Tx 10..=235 by 25, all five
    // algorithms — every cell must get a unique content address.
    let tx_values: Vec<f64> = (0..10).map(|i| 10.0 + 25.0 * f64::from(i)).collect();
    let spec = SweepSpec {
        base: ScenarioConfig::paper_table1(),
        tx_values,
        algorithms: vec![
            AlgorithmKind::LowestId,
            AlgorithmKind::Lcc,
            AlgorithmKind::HighestDegree,
            AlgorithmKind::Mobic,
            AlgorithmKind::Wca,
        ],
        seeds: 5,
        fault_panic_attempts: 0,
    };
    spec.validate().expect("fig-4 spec is valid");
    let cells = spec.cells();
    assert_eq!(cells.len(), 50);
    let keys: Vec<String> = cells.iter().map(|c| c.key()).collect();
    for (i, a) in keys.iter().enumerate() {
        for (j, b) in keys.iter().enumerate().skip(i + 1) {
            assert_ne!(
                a,
                b,
                "cells {i} ({}@{}) and {j} ({}@{}) collide",
                cells[i].config.algorithm.name(),
                cells[i].x,
                cells[j].config.algorithm.name(),
                cells[j].x
            );
        }
    }
    // Seeds are part of the address too: the same grid at a different
    // seed count shares no key with the original.
    let mut more_seeds = spec.clone();
    more_seeds.seeds = 6;
    for k in more_seeds.cells().iter().map(|c| c.key()) {
        assert!(!keys.contains(&k), "seed count must be part of the key");
    }
}
