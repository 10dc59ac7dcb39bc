//! Failure injection: pile every adverse channel effect on at once —
//! log-normal shadowing, bursty loss, MAC collisions, high speed —
//! and verify the whole stack stays sane (no panics, invariants hold,
//! metrics remain finite, determinism survives). The second half adds
//! node-lifecycle faults (crashes, recoveries, impairments) and the
//! supervised batch executor on top of the hostile channel.

use std::time::Duration;

use mobic::core::AlgorithmKind;
use mobic::scenario::{
    run_batch_supervised, run_scenario, run_scenario_instrumented, FaultPlan, FaultTarget,
    LossKind, MobilityKind, PropagationKind, RunError, ScenarioConfig, Supervision,
};
use mobic::trace::JsonlSink;

fn hostile() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::paper_table1();
    cfg.n_nodes = 25;
    cfg.sim_time_s = 120.0;
    cfg.tx_range_m = 200.0;
    cfg.max_speed_mps = 30.0;
    cfg.propagation = PropagationKind::ShadowedFreeSpace { sigma_db: 6.0 };
    cfg.loss = LossKind::BurstyPreset;
    cfg.packet_time_s = 0.005;
    cfg
}

#[test]
fn hostile_channel_keeps_everything_finite() {
    for alg in AlgorithmKind::ALL {
        let r = run_scenario(&hostile().with_algorithm(alg), 17).expect("valid config");
        assert!(r.mean_aggregate_metric.is_finite(), "{alg}");
        assert!(r.mean_aggregate_metric >= 0.0, "{alg}");
        assert!(r.avg_clusters >= 1.0 && r.avg_clusters <= 25.0, "{alg}");
        assert!((0.0..=1.0).contains(&r.gateway_fraction), "{alg}");
        assert!(r.deliveries > 0, "{alg}: channel completely dead");
        assert!(r.mac_collisions > 0, "{alg}: collision model inert");
        // The cluster-count series never leaves [0, n].
        let (_, values) = r.cluster_series.samples();
        assert!(
            values.iter().all(|&v| (0.0..=25.0).contains(&v)),
            "{alg}: cluster count out of range"
        );
    }
}

#[test]
fn hostile_channel_is_still_deterministic() {
    let cfg = hostile();
    let a = run_scenario(&cfg, 23).unwrap();
    let b = run_scenario(&cfg, 23).unwrap();
    assert_eq!(a.final_roles, b.final_roles);
    assert_eq!(a.deliveries, b.deliveries);
    assert_eq!(a.mac_collisions, b.mac_collisions);
    assert_eq!(a.clusterhead_changes, b.clusterhead_changes);
}

#[test]
fn hostile_channel_increases_churn_over_clean_channel() {
    let clean = {
        let mut cfg = hostile();
        cfg.propagation = PropagationKind::FreeSpace;
        cfg.loss = LossKind::None;
        cfg.packet_time_s = 0.0;
        cfg
    };
    let mut clean_cs = 0.0;
    let mut hostile_cs = 0.0;
    for seed in 0..3u64 {
        clean_cs += run_scenario(&clean, seed).unwrap().clusterhead_changes as f64;
        hostile_cs += run_scenario(&hostile(), seed).unwrap().clusterhead_changes as f64;
    }
    assert!(
        hostile_cs > clean_cs,
        "adversity must hurt: hostile {hostile_cs} vs clean {clean_cs}"
    );
}

#[test]
fn group_mobility_under_hostile_channel_runs() {
    let mut cfg = hostile();
    cfg.mobility = MobilityKind::Rpgm {
        groups: 4,
        member_radius_m: 40.0,
    };
    let r = run_scenario(&cfg, 3).expect("valid config");
    assert!(r.hello_broadcasts > 0);
}

#[test]
fn clusterhead_crashes_heal_in_finite_time_for_every_algorithm() {
    for alg in AlgorithmKind::ALL {
        let mut cfg = hostile().with_algorithm(alg);
        cfg.faults.crashes = 3;
        cfg.faults.from_s = 40.0;
        cfg.faults.until_s = 80.0; // leave 40 s of run for re-affiliation
        cfg.faults.target = FaultTarget::Clusterhead;
        let r = run_scenario(&cfg, 11).expect("valid config");
        assert_eq!(r.faults.crashes, 3, "{alg}");
        // Targeting the most-populated clusterhead guarantees orphans,
        // so every crash opens a healing probe.
        let h = r.healing.expect("clusterhead crashes must open probes");
        assert!(h.probes >= 1 && h.probes <= 3, "{alg}: {h:?}");
        assert_eq!(h.healed + h.unhealed, h.probes, "{alg}");
        assert!(h.healed >= 1, "{alg}: nothing ever re-affiliated");
        assert!(
            h.mean_latency_s.is_finite() && h.mean_latency_s >= 0.0,
            "{alg}"
        );
        assert!(h.max_latency_s.is_finite(), "{alg}");
        assert!(h.max_latency_s + 1e-12 >= h.mean_latency_s, "{alg}");
        // The survivors re-elected: the network still has structure.
        assert!(r.avg_clusters >= 1.0, "{alg}");
    }
}

#[test]
fn killing_the_whole_population_degrades_gracefully() {
    let mut cfg = hostile();
    cfg.n_nodes = 6;
    cfg.faults.crashes = 6;
    cfg.faults.from_s = 30.0;
    cfg.faults.until_s = 60.0;
    let r = run_scenario(&cfg, 7).expect("valid config");
    // Every crash finds a victim until nobody is left; the run still
    // completes with finite metrics and the pre-crash traffic intact.
    assert_eq!(r.faults.crashes, 6);
    assert!(r.deliveries > 0);
    assert!(r.mean_aggregate_metric.is_finite());
    let (_, values) = r.cluster_series.samples();
    assert!(values.iter().all(|v| v.is_finite()));
}

#[test]
fn empty_fault_plan_is_byte_identical_to_an_unconfigured_run() {
    for seed in [2u64, 13] {
        let baseline = hostile();
        let mut explicit = hostile();
        explicit.faults = FaultPlan::default();
        let run = |cfg: &ScenarioConfig| {
            let mut sink = JsonlSink::new(Vec::new());
            let r = run_scenario_instrumented(cfg, seed, |_| {}, &mut sink).expect("valid config");
            let json = serde_json::to_string(&r).expect("serializes");
            (json, sink.finish().expect("in-memory sink"))
        };
        let (base_json, base_trace) = run(&baseline);
        let (explicit_json, explicit_trace) = run(&explicit);
        assert_eq!(base_json, explicit_json, "seed {seed}");
        assert_eq!(base_trace, explicit_trace, "seed {seed}");
        // Fault-free results carry no fault keys at all.
        assert!(!base_json.contains("\"faults\""), "seed {seed}");
        assert!(!base_json.contains("\"healing\""), "seed {seed}");
        assert!(!base_json.contains("\"audit\""), "seed {seed}");
    }
}

#[test]
fn supervised_batch_isolates_panicking_and_stuck_jobs() {
    let mut cfg = hostile();
    cfg.n_nodes = 8;
    cfg.sim_time_s = 30.0;
    let jobs: Vec<(ScenarioConfig, u64)> = (0..4).map(|s| (cfg, s)).collect();
    let sup = Supervision {
        soft_deadline: Some(Duration::from_secs(5)),
        join_grace: Duration::from_millis(50),
        panic_on: Some(0),
        delay_on: Some((2, Duration::from_secs(60))),
    };
    let (results, stats) = run_batch_supervised(&jobs, &sup, None);
    assert_eq!(results.len(), 4);
    let e0 = results[0].as_ref().unwrap_err();
    assert_eq!(e0.index, 0);
    assert!(matches!(e0.error, RunError::Panicked { .. }), "{e0}");
    let e2 = results[2].as_ref().unwrap_err();
    assert_eq!(e2.index, 2);
    assert!(matches!(e2.error, RunError::TimedOut { .. }), "{e2}");
    for i in [1usize, 3] {
        let r = results[i].as_ref().expect("healthy jobs must finish");
        assert!(r.deliveries > 0, "job {i}");
    }
    // The 60-second sleeper was abandoned by the watchdog and cannot
    // wind down inside the 50 ms grace: it must be reported, not
    // silently left behind.
    assert_eq!(stats.leaked_workers, 1);
}

/// Wherever the panic lands, supervision converts exactly that job
/// into `RunError::Panicked` and every other job completes. The three
/// positions are tried in turn.
#[test]
fn any_panicking_job_is_isolated() {
    for panic_at in 0usize..3 {
        let mut cfg = ScenarioConfig::paper_table1();
        cfg.n_nodes = 6;
        cfg.sim_time_s = 20.0;
        // `validate` requires the warmup to end before the run does.
        cfg.warmup_s = 5.0;
        cfg.tx_range_m = 200.0;
        let jobs: Vec<(ScenarioConfig, u64)> = (0..3).map(|s| (cfg, s)).collect();
        let sup = Supervision {
            panic_on: Some(panic_at),
            ..Supervision::default()
        };
        let results = run_batch_supervised(&jobs, &sup, None).0;
        for (i, r) in results.iter().enumerate() {
            if i == panic_at {
                let Err(e) = r else {
                    panic!("panic_at {panic_at}: job {i} must fail")
                };
                assert_eq!(e.index, panic_at, "panic_at {panic_at}");
                assert!(
                    matches!(e.error, RunError::Panicked { .. }),
                    "panic_at {panic_at}: {e}"
                );
            } else {
                assert!(r.is_ok(), "panic_at {panic_at}: job {i} must survive");
            }
        }
    }
}
