//! Whole-stack determinism: a run is a pure function of
//! `(config, seed)` regardless of algorithm, mobility model, channel,
//! and parallel batching.

use mobic::core::AlgorithmKind;
use mobic::scenario::{
    run_batch, run_scenario, LossKind, MobilityKind, PropagationKind, ScenarioConfig,
};

fn base() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::paper_table1();
    cfg.n_nodes = 15;
    cfg.sim_time_s = 60.0;
    cfg.tx_range_m = 200.0;
    cfg
}

#[test]
fn identical_runs_are_bitwise_identical() {
    let combos = [
        (
            MobilityKind::RandomWaypoint,
            PropagationKind::FreeSpace,
            LossKind::None,
        ),
        (
            MobilityKind::Rpgm {
                groups: 3,
                member_radius_m: 30.0,
            },
            PropagationKind::TwoRayGround,
            LossKind::Bernoulli { p: 0.1 },
        ),
        (
            MobilityKind::GaussMarkov { alpha: 0.8 },
            PropagationKind::ShadowedFreeSpace { sigma_db: 4.0 },
            LossKind::BurstyPreset,
        ),
        (
            MobilityKind::Highway {
                lanes: 3,
                bidirectional: true,
            },
            PropagationKind::LogDistance { exponent: 3.0 },
            LossKind::None,
        ),
    ];
    for (mobility, propagation, loss) in combos {
        for alg in AlgorithmKind::ALL {
            let mut cfg = base();
            cfg.mobility = mobility;
            cfg.propagation = propagation;
            cfg.loss = loss;
            cfg.algorithm = alg;
            let a = run_scenario(&cfg, 99).expect("valid");
            let b = run_scenario(&cfg, 99).expect("valid");
            assert_eq!(a.final_roles, b.final_roles, "{mobility:?} {alg}");
            assert_eq!(a.deliveries, b.deliveries, "{mobility:?} {alg}");
            assert_eq!(
                a.clusterhead_changes_total, b.clusterhead_changes_total,
                "{mobility:?} {alg}"
            );
            assert_eq!(a.cluster_series, b.cluster_series, "{mobility:?} {alg}");
        }
    }
}

#[test]
fn parallel_batch_equals_sequential_execution() {
    let jobs: Vec<(ScenarioConfig, u64)> = (0..8u64)
        .map(|s| {
            let mut cfg = base();
            cfg.tx_range_m = 100.0 + 20.0 * s as f64;
            (cfg, s)
        })
        .collect();
    let parallel = run_batch(&jobs).expect("valid");
    for ((cfg, seed), got) in jobs.iter().zip(&parallel) {
        let solo = run_scenario(cfg, *seed).expect("valid");
        assert_eq!(got.final_roles, solo.final_roles);
        assert_eq!(got.clusterhead_changes, solo.clusterhead_changes);
        assert_eq!(got.deliveries, solo.deliveries);
    }
}

#[test]
fn seed_changes_everything_config_changes_only_what_it_should() {
    let cfg = base();
    let a = run_scenario(&cfg, 1).unwrap();
    let b = run_scenario(&cfg, 2).unwrap();
    assert_ne!(
        a.deliveries, b.deliveries,
        "different seeds, different worlds"
    );

    // Changing only the algorithm keeps the physical world identical:
    // same mobility + channel streams ⇒ same delivery count.
    let lcc = run_scenario(&cfg.with_algorithm(AlgorithmKind::Lcc), 7).unwrap();
    let mobic = run_scenario(&cfg.with_algorithm(AlgorithmKind::Mobic), 7).unwrap();
    assert_eq!(
        lcc.deliveries, mobic.deliveries,
        "algorithm choice must not perturb the physical world"
    );
    assert_eq!(lcc.hello_broadcasts, mobic.hello_broadcasts);
}

/// FNV-1a of the run's compact `RunResult` JSON with `perf` reset: the
/// bytes of everything the run computed, as the benchmark's output
/// check hashes them.
fn result_digest(cfg: &ScenarioConfig, seed: u64) -> u64 {
    let mut result = run_scenario(cfg, seed).expect("valid");
    result.perf = mobic::scenario::RunPerf::default();
    let json = serde_json::to_string(&result).expect("RunResult serializes");
    mobic::trace::fnv1a64(json.as_bytes())
}

/// Pins the bytes of runs over the stochastic channels, which nothing
/// else in the workspace's tests does: the other determinism checks
/// compare a run with itself, and the snapshot fixture and the
/// experiment goldens run free space. A change to the shadowing or
/// fading draws, the order they are taken in, or the reception test
/// they feed moves a digest here.
#[test]
fn stochastic_channels_match_pinned_digests() {
    let lossy = |propagation| {
        let mut cfg = ScenarioConfig::paper_table1();
        cfg.n_nodes = 40;
        cfg.sim_time_s = 120.0;
        cfg.tx_range_m = 150.0;
        cfg.propagation = propagation;
        cfg.loss = LossKind::BurstyPreset;
        cfg.packet_time_s = 0.000_25;
        cfg.faults = mobic::scenario::FaultPlan {
            crashes: 2,
            recoveries: 2,
            deaf_spells: 2,
            mute_spells: 2,
            ..Default::default()
        };
        cfg
    };
    let shadowed = |sigma_db| lossy(PropagationKind::ShadowedFreeSpace { sigma_db });
    let cases = [
        ("σ = 4 dB", shadowed(4.0), 0, 0xe887_463c_49f2_82cd_u64),
        ("σ = 4 dB", shadowed(4.0), 1, 0x4820_ac8a_41a8_49fa),
        ("σ = 0.5 dB", shadowed(0.5), 0, 0xc359_1230_98c5_8a5d),
        (
            "Nakagami m = 1",
            lossy(PropagationKind::NakagamiFreeSpace { m: 1.0 }),
            0,
            0x287e_6b64_c1f4_9789,
        ),
    ];
    let mut got = Vec::new();
    for (name, cfg, seed, _) in &cases {
        got.push((*name, *seed, result_digest(cfg, *seed)));
    }
    for ((name, _, seed, want), &(_, _, digest)) in cases.iter().zip(&got) {
        assert_eq!(
            digest, *want,
            "{name} at seed {seed}: digest {digest:#018x}, pinned {want:#018x}; all: {got:x?}"
        );
    }
}
