//! The steady-state Hello path allocates nothing once a network has
//! converged, and a churning one allocates exactly its pinned count.
//!
//! A counting global allocator tallies every heap allocation (`alloc`,
//! `realloc` and `alloc_zeroed`) made by the calling thread, so tests
//! running in parallel in this binary never see each other's counts.
//! Each cell is measured with a *two-horizon diff*: the same
//! `(cfg, seed)` runs once to 30 s and once to 60 s. The event stream
//! over the first 30 s is identical in both runs, so setup, bootstrap
//! and convergence cancel, and the difference is what the window
//! `(30 s, 60 s]` allocates.
//!
//! Converged cells (every table full, every role settled) must read
//! exactly 0 across every algorithm, both delivery paths, every
//! channel and loss model, the MAC window, adaptive Hello pacing and
//! the faults. Churning cells keep adding and expiring neighbors, so
//! their tables step through capacity rungs: they pin an exact count
//! (DESIGN.md §8). A change that moves a pin updates it here and says
//! why in CHANGES.md.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mobic::core::metric::MetricAggregation;
use mobic::core::AlgorithmKind;
use mobic::scenario::{
    run_scenario, FastPath, FaultPlan, LossKind, MobilityKind, PropagationKind, ScenarioConfig,
};

/// `System`, with every allocation of the calling thread counted.
/// Deallocations are free of interest; `realloc` and `alloc_zeroed`
/// count because growing a `Vec` mid-loop is the fault this file
/// catches.
struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread so far. `const`-initialized
    /// and without a destructor, so reading it never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // A thread past its TLS teardown has no counter, and its
    // allocations belong to no measurement.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged; the counter is a thread-local `Cell`, which
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The seed every cell runs at.
const SEED: u64 = 1;
/// The two horizons of the diff, in simulated seconds.
const SHORT_S: f64 = 30.0;
const LONG_S: f64 = 60.0;

/// Allocations made on this thread by one run, and its event count.
fn counted_run(cfg: &ScenarioConfig) -> (u64, u64) {
    let before = ALLOCS.with(Cell::get);
    let result = run_scenario(cfg, SEED).expect("every cell is a valid config");
    let allocs = ALLOCS.with(Cell::get) - before;
    (allocs, result.perf.events)
}

/// The two-horizon diff of `cfg`: what the window `(SHORT_S, LONG_S]`
/// allocated, and how many events it held.
fn steady_state(cfg: &ScenarioConfig) -> (i64, u64) {
    let (a_short, e_short) = counted_run(&ScenarioConfig {
        sim_time_s: SHORT_S,
        ..*cfg
    });
    let (a_long, e_long) = counted_run(&ScenarioConfig {
        sim_time_s: LONG_S,
        ..*cfg
    });
    let events = e_long - e_short;
    assert!(events > 0, "the horizons leave no steady-state window");
    (a_long as i64 - a_short as i64, events)
}

/// Runs every `(name, cfg, expected)` cell and fails, listing them
/// all, unless each window allocates exactly `expected` times.
fn assert_window_allocations(cells: Vec<(String, ScenarioConfig, i64)>, why: &str) {
    let mut report = String::new();
    let mut failed = false;
    for (name, cfg, expected) in cells {
        let (allocs, events) = steady_state(&cfg);
        failed |= allocs != expected;
        report.push_str(&format!(
            "  {name}: {allocs} allocations over {events} events (expected {expected})\n"
        ));
    }
    assert!(!failed, "{why}\n{report}");
}

/// Stationary nodes at the paper's density (50 nodes on 670 m × 670 m)
/// with a 5 s warmup.
fn base(n: u32) -> ScenarioConfig {
    let side = 670.0 * (f64::from(n) / 50.0).sqrt();
    ScenarioConfig {
        n_nodes: n,
        field_w_m: side,
        field_h_m: side,
        mobility: MobilityKind::Stationary,
        warmup_s: 5.0,
        ..ScenarioConfig::paper_table1()
    }
}

#[test]
fn converged_cells_allocate_nothing_per_steady_state_event() {
    let mut cells = Vec::new();
    for algorithm in [
        AlgorithmKind::LowestId,
        AlgorithmKind::Lcc,
        AlgorithmKind::HighestDegree,
        AlgorithmKind::Mobic,
        AlgorithmKind::Wca,
    ] {
        for fast_path in [FastPath::Auto, FastPath::Off] {
            let cfg = ScenarioConfig {
                algorithm,
                fast_path,
                ..base(40)
            };
            cells.push((format!("{algorithm:?}/{fast_path:?}"), cfg, 0));
        }
    }
    // A 100 m square under a 250 m radio is a full mesh: every table
    // is full from the first round, and a 20 s timeout outlasts any
    // run of faded or lost Hellos, so no entry expires.
    let mesh = ScenarioConfig {
        field_w_m: 100.0,
        field_h_m: 100.0,
        algorithm: AlgorithmKind::Lcc,
        tp_s: 20.0,
        ..base(40)
    };
    let patient = ScenarioConfig {
        tp_s: 20.0,
        ..base(40)
    };
    let two_ray = PropagationKind::TwoRayGround;
    let log_distance = PropagationKind::LogDistance { exponent: 3.0 };
    let shadowed = PropagationKind::ShadowedFreeSpace { sigma_db: 4.0 };
    let nakagami = PropagationKind::NakagamiFreeSpace { m: 1.0 };
    let named = [
        (
            "two-ray ground",
            ScenarioConfig {
                propagation: two_ray,
                ..base(40)
            },
        ),
        (
            "log-distance 3",
            ScenarioConfig {
                propagation: log_distance,
                ..base(40)
            },
        ),
        (
            "shadowed 4 dB",
            ScenarioConfig {
                propagation: shadowed,
                ..mesh
            },
        ),
        (
            "Nakagami m=1",
            ScenarioConfig {
                propagation: nakagami,
                ..mesh
            },
        ),
        (
            "Bernoulli 0.1",
            ScenarioConfig {
                loss: LossKind::Bernoulli { p: 0.1 },
                ..patient
            },
        ),
        (
            "bursty",
            ScenarioConfig {
                loss: LossKind::BurstyPreset,
                ..patient
            },
        ),
        (
            "MAC 2 ms + adaptive BI + MaxSq + EWMA + quantum",
            ScenarioConfig {
                packet_time_s: 0.002,
                adaptive_bi_min_s: 0.5,
                metric_aggregation: MetricAggregation::MaxSq,
                history_alpha: Some(0.5),
                metric_quantum: 0.5,
                ..base(40)
            },
        ),
        // Every fault fires before the window opens; the spells
        // outlast the run.
        (
            "faults",
            ScenarioConfig {
                faults: FaultPlan {
                    crashes: 2,
                    recoveries: 1,
                    recovery_after_s: 3.0,
                    late_joins: 2,
                    deaf_spells: 2,
                    mute_spells: 2,
                    spell_s: 1000.0,
                    from_s: 6.0,
                    until_s: 12.0,
                    ..FaultPlan::default()
                },
                ..base(40)
            },
        ),
    ];
    cells.extend(named.map(|(name, cfg)| (name.to_string(), cfg, 0)));
    assert_window_allocations(
        cells,
        "a converged network must allocate nothing per steady-state event:",
    );
}

#[test]
fn churning_cells_allocate_exactly_their_pinned_counts() {
    // `lossy_n300` scaled down: shadowed links flicker at the edge of
    // a 150 m range and a 3 s timeout expires them.
    let lossy = ScenarioConfig {
        field_w_m: 1340.0,
        field_h_m: 1340.0,
        tx_range_m: 150.0,
        propagation: PropagationKind::ShadowedFreeSpace { sigma_db: 4.0 },
        loss: LossKind::BurstyPreset,
        packet_time_s: 0.002,
        adaptive_bi_min_s: 0.5,
        ..base(100)
    };
    // Random waypoint keeps bringing genuinely new neighbors.
    let mobile = ScenarioConfig {
        mobility: MobilityKind::RandomWaypoint,
        ..base(40)
    };
    assert_window_allocations(
        vec![
            ("lossy".to_string(), lossy, 333),
            ("mobile".to_string(), mobile, 87),
        ],
        "a churning cell's window allocation count moved off its pin. A change \
         that moves a pin updates it in this file and says so in CHANGES.md:",
    );
}
