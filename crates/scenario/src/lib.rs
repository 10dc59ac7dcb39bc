//! Scenario configuration, generation, and the end-to-end simulation
//! runner.
//!
//! This crate is the counterpart of the paper's §4.1 "Simulation
//! Environment and Parameters": it owns the [`ScenarioConfig`]
//! (Table 1), builds the full stack — mobility models, radio, delivery
//! engine, neighbor tables, clustering nodes — and drives the
//! discrete-event loop for the configured simulation time, producing a
//! [`RunResult`] with every metric the figures need.
//!
//! Every run is a pure function of `(config, seed)`, evaluated by one
//! sequential drive loop behind four entry points: [`run_scenario`]
//! runs it; [`run_scenario_instrumented`] adds a sampling-time
//! observer and a trace sink; [`run_scenario_until`] suspends it after
//! a given number of events into a [`SimSnapshot`]; and
//! [`run_scenario_checkpointed`] resumes a snapshot and/or writes
//! periodic ones. The config's one live *execution* knob,
//! `fast_path` (spatial-index delivery), changes how that function is
//! evaluated, never its value: an equivalence test asserts
//! byte-identical results and traces. The retired `recluster`,
//! `scheduler` and `delivery` knobs still parse and are ignored.
//! Above single runs,
//! the sweep layer provides one parallel batch executor
//! ([`run_batch_supervised`], with [`run_batch`] as its fail-fast
//! form) that turns panicking or stuck jobs into typed [`JobError`]s
//! and can checkpoint every job, the [`SweepSpec`]/[`SweepCell`] grid
//! expansion with content-addressed cell keys ([`cell_key`]), and
//! [`run_cell`], the one way a cell is computed, checkpointed or not,
//! by `mobic-cli sweep` and the `mobic-sweepd` service alike.
//!
//! # Examples
//!
//! Reproduce one data point of Figure 3 (in miniature):
//!
//! ```
//! use mobic_core::AlgorithmKind;
//! use mobic_scenario::{run_scenario, ScenarioConfig};
//!
//! let mut cfg = ScenarioConfig::paper_table1();
//! cfg.n_nodes = 15;          // keep the doctest fast
//! cfg.sim_time_s = 60.0;
//! cfg.tx_range_m = 200.0;
//! cfg.algorithm = AlgorithmKind::Mobic;
//! let result = run_scenario(&cfg, 1).expect("valid config");
//! assert!(result.hello_broadcasts > 0);
//! assert!(result.avg_clusters >= 1.0);
//! ```

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]
#![warn(missing_docs)]

mod config;
pub mod params;
mod runner;
mod snapshot;
mod sweep;

pub use config::{
    AuditMode, CheckpointPolicy, ConfigError, DeliveryPath, FastPath, FaultPlan, FaultTarget,
    LossKind, MobilityKind, PropagationKind, Recluster, ScenarioConfig, Scheduler,
    MEMORY_BUDGET_BYTES,
};
pub use runner::{
    config_hash_for, manifest_for, run_scenario, run_scenario_checkpointed,
    run_scenario_instrumented, run_scenario_until, AuditSummary, FaultCounters, HealingStats,
    RunError, RunOutcome, RunPerf, RunResult, SampleView,
};
pub use snapshot::{
    latest_snapshot, load_snapshot, save_snapshot, semantic_config_hash, write_rotated,
    SimSnapshot, SnapshotError, SNAPSHOT_SCHEMA,
};
pub use sweep::{
    cell_key, run_batch, run_batch_supervised, run_cell, summarize_cs, BatchStats, JobError,
    SpecError, Supervision, SweepCell, SweepOutcome, SweepSpec,
};
