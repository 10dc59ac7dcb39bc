//! Structured run observability for the MOBIC simulation substrate.
//!
//! Three concerns live here, all shared by the scenario runner, the
//! CLI, and the experiment binaries:
//!
//! * **Event tracing** — [`TraceEvent`] is the typed vocabulary of
//!   things that happen inside a run (hello tx/rx, losses, MAC
//!   collisions, head elections and resignations, cluster merges,
//!   index refreshes). The simulation loop emits them into a
//!   [`TraceSink`]; [`JsonlSink`] persists one JSON object per line,
//!   [`NullSink`] discards them at zero cost (the loop checks
//!   [`TraceSink::enabled`] once and skips event construction
//!   entirely when it is `false`).
//! * **Phase profiling** — [`PhaseTimings`] carries wall-clock
//!   durations of a run's setup / event-loop / aggregation phases,
//!   measured with [`PhaseClock`]. Timings ride along in
//!   `RunResult.perf` but are *excluded from serialization* so that
//!   identical `(config, seed)` runs keep byte-identical JSON.
//! * **Run manifests** — [`RunManifest`] records everything needed to
//!   independently re-derive a result artifact: the full config echo
//!   plus its [`config_hash`], the seed, the crate version, the
//!   fast-path decision, and the headline counters. Experiment
//!   binaries write one manifest array next to every `results/*.json`
//!   file via [`write_manifests`].
//! * **Atomic artifacts** — every results file in the workspace is
//!   published through [`write_atomic`] (temp file in the destination
//!   directory + rename), so a killed process never leaves a
//!   truncated artifact behind and interrupted sweeps can resume by
//!   trusting whatever cell files exist.
//!
//! # Determinism contract
//!
//! Nothing in a trace or a manifest depends on wall-clock time, thread
//! scheduling, or the machine: two runs of the same `(config, seed)`
//! produce **byte-identical** JSONL traces and manifests. Wall-clock
//! quantities exist only in [`PhaseTimings`], which is never
//! serialized. The `trace_determinism` integration suite asserts both
//! properties.
//!
//! # Examples
//!
//! Capture a trace in memory and read it back line by line:
//!
//! ```
//! use mobic_sim::SimTime;
//! use mobic_trace::{JsonlSink, TraceEvent, TraceSink};
//!
//! let mut sink = JsonlSink::new(Vec::new());
//! sink.record(SimTime::from_secs(1), &TraceEvent::HelloTx { node: 3, seq: 0 });
//! sink.record(
//!     SimTime::from_secs(1),
//!     &TraceEvent::HelloRx { tx: 3, rx: 7, rx_power_dbm: -82.5 },
//! );
//! let bytes = sink.finish().expect("in-memory writes cannot fail");
//! let text = String::from_utf8(bytes).unwrap();
//! assert_eq!(text.lines().count(), 2);
//! assert!(text.lines().next().unwrap().contains("\"kind\":\"hello_tx\""));
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

mod artifact;
mod event;
mod manifest;
mod profile;
mod sink;

pub use artifact::{write_atomic, write_atomic_in_existing_dir};
pub use event::{TraceEvent, ViolationKind};
pub use manifest::{
    config_hash, fnv1a64, manifest_path_for, write_manifests, ManifestCounters, RunManifest,
    MANIFEST_SCHEMA,
};
pub use profile::{PhaseClock, PhaseTimings, Stopwatch};
pub use sink::{JsonlSink, NullSink, TraceCursor, TraceSink};
