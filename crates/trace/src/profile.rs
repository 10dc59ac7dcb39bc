//! Scoped wall-clock phase profiling.
//!
//! This module is the workspace's **only** blessed home for wall-clock
//! reads (the root `clippy.toml` bans `Instant` and `SystemTime`
//! everywhere else outside the operator tooling crates).
//! Everything measured here flows exclusively into `#[serde(skip)]`
//! fields — wall-clock numbers describe how fast a run executed, never
//! what it computed, so they must not reach serialized `RunResult`
//! artifacts.
#![expect(
    clippy::disallowed_types,
    reason = "the one blessed wall-clock module; its timings are `#[serde(skip)]`-isolated from results"
)]

use std::fmt;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

/// Wall-clock durations of one run's phases, in milliseconds.
///
/// Carried inside `RunResult.perf` but always `#[serde(skip)]`-ed
/// there: wall-clock numbers describe *how fast* a run executed,
/// never *what* it computed, and identical `(config, seed)` runs must
/// keep byte-identical JSON artifacts.
///
/// The phases partition `run_scenario`:
///
/// * **setup** — config validation, mobility/radio/loss construction,
///   initial event scheduling, index build;
/// * **event loop** — the discrete-event loop itself (plus the final
///   pending-reception flush);
/// * **aggregate** — folding logs and series into the final metrics.
///
/// Reporting (printing tables, writing files) happens in the caller
/// and is timed there when requested (`mobic-cli --profile`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseTimings {
    /// Scenario construction before the first event.
    pub setup_ms: f64,
    /// The discrete-event loop.
    pub event_loop_ms: f64,
    /// Metric aggregation after the last event.
    pub aggregate_ms: f64,
    /// Retired: older builds counted the elections they skipped here.
    /// Every live node's hello now runs its election, so this is
    /// always 0; it stays because the benchmark still reports it.
    #[serde(default)]
    pub elections_skipped: u64,
    /// How many position queries the mobility segment table could not
    /// answer from a cached segment, i.e. calls into the mobility
    /// models. Like the durations, it covers this process only: a
    /// resumed run counts from the resume.
    #[serde(default)]
    pub motion_fetches: u64,
}

impl PhaseTimings {
    /// Sum of all phases.
    #[must_use]
    pub fn total_ms(&self) -> f64 {
        self.setup_ms + self.event_loop_ms + self.aggregate_ms
    }

    /// Accumulates another run's timings (for sweep-level summaries).
    pub fn accumulate(&mut self, other: &PhaseTimings) {
        self.setup_ms += other.setup_ms;
        self.event_loop_ms += other.event_loop_ms;
        self.aggregate_ms += other.aggregate_ms;
        self.motion_fetches += other.motion_fetches;
    }
}

impl fmt::Display for PhaseTimings {
    /// Renders an aligned, human-readable phase table.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "phase wall-clock timings:")?;
        writeln!(f, "  setup       {:>10.2} ms", self.setup_ms)?;
        writeln!(f, "  event loop  {:>10.2} ms", self.event_loop_ms)?;
        writeln!(f, "  aggregation {:>10.2} ms", self.aggregate_ms)?;
        writeln!(f, "  total       {:>10.2} ms", self.total_ms())?;
        write!(f, "  motion fetches    {:>10}", self.motion_fetches)
    }
}

/// A restartable stopwatch for timing consecutive phases.
///
/// # Examples
///
/// ```
/// use mobic_trace::{PhaseClock, PhaseTimings};
///
/// let mut clock = PhaseClock::start();
/// let mut phases = PhaseTimings::default();
/// // ... set the scenario up ...
/// phases.setup_ms = clock.lap_ms();
/// // ... run the event loop ...
/// phases.event_loop_ms = clock.lap_ms();
/// assert!(phases.total_ms() >= 0.0);
/// ```
#[derive(Debug)]
pub struct PhaseClock {
    t0: Instant,
}

impl PhaseClock {
    /// Starts timing the first phase now.
    #[must_use]
    pub fn start() -> Self {
        PhaseClock { t0: Instant::now() }
    }

    /// Ends the current phase, returning its duration in
    /// milliseconds, and starts timing the next one.
    pub fn lap_ms(&mut self) -> f64 {
        let now = Instant::now();
        let ms = now.duration_since(self.t0).as_secs_f64() * 1e3;
        self.t0 = now;
        ms
    }
}

/// A one-shot elapsed-time reader for deadlines and coarse run
/// timing.
///
/// Where [`PhaseClock`] times consecutive phases, `Stopwatch` answers
/// "how long since I started?" — the shape supervision deadlines
/// (`run_batch_supervised`, the one executor behind every batch and
/// sweep cell) and the runner's total wall-clock counter need. Keeping both here means no other crate has to name `Instant`
/// directly.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use mobic_trace::Stopwatch;
///
/// let sw = Stopwatch::start();
/// assert!(sw.elapsed() >= Duration::ZERO);
/// assert!(sw.elapsed_ms() >= 0.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    t0: Instant,
}

impl Stopwatch {
    /// Starts the stopwatch now.
    #[must_use]
    pub fn start() -> Self {
        Stopwatch { t0: Instant::now() }
    }

    /// Time elapsed since [`Stopwatch::start`].
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.t0.elapsed()
    }

    /// Elapsed time in milliseconds.
    #[must_use]
    pub fn elapsed_ms(&self) -> f64 {
        self.elapsed().as_secs_f64() * 1e3
    }

    /// How much of a budget of `total` remains, saturating at zero.
    /// The supervision loop uses this to turn an absolute deadline
    /// into successive `recv_timeout` windows.
    #[must_use]
    pub fn remaining_of(&self, total: Duration) -> Duration {
        total.saturating_sub(self.elapsed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_elapsed_grows_and_budget_saturates() {
        let sw = Stopwatch::start();
        let a = sw.elapsed();
        let b = sw.elapsed();
        assert!(b >= a);
        assert_eq!(sw.remaining_of(Duration::ZERO), Duration::ZERO);
        assert!(sw.remaining_of(Duration::from_secs(3600)) > Duration::ZERO);
    }

    #[test]
    fn laps_are_non_negative_and_restart() {
        let mut c = PhaseClock::start();
        let a = c.lap_ms();
        let b = c.lap_ms();
        assert!(a >= 0.0);
        assert!(b >= 0.0);
    }

    #[test]
    fn totals_and_accumulation() {
        let mut t = PhaseTimings {
            setup_ms: 1.0,
            event_loop_ms: 2.0,
            aggregate_ms: 3.0,
            elections_skipped: 0,
            motion_fetches: 100,
        };
        assert!((t.total_ms() - 6.0).abs() < 1e-12);
        t.accumulate(&PhaseTimings {
            setup_ms: 0.5,
            event_loop_ms: 0.5,
            aggregate_ms: 0.5,
            elections_skipped: 0,
            motion_fetches: 20,
        });
        assert!((t.total_ms() - 7.5).abs() < 1e-12);
        assert_eq!(t.motion_fetches, 120);
    }

    #[test]
    fn display_lists_every_phase() {
        let text = PhaseTimings::default().to_string();
        for needle in [
            "setup",
            "event loop",
            "aggregation",
            "total",
            "motion fetches",
        ] {
            assert!(text.contains(needle), "missing {needle}: {text}");
        }
        assert!(!text.contains("elections skipped"), "{text}");
    }

    #[test]
    fn timings_are_serializable_on_their_own() {
        // `RunResult.perf` skips them, but sweep summaries may still
        // want to persist aggregates explicitly.
        let t = PhaseTimings {
            setup_ms: 1.0,
            event_loop_ms: 2.0,
            aggregate_ms: 3.0,
            elections_skipped: 4,
            motion_fetches: 5,
        };
        let json = serde_json::to_string(&t).unwrap();
        let back: PhaseTimings = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
        // Pre-counter payloads still deserialize (the counter defaults).
        let old: PhaseTimings =
            serde_json::from_str(r#"{"setup_ms":1.0,"event_loop_ms":2.0,"aggregate_ms":3.0}"#)
                .unwrap();
        assert_eq!(old.elections_skipped, 0);
        assert_eq!(old.motion_fetches, 0);
    }
}
