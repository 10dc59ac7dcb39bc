//! Deterministic discrete-event simulation engine for the MOBIC
//! reproduction.
//!
//! This crate plays the role that the ns-2 scheduler played for the
//! original paper: it provides
//!
//! * [`SimTime`] — an exact, integer-microsecond simulation clock;
//! * [`EventQueue`] — a binary-heap priority queue of timestamped
//!   events with deterministic FIFO tie-breaking, which a snapshot can
//!   drain and restore with its pop order intact;
//! * [`Simulation`] — a run loop driving a user-supplied handler;
//! * [`rng`] — seeded, labeled random-number streams so every component
//!   (placement, mobility, loss, …) draws from an independent stream
//!   derived from one master seed, making whole runs reproducible.
//!
//! # Determinism contract
//!
//! Given the same event insertions and the same seeds, a simulation is
//! bit-for-bit reproducible: the queue breaks ties by insertion order,
//! the clock is integer arithmetic, and the RNG streams are a fixed
//! algorithm ([`rand_chacha::ChaCha12Rng`]) independent of `rand`'s
//! unstable `StdRng` choice.
//!
//! # Examples
//!
//! ```
//! use mobic_sim::{Simulation, SimTime};
//!
//! #[derive(Debug)]
//! enum Ev { Tick(u32) }
//!
//! let mut sim = Simulation::new();
//! sim.schedule_at(SimTime::from_secs(1), Ev::Tick(1));
//! sim.schedule_at(SimTime::from_secs(2), Ev::Tick(2));
//! let mut seen = Vec::new();
//! sim.run_until(SimTime::from_secs(10), |now, ev, _sched| {
//!     let Ev::Tick(n) = ev;
//!     seen.push((now.as_secs_f64(), n));
//! });
//! assert_eq!(seen, vec![(1.0, 1), (2.0, 2)]);
//! ```

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]
#![warn(missing_docs)]

mod queue;
pub mod rng;
mod runner;
mod time;

pub use queue::EventQueue;
pub use runner::{Scheduler, Simulation};
pub use time::SimTime;
