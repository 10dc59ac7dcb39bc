//! Radio propagation models and link-budget utilities.
//!
//! The MOBIC mobility metric is computed from **received signal power**
//! — `M_rel = 10·log10(RxPr_new / RxPr_old)` — so the propagation model
//! is the physical substrate of the whole paper. This crate provides
//! the models ns-2's wireless extension shipped in 2001 plus the
//! standard stochastic extensions:
//!
//! * [`FreeSpace`] — Friis free-space propagation (`Pr ∝ 1/d²`), the
//!   model the paper's metric derivation assumes (§3.1);
//! * [`TwoRayGround`] — ns-2's default outdoor model: Friis below the
//!   crossover distance, `Pr ∝ 1/d⁴` beyond it;
//! * [`LogDistance`] — generic path-loss-exponent model;
//! * [`Shadowed`] — log-normal shadowing wrapper adding zero-mean
//!   Gaussian dB noise, for robustness experiments (the paper's §3.1
//!   notes fading/shadowing are *not* modeled; we keep that the
//!   default but make the extension available);
//! * [`Nakagami`] — Nakagami-m fast fading (m = 1 is Rayleigh), the
//!   other stochastic channel ns-2 shipped;
//! * [`Radio`] — a transmitter/receiver pair description (power,
//!   antenna gains, thresholds) with link-budget helpers that convert
//!   between transmit power and communication range.
//!
//! # Units
//!
//! Strongly typed: [`Dbm`] for absolute powers, [`Db`] for ratios and
//! losses. Conversions to/from milliwatts are explicit.
//!
//! # Examples
//!
//! ```
//! use mobic_radio::{Dbm, FreeSpace, Propagation, Radio};
//!
//! // A 914 MHz WaveLAN-like radio configured for a 250 m range.
//! let radio = Radio::with_range(FreeSpace::at_frequency(914.0e6), 250.0);
//! assert!(radio.receive(200.0).is_some());
//! assert!(radio.receive(251.0).is_none());
//! // Received power falls with distance.
//! let p100 = radio.receive(100.0).unwrap();
//! let p200 = radio.receive(200.0).unwrap();
//! assert!(p100 > p200);
//! // Inverse-square: doubling distance costs ~6.02 dB.
//! assert!(((p100 - p200).db() - 6.02).abs() < 0.01);
//! ```

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]
#![warn(missing_docs)]

mod cutoff;
mod link;
mod models;
mod units;

pub use link::{LinkBudget, Radio};
pub use models::{
    FreeSpace, LogDistance, Nakagami, Propagation, PropagationState, Shadowed, TwoRayGround,
};
pub use units::{Db, Dbm, Milliwatts};

/// Speed of light in vacuum (m/s), used by Friis' formula.
pub const SPEED_OF_LIGHT: f64 = 299_792_458.0;
