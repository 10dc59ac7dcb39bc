//! Cluster-stability metrics, statistics and reporting.
//!
//! The paper's evaluation rests on two quantities, both provided here:
//!
//! * **`CS` — the cluster stability metric**: "the number of
//!   clusterhead changes in a given time period" (§4.1), computed by
//!   [`TransitionLog`] from the stream of role transitions the
//!   clustering engine emits (Figures 3, 5, 6);
//! * **the number of clusters** over time, sampled into a
//!   [`TimeSeries`] (Figure 4).
//!
//! Plus the supporting cast every experiment harness needs:
//! [`OnlineStats`]/[`SummaryStats`] for aggregating across seeds, an
//! [`AsciiTable`] renderer for paper-style rows on stdout, and CSV
//! export helpers in [`report`].

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]
#![warn(missing_docs)]

mod changes;
mod histogram;
pub mod report;
mod series;
mod stats;

pub use changes::TransitionLog;
pub use histogram::Histogram;
pub use report::AsciiTable;
pub use series::TimeSeries;
pub use stats::{gini, t_critical_95, welch_t, OnlineStats, SummaryStats};
