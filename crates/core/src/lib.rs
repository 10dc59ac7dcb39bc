//! The paper's primary contribution: the **aggregate local mobility
//! metric** and **MOBIC**, a lowest-relative-mobility distributed
//! clustering algorithm — together with the Lowest-ID/LCC and
//! Highest-Degree baselines it is evaluated against.
//!
//! # The metric (§3.1)
//!
//! At node `Y`, for each neighbor `X` that delivered two *successive*
//! hello broadcasts, the pairwise relative mobility is the dB ratio of
//! the received powers:
//!
//! ```text
//! M_rel^Y(X) = 10·log10( RxPr_new / RxPr_old )
//! ```
//!
//! (negative ⇒ drifting apart, positive ⇒ approaching; see
//! [`metric::relative_mobility`]). The **aggregate local mobility** is
//! the variance about zero — the mean square — of those values over
//! all qualifying neighbors ([`metric::aggregate_mobility`]):
//!
//! ```text
//! M_Y = var₀(M_rel^Y(X₁) … M_rel^Y(X_m)) = E[(M_rel^Y)²]
//! ```
//!
//! # The algorithm (§3.2)
//!
//! MOBIC is Lowest-ID clustering with the totally ordered weight
//! `(M, id)` instead of `id`, plus two stabilization rules:
//!
//! 1. the **LCC rule** — a member entering a foreign cluster's range
//!    does not trigger reclustering;
//! 2. the **CCI rule** — two clusterheads drifting into range defer
//!    reclustering for a Cluster Contention Interval, tolerating
//!    incidental contact.
//!
//! All four algorithms in the paper's evaluation are instantiations of
//! one distributed weight-based engine ([`ClusterNode`]) selected by
//! [`AlgorithmKind`]:
//!
//! | Kind | Weight | Maintenance |
//! |------|--------|-------------|
//! | [`AlgorithmKind::LowestId`] | `(0, id)` | plain re-election (Gerla–Tsai) |
//! | [`AlgorithmKind::Lcc`] | `(0, id)` | least clusterhead change |
//! | [`AlgorithmKind::HighestDegree`] | `(−degree, id)` | plain re-election |
//! | [`AlgorithmKind::Mobic`] | `(M, id)` | LCC + CCI deferral |
//! | [`AlgorithmKind::Wca`] | `(M + ½·\|deg−8\|, id)` | LCC + CCI deferral (extension) |
//!
//! # Examples
//!
//! Computing the metric exactly as a node would:
//!
//! ```
//! use mobic_core::metric::{aggregate_mobility, relative_mobility};
//! use mobic_radio::Dbm;
//!
//! // Neighbor A approaching (+3 dB), neighbor B receding (−5 dB).
//! let m_a = relative_mobility(Dbm::new(-63.0), Dbm::new(-60.0));
//! let m_b = relative_mobility(Dbm::new(-60.0), Dbm::new(-65.0));
//! assert_eq!(m_a, 3.0);
//! assert_eq!(m_b, -5.0);
//! // var₀ = (3² + 5²) / 2 = 17.
//! assert_eq!(aggregate_mobility([m_a, m_b]), 17.0);
//! ```

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]
#![warn(missing_docs)]

pub mod centralized;
pub mod invariants;
pub mod metric;
mod node;
mod node_table;
mod role;
mod weight;

pub use node::{AlgorithmKind, ClusterConfig, ClusterNode};
pub use node_table::NodeTable;
pub use role::{ClusterAdvert, Role, RoleTag, RoleTransition};
pub use weight::Weight;

/// Convenient alias: the neighbor table as seen by the clustering
/// layer, with cluster adverts as hello payloads.
pub type ClusterTable = mobic_net::NeighborTable<ClusterAdvert>;
