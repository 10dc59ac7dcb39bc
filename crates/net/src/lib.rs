//! MANET network layer: hello protocol primitives, neighbor tables
//! with received-power tracking, packet-loss models, and the broadcast
//! delivery engine.
//!
//! This crate models exactly the slice of ns-2 the paper relies on:
//!
//! * every node periodically broadcasts a **"Hello" / "I'm Alive"**
//!   message carrying its aggregate mobility metric (8 bytes of extra
//!   payload — see [`Hello`]);
//! * a receiving node measures the **received power** (`RxPr`) of each
//!   successfully received hello and stores the last two measurements
//!   per neighbor in its [`NeighborTable`] — the raw material of the
//!   MOBIC metric. A table is two vectors sorted by neighbor id, so a
//!   reception is one binary search; snapshots store it through its
//!   serde form, [`NeighborTableWire`];
//! * entries expire after the **Timeout Period** (`TP`, 3 s in
//!   Table 1) without a fresh hello;
//! * optional [`loss`] models (Bernoulli, Gilbert–Elliott burst loss)
//!   let robustness experiments inject MAC-level packet loss. The
//!   paper itself considers only MAC-successful receptions, which is
//!   the default ([`loss::NoLoss`]).
//!
//! The delivery engine evaluates every hello the same way: one pass
//! over a caller-supplied candidate list (every other node, or the
//! runner's spatial-index query), writing deliveries and loss drops
//! into caller-owned scratch buffers ([`Scratch`]) so the steady-state
//! hot path allocates nothing.
//!
//! The crate is deliberately independent of the clustering layer: the
//! hello payload is a type parameter, so `mobic-core` defines its own
//! advert structure without a dependency cycle.

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]
#![warn(missing_docs)]

mod delivery;
mod ident;
pub mod loss;
mod neighbor;
mod packet;
mod scratch;

pub use delivery::{Delivery, DeliveryEngine};
pub use ident::NodeId;
pub use neighbor::{NeighborEntry, NeighborTable, NeighborTableWire, PowerSample};
pub use packet::Hello;
pub use scratch::Scratch;
