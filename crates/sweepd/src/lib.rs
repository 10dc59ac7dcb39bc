//! `mobic-sweepd`: a long-running sweep orchestration service for the
//! MOBIC simulator — ROADMAP item 2's "the simulator becomes a
//! service".
//!
//! The service accepts declarative sweep specs
//! ([`SweepSpec`](mobic_scenario::SweepSpec)) over a hand-rolled
//! HTTP/1.1 API, expands them into content-addressed cells, and never
//! computes the same `(config, seeds)` cell twice: results live in a
//! [`CellCache`] keyed by
//! [`cell_key`](mobic_scenario::cell_key) and are served byte-for-byte
//! identical to what `mobic-cli sweep` would write locally. Cells that
//! do need computing flow through a bounded worker pool into one
//! [`run_cell`](mobic_scenario::run_cell) call each, the same call
//! `mobic-cli sweep` makes, checkpointed when the service has a
//! snapshot cadence. Its seeds run on `run_batch_supervised`, so
//! panicking or stuck runs become typed verdicts under the deadline,
//! are retried up to a budget, and are finally parked as failed with
//! the verdict attached — one poisoned cell never takes the service
//! down. A spec whose grid expands past 2^17 runs is refused with a
//! `400` before anything is expanded.
//!
//! Zero external dependencies: like `mobic-lint`, this crate builds
//! with the standard library plus workspace crates only, so it works
//! where the cargo registry is unreachable. JSON *parsing* of specs
//! and outcomes is delegated to `mobic-scenario` (which owns the
//! schema); the service's own responses are assembled by hand.
//!
//! See `docs/OPERATIONS.md` for the operator's guide (endpoints,
//! cache layout, crash recovery) and `tests/sweepd_service.rs` for an
//! in-process end-to-end exercise.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod http;
pub mod server;

pub use cache::CellCache;
pub use server::{Server, ServerConfig};
