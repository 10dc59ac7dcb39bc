//! 2-D geometry primitives and spatial indexing for the MOBIC MANET
//! simulator.
//!
//! Everything in the simulator lives on a flat 2-D plane measured in
//! meters, matching the ns-2 scenarios of the paper (670 m × 670 m and
//! 1000 m × 1000 m fields). This crate provides:
//!
//! * [`Vec2`] — a plain 2-D vector/point with the usual arithmetic;
//! * [`Rect`] — an axis-aligned rectangle used as the simulation field;
//! * [`GridIndex`] — a uniform-grid spatial index answering "which nodes
//!   are within radius `r` of point `p`?" in close to `O(k)` time, used
//!   by the broadcast delivery engine;
//! * [`segment`] — closest-approach helpers for piecewise-linear motion.
//!
//! # Examples
//!
//! ```
//! use mobic_geom::{Vec2, Rect};
//!
//! let field = Rect::new(670.0, 670.0);
//! let a = Vec2::new(10.0, 20.0);
//! let b = Vec2::new(13.0, 24.0);
//! assert_eq!(a.distance(b), 5.0);
//! assert!(field.contains(a));
//! ```

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]
#![warn(missing_docs)]

mod grid;
mod rect;
pub mod segment;
mod vec2;

pub use grid::GridIndex;
pub use rect::Rect;
pub use vec2::Vec2;

/// Numerical tolerance used by the geometric predicates in this crate.
///
/// Distances in the simulator are on the order of 1–1000 m, so a
/// tolerance of 1e-9 m (one nanometer) is far below any physically
/// meaningful scale while staying well above `f64` rounding noise.
pub const EPSILON: f64 = 1e-9;

/// Returns `true` if `a` and `b` are within [`EPSILON`] of each other.
///
/// # Examples
///
/// ```
/// assert!(mobic_geom::approx_eq(0.1 + 0.2, 0.3));
/// assert!(!mobic_geom::approx_eq(1.0, 1.1));
/// ```
#[must_use]
pub fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= EPSILON
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_tolerance() {
        assert!(approx_eq(1.0, 1.0 + 1e-12));
        assert!(approx_eq(1.0, 1.0 - 1e-12));
        assert!(!approx_eq(1.0, 1.0 + 1e-6));
    }
}
