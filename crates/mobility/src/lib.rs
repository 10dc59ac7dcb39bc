//! Mobility models for MANET simulation.
//!
//! The paper's evaluation uses the CMU *random waypoint* generator
//! (`setdest`); this crate reimplements that model plus the group and
//! specialized models discussed in the paper's related-work and
//! future-work sections:
//!
//! * [`RandomWaypoint`] — the paper's primary model (§4.1, Table 1);
//! * [`RandomWalk`] — boundary-reflecting Brownian-style motion, cited
//!   as the basis of the path-availability framework \[16\];
//! * [`GaussMarkov`] — temporally correlated velocity, useful as a
//!   smooth-motion ablation;
//! * [`Rpgm`] — the Reference Point Group Mobility model of \[9\]
//!   (§2.2), where a logical group center drives member motion;
//! * [`Highway`] — lane-based convoy motion (§5: "cars traveling on a
//!   highway");
//! * [`Manhattan`] — urban street-grid motion with intersection turns;
//! * [`ConferenceHall`] — booth-hopping pedestrians with long pauses
//!   (§5: "attendees in a conference hall");
//! * [`Waypoints`] — an explicit scripted trace, and [`Stationary`] —
//!   no motion; both used heavily in tests.
//!
//! # Design
//!
//! Every model implements [`Mobility`], whose one required method is
//! `segment_at(t)`: models describe motion **analytically** as
//! piecewise-linear [`Trajectory`] legs extended lazily on demand, so
//! positions at Hello-broadcast instants are exact — there is no
//! per-tick numerical integration and therefore no integration error.
//! `segment_at(t)` returns the [`Segment`] — the leg, clamp included,
//! or a fixed position — that `position_at(t)` evaluates, valid from
//! `t` to its end. A [`Fleet`] keeps one segment per node and asks a
//! model again only when a query leaves that window; under random
//! waypoint motion a leg answers tens of Hellos.
//!
//! # Examples
//!
//! ```
//! use mobic_geom::Rect;
//! use mobic_mobility::{Mobility, RandomWaypoint, RandomWaypointParams};
//! use mobic_sim::{rng::SeedSplitter, SimTime};
//!
//! let params = RandomWaypointParams {
//!     field: Rect::square(670.0),
//!     min_speed_mps: 0.1,
//!     max_speed_mps: 20.0,
//!     pause: SimTime::ZERO,
//! };
//! let mut node = RandomWaypoint::new(params, SeedSplitter::new(1).stream("mobility", 0));
//! let p0 = node.position_at(SimTime::ZERO);
//! let p1 = node.position_at(SimTime::from_secs(10));
//! assert!(params.field.contains(p0));
//! assert!(params.field.contains(p1));
//! ```

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]
#![warn(missing_docs)]

pub mod analysis;
mod conference;
mod fleet;
mod gauss_markov;
mod highway;
mod manhattan;
mod random_walk;
mod random_waypoint;
mod rpgm;
mod scripted;
mod trajectory;

pub use conference::{ConferenceHall, ConferenceHallParams};
pub use fleet::Fleet;
pub use gauss_markov::{GaussMarkov, GaussMarkovParams};
pub use highway::{Highway, HighwayParams};
pub use manhattan::{Manhattan, ManhattanParams};
pub use random_walk::{RandomWalk, RandomWalkParams};
pub use random_waypoint::{RandomWaypoint, RandomWaypointParams};
pub use rpgm::{Rpgm, RpgmGroup, RpgmParams};
pub use scripted::{Stationary, Waypoints};
pub use trajectory::{Leg, Segment, Trajectory};

use mobic_geom::Vec2;
use mobic_sim::SimTime;

/// A node's motion over simulation time.
///
/// Implementations must be **consistent**: a position is a function of
/// `t` alone, so repeated queries at the same time return the same
/// position (models extend an internal trajectory lazily, they never
/// resample the past). Queries may be made at any non-decreasing *or*
/// decreasing time within the extended horizon.
pub trait Mobility {
    /// The segment that answers position queries at `t`: for a
    /// trajectory model the leg [`Trajectory::leg_at`] selects (the
    /// first leg with `end >= t`), clamped as the model clamps. The
    /// segment answers every query in `[t, segment.end()]` with the
    /// bits `position_at` would return there.
    fn segment_at(&mut self, t: SimTime) -> Segment;

    /// Position of the node at simulation time `t` (meters).
    fn position_at(&mut self, t: SimTime) -> Vec2 {
        self.segment_at(t).position_at(t)
    }

    /// Instantaneous velocity at time `t` (m/s). At a breakpoint
    /// between two legs, the velocity of the *incoming* leg is
    /// reported.
    fn velocity_at(&mut self, t: SimTime) -> Vec2 {
        self.segment_at(t).velocity()
    }
}

impl<M: Mobility + ?Sized> Mobility for Box<M> {
    fn segment_at(&mut self, t: SimTime) -> Segment {
        (**self).segment_at(t)
    }
}

/// Draws a speed uniformly from `(0, max]`-style ranges used by the
/// CMU scenario generator: uniform in `[min, max]`, with `min = 0`
/// mapped to an open interval so nodes never freeze forever.
pub(crate) fn sample_speed<R: rand::Rng>(rng: &mut R, min: f64, max: f64) -> f64 {
    debug_assert!(min >= 0.0 && max >= min);
    if max <= 0.0 {
        return 0.0;
    }
    if min > 0.0 {
        rng.gen_range(min..=max)
    } else {
        // (0, max]: 1 - U where U in [0, 1) gives (0, 1].
        (1.0 - rng.gen::<f64>()) * max
    }
}

/// Uniform random point inside `field`.
pub(crate) fn sample_point<R: rand::Rng>(rng: &mut R, field: mobic_geom::Rect) -> Vec2 {
    field.point_at(rng.gen::<f64>(), rng.gen::<f64>())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobic_sim::rng::SeedSplitter;

    #[test]
    fn sample_speed_ranges() {
        let mut rng = SeedSplitter::new(1).stream("t", 0);
        for _ in 0..1000 {
            let s = sample_speed(&mut rng, 0.0, 20.0);
            assert!(s > 0.0 && s <= 20.0, "{s}");
            let s = sample_speed(&mut rng, 5.0, 10.0);
            assert!((5.0..=10.0).contains(&s), "{s}");
        }
        assert_eq!(sample_speed(&mut rng, 0.0, 0.0), 0.0);
    }

    #[test]
    fn sample_point_in_field() {
        let mut rng = SeedSplitter::new(1).stream("t", 0);
        let field = mobic_geom::Rect::new(100.0, 50.0);
        for _ in 0..1000 {
            assert!(field.contains(sample_point(&mut rng, field)));
        }
    }

    #[test]
    fn boxed_mobility_delegates() {
        let mut boxed: Box<dyn Mobility> = Box::new(Stationary::new(Vec2::new(1.0, 2.0)));
        assert_eq!(
            boxed.position_at(SimTime::from_secs(5)),
            Vec2::new(1.0, 2.0)
        );
        assert_eq!(boxed.velocity_at(SimTime::from_secs(5)), Vec2::ZERO);
    }
}
