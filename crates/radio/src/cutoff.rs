//! A reject bound for shadowed links that cannot close (DESIGN.md §6,
//! "Shadowed links that cannot close").
//!
//! [`Shadowed`](crate::Shadowed) adds `σ·g` to a deterministic mean
//! loss `P(d)`, where `g = √(−2 ln u₁)·cos(2πu₂)` comes from two
//! uniforms. A packet is lost when `P(d) + σg` exceeds the budget's
//! maximum path loss `C`. Two facts prove that from `d²`, `u₁` and
//! `u₂` alone, before any transcendental call:
//!
//! * **radius:** `g ≥ −√(−2 ln u₁)`, so if `P(d) ≥ C + σℓ` with
//!   `ℓ > 0` and `u₁ > e^(−ℓ²/2)`, then `σg > −σℓ` and the loss
//!   exceeds `C`;
//! * **cos sign:** for `u₂ < ¼` or `u₂ > ¾` the cosine is positive, so
//!   `g ≥ 0` and the loss is at least `P(d)`, which exceeds `C` once
//!   `P(d) > C`.
//!
//! `P` is non-decreasing in distance (the [`Propagation`] contract),
//! so `ℓ` measured at a bucket's lower edge holds for every `d²` in the
//! bucket. Every bound is tightened by [`MARGIN`], far above the
//! rounding of the reference expression, so a refused draw is one the
//! reference path also refuses.

use crate::{Db, Propagation};

/// `d²`'s bit pattern shifted right by this many bits is its bucket:
/// the exponent and the top three mantissa bits, so 8 buckets per
/// octave of `d²`, ordered as the (non-negative) values are. Within a
/// bucket `d` spans a factor 2^(1/16), 0.38 dB of free-space loss.
const BUCKET_SHIFT: u32 = 49;

/// Relative margin by which every bound is tightened. The reference
/// path rounds a few ulps of values near 100 dB, about 1e-13 dB; this
/// is 1e-7 dB there.
const MARGIN: f64 = 1e-9;

/// `cos(2πu₂) > 0`, with margin, for `u₂` below this …
const COS_POSITIVE_BELOW: f64 = 0.25 - MARGIN;

/// … or above this (`u₂ < 1`, so `2πu₂` stays below `2π`).
const COS_POSITIVE_ABOVE: f64 = 0.75 + MARGIN;

/// The table ends at the first bucket whose `u₁` floor falls below
/// this. Every farther `d²` reuses that floor, which is conservative
/// (floors only fall with distance) and refuses all but about one draw
/// in 64 anyway. Over free space at σ = 4 dB the table spans 4 octaves
/// of `d²` past the nominal range in 32 entries.
const LAST_FLOOR: f64 = 1.0 / 64.0;

/// Most buckets a table holds: 32 octaves of `d²`.
const MAX_BUCKETS: u64 = 256;

/// The per-bucket bounds for one shadowed model and one maximum path
/// loss, built once with the [`Radio`](crate::Radio) that asks.
#[derive(Debug, Clone)]
pub(crate) struct ShadowCutoff {
    /// The maximum path loss `C` the table was built for.
    max_loss: Db,
    /// The table's first bucket: the first whose lower edge has a mean
    /// loss above `C` by the margin.
    first: u64,
    /// That bucket's lower edge. A smaller `d²` takes the exact path.
    start_sq: f64,
    /// For bucket `first + k`: the radius test refuses a draw whose
    /// `u₁` exceeds `u1_floor[k]`.
    u1_floor: Vec<f64>,
    /// The last floor, reused past the table's end.
    tail: f64,
}

impl ShadowCutoff {
    /// The table for `P(d) + σg` against `max_loss`, where `inner` is
    /// deterministic; `None` when no distance's mean loss clears
    /// `max_loss`, so no draw can ever be refused.
    pub(crate) fn build<P: Propagation + ?Sized>(
        inner: &P,
        sigma_db: f64,
        max_loss: Db,
    ) -> Option<Self> {
        let headroom =
            |bucket: u64| headroom_at(inner, max_loss, f64::from_bits(bucket << BUCKET_SHIFT));
        // The buckets whose edge clears `C` form a suffix of the finite
        // ones: bisect for its first.
        let last = f64::MAX.to_bits() >> BUCKET_SHIFT;
        let (mut lo, mut hi) = (0, last);
        headroom(hi)?;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if headroom(mid).is_some() {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        let mut u1_floor = Vec::new();
        for bucket in lo..=last.min(lo + MAX_BUCKETS - 1) {
            let Some(h) = headroom(bucket) else { break };
            // e^(−ℓ²/2) for σℓ = h, each tightened by the margin. σ = 0
            // makes ℓ infinite and the floor 0: every draw is refused.
            let ell = h / sigma_db * (1.0 - MARGIN);
            let floor = (-0.5 * ell * ell).exp() * (1.0 + MARGIN);
            u1_floor.push(floor);
            if floor < LAST_FLOOR {
                break;
            }
        }
        let tail = *u1_floor.last()?;
        Some(ShadowCutoff {
            max_loss,
            first: lo,
            start_sq: f64::from_bits(lo << BUCKET_SHIFT),
            u1_floor,
            tail,
        })
    }

    /// The maximum path loss the table was built for.
    pub(crate) fn max_loss(&self) -> Db {
        self.max_loss
    }

    /// `true` only if the draw `(u₁, u₂)` at squared distance
    /// `distance_sq` certainly loses more than the maximum path loss.
    #[inline]
    pub(crate) fn rejects(&self, distance_sq: f64, u1: f64, u2: f64) -> bool {
        // `false` below the table, and for a NaN distance, which the
        // exact path reads as the minimum distance.
        if distance_sq >= self.start_sq {
            let k = ((distance_sq.to_bits() >> BUCKET_SHIFT) - self.first) as usize;
            let floor = self.u1_floor.get(k).copied().unwrap_or(self.tail);
            u1 > floor || !(COS_POSITIVE_BELOW..=COS_POSITIVE_ABOVE).contains(&u2)
        } else {
            false
        }
    }
}

/// How far the mean loss at every `d²` at or past `edge_sq` exceeds
/// `max_loss`, less the margin; `None` unless that is positive, when
/// neither test applies there.
fn headroom_at<P: Propagation + ?Sized>(inner: &P, max_loss: Db, edge_sq: f64) -> Option<f64> {
    let mean = inner.mean_path_loss(edge_sq.sqrt()).db();
    let cap = max_loss.db();
    let headroom = (mean - cap) - MARGIN * (mean.abs() + cap.abs());
    // An infinite mean makes the headroom NaN: no entry.
    (headroom > 0.0).then_some(headroom)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::box_muller;
    use crate::{FreeSpace, LogDistance, Radio, Shadowed, TwoRayGround};
    use mobic_sim::rng::SeedSplitter;
    use rand::Rng;

    /// The three deterministic models, each at a nominal range that
    /// puts a feature inside the table: two-ray's crossover (86 m)
    /// lies past its 50 m range.
    fn inner_models() -> Vec<(&'static str, Box<dyn Propagation>, f64)> {
        vec![
            (
                "free space",
                Box::new(FreeSpace::at_frequency(914.0e6)),
                150.0,
            ),
            ("two-ray", Box::new(TwoRayGround::ns2_default()), 50.0),
            (
                "log-distance n=3",
                Box::new(LogDistance::calibrated_to_friis(914.0e6, 3.0)),
                100.0,
            ),
        ]
    }

    const SIGMAS: [f64; 4] = [0.0, 0.5, 4.0, 12.0];

    fn shadowed(inner: &dyn Propagation, sigma_db: f64, seed: u64) -> Shadowed<&dyn Propagation> {
        Shadowed::new(inner, sigma_db, SeedSplitter::new(seed).stream("cutoff", 0))
    }

    fn edge(bucket: u64) -> f64 {
        f64::from_bits(bucket << BUCKET_SHIFT)
    }

    /// Every squared distance the equivalence test probes for one
    /// table: 0, the nominal range, each bucket's lower edge and the
    /// table's end (each ±1 ulp), two-ray's crossover, and far and
    /// non-finite distances.
    fn probe_distances(cutoff: &ShadowCutoff, range_m: f64) -> Vec<f64> {
        let mut d2 = vec![0.0, 1.0, range_m * range_m];
        let end = cutoff.first + cutoff.u1_floor.len() as u64;
        for bucket in cutoff.first..=end {
            d2.push(edge(bucket));
        }
        let crossover = TwoRayGround::ns2_default().crossover_distance();
        d2.extend([
            crossover * crossover,
            4.0 * edge(end),
            1e12,
            f64::MAX,
            f64::INFINITY,
        ]);
        let mut probes = Vec::new();
        for x in d2 {
            probes.extend([x.next_down(), x, x.next_up()]);
        }
        probes.retain(|x| *x >= 0.0);
        probes
    }

    /// The reference verdict for one draw: the expression
    /// `Radio::receive` evaluates, from the uniforms themselves.
    fn closes(
        radio: &Radio<Shadowed<&dyn Propagation>>,
        distance_sq: f64,
        u1: f64,
        u2: f64,
    ) -> bool {
        let model = radio.propagation();
        let loss = model.inner().path_loss(distance_sq.sqrt())
            + Db::new(model.sigma_db() * box_muller(u1, u2));
        let b = radio.budget();
        b.tx_power + b.tx_gain + b.rx_gain - loss >= b.rx_threshold
    }

    #[test]
    fn bounded_reception_matches_the_exact_path_bit_for_bit() {
        for (name, inner, range_m) in inner_models() {
            for (s, sigma) in SIGMAS.into_iter().enumerate() {
                let seed = 100 + s as u64;
                let bounded = Radio::with_range(shadowed(&*inner, sigma, seed), range_m);
                let exact = Radio::with_range(shadowed(&*inner, sigma, seed), range_m);
                let cutoff = ShadowCutoff::build(&*inner, sigma, bounded.budget().max_path_loss())
                    .expect("every model's loss clears the budget somewhere");
                let mut probes = probe_distances(&cutoff, range_m);
                let mut rng = SeedSplitter::new(seed).stream("cutoff-distances", 0);
                let far = (4.0 * range_m).powi(2);
                probes.extend((0..2000).map(|_| rng.gen_range(0.0..far)));
                for (i, &d2) in probes.iter().enumerate() {
                    for draw in 0..8 {
                        let got = bounded.receive_squared(d2);
                        let want = exact.receive(d2.sqrt());
                        assert_eq!(
                            got.map(|p| p.dbm().to_bits()),
                            want.map(|p| p.dbm().to_bits()),
                            "{name}, σ = {sigma}: d² = {d2:e} (probe {i}, draw {draw})"
                        );
                        assert_eq!(
                            bounded.propagation().save_state(),
                            exact.propagation().save_state(),
                            "{name}, σ = {sigma}: stream position after d² = {d2:e}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn reject_predicate_never_refuses_a_closing_draw() {
        let ulps = |x: f64, n: usize| {
            let (mut lo, mut hi) = (x, x);
            let mut out = vec![x];
            for _ in 0..n {
                lo = lo.next_down();
                hi = hi.next_up();
                out.extend([lo, hi]);
            }
            out
        };
        let mut u2s = vec![0.0, 0.5, 1.0f64.next_down()];
        for x in [0.25, 0.75, COS_POSITIVE_BELOW, COS_POSITIVE_ABOVE] {
            u2s.extend(ulps(x, 4));
        }
        for (name, inner, range_m) in inner_models() {
            for sigma in SIGMAS {
                let radio = Radio::with_range(shadowed(&*inner, sigma, 1), range_m);
                let cap = radio.budget().max_path_loss();
                let cutoff = ShadowCutoff::build(&*inner, sigma, cap).expect("a table");
                let end = cutoff.first + cutoff.u1_floor.len() as u64;
                let mut refused = 0usize;
                for bucket in cutoff.first.saturating_sub(1)..=end {
                    // Each bucket's lower edge, where ℓ is tightest, with
                    // u₁ at the unmargined e^(−ℓ²/2) and at the table's
                    // floor, ±1 ulp.
                    let d2 = edge(bucket);
                    let mean = inner.mean_path_loss(d2.sqrt()).db();
                    let ell = (mean - cap.db()) / sigma;
                    let mut u1s = ulps((-0.5 * ell * ell).exp(), 1);
                    let k = bucket.saturating_sub(cutoff.first) as usize;
                    u1s.extend(ulps(
                        cutoff.u1_floor.get(k).copied().unwrap_or(cutoff.tail),
                        1,
                    ));
                    u1s.extend([f64::EPSILON / 2.0, 0.5, 1.0]);
                    u1s.retain(|u| *u > 0.0 && *u <= 1.0);
                    for probe in [d2.next_down(), d2, d2.next_up()] {
                        for &u1 in &u1s {
                            for &u2 in &u2s {
                                if cutoff.rejects(probe, u1, u2) {
                                    refused += 1;
                                    assert!(
                                        !closes(&radio, probe, u1, u2),
                                        "{name}, σ = {sigma}: refused a closing draw at \
                                         d² = {probe:e}, u₁ = {u1:e}, u₂ = {u2}"
                                    );
                                }
                            }
                        }
                    }
                }
                assert!(refused > 0, "{name}, σ = {sigma}: nothing refused");
            }
        }
    }

    #[test]
    fn most_draws_past_the_range_skip_the_math() {
        // Free space at σ = 4 dB, candidates uniform over a disk of
        // three ranges: about 8 in 9 lie past the range, and the two
        // tests together refuse most of those draws.
        let inner = FreeSpace::at_frequency(914.0e6);
        let radio = Radio::with_range(
            Shadowed::new(inner, 4.0, SeedSplitter::new(3).stream("c", 0)),
            150.0,
        );
        let cutoff =
            ShadowCutoff::build(&inner, 4.0, radio.budget().max_path_loss()).expect("a table");
        let mut rng = SeedSplitter::new(3).stream("cutoff-share", 0);
        let n = 20_000;
        let refused = (0..n)
            .filter(|_| {
                let d2 = rng.gen_range(0.0..(450.0f64 * 450.0));
                cutoff.rejects(d2, 1.0 - rng.gen::<f64>(), rng.gen())
            })
            .count();
        let share = refused as f64 / f64::from(n);
        assert!((0.6..0.85).contains(&share), "refused share {share}");
    }

    #[test]
    fn no_table_when_the_budget_is_never_exceeded() {
        // A zero exponent holds the loss at its reference value, which
        // is exactly the budget a radio built at any range affords.
        let flat = LogDistance::new(0.0, 1.0, Db::new(40.0));
        assert!(ShadowCutoff::build(&flat, 4.0, Db::new(40.0)).is_none());
        assert!(ShadowCutoff::build(&flat, 4.0, Db::new(39.0)).is_some());
    }
}
