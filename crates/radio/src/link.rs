//! Link budgets and the [`Radio`] abstraction.

use serde::{Deserialize, Serialize};

use crate::{Db, Dbm, Propagation};

/// The power-related configuration of a transceiver: transmit power,
/// antenna gains and receive threshold.
///
/// ns-2's 2001-era WaveLAN defaults are available as
/// [`LinkBudget::ns2_default`]; the paper's experiments instead sweep
/// the transmission range directly, which [`Radio::with_range`]
/// supports by solving for the transmit power.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkBudget {
    /// Transmit power.
    pub tx_power: Dbm,
    /// Transmitter antenna gain.
    pub tx_gain: Db,
    /// Receiver antenna gain.
    pub rx_gain: Db,
    /// Minimum received power for successful MAC-layer reception
    /// (ns-2's `RXThresh_`).
    pub rx_threshold: Dbm,
}

impl LinkBudget {
    /// ns-2 wireless defaults: `Pt = 0.28183815 W` (≈ 24.5 dBm),
    /// unity antenna gains, `RXThresh = 3.652e-10 W` (≈ −64.4 dBm) —
    /// the combination that gives a 250 m range under two-ray ground.
    #[must_use]
    pub fn ns2_default() -> Self {
        LinkBudget {
            tx_power: Dbm::from_watts(0.281_838_15),
            tx_gain: Db::ZERO,
            rx_gain: Db::ZERO,
            rx_threshold: Dbm::from_watts(3.652e-10),
        }
    }

    /// The maximum tolerable path loss: everything the budget affords
    /// between transmit power (plus gains) and the receive threshold.
    #[must_use]
    pub fn max_path_loss(&self) -> Db {
        (self.tx_power + self.tx_gain + self.rx_gain) - self.rx_threshold
    }
}

/// A radio: a [`LinkBudget`] paired with a [`Propagation`] model,
/// answering the two questions the network layer asks:
/// *at what power does a packet arrive?* and *does it arrive at all?*
///
/// # Examples
///
/// ```
/// use mobic_radio::{FreeSpace, Radio};
///
/// let radio = Radio::with_range(FreeSpace::at_frequency(914.0e6), 100.0);
/// assert!((radio.nominal_range_m() - 100.0).abs() < 0.01);
/// let rx = radio.receive(50.0).expect("within range");
/// assert!(rx >= radio.budget().rx_threshold);
/// ```
#[derive(Debug, Clone)]
pub struct Radio<P> {
    budget: LinkBudget,
    /// `budget.max_path_loss()`, computed once for the per-candidate
    /// [`receive_squared`](Self::receive_squared).
    max_loss: Db,
    propagation: P,
}

impl<P: Propagation> Radio<P> {
    /// Creates a radio from an explicit budget and propagation model.
    #[must_use]
    pub fn new(mut propagation: P, budget: LinkBudget) -> Self {
        let max_loss = budget.max_path_loss();
        propagation.prepare_cutoff(max_loss);
        Radio {
            budget,
            max_loss,
            propagation,
        }
    }

    /// Creates a radio whose **nominal range** (distance at which the
    /// mean received power exactly meets the receive threshold) is
    /// `range_m` meters, by solving the link budget for the transmit
    /// power. This mirrors the paper's experiments, which sweep the
    /// transmission range `Tx` from 10 to 250 m.
    ///
    /// The receive threshold is kept at the ns-2 default; only the
    /// transmit power varies, exactly as one would configure a real
    /// radio (or ns-2's `Phy/WirelessPhy set Pt_`).
    ///
    /// # Panics
    ///
    /// Panics if `range_m` is not positive and finite.
    #[must_use]
    pub fn with_range(propagation: P, range_m: f64) -> Self {
        assert!(
            range_m > 0.0 && range_m.is_finite(),
            "range must be positive and finite, got {range_m}"
        );
        let mut budget = LinkBudget::ns2_default();
        let needed = propagation.mean_path_loss(range_m);
        budget.tx_power = budget.rx_threshold + needed - budget.tx_gain - budget.rx_gain;
        Self::new(propagation, budget)
    }

    /// The link budget.
    #[must_use]
    pub fn budget(&self) -> &LinkBudget {
        &self.budget
    }

    /// The propagation model.
    #[must_use]
    pub fn propagation(&self) -> &P {
        &self.propagation
    }

    /// Mean received power at `distance_m` (no shadowing), regardless
    /// of threshold.
    #[must_use]
    pub fn mean_rx_power(&self, distance_m: f64) -> Dbm {
        self.budget.tx_power + self.budget.tx_gain + self.budget.rx_gain
            - self.propagation.mean_path_loss(distance_m)
    }

    /// Per-packet received power at `distance_m` (including shadowing
    /// if the model has it), regardless of threshold.
    #[must_use]
    pub fn rx_power(&self, distance_m: f64) -> Dbm {
        self.budget.tx_power + self.budget.tx_gain + self.budget.rx_gain
            - self.propagation.path_loss(distance_m)
    }

    /// Attempts reception at `distance_m`: returns the received power
    /// if it meets the receive threshold, `None` otherwise.
    #[must_use]
    pub fn receive(&self, distance_m: f64) -> Option<Dbm> {
        let p = self.rx_power(distance_m);
        (p >= self.budget.rx_threshold).then_some(p)
    }

    /// [`receive`](Self::receive) at the squared distance
    /// `distance_sq`, bit for bit and with the same draws, through
    /// [`Propagation::path_loss_within`]: a shadowed link that cannot
    /// close is refused without computing its loss.
    #[must_use]
    pub fn receive_squared(&self, distance_sq: f64) -> Option<Dbm> {
        let loss = self
            .propagation
            .path_loss_within(distance_sq, self.max_loss)?;
        let p = self.budget.tx_power + self.budget.tx_gain + self.budget.rx_gain - loss;
        (p >= self.budget.rx_threshold).then_some(p)
    }

    /// The nominal communication range: the distance at which the
    /// *mean* received power equals the receive threshold, found by
    /// bisection over the (monotone) mean path loss.
    ///
    /// Returns 0 if even point-blank transmission is below threshold.
    #[must_use]
    pub fn nominal_range_m(&self) -> f64 {
        let max_loss = self.budget.max_path_loss();
        if self
            .propagation
            .mean_path_loss(crate::models::MIN_DISTANCE_M)
            > max_loss
        {
            return 0.0;
        }
        // Bracket: grow upper bound until loss exceeds budget.
        let mut lo = crate::models::MIN_DISTANCE_M;
        let mut hi = 1.0;
        let mut guard = 0;
        while self.propagation.mean_path_loss(hi) <= max_loss {
            lo = hi;
            hi *= 2.0;
            guard += 1;
            if guard > 60 {
                return f64::INFINITY; // budget unreachable: infinite range
            }
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.propagation.mean_path_loss(mid) <= max_loss {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FreeSpace, LogDistance, Shadowed, TwoRayGround};
    use mobic_sim::rng::SeedSplitter;

    #[test]
    fn ns2_budget_constants() {
        let b = LinkBudget::ns2_default();
        assert!((b.tx_power.dbm() - 24.5).abs() < 0.01, "{}", b.tx_power);
        assert!(
            (b.rx_threshold.dbm() - -64.37).abs() < 0.01,
            "{}",
            b.rx_threshold
        );
        assert!((b.max_path_loss().db() - 88.87).abs() < 0.05);
    }

    #[test]
    fn ns2_default_two_ray_range_is_250m() {
        // The canonical ns-2 sanity check: default budget + two-ray
        // ground = 250 m nominal range.
        let radio = Radio::new(TwoRayGround::ns2_default(), LinkBudget::ns2_default());
        let r = radio.nominal_range_m();
        assert!((r - 250.0).abs() < 2.0, "range {r}");
    }

    #[test]
    fn with_range_solves_inverse_problem() {
        for target in [10.0, 50.0, 100.0, 250.0] {
            let radio = Radio::with_range(FreeSpace::at_frequency(914.0e6), target);
            let r = radio.nominal_range_m();
            assert!(
                (r - target).abs() < target * 1e-3,
                "target {target} got {r}"
            );
        }
    }

    #[test]
    fn with_range_two_ray() {
        for target in [50.0, 150.0, 250.0] {
            let radio = Radio::with_range(TwoRayGround::ns2_default(), target);
            let r = radio.nominal_range_m();
            assert!(
                (r - target).abs() < target * 1e-3,
                "target {target} got {r}"
            );
        }
    }

    #[test]
    fn receive_threshold_boundary() {
        let radio = Radio::with_range(FreeSpace::at_frequency(914.0e6), 100.0);
        assert!(radio.receive(99.9).is_some());
        assert!(radio.receive(100.1).is_none());
        // Exactly at range: mean power equals threshold (within fp).
        let at = radio.mean_rx_power(100.0);
        assert!((at.dbm() - radio.budget().rx_threshold.dbm()).abs() < 1e-6);
    }

    #[test]
    fn rx_power_decreases_with_distance() {
        let radio = Radio::with_range(FreeSpace::at_frequency(914.0e6), 250.0);
        let mut prev = Dbm::new(f64::INFINITY);
        for d in [1.0, 10.0, 50.0, 100.0, 200.0, 249.0] {
            let p = radio.rx_power(d);
            assert!(p < prev, "not decreasing at {d}");
            prev = p;
        }
    }

    #[test]
    fn mobility_metric_identity_under_friis() {
        // The paper's metric: 10·log10(Pr_new/Pr_old). Under Friis this
        // equals 20·log10(d_old/d_new) — verify via the radio API.
        let radio = Radio::with_range(FreeSpace::at_frequency(914.0e6), 250.0);
        let d_old = 100.0;
        let d_new = 50.0; // moved closer
        let m_rel = radio.rx_power(d_new).dbm() - radio.rx_power(d_old).dbm();
        assert!((m_rel - 20.0 * (d_old / d_new).log10()).abs() < 1e-9);
        assert!(m_rel > 0.0, "approaching nodes have positive M_rel");
    }

    #[test]
    fn shadowed_radio_receive_is_noisy_but_thresholded() {
        let sh = Shadowed::new(
            FreeSpace::at_frequency(914.0e6),
            8.0,
            SeedSplitter::new(2).stream("sh", 0),
        );
        let radio = Radio::with_range(sh, 100.0);
        // At 95% of range, deterministic reception is certain; with
        // sigma=8 dB some packets drop and some arrive.
        let mut received = 0;
        let n = 500;
        for _ in 0..n {
            if radio.receive(95.0).is_some() {
                received += 1;
            }
        }
        assert!(received > 50 && received < n, "received {received}/{n}");
    }

    #[test]
    fn zero_range_when_budget_insufficient() {
        let mut budget = LinkBudget::ns2_default();
        budget.tx_power = Dbm::new(-200.0);
        let radio = Radio::new(FreeSpace::at_frequency(914.0e6), budget);
        assert_eq!(radio.nominal_range_m(), 0.0);
        assert!(radio.receive(1.0).is_none());
    }

    #[test]
    fn log_distance_radio() {
        let radio = Radio::with_range(LogDistance::calibrated_to_friis(914.0e6, 4.0), 100.0);
        let r = radio.nominal_range_m();
        assert!((r - 100.0).abs() < 0.1, "{r}");
        // Steeper decay: at 2x range the deficit is ~12 dB.
        let deficit = radio.budget().rx_threshold - radio.mean_rx_power(200.0);
        assert!((deficit.db() - 12.04).abs() < 0.05, "{deficit}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn with_range_rejects_zero() {
        let _ = Radio::with_range(FreeSpace::at_frequency(914.0e6), 0.0);
    }
}
