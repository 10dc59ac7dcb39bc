//! The relative and aggregate local mobility metrics (§3.1), plus the
//! history-smoothing extension sketched in the paper's future work
//! (§5).

use mobic_net::NeighborTable;
use mobic_radio::Dbm;
use mobic_sim::SimTime;
use serde::{Deserialize, Serialize};

/// How the pairwise relative-mobility samples are folded into the
/// aggregate `M`.
///
/// The paper uses the variance about zero ([`Var0`](Self::Var0),
/// Eq. 2). Because `M_rel` lives on a log scale, a single close
/// passing neighbor can contribute a sample an order of magnitude
/// larger than the rest and dominate the mean of squares; the robust
/// [`MedianSq`](Self::MedianSq) alternative resists exactly that
/// pollution (see the X4 highway analysis in EXPERIMENTS.md).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum MetricAggregation {
    /// The paper's Eq. 2: mean of squares (`var₀`).
    #[default]
    Var0,
    /// Median of squares — robust to single-pair outliers.
    MedianSq,
    /// Maximum square — the most pessimistic reading.
    MaxSq,
}

/// Folds pairwise samples per the chosen [`MetricAggregation`].
/// Empty input yields `0.0` for every variant.
///
/// # Examples
///
/// ```
/// use mobic_core::metric::{aggregate_with, MetricAggregation};
///
/// let samples = [1.0, -1.0, 10.0]; // one outlier
/// assert!((aggregate_with(&samples, MetricAggregation::Var0) - 34.0).abs() < 1e-12);
/// assert_eq!(aggregate_with(&samples, MetricAggregation::MedianSq), 1.0);
/// assert_eq!(aggregate_with(&samples, MetricAggregation::MaxSq), 100.0);
/// ```
#[must_use]
pub fn aggregate_with(samples: &[f64], how: MetricAggregation) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    match how {
        MetricAggregation::Var0 => {
            samples.iter().map(|s| s * s).sum::<f64>() / samples.len() as f64
        }
        MetricAggregation::MedianSq => {
            // Ablation only: sorting allocates the squared sample set,
            // where Var0 and MaxSq stream.
            let mut squares: Vec<f64> = samples.iter().map(|s| s * s).collect();
            squares.sort_by(|a, b| a.partial_cmp(b).expect("squares are finite"));
            let n = squares.len();
            if n % 2 == 1 {
                squares[n / 2]
            } else {
                0.5 * (squares[n / 2 - 1] + squares[n / 2])
            }
        }
        MetricAggregation::MaxSq => samples.iter().map(|s| s * s).fold(0.0, f64::max),
    }
}

/// Pairwise relative mobility from two successive received-power
/// measurements of the same neighbor:
///
/// `M_rel = 10·log10(RxPr_new / RxPr_old)` — which, with powers already
/// in dBm, is simply their difference in dB.
///
/// Negative values mean the nodes are drifting apart, positive values
/// mean they are approaching; zero means the received power (and under
/// free-space propagation, the distance) is unchanged.
///
/// # Examples
///
/// ```
/// use mobic_core::metric::relative_mobility;
/// use mobic_radio::Dbm;
///
/// // Power dropped 4 dB: moving apart.
/// assert_eq!(relative_mobility(Dbm::new(-60.0), Dbm::new(-64.0)), -4.0);
/// // Unchanged power: zero relative mobility.
/// assert_eq!(relative_mobility(Dbm::new(-70.0), Dbm::new(-70.0)), 0.0);
/// ```
#[must_use]
pub fn relative_mobility(rx_old: Dbm, rx_new: Dbm) -> f64 {
    (rx_new - rx_old).db()
}

/// Aggregate local mobility: the variance **about zero** (i.e. the
/// mean of squares, `E[M_rel²]`) of the pairwise relative mobility
/// samples — Equation (2) of the paper.
///
/// An empty sample set yields `0.0`, matching the paper's
/// initialization ("M … initialized to 0 at the beginning of
/// operations") and its treatment of isolated nodes.
///
/// # Examples
///
/// ```
/// use mobic_core::metric::aggregate_mobility;
///
/// assert_eq!(aggregate_mobility([3.0, -4.0]), 12.5);
/// assert_eq!(aggregate_mobility([]), 0.0);
/// ```
#[must_use]
pub fn aggregate_mobility(samples: impl IntoIterator<Item = f64>) -> f64 {
    let mut sum_sq = 0.0;
    let mut n = 0usize;
    for s in samples {
        sum_sq += s * s;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum_sq / n as f64
    }
}

/// The result of a node's metric computation: the aggregate value and
/// how many neighbors qualified (delivered two successive hellos).
///
/// The sample count matters for interpreting the metric: the paper
/// notes the aggregate is imprecise in sparse neighborhoods (§3.1,
/// §4.2), which is exactly why MOBIC underperforms at small
/// transmission ranges.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggregateMetric {
    /// `M_Y`, the variance-about-zero of the pairwise samples.
    pub value: f64,
    /// Number of neighbors that contributed a sample.
    pub samples: usize,
}

/// Computes a node's aggregate local mobility from its neighbor table,
/// applying the paper's exclusion heuristic: only neighbors whose last
/// two receptions came from **consecutive** hello sequence numbers
/// *and* whose most recent reception is no older than `max_age`
/// contribute. (`max_age` is typically the broadcast interval plus
/// jitter slack; entry expiry via the timeout period has already
/// removed long-silent neighbors.)
///
/// # Examples
///
/// ```
/// use mobic_core::metric::table_mobility;
/// use mobic_net::{Hello, NeighborTable, NodeId};
/// use mobic_radio::Dbm;
/// use mobic_sim::SimTime;
///
/// let mut t: NeighborTable<()> = NeighborTable::new(SimTime::from_secs(3));
/// let s = |x| SimTime::from_secs(x);
/// t.record(s(0), Dbm::new(-60.0), &Hello { sender: NodeId::new(1), seq: 0, payload: () });
/// t.record(s(2), Dbm::new(-57.0), &Hello { sender: NodeId::new(1), seq: 1, payload: () });
/// let m = table_mobility(&t, s(2), SimTime::from_secs(3));
/// assert_eq!(m.samples, 1);
/// assert_eq!(m.value, 9.0); // (+3 dB)²
/// ```
#[must_use]
pub fn table_mobility<P>(
    table: &NeighborTable<P>,
    now: SimTime,
    max_age: SimTime,
) -> AggregateMetric {
    table_mobility_with(table, now, max_age, MetricAggregation::Var0)
}

/// [`table_mobility`] with an explicit [`MetricAggregation`] — the
/// robust-aggregation ablation entry point.
///
/// `Var0` and `MaxSq` stream over the table without allocating, in the
/// same id order (and therefore the same floating-point operation
/// order) as folding a collected sample vector — this runs once per
/// hello broadcast, on the zero-allocation hot path. `MedianSq` needs
/// the full sample set to sort and still collects.
#[must_use]
pub fn table_mobility_with<P>(
    table: &NeighborTable<P>,
    now: SimTime,
    max_age: SimTime,
    how: MetricAggregation,
) -> AggregateMetric {
    if how == MetricAggregation::MedianSq {
        // Ablation only: the median needs the full sample set, so this
        // allocates, where Var0 and MaxSq stream.
        let mut samples = Vec::new();
        for (_, entry) in table.iter() {
            if let Some((old, new)) = entry.successive_pair() {
                if now.saturating_sub(new.at) <= max_age {
                    samples.push(relative_mobility(old.power, new.power));
                }
            }
        }
        return AggregateMetric {
            value: aggregate_with(&samples, how),
            samples: samples.len(),
        };
    }
    let mut sum_sq = 0.0;
    let mut max_sq = 0.0f64;
    let mut n = 0usize;
    for (_, entry) in table.iter() {
        if let Some((old, new)) = entry.successive_pair() {
            if now.saturating_sub(new.at) <= max_age {
                let s = relative_mobility(old.power, new.power);
                let sq = s * s;
                sum_sq += sq;
                max_sq = max_sq.max(sq);
                n += 1;
            }
        }
    }
    let value = if n == 0 {
        0.0
    } else {
        match how {
            MetricAggregation::Var0 => sum_sq / n as f64,
            MetricAggregation::MaxSq => max_sq,
            MetricAggregation::MedianSq => unreachable!("handled above"),
        }
    };
    AggregateMetric { value, samples: n }
}

/// Exponentially weighted moving average over successive aggregate
/// metric computations — the paper's §5 suggestion that "keeping some
/// history information about the mobility values may yield more stable
/// metrics".
///
/// `alpha` is the weight of history: the smoothed value after an
/// update is `alpha·previous + (1−alpha)·new`. `alpha = 0` reproduces
/// the paper's memoryless metric.
///
/// # Examples
///
/// ```
/// use mobic_core::metric::MetricSmoother;
///
/// let mut s = MetricSmoother::new(0.5);
/// assert_eq!(s.update(10.0), 10.0); // first sample adopted wholesale
/// assert_eq!(s.update(0.0), 5.0);
/// assert_eq!(s.update(0.0), 2.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MetricSmoother {
    alpha: f64,
    state: Option<f64>,
}

impl MetricSmoother {
    /// Creates a smoother with history weight `alpha ∈ [0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `[0, 1)`.
    #[must_use]
    pub fn new(alpha: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&alpha),
            "alpha must be in [0, 1), got {alpha}"
        );
        MetricSmoother { alpha, state: None }
    }

    /// Feeds a fresh aggregate value, returning the smoothed metric.
    pub fn update(&mut self, value: f64) -> f64 {
        let next = match self.state {
            None => value,
            Some(prev) => self.alpha * prev + (1.0 - self.alpha) * value,
        };
        self.state = Some(next);
        next
    }

    /// The current smoothed value, if any update has happened.
    #[must_use]
    pub fn current(&self) -> Option<f64> {
        self.state
    }

    /// Resets the smoother to its initial empty state.
    pub fn reset(&mut self) {
        self.state = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobic_net::{Hello, NodeId};

    #[test]
    fn relative_mobility_signs() {
        // Approaching: new power higher.
        assert!(relative_mobility(Dbm::new(-70.0), Dbm::new(-60.0)) > 0.0);
        // Receding: new power lower.
        assert!(relative_mobility(Dbm::new(-60.0), Dbm::new(-70.0)) < 0.0);
        assert_eq!(relative_mobility(Dbm::new(-65.0), Dbm::new(-65.0)), 0.0);
    }

    #[test]
    fn relative_mobility_is_power_ratio_in_db() {
        // 10x power increase = +10 dB.
        let old = Dbm::from_milliwatts(1e-6);
        let new = Dbm::from_milliwatts(1e-5);
        assert!((relative_mobility(old, new) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn friis_doubling_distance_gives_minus_six_db() {
        // Under the inverse-square law, doubling distance quarters the
        // power: M_rel = 10·log10(1/4) ≈ −6.02.
        let ratio_db = 10.0 * 0.25_f64.log10();
        let old = Dbm::new(-60.0);
        let new = Dbm::new(-60.0 + ratio_db);
        assert!((relative_mobility(old, new) + 6.0206).abs() < 1e-3);
    }

    #[test]
    fn aggregate_is_mean_of_squares_not_variance() {
        // Samples with nonzero mean: classic variance would subtract
        // the mean; var₀ must not.
        let samples = [2.0, 2.0, 2.0];
        assert_eq!(aggregate_mobility(samples), 4.0);
    }

    #[test]
    fn aggregate_of_empty_is_zero() {
        assert_eq!(aggregate_mobility(std::iter::empty()), 0.0);
    }

    #[test]
    fn aggregate_single_sample() {
        assert_eq!(aggregate_mobility([-3.0]), 9.0);
    }

    #[test]
    fn aggregate_is_symmetric_in_sign() {
        assert_eq!(
            aggregate_mobility([5.0, -5.0]),
            aggregate_mobility([5.0, 5.0])
        );
    }

    #[test]
    fn low_aggregate_means_low_relative_motion() {
        let calm = aggregate_mobility([0.1, -0.2, 0.05]);
        let wild = aggregate_mobility([8.0, -6.0, 7.0]);
        assert!(calm < wild);
    }

    fn hello(sender: u32, seq: u64) -> Hello<()> {
        Hello {
            sender: NodeId::new(sender),
            seq,
            payload: (),
        }
    }

    #[test]
    fn table_mobility_uses_only_successive_pairs() {
        let mut t: NeighborTable<()> = NeighborTable::new(SimTime::from_secs(3));
        let s = SimTime::from_secs;
        // Neighbor 1: successive pair, +2 dB.
        t.record(s(0), Dbm::new(-60.0), &hello(1, 0));
        t.record(s(2), Dbm::new(-58.0), &hello(1, 1));
        // Neighbor 2: gap in sequence numbers (lost hello) — excluded.
        t.record(s(0), Dbm::new(-60.0), &hello(2, 0));
        t.record(s(2), Dbm::new(-50.0), &hello(2, 2));
        // Neighbor 3: only one reception — excluded.
        t.record(s(2), Dbm::new(-55.0), &hello(3, 0));
        let m = table_mobility(&t, s(2), SimTime::from_secs(3));
        assert_eq!(m.samples, 1);
        assert_eq!(m.value, 4.0);
    }

    #[test]
    fn table_mobility_respects_max_age() {
        let mut t: NeighborTable<()> = NeighborTable::new(SimTime::from_secs(100));
        let s = SimTime::from_secs;
        t.record(s(0), Dbm::new(-60.0), &hello(1, 0));
        t.record(s(2), Dbm::new(-58.0), &hello(1, 1));
        // At t=10 with max_age=3 the pair is stale.
        let m = table_mobility(&t, s(10), SimTime::from_secs(3));
        assert_eq!(m.samples, 0);
        assert_eq!(m.value, 0.0);
        // With a generous max_age it counts.
        let m = table_mobility(&t, s(10), SimTime::from_secs(20));
        assert_eq!(m.samples, 1);
    }

    #[test]
    fn table_mobility_averages_across_neighbors() {
        let mut t: NeighborTable<()> = NeighborTable::new(SimTime::from_secs(3));
        let s = SimTime::from_secs;
        t.record(s(0), Dbm::new(-60.0), &hello(1, 0));
        t.record(s(2), Dbm::new(-57.0), &hello(1, 1)); // +3 → 9
        t.record(s(0), Dbm::new(-60.0), &hello(2, 0));
        t.record(s(2), Dbm::new(-64.0), &hello(2, 1)); // −4 → 16
        let m = table_mobility(&t, s(2), SimTime::from_secs(3));
        assert_eq!(m.samples, 2);
        assert_eq!(m.value, 12.5);
    }

    #[test]
    fn aggregation_variants_agree_on_singletons() {
        for how in [
            MetricAggregation::Var0,
            MetricAggregation::MedianSq,
            MetricAggregation::MaxSq,
        ] {
            assert_eq!(aggregate_with(&[-3.0], how), 9.0, "{how:?}");
            assert_eq!(aggregate_with(&[], how), 0.0, "{how:?}");
        }
    }

    #[test]
    fn median_resists_single_outlier() {
        // Nine calm samples plus one screaming pass-by.
        let mut samples = vec![0.5; 9];
        samples.push(30.0);
        let var0 = aggregate_with(&samples, MetricAggregation::Var0);
        let med = aggregate_with(&samples, MetricAggregation::MedianSq);
        assert!(var0 > 90.0, "mean of squares dominated: {var0}");
        assert_eq!(med, 0.25, "median untouched by the outlier");
    }

    #[test]
    fn table_mobility_with_median() {
        let mut t: NeighborTable<()> = NeighborTable::new(SimTime::from_secs(3));
        let s = SimTime::from_secs;
        // +1, +2, +9 dB pairs from three neighbors.
        for (id, delta) in [(1u32, 1.0), (2, 2.0), (3, 9.0)] {
            t.record(s(0), Dbm::new(-60.0), &hello(id, 0));
            t.record(s(2), Dbm::new(-60.0 + delta), &hello(id, 1));
        }
        let med = table_mobility_with(&t, s(2), s(3), MetricAggregation::MedianSq);
        assert_eq!(med.samples, 3);
        assert_eq!(med.value, 4.0);
        let max = table_mobility_with(&t, s(2), s(3), MetricAggregation::MaxSq);
        assert_eq!(max.value, 81.0);
    }

    #[test]
    fn streaming_aggregation_bitwise_matches_collected_fold() {
        // table_mobility_with streams Var0/MaxSq; the result must be
        // bit-identical to collecting the samples and folding them,
        // since RunResult bytes depend on it.
        let mut t: NeighborTable<()> = NeighborTable::new(SimTime::from_secs(100));
        let s = SimTime::from_secs;
        for (i, delta) in [0.3, -7.1, 2.44, 11.02, -0.001, 5.5].iter().enumerate() {
            let id = i as u32 + 1;
            t.record(s(0), Dbm::new(-60.0), &hello(id, 0));
            t.record(s(2), Dbm::new(-60.0 + delta), &hello(id, 1));
        }
        let mut samples = Vec::new();
        for (_, entry) in t.iter() {
            let (old, new) = entry.successive_pair().unwrap();
            samples.push(relative_mobility(old.power, new.power));
        }
        for how in [
            MetricAggregation::Var0,
            MetricAggregation::MaxSq,
            MetricAggregation::MedianSq,
        ] {
            let got = table_mobility_with(&t, s(2), s(3), how);
            assert_eq!(got.samples, samples.len(), "{how:?}");
            assert_eq!(
                got.value.to_bits(),
                aggregate_with(&samples, how).to_bits(),
                "{how:?}"
            );
        }
    }

    #[test]
    fn smoother_alpha_zero_is_memoryless() {
        let mut sm = MetricSmoother::new(0.0);
        assert_eq!(sm.update(7.0), 7.0);
        assert_eq!(sm.update(3.0), 3.0);
        assert_eq!(sm.current(), Some(3.0));
    }

    #[test]
    fn smoother_converges_to_constant_input() {
        let mut sm = MetricSmoother::new(0.9);
        sm.update(100.0);
        let mut last = 100.0;
        for _ in 0..200 {
            last = sm.update(5.0);
        }
        assert!((last - 5.0).abs() < 1e-6);
    }

    #[test]
    fn smoother_reset() {
        let mut sm = MetricSmoother::new(0.5);
        sm.update(10.0);
        sm.reset();
        assert_eq!(sm.current(), None);
        assert_eq!(sm.update(2.0), 2.0);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn smoother_rejects_alpha_one() {
        let _ = MetricSmoother::new(1.0);
    }
}
