//! Broadcast delivery: who receives a hello, and at what power.

use mobic_geom::Vec2;
use mobic_radio::{Dbm, Propagation, Radio};
use mobic_sim::SimTime;

use crate::{loss::LossModel, NodeId};

/// One successful reception of a broadcast.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Delivery {
    /// The receiving node.
    pub receiver: NodeId,
    /// Measured received power at the receiver (`RxPr`).
    pub rx_power: Dbm,
}

/// Computes the receiver set of each hello broadcast.
///
/// Given a transmitter, a list of candidate receivers with their
/// positions, a [`Radio`] (budget + propagation) and a [`LossModel`],
/// [`broadcast_among_into`](Self::broadcast_among_into) reports every
/// candidate that receives the packet above the MAC threshold,
/// together with the power it measured — the quantity the MOBIC
/// metric is built from.
///
/// The caller picks the candidates: every other node, or the ids a
/// spatial-index query returns around the transmitter. With a
/// deterministic channel, any candidate list that contains every node
/// inside the reception disk, in ascending id order, yields the same
/// deliveries and the same loss-model query sequence.
///
/// # Examples
///
/// ```
/// use mobic_geom::Vec2;
/// use mobic_net::{loss::NoLoss, DeliveryEngine, NodeId};
/// use mobic_radio::{FreeSpace, Radio};
/// use mobic_sim::SimTime;
///
/// let radio = Radio::with_range(FreeSpace::at_frequency(914.0e6), 100.0);
/// let mut engine = DeliveryEngine::new(radio, NoLoss);
/// let positions = [
///     Vec2::new(0.0, 0.0),   // n0 (transmitter)
///     Vec2::new(50.0, 0.0),  // n1: in range
///     Vec2::new(150.0, 0.0), // n2: out of range
/// ];
/// let candidates: Vec<(NodeId, Vec2)> = positions
///     .iter()
///     .enumerate()
///     .map(|(i, &p)| (NodeId::new(i as u32), p))
///     .collect();
/// let (mut rx, mut lost) = (Vec::new(), Vec::new());
/// engine.broadcast_among_into(
///     NodeId::new(0),
///     positions[0],
///     &candidates,
///     SimTime::ZERO,
///     &mut rx,
///     &mut lost,
/// );
/// assert_eq!(rx.len(), 1);
/// assert_eq!(rx[0].receiver, NodeId::new(1));
/// ```
#[derive(Debug)]
pub struct DeliveryEngine<P, L> {
    radio: Radio<P>,
    loss: L,
}

impl<P: Propagation, L: LossModel> DeliveryEngine<P, L> {
    /// Creates an engine from a radio and a loss model.
    #[must_use]
    pub fn new(radio: Radio<P>, loss: L) -> Self {
        DeliveryEngine { radio, loss }
    }

    /// The radio.
    #[must_use]
    pub fn radio(&self) -> &Radio<P> {
        &self.radio
    }

    /// The loss model.
    #[must_use]
    pub fn loss(&self) -> &L {
        &self.loss
    }

    /// Mutable access to the loss model, for checkpoint
    /// capture/restore of its live state (see
    /// [`LossModel::save_state`]).
    pub fn loss_mut(&mut self) -> &mut L {
        &mut self.loss
    }

    /// Delivers a broadcast from `tx` (located at `tx_pos`) to
    /// `candidates`, given as `(id, position)` pairs: writes each
    /// reception into `out` and each in-range candidate the loss model
    /// dropped into `lost`. Both buffers are caller-owned scratch and
    /// are cleared first; once they have grown to the largest receiver
    /// set, repeated calls allocate nothing.
    ///
    /// Per candidate: skip `tx` (a node never hears itself), ask the
    /// radio whether the candidate hears anything at its squared
    /// distance ([`Radio::receive_squared`]), and
    /// only then ask the loss model whether the packet survives —
    /// exactly one loss-model query per in-range candidate, in
    /// candidate order. Stateful loss models and stochastic channels
    /// depend on that order, so `candidates` must be sorted by
    /// strictly ascending id (checked in debug builds).
    ///
    /// Reception is decided per candidate, so a candidate missing from
    /// the list is never delivered to: with a stochastic channel, which
    /// can reach past the nominal range, pass every node.
    // lint:hot-path — one iteration per (tx, candidate) pair per hello;
    // the steady-state zero-allocation guarantee starts here.
    pub fn broadcast_among_into(
        &mut self,
        tx: NodeId,
        tx_pos: Vec2,
        candidates: &[(NodeId, Vec2)],
        at: SimTime,
        out: &mut Vec<Delivery>,
        lost: &mut Vec<NodeId>,
    ) {
        debug_assert!(
            candidates.windows(2).all(|w| w[0].0 < w[1].0),
            "candidates must be sorted by ascending id"
        );
        out.clear();
        lost.clear();
        for &(rx, rx_pos) in candidates {
            if rx == tx {
                continue;
            }
            if let Some(power) = self.radio.receive_squared(tx_pos.distance_squared(rx_pos)) {
                if self.loss.delivered(tx, rx, at) {
                    out.push(Delivery {
                        receiver: rx,
                        rx_power: power,
                    });
                } else {
                    lost.push(rx);
                }
            }
        }
    }
    // lint:end-hot-path
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{Bernoulli, NoLoss};
    use mobic_geom::{GridIndex, Rect};
    use mobic_radio::FreeSpace;
    use mobic_sim::rng::SeedSplitter;
    use rand::Rng;

    fn radio() -> Radio<FreeSpace> {
        Radio::with_range(FreeSpace::at_frequency(914.0e6), 100.0)
    }

    fn engine() -> DeliveryEngine<FreeSpace, NoLoss> {
        DeliveryEngine::new(radio(), NoLoss)
    }

    fn lossy(p_loss: f64, seed: u64) -> DeliveryEngine<FreeSpace, Bernoulli> {
        DeliveryEngine::new(
            radio(),
            Bernoulli::new(p_loss, SeedSplitter::new(seed).stream("l", 0)),
        )
    }

    /// Every node as a candidate, in id order — the brute-force list.
    fn all_nodes(positions: &[Vec2]) -> Vec<(NodeId, Vec2)> {
        positions
            .iter()
            .enumerate()
            .map(|(i, &p)| (NodeId::new(i as u32), p))
            .collect()
    }

    /// Broadcasts from `tx` to every node: (deliveries, losses).
    fn broadcast<L: LossModel>(
        e: &mut DeliveryEngine<FreeSpace, L>,
        tx: u32,
        positions: &[Vec2],
        at: SimTime,
    ) -> (Vec<Delivery>, Vec<NodeId>) {
        let (mut out, mut lost) = (Vec::new(), Vec::new());
        let tx_pos = positions[tx as usize];
        let candidates = all_nodes(positions);
        e.broadcast_among_into(
            NodeId::new(tx),
            tx_pos,
            &candidates,
            at,
            &mut out,
            &mut lost,
        );
        (out, lost)
    }

    #[test]
    fn in_range_nodes_receive_with_distance_ordered_power() {
        let mut e = engine();
        let positions = [
            Vec2::new(0.0, 0.0),
            Vec2::new(10.0, 0.0),
            Vec2::new(90.0, 0.0),
            Vec2::new(500.0, 0.0),
        ];
        let (rx, lost) = broadcast(&mut e, 0, &positions, SimTime::ZERO);
        let receivers: Vec<NodeId> = rx.iter().map(|d| d.receiver).collect();
        assert_eq!(receivers, vec![NodeId::new(1), NodeId::new(2)]);
        assert!(rx[0].rx_power > rx[1].rx_power);
        // Out of range is not a loss: the loss model was never asked.
        assert!(lost.is_empty());
    }

    #[test]
    fn out_of_range_receives_nothing() {
        let mut e = engine();
        let positions = [Vec2::ZERO, Vec2::new(500.0, 0.0)];
        let (rx, lost) = broadcast(&mut e, 0, &positions, SimTime::ZERO);
        assert!(rx.is_empty() && lost.is_empty());
    }

    #[test]
    fn transmitter_does_not_hear_itself() {
        let mut e = engine();
        let positions = [Vec2::ZERO, Vec2::ZERO];
        let (rx, _) = broadcast(&mut e, 0, &positions, SimTime::ZERO);
        assert_eq!(rx.len(), 1);
        assert_eq!(rx[0].receiver, NodeId::new(1));
        // A co-located transmitter is skipped by id, wherever it sits
        // in the list, and never reaches the loss model.
        let mut e = lossy(1.0, 1);
        let (rx, lost) = broadcast(&mut e, 1, &positions, SimTime::ZERO);
        assert!(rx.is_empty());
        assert_eq!(lost, vec![NodeId::new(0)]);
    }

    #[test]
    fn symmetric_links_under_identical_radios() {
        let mut e = engine();
        let positions = [Vec2::ZERO, Vec2::new(60.0, 40.0)];
        let (a, _) = broadcast(&mut e, 0, &positions, SimTime::ZERO);
        let (b, _) = broadcast(&mut e, 1, &positions, SimTime::ZERO);
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
        assert_eq!(a[0].rx_power, b[0].rx_power);
    }

    #[test]
    fn loss_model_filters_deliveries() {
        let mut e = lossy(1.0, 1);
        let positions = [Vec2::ZERO, Vec2::new(10.0, 0.0)];
        let (rx, lost) = broadcast(&mut e, 0, &positions, SimTime::ZERO);
        assert!(rx.is_empty());
        assert_eq!(lost, vec![NodeId::new(1)]);
    }

    #[test]
    fn lost_holds_in_range_drops_only() {
        let mut e = lossy(1.0, 1);
        let positions = [Vec2::ZERO, Vec2::new(10.0, 0.0), Vec2::new(500.0, 0.0)];
        let (rx, lost) = broadcast(&mut e, 0, &positions, SimTime::ZERO);
        assert!(rx.is_empty());
        // n1 was in range and dropped; out-of-range n2 is not a "loss".
        assert_eq!(lost, vec![NodeId::new(1)]);
        // With a coin-flip channel every in-range candidate either
        // delivered or was lost, and nothing else appears.
        let mut e = lossy(0.5, 7);
        let positions = [
            Vec2::ZERO,
            Vec2::new(10.0, 0.0),
            Vec2::new(20.0, 0.0),
            Vec2::new(400.0, 0.0),
        ];
        for step in 0..20u64 {
            let at = SimTime::from_secs(step);
            let (rx, lost) = broadcast(&mut e, 0, &positions, at);
            let mut heard: Vec<NodeId> = rx.iter().map(|d| d.receiver).chain(lost).collect();
            heard.sort_unstable();
            assert_eq!(heard, vec![NodeId::new(1), NodeId::new(2)], "step={step}");
        }
    }

    #[test]
    fn dirty_buffers_are_cleared() {
        // A deliberately filthy scratch pair must never leak stale
        // entries: each call reports exactly what a fresh pair would.
        let positions = [
            Vec2::ZERO,
            Vec2::new(10.0, 0.0),
            Vec2::new(95.0, 0.0),
            Vec2::new(400.0, 0.0),
        ];
        let candidates = all_nodes(&positions);
        let (mut fresh_e, mut dirty_e) = (lossy(0.5, 11), lossy(0.5, 11));
        let stale = Delivery {
            receiver: NodeId::new(77),
            rx_power: Dbm::new(0.0),
        };
        let mut out = vec![stale; 13];
        let mut lost = vec![NodeId::new(88); 9];
        for step in 0..30u64 {
            let at = SimTime::from_secs(step);
            let (want_out, want_lost) = broadcast(&mut fresh_e, 0, &positions, at);
            dirty_e.broadcast_among_into(
                NodeId::new(0),
                positions[0],
                &candidates,
                at,
                &mut out,
                &mut lost,
            );
            assert_eq!(out, want_out, "step={step}");
            assert_eq!(lost, want_lost, "step={step}");
            // Leave the scratch dirty again for the next call.
            out.push(stale);
            lost.push(NodeId::new(66));
        }
    }

    #[test]
    fn measured_power_matches_radio_prediction() {
        let mut e = engine();
        let positions = [Vec2::ZERO, Vec2::new(30.0, 40.0)]; // d = 50
        let (rx, _) = broadcast(&mut e, 0, &positions, SimTime::ZERO);
        assert_eq!(rx[0].rx_power, e.radio().rx_power(50.0));
    }

    /// The property the runner's fast path rests on: with a
    /// deterministic channel, the candidates a `GridIndex` query
    /// returns at the nominal range plus any slack, sorted by id,
    /// yield exactly the deliveries and losses of the all-node list,
    /// and leave a stateful loss model at the same stream position
    /// after every broadcast.
    #[test]
    fn grid_query_candidates_match_all_node_candidates() {
        for case in 0..256u64 {
            let mut rng = SeedSplitter::new(case).stream("grid-query-candidates", 0);
            let n = rng.gen_range(2..48usize);
            let positions: Vec<Vec2> = (0..n)
                .map(|_| Vec2::new(rng.gen_range(0.0..700.0), rng.gen_range(0.0..700.0)))
                .collect();
            let slack = rng.gen_range(0.0..60.0);
            let seed = rng.gen_range(0u64..1000);
            let p_loss = rng.gen_range(0.0..1.0);
            let (mut brute, mut indexed) = (lossy(p_loss, seed), lossy(p_loss, seed));
            let radius = radio().nominal_range_m() + 0.5 + slack;
            let index = GridIndex::build(Rect::square(700.0), radius, &positions);
            let all = all_nodes(&positions);
            let (mut b_out, mut b_lost) = (Vec::new(), Vec::new());
            let (mut i_out, mut i_lost) = (Vec::new(), Vec::new());
            let mut ids = Vec::new();
            let mut candidates = Vec::new();
            for step in 0..2 * n {
                let tx = step % n;
                let at = SimTime::from_secs(step as u64);
                ids.clear();
                index.for_each_within(positions[tx], radius, |i| ids.push(i));
                ids.sort_unstable();
                candidates.clear();
                candidates.extend(
                    ids.iter()
                        .filter(|&&i| i != tx)
                        .map(|&i| (NodeId::new(i as u32), positions[i])),
                );
                let txid = NodeId::new(tx as u32);
                brute.broadcast_among_into(txid, positions[tx], &all, at, &mut b_out, &mut b_lost);
                indexed.broadcast_among_into(
                    txid,
                    positions[tx],
                    &candidates,
                    at,
                    &mut i_out,
                    &mut i_lost,
                );
                assert_eq!(i_out, b_out, "case {case} step {step}");
                assert_eq!(i_lost, b_lost, "case {case} step {step}");
                assert_eq!(
                    indexed.loss().save_state(),
                    brute.loss().save_state(),
                    "loss stream position, case {case} step {step}"
                );
            }
        }
    }
}
