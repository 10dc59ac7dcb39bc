//! Packet-loss models.
//!
//! The paper counts only MAC-successful receptions and its hello load
//! is far below channel saturation, so the faithful default is
//! [`NoLoss`]. The stochastic models here drive the robustness
//! ablations: how does the mobility metric — which needs *two
//! successive* receptions per neighbor — degrade when hellos drop?

use rand::Rng;
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};

use mobic_sim::SimTime;

use crate::NodeId;

/// Serializable live state of a [`LossModel`], captured for
/// checkpointing and restored on resume.
///
/// Stream *positions* are stored, never seeds: the resuming run
/// rebuilds the model from its config and seed (which fixes the
/// ChaCha key) and then fast-forwards the stream to the saved word
/// position, so post-resume draws continue the uninterrupted run's
/// sequence exactly. The 128-bit word position is split into
/// `(hi, lo)` halves because JSON has no native 128-bit integer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum LossState {
    /// No live state (e.g. [`NoLoss`]): nothing to restore.
    Stateless,
    /// A single RNG stream position ([`Bernoulli`]).
    Rng {
        /// ChaCha word position as `(hi, lo)` 64-bit halves.
        word_pos: (u64, u64),
    },
    /// RNG stream position plus per-link burst state
    /// ([`GilbertElliott`]). Links are stored as
    /// `(tx, rx, in_bad_state)` in ascending `(tx, rx)` order — the
    /// model's rows walked by transmitter, each by receiver — so
    /// serialization is canonical.
    Burst {
        /// ChaCha word position as `(hi, lo)` 64-bit halves.
        word_pos: (u64, u64),
        /// Per-directed-link Good/Bad state, key-sorted.
        bad: Vec<(u32, u32, bool)>,
    },
}

/// Splits a ChaCha word position into JSON-friendly 64-bit halves.
fn word_pos_parts(rng: &ChaCha12Rng) -> (u64, u64) {
    let pos = rng.get_word_pos();
    ((pos >> 64) as u64, pos as u64)
}

/// Rejoins the halves produced by [`word_pos_parts`].
fn join_word_pos(hi: u64, lo: u64) -> u128 {
    (u128::from(hi) << 64) | u128::from(lo)
}

/// Decides, per transmitted packet and receiver, whether the packet
/// survives the channel/MAC (beyond deterministic range filtering,
/// which the delivery engine already applies).
pub trait LossModel {
    /// Returns `true` if the packet from `tx` is delivered to `rx`
    /// at time `at`.
    fn delivered(&mut self, tx: NodeId, rx: NodeId, at: SimTime) -> bool;

    /// Batched [`delivered`](Self::delivered): one verdict per receiver
    /// in `rxs`, written into `verdicts` (cleared first) in order.
    ///
    /// Calls `delivered` for each receiver in order, so the verdicts
    /// and the model's RNG consumption match the per-candidate queries
    /// the delivery engine makes. Benchmarks use it to time a loss
    /// model on its own over whole candidate lists.
    fn delivered_batch(
        &mut self,
        tx: NodeId,
        rxs: &[NodeId],
        at: SimTime,
        verdicts: &mut Vec<bool>,
    ) {
        verdicts.clear();
        verdicts.reserve(rxs.len());
        for &rx in rxs {
            verdicts.push(self.delivered(tx, rx, at));
        }
    }

    /// Captures the model's live state for a checkpoint. The default
    /// reports [`LossState::Stateless`], correct for models that draw
    /// no randomness and hold no per-link memory.
    fn save_state(&self) -> LossState {
        LossState::Stateless
    }

    /// Restores state captured by [`save_state`](Self::save_state)
    /// onto a freshly rebuilt model (same config, same seed). A
    /// variant that does not match the model is ignored — the
    /// embedding layer guarantees matching model kinds by rebuilding
    /// from the same config the snapshot was taken under.
    fn restore_state(&mut self, state: &LossState) {
        let _ = state;
    }
}

impl<L: LossModel + ?Sized> LossModel for Box<L> {
    fn delivered(&mut self, tx: NodeId, rx: NodeId, at: SimTime) -> bool {
        (**self).delivered(tx, rx, at)
    }

    fn save_state(&self) -> LossState {
        (**self).save_state()
    }

    fn restore_state(&mut self, state: &LossState) {
        (**self).restore_state(state);
    }
}

impl<L: LossModel + ?Sized> LossModel for &mut L {
    fn delivered(&mut self, tx: NodeId, rx: NodeId, at: SimTime) -> bool {
        (**self).delivered(tx, rx, at)
    }

    fn save_state(&self) -> LossState {
        (**self).save_state()
    }

    fn restore_state(&mut self, state: &LossState) {
        (**self).restore_state(state);
    }
}

/// Perfect channel — every in-range packet is delivered. The paper's
/// operating assumption.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoLoss;

impl LossModel for NoLoss {
    fn delivered(&mut self, _tx: NodeId, _rx: NodeId, _at: SimTime) -> bool {
        true
    }
}

/// Independent (Bernoulli) loss: each packet is dropped with
/// probability `p`, independently across packets and links.
///
/// # Examples
///
/// ```
/// use mobic_net::{loss::{Bernoulli, LossModel}, NodeId};
/// use mobic_sim::{rng::SeedSplitter, SimTime};
///
/// let mut m = Bernoulli::new(0.5, SeedSplitter::new(1).stream("loss", 0));
/// let mut delivered = 0;
/// for i in 0..1000 {
///     if m.delivered(NodeId::new(0), NodeId::new(1), SimTime::from_secs(i)) {
///         delivered += 1;
///     }
/// }
/// assert!(delivered > 400 && delivered < 600);
/// ```
#[derive(Debug, Clone)]
pub struct Bernoulli {
    p_loss: f64,
    rng: ChaCha12Rng,
}

impl Bernoulli {
    /// Creates the model with loss probability `p_loss ∈ [0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `p_loss` is outside `[0, 1]`.
    #[must_use]
    pub fn new(p_loss: f64, rng: ChaCha12Rng) -> Self {
        assert!(
            (0.0..=1.0).contains(&p_loss),
            "loss probability must be in [0, 1], got {p_loss}"
        );
        Bernoulli { p_loss, rng }
    }

    /// The loss probability.
    #[must_use]
    pub fn p_loss(&self) -> f64 {
        self.p_loss
    }
}

impl LossModel for Bernoulli {
    fn delivered(&mut self, _tx: NodeId, _rx: NodeId, _at: SimTime) -> bool {
        self.rng.gen::<f64>() >= self.p_loss
    }

    fn save_state(&self) -> LossState {
        LossState::Rng {
            word_pos: word_pos_parts(&self.rng),
        }
    }

    fn restore_state(&mut self, state: &LossState) {
        if let LossState::Rng { word_pos: (hi, lo) } = *state {
            self.rng.set_word_pos(join_word_pos(hi, lo));
        }
    }
}

/// Gilbert–Elliott two-state burst-loss model, with independent state
/// per directed link.
///
/// Each link is either *Good* (loss probability `loss_good`) or *Bad*
/// (loss probability `loss_bad`); at every packet the link first
/// transitions Good→Bad with probability `p_gb` or Bad→Good with
/// probability `p_bg`. Bursty loss is the worst case for the
/// "two successive hellos" requirement, making this the stress model
/// for the MOBIC metric.
///
/// # Layout
///
/// Link state lives in one row per transmitter, indexed by
/// [`NodeId::index`]: the row holds `(rx, in_bad_state)` for every
/// receiver the transmitter has reached, sorted by `rx`. A query is
/// one binary search in its transmitter's row; a link seen for the
/// first time is a sorted insert, in the Good state. Walking the rows
/// in order yields the links in ascending `(tx, rx)` order, the order
/// [`LossState::Burst`] stores them in.
#[derive(Debug, Clone)]
pub struct GilbertElliott {
    p_gb: f64,
    p_bg: f64,
    loss_good: f64,
    loss_bad: f64,
    rng: ChaCha12Rng,
    /// `links[tx]` is transmitter `tx`'s row, strictly ascending by
    /// receiver; a transmitter not yet seen may have no row.
    links: Vec<Vec<(NodeId, bool)>>,
}

/// The burst state of link `tx → rx`, inserted Good on first sight.
fn link_state(links: &mut Vec<Vec<(NodeId, bool)>>, tx: NodeId, rx: NodeId) -> &mut bool {
    let t = tx.index();
    if t >= links.len() {
        add_rows(links, t);
    }
    let row = &mut links[t];
    let k = match row.binary_search_by_key(&rx, |&(id, _)| id) {
        Ok(k) => k,
        Err(k) => {
            row.insert(k, (rx, false));
            k
        }
    };
    &mut row[k].1
}

/// Extends the row table with empty rows up to and including row `t`:
/// it grows only when a transmitter id is first seen, at most once
/// per id per run.
fn add_rows(links: &mut Vec<Vec<(NodeId, bool)>>, t: usize) {
    links.resize_with(t + 1, Vec::new);
}

impl GilbertElliott {
    /// Creates the model. All probabilities must lie in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1]`.
    #[must_use]
    pub fn new(p_gb: f64, p_bg: f64, loss_good: f64, loss_bad: f64, rng: ChaCha12Rng) -> Self {
        for (name, p) in [
            ("p_gb", p_gb),
            ("p_bg", p_bg),
            ("loss_good", loss_good),
            ("loss_bad", loss_bad),
        ] {
            assert!(
                (0.0..=1.0).contains(&p),
                "{name} must be in [0, 1], got {p}"
            );
        }
        GilbertElliott {
            p_gb,
            p_bg,
            loss_good,
            loss_bad,
            rng,
            links: Vec::new(),
        }
    }

    /// A typical mildly bursty configuration: 2% chance of entering a
    /// bad burst, 30% chance of leaving it, lossless when good, 80%
    /// loss when bad.
    #[must_use]
    pub fn mildly_bursty(rng: ChaCha12Rng) -> Self {
        Self::new(0.02, 0.3, 0.0, 0.8, rng)
    }
}

impl LossModel for GilbertElliott {
    fn delivered(&mut self, tx: NodeId, rx: NodeId, _at: SimTime) -> bool {
        let state = link_state(&mut self.links, tx, rx);
        // Transition first, then sample loss in the new state.
        let flip: f64 = self.rng.gen();
        if *state {
            if flip < self.p_bg {
                *state = false;
            }
        } else if flip < self.p_gb {
            *state = true;
        }
        let loss = if *state {
            self.loss_bad
        } else {
            self.loss_good
        };
        self.rng.gen::<f64>() >= loss
    }

    fn save_state(&self) -> LossState {
        LossState::Burst {
            word_pos: word_pos_parts(&self.rng),
            bad: self
                .links
                .iter()
                .zip(0u32..)
                .flat_map(|(row, tx)| row.iter().map(move |&(rx, b)| (tx, rx.value(), b)))
                .collect(),
        }
    }

    fn restore_state(&mut self, state: &LossState) {
        if let LossState::Burst {
            word_pos: (hi, lo),
            bad,
        } = state
        {
            self.rng.set_word_pos(join_word_pos(*hi, *lo));
            // One upsert per entry: an unsorted list sorts itself, and
            // of a link listed twice the later entry wins.
            self.links.clear();
            for &(tx, rx, b) in bad {
                *link_state(&mut self.links, NodeId::new(tx), NodeId::new(rx)) = b;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use mobic_sim::rng::SeedSplitter;

    fn rng(i: u64) -> ChaCha12Rng {
        SeedSplitter::new(31).stream("loss-test", i)
    }

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn no_loss_always_delivers() {
        let mut m = NoLoss;
        for i in 0..100 {
            assert!(m.delivered(n(0), n(1), SimTime::from_secs(i)));
        }
    }

    #[test]
    fn bernoulli_extremes() {
        let mut never = Bernoulli::new(1.0, rng(0));
        let mut always = Bernoulli::new(0.0, rng(1));
        for i in 0..100 {
            assert!(!never.delivered(n(0), n(1), SimTime::from_secs(i)));
            assert!(always.delivered(n(0), n(1), SimTime::from_secs(i)));
        }
    }

    #[test]
    fn bernoulli_rate_matches_p() {
        let mut m = Bernoulli::new(0.2, rng(2));
        let trials = 20_000;
        let delivered = (0..trials)
            .filter(|&i| m.delivered(n(0), n(1), SimTime::from_secs(i)))
            .count();
        let rate = delivered as f64 / trials as f64;
        assert!((rate - 0.8).abs() < 0.01, "rate {rate}");
        assert_eq!(m.p_loss(), 0.2);
    }

    #[test]
    #[should_panic(expected = "[0, 1]")]
    fn bernoulli_rejects_bad_probability() {
        let _ = Bernoulli::new(1.5, rng(0));
    }

    #[test]
    fn gilbert_elliott_produces_bursts() {
        let mut m = GilbertElliott::new(0.05, 0.2, 0.0, 1.0, rng(3));
        // Count the longest loss run; with full loss in bad state and
        // expected bad-state dwell of 5 packets, runs of >= 3 are
        // overwhelmingly likely across 10k packets.
        let mut longest = 0;
        let mut run = 0;
        for i in 0..10_000 {
            if m.delivered(n(0), n(1), SimTime::from_secs(i)) {
                run = 0;
            } else {
                run += 1;
                longest = longest.max(run);
            }
        }
        assert!(longest >= 3, "longest loss burst {longest}");
    }

    #[test]
    fn gilbert_elliott_links_are_independent() {
        let mut m = GilbertElliott::new(0.5, 0.01, 0.0, 1.0, rng(4));
        // Drive link (0,1) into the bad state; link (2,3) should still
        // deliver at its own statistics, not inherit the state.
        let mut link_a = 0;
        let mut link_b = 0;
        for i in 0..2000 {
            if m.delivered(n(0), n(1), SimTime::from_secs(i)) {
                link_a += 1;
            }
            if m.delivered(n(2), n(3), SimTime::from_secs(i)) {
                link_b += 1;
            }
        }
        // Both settle near the stationary rate; equality of fate would
        // show up as perfectly correlated counts. Just check both saw
        // some deliveries and some losses.
        for (name, v) in [("a", link_a), ("b", link_b)] {
            assert!(v > 0 && v < 2000, "link {name}: {v}");
        }
    }

    #[test]
    fn gilbert_elliott_good_state_lossless_config() {
        let mut m = GilbertElliott::new(0.0, 1.0, 0.0, 1.0, rng(5));
        // p_gb = 0: never leaves Good; loss_good = 0: no loss at all.
        for i in 0..500 {
            assert!(m.delivered(n(0), n(1), SimTime::from_secs(i)));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = Bernoulli::new(0.3, rng(6));
        let mut b = Bernoulli::new(0.3, rng(6));
        for i in 0..200 {
            assert_eq!(
                a.delivered(n(0), n(1), SimTime::from_secs(i)),
                b.delivered(n(0), n(1), SimTime::from_secs(i))
            );
        }
    }

    /// Runs the same broadcast sequence through the scalar loop and
    /// through `delivered_batch` and asserts both the verdicts and the
    /// post-sequence RNG state agree (the latter checked by continuing
    /// each model scalar afterwards): the batch helper a benchmark
    /// times must measure exactly the per-candidate queries.
    fn assert_batch_parity<L: LossModel>(mut scalar: L, mut batched: L) {
        let mut verdicts = vec![true; 3]; // stale content must be cleared
        for round in 0..40u64 {
            let at = SimTime::from_secs(round);
            let tx = n((round % 5) as u32);
            let rxs: Vec<NodeId> = (0..(round % 7)).map(|i| n(10 + i as u32)).collect();
            let expected: Vec<bool> = rxs.iter().map(|&rx| scalar.delivered(tx, rx, at)).collect();
            batched.delivered_batch(tx, &rxs, at, &mut verdicts);
            assert_eq!(verdicts, expected, "round {round}");
        }
        // Identical residual RNG state: the next scalar draws agree.
        for i in 0..50 {
            assert_eq!(
                scalar.delivered(n(0), n(1), SimTime::from_secs(i)),
                batched.delivered(n(0), n(1), SimTime::from_secs(i)),
                "post-batch draw {i}"
            );
        }
    }

    #[test]
    fn bernoulli_batch_consumes_rng_like_scalar() {
        assert_batch_parity(Bernoulli::new(0.5, rng(7)), Bernoulli::new(0.5, rng(7)));
    }

    #[test]
    fn no_loss_batch_is_all_true() {
        assert_batch_parity(NoLoss, NoLoss);
        let mut verdicts = vec![false; 1];
        NoLoss.delivered_batch(n(0), &[n(1), n(2)], SimTime::ZERO, &mut verdicts);
        assert_eq!(verdicts, vec![true, true]);
    }

    #[test]
    fn gilbert_elliott_batch_keeps_default_scalar_order() {
        let mk = || GilbertElliott::mildly_bursty(rng(8));
        assert_batch_parity(mk(), mk());
    }

    #[test]
    fn boxed_dyn_batch_consumes_rng_like_scalar() {
        // The benchmark times a `Box<dyn LossModel>`: its batch must
        // reach the concrete model's draws through `delivered`.
        let scalar: Box<dyn LossModel> = Box::new(Bernoulli::new(0.4, rng(9)));
        let batched: Box<dyn LossModel> = Box::new(Bernoulli::new(0.4, rng(9)));
        assert_batch_parity(scalar, batched);
    }

    /// Drives `original` for a prefix, checkpoints it, restores onto a
    /// freshly seeded clone, and checks both produce identical
    /// verdicts for a long suffix — the loss-model half of the resume
    /// byte-identity argument.
    fn assert_save_restore_continues<L: LossModel>(mut original: L, mut rebuilt: L) {
        for i in 0..137 {
            let _ = original.delivered(n((i % 4) as u32), n(1), SimTime::from_secs(i));
        }
        let state = original.save_state();
        // Serde round-trip: the state must survive a JSON hop intact.
        let json = serde_json::to_string(&state).unwrap();
        let state: LossState = serde_json::from_str(&json).unwrap();
        rebuilt.restore_state(&state);
        for i in 0..300 {
            let tx = n((i % 6) as u32);
            assert_eq!(
                original.delivered(tx, n(1), SimTime::from_secs(i)),
                rebuilt.delivered(tx, n(1), SimTime::from_secs(i)),
                "post-restore draw {i}"
            );
        }
    }

    #[test]
    fn bernoulli_save_restore_continues_stream() {
        assert_save_restore_continues(Bernoulli::new(0.35, rng(10)), Bernoulli::new(0.35, rng(10)));
    }

    #[test]
    fn gilbert_elliott_save_restore_continues_stream_and_links() {
        assert_save_restore_continues(
            GilbertElliott::mildly_bursty(rng(11)),
            GilbertElliott::mildly_bursty(rng(11)),
        );
    }

    #[test]
    fn save_restore_forwards_through_box() {
        let original: Box<dyn LossModel> = Box::new(GilbertElliott::mildly_bursty(rng(12)));
        let rebuilt: Box<dyn LossModel> = Box::new(GilbertElliott::mildly_bursty(rng(12)));
        // A Box must delegate to the concrete model's state, not the
        // trait default: a stateless verdict here would silently skip
        // the restore.
        assert!(!matches!(original.save_state(), LossState::Stateless));
        assert_save_restore_continues(original, rebuilt);
    }

    #[test]
    fn no_loss_state_is_stateless() {
        assert_eq!(NoLoss.save_state(), LossState::Stateless);
        let mut m = NoLoss;
        m.restore_state(&LossState::Rng { word_pos: (0, 99) });
        assert!(m.delivered(n(0), n(1), SimTime::ZERO));
    }

    /// The `BTreeMap`-keyed model the per-transmitter rows replaced,
    /// kept verbatim as their oracle.
    #[derive(Debug, Clone)]
    struct BTreeGilbertElliott {
        p_gb: f64,
        p_bg: f64,
        loss_good: f64,
        loss_bad: f64,
        rng: ChaCha12Rng,
        bad: BTreeMap<(NodeId, NodeId), bool>,
    }

    impl BTreeGilbertElliott {
        fn new(p_gb: f64, p_bg: f64, loss_good: f64, loss_bad: f64, rng: ChaCha12Rng) -> Self {
            BTreeGilbertElliott {
                p_gb,
                p_bg,
                loss_good,
                loss_bad,
                rng,
                bad: BTreeMap::new(),
            }
        }
    }

    impl LossModel for BTreeGilbertElliott {
        fn delivered(&mut self, tx: NodeId, rx: NodeId, _at: SimTime) -> bool {
            let state = self.bad.entry((tx, rx)).or_insert(false);
            // Transition first, then sample loss in the new state.
            let flip: f64 = self.rng.gen();
            if *state {
                if flip < self.p_bg {
                    *state = false;
                }
            } else if flip < self.p_gb {
                *state = true;
            }
            let loss = if *state {
                self.loss_bad
            } else {
                self.loss_good
            };
            self.rng.gen::<f64>() >= loss
        }

        fn save_state(&self) -> LossState {
            LossState::Burst {
                word_pos: word_pos_parts(&self.rng),
                bad: self
                    .bad
                    .iter()
                    .map(|(&(tx, rx), &b)| (tx.value(), rx.value(), b))
                    .collect(),
            }
        }

        fn restore_state(&mut self, state: &LossState) {
            if let LossState::Burst {
                word_pos: (hi, lo),
                bad,
            } = state
            {
                self.rng.set_word_pos(join_word_pos(*hi, *lo));
                self.bad = bad
                    .iter()
                    .map(|&(tx, rx, b)| ((NodeId::new(tx), NodeId::new(rx)), b))
                    .collect();
            }
        }
    }

    /// The rows give every verdict, and every saved state, the B-tree
    /// gives: random hellos (a random transmitter heard by an
    /// ascending subset of up to 40 nodes) drive both models from one
    /// seed, and at random points both states are compared and a
    /// fresh model restored from them joins the run.
    #[test]
    fn flat_rows_match_btree_oracle() {
        for case in 0..128u64 {
            let mut rng = SeedSplitter::new(case).stream("gilbert-elliott-rows", 0);
            let n = rng.gen_range(2..=40u32);
            let hearing = rng.gen_range(0.05..1.0);
            let [p_gb, p_bg, loss_good, loss_bad] = [(); 4].map(|()| rng.gen_range(0.0..=1.0));
            let seed = rng.gen::<u64>();
            let stream = || SeedSplitter::new(seed).stream("loss", 0);
            let mut flat = GilbertElliott::new(p_gb, p_bg, loss_good, loss_bad, stream());
            let mut oracle = BTreeGilbertElliott::new(p_gb, p_bg, loss_good, loss_bad, stream());
            let mut resumed: Option<GilbertElliott> = None;
            for hello in 0..300u64 {
                let tx = rng.gen_range(0..n);
                let at = SimTime::from_secs(hello);
                for rx in (0..n).filter(|&rx| rx != tx) {
                    if !rng.gen_bool(hearing) {
                        continue;
                    }
                    let (tx, rx) = (NodeId::new(tx), NodeId::new(rx));
                    let want = oracle.delivered(tx, rx, at);
                    assert_eq!(
                        flat.delivered(tx, rx, at),
                        want,
                        "case {case} hello {hello}: {tx}->{rx}"
                    );
                    if let Some(r) = resumed.as_mut() {
                        let got = r.delivered(tx, rx, at);
                        assert_eq!(got, want, "resumed, case {case} hello {hello}: {tx}->{rx}");
                    }
                }
                if rng.gen_range(0..25) == 0 {
                    let state = oracle.save_state();
                    assert_eq!(flat.save_state(), state, "case {case} hello {hello}");
                    if let Some(r) = &resumed {
                        assert_eq!(r.save_state(), state, "resumed, case {case} hello {hello}");
                    }
                    let mut fresh = GilbertElliott::new(p_gb, p_bg, loss_good, loss_bad, stream());
                    fresh.restore_state(&state);
                    resumed = Some(fresh);
                }
            }
            let state = oracle.save_state();
            assert_eq!(flat.save_state(), state, "case {case} at the end");
            if let Some(r) = &resumed {
                assert_eq!(r.save_state(), state, "resumed, case {case} at the end");
            }
        }
    }

    /// A hand-edited or foreign state may list links out of order and
    /// more than once: it loads as the B-tree's `collect` loaded it,
    /// sorted, with the later of two entries for a link winning.
    #[test]
    fn unsorted_state_with_a_duplicate_restores_like_the_btree() {
        let bad = vec![
            (3, 1, true),
            (0, 2, false),
            (3, 0, false),
            (1, 4, true),
            (3, 1, false),
            (0, 1, true),
            (5, 2, true),
        ];
        let state = LossState::Burst {
            word_pos: (0, 48),
            bad,
        };
        let mut flat = GilbertElliott::new(0.2, 0.3, 0.1, 0.9, rng(13));
        let mut oracle = BTreeGilbertElliott::new(0.2, 0.3, 0.1, 0.9, rng(13));
        flat.restore_state(&state);
        oracle.restore_state(&state);
        let LossState::Burst { bad, .. } = flat.save_state() else {
            panic!("a Gilbert–Elliott model saves a burst state");
        };
        assert_eq!(
            bad,
            vec![
                (0, 1, true),
                (0, 2, false),
                (1, 4, true),
                (3, 0, false),
                (3, 1, false),
                (5, 2, true),
            ]
        );
        assert_eq!(flat.save_state(), oracle.save_state());
        for i in 0..200u32 {
            let (tx, rx) = (n(i % 6), n((i / 6) % 6));
            let at = SimTime::from_secs(u64::from(i));
            assert_eq!(
                flat.delivered(tx, rx, at),
                oracle.delivered(tx, rx, at),
                "draw {i}"
            );
        }
        assert_eq!(flat.save_state(), oracle.save_state());
    }
}
