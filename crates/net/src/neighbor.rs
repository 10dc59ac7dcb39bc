//! Neighbor tables with received-power history.

use std::collections::BTreeMap;

use mobic_radio::Dbm;
use mobic_sim::SimTime;
use serde::{Deserialize, Serialize};

use crate::{Hello, NodeId};

/// One timestamped received-power measurement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerSample {
    /// When the hello was received.
    pub at: SimTime,
    /// Received power (`RxPr`).
    pub power: Dbm,
    /// The sender's sequence number of that hello.
    pub seq: u64,
}

/// Everything a node knows about one neighbor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NeighborEntry<P> {
    /// Most recent measurement.
    pub last: PowerSample,
    /// The measurement before that, if any.
    pub prev: Option<PowerSample>,
    /// Payload of the most recent hello (the neighbor's advert).
    pub payload: P,
}

impl<P> NeighborEntry<P> {
    /// The last two measurements, **only if** they came from
    /// consecutive sequence numbers — the paper's "two successive
    /// transmissions" requirement. A lost hello in between makes the
    /// pair non-successive and the neighbor is excluded from the
    /// mobility-metric calculation until two fresh back-to-back hellos
    /// arrive.
    #[must_use]
    pub fn successive_pair(&self) -> Option<(PowerSample, PowerSample)> {
        let prev = self.prev?;
        (self.last.seq == prev.seq + 1).then_some((prev, self.last))
    }
}

/// A node's view of its 1-hop neighborhood.
///
/// Records each successfully received [`Hello`] together with its
/// measured received power, keeps the last two power samples per
/// neighbor, and expires entries that miss hellos for longer than the
/// timeout period (`TP` in Table 1).
///
/// # Layout
///
/// Two parallel vectors kept sorted by [`NodeId`]: `ids` and, at the
/// same index, the neighbor's entry. A reception is one binary search
/// over the packed ids; a new neighbor shifts the tail of both
/// vectors; an expiry compacts both in one order-keeping pass.
/// Iteration order is by id, which keeps every downstream computation
/// deterministic.
///
/// Capacity is a policy, not `Vec`'s default. A table allocates
/// nothing until its first neighbor arrives; from then on both
/// vectors hold the same capacity, a step of the ladder 8, 12, 16,
/// 24, 32, 48, … (the powers of two and the midpoints between them).
/// A full table grows to the next step above its length, and
/// [`reserve`](Self::reserve) jumps straight to a larger step; a
/// removal that leaves `len · 3 ≤ capacity` (above 8) shrinks it to
/// the smallest step that holds `len`. (A clone is sized to its
/// length and rejoins the ladder at its first growth.)
///
/// The table has no serde form of its own. A snapshot stores it as a
/// [`NeighborTableWire`], the id-keyed map this type held before the
/// flat layout, so snapshot bytes did not move.
///
/// # Examples
///
/// ```
/// use mobic_net::{Hello, NeighborTable, NodeId};
/// use mobic_radio::Dbm;
/// use mobic_sim::SimTime;
///
/// let mut table: NeighborTable<f64> = NeighborTable::new(SimTime::from_secs(3));
/// let t0 = SimTime::from_secs(10);
/// table.record(t0, Dbm::new(-60.0), &Hello { sender: NodeId::new(2), seq: 5, payload: 0.1 });
/// table.record(t0 + SimTime::from_secs(2), Dbm::new(-58.0),
///              &Hello { sender: NodeId::new(2), seq: 6, payload: 0.2 });
/// let entry = table.get(NodeId::new(2)).unwrap();
/// let (old, new) = entry.successive_pair().unwrap();
/// assert!(new.power > old.power); // neighbor approaching
/// ```
#[derive(Debug, Clone)]
pub struct NeighborTable<P> {
    timeout: SimTime,
    /// Neighbor ids, strictly ascending.
    ids: Vec<NodeId>,
    /// `slots[k]` is the entry of `ids[k]`.
    slots: Vec<NeighborEntry<P>>,
}

/// The smallest step of the capacity ladder (8, 12, 16, 24, …) that
/// holds `len` entries.
fn ladder_step(len: usize) -> usize {
    let mut step = 8;
    while step < len {
        // 2^k → 1.5·2^k → 2^(k+1): a power of two grows by half, a
        // midpoint by a third.
        step += if step.is_power_of_two() {
            step / 2
        } else {
            step / 3
        };
    }
    step
}

impl<P> NeighborTable<P> {
    /// Creates an empty table with the given entry timeout (`TP`).
    ///
    /// # Panics
    ///
    /// Panics if `timeout` is zero.
    #[must_use]
    pub fn new(timeout: SimTime) -> Self {
        assert!(!timeout.is_zero(), "neighbor timeout must be positive");
        NeighborTable {
            timeout,
            ids: Vec::new(),
            slots: Vec::new(),
        }
    }

    /// The configured timeout period.
    #[must_use]
    pub fn timeout(&self) -> SimTime {
        self.timeout
    }

    /// Records a successfully received hello with its measured power.
    /// Out-of-order or duplicate receptions (sequence number not
    /// greater than the last recorded one) are ignored.
    pub fn record(&mut self, at: SimTime, power: Dbm, hello: &Hello<P>)
    where
        P: Clone,
    {
        let sample = PowerSample {
            at,
            power,
            seq: hello.seq,
        };
        match self.ids.binary_search(&hello.sender) {
            Ok(k) => {
                let e = &mut self.slots[k];
                if hello.seq <= e.last.seq {
                    return;
                }
                e.prev = Some(e.last);
                e.last = sample;
                e.payload = hello.payload.clone();
            }
            Err(k) => self.insert(k, hello.sender, sample, hello.payload.clone()),
        }
    }

    /// Inserts a first sample for `id` at sorted position `k`, growing
    /// a full table one ladder step first.
    fn insert(&mut self, k: usize, id: NodeId, last: PowerSample, payload: P) {
        let len = self.ids.len();
        if len == self.ids.capacity() {
            let extra = ladder_step(len + 1) - len;
            self.ids.reserve_exact(extra);
            self.slots.reserve_exact(extra);
        }
        self.ids.insert(k, id);
        self.slots.insert(
            k,
            NeighborEntry {
                last,
                prev: None,
                payload,
            },
        );
    }

    /// Grows the capacity to the smallest ladder step that holds
    /// `neighbors` entries, if it is below that. A caller that knows
    /// roughly how many neighbors an empty table will gain calls this
    /// first, so the table allocates once instead of once per step.
    pub fn reserve(&mut self, neighbors: usize) {
        let step = ladder_step(neighbors);
        let len = self.ids.len();
        if self.ids.capacity() < step {
            self.ids.reserve_exact(step - len);
            self.slots.reserve_exact(step - len);
        }
    }

    /// Shrinks a table that a removal left at most a third full to the
    /// smallest ladder step that holds it.
    fn shrink_if_sparse(&mut self) {
        let (len, cap) = (self.ids.len(), self.ids.capacity());
        if cap > 8 && len * 3 <= cap {
            let step = ladder_step(len);
            self.ids.shrink_to(step);
            self.slots.shrink_to(step);
        }
    }

    /// Drops every entry whose last hello is older than the timeout
    /// relative to `now`, in one pass that keeps the survivors in id
    /// order, calling `dead` with each dropped id. Returns how many
    /// died.
    fn retain_live(&mut self, now: SimTime, mut dead: impl FnMut(NodeId)) -> usize {
        let len = self.ids.len();
        let mut kept = 0;
        for k in 0..len {
            if now.saturating_sub(self.slots[k].last.at) > self.timeout {
                dead(self.ids[k]);
                continue;
            }
            // Every index in kept..k holds a dead entry: swapping one
            // behind the survivor keeps the survivors in order.
            if kept < k {
                self.ids.swap(kept, k);
                self.slots.swap(kept, k);
            }
            kept += 1;
        }
        if kept < len {
            self.ids.truncate(kept);
            self.slots.truncate(kept);
            self.shrink_if_sparse();
        }
        len - kept
    }

    /// Removes entries whose last hello is older than the timeout
    /// relative to `now`, returning the expired neighbor ids. The event
    /// loop calls the allocation-free [`expire_count`](Self::expire_count).
    pub fn expire(&mut self, now: SimTime) -> Vec<NodeId> {
        let mut dead = Vec::new();
        self.retain_live(now, |id| dead.push(id));
        dead
    }

    /// Allocation-free [`expire`](Self::expire): removes the same
    /// entries for the same `now` but returns only how many died,
    /// never building the id list. The hot loop uses this; `expire`
    /// remains for callers that need to know *who* vanished.
    pub fn expire_count(&mut self, now: SimTime) -> usize {
        self.retain_live(now, |_| {})
    }

    /// The entry for `id`, if present.
    #[must_use]
    pub fn get(&self, id: NodeId) -> Option<&NeighborEntry<P>> {
        self.ids.binary_search(&id).ok().map(|k| &self.slots[k])
    }

    /// `true` if `id` is currently a (non-expired) neighbor.
    #[must_use]
    pub fn contains(&self, id: NodeId) -> bool {
        self.ids.binary_search(&id).is_ok()
    }

    /// Number of live neighbors — the node's *degree*, the weight of
    /// the max-connectivity baseline algorithm.
    #[must_use]
    pub fn degree(&self) -> usize {
        self.ids.len()
    }

    /// `true` if the table is empty (an isolated node).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Iterates over `(id, entry)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &NeighborEntry<P>)> {
        self.ids.iter().copied().zip(&self.slots)
    }

    /// Removes a specific neighbor (used by tests and by explicit
    /// link-failure injection).
    pub fn remove(&mut self, id: NodeId) -> Option<NeighborEntry<P>> {
        let k = self.ids.binary_search(&id).ok()?;
        self.ids.remove(k);
        let entry = self.slots.remove(k);
        self.shrink_if_sparse();
        Some(entry)
    }

    /// Drops all entries.
    pub fn clear(&mut self) {
        self.ids.clear();
        self.slots.clear();
        self.shrink_if_sparse();
    }
}

/// The serde form of a [`NeighborTable`]: its timeout and an id-keyed
/// map of its entries. This is the JSON shape snapshots have always
/// stored a table in, so the flat in-memory layout moved no snapshot
/// byte.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NeighborTableWire<P> {
    /// The table's timeout period (`TP`).
    pub timeout: SimTime,
    /// Every entry, keyed by neighbor id.
    pub entries: BTreeMap<NodeId, NeighborEntry<P>>,
}

impl<P: Clone> From<&NeighborTable<P>> for NeighborTableWire<P> {
    fn from(table: &NeighborTable<P>) -> Self {
        NeighborTableWire {
            timeout: table.timeout,
            entries: table.iter().map(|(id, e)| (id, e.clone())).collect(),
        }
    }
}

impl<P> From<NeighborTableWire<P>> for NeighborTable<P> {
    fn from(wire: NeighborTableWire<P>) -> Self {
        let len = wire.entries.len();
        let cap = if len == 0 { 0 } else { ladder_step(len) };
        let mut table = NeighborTable {
            timeout: wire.timeout,
            ids: Vec::with_capacity(cap),
            slots: Vec::with_capacity(cap),
        };
        for (id, entry) in wire.entries {
            table.ids.push(id);
            table.slots.push(entry);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hello(sender: u32, seq: u64, payload: f64) -> Hello<f64> {
        Hello {
            sender: NodeId::new(sender),
            seq,
            payload,
        }
    }

    fn table() -> NeighborTable<f64> {
        NeighborTable::new(SimTime::from_secs(3))
    }

    #[test]
    fn record_first_hello() {
        let mut t = table();
        t.record(SimTime::from_secs(1), Dbm::new(-70.0), &hello(1, 0, 0.5));
        let e = t.get(NodeId::new(1)).unwrap();
        assert_eq!(e.last.power, Dbm::new(-70.0));
        assert_eq!(e.payload, 0.5);
        assert!(e.prev.is_none());
        assert!(e.successive_pair().is_none());
        assert_eq!(t.degree(), 1);
    }

    #[test]
    fn successive_pair_requires_consecutive_seq() {
        let mut t = table();
        t.record(SimTime::from_secs(1), Dbm::new(-70.0), &hello(1, 0, 0.0));
        t.record(SimTime::from_secs(3), Dbm::new(-68.0), &hello(1, 1, 0.0));
        assert!(t.get(NodeId::new(1)).unwrap().successive_pair().is_some());
        // A gap (lost hello) breaks successiveness.
        t.record(SimTime::from_secs(7), Dbm::new(-66.0), &hello(1, 3, 0.0));
        assert!(t.get(NodeId::new(1)).unwrap().successive_pair().is_none());
        // Recovers after the next back-to-back pair.
        t.record(SimTime::from_secs(9), Dbm::new(-65.0), &hello(1, 4, 0.0));
        let (old, new) = t.get(NodeId::new(1)).unwrap().successive_pair().unwrap();
        assert_eq!(old.seq, 3);
        assert_eq!(new.seq, 4);
    }

    #[test]
    fn duplicate_and_stale_sequences_ignored() {
        let mut t = table();
        t.record(SimTime::from_secs(1), Dbm::new(-70.0), &hello(1, 5, 1.0));
        t.record(SimTime::from_secs(2), Dbm::new(-60.0), &hello(1, 5, 2.0));
        t.record(SimTime::from_secs(3), Dbm::new(-50.0), &hello(1, 4, 3.0));
        let e = t.get(NodeId::new(1)).unwrap();
        assert_eq!(e.last.seq, 5);
        assert_eq!(e.last.power, Dbm::new(-70.0));
        assert_eq!(e.payload, 1.0);
    }

    #[test]
    fn payload_tracks_latest() {
        let mut t = table();
        t.record(SimTime::from_secs(1), Dbm::new(-70.0), &hello(1, 0, 0.1));
        t.record(SimTime::from_secs(3), Dbm::new(-70.0), &hello(1, 1, 0.9));
        assert_eq!(t.get(NodeId::new(1)).unwrap().payload, 0.9);
    }

    #[test]
    fn expiry_after_timeout() {
        let mut t = table();
        t.record(SimTime::from_secs(1), Dbm::new(-70.0), &hello(1, 0, 0.0));
        t.record(SimTime::from_secs(2), Dbm::new(-70.0), &hello(2, 0, 0.0));
        // At t=4.5: n1 last seen 3.5s ago > TP=3 → expires; n2 (2.5s) survives.
        let dead = t.expire(SimTime::from_secs_f64(4.5));
        assert_eq!(dead, vec![NodeId::new(1)]);
        assert!(!t.contains(NodeId::new(1)));
        assert!(t.contains(NodeId::new(2)));
    }

    #[test]
    fn expiry_boundary_is_exclusive() {
        let mut t = table();
        t.record(SimTime::from_secs(1), Dbm::new(-70.0), &hello(1, 0, 0.0));
        // Exactly TP later: not expired (age must *exceed* TP).
        assert!(t.expire(SimTime::from_secs(4)).is_empty());
        assert!(t.contains(NodeId::new(1)));
        assert_eq!(
            t.expire(SimTime::from_micros(4_000_001)),
            vec![NodeId::new(1)]
        );
    }

    #[test]
    fn iteration_in_id_order() {
        let mut t = table();
        for id in [5, 1, 3] {
            t.record(SimTime::from_secs(1), Dbm::new(-70.0), &hello(id, 0, 0.0));
        }
        let ids: Vec<u32> = t.iter().map(|(id, _)| id.value()).collect();
        assert_eq!(ids, vec![1, 3, 5]);
    }

    #[test]
    fn remove_and_clear() {
        let mut t = table();
        t.record(SimTime::from_secs(1), Dbm::new(-70.0), &hello(1, 0, 0.0));
        t.record(SimTime::from_secs(1), Dbm::new(-70.0), &hello(2, 0, 0.0));
        assert!(t.remove(NodeId::new(1)).is_some());
        assert!(t.remove(NodeId::new(1)).is_none());
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_timeout_panics() {
        let _: NeighborTable<()> = NeighborTable::new(SimTime::ZERO);
    }

    #[test]
    fn expire_count_matches_expire() {
        let mk = || {
            let mut t = table();
            t.record(SimTime::from_secs(1), Dbm::new(-70.0), &hello(1, 0, 0.0));
            t.record(SimTime::from_secs(2), Dbm::new(-70.0), &hello(2, 0, 0.0));
            t.record(SimTime::from_secs(4), Dbm::new(-70.0), &hello(3, 0, 0.0));
            t
        };
        for now_s in [3.0, 4.0, 4.5, 5.5, 100.0] {
            let now = SimTime::from_secs_f64(now_s);
            let (mut a, mut b) = (mk(), mk());
            let dead = a.expire(now);
            assert_eq!(b.expire_count(now), dead.len(), "now={now_s}");
            let left_a: Vec<u32> = a.iter().map(|(id, _)| id.value()).collect();
            let left_b: Vec<u32> = b.iter().map(|(id, _)| id.value()).collect();
            assert_eq!(left_a, left_b, "now={now_s}");
        }
    }

    /// SplitMix64: a seeded stream for the differential test below.
    struct SplitMix64(u64);

    impl SplitMix64 {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// The id-keyed map the flat table replaced, kept as its oracle.
    struct Oracle {
        timeout: SimTime,
        map: BTreeMap<NodeId, NeighborEntry<u64>>,
    }

    impl Oracle {
        fn record(&mut self, at: SimTime, power: Dbm, h: &Hello<u64>) {
            let sample = PowerSample {
                at,
                power,
                seq: h.seq,
            };
            match self.map.get_mut(&h.sender) {
                Some(e) if h.seq <= e.last.seq => {}
                Some(e) => {
                    e.prev = Some(e.last);
                    e.last = sample;
                    e.payload = h.payload;
                }
                None => {
                    let entry = NeighborEntry {
                        last: sample,
                        prev: None,
                        payload: h.payload,
                    };
                    self.map.insert(h.sender, entry);
                }
            }
        }

        fn expire(&mut self, now: SimTime) -> Vec<NodeId> {
            let timeout = self.timeout;
            let dead: Vec<NodeId> = self
                .map
                .iter()
                .filter(|(_, e)| now.saturating_sub(e.last.at) > timeout)
                .map(|(&id, _)| id)
                .collect();
            for id in &dead {
                self.map.remove(id);
            }
            dead
        }
    }

    /// The capacity ladder, written out: 8, 12, 16, 24, 32, 48, …
    fn ladder() -> Vec<usize> {
        let mut steps: Vec<usize> = (3..20).flat_map(|k| [1 << k, 3 << (k - 1)]).collect();
        steps.sort_unstable();
        steps
    }

    /// Capacity after an operation, from the length and capacity
    /// before it, the length after it and the size it reserved.
    fn expected_capacity(
        len_before: usize,
        cap_before: usize,
        len: usize,
        reserved: usize,
    ) -> usize {
        let steps = ladder();
        let holding = |n: usize| steps.iter().copied().find(|&s| s >= n).unwrap();
        if reserved > 0 {
            cap_before.max(holding(reserved))
        } else if len > len_before && len_before == cap_before {
            holding(len_before + 1)
        } else if len < len_before && cap_before > 8 && len * 3 <= cap_before {
            holding(len)
        } else {
            cap_before
        }
    }

    #[test]
    fn flat_table_matches_btreemap_oracle() {
        let timeout = SimTime::from_secs(3);
        let steps = ladder();
        for seed in 0..4u64 {
            let mut rng = SplitMix64(seed);
            let mut t: NeighborTable<u64> = NeighborTable::new(timeout);
            let mut oracle = Oracle {
                timeout,
                map: BTreeMap::new(),
            };
            let mut now_us = 1_000_000u64;
            let (mut peak, mut grown, mut shrunk) = (0, 0, 0);
            for step in 0..6_000u32 {
                // 600-step phases: filling (records a few ms apart) and
                // draining (time leaps past TP, so entries expire).
                let filling = (step / 600) % 2 == 0;
                now_us += if filling {
                    rng.below(3_000)
                } else {
                    rng.below(400_000)
                };
                let now = SimTime::from_micros(now_us);
                let id = NodeId::new(rng.below(400) as u32);
                let (len_before, cap_before) = (t.degree(), t.ids.capacity());
                let mut reserved = 0;
                let roll = rng.below(100);
                let record_share = if filling { 85 } else { 20 };
                if roll < record_share {
                    let last = oracle.map.get(&id).map_or(0, |e| e.last.seq);
                    // Mostly the next seq; sometimes a gap, a duplicate
                    // or a stale one.
                    let seq = match rng.below(10) {
                        0 => last + 2,
                        1 => last,
                        2 => last.saturating_sub(1),
                        _ => last + 1,
                    };
                    let h = Hello {
                        sender: id,
                        seq,
                        payload: rng.below(3),
                    };
                    let power = Dbm::new(-(rng.below(60) as f64) - 30.0);
                    oracle.record(now, power, &h);
                    t.record(now, power, &h);
                } else if roll < record_share + 5 {
                    assert_eq!(t.expire(now), oracle.expire(now), "seed {seed} step {step}");
                } else if roll < 97 {
                    assert_eq!(
                        t.expire_count(now),
                        oracle.expire(now).len(),
                        "seed {seed} step {step}"
                    );
                } else if roll < 98 {
                    assert_eq!(
                        t.remove(id),
                        oracle.map.remove(&id),
                        "seed {seed} step {step}"
                    );
                } else if roll < 99 {
                    reserved = 1 + rng.below(300) as usize;
                    t.reserve(reserved);
                } else if !filling {
                    t.clear();
                    oracle.map.clear();
                }

                let got: Vec<(NodeId, &NeighborEntry<u64>)> = t.iter().collect();
                let want: Vec<(NodeId, &NeighborEntry<u64>)> =
                    oracle.map.iter().map(|(&id, e)| (id, e)).collect();
                assert_eq!(got, want, "seed {seed} step {step}");
                for probe in [id, NodeId::new(rng.below(400) as u32)] {
                    assert_eq!(
                        t.get(probe),
                        oracle.map.get(&probe),
                        "seed {seed} step {step}"
                    );
                    assert_eq!(t.contains(probe), oracle.map.contains_key(&probe));
                }
                assert_eq!(t.degree(), oracle.map.len());
                assert_eq!(t.is_empty(), oracle.map.is_empty());

                let cap = t.ids.capacity();
                assert_eq!(t.ids.len(), t.slots.len(), "seed {seed} step {step}");
                assert_eq!(cap, t.slots.capacity(), "seed {seed} step {step}");
                assert!(
                    cap == 0 || steps.contains(&cap),
                    "capacity {cap} is off the ladder"
                );
                assert_eq!(
                    cap,
                    expected_capacity(len_before, cap_before, t.degree(), reserved),
                    "seed {seed} step {step}: {len_before}/{cap_before} -> {}",
                    t.degree()
                );
                peak = peak.max(cap);
                grown += usize::from(cap > cap_before);
                shrunk += usize::from(cap < cap_before);
            }
            // The walk reached well past four ladder steps and came back.
            assert!(peak >= 48, "seed {seed}: peak capacity {peak}");
            assert!(
                grown >= 4 && shrunk >= 4,
                "seed {seed}: {grown} grows, {shrunk} shrinks"
            );
        }
    }

    #[test]
    fn wire_round_trip_restores_entries_onto_the_ladder() {
        let mut t = table();
        for id in 0..9 {
            t.record(SimTime::from_secs(1), Dbm::new(-70.0), &hello(id, 0, 0.0));
        }
        assert_eq!(t.ids.capacity(), 12);
        let wire = NeighborTableWire::from(&t);
        assert_eq!(wire.entries.len(), 9);
        let back = NeighborTable::from(wire.clone());
        assert_eq!(back.timeout(), t.timeout());
        assert!(back.iter().eq(t.iter()));
        assert_eq!((back.ids.capacity(), back.slots.capacity()), (12, 12));
        assert_eq!(NeighborTableWire::from(&back), wire);
    }
}
