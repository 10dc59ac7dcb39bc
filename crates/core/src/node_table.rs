//! Structure-of-arrays storage for per-node clustering state.
//!
//! The scenario runner owns one [`ClusterNode`] state machine and one
//! [`ClusterTable`] per node. Keeping them in parallel vectors (rather
//! than a vector of per-node structs) keeps each access pattern dense:
//! the sampling pass walks only roles, the gateway count walks only
//! tables, and the hot hello path touches exactly one slot of each.

use mobic_net::{Hello, NeighborTableWire, NodeId};
use mobic_radio::Dbm;
use mobic_sim::SimTime;
use serde::{Deserialize, Serialize};

use crate::{ClusterAdvert, ClusterConfig, ClusterNode, ClusterTable, RoleTransition};

/// Per-node clustering state in structure-of-arrays layout: one
/// [`ClusterNode`] and one [`ClusterTable`] per node in parallel
/// vectors, plus node-lifecycle (fault-injection) flags.
///
/// Only a snapshot serializes a `NodeTable`, and only after
/// [`pack_tables`](Self::pack_tables) has moved the live neighbor
/// tables into their wire form: the live tables are not serialized,
/// so a live `NodeTable` would write `"tables": []`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeTable {
    nodes: Vec<ClusterNode>,
    /// The neighbor tables, indexed by `NodeId::index`.
    #[serde(skip)]
    live: Vec<ClusterTable>,
    /// `live` in wire form, under the key snapshots have always used.
    /// Filled by [`pack_tables`](Self::pack_tables) on a snapshot's
    /// copy and drained by [`unpack_tables`](Self::unpack_tables) on
    /// resume; empty in a running table.
    tables: Vec<NeighborTableWire<ClusterAdvert>>,
    /// Retired: older builds skipped the election of a node whose
    /// table had not changed, and read this flag to decide. Filled
    /// all-true by [`pack_tables`](Self::pack_tables), so an older
    /// build that resumes a snapshot evaluates every node once; a
    /// loaded value is dropped, and a running table holds none.
    dirty: Vec<bool>,
    /// `alive[i]`: node `i` is up. Dead nodes neither transmit nor
    /// receive nor hold elections; their neighbors expire them
    /// naturally when the hellos stop. Starts all-true.
    alive: Vec<bool>,
    /// `deaf[i]`: node `i`'s receive side is impaired — deliveries to
    /// it are dropped after the radio/loss stage.
    deaf: Vec<bool>,
    /// `mute[i]`: node `i`'s transmit side is impaired — it holds its
    /// hellos (and its metric freezes, since the metric is computed at
    /// broadcast time) but keeps receiving and evaluating.
    mute: Vec<bool>,
    /// How many neighbors an empty table is sized for when a hello
    /// arrives (see [`NodeTable::new`]). Not serialized: a resumed run
    /// rebuilds it from its config.
    #[serde(skip)]
    expected_degree: usize,
}

impl NodeTable {
    /// Creates state for nodes `0..n`, every node alive and
    /// unimpaired. `expected_degree` is about how many
    /// neighbors a node gains in its first broadcast interval: a hello
    /// arriving at an empty table sizes it for that many at once,
    /// instead of growing it one capacity step at a time.
    #[must_use]
    pub fn new(
        n: usize,
        cfg: ClusterConfig,
        neighbor_timeout: SimTime,
        expected_degree: usize,
    ) -> Self {
        NodeTable {
            nodes: (0..n)
                .map(|i| ClusterNode::new(NodeId::new(i as u32), cfg))
                .collect(),
            live: (0..n)
                .map(|_| ClusterTable::new(neighbor_timeout))
                .collect(),
            tables: Vec::new(),
            dirty: Vec::new(),
            alive: vec![true; n],
            deaf: vec![false; n],
            mute: vec![false; n],
            expected_degree,
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the table holds no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All cluster state machines, indexed by `NodeId::index`.
    #[must_use]
    pub fn nodes(&self) -> &[ClusterNode] {
        &self.nodes
    }

    /// All neighbor tables, indexed by `NodeId::index`.
    #[must_use]
    pub fn tables(&self) -> &[ClusterTable] {
        &self.live
    }

    /// Node `i`'s state machine.
    #[must_use]
    pub fn node(&self, i: usize) -> &ClusterNode {
        &self.nodes[i]
    }

    /// Node `i`'s neighbor table.
    #[must_use]
    pub fn table(&self, i: usize) -> &ClusterTable {
        &self.live[i]
    }

    /// `true` if node `i` is up.
    #[must_use]
    pub fn is_alive(&self, i: usize) -> bool {
        self.alive[i]
    }

    /// The full liveness bitmap, indexed by `NodeId::index` — handed
    /// to observers so sampling passes can skip dead nodes.
    #[must_use]
    pub fn alive(&self) -> &[bool] {
        &self.alive
    }

    /// Number of nodes currently up.
    #[must_use]
    pub fn alive_count(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// `true` if node `i`'s receive side is impaired.
    #[must_use]
    pub fn is_deaf(&self, i: usize) -> bool {
        self.deaf[i]
    }

    /// `true` if node `i`'s transmit side is impaired.
    #[must_use]
    pub fn is_mute(&self, i: usize) -> bool {
        self.mute[i]
    }

    /// `true` if node `i` can commit a reception right now: alive and
    /// not deaf. Checked *after* the radio/loss stage so the loss
    /// model's RNG consumption is identical with and without faults.
    #[must_use]
    pub fn can_receive(&self, i: usize) -> bool {
        self.alive[i] && !self.deaf[i]
    }

    /// `true` if node `i` transmits its hellos: alive and not mute.
    #[must_use]
    pub fn can_transmit(&self, i: usize) -> bool {
        self.alive[i] && !self.mute[i]
    }

    /// Takes node `i` down without ceremony — used both for fail-stop
    /// crashes and for withholding late-joiners at setup. Clears any
    /// impairments (they belong to the dead interface) and wipes the
    /// node's neighbor table: a crashed node retains nothing.
    pub fn set_down(&mut self, i: usize) {
        self.alive[i] = false;
        self.deaf[i] = false;
        self.mute[i] = false;
        self.live[i].clear();
    }

    /// Brings node `i` up at `now` with protocol state factory-fresh:
    /// the neighbor table stays empty and the role state machine is
    /// [`ClusterNode::reset`] (keeping its hello sequence counter).
    /// Used for crash recovery and late joins.
    pub fn bring_up(&mut self, i: usize, now: SimTime) {
        self.alive[i] = true;
        self.deaf[i] = false;
        self.mute[i] = false;
        self.live[i].clear();
        self.nodes[i].reset(now);
    }

    /// Sets or clears node `i`'s receive-side impairment.
    pub fn set_deaf(&mut self, i: usize, deaf: bool) {
        self.deaf[i] = deaf;
    }

    /// Sets or clears node `i`'s transmit-side impairment.
    pub fn set_mute(&mut self, i: usize, mute: bool) {
        self.mute[i] = mute;
    }

    /// Moves the neighbor tables into their wire form, the only form
    /// serialization writes, and sets the retired `dirty` flags
    /// all-true. Called on the copy a snapshot captures; until
    /// [`unpack_tables`](Self::unpack_tables), the table reads as if
    /// every neighbor table were gone.
    pub fn pack_tables(&mut self) {
        let live = std::mem::take(&mut self.live);
        self.tables = live.iter().map(NeighborTableWire::from).collect();
        self.dirty = vec![true; self.nodes.len()];
    }

    /// Rebuilds the neighbor tables from the wire form a snapshot
    /// carried, emptying it, drops the retired `dirty` flags, and
    /// restores the sizing hint, which snapshots do not store. Called
    /// on resume before the first event.
    pub fn unpack_tables(&mut self, expected_degree: usize) {
        let wire = std::mem::take(&mut self.tables);
        self.live = wire.into_iter().map(ClusterTable::from).collect();
        self.dirty = Vec::new();
        self.expected_degree = expected_degree;
    }

    /// Checks a packed table, as a snapshot carries it, against a run
    /// of `n` nodes: every per-node vector holds `n` entries, node `i`
    /// has the id `i`, and every id a node's state or neighbor table
    /// names (its clusterhead, its contenders, the neighbors and the
    /// clusterheads their adverts name) is below `n`. The retired
    /// `dirty` flags are dropped on unpack, so their length does not
    /// matter.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason for the first mismatch.
    pub fn check_packed(&self, n: usize) -> Result<(), String> {
        let lens = [
            ("nodes", self.nodes.len()),
            ("tables", self.tables.len()),
            ("alive", self.alive.len()),
            ("deaf", self.deaf.len()),
            ("mute", self.mute.len()),
        ];
        if let Some((name, len)) = lens.into_iter().find(|&(_, len)| len != n) {
            return Err(format!(
                "node table `{name}` has {len} entries for {n} nodes"
            ));
        }
        for (i, node) in self.nodes.iter().enumerate() {
            node.check_ids(i, n)?;
        }
        for (i, table) in self.tables.iter().enumerate() {
            let mut named = table
                .entries
                .iter()
                .flat_map(|(&id, entry)| [Some(id), entry.payload.ch])
                .flatten();
            if let Some(id) = named.find(|id| id.index() >= n) {
                return Err(format!(
                    "neighbor table of node {i} names {id}, but the run has {n} nodes"
                ));
            }
        }
        Ok(())
    }

    // lint:hot-path — per-hello entry points of the steady-state loop;
    // everything below runs for every (hello, receiver) pair.
    /// Records a received hello into node `i`'s table.
    pub fn record(&mut self, i: usize, at: SimTime, power: Dbm, hello: &Hello<ClusterAdvert>) {
        let table = &mut self.live[i];
        if table.is_empty() {
            table.reserve(self.expected_degree);
        }
        table.record(at, power, hello);
    }

    /// Runs node `i`'s [`ClusterNode::prepare_broadcast`] against its
    /// own table, which expires stale neighbors first.
    pub fn prepare_broadcast(&mut self, i: usize, now: SimTime) -> Hello<ClusterAdvert> {
        self.nodes[i].prepare_broadcast(now, &mut self.live[i])
    }

    /// Runs node `i`'s [`ClusterNode::evaluate`] against its own
    /// table, which expires stale neighbors first.
    pub fn evaluate(&mut self, i: usize, now: SimTime) -> Option<RoleTransition> {
        self.nodes[i].evaluate(now, &mut self.live[i])
    }
    // lint:end-hot-path
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AlgorithmKind, Role, RoleTag};

    fn nt(n: usize, alg: AlgorithmKind) -> NodeTable {
        NodeTable::new(
            n,
            ClusterConfig::paper_default(alg),
            SimTime::from_secs(3),
            4,
        )
    }

    fn hello(
        sender: u32,
        seq: u64,
        primary: f64,
        role: RoleTag,
        ch: Option<u32>,
    ) -> Hello<ClusterAdvert> {
        Hello {
            sender: NodeId::new(sender),
            seq,
            payload: ClusterAdvert {
                primary,
                role,
                ch: ch.map(NodeId::new),
            },
        }
    }

    #[test]
    fn lifecycle_flags_start_healthy_and_toggle() {
        let mut t = nt(3, AlgorithmKind::Mobic);
        let s = SimTime::from_secs;
        assert!((0..3).all(|i| t.is_alive(i) && t.can_receive(i) && t.can_transmit(i)));
        assert_eq!(t.alive_count(), 3);
        assert_eq!(t.alive(), &[true, true, true]);

        t.set_deaf(1, true);
        assert!(!t.can_receive(1) && t.can_transmit(1));
        t.set_mute(2, true);
        assert!(t.can_receive(2) && !t.can_transmit(2));

        // Crash wipes impairments and the neighbor table.
        t.record(
            1,
            s(1),
            Dbm::new(-60.0),
            &hello(0, 0, 0.0, RoleTag::Undecided, None),
        );
        t.set_down(1);
        assert!(!t.is_alive(1) && !t.is_deaf(1));
        assert!(!t.can_receive(1) && !t.can_transmit(1));
        assert_eq!(t.alive_count(), 2);
        assert_eq!(t.table(1).degree(), 0, "crash wiped the table");

        // Revival resets the role machine.
        t.evaluate(1, s(2));
        t.bring_up(1, s(3));
        assert!(t.is_alive(1));
        assert_eq!(t.node(1).role(), Role::Undecided);
    }

    #[test]
    fn pair_converges_with_an_election_at_every_hello() {
        let mut t = nt(2, AlgorithmKind::Mobic);
        let s = SimTime::from_secs;
        for round in 0..8u64 {
            let now = s(2 * round + 2);
            for i in 0..2 {
                let h = t.prepare_broadcast(i, now);
                t.record(1 - i, now, Dbm::new(-60.0), &h);
                t.evaluate(i, now);
            }
        }
        // The lower id heads, the other joined.
        assert_eq!(t.node(0).role(), Role::Clusterhead);
        assert_eq!(t.node(1).role(), Role::Member { ch: NodeId::new(0) });
        // Converged: another election changes nothing.
        assert!(t.evaluate(0, s(17)).is_none() && t.evaluate(1, s(17)).is_none());
    }

    #[test]
    fn packed_tables_serialize_as_id_keyed_maps_and_unpack_unchanged() {
        use std::collections::BTreeMap;

        use mobic_net::NeighborEntry;

        let n = 6;
        let mut t = nt(n, AlgorithmKind::Mobic);
        let s = SimTime::from_secs;
        for round in 0..8u64 {
            let now = s(round + 1);
            for rx in 0..n {
                for tx in (0..n).filter(|&tx| tx != rx) {
                    // A rotating subset of links, so entries age apart.
                    if !(rx + tx + round as usize).is_multiple_of(3) {
                        let h = hello(tx as u32, round, tx as f64, RoleTag::Undecided, None);
                        t.record(rx, now, Dbm::new(-60.0 - tx as f64), &h);
                    }
                }
                // Expires what is older than 3 s first.
                t.evaluate(rx, now);
            }
        }
        t.evaluate(1, s(12)); // everything older than 9 s goes
        t.set_down(2);
        t.bring_up(3, s(9));
        t.record(
            3,
            s(9),
            Dbm::new(-70.0),
            &hello(5, 9, 0.5, RoleTag::Undecided, None),
        );
        let live: Vec<Vec<(NodeId, NeighborEntry<ClusterAdvert>)>> = t
            .tables()
            .iter()
            .map(|tb| tb.iter().map(|(id, e)| (id, e.clone())).collect())
            .collect();
        assert!(live.iter().any(|entries| entries.len() >= 4));
        assert!(live[2].is_empty() && live[3].len() == 1);

        // A live table writes no entries: the wire form is empty.
        let unpacked = serde_json::to_string(&t).unwrap();
        assert!(unpacked.contains("\"tables\":[]"), "{unpacked}");

        let mut packed = t.clone();
        packed.pack_tables();
        assert!(packed.tables().is_empty());
        let json = serde_json::to_string(&packed).unwrap();
        let wire: Vec<NeighborTableWire<ClusterAdvert>> = live
            .iter()
            .map(|entries| NeighborTableWire {
                timeout: s(3),
                entries: entries.iter().cloned().collect::<BTreeMap<_, _>>(),
            })
            .collect();
        let tables = format!("\"tables\":{},", serde_json::to_string(&wire).unwrap());
        assert!(json.contains(&tables), "{json}");
        assert!(json.find("\"nodes\"") < json.find("\"tables\""));
        assert!(json.find("\"tables\"") < json.find("\"dirty\""));

        // The retired `dirty` flags are written all-true, and a loaded
        // value never comes back out.
        assert!(
            json.contains("\"dirty\":[true,true,true,true,true,true],"),
            "{json}"
        );
        let stale = json.replace(
            "\"dirty\":[true,true,true,true,true,true],",
            "\"dirty\":[false,true,false,false,true,false],",
        );
        let mut back: NodeTable = serde_json::from_str(&stale).unwrap();
        back.unpack_tables(4);
        assert_eq!(back.len(), n);
        for (i, entries) in live.iter().enumerate() {
            let got: Vec<(NodeId, NeighborEntry<ClusterAdvert>)> = back
                .table(i)
                .iter()
                .map(|(id, e)| (id, e.clone()))
                .collect();
            assert_eq!(&got, entries, "table {i}");
        }
        back.pack_tables();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }
}
