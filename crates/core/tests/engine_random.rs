//! Property tests driving the clustering state machine with seeded
//! random event sequences (hellos with arbitrary adverts, expiries,
//! time jumps) and checking that its *local* invariants hold no matter
//! what the network throws at it.
#![expect(
    clippy::disallowed_types,
    reason = "a `HashMap` of per-sender sequence numbers is a test oracle; it is only looked up, never iterated"
)]

use mobic_core::{
    AlgorithmKind, ClusterAdvert, ClusterConfig, ClusterNode, ClusterTable, Role, RoleTag,
};
use mobic_net::{Hello, NodeId};
use mobic_radio::Dbm;
use mobic_sim::{rng::SeedSplitter, SimTime};
use rand::Rng;

/// One scripted input to the node under test.
#[derive(Debug)]
enum Event {
    /// A hello from neighbor `id` with the given advert fields.
    Hear {
        id: u32,
        primary_centi: i32,
        role: u8,
        ch: Option<u32>,
    },
    /// Advance time by `ds` seconds and evaluate.
    Evaluate { ds: u8 },
    /// Advance time a lot (everyone expires) and evaluate.
    BigSilence,
}

/// One event, each kind equally likely; a hello names a clusterhead
/// half the time.
fn random_event(rng: &mut impl Rng) -> Event {
    match rng.gen_range(0..3) {
        0 => Event::Hear {
            id: rng.gen_range(1..8),
            primary_centi: rng.gen_range(-500..2000),
            role: rng.gen_range(0..3),
            ch: rng.gen::<bool>().then(|| rng.gen_range(1..8)),
        },
        1 => Event::Evaluate {
            ds: rng.gen_range(0..6),
        },
        _ => Event::BigSilence,
    }
}

fn role_tag(code: u8) -> RoleTag {
    match code {
        0 => RoleTag::Undecided,
        1 => RoleTag::Clusterhead,
        _ => RoleTag::Member,
    }
}

/// Whatever happens, after an `evaluate` the node's state is
/// locally consistent:
/// * a member's clusterhead is a *live* neighbor that advertised the
///   clusterhead role in its latest hello;
/// * roles are never `Member { ch: self }`;
/// * transition reports match actual state changes.
#[test]
fn local_invariants_hold_under_arbitrary_inputs() {
    for case in 0..128u64 {
        let mut rng = SeedSplitter::new(case).stream("local-invariants", 0);
        let alg = AlgorithmKind::ALL[rng.gen_range(0..4)];
        let me = NodeId::new(0);
        let mut node = ClusterNode::new(me, ClusterConfig::paper_default(alg));
        let mut table = ClusterTable::new(SimTime::from_secs(3));
        let mut now = SimTime::from_secs(1);
        let mut seqs = std::collections::HashMap::<u32, u64>::new();

        for step in 0..rng.gen_range(1..60) {
            let at = format!("case {case} step {step} ({alg})");
            match random_event(&mut rng) {
                Event::Hear {
                    id,
                    primary_centi,
                    role,
                    ch,
                } => {
                    let seq = seqs.entry(id).or_insert(0);
                    let hello = Hello {
                        sender: NodeId::new(id),
                        seq: *seq,
                        payload: ClusterAdvert {
                            primary: f64::from(primary_centi) / 100.0,
                            role: role_tag(role),
                            ch: ch.map(NodeId::new),
                        },
                    };
                    *seq += 1;
                    table.record(now, Dbm::new(-60.0), &hello);
                }
                Event::Evaluate { ds } => {
                    now += SimTime::from_secs(u64::from(ds));
                    check_after_evaluate(&mut node, now, &mut table, &at);
                }
                Event::BigSilence => {
                    now += SimTime::from_secs(100);
                    check_after_evaluate(&mut node, now, &mut table, &at);
                }
            }
        }
    }
}

fn check_after_evaluate(node: &mut ClusterNode, now: SimTime, table: &mut ClusterTable, at: &str) {
    let before = node.role();
    let transition = node.evaluate(now, table);
    let after = node.role();
    // Transition reporting is exact.
    match transition {
        Some(tr) => {
            assert_eq!(tr.from, before, "{at}");
            assert_eq!(tr.to, after, "{at}");
            assert_ne!(tr.from, tr.to, "{at}");
            assert_eq!(tr.node, node.id(), "{at}");
            assert_eq!(tr.at, now, "{at}");
        }
        None => assert_eq!(before, after, "{at}"),
    }
    // Structural sanity of the new role.
    match after {
        Role::Member { ch } => {
            assert_ne!(ch, node.id(), "self-affiliation, {at}");
            let entry = table
                .get(ch)
                .unwrap_or_else(|| panic!("member of an expired neighbor, {at}"));
            assert_eq!(
                entry.payload.role,
                RoleTag::Clusterhead,
                "member of a non-clusterhead, {at}"
            );
        }
        Role::Clusterhead | Role::Undecided => {}
    }
}

/// The metric pipeline never produces NaN/negative weights no matter
/// which powers arrive (finite dBm inputs).
#[test]
fn metric_stays_finite_and_nonnegative() {
    for case in 0..64u64 {
        let mut rng = SeedSplitter::new(case).stream("metric-finite", 0);
        let mut node = ClusterNode::new(
            NodeId::new(0),
            ClusterConfig::paper_default(AlgorithmKind::Mobic),
        );
        let mut table = ClusterTable::new(SimTime::from_secs(3));
        let mut now = SimTime::from_secs(1);
        for k in 0..rng.gen_range(2..20u64) {
            let p = rng.gen_range(-120.0..0.0);
            table.record(
                now,
                Dbm::new(p),
                &Hello {
                    sender: NodeId::new(1),
                    seq: k,
                    payload: ClusterAdvert::initial(),
                },
            );
            let hello = node.prepare_broadcast(now, &mut table);
            let at = format!("case {case} hello {k} at {p} dBm");
            assert!(node.metric().is_finite(), "{at}");
            assert!(node.metric() >= 0.0, "{at}");
            assert!(hello.payload.primary.is_finite(), "{at}");
            now += SimTime::from_secs(2);
        }
    }
}

/// Two nodes fed identical inputs stay in lockstep (the state machine
/// is deterministic).
#[test]
fn state_machine_is_deterministic() {
    for case in 0..64u64 {
        let mut rng = SeedSplitter::new(case).stream("deterministic", 0);
        let mk = || {
            (
                ClusterNode::new(
                    NodeId::new(0),
                    ClusterConfig::paper_default(AlgorithmKind::Mobic),
                ),
                ClusterTable::new(SimTime::from_secs(3)),
            )
        };
        let (mut a, mut ta) = mk();
        let (mut b, mut tb) = mk();
        let mut now = SimTime::from_secs(1);
        let mut seqs = std::collections::HashMap::<u32, u64>::new();
        for step in 0..rng.gen_range(1..40) {
            match random_event(&mut rng) {
                Event::Hear {
                    id,
                    primary_centi,
                    role,
                    ch,
                } => {
                    let seq = seqs.entry(id).or_insert(0);
                    let hello = Hello {
                        sender: NodeId::new(id),
                        seq: *seq,
                        payload: ClusterAdvert {
                            primary: f64::from(primary_centi) / 100.0,
                            role: role_tag(role),
                            ch: ch.map(NodeId::new),
                        },
                    };
                    *seq += 1;
                    ta.record(now, Dbm::new(-60.0), &hello);
                    tb.record(now, Dbm::new(-60.0), &hello);
                }
                Event::Evaluate { ds } => {
                    now += SimTime::from_secs(u64::from(ds));
                    let ra = a.evaluate(now, &mut ta);
                    let rb = b.evaluate(now, &mut tb);
                    assert_eq!(ra, rb, "case {case} step {step}");
                    assert_eq!(a.role(), b.role(), "case {case} step {step}");
                }
                Event::BigSilence => {
                    now += SimTime::from_secs(100);
                    let _ = a.evaluate(now, &mut ta);
                    let _ = b.evaluate(now, &mut tb);
                    assert_eq!(a.role(), b.role(), "case {case} step {step}");
                }
            }
        }
    }
}
