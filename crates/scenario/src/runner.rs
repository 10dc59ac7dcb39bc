//! The end-to-end simulation runner.
//!
//! `run_scenario` is this workspace's equivalent of an ns-2 run: it
//! wires mobility → radio → delivery → neighbor tables → clustering,
//! drives the discrete-event loop for the configured simulated time,
//! and returns every measurement the paper's figures need.
//!
//! # Protocol timeline (per node, mirroring §3.2 / §4.1)
//!
//! Each node broadcasts a hello every `BI` seconds, starting at a
//! random offset in `[0, BI)` (nodes are not synchronized, as in
//! ns-2). At each of its broadcast instants the node:
//!
//! 1. expires stale neighbors (`TP`),
//! 2. computes its aggregate mobility `M` from the stored `RxPr`
//!    pairs and stamps it (plus role) onto the hello,
//! 3. the delivery engine hands the hello to every in-range receiver
//!    with its measured `RxPr`, which the receivers store,
//! 4. the node runs one clustering evaluation and possibly changes
//!    role (recorded into the transition log).
//!
//! Once per `BI` a sampler records the number of clusterheads, the
//! gateway fraction and the population-mean metric.
//!
//! # The spatial-index fast path
//!
//! A naive hello broadcast re-evaluates every node's trajectory and
//! scans the whole population — O(n²) work per broadcast interval.
//! When the propagation model is deterministic
//! ([`Propagation::is_deterministic`]) the true receiver set is
//! exactly the nominal-range disk, so the runner instead maintains a
//! [`GridIndex`] of *approximate* positions (refreshed every `BI/2`)
//! and, per hello, evaluates exact positions only for the transmitter
//! and the candidates returned by a range query with a conservative
//! slack radius (`tx_range + 2·v_bound·staleness`). No true receiver
//! can be missed, candidates are visited in id order, and trajectory
//! sampling is order-independent by contract — so the fast path is
//! **bit-identical** to the brute-force scan (asserted by the
//! `fast_path_equivalence` suite). Stochastic propagation models fall
//! back to brute force; [`FastPath`] in the config selects the policy.
//! Both paths read positions through a [`Fleet`], which answers most
//! queries from each node's cached motion segment.
//!
//! # Fault injection and invariant auditing
//!
//! A non-empty [`FaultPlan`](crate::FaultPlan) schedules node-lifecycle
//! faults (fail-stop crashes, crash-with-recovery, late joins, and
//! one-sided deaf/mute interface impairments) from a dedicated
//! `"faults"` seed stream, so runs with an empty plan consume no extra
//! randomness and stay byte-identical to previous releases. Dead nodes
//! neither transmit nor receive and their neighbors expire them
//! naturally through `TP`; a clusterhead crash opens a *healing probe*
//! that measures how long its orphaned members take to re-affiliate
//! ([`HealingStats`]). Independently, [`AuditMode`](crate::AuditMode)
//! turns on a periodic Theorem-1 audit of the live topology at every
//! sampling instant after warmup: `warn` records violations as trace
//! events and tallies them in [`AuditSummary`], `strict` aborts the
//! run with [`RunError::AuditFailed`] — never a panic.

use mobic_core::{ClusterAdvert, ClusterConfig, ClusterNode, ClusterTable, NodeTable, Role};
use mobic_geom::{GridIndex, Rect, Vec2};
use mobic_metrics::{TimeSeries, TransitionLog};
use mobic_mobility::{
    ConferenceHall, ConferenceHallParams, Fleet, GaussMarkov, GaussMarkovParams, Highway,
    HighwayParams, Leg, Manhattan, ManhattanParams, Mobility, RandomWalk, RandomWalkParams,
    RandomWaypoint, RandomWaypointParams, RpgmGroup, RpgmParams, Stationary,
};
use mobic_net::{loss, loss::LossModel, Delivery, DeliveryEngine, Hello, NodeId, Scratch};
use mobic_radio::{
    Dbm, FreeSpace, LogDistance, Nakagami, Propagation, Radio, Shadowed, TwoRayGround,
};
use mobic_sim::{rng::SeedSplitter, SimTime, Simulation};
use mobic_trace::{
    config_hash, ManifestCounters, NullSink, PhaseClock, PhaseTimings, RunManifest, TraceEvent,
    TraceSink, ViolationKind,
};
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};
use std::path::Path;

use crate::snapshot::{self, Envelope, SimSnapshot};
use crate::{
    AuditMode, ConfigError, FastPath, FaultTarget, LossKind, MobilityKind, PropagationKind,
    ScenarioConfig,
};

/// Everything measured in one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    /// The algorithm that ran.
    pub algorithm: mobic_core::AlgorithmKind,
    /// The master seed of the run.
    pub seed: u64,
    /// The configured transmission range (echoed for sweep tables).
    pub tx_range_m: f64,
    /// `CS` over the whole run, including the initial election.
    pub clusterhead_changes_total: usize,
    /// `CS` counting only changes after the warmup — the headline
    /// steady-state stability number plotted in Figures 3/5/6.
    pub clusterhead_changes: usize,
    /// Cluster-membership changes after warmup (finer churn measure).
    pub affiliation_changes: usize,
    /// Mean number of clusters after warmup (Figure 4's quantity).
    pub avg_clusters: f64,
    /// Mean fraction of nodes that are gateways, after warmup.
    pub gateway_fraction: f64,
    /// Population mean of the aggregate mobility metric, after warmup.
    pub mean_aggregate_metric: f64,
    /// The sampled cluster-count series (one point per `BI`).
    pub cluster_series: TimeSeries,
    /// Total hello broadcasts sent.
    pub hello_broadcasts: u64,
    /// Total successful hello deliveries.
    pub deliveries: u64,
    /// Receptions destroyed by the vulnerable-window MAC collision
    /// model (0 when collisions are disabled).
    pub mac_collisions: u64,
    /// Every node's role at the end of the run.
    pub final_roles: Vec<Role>,
    /// Steady-state transitions broken down by `from->to` kind — the
    /// diagnostic behind the stability analyses ("where does the churn
    /// come from?").
    pub transitions_by_kind: std::collections::BTreeMap<String, usize>,
    /// Gini coefficient of per-node clusterhead *time shares* after
    /// warmup — the burden-fairness measure (0 = every node serves
    /// equally; → 1 = a few nodes carry all clusters). Stability and
    /// fairness trade off: see the `fairness` experiment.
    pub ch_time_gini: f64,
    /// How many distinct nodes ever held the clusterhead role.
    pub distinct_clusterheads: usize,
    /// Every role transition of the run, in time order — the full
    /// event trace for downstream analyses (serialized with results).
    pub role_transitions: Vec<mobic_core::RoleTransition>,
    /// Fault injections actually performed. Omitted from JSON when no
    /// fault fired, keeping fault-free artifacts byte-identical to
    /// previous releases.
    #[serde(default, skip_serializing_if = "FaultCounters::is_empty")]
    pub faults: FaultCounters,
    /// Cluster-healing latency statistics — `Some` only when at least
    /// one clusterhead crash orphaned a member.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub healing: Option<HealingStats>,
    /// Outcome of the periodic invariant audit — `Some` only when the
    /// audit was enabled.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub audit: Option<AuditSummary>,
    /// How the run executed (fast path taken, event counts, timing).
    #[serde(default)]
    pub perf: RunPerf,
}

/// Counts of fault injections that actually fired during a run.
///
/// `crashes` counts every crash event, including those that later
/// recovered; `recoveries` counts only the revivals that fired within
/// the simulated horizon.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultCounters {
    /// Fail-stop crashes injected (with or without recovery).
    pub crashes: u32,
    /// Crash recoveries that fired before the end of the run.
    pub recoveries: u32,
    /// Late joins that fired.
    pub late_joins: u32,
    /// Receive-side (deaf) impairment spells started.
    pub deaf_spells: u32,
    /// Transmit-side (mute) impairment spells started.
    pub mute_spells: u32,
}

impl FaultCounters {
    /// `true` when no fault of any kind fired. The serialized
    /// [`RunResult`] omits the field entirely in that case.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        *self == Self::default()
    }
}

/// Cluster-healing latency: for every clusterhead crash that orphaned
/// at least one member, the time until all surviving orphans were
/// re-affiliated with a live clusterhead (or became heads themselves).
/// Orphans that crash themselves drop out of their probe.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct HealingStats {
    /// Clusterhead crashes that orphaned at least one member.
    pub probes: u32,
    /// Probes whose orphans all re-affiliated before the run ended.
    pub healed: u32,
    /// Probes still unresolved at the end of the run.
    pub unhealed: u32,
    /// Mean healing latency over the healed probes, in seconds
    /// (0 when nothing healed).
    pub mean_latency_s: f64,
    /// Worst healing latency observed, in seconds.
    pub max_latency_s: f64,
}

/// Outcome of the periodic in-run invariant audit
/// (see [`AuditMode`](crate::AuditMode)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AuditSummary {
    /// Audit passes executed (one per sampling instant after warmup).
    pub checks: u64,
    /// Total Theorem-1 violations observed across all passes.
    pub violations: u64,
}

/// Why a simulation run — or a supervised batch job — failed.
///
/// [`run_scenario`] itself produces `Config` and (under
/// [`AuditMode::Strict`](crate::AuditMode)) `AuditFailed`; `Panicked`
/// and `TimedOut` are attached by the supervised batch executor
/// ([`run_batch_supervised`](crate::run_batch_supervised), behind
/// every [`run_batch`](crate::run_batch) and
/// [`run_cell`](crate::run_cell) too), which
/// catches worker panics and soft-deadline overruns instead of letting
/// them abort the process.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The scenario configuration failed validation.
    Config(ConfigError),
    /// The job's worker thread panicked; the supervisor caught it and
    /// the remaining jobs completed normally.
    Panicked {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The job exceeded the supervisor's soft deadline.
    TimedOut {
        /// The deadline that was exceeded, in seconds.
        limit_s: f64,
    },
    /// The strict invariant audit observed a Theorem-1 violation.
    AuditFailed {
        /// Simulation time of the failing audit pass, in seconds.
        at_s: f64,
        /// Number of violations in that pass.
        violations: usize,
    },
    /// A resume was attempted from a snapshot that belongs to a
    /// different `(config, seed)` — restoring it would silently
    /// produce a hybrid run, so it is refused up front.
    SnapshotMismatch {
        /// What disagreed (seed or semantic config hash).
        reason: String,
    },
}

impl From<ConfigError> for RunError {
    fn from(e: ConfigError) -> Self {
        RunError::Config(e)
    }
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Config(e) => write!(f, "invalid configuration: {e}"),
            RunError::Panicked { message } => write!(f, "worker panicked: {message}"),
            RunError::TimedOut { limit_s } => {
                write!(f, "run exceeded the {limit_s} s soft deadline")
            }
            RunError::AuditFailed { at_s, violations } => write!(
                f,
                "strict invariant audit failed at t = {at_s} s ({violations} violation(s))"
            ),
            RunError::SnapshotMismatch { reason } => {
                write!(f, "snapshot does not belong to this run: {reason}")
            }
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Config(e) => Some(e),
            _ => None,
        }
    }
}

/// Lightweight per-run performance/observability counters.
///
/// Everything here describes *how* the run executed, never *what* it
/// computed — two runs of the same `(cfg, seed)` produce identical
/// measurements regardless of the path taken.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RunPerf {
    /// Total discrete events processed by the simulation core.
    pub events: u64,
    /// Hello broadcast events among them.
    pub hello_events: u64,
    /// Whether the spatial-index fast path was used.
    pub indexed: bool,
    /// Mean number of candidate receivers evaluated per hello
    /// (`n − 1` on the brute-force path).
    pub mean_candidates: f64,
    /// Full index refresh passes (0 on the brute-force path).
    pub index_refreshes: u64,
    /// Wall-clock duration of the event loop in milliseconds. Not
    /// serialized: identical runs must produce identical JSON.
    #[serde(skip)]
    pub wall_clock_ms: f64,
    /// Wall-clock breakdown into setup / event-loop / aggregation
    /// phases (`mobic-cli --profile` renders it). Excluded from
    /// serialization for the same reason as `wall_clock_ms`.
    #[serde(skip)]
    pub phase_ms: PhaseTimings,
}

/// How a checkpoint-aware run ended: normally, or suspended into a
/// resumable [`SimSnapshot`] by an event-budget stop
/// (see [`run_scenario_until`]).
#[derive(Debug)]
pub enum RunOutcome {
    /// The run reached its simulated horizon; here is the result.
    Done(Box<RunResult>),
    /// The run was suspended between events; resuming the snapshot
    /// with [`run_scenario_checkpointed`] completes it byte-identically.
    Suspended(Box<SimSnapshot>),
}

impl RunOutcome {
    /// The result of a run whose checkpoint plan cannot suspend it.
    fn into_done(self) -> RunResult {
        match self {
            RunOutcome::Done(result) => *result,
            // Only a `StopAfter` plan suspends, and only
            // `run_scenario_until` sets one.
            RunOutcome::Suspended(_) => unreachable!("suspended without a stop-after plan"),
        }
    }
}

/// The engine's checkpoint trigger: never, after an exact event count
/// (kill-point testing), or periodically on wall-clock cadence with
/// rotated snapshot files (crash safety for long runs).
#[derive(Debug, Clone, Copy)]
enum CheckpointPlan<'a> {
    /// Run to completion; never capture.
    None,
    /// Suspend after exactly this many processed events.
    StopAfter(u64),
    /// Write a rotated snapshot into `dir` roughly every `every_s`
    /// wall-clock seconds, keeping the newest `keep` files.
    Periodic {
        /// Wall-clock cadence in seconds.
        every_s: f64,
        /// Snapshot directory.
        dir: &'a Path,
        /// Rotation depth.
        keep: u32,
    },
}

/// Simulation events. Serializable because checkpoints persist the
/// pending event queue verbatim.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub(crate) enum Ev {
    /// Node `i` broadcasts its hello (and then evaluates clustering).
    Hello(NodeId),
    /// Periodic metric sampling.
    Sample,
    /// A scheduled node-lifecycle fault fires.
    Fault(FaultAction),
}

/// What a [`Ev::Fault`] event does when it fires. Crash and impairment
/// victims are drawn at fire time (so the target policy sees the
/// current cluster structure); revivals, joins and restores name their
/// node up front.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub(crate) enum FaultAction {
    /// Fail-stop crash of a victim drawn at fire time; optionally
    /// schedules that victim's revival.
    Crash { revive_after: Option<SimTime> },
    /// Bring a previously crashed node back with wiped state.
    Revive { node: usize },
    /// First appearance of a node withheld since setup.
    Join { node: usize },
    /// Start a one-sided interface impairment (mute = tx suppressed,
    /// otherwise rx dropped) on a victim drawn at fire time.
    Impair { mute: bool },
    /// End an impairment spell, if the node still has it.
    Restore { node: usize, mute: bool },
}

/// An open cluster-healing measurement: started when a clusterhead
/// crashed with members, resolved when every surviving orphan has
/// re-affiliated.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct HealingProbe {
    /// The crash instant.
    started: SimTime,
    /// Indices of the crashed head's members still unhealed.
    orphans: Vec<usize>,
}

/// Whether an orphaned member has found a new home: it either serves
/// as a clusterhead itself or claims a live node that currently holds
/// the clusterhead role.
fn reaffiliated(node_table: &NodeTable, member: usize) -> bool {
    match node_table.node(member).role() {
        Role::Clusterhead => true,
        Role::Member { ch } => {
            let c = ch.index();
            node_table.is_alive(c) && node_table.node(c).role() == Role::Clusterhead
        }
        Role::Undecided => false,
    }
}

/// Draws a fault victim among the currently alive nodes, or `None`
/// when nobody qualifies. `Any` consumes one uniform draw from the
/// fault stream; `Clusterhead` is deterministic given the cluster
/// state (the live head serving the most live members, lowest index on
/// ties) and consumes no randomness.
fn pick_victim<R: rand::Rng>(
    node_table: &NodeTable,
    target: FaultTarget,
    rng: &mut R,
) -> Option<usize> {
    let n = node_table.nodes().len();
    match target {
        FaultTarget::Any => {
            let alive: Vec<usize> = (0..n).filter(|&i| node_table.is_alive(i)).collect();
            if alive.is_empty() {
                None
            } else {
                Some(alive[rng.gen_range(0..alive.len())])
            }
        }
        FaultTarget::Clusterhead => {
            let mut best: Option<(usize, usize)> = None; // (members, index)
            for i in 0..n {
                if !node_table.is_alive(i) || node_table.node(i).role() != Role::Clusterhead {
                    continue;
                }
                let ch = NodeId::new(i as u32);
                let members = (0..n)
                    .filter(|&j| {
                        node_table.is_alive(j) && node_table.node(j).role() == (Role::Member { ch })
                    })
                    .count();
                if best.is_none_or(|(m, _)| members > m) {
                    best = Some((members, i));
                }
            }
            best.map(|(_, i)| i)
        }
    }
}

/// Maps a centralized Theorem-1 [`Violation`] — whose indices refer to
/// the audit's alive-subset arrays — back to node ids and into a trace
/// event.
fn violation_event(v: &mobic_core::invariants::Violation, ids: &[NodeId]) -> TraceEvent {
    use mobic_core::invariants::Violation as V;
    match *v {
        V::AdjacentClusterheads(a, b) => TraceEvent::InvariantViolation {
            violation: ViolationKind::AdjacentHeads,
            node: ids[a].value(),
            other: Some(ids[b].value()),
        },
        V::MemberCannotHearClusterhead { member, ch } => TraceEvent::InvariantViolation {
            violation: ViolationKind::MemberUnreachable,
            node: ids[member].value(),
            other: Some(ch.value()),
        },
        V::DanglingAffiliation { member, ch } => TraceEvent::InvariantViolation {
            violation: ViolationKind::DanglingAffiliation,
            node: ids[member].value(),
            other: Some(ch.value()),
        },
        V::Undecided(i) => TraceEvent::InvariantViolation {
            violation: ViolationKind::Undecided,
            node: ids[i].value(),
            other: None,
        },
    }
}

/// Builds the per-node mobility models for a scenario.
pub(crate) fn build_mobility(
    cfg: &ScenarioConfig,
    field: Rect,
    splitter: &SeedSplitter,
) -> Vec<Box<dyn Mobility>> {
    let n = cfg.n_nodes as usize;
    let horizon = SimTime::from_secs_f64(cfg.sim_time_s + 2.0 * cfg.bi_s);
    match cfg.mobility {
        MobilityKind::RandomWaypoint => {
            let params = RandomWaypointParams {
                field,
                min_speed_mps: cfg.min_speed_mps,
                max_speed_mps: cfg.max_speed_mps,
                pause: SimTime::from_secs_f64(cfg.pause_s),
            };
            (0..n)
                .map(|i| {
                    Box::new(RandomWaypoint::new(
                        params,
                        splitter.stream("mobility", i as u64),
                    )) as Box<dyn Mobility>
                })
                .collect()
        }
        MobilityKind::RandomWalk { epoch_s } => {
            let params = RandomWalkParams {
                field,
                min_speed_mps: cfg.min_speed_mps,
                max_speed_mps: cfg.max_speed_mps,
                epoch: SimTime::from_secs_f64(epoch_s),
            };
            (0..n)
                .map(|i| {
                    Box::new(RandomWalk::new(
                        params,
                        splitter.stream("mobility", i as u64),
                    )) as Box<dyn Mobility>
                })
                .collect()
        }
        MobilityKind::GaussMarkov { alpha } => {
            let params = GaussMarkovParams {
                field,
                alpha,
                mean_speed_mps: 0.5 * cfg.max_speed_mps,
                speed_sigma: 0.25 * cfg.max_speed_mps,
                heading_sigma: 0.35,
                step: SimTime::from_secs(1),
            };
            (0..n)
                .map(|i| {
                    Box::new(GaussMarkov::new(
                        params,
                        splitter.stream("mobility", i as u64),
                    )) as Box<dyn Mobility>
                })
                .collect()
        }
        MobilityKind::Rpgm {
            groups,
            member_radius_m,
        } => {
            let params = RpgmParams {
                field,
                min_speed_mps: cfg.min_speed_mps,
                max_speed_mps: cfg.max_speed_mps,
                pause: SimTime::from_secs_f64(cfg.pause_s),
                member_radius_m,
                member_update: SimTime::from_secs(5),
            };
            let mut models: Vec<Box<dyn Mobility>> = Vec::with_capacity(n);
            let mut group_objs: Vec<RpgmGroup> = (0..groups)
                .map(|g| {
                    RpgmGroup::new(params, horizon, splitter.stream("rpgm-group", u64::from(g)))
                })
                .collect();
            for i in 0..n {
                let g = i % groups as usize;
                models.push(Box::new(group_objs[g].spawn_member()));
            }
            models
        }
        MobilityKind::Highway {
            lanes,
            bidirectional,
        } => {
            let params = HighwayParams {
                field,
                lanes,
                bidirectional,
                lane_speed_mps: cfg.max_speed_mps,
                speed_jitter: 0.1 * cfg.max_speed_mps,
                jitter_alpha: 0.9,
                step: SimTime::from_secs(1),
            };
            (0..n)
                .map(|i| {
                    Box::new(Highway::new(
                        params,
                        (i % lanes as usize) as u32,
                        splitter.stream("mobility", i as u64),
                    )) as Box<dyn Mobility>
                })
                .collect()
        }
        MobilityKind::ConferenceHall { booths } => {
            let params = ConferenceHallParams {
                field,
                booths,
                booth_radius_m: 0.06 * field.width().min(field.height()),
                min_speed_mps: 0.5,
                max_speed_mps: 1.5,
                min_pause: SimTime::from_secs(30),
                max_pause: SimTime::from_secs(120),
            };
            let hall = ConferenceHall::new(params, &mut splitter.stream("hall", 0));
            (0..n)
                .map(|i| {
                    Box::new(hall.spawn_attendee(splitter.stream("mobility", i as u64)))
                        as Box<dyn Mobility>
                })
                .collect()
        }
        MobilityKind::Manhattan { block_m, p_turn } => {
            let params = ManhattanParams {
                field,
                block_m,
                min_speed_mps: cfg.min_speed_mps,
                max_speed_mps: cfg.max_speed_mps,
                p_turn,
            };
            (0..n)
                .map(|i| {
                    Box::new(Manhattan::new(
                        params,
                        splitter.stream("mobility", i as u64),
                    )) as Box<dyn Mobility>
                })
                .collect()
        }
        MobilityKind::Stationary => {
            let mut rng = splitter.stream("placement", 0);
            (0..n)
                .map(|_| {
                    use rand::Rng;
                    let p = field.point_at(rng.gen::<f64>(), rng.gen::<f64>());
                    Box::new(Stationary::new(p)) as Box<dyn Mobility>
                })
                .collect()
        }
    }
}

/// Builds the propagation model.
fn build_propagation(cfg: &ScenarioConfig, splitter: &SeedSplitter) -> Box<dyn Propagation> {
    match cfg.propagation {
        PropagationKind::FreeSpace => Box::new(FreeSpace::at_frequency(914.0e6)),
        PropagationKind::TwoRayGround => Box::new(TwoRayGround::ns2_default()),
        PropagationKind::LogDistance { exponent } => {
            Box::new(LogDistance::calibrated_to_friis(914.0e6, exponent))
        }
        PropagationKind::ShadowedFreeSpace { sigma_db } => Box::new(Shadowed::new(
            FreeSpace::at_frequency(914.0e6),
            sigma_db,
            splitter.stream("shadowing", 0),
        )),
        PropagationKind::NakagamiFreeSpace { m } => Box::new(Nakagami::new(
            FreeSpace::at_frequency(914.0e6),
            m,
            splitter.stream("fading", 0),
        )),
    }
}

/// Builds the loss model.
fn build_loss(cfg: &ScenarioConfig, splitter: &SeedSplitter) -> Box<dyn LossModel> {
    match cfg.loss {
        LossKind::None => Box::new(loss::NoLoss),
        LossKind::Bernoulli { p } => Box::new(loss::Bernoulli::new(p, splitter.stream("loss", 0))),
        LossKind::BurstyPreset => Box::new(loss::GilbertElliott::mildly_bursty(
            splitter.stream("loss", 0),
        )),
    }
}

/// Upper bound on any node's speed under the scenario's mobility
/// model, used to pad the candidate query radius by the worst-case
/// drift since an index entry was last refreshed.
///
/// Constants mirror the parameter choices in [`build_mobility`].
/// Gaussian-driven speeds (Gauss–Markov, Highway jitter) are unbounded
/// in principle; we pad by 8σ of the stationary distribution, putting
/// the per-step exceedance probability near 6e-16 — negligible against
/// f64 rounding over any practical run.
fn slack_speed_bound(cfg: &ScenarioConfig) -> f64 {
    match cfg.mobility {
        MobilityKind::Stationary => 0.0,
        MobilityKind::RandomWaypoint
        | MobilityKind::RandomWalk { .. }
        | MobilityKind::Manhattan { .. } => cfg.max_speed_mps,
        // Speed is stationary N(0.5·v_max, 0.25·v_max), clamped at 0.
        MobilityKind::GaussMarkov { .. } => (0.5 + 8.0 * 0.25) * cfg.max_speed_mps,
        // The group center does random waypoint at ≤ v_max; the member
        // offset re-lerps across the member disk every 5 s.
        MobilityKind::Rpgm {
            member_radius_m, ..
        } => cfg.max_speed_mps + 2.0 * member_radius_m / 5.0,
        // Lane speed v_max plus stationary N(0, 0.1·v_max) jitter.
        MobilityKind::Highway { .. } => (1.0 + 8.0 * 0.1) * cfg.max_speed_mps,
        // Walking pace is hard-capped in `build_mobility`.
        MobilityKind::ConferenceHall { .. } => 1.5,
    }
}

/// Extra query slack for motion that is not speed-bounded: highway
/// vehicles wrap across the field in a near-instant jump, so a stale
/// index entry can be off by whole lane lengths. The pad makes the
/// query cover every possible wrap (degrading Highway to an effectively
/// whole-field scan — correct, just not faster).
fn slack_teleport_pad(cfg: &ScenarioConfig, speed_bound: f64, staleness_s: f64) -> f64 {
    match cfg.mobility {
        MobilityKind::Highway { .. } => {
            // One wrap spans the lane axis; a window long enough to
            // drive a full lane adds one more wrap per crossing.
            let crossings = 1.0 + (speed_bound * staleness_s / cfg.field_w_m).floor();
            crossings * cfg.field_w_m
        }
        _ => 0.0,
    }
}

/// The mean number of nodes within radio range of a node, were the
/// others spread uniformly over the field: how many neighbors each
/// neighbor table is sized for when its first hello arrives.
fn expected_degree(cfg: &ScenarioConfig) -> usize {
    let disk = std::f64::consts::PI * cfg.tx_range_m * cfg.tx_range_m;
    let share = (disk / (cfg.field_w_m * cfg.field_h_m)).min(1.0);
    (f64::from(cfg.n_nodes.saturating_sub(1)) * share).round() as usize
}

/// `true` if the run takes the spatial-index path.
fn uses_index(cfg: &ScenarioConfig) -> bool {
    match cfg.fast_path {
        FastPath::Off => false,
        // `validate` already rejected `On` with a stochastic model, so
        // both remaining variants reduce to the capability check.
        FastPath::On | FastPath::Auto => cfg.propagation.is_deterministic(),
    }
}

/// The candidate query radius before the staleness slack. `receive`
/// is a threshold test that succeeds out to the nominal range; the
/// +0.5 m pad absorbs `nominal_range_m`'s bisection tolerance and
/// boundary rounding so the candidate disk always contains the
/// reception disk.
fn base_query_range(cfg: &ScenarioConfig, radio: &Radio<Box<dyn Propagation>>) -> f64 {
    cfg.tx_range_m.max(radio.nominal_range_m()) + 0.5
}

/// The candidate query radius when the index is `staleness_s` old:
/// the base range plus the worst-case drift of a stale entry.
fn query_radius(cfg: &ScenarioConfig, base_range: f64, speed_bound: f64, staleness_s: f64) -> f64 {
    base_range + 2.0 * speed_bound * staleness_s + slack_teleport_pad(cfg, speed_bound, staleness_s)
}

/// The spatial index's base query radius and cell size for `cfg`,
/// derived as [`Runner::new`] derives them, or `None` when the run
/// takes the brute-force path. `ScenarioConfig::validate` checks both
/// for finiteness.
pub(crate) fn index_radii(cfg: &ScenarioConfig) -> Option<(f64, f64)> {
    if !uses_index(cfg) {
        return None;
    }
    let propagation = build_propagation(cfg, &SeedSplitter::new(0));
    let base = base_query_range(cfg, &Radio::with_range(propagation, cfg.tx_range_m));
    let refresh_s = SimTime::from_secs_f64(0.5 * cfg.bi_s).as_secs_f64();
    let cell = query_radius(cfg, base, slack_speed_bound(cfg), refresh_s);
    Some((base, cell))
}

/// An allowance for one node's boxed mobility model: at least the
/// largest model struct, whose ChaCha stream sits inline (checked by
/// the unit test `model_allowance_covers_every_model`).
const MODEL_BYTES: usize = 512;

/// The bytes a run of `cfg` allocates before its first event, given the
/// spatial index's cell count (0 on the brute-force path):
///
/// * per node: a queue slot, the position, the MAC vectors (last
///   arrival, pending reception), the motion segment and boxed model,
///   the node-table entry with its neighbor table, four transition-log
///   entries and, with the index, its copy of the position;
/// * a queue slot per planned fault, and the sampler's;
/// * the mobility models' shared state: each conference attendee's
///   copy of the booth list, each RPGM group with its center's legs;
/// * the three series sampled once per broadcast interval;
/// * the index's cells.
///
/// Saturates instead of overflowing, so a huge config reads as
/// `u64::MAX` rather than as a small number.
pub(crate) fn upfront_bytes(cfg: &ScenarioConfig, grid_cells: usize) -> u64 {
    use std::mem::size_of;
    let queue_slot = size_of::<(SimTime, u64, Ev)>();
    let index_copy = if grid_cells > 0 {
        size_of::<Vec2>() + size_of::<u32>()
    } else {
        0
    };
    let per_node = queue_slot
        + size_of::<Vec2>()
        + size_of::<Option<SimTime>>()
        + size_of::<Option<PendingRx>>()
        + size_of::<mobic_mobility::Segment>()
        + size_of::<Box<dyn Mobility>>()
        + MODEL_BYTES
        + size_of::<ClusterNode>()
        + size_of::<ClusterTable>()
        + 3 * size_of::<bool>()
        + 4 * size_of::<mobic_core::RoleTransition>()
        + index_copy;
    let n = u64::from(cfg.n_nodes);
    let shared = match cfg.mobility {
        MobilityKind::ConferenceHall { booths } => u64::from(booths)
            .saturating_mul(size_of::<Vec2>() as u64)
            .saturating_mul(n + 1),
        MobilityKind::Rpgm { groups, .. } => {
            let legs = rpgm_center_legs(cfg).saturating_mul(size_of::<Leg>() as u64);
            u64::from(groups).saturating_mul((size_of::<RpgmGroup>() as u64).saturating_add(legs))
        }
        _ => 0,
    };
    // The float-to-integer cast saturates, as the runner's own does.
    let samples = ((cfg.sim_time_s / cfg.bi_s) as u64).saturating_add(2);
    let sample_bytes = 3 * (size_of::<SimTime>() + size_of::<f64>());
    [
        n.saturating_mul(per_node as u64),
        (cfg.faults.injections() + 2).saturating_mul(queue_slot as u64),
        shared,
        samples.saturating_mul(sample_bytes as u64),
        (grid_cells as u64).saturating_mul(size_of::<Vec<u32>>() as u64),
    ]
    .into_iter()
    .fold(0, u64::saturating_add)
}

/// The legs [`RpgmGroup::new`] draws for one group center up to the
/// run's horizon, an estimate from above of their expected number.
/// Each round of the generator is a pause and a move; a move between
/// two uniform points is on average at least a third of the field's
/// longer side long, and no faster than the top speed. A round that
/// adds no time, as a still center's does, adds the generator's 1 ms
/// pause instead.
fn rpgm_center_legs(cfg: &ScenarioConfig) -> u64 {
    let pause_s = SimTime::from_secs_f64(cfg.pause_s).as_secs_f64();
    let move_s = if cfg.max_speed_mps > 0.0 {
        cfg.field_w_m.max(cfg.field_h_m) / 3.0 / cfg.max_speed_mps
    } else {
        0.0
    };
    let (round_s, legs_per_round) = if pause_s + move_s < 1e-6 {
        (1e-3, 1)
    } else if pause_s > 0.0 {
        (pause_s + move_s, 2)
    } else {
        (move_s, 1)
    };
    let horizon_s = cfg.sim_time_s + 2.0 * cfg.bi_s;
    // The float-to-integer cast saturates.
    ((horizon_s / round_s) as u64)
        .saturating_add(1)
        .saturating_mul(legs_per_round)
}

/// A reception withheld from the neighbor table while its vulnerable
/// window is open (MAC collision model, `packet_time_s > 0`).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub(crate) struct PendingRx {
    /// Arrival time — the timestamp the table sees on commit.
    at: SimTime,
    /// Measured received power.
    power: Dbm,
    /// The hello as transmitted.
    hello: Hello<ClusterAdvert>,
}

/// Scratch buffers (see [`mobic_net::Scratch`]) are pre-sized for the
/// worst case — every node a candidate — up to this ceiling. Beyond
/// it they start at the ceiling and grow amortized: large-n hardening
/// so an n = 1M run does not pre-commit `O(n)` memory for buffers
/// whose steady-state occupancy is the neighborhood size. At
/// paper scales (n ≤ 4096) pre-sizing is exact and the loop never
/// allocates for them, as `tests/steady_state_allocations.rs`
/// measures.
const SCRATCH_PRESIZE_MAX: usize = 4096;

/// A read-only view of the simulation state handed to observers at
/// every sampling instant (once per broadcast interval).
#[derive(Debug)]
pub struct SampleView<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// Position of every node (indexed by `NodeId::index`).
    pub positions: &'a [Vec2],
    /// The clustering state machines.
    pub nodes: &'a [ClusterNode],
    /// The neighbor tables.
    pub tables: &'a [ClusterTable],
    /// Liveness of every node (all `true` unless a fault plan is
    /// active): index `i` is `false` while node `i` is crashed or has
    /// not joined yet.
    pub alive: &'a [bool],
}

/// Runs one complete scenario with the given master seed.
///
/// The run is a pure function of `(cfg, seed)` — see the determinism
/// contract in [`mobic_sim`].
///
/// # Errors
///
/// Returns [`RunError::Config`] if the configuration is invalid, and
/// [`RunError::AuditFailed`] when a strict invariant audit trips.
pub fn run_scenario(cfg: &ScenarioConfig, seed: u64) -> Result<RunResult, RunError> {
    run_scenario_instrumented(cfg, seed, |_| {}, &mut NullSink)
}

/// Like [`run_scenario`], with two hooks: `observer` sees a
/// [`SampleView`] of the live simulation state at every sampling
/// instant, and `sink` receives every structured [`TraceEvent`] of the
/// run — hello tx/rx, loss drops, MAC collisions, head
/// elections/resignations, cluster merges, index refreshes and fault
/// events, each stamped with the simulation time. Pass `|_| {}` or
/// [`NullSink`] for a hook you do not need.
///
/// The observer is how higher layers (e.g. the `mobic-routing`
/// experiments) probe the evolving cluster structure without
/// re-implementing the event loop. Tracing is purely observational:
/// the [`RunResult`] is bit-identical to an untraced run of the same
/// `(cfg, seed)`, and with [`NullSink`] the loop skips event
/// construction entirely (checked once via [`TraceSink::enabled`]).
///
/// # Errors
///
/// Propagates errors exactly as [`run_scenario`] does. Sink I/O
/// errors never interrupt the run — fallible sinks latch them
/// (see [`mobic_trace::JsonlSink::finish`]).
pub fn run_scenario_instrumented(
    cfg: &ScenarioConfig,
    seed: u64,
    observer: impl FnMut(SampleView<'_>),
    sink: &mut dyn TraceSink,
) -> Result<RunResult, RunError> {
    dispatch(cfg, seed, observer, sink, None, CheckpointPlan::None).map(RunOutcome::into_done)
}

/// Runs a scenario until exactly `stop_after` events have been
/// processed, then suspends between events into a [`SimSnapshot`] —
/// the "kill the run at event N" primitive behind the checkpoint
/// equivalence suites and the CLI's `--checkpoint-stop-after`.
///
/// Returns [`RunOutcome::Done`] when the whole run takes fewer than
/// `stop_after` events, [`RunOutcome::Suspended`] otherwise. Resuming
/// the snapshot with [`run_scenario_checkpointed`] yields a
/// [`RunResult`] (and, for cursor-capable sinks, a JSONL trace)
/// byte-identical to the uninterrupted run.
///
/// # Errors
///
/// Propagates errors exactly as [`run_scenario`] does.
pub fn run_scenario_until(
    cfg: &ScenarioConfig,
    seed: u64,
    stop_after: u64,
    sink: &mut dyn TraceSink,
) -> Result<RunOutcome, RunError> {
    dispatch(
        cfg,
        seed,
        |_| {},
        sink,
        None,
        CheckpointPlan::StopAfter(stop_after),
    )
}

/// Runs a scenario to completion, optionally resuming it from a
/// snapshot and optionally checkpointing it as it goes.
///
/// * `resume`: a suspended run to continue. The result has the same
///   bytes an uninterrupted run of `(cfg, seed)` would have produced.
///   The snapshot must belong to this `(cfg, seed)`: the seed and the
///   *semantic* config hash (execution knobs canonicalized away — see
///   [`crate::snapshot::semantic_config_hash`]) are checked before any
///   state is restored, so a snapshot may resume under other execution
///   knobs but never under a different scenario.
/// * `dir`: where to write crash-safe checkpoints. With checkpointing
///   on in the config, roughly every `cfg.checkpoint.every_s`
///   wall-clock seconds a rotated snapshot (`ckpt-<events>.ckpt`,
///   newest `cfg.checkpoint.keep` kept) is published atomically into
///   `dir`. `None`, or checkpointing off, writes nothing.
///
/// Checkpoint *content* is deterministic; only *when* a periodic
/// snapshot fires depends on wall-clock, so which `ckpt-*.ckpt` files
/// exist may differ between machines while any one of them resumes to
/// the same bytes.
///
/// # Errors
///
/// Returns [`RunError::SnapshotMismatch`] when `resume` belongs to a
/// different `(cfg, seed)`; otherwise propagates errors exactly as
/// [`run_scenario`] does. Snapshot write failures never abort the run.
pub fn run_scenario_checkpointed(
    cfg: &ScenarioConfig,
    seed: u64,
    dir: Option<&Path>,
    resume: Option<SimSnapshot>,
    sink: &mut dyn TraceSink,
) -> Result<RunResult, RunError> {
    if let Some(snap) = &resume {
        snap.compatible_with(cfg, seed)
            .map_err(|reason| RunError::SnapshotMismatch { reason })?;
    }
    let plan = match dir {
        Some(dir) if !cfg.checkpoint.is_off() => CheckpointPlan::Periodic {
            every_s: cfg.checkpoint.every_s,
            dir,
            keep: cfg.checkpoint.keep,
        },
        _ => CheckpointPlan::None,
    };
    dispatch(cfg, seed, |_| {}, sink, resume.map(Box::new), plan).map(RunOutcome::into_done)
}

/// Validates, then runs the drive loop, threading the resume snapshot
/// and the checkpoint plan through. Every public runner entry point
/// funnels here.
fn dispatch(
    cfg: &ScenarioConfig,
    seed: u64,
    mut observer: impl FnMut(SampleView<'_>),
    sink: &mut dyn TraceSink,
    resume: Option<Box<SimSnapshot>>,
    plan: CheckpointPlan<'_>,
) -> Result<RunOutcome, RunError> {
    cfg.validate()?;
    // Queue depth: one hello per node, the sampler, headroom for a
    // same-instant reschedule, plus every planned fault injection.
    let queue_cap = cfg.n_nodes as usize + 2 + cfg.faults.injections() as usize;
    let mut sim = Simulation::with_capacity(queue_cap);
    let mut phase_clock = PhaseClock::start();
    let splitter = SeedSplitter::new(seed);
    let sim_end = SimTime::from_secs_f64(cfg.sim_time_s);
    let mut run = Runner::new(cfg, &splitter, sink);
    // On resume, the snapshot's queue already carries every pending
    // hello/sample/fault entry, and the fault-plan schedule was drawn
    // by the original run — re-running either would double-book
    // events. The skipped streams ("hello-offset", the fault setup
    // draws) are setup-only: no live stream position depends on them.
    match resume {
        Some(snap) => run.restore(*snap, &mut sim),
        None => run.schedule_start(&splitter, &mut sim),
    }

    let setup_ms = phase_clock.lap_ms();
    let wall_start = mobic_trace::Stopwatch::start();
    // Checkpoint trigger state. `StopAfter` pins an exact processed-
    // event index (the kill point of the equivalence suites);
    // `Periodic` fires on wall-clock cadence, re-checked every 1024
    // events so the hot loop pays one mask-and-compare. An absent
    // trigger never fires.
    let stop_after: Option<u64> = match plan {
        CheckpointPlan::StopAfter(at) => Some(at),
        _ => None,
    };
    let periodic_ms = match plan {
        CheckpointPlan::Periodic { every_s, .. } => every_s * 1000.0,
        _ => f64::INFINITY,
    };
    let mut next_due_ms = periodic_ms;
    // Processed-event index of the last periodic snapshot: the stop
    // predicate runs *before* popping an event, so without this guard
    // a cadence shorter than one event's wall time would re-fire at
    // the same index forever.
    let mut last_periodic: Option<u64> = None;
    // The drive loop: one `run_until` to the horizon, re-entered only
    // after a checkpoint suspends it between events.
    loop {
        let stopped = sim.run_until_stoppable(
            sim_end,
            |now, ev, sched| {
                let next = match ev {
                    Ev::Hello(tx) => run.hello(now, tx),
                    Ev::Sample => run.sample(now, &mut observer),
                    Ev::Fault(action) => run.fault(now, action),
                };
                if let Some((delay, ev)) = next {
                    sched.schedule_in(delay, ev);
                }
            },
            |processed| match stop_after {
                Some(at) => processed == at,
                None => {
                    processed & 0x3FF == 0
                        && last_periodic != Some(processed)
                        && wall_start.elapsed_ms() >= next_due_ms
                }
            },
        );
        if !stopped {
            break;
        }
        let snap = run.capture(seed, &mut sim);
        match plan {
            CheckpointPlan::StopAfter(_) => {
                return Ok(RunOutcome::Suspended(Box::new(snap)));
            }
            CheckpointPlan::Periodic { dir, keep, .. } => {
                // A failed snapshot write must not kill a healthy
                // run — it only costs resume granularity.
                let _ = snapshot::write_rotated(&snap, dir, keep);
                last_periodic = Some(sim.events_processed());
                next_due_ms = wall_start.elapsed_ms() + periodic_ms;
            }
            CheckpointPlan::None => unreachable!("stop trigger fired without a plan"),
        }
    }
    // End of run: nothing can overlap a still-pending reception any
    // more, so every one of them survived its window.
    run.commit_all_pending(sim_end, true);
    let indexed = run.index.is_some();
    let motion_fetches = run.mobility.motion_fetches();
    let st = run.state;
    if let Some((at, violations)) = st.abort {
        return Err(RunError::AuditFailed {
            at_s: at.as_secs_f64(),
            violations,
        });
    }
    let wall_clock_ms = wall_start.elapsed_ms();
    let event_loop_ms = phase_clock.lap_ms();

    let n = cfg.n_nodes as usize;
    let warmup = SimTime::from_secs_f64(cfg.warmup_s);
    let log = &st.log;
    let shares = log.clusterhead_time_shares(n, warmup, sim_end.max(warmup + SimTime::SECOND));
    let ch_time_gini = mobic_metrics::gini(&shares);
    let distinct_clusterheads = log.distinct_clusterheads();
    // Interned kind labels: counting happens on `&'static str` keys
    // (`&str` and `String` order identically, so the one conversion at
    // the end preserves the map's key order byte-for-byte).
    let mut kind_counts = std::collections::BTreeMap::<&'static str, usize>::new();
    for tr in log.transitions() {
        if tr.at >= warmup {
            *kind_counts
                .entry(transition_kind_label(tr.from, tr.to))
                .or_insert(0) += 1;
        }
    }
    let transitions_by_kind = kind_counts
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    let clusterhead_changes_total = log.clusterhead_changes();
    let clusterhead_changes = log.clusterhead_changes_after(warmup);
    let affiliation_changes = log.affiliation_changes_after(warmup);
    let final_roles = st
        .node_table
        .nodes()
        .iter()
        .map(ClusterNode::role)
        .collect();
    // The result outlives the run: free the neighbor tables first, then
    // move the log into the result rather than copying it.
    drop(st.node_table);
    let mut role_transitions = st.log.into_transitions();
    role_transitions.shrink_to_fit();
    let aggregate_ms = phase_clock.lap_ms();

    let healing = (st.probes_created > 0).then(|| HealingStats {
        probes: st.probes_created,
        healed: st.probes_healed,
        unhealed: st.probes_created - st.probes_healed,
        mean_latency_s: if st.probes_healed == 0 {
            0.0
        } else {
            st.healing_latency_sum / f64::from(st.probes_healed)
        },
        max_latency_s: st.healing_latency_max,
    });
    let audit = (cfg.audit != AuditMode::Off).then_some(AuditSummary {
        checks: st.audit_checks,
        violations: st.audit_violations,
    });

    Ok(RunOutcome::Done(Box::new(RunResult {
        algorithm: cfg.algorithm,
        seed,
        tx_range_m: cfg.tx_range_m,
        clusterhead_changes_total,
        clusterhead_changes,
        affiliation_changes,
        avg_clusters: st.cluster_series.mean_after(warmup),
        gateway_fraction: st.gateway_series.mean_after(warmup),
        mean_aggregate_metric: st.metric_series.mean_after(warmup),
        hello_broadcasts: st.hello_broadcasts,
        deliveries: st.deliveries,
        mac_collisions: st.mac_collisions,
        final_roles,
        transitions_by_kind,
        ch_time_gini,
        distinct_clusterheads,
        role_transitions,
        faults: st.faults,
        healing,
        audit,
        perf: RunPerf {
            events: sim.events_processed(),
            hello_events: st.hello_broadcasts,
            indexed,
            mean_candidates: if st.hello_broadcasts == 0 {
                0.0
            } else {
                st.candidate_total as f64 / st.hello_broadcasts as f64
            },
            index_refreshes: st.index_refreshes,
            wall_clock_ms,
            phase_ms: PhaseTimings {
                setup_ms,
                event_loop_ms,
                aggregate_ms,
                elections_skipped: 0,
                motion_fetches,
            },
        },
        cluster_series: st.cluster_series,
    })))
}

/// The run's loop state: every value the event arms mutate, and
/// exactly what a [`SimSnapshot`] stores of it. Capture clones it,
/// packing the neighbor tables into their wire form
/// ([`NodeTable::pack_tables`]), and resume moves it back and unpacks
/// them; everything else a run holds is either
/// rebuilt from `(cfg, seed)` ([`Runner`]) or saved beside it (the
/// queue, the fault stream position, channel state, the trace cursor).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct RunState {
    node_table: NodeTable,
    /// Last evaluated position of every node: exact for the nodes an
    /// arm just moved, the index's approximation for the rest.
    positions: Vec<Vec2>,
    /// When the spatial index last had a full refresh.
    last_refresh: SimTime,
    /// Vulnerable-window MAC state, per receiver: the latest arrival,
    /// and the reception still waiting for its window to close.
    last_arrival: Vec<Option<SimTime>>,
    pending: Vec<Option<PendingRx>>,
    hello_broadcasts: u64,
    deliveries: u64,
    mac_collisions: u64,
    /// Candidate receivers evaluated, summed over every hello.
    candidate_total: u64,
    index_refreshes: u64,
    /// Retired snapshot key: older builds counted skipped elections
    /// here. Nothing reads it; a fresh run writes 0, a resumed one
    /// carries the loaded value along.
    elections_skipped: u64,
    log: TransitionLog,
    cluster_series: TimeSeries,
    gateway_series: TimeSeries,
    metric_series: TimeSeries,
    faults: FaultCounters,
    /// Open cluster-healing probes, plus the tallies of all of them.
    probes: Vec<HealingProbe>,
    probes_created: u32,
    probes_healed: u32,
    healing_latency_sum: f64,
    healing_latency_max: f64,
    audit_checks: u64,
    audit_violations: u64,
    /// Set by a tripped strict audit: the arms stop rescheduling, so
    /// the queue drains, and the run returns an error.
    abort: Option<(SimTime, usize)>,
}

impl RunState {
    /// Checks a snapshot's state against a run of `n` nodes: every
    /// per-node vector holds `n` entries and every node id the state
    /// carries — in the node table ([`NodeTable::check_packed`]), in
    /// pending receptions and in healing probes' orphan lists — is
    /// below `n`, so a forged or mismatched payload is refused before
    /// it can index out of bounds.
    pub(crate) fn check_shape(&self, n: usize) -> Result<(), String> {
        let lens = [
            ("positions", self.positions.len()),
            ("last_arrival", self.last_arrival.len()),
            ("pending", self.pending.len()),
        ];
        if let Some((name, len)) = lens.into_iter().find(|&(_, len)| len != n) {
            return Err(format!("`{name}` has {len} entries for {n} nodes"));
        }
        let pending = self
            .pending
            .iter()
            .flatten()
            .flat_map(|rx| [Some(rx.hello.sender), rx.hello.payload.ch])
            .flatten()
            .map(NodeId::index);
        let orphans = self.probes.iter().flat_map(|p| p.orphans.iter().copied());
        if let Some(id) = pending.chain(orphans).find(|&id| id >= n) {
            return Err(format!(
                "a pending reception or healing probe names node {id}, but the run has {n} nodes"
            ));
        }
        self.node_table.check_packed(n)
    }

    /// The state at time zero. Every growth-prone container is
    /// pre-sized from the config so the event loop appends without
    /// reallocating: the series see one sample per broadcast interval,
    /// the transition log a few entries per node.
    fn new(cfg: &ScenarioConfig, node_table: NodeTable) -> Self {
        let n = cfg.n_nodes as usize;
        let samples = (cfg.sim_time_s / cfg.bi_s) as usize + 2;
        RunState {
            node_table,
            positions: vec![Vec2::ZERO; n],
            last_refresh: SimTime::ZERO,
            last_arrival: vec![None; n],
            pending: vec![None; n],
            hello_broadcasts: 0,
            deliveries: 0,
            mac_collisions: 0,
            candidate_total: 0,
            index_refreshes: 0,
            elections_skipped: 0,
            log: TransitionLog::with_capacity(4 * n),
            cluster_series: TimeSeries::with_capacity("clusters", samples),
            gateway_series: TimeSeries::with_capacity("gateway-fraction", samples),
            metric_series: TimeSeries::with_capacity("mean-aggregate-metric", samples),
            faults: FaultCounters::default(),
            probes: Vec::new(),
            probes_created: 0,
            probes_healed: 0,
            healing_latency_sum: 0.0,
            healing_latency_max: 0.0,
            audit_checks: 0,
            audit_violations: 0,
            abort: None,
        }
    }
}

/// A live run: its [`RunState`], plus the objects a resume rebuilds
/// from `(cfg, seed)` instead of storing — mobility models, the
/// delivery engine, the spatial index, scratch buffers and the fault
/// stream. Each event kind is one method, which returns the event it
/// books next (`(delay, event)`), if any.
struct Runner<'a> {
    cfg: &'a ScenarioConfig,
    sink: &'a mut dyn TraceSink,
    /// `sink.enabled()`, checked once: with a disabled sink the arms
    /// never construct a trace event, so tracing is zero-cost when off.
    tracing: bool,
    n: usize,
    bi: SimTime,
    warmup: SimTime,
    /// The MAC vulnerable window; zero disables the collision model.
    packet_time: SimTime,
    /// Half a broadcast interval: how stale the spatial index may get
    /// before a hello forces a full refresh. It bounds staleness tightly
    /// enough that the slack radius stays close to the radio range at
    /// paper speeds.
    refresh_period: SimTime,
    speed_bound: f64,
    /// The candidate query radius before the staleness slack.
    base_range: f64,
    /// Every node's mobility model behind its cached motion segment:
    /// the only way the runner reads a position.
    mobility: Fleet,
    engine: DeliveryEngine<Box<dyn Propagation>, Box<dyn LossModel>>,
    /// The spatial-index fast path (see the module docs): approximate
    /// positions refreshed on a fixed cadence, queried per hello with
    /// a conservative slack radius so no true receiver is ever missed.
    /// `None` on the brute-force path.
    index: Option<GridIndex>,
    scratch: Scratch,
    /// The live "faults" stream; `None` when the fault plan is empty.
    fault_rng: Option<ChaCha12Rng>,
    state: RunState,
}

impl<'a> Runner<'a> {
    /// Builds the protocol stack for `cfg` at time zero.
    fn new(cfg: &'a ScenarioConfig, splitter: &SeedSplitter, sink: &'a mut dyn TraceSink) -> Self {
        let n = cfg.n_nodes as usize;
        let field = Rect::new(cfg.field_w_m, cfg.field_h_m);
        let radio = Radio::with_range(build_propagation(cfg, splitter), cfg.tx_range_m);
        let engine = DeliveryEngine::new(radio, build_loss(cfg, splitter));
        let ccfg = ClusterConfig {
            algorithm: cfg.algorithm,
            cci: SimTime::from_secs_f64(cfg.cci_s),
            metric_max_age: SimTime::from_secs_f64(cfg.tp_s),
            history_alpha: cfg.history_alpha,
            aggregation: cfg.metric_aggregation,
            metric_quantum: cfg.metric_quantum,
            undecided_patience: SimTime::from_secs_f64(cfg.undecided_patience_s),
        };
        let node_table = NodeTable::new(
            n,
            ccfg,
            SimTime::from_secs_f64(cfg.tp_s),
            expected_degree(cfg),
        );
        let use_indexed = uses_index(cfg);
        let base_range = base_query_range(cfg, engine.radio());
        let mut run = Runner {
            cfg,
            tracing: sink.enabled(),
            sink,
            n,
            bi: SimTime::from_secs_f64(cfg.bi_s),
            warmup: SimTime::from_secs_f64(cfg.warmup_s),
            packet_time: SimTime::from_secs_f64(cfg.packet_time_s),
            refresh_period: SimTime::from_secs_f64(0.5 * cfg.bi_s),
            speed_bound: slack_speed_bound(cfg),
            base_range,
            mobility: Fleet::new(build_mobility(cfg, field, splitter)),
            engine,
            index: None,
            scratch: Scratch::with_capacity(n.min(SCRATCH_PRESIZE_MAX)),
            // Node-lifecycle fault injection (see `FaultPlan`) draws from
            // a dedicated stream, so an empty plan consumes no randomness
            // and fault-free runs stay byte-identical to previous releases.
            fault_rng: (!cfg.faults.is_empty()).then(|| splitter.stream("faults", 0)),
            state: RunState::new(cfg, node_table),
        };
        if use_indexed {
            run.locate_all(SimTime::ZERO);
            // Cells as wide as the stalest query's radius: every query
            // box then spans at most 3×3 cells.
            let max_radius = run.query_radius(run.refresh_period.as_secs_f64());
            run.index = Some(GridIndex::build(field, max_radius, &run.state.positions));
        }
        run
    }

    /// The candidate query radius when the index is `staleness_s` old.
    fn query_radius(&self, staleness_s: f64) -> f64 {
        query_radius(self.cfg, self.base_range, self.speed_bound, staleness_s)
    }

    /// Books a fresh run's opening events: every node's first hello at
    /// a random offset in `[0, BI)` (nodes are not synchronized), the
    /// first sample, and the whole fault plan, whose fire times and
    /// late-join victims come from the fault stream.
    fn schedule_start(&mut self, splitter: &SeedSplitter, sim: &mut Simulation<Ev>) {
        use rand::Rng;
        let cfg = self.cfg;
        let n = self.n;
        let mut off_rng = splitter.stream("hello-offset", 0);
        for i in 0..n {
            let offset = SimTime::from_secs_f64(off_rng.gen::<f64>() * cfg.bi_s);
            sim.schedule_at(offset, Ev::Hello(NodeId::new(i as u32)));
        }
        sim.schedule_at(self.bi, Ev::Sample);

        let Some(rng) = self.fault_rng.as_mut() else {
            return;
        };
        let plan = cfg.faults;
        let from = plan.from_s;
        let until = if plan.until_s == 0.0 {
            cfg.sim_time_s
        } else {
            plan.until_s.min(cfg.sim_time_s)
        };
        let span = until - from; // validate() guarantees > 0
        let fire_at =
            |rng: &mut ChaCha12Rng| SimTime::from_secs_f64(from + rng.gen::<f64>() * span);

        // Late joiners first: distinct victims via a partial
        // Fisher–Yates shuffle, withheld from the network (dead, not
        // counted as crashes) until their join fires.
        let joins = plan.late_joins as usize;
        let mut pool: Vec<usize> = (0..n).collect();
        for k in 0..joins {
            let pick = rng.gen_range(k..n);
            pool.swap(k, pick);
        }
        for &v in &pool[..joins] {
            self.state.node_table.set_down(v);
            sim.schedule_at(fire_at(rng), Ev::Fault(FaultAction::Join { node: v }));
        }
        // Fire times for the remaining categories, drawn in a fixed
        // order so the schedule is a pure function of the seed.
        let back = Some(SimTime::from_secs_f64(plan.recovery_after_s));
        for (count, action) in [
            (plan.crashes, FaultAction::Crash { revive_after: None }),
            (plan.recoveries, FaultAction::Crash { revive_after: back }),
            (plan.deaf_spells, FaultAction::Impair { mute: false }),
            (plan.mute_spells, FaultAction::Impair { mute: true }),
        ] {
            for _ in 0..count {
                sim.schedule_at(fire_at(rng), Ev::Fault(action));
            }
        }
    }

    /// Continues a suspended run (DESIGN.md § "Checkpoint/restore"):
    /// the loop state moves back, its neighbor tables rebuilt from
    /// their wire form; the spatial index is
    /// re-seeded from the restored positions; RNG and channel state
    /// resume positionally; and the event queue is re-armed entry by
    /// entry with its original sequence numbers, so pop order
    /// continues exactly where the captured run left off.
    fn restore(&mut self, snap: SimSnapshot, sim: &mut Simulation<Ev>) {
        self.state = snap.state;
        self.state
            .node_table
            .unpack_tables(expected_degree(self.cfg));
        if let Some(index) = self.index.as_mut() {
            index.update_all(&self.state.positions);
        }
        let env = snap.envelope;
        if let (Some(rng), Some((hi, lo))) = (self.fault_rng.as_mut(), env.fault_rng_word_pos) {
            rng.set_word_pos((u128::from(hi) << 64) | u128::from(lo));
        }
        self.engine.loss_mut().restore_state(&env.loss);
        self.engine
            .radio()
            .propagation()
            .restore_state(&env.propagation);
        for (t, q_seq, ev) in env.queue {
            sim.queue_mut().restore_entry(t, q_seq, ev);
        }
        sim.queue_mut().set_next_seq(env.next_seq);
        sim.restore_progress(env.now, env.events_processed);
    }

    /// Lifts the run into a snapshot between events: flushes the trace
    /// so its cursor is durable, drains the queue into canonical
    /// `(time, seq)` order and re-arms it (original seqs preserved), so
    /// a periodic run continues unperturbed.
    fn capture(&mut self, seed: u64, sim: &mut Simulation<Ev>) -> SimSnapshot {
        if self.tracing {
            self.sink.sync();
        }
        let queue = sim.queue_mut().drain_canonical();
        for &(t, q_seq, ev) in &queue {
            sim.queue_mut().restore_entry(t, q_seq, ev);
        }
        let envelope = Envelope {
            config_hash: snapshot::semantic_config_hash(self.cfg),
            seed,
            now: sim.now(),
            events_processed: sim.events_processed(),
            next_seq: sim.queue_mut().next_seq(),
            queue,
            fault_rng_word_pos: self.fault_rng.as_ref().map(|r| {
                let pos = r.get_word_pos();
                ((pos >> 64) as u64, pos as u64)
            }),
            loss: self.engine.loss().save_state(),
            propagation: self.engine.radio().propagation().save_state(),
            trace: if self.tracing {
                self.sink.cursor()
            } else {
                None
            },
        };
        let mut state = self.state.clone();
        state.node_table.pack_tables();
        SimSnapshot { envelope, state }
    }

    /// Evaluates every node's exact position at `now`.
    fn locate_all(&mut self, now: SimTime) {
        self.mobility.locate_all(now, &mut self.state.positions);
    }

    /// Folds freshly evaluated positions into the spatial index as a
    /// full refresh (no-op on the brute-force path).
    fn refresh_index(&mut self, now: SimTime) {
        if let Some(index) = self.index.as_mut() {
            index.update_all(&self.state.positions);
            self.state.last_refresh = now;
            self.state.index_refreshes += 1;
            if self.tracing {
                let nodes = self.n as u32;
                self.sink.record(now, &TraceEvent::IndexRefresh { nodes });
            }
        }
    }

    /// Commits every deferred reception whose window has closed (all of
    /// them with `force`).
    fn commit_all_pending(&mut self, now: SimTime, force: bool) {
        if !self.packet_time.is_zero() {
            for r in 0..self.n {
                self.commit_pending(r, now, force);
            }
        }
    }

    // lint:hot-path — the steady-state hello arm: after warmup the
    // event loop is almost exclusively `hello` and the stages below it;
    // every per-event `Vec` lives in `scratch` (the zero-alloc
    // guarantee: mobic-lint reads this region's source, and
    // `tests/steady_state_allocations.rs` measures it).

    /// Node `tx` broadcasts its hello (§3.2): expire, stamp `M`,
    /// deliver, then elect; returns its next hello.
    fn hello(&mut self, now: SimTime, tx: NodeId) -> Option<(SimTime, Ev)> {
        if self.state.abort.is_some() {
            // A strict audit tripped: drain the queue without
            // rescheduling so the loop terminates.
            return None;
        }
        let txi = tx.index();
        if !self.state.node_table.is_alive(txi) {
            // Dead (or not-yet-joined) node: keep its hello clock
            // ticking at the base interval so a later revival re-enters
            // the protocol, but touch nothing else — no RNG draws, no
            // table reads, no counters.
            return Some((self.bi, Ev::Hello(tx)));
        }
        if !self.packet_time.is_zero() {
            // The node is about to read its own table: commit a
            // deferred reception whose window has closed.
            self.commit_pending(txi, now, false);
        }
        // `prepare_broadcast` and the election each expire stale
        // neighbors at `now` first. A mute node before the first `BI`
        // runs neither, which loses nothing: `validate` keeps
        // `TP ≥ BI`, so no entry is stale yet.
        //
        // A mute (tx-impaired) node holds this hello — no sequence
        // number consumed, no metric stamped, nothing on the air — but
        // it keeps listening and still runs its election below.
        if self.state.node_table.can_transmit(txi) {
            self.broadcast(now, tx);
        }
        // Listen-before-decide: the paper's nodes compare their M "with
        // those of its neighbors", so no role decision is taken until
        // every neighbor has had one full broadcast interval to
        // introduce itself.
        if now >= self.bi {
            self.elect(now, txi);
        }
        // §5 extension: mobility-adaptive hello pacing — mobile
        // neighborhoods refresh faster (down to the configured floor),
        // calm ones keep the base interval.
        let cfg = self.cfg;
        let next = if cfg.adaptive_bi_min_s > 0.0 {
            const PIVOT_DB2: f64 = 2.0;
            let m = self.state.node_table.node(txi).metric();
            let secs =
                (cfg.bi_s * PIVOT_DB2 / (PIVOT_DB2 + m)).clamp(cfg.adaptive_bi_min_s, cfg.bi_s);
            SimTime::from_secs_f64(secs)
        } else {
            self.bi
        };
        Some((next, Ev::Hello(tx)))
    }

    /// Stamps and transmits `tx`'s hello, then hands every successful
    /// reception to its receiver.
    fn broadcast(&mut self, now: SimTime, tx: NodeId) {
        let hello = self.state.node_table.prepare_broadcast(tx.index(), now);
        self.state.hello_broadcasts += 1;
        if self.tracing {
            let seq = hello.seq;
            let node = tx.value();
            self.sink.record(now, &TraceEvent::HelloTx { node, seq });
        }
        self.deliver(now, tx);
        if self.tracing {
            for &dropped in &self.scratch.lost {
                let ev = TraceEvent::HelloLost {
                    tx: tx.value(),
                    rx: dropped.value(),
                };
                self.sink.record(now, &ev);
            }
        }
        for k in 0..self.scratch.delivered.len() {
            let d = self.scratch.delivered[k];
            self.admit(now, tx, &hello, d);
        }
    }

    /// The radio and loss stages: moves the transmitter and its
    /// candidate receivers to `now`, and leaves the successful
    /// receptions in `scratch.delivered` and the dropped ones in
    /// `scratch.lost`. The candidates are the index query's ids on
    /// the fast path and every other node on the brute-force path,
    /// in id order either way, so stateful loss models see the same
    /// query sequence on both.
    fn deliver(&mut self, now: SimTime, tx: NodeId) {
        let txi = tx.index();
        if self.index.is_some()
            && now.saturating_sub(self.state.last_refresh) >= self.refresh_period
        {
            self.locate_all(now);
            self.refresh_index(now);
        }
        let staleness = now.saturating_sub(self.state.last_refresh).as_secs_f64();
        let radius = self.query_radius(staleness);
        self.scratch.candidates.clear();
        if let Some(index) = self.index.as_mut() {
            let st = &mut self.state;
            let scratch = &mut self.scratch;
            st.positions[txi] = self.mobility.position(txi, now);
            index.update(txi, st.positions[txi]);
            scratch.ids.clear();
            index.for_each_within(st.positions[txi], radius, |i| scratch.ids.push(i));
            scratch.ids.sort_unstable();
            for &i in &scratch.ids {
                if i == txi {
                    continue;
                }
                st.positions[i] = self.mobility.position(i, now);
                index.update(i, st.positions[i]);
                scratch
                    .candidates
                    .push((NodeId::new(i as u32), st.positions[i]));
            }
        } else {
            self.locate_all(now);
            for (i, &p) in self.state.positions.iter().enumerate() {
                if i != txi {
                    self.scratch.candidates.push((NodeId::new(i as u32), p));
                }
            }
        }
        let scratch = &mut self.scratch;
        self.state.candidate_total += scratch.candidates.len() as u64;
        self.engine.broadcast_among_into(
            tx,
            self.state.positions[txi],
            &scratch.candidates,
            now,
            &mut scratch.delivered,
            &mut scratch.lost,
        );
    }

    /// Hands one successful reception of `tx`'s hello to its receiver:
    /// straight into the neighbor table, or — under the MAC collision
    /// model — into a vulnerable window that a second arrival destroys.
    fn admit(&mut self, now: SimTime, tx: NodeId, hello: &Hello<ClusterAdvert>, d: Delivery) {
        let r = d.receiver.index();
        if !self.state.node_table.can_receive(r) {
            // Dead or deaf receivers are filtered *after* the radio and
            // loss stages, so the loss-model RNG sequence is exactly the
            // fault-free one.
            return;
        }
        let rx = d.receiver.value();
        if self.packet_time.is_zero() {
            self.state.deliveries += 1;
            self.state.node_table.record(r, now, d.rx_power, hello);
            if self.tracing {
                let ev = TraceEvent::HelloRx {
                    tx: tx.value(),
                    rx,
                    rx_power_dbm: d.rx_power.dbm(),
                };
                self.sink.record(now, &ev);
            }
            return;
        }
        self.commit_pending(r, now, false);
        let st = &mut self.state;
        let collided =
            st.last_arrival[r].is_some_and(|prev| now.saturating_sub(prev) < self.packet_time);
        st.last_arrival[r] = Some(now);
        if !collided {
            st.pending[r] = Some(PendingRx {
                at: now,
                power: d.rx_power,
                hello: *hello,
            });
            return;
        }
        // The earlier packet is still uncommitted iff it arrived inside
        // the window; destroy it too.
        if let Some(p) = st.pending[r].take() {
            st.mac_collisions += 1;
            if self.tracing {
                let tx = p.hello.sender.value();
                self.sink.record(now, &TraceEvent::MacCollision { tx, rx });
            }
        }
        st.mac_collisions += 1;
        if self.tracing {
            let tx = tx.value();
            self.sink.record(now, &TraceEvent::MacCollision { tx, rx });
        }
    }

    /// Commits `rx`'s deferred reception once its vulnerable window has
    /// closed. `force` commits unconditionally — used at end of run,
    /// when no further arrival can overlap the pending packet. A
    /// committed reception is a successful delivery, so this is also
    /// where the `hello_rx` trace event fires (stamped with the
    /// *arrival* time the neighbor table sees).
    fn commit_pending(&mut self, rx: usize, now: SimTime, force: bool) {
        let st = &mut self.state;
        let Some(p) = st.pending[rx] else {
            return;
        };
        if force || now.saturating_sub(p.at) >= self.packet_time {
            st.pending[rx] = None;
            st.deliveries += 1;
            st.node_table.record(rx, p.at, p.power, &p.hello);
            if self.tracing {
                let ev = TraceEvent::HelloRx {
                    tx: p.hello.sender.value(),
                    rx: rx as u32,
                    rx_power_dbm: p.power.dbm(),
                };
                self.sink.record(p.at, &ev);
            }
        }
    }

    /// Runs node `txi`'s clustering evaluation and logs any role
    /// change.
    fn elect(&mut self, now: SimTime, txi: usize) {
        let st = &mut self.state;
        if let Some(tr) = st.node_table.evaluate(txi, now) {
            if self.tracing {
                let node = tr.node.value();
                match (tr.from, tr.to) {
                    // A head stepping down into another head's cluster
                    // is a cluster merge.
                    (Role::Clusterhead, Role::Member { ch }) => {
                        let into = ch.value();
                        self.sink
                            .record(now, &TraceEvent::ClusterMerge { node, into });
                    }
                    (Role::Clusterhead, _) => {
                        self.sink.record(now, &TraceEvent::HeadResigned { node });
                    }
                    (_, Role::Clusterhead) => {
                        self.sink.record(now, &TraceEvent::HeadElected { node });
                    }
                    // Member/undecided affiliation shuffles are in
                    // `role_transitions`; not traced.
                    _ => {}
                }
            }
            st.log.record(tr);
        }
    }

    // lint:end-hot-path (sampling and fault arms run a handful of times
    // per simulated second — cold by comparison)

    /// The once-per-`BI` sampler: refreshes every position, shows the
    /// observer the live state, records the series, resolves healing
    /// probes and runs the invariant audit.
    fn sample(
        &mut self,
        now: SimTime,
        observer: &mut impl FnMut(SampleView<'_>),
    ) -> Option<(SimTime, Ev)> {
        if self.state.abort.is_some() {
            return None;
        }
        self.locate_all(now);
        // The sampler evaluated everyone anyway: fold the free full
        // refresh into the index.
        self.refresh_index(now);
        // Sampling reads every table: commit closed windows.
        self.commit_all_pending(now, false);
        let st = &mut self.state;
        let node_table = &st.node_table;
        observer(SampleView {
            now,
            positions: &st.positions,
            nodes: node_table.nodes(),
            tables: node_table.tables(),
            alive: node_table.alive(),
        });
        // The series measure the *live* network. With every node alive
        // (no fault plan) the filters are pass-throughs and the
        // arithmetic — same iteration order, same divisor — is
        // bit-identical to the unfiltered version.
        let alive = node_table.alive();
        let alive_n = node_table.alive_count();
        let clusters = node_table
            .nodes()
            .iter()
            .enumerate()
            .filter(|(i, nd)| alive[*i] && nd.role().is_clusterhead())
            .count();
        st.cluster_series.push(now, clusters as f64);
        let gateways = node_table
            .nodes()
            .iter()
            .zip(node_table.tables())
            .enumerate()
            .filter(|(i, (nd, t))| alive[*i] && nd.is_gateway(t))
            .count();
        let gateway_fraction = if alive_n == 0 {
            0.0
        } else {
            gateways as f64 / alive_n as f64
        };
        st.gateway_series.push(now, gateway_fraction);
        let metric_sum = node_table
            .nodes()
            .iter()
            .enumerate()
            .filter(|(i, _)| alive[*i])
            .map(|(_, nd)| nd.metric())
            .sum::<f64>();
        let mean_metric = if alive_n == 0 {
            0.0
        } else {
            metric_sum / alive_n as f64
        };
        st.metric_series.push(now, mean_metric);
        // Cluster-healing probes: a probe opened by a clusterhead crash
        // resolves once every surviving orphan has found a live
        // clusterhead (or become one); orphans that crash drop out of
        // their probe.
        st.probes.retain_mut(|p| {
            p.orphans
                .retain(|&o| node_table.is_alive(o) && !reaffiliated(node_table, o));
            if !p.orphans.is_empty() {
                return true;
            }
            let latency = now.saturating_sub(p.started).as_secs_f64();
            st.probes_healed += 1;
            st.healing_latency_sum += latency;
            st.healing_latency_max = st.healing_latency_max.max(latency);
            false
        });
        if self.cfg.audit != AuditMode::Off && now >= self.warmup {
            self.audit(now);
            if self.state.abort.is_some() {
                return None;
            }
        }
        Some((self.bi, Ev::Sample))
    }

    /// Periodic Theorem-1 audit of the live topology. The protocol
    /// violates Theorem 1 *transiently* by design (CCI deferral, TP
    /// affiliation holding), so `warn` observes and `strict` is meant
    /// for converged/stationary scenarios where a violation is a
    /// genuine defect.
    fn audit(&mut self, now: SimTime) {
        let st = &mut self.state;
        st.audit_checks += 1;
        let alive = st.node_table.alive();
        let alive_n = st.node_table.alive_count();
        let mut ids = Vec::with_capacity(alive_n);
        let mut roles = Vec::with_capacity(alive_n);
        let mut pos = Vec::with_capacity(alive_n);
        for (i, nd) in st.node_table.nodes().iter().enumerate() {
            if alive[i] {
                ids.push(NodeId::new(i as u32));
                roles.push(nd.role());
                pos.push(st.positions[i]);
            }
        }
        let adj = mobic_core::centralized::Adjacency::unit_disk(&pos, self.cfg.tx_range_m);
        let violations = mobic_core::invariants::check_theorem1(&roles, &ids, &adj);
        st.audit_violations += violations.len() as u64;
        if violations.is_empty() {
            return;
        }
        if self.tracing {
            for v in &violations {
                self.sink.record(now, &violation_event(v, &ids));
            }
        }
        if self.cfg.audit == AuditMode::Strict {
            // Structured failure, never a panic: flag the run and let
            // the queue drain.
            st.abort = Some((now, violations.len()));
        }
    }

    /// A scheduled node-lifecycle fault fires; returns the revival or
    /// restore it books, if any.
    fn fault(&mut self, now: SimTime, action: FaultAction) -> Option<(SimTime, Ev)> {
        if self.state.abort.is_some() {
            return None;
        }
        // Fault events are only scheduled when a plan exists, so the
        // stream is always there; a missing one would mean a scheduling
        // bug, and dropping the event is strictly safer than aborting
        // the run.
        let rng = self.fault_rng.as_mut()?;
        let target = self.cfg.faults.target;
        let st = &mut self.state;
        let node_table = &mut st.node_table;
        match action {
            FaultAction::Crash { revive_after } => {
                // `None`: nobody left alive to crash.
                let v = pick_victim(node_table, target, rng)?;
                // A clusterhead crash opens a healing probe over its
                // current live members.
                if node_table.node(v).role() == Role::Clusterhead {
                    let ch = NodeId::new(v as u32);
                    let orphans: Vec<usize> = (0..self.n)
                        .filter(|&j| {
                            j != v
                                && node_table.is_alive(j)
                                && node_table.node(j).role() == (Role::Member { ch })
                        })
                        .collect();
                    if !orphans.is_empty() {
                        st.probes_created += 1;
                        st.probes.push(HealingProbe {
                            started: now,
                            orphans,
                        });
                    }
                }
                node_table.set_down(v);
                st.pending[v] = None;
                st.last_arrival[v] = None;
                st.faults.crashes += 1;
                if self.tracing {
                    self.sink
                        .record(now, &TraceEvent::NodeDown { node: v as u32 });
                }
                revive_after.map(|after| (after, Ev::Fault(FaultAction::Revive { node: v })))
            }
            FaultAction::Revive { node } | FaultAction::Join { node } => {
                if node_table.is_alive(node) {
                    return None;
                }
                node_table.bring_up(node, now);
                if matches!(action, FaultAction::Revive { .. }) {
                    st.faults.recoveries += 1;
                } else {
                    st.faults.late_joins += 1;
                }
                if self.tracing {
                    self.sink
                        .record(now, &TraceEvent::NodeUp { node: node as u32 });
                }
                None
            }
            FaultAction::Impair { mute } => {
                let v = pick_victim(node_table, target, rng)?;
                if mute {
                    node_table.set_mute(v, true);
                    st.faults.mute_spells += 1;
                } else {
                    node_table.set_deaf(v, true);
                    st.faults.deaf_spells += 1;
                }
                if self.tracing {
                    let node = v as u32;
                    self.sink
                        .record(now, &TraceEvent::NodeImpaired { node, mute });
                }
                let spell = SimTime::from_secs_f64(self.cfg.faults.spell_s);
                Some((spell, Ev::Fault(FaultAction::Restore { node: v, mute })))
            }
            FaultAction::Restore { node, mute } => {
                // A crash in the meantime already wiped the flag;
                // restore only what is still impaired.
                let impaired = node_table.is_alive(node)
                    && if mute {
                        node_table.is_mute(node)
                    } else {
                        node_table.is_deaf(node)
                    };
                if !impaired {
                    return None;
                }
                if mute {
                    node_table.set_mute(node, false);
                } else {
                    node_table.set_deaf(node, false);
                }
                if self.tracing {
                    let node = node as u32;
                    self.sink
                        .record(now, &TraceEvent::NodeRestored { node, mute });
                }
                None
            }
        }
    }
}

/// Build the [`RunManifest`] describing a finished run.
///
/// The manifest pairs the exact inputs (config echo + content hash +
/// seed) with the run's headline counters so a `results/*.json`
/// artifact can be audited without re-running the simulation. It is
/// a pure function of `(cfg, seed, result)` — no timestamps, no
/// host-specific data — so identical runs produce byte-identical
/// manifests.
///
/// # Examples
///
/// ```
/// use mobic_scenario::{manifest_for, run_scenario, ScenarioConfig};
///
/// let mut cfg = ScenarioConfig::paper_table1();
/// cfg.n_nodes = 8;
/// cfg.sim_time_s = 20.0;
/// cfg.warmup_s = 5.0;
/// let result = run_scenario(&cfg, 7).unwrap();
/// let manifest = manifest_for(&cfg, 7, &result);
/// assert_eq!(manifest.seed, 7);
/// assert_eq!(manifest.counters.hello_broadcasts, result.hello_broadcasts);
/// ```
pub fn manifest_for(cfg: &ScenarioConfig, seed: u64, result: &RunResult) -> RunManifest {
    // `ScenarioConfig` is plain data, so serialization is infallible
    // in practice; `Null` keeps the manifest well-formed rather than
    // aborting a sweep should that ever change.
    let config_json = serde_json::to_value(cfg).unwrap_or(serde_json::Value::Null);
    RunManifest {
        schema: mobic_trace::MANIFEST_SCHEMA,
        crate_version: env!("CARGO_PKG_VERSION").to_string(),
        config_hash: config_hash_for(cfg),
        config: config_json,
        seed,
        algorithm: cfg.algorithm.name().to_string(),
        indexed: result.perf.indexed,
        counters: ManifestCounters {
            events: result.perf.events,
            hello_broadcasts: result.hello_broadcasts,
            deliveries: result.deliveries,
            mac_collisions: result.mac_collisions,
            index_refreshes: result.perf.index_refreshes,
            clusterhead_changes_total: result.clusterhead_changes_total as u64,
        },
    }
}

/// Content hash of a scenario's canonical (single-line) config JSON —
/// the same value a [`manifest_for`] manifest carries, reusable as
/// stable error/artifact context without building a full manifest.
#[must_use]
pub fn config_hash_for(cfg: &ScenarioConfig) -> String {
    // Through `Value` so the keys are canonically (alphabetically)
    // ordered, exactly as the manifest's config echo serializes.
    // Plain-data config makes both steps infallible in practice; the
    // fallbacks hash a stable sentinel instead of aborting.
    let value = serde_json::to_value(cfg).unwrap_or(serde_json::Value::Null);
    let canonical = serde_json::to_string(&value).unwrap_or_default();
    config_hash(&canonical)
}

/// Interned `from->to` label for transition-kind keys — the same
/// strings `format!("{from}->{to}")` over the compact role names would
/// produce, without allocating per transition.
fn transition_kind_label(from: Role, to: Role) -> &'static str {
    use Role::{Clusterhead, Member, Undecided};
    match (from, to) {
        (Undecided, Undecided) => "undecided->undecided",
        (Undecided, Clusterhead) => "undecided->ch",
        (Undecided, Member { .. }) => "undecided->member",
        (Clusterhead, Undecided) => "ch->undecided",
        (Clusterhead, Clusterhead) => "ch->ch",
        (Clusterhead, Member { .. }) => "ch->member",
        (Member { .. }, Undecided) => "member->undecided",
        (Member { .. }, Clusterhead) => "member->ch",
        (Member { .. }, Member { .. }) => "member->member",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobic_core::AlgorithmKind;

    fn small(alg: AlgorithmKind) -> ScenarioConfig {
        let mut c = ScenarioConfig::paper_table1();
        c.n_nodes = 12;
        c.sim_time_s = 60.0;
        c.tx_range_m = 250.0;
        c.algorithm = alg;
        c
    }

    #[test]
    fn model_allowance_covers_every_model() {
        let kinds = [
            MobilityKind::RandomWaypoint,
            MobilityKind::RandomWalk { epoch_s: 5.0 },
            MobilityKind::GaussMarkov { alpha: 0.75 },
            MobilityKind::Rpgm {
                groups: 2,
                member_radius_m: 30.0,
            },
            MobilityKind::Highway {
                lanes: 2,
                bidirectional: true,
            },
            MobilityKind::ConferenceHall { booths: 4 },
            MobilityKind::Manhattan {
                block_m: 100.0,
                p_turn: 0.5,
            },
            MobilityKind::Stationary,
        ];
        for mobility in kinds {
            let cfg = ScenarioConfig {
                mobility,
                ..small(AlgorithmKind::Mobic)
            };
            let field = Rect::new(cfg.field_w_m, cfg.field_h_m);
            for model in build_mobility(&cfg, field, &SeedSplitter::new(1)) {
                let size = std::mem::size_of_val(&*model);
                assert!(size <= MODEL_BYTES, "{mobility:?}: {size} bytes");
            }
        }
    }

    #[test]
    fn runs_and_produces_sane_counts() {
        let cfg = small(AlgorithmKind::Mobic);
        let r = run_scenario(&cfg, 3).unwrap();
        // 12 nodes × 60 s / 2 s = 360 broadcasts (±1 per node for the
        // initial offset round landing inside the horizon).
        assert!(
            r.hello_broadcasts >= 348 && r.hello_broadcasts <= 372,
            "{}",
            r.hello_broadcasts
        );
        assert!(r.deliveries > 0);
        assert!(r.avg_clusters >= 1.0 && r.avg_clusters <= 12.0);
        assert_eq!(r.final_roles.len(), 12);
        assert_eq!(r.algorithm, AlgorithmKind::Mobic);
        assert!((0.0..=1.0).contains(&r.gateway_fraction));
        assert!(r.mean_aggregate_metric >= 0.0);
    }

    #[test]
    fn deterministic_across_invocations() {
        let cfg = small(AlgorithmKind::Mobic);
        let a = run_scenario(&cfg, 7).unwrap();
        let b = run_scenario(&cfg, 7).unwrap();
        assert_eq!(a.clusterhead_changes_total, b.clusterhead_changes_total);
        assert_eq!(a.deliveries, b.deliveries);
        assert_eq!(a.final_roles, b.final_roles);
        assert_eq!(a.avg_clusters, b.avg_clusters);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = small(AlgorithmKind::Mobic);
        let a = run_scenario(&cfg, 1).unwrap();
        let b = run_scenario(&cfg, 2).unwrap();
        // Different placements → different delivery counts with
        // overwhelming probability.
        assert_ne!(a.deliveries, b.deliveries);
    }

    #[test]
    fn stationary_network_converges_and_stays_stable() {
        let mut cfg = small(AlgorithmKind::Lcc);
        cfg.mobility = MobilityKind::Stationary;
        cfg.sim_time_s = 120.0;
        let r = run_scenario(&cfg, 5).unwrap();
        // No motion → no steady-state clusterhead changes at all.
        assert_eq!(r.clusterhead_changes, 0, "static network must be stable");
        // Everyone decided.
        assert!(r.final_roles.iter().all(|x| *x != Role::Undecided));
    }

    #[test]
    fn stationary_mobic_matches_lowest_id_fixed_point() {
        // With no motion every M stays 0, so MOBIC degenerates to
        // Lowest-ID — their converged clusterings must coincide.
        let mut cfg = small(AlgorithmKind::Mobic);
        cfg.mobility = MobilityKind::Stationary;
        cfg.sim_time_s = 120.0;
        let a = run_scenario(&cfg, 11).unwrap();
        let b = run_scenario(&cfg.with_algorithm(AlgorithmKind::Lcc), 11).unwrap();
        assert_eq!(a.final_roles, b.final_roles);
    }

    #[test]
    fn isolated_nodes_all_become_clusterheads() {
        let mut cfg = small(AlgorithmKind::Mobic);
        cfg.tx_range_m = 1.0; // nobody hears anybody
        let r = run_scenario(&cfg, 9).unwrap();
        assert_eq!(r.deliveries, 0);
        assert!(r.final_roles.iter().all(|x| *x == Role::Clusterhead));
        assert_eq!(r.avg_clusters, 12.0);
    }

    #[test]
    fn all_algorithms_run() {
        for alg in AlgorithmKind::ALL {
            let r = run_scenario(&small(alg), 4).unwrap();
            assert!(r.avg_clusters >= 1.0, "{alg}");
        }
    }

    #[test]
    fn all_mobility_kinds_run() {
        let kinds = [
            MobilityKind::RandomWaypoint,
            MobilityKind::RandomWalk { epoch_s: 10.0 },
            MobilityKind::GaussMarkov { alpha: 0.8 },
            MobilityKind::Rpgm {
                groups: 3,
                member_radius_m: 40.0,
            },
            MobilityKind::Highway {
                lanes: 4,
                bidirectional: true,
            },
            MobilityKind::ConferenceHall { booths: 5 },
            MobilityKind::Manhattan {
                block_m: 100.0,
                p_turn: 0.5,
            },
            MobilityKind::Stationary,
        ];
        for k in kinds {
            let mut cfg = small(AlgorithmKind::Mobic);
            cfg.mobility = k;
            cfg.sim_time_s = 30.0;
            let r = run_scenario(&cfg, 2).unwrap();
            assert!(r.hello_broadcasts > 0, "{k:?}");
        }
    }

    #[test]
    fn all_propagation_and_loss_kinds_run() {
        for prop in [
            PropagationKind::FreeSpace,
            PropagationKind::TwoRayGround,
            PropagationKind::LogDistance { exponent: 3.0 },
            PropagationKind::ShadowedFreeSpace { sigma_db: 4.0 },
            PropagationKind::NakagamiFreeSpace { m: 1.0 },
        ] {
            for l in [
                LossKind::None,
                LossKind::Bernoulli { p: 0.1 },
                LossKind::BurstyPreset,
            ] {
                let mut cfg = small(AlgorithmKind::Mobic);
                cfg.sim_time_s = 30.0;
                cfg.propagation = prop;
                cfg.loss = l;
                let r = run_scenario(&cfg, 6).unwrap();
                assert!(r.hello_broadcasts > 0, "{prop:?} {l:?}");
            }
        }
    }

    #[test]
    fn bernoulli_loss_reduces_deliveries() {
        let cfg = small(AlgorithmKind::Mobic);
        let clean = run_scenario(&cfg, 8).unwrap();
        let mut lossy_cfg = cfg;
        lossy_cfg.loss = LossKind::Bernoulli { p: 0.5 };
        let lossy = run_scenario(&lossy_cfg, 8).unwrap();
        let ratio = lossy.deliveries as f64 / clean.deliveries as f64;
        assert!((ratio - 0.5).abs() < 0.1, "ratio {ratio}");
    }

    #[test]
    fn collision_window_destroys_some_receptions() {
        let mut cfg = small(AlgorithmKind::Mobic);
        cfg.packet_time_s = 0.0;
        let clean = run_scenario(&cfg, 13).unwrap();
        assert_eq!(clean.mac_collisions, 0);
        cfg.packet_time_s = 0.02; // generous window to force collisions
        let noisy = run_scenario(&cfg, 13).unwrap();
        // A vulnerable-window overlap destroys BOTH packets, so
        // collisions always come in groups of at least two.
        assert!(noisy.mac_collisions >= 2, "no collisions observed");
        assert_eq!(
            noisy.deliveries + noisy.mac_collisions,
            clean.deliveries,
            "collisions must partition the same reception set"
        );
        assert!(noisy.deliveries < clean.deliveries);
    }

    #[test]
    fn extreme_collision_window_keeps_partition_invariant() {
        // A window as long as the broadcast interval makes nearly
        // every reception overlap another, exercising pending-chain
        // destruction and the end-of-run flush; the partition between
        // committed and destroyed receptions must never double-count.
        let mut cfg = small(AlgorithmKind::Mobic);
        cfg.n_nodes = 3;
        cfg.sim_time_s = 30.0;
        cfg.packet_time_s = 0.0;
        let clean = run_scenario(&cfg, 5).unwrap();
        cfg.packet_time_s = 2.0; // window == BI: maximal overlap
        let noisy = run_scenario(&cfg, 5).unwrap();
        assert_eq!(noisy.deliveries + noisy.mac_collisions, clean.deliveries);
    }

    #[test]
    fn manhattan_mobility_runs() {
        let mut cfg = small(AlgorithmKind::Mobic);
        cfg.mobility = MobilityKind::Manhattan {
            block_m: 100.0,
            p_turn: 0.5,
        };
        cfg.sim_time_s = 40.0;
        let r = run_scenario(&cfg, 3).unwrap();
        assert!(r.hello_broadcasts > 0);
    }

    #[test]
    fn adaptive_bi_sends_more_hellos_in_mobile_networks() {
        let mut cfg = small(AlgorithmKind::Mobic);
        let fixed = run_scenario(&cfg, 21).unwrap();
        cfg.adaptive_bi_min_s = 0.5;
        let adaptive = run_scenario(&cfg, 21).unwrap();
        assert!(
            adaptive.hello_broadcasts > fixed.hello_broadcasts,
            "adaptive {} vs fixed {}",
            adaptive.hello_broadcasts,
            fixed.hello_broadcasts
        );
        // Static network: everyone's M stays 0 → base rate.
        let mut calm = small(AlgorithmKind::Mobic);
        calm.mobility = MobilityKind::Stationary;
        calm.adaptive_bi_min_s = 0.5;
        let calm_adaptive = run_scenario(&calm, 21).unwrap();
        let mut calm_fixed_cfg = small(AlgorithmKind::Mobic);
        calm_fixed_cfg.mobility = MobilityKind::Stationary;
        let calm_fixed = run_scenario(&calm_fixed_cfg, 21).unwrap();
        assert_eq!(calm_adaptive.hello_broadcasts, calm_fixed.hello_broadcasts);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut cfg = small(AlgorithmKind::Mobic);
        cfg.n_nodes = 0;
        assert!(run_scenario(&cfg, 0).is_err());
    }

    #[test]
    fn fairness_fields_are_consistent() {
        let r = run_scenario(&small(AlgorithmKind::Mobic), 31).unwrap();
        assert!((0.0..1.0).contains(&r.ch_time_gini), "{}", r.ch_time_gini);
        assert!(r.distinct_clusterheads >= 1);
        assert!(r.distinct_clusterheads <= 12);
        // The transition trace is complete: CS can be recomputed.
        let warmup = SimTime::from_secs_f64(small(AlgorithmKind::Mobic).warmup_s);
        let recount = r
            .role_transitions
            .iter()
            .filter(|t| t.at >= warmup && t.is_clusterhead_change())
            .count();
        assert_eq!(recount, r.clusterhead_changes);
    }

    #[test]
    fn fast_path_taken_by_default_for_deterministic_propagation() {
        let cfg = small(AlgorithmKind::Mobic);
        let r = run_scenario(&cfg, 3).unwrap();
        assert!(r.perf.indexed, "free space must take the indexed path");
        assert_eq!(r.perf.hello_events, r.hello_broadcasts);
        assert!(r.perf.events >= r.hello_broadcasts);
        assert!(r.perf.index_refreshes > 0);
        assert!(r.perf.mean_candidates > 0.0 && r.perf.mean_candidates <= 11.0);
    }

    #[test]
    fn stochastic_propagation_falls_back_to_brute_force() {
        let mut cfg = small(AlgorithmKind::Mobic);
        cfg.propagation = PropagationKind::ShadowedFreeSpace { sigma_db: 4.0 };
        cfg.sim_time_s = 30.0;
        let r = run_scenario(&cfg, 3).unwrap();
        assert!(!r.perf.indexed);
        assert_eq!(r.perf.index_refreshes, 0);
        assert_eq!(r.perf.mean_candidates, 11.0); // always n − 1
    }

    #[test]
    fn fast_path_off_matches_on_exactly() {
        let mut cfg = small(AlgorithmKind::Mobic);
        cfg.fast_path = FastPath::Off;
        let brute = run_scenario(&cfg, 17).unwrap();
        assert!(!brute.perf.indexed);
        cfg.fast_path = FastPath::On;
        let fast = run_scenario(&cfg, 17).unwrap();
        assert!(fast.perf.indexed);
        assert_eq!(fast.deliveries, brute.deliveries);
        assert_eq!(fast.hello_broadcasts, brute.hello_broadcasts);
        assert_eq!(fast.final_roles, brute.final_roles);
        assert_eq!(fast.cluster_series, brute.cluster_series);
        assert_eq!(fast.role_transitions.len(), brute.role_transitions.len());
        assert_eq!(fast.mean_aggregate_metric, brute.mean_aggregate_metric);
        // The indexed path should actually prune work at this density.
        assert!(fast.perf.mean_candidates <= brute.perf.mean_candidates);
    }

    #[test]
    fn forced_fast_path_with_stochastic_propagation_is_rejected() {
        let mut cfg = small(AlgorithmKind::Mobic);
        cfg.fast_path = FastPath::On;
        cfg.propagation = PropagationKind::NakagamiFreeSpace { m: 3.0 };
        assert!(matches!(
            run_scenario(&cfg, 0),
            Err(RunError::Config(ConfigError::FastPathUnsupported { .. }))
        ));
    }

    #[test]
    fn result_serializes() {
        let r = run_scenario(&small(AlgorithmKind::Lcc), 1).unwrap();
        let json = serde_json::to_string(&r).unwrap();
        let back: RunResult = serde_json::from_str(&json).unwrap();
        assert_eq!(back.clusterhead_changes, r.clusterhead_changes);
    }

    /// In-memory sink tallying events by kind, for counter identities.
    #[derive(Default)]
    struct CountingSink {
        tx: u64,
        rx: u64,
        lost: u64,
        collisions: u64,
        elected: u64,
        resigned: u64,
        merged: u64,
        refreshes: u64,
        down: u64,
        up: u64,
        impaired: u64,
        restored: u64,
        violations: u64,
    }

    impl TraceSink for CountingSink {
        fn record(&mut self, _at: SimTime, event: &TraceEvent) {
            match event {
                TraceEvent::HelloTx { .. } => self.tx += 1,
                TraceEvent::HelloRx { .. } => self.rx += 1,
                TraceEvent::HelloLost { .. } => self.lost += 1,
                TraceEvent::MacCollision { .. } => self.collisions += 1,
                TraceEvent::HeadElected { .. } => self.elected += 1,
                TraceEvent::HeadResigned { .. } => self.resigned += 1,
                TraceEvent::ClusterMerge { .. } => self.merged += 1,
                TraceEvent::IndexRefresh { .. } => self.refreshes += 1,
                TraceEvent::NodeDown { .. } => self.down += 1,
                TraceEvent::NodeUp { .. } => self.up += 1,
                TraceEvent::NodeImpaired { .. } => self.impaired += 1,
                TraceEvent::NodeRestored { .. } => self.restored += 1,
                TraceEvent::InvariantViolation { .. } => self.violations += 1,
            }
        }
    }

    #[test]
    fn traced_event_counts_match_result_counters() {
        let mut cfg = small(AlgorithmKind::Mobic);
        cfg.loss = LossKind::Bernoulli { p: 0.2 };
        cfg.packet_time_s = 0.005;
        let mut sink = CountingSink::default();
        let r = run_scenario_instrumented(&cfg, 19, |_| {}, &mut sink).unwrap();
        assert_eq!(sink.tx, r.hello_broadcasts);
        assert_eq!(sink.rx, r.deliveries);
        assert_eq!(sink.collisions, r.mac_collisions);
        assert_eq!(sink.refreshes, r.perf.index_refreshes);
        assert_eq!(
            sink.elected + sink.resigned + sink.merged,
            r.clusterhead_changes_total as u64,
            "head elections + resignations + merges must equal total CH changes"
        );
        assert!(
            sink.lost > 0,
            "Bernoulli loss must surface hello_lost events"
        );
    }

    #[test]
    fn lossless_runs_emit_no_loss_events() {
        let cfg = small(AlgorithmKind::Mobic);
        let mut sink = CountingSink::default();
        run_scenario_instrumented(&cfg, 19, |_| {}, &mut sink).unwrap();
        assert_eq!(sink.lost, 0);
        assert_eq!(sink.collisions, 0);
    }

    #[test]
    fn tracing_never_perturbs_the_run() {
        // The observational guarantee: serialized RunResult is
        // byte-identical whether the run is untraced, null-sinked,
        // or fully traced.
        let mut cfg = small(AlgorithmKind::Mobic);
        cfg.loss = LossKind::Bernoulli { p: 0.3 };
        cfg.packet_time_s = 0.005;
        let plain = serde_json::to_string(&run_scenario(&cfg, 23).unwrap()).unwrap();
        let nulled = serde_json::to_string(
            &run_scenario_instrumented(&cfg, 23, |_| {}, &mut NullSink).unwrap(),
        )
        .unwrap();
        let mut sink = CountingSink::default();
        let traced =
            serde_json::to_string(&run_scenario_instrumented(&cfg, 23, |_| {}, &mut sink).unwrap())
                .unwrap();
        assert_eq!(plain, nulled);
        assert_eq!(plain, traced);
    }

    #[test]
    fn jsonl_traces_are_byte_identical_across_invocations() {
        let mut cfg = small(AlgorithmKind::Mobic);
        cfg.loss = LossKind::Bernoulli { p: 0.1 };
        let capture = |c: &ScenarioConfig| {
            let mut sink = mobic_trace::JsonlSink::new(Vec::new());
            run_scenario_instrumented(c, 29, |_| {}, &mut sink).unwrap();
            sink.finish().unwrap()
        };
        let a = capture(&cfg);
        let b = capture(&cfg);
        assert!(!a.is_empty());
        assert_eq!(a, b, "same (cfg, seed) must yield identical traces");
    }

    #[test]
    fn phase_timings_are_populated_and_skipped_by_serde() {
        let r = run_scenario(&small(AlgorithmKind::Mobic), 3).unwrap();
        assert!(r.perf.phase_ms.total_ms() > 0.0);
        assert!(r.perf.phase_ms.event_loop_ms > 0.0);
        let json = serde_json::to_string(&r).unwrap();
        assert!(
            !json.contains("phase_ms"),
            "phase timings must not serialize"
        );
        assert!(!json.contains("wall_clock_ms"));
    }

    #[test]
    fn retired_recluster_values_run_alike() {
        // `recluster` is parsed and ignored: both values give the same
        // bytes, across algorithm families and with a stateful loss
        // model in play.
        for alg in [
            AlgorithmKind::Mobic,
            AlgorithmKind::LowestId,
            AlgorithmKind::Wca,
        ] {
            let mut cfg = small(alg);
            cfg.loss = LossKind::Bernoulli { p: 0.2 };
            cfg.recluster = crate::Recluster::Full;
            let full = serde_json::to_string(&run_scenario(&cfg, 37).unwrap()).unwrap();
            cfg.recluster = crate::Recluster::Incremental;
            let incr = serde_json::to_string(&run_scenario(&cfg, 37).unwrap()).unwrap();
            assert_eq!(full, incr, "{alg}");
        }
    }

    #[test]
    fn manifest_is_deterministic_and_echoes_the_run() {
        let cfg = small(AlgorithmKind::Mobic);
        let r = run_scenario(&cfg, 41).unwrap();
        let a = manifest_for(&cfg, 41, &r);
        let b = manifest_for(&cfg, 41, &r);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
        assert_eq!(a.schema, mobic_trace::MANIFEST_SCHEMA);
        assert_eq!(a.seed, 41);
        assert_eq!(a.algorithm, "mobic");
        assert!(a.config_hash.starts_with("fnv1a64:"));
        assert_eq!(a.counters.hello_broadcasts, r.hello_broadcasts);
        assert_eq!(a.counters.deliveries, r.deliveries);
        assert_eq!(a.counters.events, r.perf.events);
        // A different config must hash differently.
        let mut other = cfg;
        other.n_nodes += 1;
        let r2 = run_scenario(&other, 41).unwrap();
        assert_ne!(manifest_for(&other, 41, &r2).config_hash, a.config_hash);
    }

    #[test]
    fn config_hash_for_matches_the_manifest() {
        let cfg = small(AlgorithmKind::Mobic);
        let r = run_scenario(&cfg, 2).unwrap();
        assert_eq!(manifest_for(&cfg, 2, &r).config_hash, config_hash_for(&cfg));
    }

    #[test]
    fn fault_free_results_omit_every_fault_key() {
        let r = run_scenario(&small(AlgorithmKind::Mobic), 3).unwrap();
        assert!(r.faults.is_empty());
        assert!(r.healing.is_none());
        assert!(r.audit.is_none());
        let json = serde_json::to_string(&r).unwrap();
        assert!(
            !json.contains("\"faults\""),
            "fault-free JSON must stay unchanged"
        );
        assert!(!json.contains("\"healing\""));
        assert!(!json.contains("\"audit\""));
    }

    #[test]
    fn crashes_are_counted_traced_and_reduce_hello_traffic() {
        let cfg = small(AlgorithmKind::Mobic);
        let clean = run_scenario(&cfg, 3).unwrap();
        let mut faulty = cfg;
        faulty.faults.crashes = 6;
        let mut sink = CountingSink::default();
        let r = run_scenario_instrumented(&faulty, 3, |_| {}, &mut sink).unwrap();
        assert_eq!(r.faults.crashes, 6);
        assert_eq!(sink.down, 6);
        assert_eq!(sink.up, 0);
        assert!(
            r.hello_broadcasts < clean.hello_broadcasts,
            "dead nodes must stop broadcasting: {} vs {}",
            r.hello_broadcasts,
            clean.hello_broadcasts
        );
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("\"faults\""));
        let back: RunResult = serde_json::from_str(&json).unwrap();
        assert_eq!(back.faults, r.faults);
    }

    #[test]
    fn recoveries_revive_crashed_nodes() {
        let mut cfg = small(AlgorithmKind::Mobic);
        cfg.faults.recoveries = 2;
        cfg.faults.recovery_after_s = 5.0;
        cfg.faults.until_s = 40.0; // leave room for the revival to fire
        let mut sink = CountingSink::default();
        let r = run_scenario_instrumented(&cfg, 3, |_| {}, &mut sink).unwrap();
        assert_eq!(r.faults.crashes, 2);
        assert_eq!(r.faults.recoveries, 2);
        assert_eq!(sink.down, 2);
        assert_eq!(sink.up, 2);
    }

    #[test]
    fn late_joiners_are_withheld_until_their_join_fires() {
        let mut cfg = small(AlgorithmKind::Mobic);
        cfg.faults.late_joins = 4;
        cfg.faults.until_s = 30.0;
        let r = run_scenario(&cfg, 3).unwrap();
        assert_eq!(r.faults.late_joins, 4);
        let clean = run_scenario(&small(AlgorithmKind::Mobic), 3).unwrap();
        assert!(
            r.hello_broadcasts < clean.hello_broadcasts,
            "withheld nodes must not broadcast before joining"
        );
        // Everyone is in the network by the end of the run.
        assert_eq!(r.final_roles.len(), 12);
    }

    #[test]
    fn impairment_spells_fire_and_restore() {
        let mut cfg = small(AlgorithmKind::Mobic);
        cfg.faults.deaf_spells = 2;
        cfg.faults.mute_spells = 2;
        cfg.faults.spell_s = 5.0;
        cfg.faults.until_s = 40.0; // spells end inside the horizon
        let mut sink = CountingSink::default();
        let r = run_scenario_instrumented(&cfg, 7, |_| {}, &mut sink).unwrap();
        assert_eq!(r.faults.deaf_spells, 2);
        assert_eq!(r.faults.mute_spells, 2);
        assert_eq!(sink.impaired, 4);
        // Overlapping spells on one node coalesce into a single
        // restore, so restored ∈ [2, 4].
        assert!(
            sink.restored >= 2 && sink.restored <= 4,
            "{}",
            sink.restored
        );
    }

    #[test]
    fn faulty_runs_are_deterministic() {
        let mut cfg = small(AlgorithmKind::Mobic);
        cfg.faults.crashes = 2;
        cfg.faults.recoveries = 1;
        cfg.faults.late_joins = 2;
        cfg.faults.deaf_spells = 1;
        cfg.faults.mute_spells = 1;
        let a = serde_json::to_string(&run_scenario(&cfg, 11).unwrap()).unwrap();
        let b = serde_json::to_string(&run_scenario(&cfg, 11).unwrap()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn targeted_clusterhead_crash_opens_a_healing_probe() {
        let mut cfg = small(AlgorithmKind::Mobic);
        cfg.sim_time_s = 120.0;
        cfg.faults.crashes = 1;
        cfg.faults.target = crate::FaultTarget::Clusterhead;
        cfg.faults.from_s = 30.0; // let the clustering converge first
        cfg.faults.until_s = 60.0;
        let r = run_scenario(&cfg, 3).unwrap();
        assert_eq!(r.faults.crashes, 1);
        if let Some(h) = r.healing {
            assert_eq!(h.probes, 1);
            assert_eq!(h.healed + h.unhealed, 1);
            if h.healed == 1 {
                assert!(h.mean_latency_s > 0.0 && h.mean_latency_s <= 120.0);
                assert!(h.max_latency_s >= h.mean_latency_s);
            }
        }
    }

    #[test]
    fn warn_audit_observes_without_changing_the_run() {
        let mut cfg = small(AlgorithmKind::Mobic);
        cfg.audit = crate::AuditMode::Warn;
        let r = run_scenario(&cfg, 3).unwrap();
        let a = r.audit.expect("warn audit reports a summary");
        assert!(a.checks > 0, "warmup 20 s < sim 60 s: audits must run");
        let baseline = run_scenario(&small(AlgorithmKind::Mobic), 3).unwrap();
        assert_eq!(r.final_roles, baseline.final_roles);
        assert_eq!(r.deliveries, baseline.deliveries);
        assert_eq!(r.cluster_series, baseline.cluster_series);
    }

    #[test]
    fn strict_audit_fails_fast_on_undecided_startup() {
        let mut cfg = small(AlgorithmKind::Mobic);
        cfg.audit = crate::AuditMode::Strict;
        cfg.warmup_s = 0.0;
        // The first sampling instant (t = BI) still has every node
        // undecided — listen-before-decide holds all decisions for one
        // full interval — so a zero-warmup strict audit must trip
        // deterministically, as a structured error, never a panic.
        match run_scenario(&cfg, 3) {
            Err(RunError::AuditFailed { at_s, violations }) => {
                assert!((at_s - cfg.bi_s).abs() < 1e-9, "tripped at {at_s}");
                assert!(violations > 0);
            }
            other => panic!("expected AuditFailed, got {other:?}"),
        }
    }

    #[test]
    fn strict_audit_passes_on_a_converged_stationary_network() {
        let mut cfg = small(AlgorithmKind::Lcc);
        cfg.mobility = MobilityKind::Stationary;
        cfg.sim_time_s = 120.0;
        cfg.warmup_s = 60.0;
        cfg.audit = crate::AuditMode::Strict;
        let r = run_scenario(&cfg, 5).unwrap();
        let a = r.audit.expect("summary present when auditing");
        assert!(a.checks > 0);
        assert_eq!(a.violations, 0);
    }

    #[test]
    fn crash_events_appear_in_jsonl_traces() {
        let mut cfg = small(AlgorithmKind::Mobic);
        cfg.faults.crashes = 1;
        let mut sink = mobic_trace::JsonlSink::new(Vec::new());
        run_scenario_instrumented(&cfg, 3, |_| {}, &mut sink).unwrap();
        let text = String::from_utf8(sink.finish().unwrap()).unwrap();
        assert!(
            text.contains("\"kind\":\"node_down\""),
            "trace missing node_down"
        );
    }

    /// Suspends a run after `after` events, panicking if it finished
    /// first (callers pick kill points well inside the run).
    fn suspend_at(cfg: &ScenarioConfig, seed: u64, after: u64) -> crate::SimSnapshot {
        match run_scenario_until(cfg, seed, after, &mut NullSink).unwrap() {
            RunOutcome::Suspended(snap) => *snap,
            RunOutcome::Done(_) => panic!("run completed before event {after}"),
        }
    }

    #[test]
    fn kill_and_resume_is_byte_identical() {
        let cfg = small(AlgorithmKind::Mobic);
        let want = serde_json::to_string(&run_scenario(&cfg, 7).unwrap()).unwrap();
        for after in [1u64, 17, 150, 350] {
            let snap = suspend_at(&cfg, 7, after);
            assert_eq!(snap.events_processed(), after);
            let resumed =
                run_scenario_checkpointed(&cfg, 7, None, Some(snap), &mut NullSink).unwrap();
            assert_eq!(
                serde_json::to_string(&resumed).unwrap(),
                want,
                "kill at event {after}"
            );
        }
    }

    #[test]
    fn kill_and_resume_preserves_trace_bytes() {
        let cfg = small(AlgorithmKind::Mobic);
        let mut full = mobic_trace::JsonlSink::new(Vec::new());
        run_scenario_instrumented(&cfg, 5, |_| {}, &mut full).unwrap();
        let reference = full.finish().unwrap();

        // Interrupted run: trace into one buffer up to the kill point,
        // then replay the checkpoint cursor onto a fresh sink seeded
        // with the durable prefix (the in-memory analog of
        // JsonlSink::resume truncating the file tail).
        let mut head = mobic_trace::JsonlSink::new(Vec::new());
        let snap = match run_scenario_until(&cfg, 5, 150, &mut head).unwrap() {
            RunOutcome::Suspended(snap) => *snap,
            RunOutcome::Done(_) => panic!("run completed before the kill point"),
        };
        let cursor = snap.trace_cursor().expect("traced run has a cursor");
        let mut bytes = head.finish().unwrap();
        bytes.truncate(usize::try_from(cursor.bytes).unwrap());
        let mut tail = mobic_trace::JsonlSink::new(Vec::new());
        run_scenario_checkpointed(&cfg, 5, None, Some(snap), &mut tail).unwrap();
        bytes.extend_from_slice(&tail.finish().unwrap());
        assert_eq!(bytes, reference);
    }

    #[test]
    fn resume_crosses_schedulers() {
        // `scheduler` is retired and ignored: a snapshot taken under the
        // default resumes under a config naming `calendar`, and bytes
        // must not move.
        let cfg = small(AlgorithmKind::Mobic);
        let want = serde_json::to_string(&run_scenario(&cfg, 11).unwrap()).unwrap();
        let snap = suspend_at(&cfg, 11, 200);
        let mut resume_cfg = cfg;
        resume_cfg.scheduler = crate::Scheduler::Calendar;
        let resumed =
            run_scenario_checkpointed(&resume_cfg, 11, None, Some(snap), &mut NullSink).unwrap();
        assert_eq!(serde_json::to_string(&resumed).unwrap(), want);
    }

    #[test]
    fn kill_and_resume_covers_faults_and_stateful_channel() {
        // The hard state: a live fault RNG stream mid-plan, Gilbert–
        // Elliott loss channels mid-burst, and shadowing draws — all
        // must restore positionally for byte-identity.
        let mut cfg = small(AlgorithmKind::Mobic);
        cfg.faults.crashes = 2;
        cfg.faults.recoveries = 1;
        cfg.faults.deaf_spells = 1;
        cfg.loss = LossKind::BurstyPreset;
        cfg.propagation = PropagationKind::ShadowedFreeSpace { sigma_db: 4.0 };
        cfg.fast_path = FastPath::Off; // stochastic propagation
        let want = serde_json::to_string(&run_scenario(&cfg, 13).unwrap()).unwrap();
        for after in [50u64, 300] {
            let snap = suspend_at(&cfg, 13, after);
            let resumed =
                run_scenario_checkpointed(&cfg, 13, None, Some(snap), &mut NullSink).unwrap();
            assert_eq!(
                serde_json::to_string(&resumed).unwrap(),
                want,
                "kill at event {after}"
            );
        }
    }

    #[test]
    fn resume_gate_rejects_foreign_snapshots() {
        let cfg = small(AlgorithmKind::Mobic);
        let snap = suspend_at(&cfg, 7, 100);
        // Wrong seed.
        assert!(matches!(
            run_scenario_checkpointed(&cfg, 8, None, Some(snap.clone()), &mut NullSink),
            Err(RunError::SnapshotMismatch { .. })
        ));
        // Semantically different config.
        let mut other = cfg;
        other.algorithm = AlgorithmKind::Lcc;
        assert!(matches!(
            run_scenario_checkpointed(&other, 7, None, Some(snap), &mut NullSink),
            Err(RunError::SnapshotMismatch { .. })
        ));
    }

    #[test]
    fn stop_beyond_the_horizon_completes_normally() {
        let cfg = small(AlgorithmKind::Mobic);
        let want = serde_json::to_string(&run_scenario(&cfg, 7).unwrap()).unwrap();
        match run_scenario_until(&cfg, 7, u64::MAX, &mut NullSink).unwrap() {
            RunOutcome::Done(result) => {
                assert_eq!(serde_json::to_string(&*result).unwrap(), want);
            }
            RunOutcome::Suspended(_) => panic!("unreachable stop point must not suspend"),
        }
    }

    #[test]
    fn checkpointed_run_writes_snapshots_and_resumes() {
        // End-to-end through run_scenario_checkpointed: a pathological
        // cadence (checkpoint constantly) still finishes with the
        // reference bytes, leaves at most `keep` valid snapshots
        // behind, and the newest one resumes to the same bytes.
        let mut cfg = small(AlgorithmKind::Mobic);
        cfg.checkpoint = crate::CheckpointPolicy {
            every_s: 1e-9,
            keep: 2,
        };
        let dir = std::env::temp_dir().join("mobic-runner-ckpt-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let plain = small(AlgorithmKind::Mobic);
        let want = serde_json::to_string(&run_scenario(&plain, 7).unwrap()).unwrap();
        let r = run_scenario_checkpointed(&cfg, 7, Some(&dir), None, &mut NullSink).unwrap();
        assert_eq!(serde_json::to_string(&r).unwrap(), want);
        let (snap, rejected) = crate::latest_snapshot(&dir);
        let snap = snap.expect("periodic checkpoints were written");
        assert_eq!(rejected, 0);
        let resumed =
            run_scenario_checkpointed(&cfg, 7, Some(&dir), Some(snap), &mut NullSink).unwrap();
        assert_eq!(serde_json::to_string(&resumed).unwrap(), want);
        std::fs::remove_dir_all(&dir).ok();
    }
}
