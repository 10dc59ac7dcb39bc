//! Scenario configuration (the paper's Table 1) and validation.

use std::error::Error;
use std::fmt;

use mobic_core::AlgorithmKind;
use mobic_geom::{GridIndex, Rect};
use serde::{Deserialize, Serialize};

/// Which mobility model drives the nodes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MobilityKind {
    /// Random waypoint (the paper's model) with the config's speed
    /// range and pause time.
    RandomWaypoint,
    /// Boundary-reflecting random walk with the given epoch length.
    RandomWalk {
        /// Seconds between direction changes.
        epoch_s: f64,
    },
    /// Gauss–Markov with the given memory parameter.
    GaussMarkov {
        /// Velocity memory `α ∈ [0, 1]`.
        alpha: f64,
    },
    /// Reference Point Group Mobility: nodes split evenly into
    /// `groups` groups whose centers do random waypoint.
    Rpgm {
        /// Number of groups (≥ 1).
        groups: u32,
        /// Maximum member displacement from the group reference (m).
        member_radius_m: f64,
    },
    /// Highway convoys (§5): lanes along the x axis, speeds around
    /// the config's `max_speed_mps`.
    Highway {
        /// Number of lanes (≥ 1).
        lanes: u32,
        /// Two-way traffic (alternating lane directions) vs a one-way
        /// convoy road.
        bidirectional: bool,
    },
    /// Conference hall (§5): booth-hopping pedestrians; speeds capped
    /// at walking pace regardless of `max_speed_mps`.
    ConferenceHall {
        /// Number of booths (≥ 1).
        booths: u32,
    },
    /// Manhattan street grid with the given block size; vehicles use
    /// the config's speed range.
    Manhattan {
        /// Block (street spacing) size in meters.
        block_m: f64,
        /// Turn probability at intersections, in `[0, 1]`.
        p_turn: f64,
    },
    /// No motion at all (placement only) — useful for convergence
    /// tests and as the zero-mobility control.
    Stationary,
}

/// Which propagation model the radio uses.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PropagationKind {
    /// Friis free space (`1/d²`) — the paper's §3.1 assumption and
    /// our default.
    FreeSpace,
    /// ns-2's two-ray ground model (Friis below the crossover
    /// distance, `1/d⁴` beyond).
    TwoRayGround,
    /// Log-distance with the given path-loss exponent.
    LogDistance {
        /// Path-loss exponent (2 = free space, 4 ≈ obstructed).
        exponent: f64,
    },
    /// Free space plus log-normal shadowing of the given σ (dB) —
    /// the robustness extension the paper excludes.
    ShadowedFreeSpace {
        /// Shadowing standard deviation in dB.
        sigma_db: f64,
    },
    /// Free space plus Nakagami-m fast fading (m = 1 is Rayleigh).
    NakagamiFreeSpace {
        /// Fading figure `m ≥ 0.5`; larger = calmer channel.
        m: f64,
    },
}

impl PropagationKind {
    /// Whether the configured model's path loss is a pure function of
    /// distance (see [`mobic_radio::Propagation::is_deterministic`]).
    /// Mirrors the runtime capability so configs can be validated
    /// without instantiating a radio.
    #[must_use]
    pub fn is_deterministic(&self) -> bool {
        match *self {
            PropagationKind::FreeSpace
            | PropagationKind::TwoRayGround
            | PropagationKind::LogDistance { .. } => true,
            // σ = 0 shadowing degenerates to plain free space.
            PropagationKind::ShadowedFreeSpace { sigma_db } => sigma_db == 0.0,
            PropagationKind::NakagamiFreeSpace { .. } => false,
        }
    }
}

/// Whether the scenario runner may use the spatial-index broadcast
/// fast path (see `run_scenario`'s module docs for the contract).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum FastPath {
    /// Use the indexed path whenever the propagation model is
    /// deterministic, otherwise fall back to the brute-force scan.
    /// The default: always correct, fast when possible.
    #[default]
    Auto,
    /// Require the indexed path; [`ScenarioConfig::validate`] rejects
    /// the config if the propagation model is stochastic.
    On,
    /// Always use the brute-force scan (reference behavior).
    Off,
}

/// A retired execution knob, kept so configs that name it still
/// parse. Both values are ignored: every live node's hello runs its
/// election (DESIGN.md §12). Unlike the other retired knobs it is
/// always serialized, as it always was, so the config hashes of
/// existing scenarios do not move.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Recluster {
    /// The default.
    #[default]
    Incremental,
    /// The value the benchmark's reference pass still sets.
    Full,
}

/// A retired execution knob, kept so configs that name it still
/// parse. Both values are ignored: every run pops from the one
/// binary-heap event queue (DESIGN.md §12).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Scheduler {
    /// The default.
    #[default]
    Heap,
    /// The value older configs and the benchmark's examples still set.
    Calendar,
}

impl Scheduler {
    /// `true` for the default (used to keep the field out of
    /// serialized configs, so config hashes of existing scenarios are
    /// unchanged).
    #[must_use]
    pub fn is_heap(&self) -> bool {
        *self == Scheduler::Heap
    }
}

/// A retired execution knob, kept so configs that name it still
/// parse. Both values are ignored: every hello takes the one
/// per-candidate delivery loop (DESIGN.md §12).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum DeliveryPath {
    /// The default.
    #[default]
    Auto,
    /// The value the benchmark's reference pass still sets.
    Scalar,
}

impl DeliveryPath {
    /// `true` for the default auto path (used to keep the field out
    /// of serialized configs, so config hashes of existing scenarios
    /// are unchanged).
    #[must_use]
    pub fn is_auto(&self) -> bool {
        *self == DeliveryPath::Auto
    }
}

/// Periodic crash-safe checkpointing of long runs (see
/// [`run_scenario_checkpointed`](crate::run_scenario_checkpointed) and
/// OPERATIONS.md § "Checkpointing and crash recovery").
///
/// When on, a rotated snapshot (`ckpt-<events>.ckpt`) is published
/// atomically roughly every `every_s` *wall-clock* seconds; a crashed
/// run resumes from the newest snapshot that passes its integrity
/// hash and produces byte-identical results. The snapshot *content*
/// is a pure function of `(config, seed, events)` — only the firing
/// instants depend on wall-clock, so checkpointing is an execution
/// knob: off by default, omitted from serialization, and excluded
/// from the snapshot compatibility gate.
///
/// The directory snapshots land in is *not* part of the config — it
/// is an invocation concern (a CLI flag, a sweep-worker path), like
/// trace and result paths — so a run given no directory writes no
/// snapshots whatever the policy says.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct CheckpointPolicy {
    /// Wall-clock seconds between snapshots; `0` (the default)
    /// disables checkpointing.
    pub every_s: f64,
    /// How many rotated snapshots to keep (newest first). At least
    /// one must be kept when checkpointing is on; two (the default)
    /// survive a crash *during* a snapshot write on filesystems
    /// without atomic rename durability.
    pub keep: u32,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy {
            every_s: 0.0,
            keep: 2,
        }
    }
}

impl CheckpointPolicy {
    /// `true` when checkpointing is disabled (used to keep the field
    /// out of serialized configs, so config hashes of existing
    /// scenarios are unchanged).
    #[must_use]
    pub fn is_off(&self) -> bool {
        self.every_s == 0.0
    }
}

/// How the periodic in-run Theorem-1 audit reacts to violations
/// (see `mobic-core::invariants`). The audit runs at every sampling
/// instant after warmup and checks the *alive* population's cluster
/// structure against a unit-disk adjacency at the nominal range.
///
/// Note that the distributed protocol violates Theorem 1 *transiently
/// by design* (CCI deferral keeps contending heads adjacent for a
/// while; members hold affiliations until the timeout period expires
/// them), so `Warn` is an observability tool and `Strict` is meant
/// for converged/stationary scenarios where the theorem must hold.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum AuditMode {
    /// No auditing (the default): zero cost, byte-identical results.
    #[default]
    Off,
    /// Count violations and emit each one as an
    /// `invariant_violation` trace event; the run completes normally.
    Warn,
    /// Abort the run with a structured error (never a panic) at the
    /// first sampling instant that observes any violation.
    Strict,
}

impl AuditMode {
    /// `true` for [`AuditMode::Off`] — used to skip serialization so
    /// pre-audit configs keep their `config_hash`.
    #[must_use]
    pub fn is_off(&self) -> bool {
        *self == AuditMode::Off
    }
}

/// Who a scheduled crash or impairment hits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum FaultTarget {
    /// A uniformly random alive node (drawn from the dedicated
    /// `"faults"` seed stream at fire time).
    #[default]
    Any,
    /// The alive clusterhead with the most alive members (ties broken
    /// by lowest id) — the worst-case crash for cluster healing. If no
    /// clusterhead is alive when the fault fires, it is a no-op.
    Clusterhead,
}

/// A deterministic, seeded node-lifecycle fault plan.
///
/// The plan is *generative*: it says how many faults of each kind to
/// inject inside the window, and the runner derives every fire time
/// and victim from the run's master seed (its own `"faults"` stream,
/// so an empty plan leaves all other random streams — and therefore
/// all existing results — bit-identical). Fault kinds:
///
/// * **crashes** — fail-stop: the node goes silent forever; neighbors
///   expire it naturally after the timeout period.
/// * **recoveries** — crash + revival after
///   [`recovery_after_s`](Self::recovery_after_s): the node comes back
///   with its neighbor table and role state wiped (hello sequence
///   numbers continue, so unexpired neighbor entries accept its first
///   new hellos).
/// * **late joins** — the node is withheld at setup and first powers
///   on at its scheduled join time.
/// * **deaf / mute spells** — one-sided interface impairments lasting
///   [`spell_s`](Self::spell_s): a deaf node's receptions are dropped,
///   a mute node's transmissions are suppressed.
///
/// All fields have serde defaults, so partial plans deserialize and
/// configs from before the field existed load unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct FaultPlan {
    /// Number of permanent fail-stop crashes.
    pub crashes: u32,
    /// Number of crash-with-recovery faults.
    pub recoveries: u32,
    /// Downtime before a recovered node revives, in seconds.
    pub recovery_after_s: f64,
    /// Number of nodes withheld at setup that join mid-run.
    pub late_joins: u32,
    /// Number of deaf (rx-dropped) impairment spells.
    pub deaf_spells: u32,
    /// Number of mute (tx-suppressed) impairment spells.
    pub mute_spells: u32,
    /// Duration of each impairment spell, in seconds.
    pub spell_s: f64,
    /// Injection window start, in seconds.
    pub from_s: f64,
    /// Injection window end, in seconds; `0` means the end of the
    /// simulation.
    pub until_s: f64,
    /// Victim selection policy for crashes, recoveries, and spells
    /// (late-join victims are always drawn uniformly at setup).
    pub target: FaultTarget,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            crashes: 0,
            recoveries: 0,
            recovery_after_s: 10.0,
            late_joins: 0,
            deaf_spells: 0,
            mute_spells: 0,
            spell_s: 5.0,
            from_s: 0.0,
            until_s: 0.0,
            target: FaultTarget::Any,
        }
    }
}

impl FaultPlan {
    /// `true` if the plan schedules nothing. An empty plan is
    /// guaranteed to leave the run bit-identical to a fault-free
    /// build, and is skipped during serialization so pre-fault configs
    /// keep their `config_hash`.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.crashes == 0
            && self.recoveries == 0
            && self.late_joins == 0
            && self.deaf_spells == 0
            && self.mute_spells == 0
    }

    /// Total number of scheduled fault *injections* (revivals and
    /// restorations ride along and are not counted), summed without
    /// overflow.
    #[must_use]
    pub fn injections(&self) -> u64 {
        [
            self.crashes,
            self.recoveries,
            self.late_joins,
            self.deaf_spells,
            self.mute_spells,
        ]
        .into_iter()
        .map(u64::from)
        .sum()
    }
}

/// Which packet-loss model applies on top of range filtering.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LossKind {
    /// No loss — the paper's operating point.
    None,
    /// Independent loss with probability `p` per packet.
    Bernoulli {
        /// Loss probability in `[0, 1]`.
        p: f64,
    },
    /// Gilbert–Elliott burst loss (mildly bursty preset).
    BurstyPreset,
}

/// The full description of one simulation scenario — every knob of
/// the paper's Table 1 plus the extensions.
///
/// Construct via [`ScenarioConfig::paper_table1`] and override fields,
/// or fill the struct directly. Validate (or just call
/// [`run_scenario`](crate::run_scenario), which validates first).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// Number of nodes `N` (Table 1: 50).
    pub n_nodes: u32,
    /// Field width in meters (Table 1: 670 or 1000).
    pub field_w_m: f64,
    /// Field height in meters.
    pub field_h_m: f64,
    /// Maximum node speed in m/s (Table 1: 1, 20, 30).
    pub max_speed_mps: f64,
    /// Minimum node speed in m/s (0 = classic open interval).
    pub min_speed_mps: f64,
    /// Pause time at waypoints in seconds (Table 1: 0, 30).
    pub pause_s: f64,
    /// Nominal transmission range in meters (Table 1: 10–250).
    pub tx_range_m: f64,
    /// Broadcast interval `BI` in seconds (Table 1: 2).
    pub bi_s: f64,
    /// Neighbor timeout period `TP` in seconds (Table 1: 3).
    pub tp_s: f64,
    /// Cluster contention interval `CCI` in seconds (Table 1: 4).
    pub cci_s: f64,
    /// Total simulated time `S` in seconds (Table 1: 900).
    pub sim_time_s: f64,
    /// Measurement warmup: transitions and cluster counts before this
    /// time are excluded from steady-state metrics (the initial
    /// election is not "churn"). Default 20 s.
    pub warmup_s: f64,
    /// Clustering algorithm under test.
    pub algorithm: AlgorithmKind,
    /// Mobility model.
    pub mobility: MobilityKind,
    /// Propagation model.
    pub propagation: PropagationKind,
    /// Packet-loss model.
    pub loss: LossKind,
    /// EWMA history weight for the metric (§5 extension); `None` is
    /// the paper's memoryless metric.
    pub history_alpha: Option<f64>,
    /// Patience before an orphaned undecided node self-elects
    /// (see [`mobic_core::ClusterConfig::undecided_patience`]).
    pub undecided_patience_s: f64,
    /// How pairwise samples fold into `M` (paper: variance about
    /// zero; robust variants are ablation extensions).
    pub metric_aggregation: mobic_core::metric::MetricAggregation,
    /// Metric quantization step in dB² (see
    /// [`mobic_core::ClusterConfig::metric_quantum`]); 0 disables.
    pub metric_quantum: f64,
    /// Mobility-adaptive broadcast interval (§5 extension): when set,
    /// a node's next hello comes after
    /// `clamp(bi · pivot/(pivot + M), adaptive_bi_min_s, bi)` seconds
    /// with `pivot = 2 dB²` — mobile neighborhoods refresh faster,
    /// calm ones stay at the base rate. `0.0` (default) disables
    /// adaptation (the paper's fixed `BI`).
    pub adaptive_bi_min_s: f64,
    /// Hello packet airtime in seconds, enabling a vulnerable-window
    /// MAC collision approximation: a reception arriving within this
    /// time of the previous arrival at the same receiver is destroyed.
    /// `0` (the default) disables collisions — the paper's operating
    /// point ("we only consider transmissions that are successfully
    /// received by the MAC layer"). A 2001-era WaveLAN hello of ~60
    /// bytes at 2 Mb/s is ~0.25 ms.
    pub packet_time_s: f64,
    /// Whether the event loop may use the spatial-index broadcast
    /// fast path. Defaults to [`FastPath::Auto`]; results are
    /// bit-identical either way.
    #[serde(default)]
    pub fast_path: FastPath,
    /// Retired and ignored (see [`Recluster`]). Defaults to
    /// [`Recluster::Incremental`]; always serialized, so a config
    /// keeps its `config_hash` whichever value it names.
    #[serde(default)]
    pub recluster: Recluster,
    /// Node-lifecycle fault injection plan. Defaults to the empty
    /// plan, which is bit-identical to a fault-free run and omitted
    /// from serialization (so existing configs keep their
    /// `config_hash`).
    #[serde(default, skip_serializing_if = "FaultPlan::is_empty")]
    pub faults: FaultPlan,
    /// Periodic in-run Theorem-1 invariant auditing. Defaults to
    /// [`AuditMode::Off`] (zero cost, omitted from serialization).
    #[serde(default, skip_serializing_if = "AuditMode::is_off")]
    pub audit: AuditMode,
    /// Retired and ignored (see [`Scheduler`]). Defaults to
    /// [`Scheduler::Heap`] (omitted from serialization); a config that
    /// says `"scheduler":"calendar"` keeps its `config_hash`.
    #[serde(default, skip_serializing_if = "Scheduler::is_heap")]
    pub scheduler: Scheduler,
    /// Retired and ignored (see [`DeliveryPath`]). Defaults to
    /// [`DeliveryPath::Auto`] (omitted from serialization); a config
    /// that says `"delivery":"scalar"` keeps its `config_hash`.
    #[serde(default, skip_serializing_if = "DeliveryPath::is_auto")]
    pub delivery: DeliveryPath,

    /// Periodic crash-safe checkpointing. Defaults to off (omitted
    /// from serialization, so existing configs keep their
    /// `config_hash`); results are bit-identical either way.
    #[serde(default, skip_serializing_if = "CheckpointPolicy::is_off")]
    pub checkpoint: CheckpointPolicy,
}

impl ScenarioConfig {
    /// The paper's primary configuration (Table 1, 670 m × 670 m,
    /// MaxSpeed 20 m/s, PT 0, Tx 250 m, MOBIC).
    #[must_use]
    pub fn paper_table1() -> Self {
        ScenarioConfig {
            n_nodes: 50,
            field_w_m: 670.0,
            field_h_m: 670.0,
            max_speed_mps: 20.0,
            min_speed_mps: 0.0,
            pause_s: 0.0,
            tx_range_m: 250.0,
            bi_s: 2.0,
            tp_s: 3.0,
            cci_s: 4.0,
            sim_time_s: 900.0,
            warmup_s: 20.0,
            algorithm: AlgorithmKind::Mobic,
            mobility: MobilityKind::RandomWaypoint,
            propagation: PropagationKind::FreeSpace,
            loss: LossKind::None,
            history_alpha: None,
            metric_aggregation: mobic_core::metric::MetricAggregation::Var0,
            undecided_patience_s: 4.0,
            metric_quantum: 0.0,
            adaptive_bi_min_s: 0.0,
            packet_time_s: 0.0,
            fast_path: FastPath::Auto,
            recluster: Recluster::Incremental,
            faults: FaultPlan::default(),
            audit: AuditMode::Off,
            scheduler: Scheduler::Heap,
            delivery: DeliveryPath::Auto,
            checkpoint: CheckpointPolicy::default(),
        }
    }

    /// The §4.3 sparse variant: same as
    /// [`paper_table1`](Self::paper_table1) but on the 1000 m × 1000 m
    /// field.
    #[must_use]
    pub fn paper_sparse() -> Self {
        ScenarioConfig {
            field_w_m: 1000.0,
            field_h_m: 1000.0,
            ..Self::paper_table1()
        }
    }

    /// Returns the config with a different algorithm (sweep helper).
    #[must_use]
    pub fn with_algorithm(mut self, algorithm: AlgorithmKind) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Returns the config with a different transmission range (sweep
    /// helper).
    #[must_use]
    pub fn with_tx_range(mut self, tx_range_m: f64) -> Self {
        self.tx_range_m = tx_range_m;
        self
    }

    /// Checks every parameter for sanity.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        use ConfigError::*;
        if self.n_nodes == 0 {
            return Err(NoNodes);
        }
        for (name, v) in [
            ("field_w_m", self.field_w_m),
            ("field_h_m", self.field_h_m),
            ("tx_range_m", self.tx_range_m),
            ("bi_s", self.bi_s),
            ("tp_s", self.tp_s),
            ("sim_time_s", self.sim_time_s),
        ] {
            if !(v > 0.0 && v.is_finite()) {
                return Err(NonPositive {
                    field: name,
                    value: v,
                });
            }
        }
        for (name, v) in [
            ("max_speed_mps", self.max_speed_mps),
            ("min_speed_mps", self.min_speed_mps),
            ("pause_s", self.pause_s),
            ("cci_s", self.cci_s),
            ("warmup_s", self.warmup_s),
            ("undecided_patience_s", self.undecided_patience_s),
            ("metric_quantum", self.metric_quantum),
            ("packet_time_s", self.packet_time_s),
            ("adaptive_bi_min_s", self.adaptive_bi_min_s),
        ] {
            if !(v >= 0.0 && v.is_finite()) {
                return Err(Negative {
                    field: name,
                    value: v,
                });
            }
        }
        if self.min_speed_mps > self.max_speed_mps {
            return Err(SpeedRange {
                min: self.min_speed_mps,
                max: self.max_speed_mps,
            });
        }
        if self.tp_s < self.bi_s {
            return Err(TimeoutBelowBroadcast {
                tp: self.tp_s,
                bi: self.bi_s,
            });
        }
        if self.adaptive_bi_min_s > self.bi_s {
            return Err(AdaptiveBiAboveBase {
                min: self.adaptive_bi_min_s,
                bi: self.bi_s,
            });
        }
        if self.warmup_s >= self.sim_time_s {
            return Err(WarmupTooLong {
                warmup: self.warmup_s,
                sim_time: self.sim_time_s,
            });
        }
        match self.mobility {
            MobilityKind::RandomWalk { epoch_s } if !(epoch_s > 0.0 && epoch_s.is_finite()) => {
                return Err(NonPositive {
                    field: "mobility.epoch_s",
                    value: epoch_s,
                })
            }
            MobilityKind::GaussMarkov { alpha } if !(0.0..=1.0).contains(&alpha) => {
                return Err(UnitInterval {
                    field: "mobility.alpha",
                    value: alpha,
                })
            }
            MobilityKind::Rpgm {
                groups,
                member_radius_m,
            } => {
                if groups == 0 {
                    return Err(NonPositive {
                        field: "mobility.groups",
                        value: 0.0,
                    });
                }
                if !(member_radius_m >= 0.0 && member_radius_m.is_finite()) {
                    return Err(Negative {
                        field: "mobility.member_radius_m",
                        value: member_radius_m,
                    });
                }
            }
            MobilityKind::Highway { lanes: 0, .. } => {
                return Err(NonPositive {
                    field: "mobility.lanes",
                    value: 0.0,
                })
            }
            MobilityKind::ConferenceHall { booths: 0 } => {
                return Err(NonPositive {
                    field: "mobility.booths",
                    value: 0.0,
                })
            }
            MobilityKind::Manhattan { block_m, p_turn } => {
                if !(block_m > 0.0 && block_m.is_finite()) {
                    return Err(NonPositive {
                        field: "mobility.block_m",
                        value: block_m,
                    });
                }
                if !(0.0..=1.0).contains(&p_turn) {
                    return Err(UnitInterval {
                        field: "mobility.p_turn",
                        value: p_turn,
                    });
                }
            }
            _ => {}
        }
        match self.propagation {
            PropagationKind::LogDistance { exponent }
                if !(exponent > 0.0 && exponent.is_finite()) =>
            {
                return Err(NonPositive {
                    field: "propagation.exponent",
                    value: exponent,
                })
            }
            PropagationKind::LogDistance { exponent } if exponent > MAX_PATH_LOSS_EXPONENT => {
                return Err(PathLossOverflow { exponent })
            }
            PropagationKind::ShadowedFreeSpace { sigma_db }
                if !(sigma_db >= 0.0 && sigma_db.is_finite()) =>
            {
                return Err(Negative {
                    field: "propagation.sigma_db",
                    value: sigma_db,
                })
            }
            PropagationKind::NakagamiFreeSpace { m } if !(m >= 0.5 && m.is_finite()) => {
                return Err(NonPositive {
                    field: "propagation.m",
                    value: m,
                })
            }
            _ => {}
        }
        if let LossKind::Bernoulli { p } = self.loss {
            if !(0.0..=1.0).contains(&p) {
                return Err(UnitInterval {
                    field: "loss.p",
                    value: p,
                });
            }
        }
        if let Some(alpha) = self.history_alpha {
            if !(0.0..1.0).contains(&alpha) {
                return Err(UnitInterval {
                    field: "history_alpha",
                    value: alpha,
                });
            }
        }
        if self.fast_path == FastPath::On && !self.propagation.is_deterministic() {
            return Err(FastPathUnsupported {
                propagation: self.propagation,
            });
        }
        if !self.faults.is_empty() {
            let fp = &self.faults;
            for (name, v) in [
                ("faults.recovery_after_s", fp.recovery_after_s),
                ("faults.spell_s", fp.spell_s),
                ("faults.from_s", fp.from_s),
                ("faults.until_s", fp.until_s),
            ] {
                if !(v >= 0.0 && v.is_finite()) {
                    return Err(Negative {
                        field: name,
                        value: v,
                    });
                }
            }
            if fp.recoveries > 0 && fp.recovery_after_s == 0.0 {
                return Err(NonPositive {
                    field: "faults.recovery_after_s",
                    value: 0.0,
                });
            }
            if (fp.deaf_spells > 0 || fp.mute_spells > 0) && fp.spell_s == 0.0 {
                return Err(NonPositive {
                    field: "faults.spell_s",
                    value: 0.0,
                });
            }
            if fp.late_joins > self.n_nodes {
                return Err(TooManyLateJoins {
                    late_joins: fp.late_joins,
                    n_nodes: self.n_nodes,
                });
            }
            let until = if fp.until_s == 0.0 {
                self.sim_time_s
            } else {
                fp.until_s
            };
            if fp.from_s >= until || fp.from_s >= self.sim_time_s {
                return Err(FaultWindowEmpty {
                    from: fp.from_s,
                    until,
                });
            }
        }
        self.validate_clock()?;
        self.validate_derived()?;
        if !(self.checkpoint.every_s >= 0.0 && self.checkpoint.every_s.is_finite()) {
            return Err(Negative {
                field: "checkpoint.every_s",
                value: self.checkpoint.every_s,
            });
        }
        if !self.checkpoint.is_off() && self.checkpoint.keep == 0 {
            return Err(NonPositive {
                field: "checkpoint.keep",
                value: 0.0,
            });
        }
        Ok(())
    }

    /// Checks the time fields against the simulation clock, which
    /// counts whole microseconds in a `u64`. The runner turns each of
    /// them into a [`SimTime`](mobic_sim::SimTime) and adds it to
    /// instants of the run, so each must stay below half the clock's
    /// range; and a period that rounds to zero would re-arm its event
    /// at the same instant forever. Assumes the per-field checks above passed
    /// (every value finite and non-negative).
    fn validate_clock(&self) -> Result<(), ConfigError> {
        let ticks = |v: f64| (v * 1e6).round();
        let epoch_s = match self.mobility {
            MobilityKind::RandomWalk { epoch_s } => epoch_s,
            _ => 0.0,
        };
        let (recovery_s, spell_s) = if self.faults.is_empty() {
            (0.0, 0.0)
        } else {
            (self.faults.recovery_after_s, self.faults.spell_s)
        };
        for (field, value) in [
            ("sim_time_s + 2·bi_s", self.sim_time_s + 2.0 * self.bi_s),
            ("tp_s", self.tp_s),
            ("cci_s", self.cci_s),
            ("pause_s", self.pause_s),
            ("undecided_patience_s", self.undecided_patience_s),
            ("packet_time_s", self.packet_time_s),
            ("mobility.epoch_s", epoch_s),
            ("faults.recovery_after_s", recovery_s),
            ("faults.spell_s", spell_s),
        ] {
            if ticks(value) >= CLOCK_HALF_RANGE_US {
                return Err(ConfigError::BeyondClock { field, value });
            }
        }
        let adaptive = self.adaptive_bi_min_s;
        for (field, value, periodic) in [
            ("bi_s", self.bi_s, true),
            ("mobility.epoch_s", epoch_s, epoch_s > 0.0),
            ("adaptive_bi_min_s", adaptive, adaptive > 0.0),
        ] {
            if periodic && ticks(value) < 1.0 {
                return Err(ConfigError::BelowClockTick { field, value });
            }
        }
        Ok(())
    }

    /// Checks what the runner derives from the fields rather than the
    /// fields themselves: the longest leg a mobility model can draw
    /// must fit the clock, the spatial index's query radius and cell
    /// size must be finite, its cells must be countable in `u32`, and
    /// what the run allocates up front must fit [`MEMORY_BUDGET_BYTES`].
    /// Assumes [`validate_clock`] passed.
    ///
    /// [`validate_clock`]: Self::validate_clock
    fn validate_derived(&self) -> Result<(), ConfigError> {
        if let Some(leg_s) = self.longest_leg_s() {
            if (leg_s * 1e6).round() >= CLOCK_HALF_RANGE_US {
                return Err(ConfigError::LegBeyondClock { leg_s });
            }
        }
        let mut grid_cells = 0;
        if let Some((radius_m, cell_m)) = crate::runner::index_radii(self) {
            if !radius_m.is_finite() {
                return Err(ConfigError::QueryRadiusNotFinite { radius_m });
            }
            if !cell_m.is_finite() {
                return Err(ConfigError::GridCellNotFinite { cell_m });
            }
            let field = Rect::new(self.field_w_m, self.field_h_m);
            let Some((cols, rows)) = GridIndex::shape(field, cell_m) else {
                return Err(ConfigError::GridTooLarge { cell_m });
            };
            grid_cells = cols * rows;
        }
        let estimate_bytes = crate::runner::upfront_bytes(self, grid_cells);
        if estimate_bytes > MEMORY_BUDGET_BYTES {
            return Err(ConfigError::OverMemoryBudget {
                estimate_bytes,
                budget_bytes: MEMORY_BUDGET_BYTES,
            });
        }
        Ok(())
    }

    /// The longest straight leg a mobility model can draw, in seconds:
    /// the field diagonal, measured as the models measure a move (so a
    /// field whose squared sides overflow has an infinite diagonal),
    /// at the slowest speed the config pins. That is `min_speed_mps`,
    /// or `max_speed_mps` for the classic `(0, max]` draw, whose
    /// vanishing slow tail no config-level bound can cover. `None` for
    /// models that move in fixed time steps or epochs, and for a
    /// config that never moves.
    fn longest_leg_s(&self) -> Option<f64> {
        let speed = match self.mobility {
            MobilityKind::RandomWaypoint
            | MobilityKind::Rpgm { .. }
            | MobilityKind::Manhattan { .. } => {
                if self.min_speed_mps > 0.0 {
                    self.min_speed_mps
                } else {
                    self.max_speed_mps
                }
            }
            // Walking pace is fixed in the runner's `build_mobility`.
            MobilityKind::ConferenceHall { .. } => 0.5,
            _ => return None,
        };
        let diagonal = mobic_geom::Vec2::new(self.field_w_m, self.field_h_m).length();
        (speed > 0.0).then(|| diagonal / speed)
    }
}

/// The most a run may allocate before its first event, as
/// [`ScenarioConfig::validate`] estimates it: 4 GiB. A million nodes
/// take about a quarter of it; a population or grid past it is refused
/// before anything is allocated, rather than aborting the process (and
/// with it a sweep service's every worker) on a failed allocation.
pub const MEMORY_BUDGET_BYTES: u64 = 4 << 30;

/// The largest log-distance exponent whose path-loss slope in dB,
/// `10·exponent` per decade, is finite. Past it the loss at the
/// reference distance is `∞·0`, which is NaN.
const MAX_PATH_LOSS_EXPONENT: f64 = f64::MAX / 10.0;

/// Half the simulation clock's range, in microseconds. Every time
/// field must round to less, so that an instant of the run plus any
/// configured delay still fits the clock.
const CLOCK_HALF_RANGE_US: f64 = (u64::MAX / 2) as f64;

/// A rejected [`ScenarioConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// `n_nodes` was zero.
    NoNodes,
    /// A field that must be strictly positive was not.
    NonPositive {
        /// Offending field.
        field: &'static str,
        /// Its value.
        value: f64,
    },
    /// A field that must be non-negative was negative (or non-finite).
    Negative {
        /// Offending field.
        field: &'static str,
        /// Its value.
        value: f64,
    },
    /// `min_speed > max_speed`.
    SpeedRange {
        /// Configured minimum speed.
        min: f64,
        /// Configured maximum speed.
        max: f64,
    },
    /// `TP < BI` — every neighbor would expire between hellos.
    TimeoutBelowBroadcast {
        /// Configured timeout period.
        tp: f64,
        /// Configured broadcast interval.
        bi: f64,
    },
    /// The adaptive hello floor exceeds the base broadcast interval.
    AdaptiveBiAboveBase {
        /// Configured adaptive floor.
        min: f64,
        /// Configured base broadcast interval.
        bi: f64,
    },
    /// Warmup does not leave a measurement window.
    WarmupTooLong {
        /// Configured warmup.
        warmup: f64,
        /// Configured simulation length.
        sim_time: f64,
    },
    /// A probability/fraction field left `[0, 1]`.
    UnitInterval {
        /// Offending field.
        field: &'static str,
        /// Its value.
        value: f64,
    },
    /// A log-distance exponent so large that the path loss in dB
    /// overflows.
    PathLossOverflow {
        /// The configured exponent.
        exponent: f64,
    },
    /// `fast_path: On` with a stochastic propagation model — the
    /// indexed path would miss receivers beyond the nominal range.
    FastPathUnsupported {
        /// The offending propagation model.
        propagation: PropagationKind,
    },
    /// The fault plan withholds more late-joiners than there are
    /// nodes.
    TooManyLateJoins {
        /// Configured number of late joins.
        late_joins: u32,
        /// Configured population size.
        n_nodes: u32,
    },
    /// The fault-injection window contains no time: `from_s` is at or
    /// past the effective window end (or past the simulation end).
    FaultWindowEmpty {
        /// Configured window start.
        from: f64,
        /// Effective window end (`until_s`, or `sim_time_s` when
        /// `until_s` is 0).
        until: f64,
    },
    /// A time field (or the mobility horizon `sim_time_s + 2·bi_s`)
    /// is longer than the simulation clock can hold.
    BeyondClock {
        /// Offending field.
        field: &'static str,
        /// Its value in seconds.
        value: f64,
    },
    /// A period rounds to zero on the microsecond clock, so its event
    /// would re-arm at the same instant forever.
    BelowClockTick {
        /// Offending field.
        field: &'static str,
        /// Its value in seconds.
        value: f64,
    },
    /// A mobility model could draw a leg (the field diagonal at the
    /// slowest configured speed) longer than the simulation clock
    /// holds.
    LegBeyondClock {
        /// The leg's duration in seconds (may be infinite).
        leg_s: f64,
    },
    /// The spatial index's base query radius (the radio's reception
    /// disk, padded) is not finite.
    QueryRadiusNotFinite {
        /// The derived radius in metres.
        radius_m: f64,
    },
    /// The spatial index's cell size (the query radius at the index's
    /// greatest staleness) is not finite.
    GridCellNotFinite {
        /// The derived cell size in metres.
        cell_m: f64,
    },
    /// The spatial index would lay more than `u32::MAX` cells of the
    /// derived size over the field.
    GridTooLarge {
        /// The derived cell size in metres.
        cell_m: f64,
    },
    /// The run would allocate more than [`MEMORY_BUDGET_BYTES`] up
    /// front: too many nodes, planned faults, samples or grid cells.
    OverMemoryBudget {
        /// The estimated up-front allocation in bytes.
        estimate_bytes: u64,
        /// The budget in bytes.
        budget_bytes: u64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoNodes => write!(f, "scenario needs at least one node"),
            ConfigError::NonPositive { field, value } => {
                write!(f, "{field} must be positive, got {value}")
            }
            ConfigError::Negative { field, value } => {
                write!(f, "{field} must be non-negative and finite, got {value}")
            }
            ConfigError::SpeedRange { min, max } => {
                write!(f, "min speed {min} exceeds max speed {max}")
            }
            ConfigError::TimeoutBelowBroadcast { tp, bi } => write!(
                f,
                "timeout period {tp} s below broadcast interval {bi} s: neighbors would always expire"
            ),
            ConfigError::AdaptiveBiAboveBase { min, bi } => write!(
                f,
                "adaptive hello floor {min} s exceeds the base broadcast interval {bi} s"
            ),
            ConfigError::WarmupTooLong { warmup, sim_time } => write!(
                f,
                "warmup {warmup} s leaves no measurement window in {sim_time} s"
            ),
            ConfigError::UnitInterval { field, value } => {
                write!(f, "{field} must lie in [0, 1], got {value}")
            }
            ConfigError::PathLossOverflow { exponent } => write!(
                f,
                "propagation.exponent = {exponent:e} overflows the path loss in dB \
                 (at most {MAX_PATH_LOSS_EXPONENT:e})"
            ),
            ConfigError::FastPathUnsupported { propagation } => write!(
                f,
                "fast_path: On requires a deterministic propagation model, got {propagation:?}"
            ),
            ConfigError::TooManyLateJoins { late_joins, n_nodes } => write!(
                f,
                "faults.late_joins {late_joins} exceeds the population of {n_nodes} nodes"
            ),
            ConfigError::FaultWindowEmpty { from, until } => write!(
                f,
                "fault window [{from} s, {until} s) contains no simulated time"
            ),
            ConfigError::BeyondClock { field, value } => write!(
                f,
                "{field} = {value} s is longer than the simulation clock holds ({} s)",
                CLOCK_HALF_RANGE_US / 1e6
            ),
            ConfigError::BelowClockTick { field, value } => write!(
                f,
                "{field} = {value} s rounds to less than the 1 µs clock tick"
            ),
            ConfigError::LegBeyondClock { leg_s } => write!(
                f,
                "a mobility leg can last {leg_s} s, longer than the simulation clock holds ({} s)",
                CLOCK_HALF_RANGE_US / 1e6
            ),
            ConfigError::QueryRadiusNotFinite { radius_m } => write!(
                f,
                "tx_range_m gives a spatial-index query radius of {radius_m} m, which is not finite"
            ),
            ConfigError::GridCellNotFinite { cell_m } => write!(
                f,
                "the spatial index's cell size is {cell_m} m, which is not finite"
            ),
            ConfigError::GridTooLarge { cell_m } => write!(
                f,
                "a spatial index with {cell_m} m cells needs more than u32::MAX cells to cover the field"
            ),
            ConfigError::OverMemoryBudget {
                estimate_bytes,
                budget_bytes,
            } => write!(
                f,
                "the run would allocate about {estimate_bytes} bytes up front, over the \
                 {budget_bytes}-byte memory budget"
            ),
        }
    }
}

impl Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_are_valid() {
        assert_eq!(ScenarioConfig::paper_table1().validate(), Ok(()));
        assert_eq!(ScenarioConfig::paper_sparse().validate(), Ok(()));
    }

    #[test]
    fn paper_table1_matches_paper() {
        let c = ScenarioConfig::paper_table1();
        assert_eq!(c.n_nodes, 50);
        assert_eq!((c.field_w_m, c.field_h_m), (670.0, 670.0));
        assert_eq!(c.bi_s, 2.0);
        assert_eq!(c.tp_s, 3.0);
        assert_eq!(c.cci_s, 4.0);
        assert_eq!(c.sim_time_s, 900.0);
        let sparse = ScenarioConfig::paper_sparse();
        assert_eq!((sparse.field_w_m, sparse.field_h_m), (1000.0, 1000.0));
    }

    #[test]
    fn builder_helpers() {
        let c = ScenarioConfig::paper_table1()
            .with_algorithm(AlgorithmKind::Lcc)
            .with_tx_range(100.0);
        assert_eq!(c.algorithm, AlgorithmKind::Lcc);
        assert_eq!(c.tx_range_m, 100.0);
    }

    #[test]
    fn rejects_zero_nodes() {
        let mut c = ScenarioConfig::paper_table1();
        c.n_nodes = 0;
        assert_eq!(c.validate(), Err(ConfigError::NoNodes));
    }

    #[test]
    fn rejects_bad_speed_range() {
        let mut c = ScenarioConfig::paper_table1();
        c.min_speed_mps = 25.0;
        assert!(matches!(c.validate(), Err(ConfigError::SpeedRange { .. })));
    }

    #[test]
    fn rejects_tp_below_bi() {
        let mut c = ScenarioConfig::paper_table1();
        c.tp_s = 1.0;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::TimeoutBelowBroadcast { .. })
        ));
    }

    #[test]
    fn rejects_warmup_overrun() {
        let mut c = ScenarioConfig::paper_table1();
        c.warmup_s = 900.0;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::WarmupTooLong { .. })
        ));
    }

    #[test]
    fn rejects_bad_probabilities() {
        let mut c = ScenarioConfig::paper_table1();
        c.loss = LossKind::Bernoulli { p: 1.5 };
        assert!(matches!(
            c.validate(),
            Err(ConfigError::UnitInterval { .. })
        ));
        let mut c = ScenarioConfig::paper_table1();
        c.history_alpha = Some(1.0);
        assert!(matches!(
            c.validate(),
            Err(ConfigError::UnitInterval { .. })
        ));
    }

    /// Configs whose time fields, or whose derived legs, index radii
    /// and grid size, the runner cannot hold, with the field (or
    /// derived value) `validate` must name. Each passes the per-field
    /// checks; run, it would hang (a period rounding to zero re-arms at
    /// the same instant forever) or panic converting to `SimTime` or
    /// building the grid.
    fn clock_defying_configs() -> [(ScenarioConfig, &'static str); 9] {
        let mut tiny_bi = ScenarioConfig::paper_table1();
        tiny_bi.bi_s = 1e-7;
        tiny_bi.sim_time_s = 0.01;
        tiny_bi.warmup_s = 0.0;
        let mut huge_time = ScenarioConfig::paper_table1();
        huge_time.sim_time_s = 1e14;
        let walk = |epoch_s| ScenarioConfig {
            mobility: MobilityKind::RandomWalk { epoch_s },
            ..ScenarioConfig::paper_table1()
        };
        let small = ScenarioConfig {
            n_nodes: 5,
            sim_time_s: 30.0,
            ..ScenarioConfig::paper_table1()
        };
        let huge_field = ScenarioConfig {
            field_w_m: 1e300,
            field_h_m: 1e300,
            ..small
        };
        let crawl = ScenarioConfig {
            max_speed_mps: 1e-300,
            ..small
        };
        let huge_range = ScenarioConfig {
            tx_range_m: 1e308,
            ..small
        };
        let warp = ScenarioConfig {
            mobility: MobilityKind::GaussMarkov { alpha: 0.75 },
            max_speed_mps: 1e308,
            ..small
        };
        let vast_grid = ScenarioConfig {
            field_w_m: 1e12,
            field_h_m: 1e12,
            ..small
        };
        [
            (tiny_bi, "bi_s"),
            (huge_time, "sim_time_s + 2·bi_s"),
            (walk(1e-7), "mobility.epoch_s"),
            (walk(f64::NAN), "mobility.epoch_s"),
            (huge_field, "longest leg"),
            (crawl, "longest leg"),
            (huge_range, "query radius"),
            (warp, "grid cell"),
            (vast_grid, "grid size"),
        ]
    }

    #[test]
    fn rejects_durations_the_clock_cannot_hold() {
        for (cfg, field) in clock_defying_configs() {
            let err = cfg.validate().unwrap_err();
            let named = match err {
                ConfigError::BelowClockTick { field, .. }
                | ConfigError::BeyondClock { field, .. }
                | ConfigError::NonPositive { field, .. } => field,
                ConfigError::LegBeyondClock { .. } => "longest leg",
                ConfigError::QueryRadiusNotFinite { .. } => "query radius",
                ConfigError::GridCellNotFinite { .. } => "grid cell",
                ConfigError::GridTooLarge { .. } => "grid size",
                other => panic!("{field}: unexpected {other:?}"),
            };
            assert_eq!(named, field, "{err}");
            // A run fails fast with the same typed error: a worker
            // thread bounds the wait if validation ever lets one by.
            let (tx, rx) = std::sync::mpsc::channel();
            let worker = std::thread::spawn(move || {
                let _ = tx.send(crate::run_scenario(&cfg, 0).map(|_| ()));
            });
            let outcome = rx
                .recv_timeout(std::time::Duration::from_secs(30))
                .unwrap_or_else(|e| panic!("{field}: run_scenario did not return: {e}"));
            worker
                .join()
                .expect("the worker sent its result and exited");
            // Compared as text: a NaN value is never equal to itself.
            match outcome {
                Err(crate::RunError::Config(e)) => assert_eq!(e.to_string(), err.to_string()),
                other => panic!("{field}: expected a config error, got {other:?}"),
            }
        }
    }

    /// Configs that pass every other check but would allocate past
    /// the memory budget before their first event. Only `validate` is
    /// called: run, the first would ask for 172 GB and abort.
    #[test]
    fn over_budget_configs_are_a_typed_error() {
        let short = ScenarioConfig {
            sim_time_s: 30.0,
            ..ScenarioConfig::paper_table1()
        };
        let cases = [
            (
                "u32::MAX nodes",
                ScenarioConfig {
                    n_nodes: u32::MAX,
                    ..short
                },
            ),
            (
                "a 1e6 m field at Tx 10 m: 3.9e8 grid cells",
                ScenarioConfig {
                    field_w_m: 1e6,
                    field_h_m: 1e6,
                    tx_range_m: 10.0,
                    ..short
                },
            ),
            (
                "u32::MAX planned crashes",
                ScenarioConfig {
                    faults: FaultPlan {
                        crashes: u32::MAX,
                        ..FaultPlan::default()
                    },
                    ..short
                },
            ),
            (
                "a sample every microsecond for a year",
                ScenarioConfig {
                    bi_s: 1e-6,
                    sim_time_s: 3.2e7,
                    ..short
                },
            ),
            (
                "u32::MAX conference booths",
                ScenarioConfig {
                    mobility: MobilityKind::ConferenceHall { booths: u32::MAX },
                    ..short
                },
            ),
            (
                "u32::MAX RPGM groups",
                ScenarioConfig {
                    mobility: MobilityKind::Rpgm {
                        groups: u32::MAX,
                        member_radius_m: 30.0,
                    },
                    ..short
                },
            ),
            (
                "RPGM centers drawn for 9e12 s",
                ScenarioConfig {
                    mobility: MobilityKind::Rpgm {
                        groups: 4,
                        member_radius_m: 30.0,
                    },
                    bi_s: 1e6,
                    tp_s: 1e6,
                    sim_time_s: 9e12,
                    ..short
                },
            ),
            (
                "still RPGM centers, a 1 ms pause per leg for 1e7 s",
                ScenarioConfig {
                    mobility: MobilityKind::Rpgm {
                        groups: 4,
                        member_radius_m: 30.0,
                    },
                    max_speed_mps: 0.0,
                    sim_time_s: 1e7,
                    ..short
                },
            ),
        ];
        for (name, cfg) in cases {
            let err = cfg.validate().unwrap_err();
            match err {
                ConfigError::OverMemoryBudget {
                    estimate_bytes,
                    budget_bytes,
                } => {
                    assert_eq!(budget_bytes, MEMORY_BUDGET_BYTES, "{name}");
                    assert!(estimate_bytes > budget_bytes, "{name}: {err}");
                }
                other => panic!("{name}: expected the memory budget, got {other:?}"),
            }
            assert!(err.to_string().contains("memory budget"), "{name}: {err}");
        }
    }

    #[test]
    fn validate_types_every_hostile_number() {
        // Every numeric field, one at a time, set to each hostile
        // value: `validate()` answers with a result, never a panic. A
        // variant's parameter is written together with its variant, so
        // one base reaches them all; the base's fault plan and
        // checkpoint policy are on, so their fields are checked at all.
        type Setter<T> = (&'static str, fn(&mut ScenarioConfig, T));
        let floats: [Setter<f64>; 30] = [
            ("field_w_m", |c, v| c.field_w_m = v),
            ("field_h_m", |c, v| c.field_h_m = v),
            ("max_speed_mps", |c, v| c.max_speed_mps = v),
            ("min_speed_mps", |c, v| c.min_speed_mps = v),
            ("pause_s", |c, v| c.pause_s = v),
            ("tx_range_m", |c, v| c.tx_range_m = v),
            ("bi_s", |c, v| c.bi_s = v),
            ("tp_s", |c, v| c.tp_s = v),
            ("cci_s", |c, v| c.cci_s = v),
            ("sim_time_s", |c, v| c.sim_time_s = v),
            ("warmup_s", |c, v| c.warmup_s = v),
            ("history_alpha", |c, v| c.history_alpha = Some(v)),
            ("undecided_patience_s", |c, v| c.undecided_patience_s = v),
            ("metric_quantum", |c, v| c.metric_quantum = v),
            ("adaptive_bi_min_s", |c, v| c.adaptive_bi_min_s = v),
            ("packet_time_s", |c, v| c.packet_time_s = v),
            ("mobility.epoch_s", |c, v| {
                c.mobility = MobilityKind::RandomWalk { epoch_s: v }
            }),
            ("mobility.alpha", |c, v| {
                c.mobility = MobilityKind::GaussMarkov { alpha: v }
            }),
            ("mobility.member_radius_m", |c, v| {
                c.mobility = MobilityKind::Rpgm {
                    groups: 4,
                    member_radius_m: v,
                }
            }),
            ("mobility.block_m", |c, v| {
                c.mobility = MobilityKind::Manhattan {
                    block_m: v,
                    p_turn: 0.5,
                }
            }),
            ("mobility.p_turn", |c, v| {
                c.mobility = MobilityKind::Manhattan {
                    block_m: 100.0,
                    p_turn: v,
                }
            }),
            ("propagation.exponent", |c, v| {
                c.propagation = PropagationKind::LogDistance { exponent: v }
            }),
            ("propagation.sigma_db", |c, v| {
                c.propagation = PropagationKind::ShadowedFreeSpace { sigma_db: v }
            }),
            ("propagation.m", |c, v| {
                c.propagation = PropagationKind::NakagamiFreeSpace { m: v }
            }),
            ("loss.p", |c, v| c.loss = LossKind::Bernoulli { p: v }),
            ("faults.recovery_after_s", |c, v| {
                c.faults.recovery_after_s = v
            }),
            ("faults.spell_s", |c, v| c.faults.spell_s = v),
            ("faults.from_s", |c, v| c.faults.from_s = v),
            ("faults.until_s", |c, v| c.faults.until_s = v),
            ("checkpoint.every_s", |c, v| c.checkpoint.every_s = v),
        ];
        let ints: [Setter<u32>; 10] = [
            ("n_nodes", |c, v| c.n_nodes = v),
            ("mobility.groups", |c, v| {
                c.mobility = MobilityKind::Rpgm {
                    groups: v,
                    member_radius_m: 30.0,
                }
            }),
            ("mobility.lanes", |c, v| {
                c.mobility = MobilityKind::Highway {
                    lanes: v,
                    bidirectional: true,
                }
            }),
            ("mobility.booths", |c, v| {
                c.mobility = MobilityKind::ConferenceHall { booths: v }
            }),
            ("faults.crashes", |c, v| c.faults.crashes = v),
            ("faults.recoveries", |c, v| c.faults.recoveries = v),
            ("faults.late_joins", |c, v| c.faults.late_joins = v),
            ("faults.deaf_spells", |c, v| c.faults.deaf_spells = v),
            ("faults.mute_spells", |c, v| c.faults.mute_spells = v),
            ("checkpoint.keep", |c, v| c.checkpoint.keep = v),
        ];
        let base = ScenarioConfig {
            faults: FaultPlan {
                crashes: 1,
                recoveries: 1,
                late_joins: 1,
                deaf_spells: 1,
                mute_spells: 1,
                ..FaultPlan::default()
            },
            checkpoint: CheckpointPolicy {
                every_s: 10.0,
                keep: 2,
            },
            ..ScenarioConfig::paper_table1()
        };
        assert_eq!(base.validate(), Ok(()));
        let hostile_floats = [
            0.0,
            -1.0,
            5e-324,
            1e-300,
            1e308,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let hostile_ints = [0, 1, 1 << 20, u32::MAX];
        let mut panicked = Vec::new();
        let mut check = |field: &str, value: String, cfg: ScenarioConfig| {
            if std::panic::catch_unwind(|| cfg.validate()).is_err() {
                panicked.push(format!("{field} = {value}"));
            }
        };
        for (field, set) in floats {
            for v in hostile_floats {
                let mut cfg = base;
                set(&mut cfg, v);
                check(field, format!("{v:e}"), cfg);
            }
        }
        for (field, set) in ints {
            for v in hostile_ints {
                let mut cfg = base;
                set(&mut cfg, v);
                check(field, v.to_string(), cfg);
            }
        }
        assert!(panicked.is_empty(), "validate() panicked on {panicked:?}");
    }

    #[test]
    fn the_memory_budget_admits_the_largest_checked_in_populations() {
        // bench_scaling's `--stretch` cell: a million nodes at the
        // paper's density for 20 s, and the benchmark's sparse_n5k.
        let side = 670.0 * (1e6f64 / 50.0).sqrt();
        let stretch = ScenarioConfig {
            n_nodes: 1_000_000,
            field_w_m: side,
            field_h_m: side,
            sim_time_s: 20.0,
            warmup_s: 5.0,
            ..ScenarioConfig::paper_table1()
        };
        let sparse = ScenarioConfig {
            n_nodes: 5_000,
            field_w_m: 6_700.0,
            field_h_m: 6_700.0,
            tx_range_m: 100.0,
            sim_time_s: 200.0,
            ..ScenarioConfig::paper_table1()
        };
        // Still RPGM centers for Table 1's 900 s: a 1 ms pause per
        // leg, about 43 MB of legs per group.
        let still_rpgm = ScenarioConfig {
            mobility: MobilityKind::Rpgm {
                groups: 4,
                member_radius_m: 30.0,
            },
            max_speed_mps: 0.0,
            ..ScenarioConfig::paper_table1()
        };
        for cfg in [stretch, sparse, still_rpgm] {
            assert_eq!(cfg.validate(), Ok(()), "{cfg:?}");
        }
        // The stretch cell leaves room for a few times its population.
        let (_, cell_m) = crate::runner::index_radii(&stretch).expect("an indexed run");
        let (cols, rows) = GridIndex::shape(Rect::new(side, side), cell_m).expect("a grid");
        let estimate = crate::runner::upfront_bytes(&stretch, cols * rows);
        assert!(estimate < MEMORY_BUDGET_BYTES / 3, "{estimate} bytes");
    }

    #[test]
    fn a_speed_drawn_near_zero_on_a_vast_field_runs() {
        // A stochastic channel builds no grid, so a 1e12 m field
        // passes `validate`; the `(0, max]` speed draw's slow tail then
        // gives legs longer than the clock holds (seed 0 draws one).
        let cfg = ScenarioConfig {
            n_nodes: 100,
            sim_time_s: 10.0,
            warmup_s: 0.0,
            field_w_m: 1e12,
            field_h_m: 1e12,
            propagation: PropagationKind::ShadowedFreeSpace { sigma_db: 4.0 },
            ..ScenarioConfig::paper_table1()
        };
        let r = crate::run_scenario(&cfg, 0).unwrap();
        assert!(r.hello_broadcasts >= 100 * 5);
    }

    #[test]
    fn clock_bounds_sit_at_one_tick_and_half_the_range() {
        // One simulated second: a sample every tick for the paper's
        // 900 s would overrun the memory budget.
        let mut c = ScenarioConfig {
            sim_time_s: 1.0,
            warmup_s: 0.0,
            ..ScenarioConfig::paper_table1()
        };
        // 0.6 µs rounds to the 1 µs tick, the shortest period allowed.
        c.bi_s = 6e-7;
        c.validate().unwrap();
        c.bi_s = 4e-7;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::BelowClockTick { field: "bi_s", .. })
        ));
        c.bi_s = 2.0;
        c.adaptive_bi_min_s = 1e-7;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::BelowClockTick {
                field: "adaptive_bi_min_s",
                ..
            })
        ));
        c.adaptive_bi_min_s = 0.0;
        // Sampled every 10⁶ s, so the series fit the memory budget.
        c.bi_s = 1e6;
        c.tp_s = 1e6;
        c.sim_time_s = 9e12;
        c.validate().unwrap();
        c.sim_time_s = 1e13;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::BeyondClock {
                field: "sim_time_s + 2·bi_s",
                ..
            })
        ));
        c.sim_time_s = 900.0;
        c.bi_s = 2.0;
        c.tp_s = 3.0;
        c.faults = FaultPlan {
            recoveries: 1,
            recovery_after_s: 1e13,
            ..FaultPlan::default()
        };
        assert!(matches!(
            c.validate(),
            Err(ConfigError::BeyondClock {
                field: "faults.recovery_after_s",
                ..
            })
        ));
    }

    #[test]
    fn rejects_bad_mobility_params() {
        let mut c = ScenarioConfig::paper_table1();
        c.mobility = MobilityKind::Rpgm {
            groups: 0,
            member_radius_m: 10.0,
        };
        assert!(c.validate().is_err());
        c.mobility = MobilityKind::GaussMarkov { alpha: 2.0 };
        assert!(c.validate().is_err());
        c.mobility = MobilityKind::Highway {
            lanes: 0,
            bidirectional: true,
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_non_finite_fields() {
        let mut c = ScenarioConfig::paper_table1();
        c.tx_range_m = f64::NAN;
        assert!(c.validate().is_err());
        let mut c = ScenarioConfig::paper_table1();
        c.field_w_m = f64::INFINITY;
        assert!(c.validate().is_err());
        // A finite exponent whose dB slope is not: the loss at the
        // reference distance would be ∞·0.
        let mut c = ScenarioConfig::paper_table1();
        c.propagation = PropagationKind::LogDistance { exponent: 1e308 };
        let err = c.validate().unwrap_err();
        assert_eq!(err, ConfigError::PathLossOverflow { exponent: 1e308 });
        assert!(err.to_string().contains("propagation.exponent"), "{err}");
    }

    #[test]
    fn error_messages_are_informative() {
        let e = ConfigError::TimeoutBelowBroadcast { tp: 1.0, bi: 2.0 };
        assert!(e.to_string().contains("timeout"));
        let e = ConfigError::UnitInterval {
            field: "loss.p",
            value: 2.0,
        };
        assert!(e.to_string().contains("loss.p"));
    }

    #[test]
    fn config_serde_roundtrip() {
        let c = ScenarioConfig::paper_table1();
        let json = serde_json::to_string(&c).unwrap();
        let back: ScenarioConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn fast_path_defaults_to_auto_and_deserializes_when_absent() {
        assert_eq!(ScenarioConfig::paper_table1().fast_path, FastPath::Auto);
        // Configs serialized before the field existed must still load.
        let mut json = serde_json::to_value(&ScenarioConfig::paper_table1()).unwrap();
        let serde_json::Value::Object(obj) = &mut json else {
            panic!("a config serializes to an object")
        };
        obj.remove("fast_path");
        let back: ScenarioConfig = serde_json::from_value(json).unwrap();
        assert_eq!(back.fast_path, FastPath::Auto);
    }

    #[test]
    fn retired_recluster_parses_and_keeps_both_hashes() {
        let mut c = ScenarioConfig::paper_table1();
        assert_eq!(c.recluster, Recluster::Incremental);
        // Always serialized, so these hashes are the ones every
        // manifest, sweepd cell key and snapshot gate recorded while
        // the knob still selected a code path.
        let json = serde_json::to_string(&c).unwrap();
        assert!(json.ends_with(r#","recluster":"Incremental"}"#), "{json}");
        assert_eq!(crate::config_hash_for(&c), "fnv1a64:68467d5703d7afd8");
        let full = json.replace(r#""recluster":"Incremental""#, r#""recluster":"Full""#);
        c = serde_json::from_str(&full).unwrap();
        assert_eq!(c.recluster, Recluster::Full);
        assert_eq!(serde_json::to_string(&c).unwrap(), full);
        assert_eq!(crate::config_hash_for(&c), "fnv1a64:4c8ba8a295e573e9");
        // Configs serialized before the field existed still load.
        let mut json = serde_json::to_value(&ScenarioConfig::paper_table1()).unwrap();
        let serde_json::Value::Object(obj) = &mut json else {
            panic!("a config serializes to an object")
        };
        obj.remove("recluster");
        let back: ScenarioConfig = serde_json::from_value(json).unwrap();
        assert_eq!(back.recluster, Recluster::Incremental);
    }

    #[test]
    fn faults_and_audit_default_off_and_deserialize_when_absent() {
        let c = ScenarioConfig::paper_table1();
        assert!(c.faults.is_empty());
        assert_eq!(c.audit, AuditMode::Off);
        // Configs serialized before the fields existed must still load.
        let json = serde_json::to_value(&c).unwrap();
        let obj = json.as_object().unwrap();
        assert!(
            !obj.contains_key("faults") && !obj.contains_key("audit"),
            "inert fields must not be serialized (config_hash stability)"
        );
        let back: ScenarioConfig = serde_json::from_value(json).unwrap();
        assert!(back.faults.is_empty());
        assert_eq!(back.audit, AuditMode::Off);
        assert_eq!(back, c);
    }

    #[test]
    fn retired_engine_keys_are_ignored() {
        // Configs written while the sharded engine existed may carry
        // `"engine"` and `"shards"`. Both keys are now unknown, and
        // unknown keys are ignored, so such a config hashes and runs
        // exactly like the same config without them.
        let mut c = ScenarioConfig::paper_table1();
        c.n_nodes = 12;
        c.sim_time_s = 30.0;
        let plain = serde_json::to_string(&c).unwrap();
        let legacy = plain.replacen('{', r#"{"engine":"sharded","shards":4,"#, 1);
        let without: ScenarioConfig = serde_json::from_str(&plain).unwrap();
        let with: ScenarioConfig = serde_json::from_str(&legacy).unwrap();
        assert_eq!(with, without);
        assert_eq!(
            crate::config_hash_for(&with),
            crate::config_hash_for(&without)
        );
        let run = |cfg: &ScenarioConfig| {
            serde_json::to_string(&crate::run_scenario(cfg, 3).unwrap()).unwrap()
        };
        assert_eq!(run(&with), run(&without));
    }

    #[test]
    fn scheduler_and_delivery_default_and_deserialize_when_absent() {
        let c = ScenarioConfig::paper_table1();
        assert_eq!(c.scheduler, Scheduler::Heap);
        assert!(c.scheduler.is_heap());
        assert_eq!(c.delivery, DeliveryPath::Auto);
        assert!(c.delivery.is_auto());
        // Configs serialized before the fields existed must still load,
        // and the defaults must stay invisible to serialization so the
        // config_hash of every existing scenario is unchanged.
        let json = serde_json::to_value(&c).unwrap();
        let obj = json.as_object().unwrap();
        assert!(
            !obj.contains_key("scheduler") && !obj.contains_key("delivery"),
            "default microarchitecture fields must not be serialized (config_hash stability)"
        );
        let back: ScenarioConfig = serde_json::from_value(json).unwrap();
        assert_eq!(back.scheduler, Scheduler::Heap);
        assert_eq!(back.delivery, DeliveryPath::Auto);
        assert_eq!(back, c);
    }

    #[test]
    fn checkpoint_defaults_off_and_deserializes_when_absent() {
        let c = ScenarioConfig::paper_table1();
        assert!(c.checkpoint.is_off());
        assert_eq!(c.checkpoint, CheckpointPolicy::default());
        // Configs serialized before the field existed must still load,
        // and the off default must stay invisible to serialization so
        // the config_hash of every existing scenario is unchanged.
        let json = serde_json::to_value(&c).unwrap();
        let obj = json.as_object().unwrap();
        assert!(
            !obj.contains_key("checkpoint"),
            "default checkpoint policy must not be serialized (config_hash stability)"
        );
        let back: ScenarioConfig = serde_json::from_value(json).unwrap();
        assert!(back.checkpoint.is_off());
        assert_eq!(back, c);
    }

    #[test]
    fn checkpoint_round_trips_and_validates() {
        let mut c = ScenarioConfig::paper_table1();
        c.checkpoint = CheckpointPolicy {
            every_s: 30.0,
            keep: 3,
        };
        let json = serde_json::to_string(&c).unwrap();
        assert!(json.contains(r#""checkpoint""#), "{json}");
        let back: ScenarioConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
        c.validate().unwrap();

        c.checkpoint.keep = 0;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::NonPositive {
                field: "checkpoint.keep",
                ..
            })
        ));
        c.checkpoint = CheckpointPolicy {
            every_s: -1.0,
            keep: 2,
        };
        assert!(matches!(
            c.validate(),
            Err(ConfigError::Negative {
                field: "checkpoint.every_s",
                ..
            })
        ));
        // keep is ignored while checkpointing is off.
        c.checkpoint = CheckpointPolicy {
            every_s: 0.0,
            keep: 0,
        };
        c.validate().unwrap();
    }

    #[test]
    fn calendar_scheduler_round_trips_in_snake_case() {
        let mut c = ScenarioConfig::paper_table1();
        c.scheduler = Scheduler::Calendar;
        c.delivery = DeliveryPath::Scalar;
        let json = serde_json::to_string(&c).unwrap();
        assert!(json.contains(r#""scheduler":"calendar""#), "{json}");
        assert!(json.contains(r#""delivery":"scalar""#), "{json}");
        let back: ScenarioConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
        assert!(!back.scheduler.is_heap());
        assert!(!back.delivery.is_auto());
        c.validate().unwrap();
    }

    #[test]
    fn partial_fault_plans_deserialize_with_field_defaults() {
        let json = r#"{"crashes": 2, "target": "clusterhead"}"#;
        let plan: FaultPlan = serde_json::from_str(json).unwrap();
        assert_eq!(plan.crashes, 2);
        assert_eq!(plan.target, FaultTarget::Clusterhead);
        assert_eq!(plan.recoveries, 0);
        assert_eq!(plan.recovery_after_s, 10.0);
        assert!(!plan.is_empty());
        assert_eq!(plan.injections(), 2);
    }

    #[test]
    fn non_empty_fault_plans_round_trip_through_config_json() {
        let mut c = ScenarioConfig::paper_table1();
        c.faults.crashes = 3;
        c.faults.from_s = 30.0;
        c.audit = AuditMode::Warn;
        let json = serde_json::to_string(&c).unwrap();
        assert!(json.contains("\"faults\""), "{json}");
        assert!(json.contains("\"audit\""), "{json}");
        let back: ScenarioConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn validates_fault_plans() {
        let base = ScenarioConfig::paper_table1();

        let mut c = base;
        c.faults.recoveries = 1;
        c.faults.recovery_after_s = 0.0;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::NonPositive {
                field: "faults.recovery_after_s",
                ..
            })
        ));

        let mut c = base;
        c.faults.deaf_spells = 1;
        c.faults.spell_s = 0.0;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::NonPositive {
                field: "faults.spell_s",
                ..
            })
        ));

        let mut c = base;
        c.faults.late_joins = c.n_nodes + 1;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::TooManyLateJoins { .. })
        ));

        let mut c = base;
        c.faults.crashes = 1;
        c.faults.from_s = 1000.0; // past sim end
        assert!(matches!(
            c.validate(),
            Err(ConfigError::FaultWindowEmpty { .. })
        ));

        let mut c = base;
        c.faults.crashes = 1;
        c.faults.from_s = 50.0;
        c.faults.until_s = 40.0;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::FaultWindowEmpty { .. })
        ));

        let mut c = base;
        c.faults.crashes = 1;
        c.faults.recovery_after_s = f64::NAN;
        assert!(matches!(c.validate(), Err(ConfigError::Negative { .. })));

        // A sane plan validates; an empty plan never blocks validation
        // even with nonsense durations (the plan is inert).
        let mut c = base;
        c.faults.crashes = 2;
        c.faults.recoveries = 1;
        c.faults.late_joins = 3;
        c.faults.from_s = 30.0;
        assert_eq!(c.validate(), Ok(()));
        let mut c = base;
        c.faults.spell_s = 0.0;
        assert_eq!(c.validate(), Ok(()));
        // Spell counts whose sum overflows `u32`: the budget refuses
        // them, with no overflow on the way.
        let mut c = base;
        c.faults.deaf_spells = u32::MAX;
        c.faults.mute_spells = u32::MAX;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::OverMemoryBudget { .. })
        ));
        assert!(ConfigError::FaultWindowEmpty {
            from: 5.0,
            until: 4.0
        }
        .to_string()
        .contains("fault window"));
    }

    #[test]
    fn propagation_determinism_mirrors_runtime_flags() {
        assert!(PropagationKind::FreeSpace.is_deterministic());
        assert!(PropagationKind::TwoRayGround.is_deterministic());
        assert!(PropagationKind::LogDistance { exponent: 3.0 }.is_deterministic());
        assert!(PropagationKind::ShadowedFreeSpace { sigma_db: 0.0 }.is_deterministic());
        assert!(!PropagationKind::ShadowedFreeSpace { sigma_db: 4.0 }.is_deterministic());
        assert!(!PropagationKind::NakagamiFreeSpace { m: 3.0 }.is_deterministic());
    }

    #[test]
    fn rejects_forced_fast_path_with_stochastic_propagation() {
        let mut c = ScenarioConfig::paper_table1();
        c.fast_path = FastPath::On;
        assert_eq!(c.validate(), Ok(()));
        c.propagation = PropagationKind::ShadowedFreeSpace { sigma_db: 4.0 };
        assert!(matches!(
            c.validate(),
            Err(ConfigError::FastPathUnsupported { .. })
        ));
        // Auto silently falls back instead of erroring.
        c.fast_path = FastPath::Auto;
        assert_eq!(c.validate(), Ok(()));
        let e = ConfigError::FastPathUnsupported {
            propagation: PropagationKind::NakagamiFreeSpace { m: 3.0 },
        };
        assert!(e.to_string().contains("deterministic"));
    }
}
