//! Versioned mid-run snapshots: crash-safe checkpointing with
//! byte-identical resume.
//!
//! A [`SimSnapshot`] captures the *complete* live state of a run at an
//! event boundary: the runner's loop state (node table, positions,
//! MAC windows, counters, metric series, fault-plan progress — one
//! `RunState`, cloned whole), plus the canonical event queue, the
//! fault stream's position, loss/propagation model state and the
//! trace cursor. Passed as the `resume` argument of
//! [`run_scenario_checkpointed`](crate::run_scenario_checkpointed), it
//! continues to a [`RunResult`](crate::RunResult) whose JSON (and
//! JSONL trace) is **byte-identical** to an uninterrupted run of the
//! same `(config, seed)`.
//!
//! # What is *not* captured
//!
//! Derived state is rebuilt, not stored:
//!
//! * **Mobility** — `position_at(t)` is a pure function of
//!   `(params, seed, t)`; resume rebuilds the models from the config
//!   and lazily re-extends trajectories to identical values.
//! * **Spatial index / scratch buffers** — recomputed from the
//!   snapshotted positions.
//! * **Setup-only RNG streams** (placement, hello offsets, group
//!   assignment) — consumed only before the first event; a resumed run
//!   skips the setup draws entirely.
//!
//! # Canonical queue order
//!
//! The event queue is serialized as `(time, seq, event)` triples in
//! ascending `(time, seq)` order — its pop order — by
//! [`EventQueue::drain_canonical`](mobic_sim::EventQueue::drain_canonical).
//! Restore re-inserts each entry under its original key with
//! [`EventQueue::restore_entry`](mobic_sim::EventQueue::restore_entry)
//! and continues the sequence counter, so the resumed queue pops
//! exactly as the captured one would have.
//!
//! # On-disk format
//!
//! One header line of JSON — `{"schema":1,"hash":"fnv1a64:…","len":N}`
//! — then `\n`, then the JSON payload. The FNV-1a hash covers the
//! payload bytes; [`load_snapshot`] verifies schema, length, and hash
//! before deserializing, so a torn or bit-rotten file yields a typed
//! [`SnapshotError`] instead of silently corrupt state. Files are
//! published with [`write_atomic_in_existing_dir`], so a crash
//! mid-write never leaves a half-snapshot under the final name.

use std::path::{Path, PathBuf};
use std::{fmt, fs, io};

use mobic_net::loss::LossState;
use mobic_radio::PropagationState;
use mobic_sim::SimTime;
use mobic_trace::{fnv1a64, write_atomic_in_existing_dir, TraceCursor};
use serde::{Deserialize, Serialize};

use crate::config::CheckpointPolicy;
use crate::runner::{config_hash_for, Ev, FaultAction, RunState};
use crate::{DeliveryPath, Recluster, ScenarioConfig, Scheduler};

/// On-disk snapshot schema version. Bumped on any incompatible change
/// to [`SimSnapshot`]'s serialized shape; [`load_snapshot`] refuses
/// other versions with [`SnapshotError::Schema`].
pub const SNAPSHOT_SCHEMA: u32 = 1;

/// Complete mid-run state of a scenario at an event boundary: the
/// runner's loop state (`RunState`) plus the envelope around it.
///
/// Produced by [`run_scenario_until`](crate::run_scenario_until) (and
/// periodically by [`run_scenario_checkpointed`](crate::run_scenario_checkpointed));
/// consumed by the `resume` argument of
/// [`run_scenario_checkpointed`](crate::run_scenario_checkpointed).
/// Fields are crate-private — the runner is the only writer/reader of
/// the live state; external callers interact through the accessors and
/// the save/load functions.
///
/// Both parts are flattened, so the payload is one flat JSON object
/// whose keys are their fields: the schema-1 layout. [`load_snapshot`]
/// reads each part from the parsed payload on its own, because serde
/// deserializes flattened fields through a buffer that cannot read
/// the integer keys of the node table's neighbor maps.
#[derive(Debug, Clone, Serialize)]
pub struct SimSnapshot {
    #[serde(flatten)]
    pub(crate) envelope: Envelope,
    #[serde(flatten)]
    pub(crate) state: RunState,
}

/// What a snapshot stores beside the loop state: which run it belongs
/// to, the event queue, RNG and channel state, and the trace cursor.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Envelope {
    /// Semantic config hash gating restore (see
    /// [`semantic_config_hash`]).
    pub(crate) config_hash: String,
    pub(crate) seed: u64,
    pub(crate) now: SimTime,
    pub(crate) events_processed: u64,
    pub(crate) next_seq: u64,
    /// Pending events in canonical `(time, seq)` ascending order.
    pub(crate) queue: Vec<(SimTime, u64, Ev)>,
    /// ChaCha word position of the live fault stream, split
    /// `(hi, lo)` so the serialized form stays within u64.
    pub(crate) fault_rng_word_pos: Option<(u64, u64)>,
    pub(crate) loss: LossState,
    pub(crate) propagation: PropagationState,
    /// Durable trace position at capture time; `None` for untraced
    /// runs.
    pub(crate) trace: Option<TraceCursor>,
}

impl SimSnapshot {
    /// Events processed when the snapshot was taken (also its rotation
    /// key: newer snapshots have strictly larger counts).
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.envelope.events_processed
    }

    /// Simulated time of the last processed event.
    #[must_use]
    pub fn sim_now(&self) -> SimTime {
        self.envelope.now
    }

    /// The seed of the run this snapshot belongs to.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.envelope.seed
    }

    /// Durable trace position at capture time; `None` for untraced
    /// runs. A traced resume truncates its file to this cursor via
    /// [`JsonlSink::resume`](mobic_trace::JsonlSink::resume).
    #[must_use]
    pub fn trace_cursor(&self) -> Option<TraceCursor> {
        self.envelope.trace
    }

    /// Checks that this snapshot belongs to the run `(cfg, seed)`
    /// describes: same seed, same [`semantic_config_hash`]. The
    /// retired `scheduler`, `delivery` and `recluster` keys and the
    /// checkpoint cadence may differ — they never change results, so a
    /// snapshot taken under one value may resume under another.
    ///
    /// Then checks the state's shape against `cfg.n_nodes`: every
    /// per-node vector has one entry per node, and every node id the
    /// snapshot names (queued hellos and fault targets, neighbor-table
    /// keys, Gilbert–Elliott links) is below `n_nodes`. The file's
    /// hash proves only that the payload is intact, not who wrote it,
    /// so a payload that passes it can still be the wrong shape.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason on mismatch.
    pub fn compatible_with(&self, cfg: &ScenarioConfig, seed: u64) -> Result<(), String> {
        if self.envelope.seed != seed {
            return Err(format!(
                "snapshot was taken with seed {}, resume requested seed {seed}",
                self.envelope.seed
            ));
        }
        let expected = semantic_config_hash(cfg);
        if self.envelope.config_hash != expected {
            return Err(format!(
                "snapshot config hash {} != semantic hash {expected} of the resume config",
                self.envelope.config_hash
            ));
        }
        let n = cfg.n_nodes as usize;
        self.state.check_shape(n)?;
        for (_, _, ev) in &self.envelope.queue {
            let node = match *ev {
                Ev::Hello(id) => id.index(),
                Ev::Fault(
                    FaultAction::Revive { node }
                    | FaultAction::Join { node }
                    | FaultAction::Restore { node, .. },
                ) => node,
                Ev::Sample | Ev::Fault(FaultAction::Crash { .. } | FaultAction::Impair { .. }) => {
                    continue
                }
            };
            if node >= n {
                return Err(format!(
                    "queued event {ev:?} names node {node}, but the run has {n} nodes"
                ));
            }
        }
        if let LossState::Burst { bad, .. } = &self.envelope.loss {
            if let Some((tx, rx, _)) = bad
                .iter()
                .find(|&&(tx, rx, _)| tx as usize >= n || rx as usize >= n)
            {
                return Err(format!(
                    "loss state names link {tx} -> {rx}, but the run has {n} nodes"
                ));
            }
        }
        Ok(())
    }
}

/// Config hash over the *semantic* knobs only: execution knobs that
/// provably never change results — the retired `scheduler`,
/// `delivery` and `recluster`, and the checkpoint cadence itself — are
/// canonicalized to their defaults before hashing. `fast_path` stays
/// in the hash: it changes serialized perf fields (`indexed`,
/// `mean_candidates`, `index_refreshes`), so switching it across a
/// resume would break byte-identity.
#[must_use]
pub fn semantic_config_hash(cfg: &ScenarioConfig) -> String {
    let mut canon = *cfg;
    canon.scheduler = Scheduler::Heap;
    canon.delivery = DeliveryPath::Auto;
    canon.recluster = Recluster::Incremental;
    canon.checkpoint = CheckpointPolicy::default();
    config_hash_for(&canon)
}

/// Why a snapshot file could not be loaded.
///
/// Every variant except [`Io`](Self::Io) means the *file content* is
/// unusable — recovery code treats those as "this snapshot is corrupt,
/// fall back to an older one (or a cold start)", never as fatal.
#[derive(Debug)]
pub enum SnapshotError {
    /// The file could not be read at all.
    Io(io::Error),
    /// No header line (missing newline, or the first line is not
    /// header JSON) — not a snapshot file.
    MissingHeader,
    /// The header declares an unsupported schema version.
    Schema {
        /// Version found in the header.
        found: u32,
    },
    /// The payload is shorter or longer than the header declares —
    /// a torn write.
    Truncated {
        /// Payload length the header promised.
        expected: u64,
        /// Payload length actually present.
        found: u64,
    },
    /// The payload hash does not match the header — bit rot or
    /// tampering.
    HashMismatch {
        /// Hash recorded in the header.
        expected: String,
        /// Hash of the payload as read.
        found: String,
    },
    /// The payload passed the hash gate but failed to deserialize
    /// (snapshot written by an incompatible build).
    Payload(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::MissingHeader => write!(f, "not a snapshot file (no header line)"),
            SnapshotError::Schema { found } => write!(
                f,
                "unsupported snapshot schema {found} (this build reads {SNAPSHOT_SCHEMA})"
            ),
            SnapshotError::Truncated { expected, found } => write!(
                f,
                "snapshot payload is {found} B but the header declares {expected} B (torn write)"
            ),
            SnapshotError::HashMismatch { expected, found } => {
                write!(
                    f,
                    "snapshot hash mismatch: header {expected}, payload {found}"
                )
            }
            SnapshotError::Payload(e) => write!(f, "snapshot payload does not parse: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// The one-line JSON header preceding the payload.
#[derive(Serialize, Deserialize)]
struct Header {
    schema: u32,
    hash: String,
    len: u64,
}

fn payload_hash(payload: &[u8]) -> String {
    format!("fnv1a64:{:016x}", fnv1a64(payload))
}

/// Serializes and atomically publishes a snapshot at `path` (header
/// line + hashed payload; see the module docs for the format). The
/// directory must exist: a snapshot write never creates one.
///
/// # Errors
///
/// Returns serialization and write errors, including a missing
/// directory. A failed write never leaves a partial file under `path`
/// — [`write_atomic_in_existing_dir`] publishes via temp-file +
/// rename.
pub fn save_snapshot(snap: &SimSnapshot, path: impl AsRef<Path>) -> io::Result<()> {
    let payload = serde_json::to_vec(snap)?;
    let header = Header {
        schema: SNAPSHOT_SCHEMA,
        hash: payload_hash(&payload),
        len: payload.len() as u64,
    };
    let mut bytes = serde_json::to_vec(&header)?;
    bytes.push(b'\n');
    bytes.extend_from_slice(&payload);
    write_atomic_in_existing_dir(path, &bytes)
}

/// Reads and verifies a snapshot: header parse, schema check, length
/// check, hash check, then payload deserialization — in that order, so
/// the error names the first gate the file failed.
///
/// # Errors
///
/// See [`SnapshotError`]; anything but [`SnapshotError::Io`] means the
/// file content is unusable and an older snapshot (or a cold start)
/// should be used instead.
pub fn load_snapshot(path: impl AsRef<Path>) -> Result<SimSnapshot, SnapshotError> {
    let bytes = fs::read(path)?;
    let nl = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or(SnapshotError::MissingHeader)?;
    let header: Header =
        serde_json::from_slice(&bytes[..nl]).map_err(|_| SnapshotError::MissingHeader)?;
    if header.schema != SNAPSHOT_SCHEMA {
        return Err(SnapshotError::Schema {
            found: header.schema,
        });
    }
    let payload = &bytes[nl + 1..];
    if payload.len() as u64 != header.len {
        return Err(SnapshotError::Truncated {
            expected: header.len,
            found: payload.len() as u64,
        });
    }
    let found = payload_hash(payload);
    if found != header.hash {
        return Err(SnapshotError::HashMismatch {
            expected: header.hash,
            found,
        });
    }
    let unusable = |e: serde_json::Error| SnapshotError::Payload(e.to_string());
    let payload: serde_json::Value = serde_json::from_slice(payload).map_err(unusable)?;
    Ok(SimSnapshot {
        envelope: serde_json::from_value(payload.clone()).map_err(unusable)?,
        state: serde_json::from_value(payload).map_err(unusable)?,
    })
}

/// Snapshot files in `dir`, sorted ascending by name — and therefore
/// by event count, because names zero-pad the count
/// (`ckpt-00000000000000001024.ckpt`).
fn list_snapshots(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut found: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "ckpt"))
        .collect();
    found.sort();
    Ok(found)
}

/// Writes a rotated snapshot into the existing directory `dir`, named
/// by its event count, then prunes the oldest files beyond `keep`
/// (clamped to at least 1). Returns the path written.
///
/// The directory's owner creates it: a write from a worker that
/// outlived its cell must fail once the owner has removed the
/// directory, not bring it back.
///
/// # Errors
///
/// Returns write errors, including a missing `dir`; pruning errors are
/// ignored (stale snapshots are harmless).
pub fn write_rotated(snap: &SimSnapshot, dir: &Path, keep: u32) -> io::Result<PathBuf> {
    let path = dir.join(format!("ckpt-{:020}.ckpt", snap.events_processed()));
    save_snapshot(snap, &path)?;
    if let Ok(mut all) = list_snapshots(dir) {
        let keep = keep.max(1) as usize;
        while all.len() > keep {
            let oldest = all.remove(0);
            let _ = fs::remove_file(oldest);
        }
    }
    Ok(path)
}

/// Loads the newest snapshot in `dir` that passes every integrity
/// gate, degrading to older ones on corruption. Returns the snapshot
/// (or `None` when the directory is missing, empty, or holds only
/// corrupt files) and the number of snapshot files *rejected* along
/// the way — surfaced by `mobic-sweepd` as its corruption-fallback
/// counter.
#[must_use]
pub fn latest_snapshot(dir: &Path) -> (Option<SimSnapshot>, u32) {
    let Ok(mut all) = list_snapshots(dir) else {
        return (None, 0);
    };
    all.reverse(); // newest first
    let mut rejected = 0;
    for path in all {
        match load_snapshot(&path) {
            Ok(snap) => return (Some(snap), rejected),
            Err(_) => rejected += 1,
        }
    }
    (None, rejected)
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "plants corrupt and truncated snapshots on purpose"
)]
mod tests {
    use super::*;
    use crate::{
        run_scenario, run_scenario_checkpointed, run_scenario_until, LossKind, RunError, RunOutcome,
    };
    use mobic_trace::NullSink;

    fn small_cfg() -> ScenarioConfig {
        let mut cfg = ScenarioConfig::paper_table1();
        cfg.n_nodes = 12;
        cfg.sim_time_s = 20.0;
        // `validate` requires the warmup to end before the run does.
        cfg.warmup_s = 5.0;
        cfg.tx_range_m = 200.0;
        cfg
    }

    fn suspend(cfg: &ScenarioConfig, seed: u64, after: u64) -> SimSnapshot {
        match run_scenario_until(cfg, seed, after, &mut NullSink).unwrap() {
            RunOutcome::Suspended(snap) => *snap,
            RunOutcome::Done(_) => panic!("run finished before event {after}"),
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mobic-snapshot-{tag}"));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Writes `payload` under a header that matches it (schema, length
    /// and hash recomputed), the way anyone can forge a snapshot file.
    fn write_forged(path: &Path, payload: &str) {
        let mut bytes = serde_json::to_vec(&Header {
            schema: SNAPSHOT_SCHEMA,
            hash: payload_hash(payload.as_bytes()),
            len: payload.len() as u64,
        })
        .unwrap();
        bytes.push(b'\n');
        bytes.extend_from_slice(payload.as_bytes());
        fs::write(path, &bytes).unwrap();
    }

    #[test]
    fn save_load_roundtrip_preserves_resume_equivalence() {
        let cfg = small_cfg();
        let reference = serde_json::to_string(&run_scenario(&cfg, 7).unwrap()).unwrap();
        let snap = suspend(&cfg, 7, 60);
        let dir = tmp_dir("roundtrip");
        let path = dir.join("s.ckpt");
        save_snapshot(&snap, &path).unwrap();
        let loaded = load_snapshot(&path).unwrap();
        assert_eq!(loaded.events_processed(), snap.events_processed());
        assert_eq!(loaded.seed(), 7);
        let resumed =
            run_scenario_checkpointed(&cfg, 7, None, Some(loaded), &mut NullSink).unwrap();
        assert_eq!(serde_json::to_string(&resumed).unwrap(), reference);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn payload_with_retired_key_still_resumes() {
        // Snapshots written while the sharded engine existed carry a
        // `window_start` key. It is now unknown and ignored, so such a
        // file still passes every gate and resumes to the same bytes.
        let cfg = small_cfg();
        let reference = serde_json::to_string(&run_scenario(&cfg, 7).unwrap()).unwrap();
        let snap = suspend(&cfg, 7, 60);
        let payload = serde_json::to_string(&snap).unwrap();
        let payload = payload.replacen('{', r#"{"window_start":12345,"#, 1);
        let dir = tmp_dir("retired-key");
        let path = dir.join("s.ckpt");
        write_forged(&path, &payload);
        let loaded = load_snapshot(&path).unwrap();
        assert_eq!(loaded.events_processed(), 60);
        let resumed =
            run_scenario_checkpointed(&cfg, 7, None, Some(loaded), &mut NullSink).unwrap();
        assert_eq!(serde_json::to_string(&resumed).unwrap(), reference);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn forged_payload_of_the_wrong_shape_is_refused() {
        // Each payload passes the header, schema, length and hash
        // gates and the seed and config-hash checks; only its shape
        // disagrees with `n_nodes`. Restored, a short vector would
        // index out of bounds and a foreign id would size a table by
        // it, so the gate must refuse each one as a mismatch, which
        // callers answer with a cold start.
        use serde_json::Value;
        fn at<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
            let Value::Object(map) = v else {
                panic!("`{key}` of a non-object")
            };
            map.get_mut(key).unwrap()
        }
        fn items(v: &mut Value) -> &mut Vec<Value> {
            let Value::Array(items) = v else {
                panic!("not an array")
            };
            items
        }
        fn json(text: &str) -> Value {
            serde_json::from_str(text).unwrap()
        }
        let mut cfg = small_cfg();
        cfg.loss = LossKind::BurstyPreset;
        let n = u64::from(cfg.n_nodes);
        let snap = suspend(&cfg, 7, 60);
        let good = serde_json::to_value(&snap).unwrap();
        /// Edits a good payload for a run of `n` nodes.
        type Forge = fn(&mut Value, u64);
        /// A pending reception of a hello whose advert names `ch`.
        fn reception(sender: u64, ch: u64) -> Value {
            json(&format!(
                r#"{{"at":0,"power":-60.0,"hello":{{"sender":{sender},"seq":1,
                   "payload":{{"primary":0.0,"role":"Member","ch":{ch}}}}}}}"#
            ))
        }
        let forgeries: [(&str, Forge); 15] = [
            ("positions cut to 3", |v, _| {
                items(at(v, "positions")).truncate(3);
            }),
            ("last_arrival one long", |v, _| {
                items(at(v, "last_arrival")).push(Value::Null);
            }),
            ("pending one short", |v, _| {
                items(at(v, "pending")).pop();
            }),
            ("alive one short", |v, _| {
                items(at(at(v, "node_table"), "alive")).pop();
            }),
            ("a neighbor keyed n", |v, n| {
                let tables = items(at(at(v, "node_table"), "tables"));
                let Some(Value::Object(entries)) = tables
                    .iter_mut()
                    .map(|t| at(t, "entries"))
                    .find(|e| e.as_object().is_some_and(|m| !m.is_empty()))
                else {
                    panic!("every neighbor table is empty")
                };
                let entry = entries.values().next().unwrap().clone();
                entries.insert(n.to_string(), entry);
            }),
            ("a hello from node n", |v, n| {
                let hello = items(at(v, "queue"))
                    .iter_mut()
                    .find(|e| e.as_array().unwrap()[2].get("Hello").is_some())
                    .unwrap();
                items(hello)[2] = json(&format!(r#"{{"Hello":{n}}}"#));
            }),
            ("a revival of node n", |v, n| {
                let first = &mut items(at(v, "queue"))[0];
                items(first)[2] = json(&format!(r#"{{"Fault":{{"Revive":{{"node":{n}}}}}}}"#));
            }),
            ("a bursty link from node n", |v, n| {
                *at(at(at(v, "loss"), "Burst"), "bad") = json(&format!("[[{n},0,true]]"));
            }),
            ("node 0 carrying the id n", |v, n| {
                let node = &mut items(at(at(v, "node_table"), "nodes"))[0];
                *at(node, "id") = json(&n.to_string());
            }),
            ("node 0 a member of node n", |v, n| {
                let node = &mut items(at(at(v, "node_table"), "nodes"))[0];
                *at(node, "role") = json(&format!(r#"{{"Member":{{"ch":{n}}}}}"#));
            }),
            ("node 0 contending with node n", |v, n| {
                let node = &mut items(at(at(v, "node_table"), "nodes"))[0];
                *at(node, "contention") = json(&format!(r#"{{"{n}":0}}"#));
            }),
            ("an advert naming node n", |v, n| {
                let tables = items(at(at(v, "node_table"), "tables"));
                let Some(Value::Object(entries)) = tables
                    .iter_mut()
                    .map(|t| at(t, "entries"))
                    .find(|e| e.as_object().is_some_and(|m| !m.is_empty()))
                else {
                    panic!("every neighbor table is empty")
                };
                let entry = entries.values_mut().next().unwrap();
                *at(at(entry, "payload"), "ch") = json(&n.to_string());
            }),
            ("a pending reception from node n", |v, n| {
                items(at(v, "pending"))[0] = reception(n, 0);
            }),
            ("a pending advert naming node n", |v, n| {
                items(at(v, "pending"))[0] = reception(1, n);
            }),
            ("a healing probe orphaning node n", |v, n| {
                *at(v, "probes") = json(&format!(r#"[{{"started":0,"orphans":[{n}]}}]"#));
            }),
        ];
        let dir = tmp_dir("forged");
        let path = dir.join("s.ckpt");
        // The forging itself is sound: the untouched payload resumes,
        // and so do in-range versions of the hand-built receptions
        // and probe.
        let mut in_range = good.clone();
        items(at(&mut in_range, "pending"))[0] = reception(1, 0);
        *at(&mut in_range, "probes") = json(r#"[{"started":0,"orphans":[1]}]"#);
        for payload in [&good, &in_range] {
            write_forged(&path, &payload.to_string());
            let loaded = load_snapshot(&path).unwrap();
            run_scenario_checkpointed(&cfg, 7, None, Some(loaded), &mut NullSink).unwrap();
        }
        for (what, forge) in forgeries {
            let mut payload = good.clone();
            forge(&mut payload, n);
            write_forged(&path, &payload.to_string());
            let loaded = load_snapshot(&path).unwrap_or_else(|e| panic!("{what}: {e}"));
            match run_scenario_checkpointed(&cfg, 7, None, Some(loaded), &mut NullSink) {
                Err(RunError::SnapshotMismatch { reason }) => {
                    assert!(reason.contains("nodes"), "{what}: {reason}");
                }
                other => panic!("{what}: expected a mismatch, got {other:?}"),
            }
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_written_by_an_older_build_still_resumes() {
        // A file saved by an earlier build, before the loop state moved
        // into `RunState`: `small_cfg` with crashes, MAC collisions and
        // bursty loss, suspended at event 100 (two crashes fired,
        // receptions pending, Gilbert–Elliott channels mid-run).
        let mut cfg = small_cfg();
        cfg.faults.crashes = 2;
        cfg.packet_time_s = 0.00025;
        cfg.loss = LossKind::BurstyPreset;
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures/schema1-seed7-event100.ckpt");
        let loaded = load_snapshot(&path).unwrap();
        assert_eq!(loaded.events_processed(), 100);
        // Same keys, same values: this build writes the file's payload
        // back unchanged.
        let bytes = fs::read(&path).unwrap();
        let nl = bytes.iter().position(|&b| b == b'\n').unwrap();
        let on_disk: serde_json::Value = serde_json::from_slice(&bytes[nl + 1..]).unwrap();
        assert_eq!(serde_json::to_value(&loaded).unwrap(), on_disk);
        let reference = serde_json::to_string(&run_scenario(&cfg, 7).unwrap()).unwrap();
        let resumed =
            run_scenario_checkpointed(&cfg, 7, None, Some(loaded), &mut NullSink).unwrap();
        assert_eq!(serde_json::to_string(&resumed).unwrap(), reference);
    }

    #[test]
    fn corruption_is_detected_not_restored() {
        let cfg = small_cfg();
        let snap = suspend(&cfg, 3, 50);
        let dir = tmp_dir("corruption");
        let path = dir.join("s.ckpt");
        save_snapshot(&snap, &path).unwrap();
        let good = fs::read(&path).unwrap();
        let nl = good.iter().position(|&b| b == b'\n').unwrap();

        // Flip one payload byte: hash gate.
        let mut bad = good.clone();
        let i = nl + 1 + (bad.len() - nl) / 2;
        bad[i] ^= 0x01;
        fs::write(&path, &bad).unwrap();
        assert!(matches!(
            load_snapshot(&path),
            Err(SnapshotError::HashMismatch { .. })
        ));

        // Drop trailing payload bytes: length gate.
        fs::write(&path, &good[..good.len() - 10]).unwrap();
        assert!(matches!(
            load_snapshot(&path),
            Err(SnapshotError::Truncated { .. })
        ));

        // Wrong schema version in an otherwise valid file.
        let header: Header = serde_json::from_slice(&good[..nl]).unwrap();
        let mut rewritten = serde_json::to_vec(&Header {
            schema: SNAPSHOT_SCHEMA + 1,
            ..header
        })
        .unwrap();
        rewritten.push(b'\n');
        rewritten.extend_from_slice(&good[nl + 1..]);
        fs::write(&path, &rewritten).unwrap();
        assert!(matches!(
            load_snapshot(&path),
            Err(SnapshotError::Schema { found }) if found == SNAPSHOT_SCHEMA + 1
        ));

        // Garbage: header gate.
        fs::write(&path, b"not a snapshot").unwrap();
        assert!(matches!(
            load_snapshot(&path),
            Err(SnapshotError::MissingHeader)
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_keeps_newest_and_latest_skips_corrupt() {
        let cfg = small_cfg();
        let dir = tmp_dir("rotation");
        for after in [20u64, 40, 60, 80] {
            let snap = suspend(&cfg, 5, after);
            write_rotated(&snap, &dir, 2).unwrap();
        }
        let kept = list_snapshots(&dir).unwrap();
        assert_eq!(kept.len(), 2, "{kept:?}");
        assert!(
            kept[1].ends_with("ckpt-00000000000000000080.ckpt"),
            "{kept:?}"
        );

        let (best, rejected) = latest_snapshot(&dir);
        assert_eq!(best.unwrap().events_processed(), 80);
        assert_eq!(rejected, 0);

        // Corrupt the newest: recovery degrades to the older one and
        // counts the rejection.
        let newest = kept[1].clone();
        let mut bytes = fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&newest, &bytes).unwrap();
        let (best, rejected) = latest_snapshot(&dir);
        assert_eq!(best.unwrap().events_processed(), 60);
        assert_eq!(rejected, 1);

        // Both corrupt: cold start, both rejections counted.
        fs::write(&kept[0], b"junk").unwrap();
        let (best, rejected) = latest_snapshot(&dir);
        assert!(best.is_none());
        assert_eq!(rejected, 2);

        // Missing directory is a quiet cold start.
        fs::remove_dir_all(&dir).unwrap();
        let (best, rejected) = latest_snapshot(&dir);
        assert!(best.is_none());
        assert_eq!(rejected, 0);
    }

    /// Where the determinism contract puts a `ScenarioConfig` field
    /// that a config may omit.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Knob {
        /// Changes results: moves [`semantic_config_hash`], and has no
        /// row in OPERATIONS.md's "Execution knobs" table.
        Semantic,
        /// Changes how a run executes, not what it computes (it has a
        /// row), but stays in the semantic hash.
        HashedExecution,
        /// Changes nothing a run writes: it has a row, and
        /// [`semantic_config_hash`] resets it, so a snapshot taken
        /// under one value resumes under any other.
        StrippedExecution,
    }

    /// Every field a config may omit, classified.
    const KNOBS: &[(&str, Knob)] = &[
        // Changes the serialized perf fields `indexed`,
        // `mean_candidates` and `index_refreshes`.
        ("fast_path", Knob::HashedExecution),
        // Retired and ignored.
        ("recluster", Knob::StrippedExecution),
        ("scheduler", Knob::StrippedExecution),
        ("delivery", Knob::StrippedExecution),
        // Snapshot cadence: byte-identical by contract.
        ("checkpoint", Knob::StrippedExecution),
        ("faults", Knob::Semantic),
        // Strict auditing can fail a run.
        ("audit", Knob::Semantic),
        // An `Option`: a missing key reads as `None`.
        ("history_alpha", Knob::Semantic),
    ];

    /// `paper_table1` with every field changed. A struct literal, so
    /// a new field cannot compile without a value here.
    fn every_field_changed() -> ScenarioConfig {
        ScenarioConfig {
            n_nodes: 20,
            field_w_m: 400.0,
            field_h_m: 300.0,
            max_speed_mps: 5.0,
            min_speed_mps: 1.0,
            pause_s: 10.0,
            tx_range_m: 100.0,
            bi_s: 1.0,
            tp_s: 1.5,
            cci_s: 2.0,
            sim_time_s: 60.0,
            warmup_s: 10.0,
            algorithm: mobic_core::AlgorithmKind::Lcc,
            mobility: crate::MobilityKind::Stationary,
            propagation: crate::PropagationKind::TwoRayGround,
            loss: LossKind::BurstyPreset,
            history_alpha: Some(0.5),
            undecided_patience_s: 2.0,
            metric_aggregation: mobic_core::metric::MetricAggregation::MaxSq,
            metric_quantum: 0.5,
            adaptive_bi_min_s: 0.5,
            packet_time_s: 0.000_25,
            fast_path: crate::FastPath::Off,
            recluster: Recluster::Full,
            faults: crate::FaultPlan {
                crashes: 1,
                ..crate::FaultPlan::default()
            },
            audit: crate::AuditMode::Warn,
            scheduler: Scheduler::Calendar,
            delivery: DeliveryPath::Scalar,
            checkpoint: CheckpointPolicy {
                every_s: 1.0,
                keep: 3,
            },
        }
    }

    /// The config field of each row of OPERATIONS.md's "Execution
    /// knobs" table: the first backticked name in the second column,
    /// up to any `:`.
    fn documented_execution_knobs(operations: &str) -> Vec<String> {
        operations
            .lines()
            .skip_while(|line| !line.starts_with("### Execution knobs"))
            .skip(1)
            .take_while(|line| !line.starts_with('#'))
            .filter_map(|row| {
                let row = row.replace("\\|", "");
                let column = row.split('|').nth(2)?;
                let name = column.split('`').nth(1)?.split(':').next()?;
                Some(name.trim().to_string())
            })
            .collect()
    }

    #[test]
    fn knob_neutrality() {
        type Map = serde_json::Map<String, serde_json::Value>;
        let object = |cfg: &ScenarioConfig| -> Map {
            match serde_json::to_value(cfg).unwrap() {
                serde_json::Value::Object(map) => map,
                other => panic!("a config serializes to an object, not {other}"),
            }
        };
        let parse = |map: &Map| {
            serde_json::from_value::<ScenarioConfig>(serde_json::Value::Object(map.clone()))
        };
        let class = |field: &str| KNOBS.iter().find(|(f, _)| *f == field).map(|&(_, k)| k);
        let base = ScenarioConfig::paper_table1();
        let base_map = object(&base);
        let changed = object(&every_field_changed());
        for (field, value) in &changed {
            assert_ne!(
                base_map.get(field),
                Some(value),
                "`every_field_changed` leaves `{field}` at paper_table1's value"
            );
        }

        // The fields a config may omit are exactly the classified ones.
        let omissible: Vec<&str> = changed
            .keys()
            .filter(|field| {
                let mut map = changed.clone();
                map.remove(*field);
                parse(&map).is_ok()
            })
            .map(String::as_str)
            .collect();
        for field in &omissible {
            assert!(
                class(field).is_some(),
                "a config may omit `{field}`, but KNOBS does not classify it: decide \
                 whether it changes results and whether `semantic_config_hash` resets it"
            );
        }
        for (field, _) in KNOBS {
            assert!(
                omissible.contains(field),
                "KNOBS classifies `{field}`, which is not a field a config may omit"
            );
        }

        // The full hash sees every field; the semantic hash every field
        // but the stripped knobs.
        let semantic = semantic_config_hash(&base);
        for (field, value) in &changed {
            let mut map = base_map.clone();
            map.insert(field.clone(), value.clone());
            let cfg = parse(&map).unwrap();
            assert_ne!(
                config_hash_for(&cfg),
                config_hash_for(&base),
                "`{field}` does not move `config_hash_for`"
            );
            let stripped = class(field) == Some(Knob::StrippedExecution);
            assert_eq!(
                semantic_config_hash(&cfg) == semantic,
                stripped,
                "`{field}`: `semantic_config_hash` must {}reset it",
                if stripped { "" } else { "not " }
            );
        }

        // OPERATIONS.md has a row for exactly the execution knobs.
        let mut documented =
            documented_execution_knobs(include_str!("../../../docs/OPERATIONS.md"));
        documented.sort();
        let mut execution: Vec<&str> = KNOBS
            .iter()
            .filter(|(_, k)| *k != Knob::Semantic)
            .map(|&(f, _)| f)
            .collect();
        execution.sort_unstable();
        assert_eq!(
            documented, execution,
            "OPERATIONS.md's \"Execution knobs\" table must have one row per execution knob"
        );
    }

    #[test]
    fn compatibility_gate_names_the_mismatch() {
        let cfg = small_cfg();
        let snap = suspend(&cfg, 9, 40);
        snap.compatible_with(&cfg, 9).unwrap();
        assert!(snap.compatible_with(&cfg, 10).unwrap_err().contains("seed"));
        let mut other = cfg;
        other.sim_time_s += 1.0;
        assert!(snap
            .compatible_with(&other, 9)
            .unwrap_err()
            .contains("hash"));
        // Execution knobs pass the gate.
        let mut exec = cfg;
        exec.scheduler = Scheduler::Calendar;
        snap.compatible_with(&exec, 9).unwrap();
    }
}
