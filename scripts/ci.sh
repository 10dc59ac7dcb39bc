#!/usr/bin/env bash
# CI gate: formatting, lints, docs, tier-1 build+tests (among them the
# steady-state allocation counts of tests/steady_state_allocations.rs),
# the two lossy-path ablation goldens, the benchmark's own gate, the
# ledger's work counts, a smoke run of the
# brute-vs-indexed scaling bench (which asserts result equality, so a
# regression in either event-loop path fails the script), a sweep
# resume smoke, a checkpoint kill/resume drill (run -> SIGKILL ->
# resume -> byte-compare), and a live mobic-sweepd service smoke
# (checkpointed cells under a deadline, an over-budget population
# refused without harming the service, full cache hit on resubmit,
# graceful drain, no snapshot directory left behind).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== mobic-lint (hot-path regions, fail-fast) =="
# Allocations written inside `lint:hot-path` regions and malformed
# `lint:` directives. What the loop allocates at run time is measured
# by tier-1's tests/steady_state_allocations.rs below. The gate diffs
# against the checked-in baseline, so it fails only on NEW findings;
# the baseline is kept empty in normal operation.
cargo run --release -q -p mobic-lint -- --baseline lint-baseline.json

echo "== fmt =="
cargo fmt --all --check

echo "== clippy =="
# The determinism and artifact bans live in `clippy.toml` (the root
# file, plus a shorter one per operator crate) as `disallowed-types`
# and `disallowed-methods`. Every crate a panic entry point can reach
# denies the panic lints in its `lib.rs`: core, geom, metrics,
# mobility, net, radio, scenario, sim, sweepd and trace deny
# `unwrap_used`, `panic`, `todo` and `unimplemented`, and the
# typed-error crates (net, scenario, trace) `expect_used` too.
# `unwrap_used` and `unreachable_pub` in `[workspace.lints]` are an
# advisory tier that warns in dev builds, so they are capped back to
# allow here to keep `-D warnings` from escalating it; a crate-level
# `deny` outranks the cap.
cargo clippy --workspace --all-targets -- -D warnings \
    -A unreachable-pub -A clippy::unwrap-used
# benchmark/ is a workspace of its own, outside the pass above. Clippy
# finds the root `clippy.toml` from there, and this pass checks the
# bans alone.
python3 benchmark/run.py cargo clippy --release --all-targets -- \
    -A clippy::all -D clippy::disallowed_types -D clippy::disallowed_methods

echo "== rustdoc (broken links and missing docs are errors) =="
# Same advisory-tier cap as clippy: the `[lints]` table reaches
# rustdoc for rust-group lints, so `unreachable_pub` must not escalate.
RUSTDOCFLAGS="-D warnings -A unreachable_pub" cargo doc --workspace --no-deps --quiet

echo "== doctests =="
cargo test --doc --workspace -q

echo "== tier-1: build + tests =="
# At a workspace root that is itself a package, a bare `cargo test`
# tests the root package alone; `--workspace` adds every crate's own
# unit and integration tests.
cargo build --release
cargo test --workspace -q

echo "== lossy-path goldens (ablation_loss + ablation_collisions regenerate byte for byte) =="
# Both bins write results/<name>.csv under the working directory: run
# them from a temp dir at the goldens' own settings (5 seeds, full
# horizon, whatever MOBIC_SEEDS/MOBIC_FAST say) and compare with the
# checked-in CSVs. A change to the loss models or the MAC collision
# rule fails here. Both bins run free space: the shadowed and Nakagami
# channels' bytes are pinned by tier-1's
# `tests/determinism.rs::stochastic_channels_match_pinned_digests`.
GOLDEN_DIR="$(mktemp -d)"
trap 'rm -rf "$GOLDEN_DIR"' EXIT
cargo build --release -q -p mobic-bench --bin ablation_loss --bin ablation_collisions
BIN_DIR="$PWD/target/release"
for bin in ablation_loss ablation_collisions; do
    (cd "$GOLDEN_DIR" && env -u MOBIC_FAST MOBIC_SEEDS=5 "$BIN_DIR/$bin" >/dev/null)
    cmp "results/$bin.csv" "$GOLDEN_DIR/results/$bin.csv"
done

echo "== benchmark gate (offline build, tests, fmt, lint, four-workload smoke) =="
# benchmark/ builds the library crates from this tree and calls the
# mobility and geometry APIs directly, so a change under crates/ that
# breaks the benchmark, or moves a pinned digest, fails here.
bash benchmark/check.sh

echo "== benchmark pins (full-size passes: pinned digests + 37 golden cells) =="
# check.sh runs --smoke, which skips the pinned-digest check and the
# golden check against results/fig4.json and results/baselines.json.
# One full pass per seed compares every workload's output with its pin
# (and, at seed 0, the goldens); run.py exits non-zero on a mismatch.
python3 benchmark/run.py --workload all --seed 0 --seconds 1 --trace 0
python3 benchmark/run.py --workload all --seed 1 --seconds 1 --trace 0

echo "== ledger counts (--trace 1 work counts must equal BENCH_pipeline.json's last row) =="
# Events, deliveries, losses, collisions, index refreshes, skipped
# elections and role transitions are deterministic per (workload,
# seed): a change that moves one must add a ledger row. Every hello
# runs its election, so skipped elections are 0 on every workload and
# a skip that came back would fail here. Times are not gated.
python3 scripts/check_ledger_counts.py

echo "== scaling smoke (brute vs indexed equality + speedup) =="
cargo run --release -p mobic-bench --bin bench_scaling -- --smoke

echo "== fault-plan + supervision suite =="
# The supervised-batch tests exercise the deliberate panic/delay
# fault hooks: one job panics under catch_unwind and is reported as
# RunError::Panicked while its siblings complete.
cargo test --release --test failure_injection -q
cargo test --release -p mobic-scenario sweep -q

echo "== resume smoke (interrupted sweep continues from cell files) =="
RESUME_DIR="$(mktemp -d)"
trap 'rm -rf "$GOLDEN_DIR" "$RESUME_DIR"' EXIT
cargo run --release -p mobic-cli -- sweep \
    --nodes 10 --time 30 --tx-sweep 150:200:50 --seeds 2 \
    --algorithms lcc --out "$RESUME_DIR" >/dev/null
test -f "$RESUME_DIR/cell_lcc_tx150.json"
# Second pass must skip every finished cell.
cargo run --release -p mobic-cli -- sweep \
    --nodes 10 --time 30 --tx-sweep 150:200:50 --seeds 2 \
    --algorithms lcc --out "$RESUME_DIR" --resume 2>&1 >/dev/null \
    | grep -q "resume:"
# A pass with more seeds must skip none: a 2-seed file is not a
# 3-seed cell, so every cell is recomputed.
WIDER_LOG="$(cargo run --release -q -p mobic-cli -- sweep \
    --nodes 10 --time 30 --tx-sweep 150:200:50 --seeds 3 \
    --algorithms lcc --out "$RESUME_DIR" --resume 2>&1 >/dev/null)"
if grep -q "already done" <<<"$WIDER_LOG"; then
    echo "resume skipped a cell computed with another seed count" >&2
    exit 1
fi
grep -q '"runs": 3' "$RESUME_DIR/cell_lcc_tx150.json"

echo "== checkpoint smoke (run -> kill -> resume -> byte-compare) =="
# The randomized kill/resume equivalence suite first (all five
# algorithms, seeded random kill points)…
cargo test --release --test checkpoint_equivalence -q
# …then a process-level drill: SIGKILL a checkpointing run (no
# cleanup handler — exactly the crash the snapshots exist for) and
# prove the rerun resumes and reproduces the reference bytes.
CKPT_DIR="$(mktemp -d)"
trap 'rm -rf "$GOLDEN_DIR" "$RESUME_DIR" "$CKPT_DIR"' EXIT
CKPT_ARGS=(run --nodes 80 --time 600 --algorithm mobic --seed 7 --json)
cargo build --release -q -p mobic-cli
./target/release/mobic-cli "${CKPT_ARGS[@]}" > "$CKPT_DIR/ref.json"
./target/release/mobic-cli "${CKPT_ARGS[@]}" \
    --checkpoint-dir "$CKPT_DIR/snaps" --checkpoint-every 0.001 \
    >/dev/null 2>&1 &
CKPT_PID=$!
# Kill as soon as the first snapshot lands; if the run finishes first,
# the snapshots it left behind still drive the resume below.
for _ in $(seq 1 200); do
    ls "$CKPT_DIR/snaps"/*.ckpt >/dev/null 2>&1 && break
    kill -0 "$CKPT_PID" 2>/dev/null || break
    sleep 0.05
done
kill -9 "$CKPT_PID" 2>/dev/null || true
wait "$CKPT_PID" 2>/dev/null || true
# At least one snapshot must have survived the kill intact…
ls "$CKPT_DIR/snaps"/*.ckpt >/dev/null
# …and the rerun must restore it and emit byte-identical JSON.
./target/release/mobic-cli "${CKPT_ARGS[@]}" \
    --checkpoint-dir "$CKPT_DIR/snaps" --checkpoint-every 0.001 \
    > "$CKPT_DIR/resumed.json" 2> "$CKPT_DIR/resumed.log"
grep -q "checkpoint: resuming at event" "$CKPT_DIR/resumed.log"
cmp "$CKPT_DIR/ref.json" "$CKPT_DIR/resumed.json"

echo "== sweepd service smoke (checkpointed cells under a deadline, over-budget refusal, 100% cache hit on resubmit, drain) =="
SWEEPD_DIR="$(mktemp -d)"
SWEEPD_LOG="$SWEEPD_DIR/sweepd.log"
SWEEPD_PID=""
cleanup() {
    if [ -n "$SWEEPD_PID" ]; then kill "$SWEEPD_PID" 2>/dev/null || true; fi
    rm -rf "$GOLDEN_DIR" "$RESUME_DIR" "$CKPT_DIR" "$SWEEPD_DIR"
}
trap cleanup EXIT
cargo build --release -q -p mobic-sweepd -p mobic-cli
# Ephemeral port: the announce line carries the resolved address.
# Cells checkpoint and run under a deadline at once: both go through
# the one cell path. 40 nodes for 120 s is past the 1024 events after
# which a run first checks its snapshot cadence.
./target/release/mobic-sweepd --addr 127.0.0.1:0 \
    --cache "$SWEEPD_DIR/cache" --workers 2 \
    --checkpoint-every 0.001 --deadline 60 >"$SWEEPD_LOG" &
SWEEPD_PID=$!
for _ in $(seq 1 100); do
    grep -q "listening on" "$SWEEPD_LOG" 2>/dev/null && break
    sleep 0.1
done
ADDR="$(sed -n 's/^mobic-sweepd listening on \([^ ]*\).*/\1/p' "$SWEEPD_LOG")"
test -n "$ADDR"
./target/release/mobic-cli sweep --server "$ADDR" \
    --nodes 40 --time 120 --tx-sweep 150:200:50 --seeds 2 \
    --algorithms lcc >/dev/null
# A population past the memory budget is refused before anything runs:
# the client names the budget and exits non-zero, and the service
# answers the same base with 400 before queueing it. (A queued cell
# of 2^32-1 nodes once aborted the whole service on its first
# allocation; the cache-hit resubmit and the drain below show it
# survives.) The raw POST reuses a run manifest's config echo.
if OVER="$(./target/release/mobic-cli sweep --server "$ADDR" \
    --nodes 4294967295 --time 30 --tx-sweep 150:200:50 --seeds 2 \
    --algorithms lcc 2>&1)"; then
    echo "an over-budget sweep was accepted" >&2
    exit 1
fi
grep -q "memory budget" <<<"$OVER"
./target/release/mobic-cli run --nodes 5 --time 30 \
    --trace "$SWEEPD_DIR/echo.jsonl" >/dev/null 2>&1
python3 - "$ADDR" "$SWEEPD_DIR/echo.manifest.json" <<'PY'
import http.client, json, sys
host, port = sys.argv[1].rsplit(":", 1)
base = json.load(open(sys.argv[2]))[0]["config"]
base["n_nodes"] = 4294967295
spec = {"base": base, "tx_values": [150.0], "algorithms": ["Lcc"], "seeds": 1}
conn = http.client.HTTPConnection(host, int(port), timeout=30)
conn.request("POST", "/sweep", json.dumps(spec), {"Content-Type": "application/json"})
resp = conn.getresponse()
body = resp.read().decode()
assert resp.status == 400 and "memory budget" in body, (resp.status, body)
print(f"   sweepd answered the over-budget base with {resp.status}")
PY
# The identical spec resubmitted must be answered entirely from the
# cache: two cells cached, zero queued, zero scenario runs.
./target/release/mobic-cli sweep --server "$ADDR" \
    --nodes 40 --time 120 --tx-sweep 150:200:50 --seeds 2 \
    --algorithms lcc 2>&1 >/dev/null \
    | grep -q "(2 from cache, 0 queued)"
./target/release/mobic-cli drain --server "$ADDR" 2>/dev/null
wait "$SWEEPD_PID"
SWEEPD_PID=""
# Every cell completed, so none may leave its snapshot directory.
LEFT="$(ls -A "$SWEEPD_DIR/cache/ckpt" 2>/dev/null || true)"
if [ -n "$LEFT" ]; then
    echo "completed cells left snapshot directories: $LEFT" >&2
    exit 1
fi

echo "CI OK"
