#!/usr/bin/env bash
# Smoke tier: run every experiment binary at --quick scale on 2 workers and
# diff the JSON each one emits against the checked-in goldens in
# results/golden/. Catches any change that silently alters experiment
# output — including nondeterminism introduced into the engine, since the
# goldens were produced by the same seeded plans.
#
# A trace tier then reruns one faulted experiment with the flight recorder
# in blackbox mode, reruns it checkpointed (--spool) on a fresh and then a
# finished checkpoint, replays every emitted trace (bit-identity check),
# and golden-diffs the triage report plus the cross-campaign failure-class
# grouping.
#
# A shrink tier delta-debugs one known-failing trace into a minimal,
# replay-verified repro and diffs the repro JSON against its golden —
# exercising the whole minimization lattice end to end.
#
# A camera tier renders the deterministic golden-image corpus through both
# camera ground passes (span + per-pixel reference), fails if they ever
# disagree, and diffs the span output bit-for-bit against the checked-in
# .avimg artifacts in results/golden/camera/.
#
# A server tier boots the avfi-server campaign daemon, drives it over TCP
# with avfi-client, and asserts the served results are byte-identical to a
# solo engine run and to the checked-in golden, then shuts it down cleanly.
#
# A store tier SIGKILLs a --spool daemon mid-plan, restarts it over the
# same spool directory, resumes the interrupted plan, and asserts the
# resumed results are byte-identical to an uninterrupted solo run.
#
# A flag tier runs every binary (found by globbing the bin sources, so new
# ones are covered automatically) with an unknown flag and requires exit
# status 2: each reads its arguments through the one strict reader.
#
# Usage: scripts/smoke.sh [--bless]
#   --bless   regenerate the goldens instead of diffing against them
#
# Goldens are reference-platform artifacts: the simulation is pure f64
# arithmetic, deterministic on one platform/toolchain but not guaranteed
# bit-identical across architectures.
set -euo pipefail
cd "$(dirname "$0")/.."

BLESS=0
[[ "${1:-}" == "--bless" ]] && BLESS=1

BINARIES=(
  fig2_mission_success
  fig4_output_delay
  ext_b_ttv
  ext_c_ml_faults
  ext_d_hw_faults
)

GOLDEN_DIR=results/golden
SMOKE_DIR=target/smoke-results
rm -rf "$SMOKE_DIR"
mkdir -p "$SMOKE_DIR"

echo "==> smoke: building bench binaries"
cargo build --release -q -p avfi-bench

fail=0
for bin in "${BINARIES[@]}"; do
  echo "==> smoke: $bin --quick --workers 2"
  AVFI_RESULTS_DIR="$SMOKE_DIR" \
    "target/release/$bin" --quick --workers 2 >"$SMOKE_DIR/$bin.stdout"
  if [[ ! -f "$SMOKE_DIR/$bin.json" ]]; then
    echo "smoke FAIL: $bin emitted no $SMOKE_DIR/$bin.json" >&2
    fail=1
    continue
  fi
  if [[ "$BLESS" == 1 ]]; then
    mkdir -p "$GOLDEN_DIR"
    cp "$SMOKE_DIR/$bin.json" "$GOLDEN_DIR/$bin.json"
  elif ! diff -u "$GOLDEN_DIR/$bin.json" "$SMOKE_DIR/$bin.json"; then
    echo "smoke FAIL: $bin output drifted from $GOLDEN_DIR/$bin.json" >&2
    echo "  (if the change is intentional, rerun: scripts/smoke.sh --bless)" >&2
    fail=1
  fi
done

# Trace tier: rerun one faulted experiment with the flight recorder in
# blackbox mode, check that tracing does not perturb the experiment JSON,
# run it checkpointed (--spool) twice — a fresh checkpoint must write the
# same JSON and trace files, a finished one the same JSON and no trace —
# replay every emitted trace (failing on any divergence), and golden-diff
# the triage report.
TRACE_BIN=ext_b_ttv
TRACE_DIR="$SMOKE_DIR/traces"
TRACED_OUT="$SMOKE_DIR/traced"
echo "==> smoke: $TRACE_BIN --quick --workers 2 --trace-level blackbox"
rm -rf "$TRACE_DIR" "$TRACED_OUT"
mkdir -p "$TRACED_OUT"
AVFI_RESULTS_DIR="$TRACED_OUT" \
  "target/release/$TRACE_BIN" --quick --workers 2 \
  --trace "$TRACE_DIR" --trace-level blackbox >"$TRACED_OUT/$TRACE_BIN.stdout"
if ! diff -u "$SMOKE_DIR/$TRACE_BIN.json" "$TRACED_OUT/$TRACE_BIN.json"; then
  echo "smoke FAIL: enabling the flight recorder changed $TRACE_BIN output" >&2
  fail=1
fi

SPOOL_TRACES="$SMOKE_DIR/spooled-traces"
SPOOL_CKPT="$SMOKE_DIR/checkpoint"
rm -rf "$SPOOL_TRACES" "$SPOOL_CKPT"
for pass in fresh finished; do
  echo "==> smoke: $TRACE_BIN --quick --workers 2 --trace-level blackbox --spool ($pass checkpoint)"
  rm -rf "$SPOOL_TRACES" "$TRACED_OUT/$TRACE_BIN.json"
  AVFI_RESULTS_DIR="$TRACED_OUT" \
    "target/release/$TRACE_BIN" --quick --workers 2 --trace "$SPOOL_TRACES" \
    --trace-level blackbox --spool "$SPOOL_CKPT" >"$TRACED_OUT/$TRACE_BIN.stdout"
  if ! diff -u "$GOLDEN_DIR/$TRACE_BIN.json" "$TRACED_OUT/$TRACE_BIN.json"; then
    echo "smoke FAIL: --spool ($pass checkpoint) changed $TRACE_BIN output" >&2
    fail=1
  fi
  if [[ "$pass" == fresh ]] && ! diff -r "$TRACE_DIR" "$SPOOL_TRACES"; then
    echo "smoke FAIL: --spool changed the traces $TRACE_BIN writes" >&2
    fail=1
  elif [[ "$pass" == finished ]] && [[ -n "$(find "$SPOOL_TRACES" -name '*.avtr' 2>/dev/null)" ]]; then
    echo "smoke FAIL: a finished checkpoint re-ran $TRACE_BIN and wrote traces" >&2
    fail=1
  fi
done

ntraces=$(find "$TRACE_DIR" -name '*.avtr' 2>/dev/null | wc -l)
echo "==> smoke: replaying $ntraces blackbox traces"
if [[ "$ntraces" == 0 ]]; then
  echo "smoke FAIL: faulted $TRACE_BIN campaign emitted no traces" >&2
  fail=1
elif ! target/release/replay "$TRACE_DIR" >"$SMOKE_DIR/replay.stdout"; then
  echo "smoke FAIL: trace replay diverged or errored" >&2
  grep -v ': MATCH ' "$SMOKE_DIR/replay.stdout" >&2 || true
  fail=1
fi

echo "==> smoke: triaging traces"
target/release/triage "$TRACE_DIR" \
  --out "$SMOKE_DIR/${TRACE_BIN}_triage.json" \
  --cross "$SMOKE_DIR/${TRACE_BIN}_cross.json" >"$SMOKE_DIR/triage.stdout" 2>&1
for artifact in triage cross; do
  if [[ "$BLESS" == 1 ]]; then
    cp "$SMOKE_DIR/${TRACE_BIN}_${artifact}.json" "$GOLDEN_DIR/${TRACE_BIN}_${artifact}.json"
  elif ! diff -u "$GOLDEN_DIR/${TRACE_BIN}_${artifact}.json" "$SMOKE_DIR/${TRACE_BIN}_${artifact}.json"; then
    echo "smoke FAIL: $artifact report drifted from $GOLDEN_DIR/${TRACE_BIN}_${artifact}.json" >&2
    echo "  (if the change is intentional, rerun: scripts/smoke.sh --bless)" >&2
    fail=1
  fi
done

# Shrink tier: delta-debug one known-failing trace into a minimal repro
# (on 2 workers — the result is worker-count invariant by construction)
# and golden-diff the repro. Also spot-check the machine-readable replay
# output on the same trace.
SHRINK_DIR="$SMOKE_DIR/minimized"
first_trace=$(find "$TRACE_DIR" -name '*.avtr' 2>/dev/null | sort | head -1)
if [[ -z "$first_trace" ]]; then
  echo "smoke FAIL: no trace available to shrink" >&2
  fail=1
else
  echo "==> smoke: replay --json $(basename "$first_trace")"
  target/release/replay --json "$first_trace" >"$SMOKE_DIR/replay.json"
  if ! grep -q '"status": "match"' "$SMOKE_DIR/replay.json"; then
    echo "smoke FAIL: replay --json did not report a match" >&2
    fail=1
  fi
  echo "==> smoke: shrinking $(basename "$first_trace")"
  if ! target/release/shrink --workers 2 --max-iterations 8 \
      --out "$SHRINK_DIR" "$first_trace" \
      >"$SMOKE_DIR/shrink.stdout" 2>"$SMOKE_DIR/shrink.stderr"; then
    echo "smoke FAIL: shrink could not minimize $first_trace" >&2
    cat "$SMOKE_DIR/shrink.stderr" >&2
    fail=1
  else
    minimal=$(find "$SHRINK_DIR" -name 'minimal-*.json' | sort | head -1)
    if [[ -z "$minimal" ]]; then
      echo "smoke FAIL: shrink emitted no minimal-*.json" >&2
      fail=1
    elif [[ "$BLESS" == 1 ]]; then
      cp "$minimal" "$GOLDEN_DIR/${TRACE_BIN}_shrink.json"
    elif ! diff -u "$GOLDEN_DIR/${TRACE_BIN}_shrink.json" "$minimal"; then
      echo "smoke FAIL: minimal repro drifted from $GOLDEN_DIR/${TRACE_BIN}_shrink.json" >&2
      echo "  (if the change is intentional, rerun: scripts/smoke.sh --bless)" >&2
      fail=1
    fi
  fi
fi

# Server tier: start the campaign daemon on an ephemeral port, submit the
# demo plan through avfi-client, and diff the JSON the daemon serves
# against both a solo-engine run of the same plan (byte-identity gate)
# and the checked-in golden. Exercises the full submit / watch / fetch /
# shutdown protocol over real TCP. First the demo plan goes in under 2^40
# water drops, whose layout would abort the daemon, and on a town of 25 m
# blocks, whose roads are too short for a mission route: the daemon must
# refuse both as invalid plans, `avfi-client solo` must refuse the
# routeless one before it runs, and the same daemon then serves the demo
# plan.
SERVER_DIR="$SMOKE_DIR/server"
ADDR_FILE="$SERVER_DIR/addr"
echo "==> smoke: building avfi-server"
cargo build --release -q -p avfi-server
mkdir -p "$SERVER_DIR"
target/release/avfi-server --addr 127.0.0.1:0 --workers 2 \
  --addr-file "$ADDR_FILE" >"$SERVER_DIR/server.stdout" 2>&1 &
SERVER_PID=$!
for _ in $(seq 1 100); do
  [[ -s "$ADDR_FILE" ]] && break
  sleep 0.1
done
if [[ ! -s "$ADDR_FILE" ]]; then
  echo "smoke FAIL: avfi-server never wrote its address file" >&2
  kill "$SERVER_PID" 2>/dev/null || true
  fail=1
else
  ADDR=$(cat "$ADDR_FILE")
  target/release/avfi-client demo-plan --out "$SERVER_DIR/plan.json"
  python3 - "$SERVER_DIR/plan.json" "$SERVER_DIR/hostile.json" "$SERVER_DIR/routeless.json" <<'PY'
import json, sys
plan = json.load(open(sys.argv[1]))
drops = {"Input": {"model": {"WaterDrop": {"drops": 2**40, "radius_frac": 0.08}},
                   "gps": None, "speed": None, "lidar": None, "trigger": "Always"}}
for study in plan["studies"]:
    for campaign in study["campaigns"]:
        campaign["fault"] = drops
json.dump(plan, open(sys.argv[2], "w"))
plan = json.load(open(sys.argv[1]))
for study in plan["studies"]:
    for campaign in study["campaigns"]:
        for scenario in campaign["scenarios"]:
            scenario["town"]["block"] = 25
json.dump(plan, open(sys.argv[3], "w"))
PY
  for refused in "hostile:submit:2^40 water drops" "routeless:submit:a routeless town" \
      "routeless:solo:a routeless town"; do
    IFS=: read -r name cmd what <<<"$refused"
    echo "==> smoke: avfi-client $cmd (demo plan, $what) must be refused"
    args=(--plan "$SERVER_DIR/$name.json")
    [[ "$cmd" == submit ]] && args+=(--addr "$ADDR") || args+=(--out "$SERVER_DIR/$name.results.json")
    if target/release/avfi-client "$cmd" "${args[@]}" \
        >"$SERVER_DIR/$name.$cmd.stdout" 2>"$SERVER_DIR/$name.$cmd.stderr"; then
      echo "smoke FAIL: avfi-client $cmd accepted a plan of $what" >&2
      fail=1
    elif ! grep -q "invalid plan" "$SERVER_DIR/$name.$cmd.stderr"; then
      echo "smoke FAIL: avfi-client $cmd failed on $what, but not as an invalid plan:" >&2
      cat "$SERVER_DIR/$name.$cmd.stderr" >&2
      fail=1
    elif [[ -e "$SERVER_DIR/$name.results.json" ]]; then
      echo "smoke FAIL: avfi-client $cmd wrote results for a refused plan" >&2
      fail=1
    fi
  done
  echo "==> smoke: avfi-client run (demo plan) against $ADDR"
  if ! target/release/avfi-client run --addr "$ADDR" --plan "$SERVER_DIR/plan.json" \
      --out "$SERVER_DIR/served.json" >"$SERVER_DIR/client.stdout"; then
    echo "smoke FAIL: avfi-client run failed against the daemon" >&2
    fail=1
  fi
  target/release/avfi-client solo --plan "$SERVER_DIR/plan.json" \
    --out "$SERVER_DIR/solo.json" >>"$SERVER_DIR/client.stdout"
  if ! diff -u "$SERVER_DIR/solo.json" "$SERVER_DIR/served.json"; then
    echo "smoke FAIL: daemon-served results differ from the solo engine run" >&2
    fail=1
  fi
  if [[ "$BLESS" == 1 ]]; then
    cp "$SERVER_DIR/served.json" "$GOLDEN_DIR/avfi_server_demo.json"
  elif ! diff -u "$GOLDEN_DIR/avfi_server_demo.json" "$SERVER_DIR/served.json"; then
    echo "smoke FAIL: served demo results drifted from $GOLDEN_DIR/avfi_server_demo.json" >&2
    echo "  (if the change is intentional, rerun: scripts/smoke.sh --bless)" >&2
    fail=1
  fi
  echo "==> smoke: avfi-client shutdown"
  if ! target/release/avfi-client shutdown --addr "$ADDR" \
      >>"$SERVER_DIR/client.stdout"; then
    echo "smoke FAIL: daemon refused the shutdown request" >&2
    fail=1
  fi
  if ! wait "$SERVER_PID"; then
    echo "smoke FAIL: avfi-server exited non-zero" >&2
    cat "$SERVER_DIR/server.stdout" >&2
    fail=1
  fi
fi

# Store tier: kill-and-resume durability, end to end. A daemon with a
# --spool directory takes an enlarged demo plan (200 runs), is SIGKILLed
# mid-plan, restarts over the same spool, resumes the interrupted plan on
# request, and must serve results byte-identical to a solo engine run of
# the same plan — no golden re-blessing, the solo run IS the reference.
# The stock demo plan then runs through the spooled daemon and is diffed
# against the existing server golden, proving journaling never changes
# served bytes.
STORE_DIR="$SMOKE_DIR/store"
SPOOL_DIR="$STORE_DIR/spool"
STORE_ADDR_FILE="$STORE_DIR/addr"
mkdir -p "$SPOOL_DIR"
echo "==> smoke: store tier (kill -9 mid-plan, restart, resume)"
target/release/avfi-client demo-plan --out "$STORE_DIR/plan.json"
sed 's/"runs_per_scenario": 1/"runs_per_scenario": 50/' \
  "$STORE_DIR/plan.json" >"$STORE_DIR/big-plan.json"
target/release/avfi-server --addr 127.0.0.1:0 --workers 2 \
  --spool "$SPOOL_DIR" --addr-file "$STORE_ADDR_FILE" \
  >"$STORE_DIR/server1.stdout" 2>&1 &
STORE_PID=$!
for _ in $(seq 1 100); do
  [[ -s "$STORE_ADDR_FILE" ]] && break
  sleep 0.1
done
if [[ ! -s "$STORE_ADDR_FILE" ]]; then
  echo "smoke FAIL: spooled avfi-server never wrote its address file" >&2
  kill "$STORE_PID" 2>/dev/null || true
  fail=1
else
  STORE_ADDR=$(cat "$STORE_ADDR_FILE")
  PLAN_ID=$(target/release/avfi-client submit --addr "$STORE_ADDR" \
    --plan "$STORE_DIR/big-plan.json" 2>>"$STORE_DIR/client.stderr")
  # Wait until at least one run is journaled, then kill the daemon hard.
  for _ in $(seq 1 200); do
    STATUS=$(target/release/avfi-client status --addr "$STORE_ADDR" \
      --plan "$PLAN_ID" 2>/dev/null || true)
    done_runs=${STATUS#* }
    done_runs=${done_runs%%/*}
    [[ "${done_runs:-0}" =~ ^[0-9]+$ ]] && [[ "$done_runs" -ge 1 ]] && break
    sleep 0.05
  done
  kill -9 "$STORE_PID"
  wait "$STORE_PID" 2>/dev/null || true
  echo "==> smoke: daemon killed at [$STATUS]; restarting over the spool"
  rm -f "$STORE_ADDR_FILE"
  target/release/avfi-server --addr 127.0.0.1:0 --workers 2 \
    --spool "$SPOOL_DIR" --addr-file "$STORE_ADDR_FILE" \
    >"$STORE_DIR/server2.stdout" 2>&1 &
  STORE_PID=$!
  for _ in $(seq 1 100); do
    [[ -s "$STORE_ADDR_FILE" ]] && break
    sleep 0.1
  done
  STORE_ADDR=$(cat "$STORE_ADDR_FILE")
  # Resume is idempotent: if the plan happened to finish before the kill,
  # the restarted daemon reloads it terminal and this just reports it.
  if ! target/release/avfi-client resume --addr "$STORE_ADDR" --plan "$PLAN_ID" \
      >>"$STORE_DIR/client.stdout" 2>>"$STORE_DIR/client.stderr"; then
    echo "smoke FAIL: avfi-client resume failed after daemon restart" >&2
    fail=1
  fi
  if ! target/release/avfi-client results --addr "$STORE_ADDR" --plan "$PLAN_ID" \
      --out "$STORE_DIR/resumed.json" >>"$STORE_DIR/client.stdout"; then
    echo "smoke FAIL: could not fetch resumed results" >&2
    fail=1
  fi
  target/release/avfi-client solo --plan "$STORE_DIR/big-plan.json" \
    --out "$STORE_DIR/solo-big.json" >>"$STORE_DIR/client.stdout"
  if ! diff -u "$STORE_DIR/solo-big.json" "$STORE_DIR/resumed.json"; then
    echo "smoke FAIL: resumed results differ from the uninterrupted solo run" >&2
    fail=1
  fi
  echo "==> smoke: stock demo plan through the spooled daemon"
  if ! target/release/avfi-client run --addr "$STORE_ADDR" \
      --plan "$STORE_DIR/plan.json" --out "$STORE_DIR/spooled-demo.json" \
      >>"$STORE_DIR/client.stdout"; then
    echo "smoke FAIL: avfi-client run failed against the spooled daemon" >&2
    fail=1
  fi
  if [[ "$BLESS" != 1 ]] && \
      ! diff -u "$GOLDEN_DIR/avfi_server_demo.json" "$STORE_DIR/spooled-demo.json"; then
    echo "smoke FAIL: spooled daemon served different demo bytes than the golden" >&2
    fail=1
  fi
  target/release/avfi-client shutdown --addr "$STORE_ADDR" \
    >>"$STORE_DIR/client.stdout" || true
  wait "$STORE_PID" 2>/dev/null || true
fi

# Density tier: one high-density campaign (60 NPCs + 60 pedestrians at
# decision_horizon 8, where cruising and walking agents sleep between
# decisions) through the engine on 2 workers, golden-diffed. Pins the
# horizon-8 trajectory bit-for-bit the same way the quick campaigns pin
# horizon 1.
DENSITY_BIN=npc_scaling
echo "==> smoke: $DENSITY_BIN --workers 2 (density tier)"
AVFI_RESULTS_DIR="$SMOKE_DIR" \
  "target/release/$DENSITY_BIN" --workers 2 >"$SMOKE_DIR/$DENSITY_BIN.stdout" 2>&1
if [[ ! -f "$SMOKE_DIR/$DENSITY_BIN.json" ]]; then
  echo "smoke FAIL: $DENSITY_BIN emitted no $SMOKE_DIR/$DENSITY_BIN.json" >&2
  fail=1
elif [[ "$BLESS" == 1 ]]; then
  cp "$SMOKE_DIR/$DENSITY_BIN.json" "$GOLDEN_DIR/$DENSITY_BIN.json"
elif ! diff -u "$GOLDEN_DIR/$DENSITY_BIN.json" "$SMOKE_DIR/$DENSITY_BIN.json"; then
  echo "smoke FAIL: $DENSITY_BIN output drifted from $GOLDEN_DIR/$DENSITY_BIN.json" >&2
  echo "  (if the change is intentional, rerun: scripts/smoke.sh --bless)" >&2
  fail=1
fi

# Adaptive tier: the Thompson-sampling fault-space search at --quick
# scale on 2 workers, golden-diffed on the full trajectory (every batch,
# every posterior). The trajectory is a pure function of the campaign
# seed and the run outcomes, so this pins the planner's arm-selection
# sequence bit-for-bit — any drift in the sampler, the fold order, or
# the engine itself shows up as a diff.
ADAPTIVE_BIN=adaptive
echo "==> smoke: $ADAPTIVE_BIN --quick --workers 2 (adaptive tier)"
AVFI_RESULTS_DIR="$SMOKE_DIR" \
  "target/release/$ADAPTIVE_BIN" --quick --workers 2 >"$SMOKE_DIR/$ADAPTIVE_BIN.stdout" 2>&1
if [[ ! -f "$SMOKE_DIR/$ADAPTIVE_BIN.json" ]]; then
  echo "smoke FAIL: $ADAPTIVE_BIN emitted no $SMOKE_DIR/$ADAPTIVE_BIN.json" >&2
  fail=1
elif [[ "$BLESS" == 1 ]]; then
  cp "$SMOKE_DIR/$ADAPTIVE_BIN.json" "$GOLDEN_DIR/adaptive_quick.json"
elif ! diff -u "$GOLDEN_DIR/adaptive_quick.json" "$SMOKE_DIR/$ADAPTIVE_BIN.json"; then
  echo "smoke FAIL: $ADAPTIVE_BIN trajectory drifted from $GOLDEN_DIR/adaptive_quick.json" >&2
  echo "  (if the change is intentional, rerun: scripts/smoke.sh --bless)" >&2
  fail=1
fi

# NN tier: the lane-batched inference kernels, end to end. Runs the
# logit golden (weights-fingerprint + bitwise logit regression) and a
# 1-worker rerun of the IL-CNN ML-fault campaign diffed against the same
# golden the 2-worker main loop used — proving the kernel swap is
# invisible end to end *and* worker-invariant.
NN_BIN=ext_c_ml_faults
NN_DIR="$SMOKE_DIR/nn"
mkdir -p "$NN_DIR"
echo "==> smoke: logit golden (avfi-nn, bitwise)"
if [[ "$BLESS" == 1 ]]; then
  AVFI_BLESS_NN=1 cargo test --release -q -p avfi-nn --test logit_golden \
    >"$NN_DIR/logit_golden.stdout" 2>&1
elif ! cargo test --release -q -p avfi-nn --test logit_golden \
    >"$NN_DIR/logit_golden.stdout" 2>&1; then
  echo "smoke FAIL: IL-CNN logit golden drifted (see $NN_DIR/logit_golden.stdout)" >&2
  tail -40 "$NN_DIR/logit_golden.stdout" >&2
  fail=1
fi
echo "==> smoke: $NN_BIN --quick --workers 1 (nn tier, worker invariance)"
AVFI_RESULTS_DIR="$NN_DIR" \
  "target/release/$NN_BIN" --quick --workers 1 >"$NN_DIR/$NN_BIN.stdout" 2>&1
if [[ ! -f "$NN_DIR/$NN_BIN.json" ]]; then
  echo "smoke FAIL: $NN_BIN (1 worker) emitted no $NN_DIR/$NN_BIN.json" >&2
  fail=1
elif ! diff -u "$GOLDEN_DIR/$NN_BIN.json" "$NN_DIR/$NN_BIN.json"; then
  echo "smoke FAIL: $NN_BIN at 1 worker drifted from $GOLDEN_DIR/$NN_BIN.json" >&2
  fail=1
fi

# Camera tier: golden-image corpus, span-vs-reference differential check
# plus bit-exact diff against the checked-in .avimg artifacts.
if [[ "$BLESS" == 1 ]]; then
  echo "==> smoke: camera_golden --bless"
  target/release/camera_golden --bless "$GOLDEN_DIR/camera"
else
  echo "==> smoke: camera_golden --check"
  if ! target/release/camera_golden --check "$GOLDEN_DIR/camera"; then
    echo "smoke FAIL: camera corpus drifted from $GOLDEN_DIR/camera" >&2
    echo "  (if the change is intentional, rerun: scripts/smoke.sh --bless)" >&2
    fail=1
  fi
fi

# Flag tier: an unknown flag must be refused (exit 2) before any work.
echo "==> smoke: every binary refuses --no-such-flag"
for src in crates/bench/src/bin/*.rs crates/server/src/bin/*.rs; do
  bin=$(basename "$src" .rs)
  status=0
  "target/release/$bin" --no-such-flag >/dev/null 2>&1 || status=$?
  if [[ "$status" != 2 ]]; then
    echo "smoke FAIL: $bin --no-such-flag exited $status, not 2" >&2
    fail=1
  fi
done

if [[ "$fail" != 0 ]]; then
  exit 1
elif [[ "$BLESS" == 1 ]]; then
  echo "OK: goldens regenerated in $GOLDEN_DIR"
else
  echo "OK: smoke outputs match goldens"
fi
