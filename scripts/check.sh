#!/usr/bin/env bash
# Full local gate: build, tests, lints, formatting.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test -q --workspace

# The simulator's exactness arguments (spatial-grid clamping, the lane
# reach-box margin) rest on f64 rounding and `as i32` cell arithmetic,
# and release code wraps on integer overflow where debug code panics;
# so does the expert's probe cull through the actor index, whose
# differential test is in avfi-agent. The NN kernels' bit-identity with
# their scalar oracles must hold with release vectorization. Run the
# three suites once more as they ship.
echo "==> cargo test --release -q -p avfi-sim -p avfi-nn -p avfi-agent"
cargo test --release -q -p avfi-sim -p avfi-nn -p avfi-agent

# perfbench/ is a workspace of its own, so the runs above never compile
# it; --locked also fails if a change would alter perfbench/Cargo.lock.
echo "==> perfbench: cargo test --release --locked"
CARGO_TARGET_DIR=.bench_build cargo test --release --offline --locked --manifest-path perfbench/Cargo.toml

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all --check

# A dangling intra-doc link fails here. Not --workspace: the vendored
# proptest stand-in has a doc warning of its own.
echo "==> cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --locked

echo "==> smoke tier (scripts/smoke.sh)"
scripts/smoke.sh

# The benchmark's own correctness checks: each executed plan against
# perfbench/digests.txt, and the traced loop (which observes every
# sensor) against the engine's runs (which compute only the sensors the
# driver reads), byte for byte.
for workload in il_camera_faults expert_dense_delay; do
  echo "==> perfbench: $workload correctness (--trace 1)"
  result=$(python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 4 --trace 1 | tail -n 1)
  python3 -c 'import json, sys
r = json.loads(sys.argv[1])
if r.get("correct") is not True or r.get("failed") != 0:
    sys.exit("perfbench %s: correct=%s failed=%s" % (sys.argv[2], r.get("correct"), r.get("failed")))' \
    "$result" "$workload"
done

# The non-test line count every change reports (ROADMAP's design aim);
# it only prints and gates nothing.
echo "==> non-test line count (scripts/loc.sh)"
scripts/loc.sh

echo "OK: all checks passed"
