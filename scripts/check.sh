#!/usr/bin/env bash
# Full local gate: build, tests, lints, formatting.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test -q --workspace

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

echo "OK: all checks passed"
