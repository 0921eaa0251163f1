#!/usr/bin/env python3
"""Build the benchmark package and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The package is built with `cargo build --release` into `$CARGO_TARGET_DIR`
(default `.bench_build`). Build output goes to stderr; stdout carries only
the benchmark's records, ending with the result line. Exits 2 without a
result line when the build fails (for instance outside a full checkout).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def output_of(cmd):
    """The trimmed stdout of `cmd`, or "unknown" when it cannot run."""
    try:
        return subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(HERE, "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    env["PERFBENCH_RUSTC"] = output_of(["rustc", "-V"])
    commit = "unknown (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")):
        commit = output_of(["git", "-C", ROOT, "rev-parse", "HEAD"])
    env["PERFBENCH_COMMIT"] = commit
    env["PERFBENCH_COMMAND"] = " ".join(["python3", "perfbench/run.py"] + sys.argv[1:])
    binary = os.path.join(target, "release", "avfi-perfbench")
    # One-time preparation in a process of its own (training the IL-CNN
    # when no earlier run cached its weights), so that neither set-up time
    # nor the measured process's peak memory includes it.
    prepare = subprocess.run([binary, "--prepare"] + sys.argv[1:], env=env, stdout=sys.stderr)
    if prepare.returncode != 0:
        return prepare.returncode
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
