#!/usr/bin/env python3
"""Builds and runs the ecosched end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds `ecosched-serve` (root workspace) and the `perfbench` package
(this directory) in release mode into $CARGO_TARGET_DIR (default
`.bench_build`), then runs one workload. The benchmark's human-readable
lines come first on stdout; the last line is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`. Build output goes to
stderr. Exits non-zero, without a result line, when the sources are
missing, a build fails, a run fails or an output check fails.

Workloads: engine-calm, engine-churn, serve-steady-tcp, serve-burst-unix.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["engine-calm", "engine-churn", "serve-steady-tcp", "serve-burst-unix"]
RUN_TIMEOUT_S = 170


def build(env):
    steps = [
        ["cargo", "build", "--release", "--offline", "-q",
         "-p", "ecosched-service", "--bin", "ecosched-serve"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    for needed in ("Cargo.toml", "crates", "vendor"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"perfbench: {needed} is missing next to perfbench/; "
                  "run from a full checkout of the repository", file=sys.stderr)
            return 2

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                             os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target, CARGO_NET_OFFLINE="true")
    if not build(env):
        return 1

    release = os.path.join(target, "release")
    # Relative to ROOT, to keep unix socket paths short.
    work = os.path.relpath(os.path.join(target, "perfbench-work"), ROOT)
    cmd = [
        os.path.join(release, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--serve-bin", os.path.join(release, "ecosched-serve"),
        "--work-dir", work,
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
