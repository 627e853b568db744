#!/usr/bin/env python3
"""Build the perfbench binary from source and run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload alerts-push --seed 1 --seconds 20 --trace 0

Every Go cache, the binary, data directories and trace files go under
.bench_build/perfbench in the repository root, so the benchmark reads and
writes nothing outside the checkout. The arguments are passed to the
binary unchanged; its exit code is this script's exit code.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(OUT, "perfbench")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 178


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(OUT, "gocache"),
        GOMODCACHE=os.path.join(OUT, "gomodcache"),
        GOPATH=os.path.join(OUT, "gopath"),
        XDG_CONFIG_HOME=os.path.join(OUT, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOTELEMETRY="off",
        CGO_ENABLED="0",
    )
    return env


def main():
    os.makedirs(OUT, exist_ok=True)
    try:
        build = subprocess.run(
            ["go", "build", "-o", BINARY, "."],
            cwd=HERE, env=go_env(), stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    try:
        run = subprocess.run(
            [BINARY] + sys.argv[1:],
            cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
