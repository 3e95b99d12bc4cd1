#!/usr/bin/env python3
"""Build the dapplet-system benchmark from this checkout and run it.

    python3 perfbench/run.py --workload fanout16 --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. It builds perfbench/ (a Go module that
imports the enclosing repository through a replace directive) into the
build directory, then runs one workload. The benchmark prints
informational lines starting with "# " and, as its last line, one JSON
object with the keys correct, attempted, failed and metrics.

Everything the build and the run write goes under the build directory:
$CARGO_TARGET_DIR if set, else .bench_build at the checkout root. That
holds the Go build and module caches, the binary and the traced run's
span files. The exit status is the benchmark's; a failed build exits 2
without printing a result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# A run measures --seconds, plus per-trial setup, warm-up and drains; the
# harness bounds itself at --seconds + 120 s, this is the backstop.
RUN_TIMEOUT_EXTRA = 150
BUILD_TIMEOUT = 840


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def go_env(out):
    """The environment for go: every cache inside the build directory,
    no network, no toolchain switching."""
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOMODCACHE": os.path.join(out, "gomodcache"),
        "GOPATH": os.path.join(out, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(out, "config"),
        "GOENV": "off",
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    return env


def git_commit():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return ""
    return r.stdout.strip() if r.returncode == 0 else ""


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out = build_dir()
    os.makedirs(out, exist_ok=True)
    binary = os.path.join(out, "perfbench")
    env = go_env(out)
    try:
        b = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2
    if b.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2

    cmd = [binary,
           "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-commit", git_commit(),
           "-trace-dir", os.path.join(out, "trace")]
    try:
        r = subprocess.run(cmd, cwd=ROOT, timeout=args.seconds + RUN_TIMEOUT_EXTRA)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 3
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
