#!/usr/bin/env python3
"""Build and run the compact-routing benchmark for one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The script builds perfbench/perfbench.exe with dune into .bench_build/,
runs it with a one-domain pool and passes its output through: the last
line on stdout is the JSON result. It exits non-zero
when the build fails, a run breaks a correctness check, or a run takes
longer than the time limit. `--tiny` runs the same phases on small graphs
(used by perfbench/selfcheck.py).
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
# The run alone, after the build: a run takes under a minute, so this only
# stops one that hangs.
RUN_LIMIT_S = 150.0
children = []


def stop_children(signum, _frame):
    for child in children:
        child.kill()
        child.wait()
    sys.exit(128 + signum)


def start(cmd, **kwargs):
    child = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, **kwargs)
    children.append(child)
    return child


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="self-check size")
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a compact-routing checkout "
             "(dune-project and lib/ not found)")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")

    signal.signal(signal.SIGTERM, stop_children)
    signal.signal(signal.SIGINT, stop_children)
    os.makedirs(BUILD_DIR, exist_ok=True)
    build = start(
        [dune, "build", "--root", ".", "--build-dir",
         os.path.abspath(os.path.join(BUILD_DIR, "dune")),
         "--profile", "release",
         "./perfbench/perfbench.exe"],
        stdout=sys.stderr)
    if build.wait() != 0:
        fail("build failed", 3)

    exe = os.path.join(BUILD_DIR, "dune", "default", "perfbench",
                       "perfbench.exe")
    out = os.path.join(BUILD_DIR, "perfbench")
    os.makedirs(out, exist_ok=True)
    env = dict(os.environ)
    # One domain: on a small shared host a second domain's availability
    # swings build walls by 15-25% from run to run; with one, by under 5%.
    env["CR_DOMAINS"] = "1"
    env.pop("CR_TRACE", None)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out]
    if args.tiny:
        cmd.append("--tiny")
    proc = start(cmd, env=env)
    try:
        code = proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_LIMIT_S:.0f} s", 4)
    sys.exit(code)


if __name__ == "__main__":
    main()
