#!/usr/bin/env python3
"""Run one workload at several seeds and record how much its metrics spread.

Run from the root of a checkout:

    python3 perfbench/spread.py --workload NAME --seeds 1-10 --out FILE.json
    python3 perfbench/spread.py --compare A.json B.json

The first form runs perfbench/run.py once per seed (the seconds come from
BENCHMARK.json) and writes every run's metrics plus, per metric, the median
and the spread: the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median. It exits 1 if
a run fails. The second form compares two such records of the same
workload: per metric, both spreads, the shift of the second median against
the first, and whether each stays within the metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / abs(med)


def seeds_of(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def record(args):
    spec = json.load(open("BENCHMARK.json"))
    runs = []
    for seed in seeds_of(args.seeds):
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        wall = time.monotonic() - started
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if proc.returncode != 0 or not result.get("correct"):
            print(proc.stderr[-3000:], file=sys.stderr)
            sys.exit(f"spread: {args.workload} seed {seed} failed "
                     f"(exit {proc.returncode})")
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        runs.append({"seed": seed, "wall_s": round(wall, 1),
                     "metrics": metrics})
        print(f"spread: {args.workload} seed {seed}: {wall:.1f} s", flush=True)
    names = list(runs[0]["metrics"])
    summary = {}
    for name in names:
        med, sp = spread([r["metrics"][name] for r in runs])
        summary[name] = {"median": med, "spread": round(sp, 4)}
        print(f"  {name:36s} median {med:14.6g}  spread {sp:6.3f}")
    out = {"workload": args.workload, "trace": args.trace,
           "finished": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
           "summary": summary, "runs": runs}
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)


def compare(a_path, b_path):
    spec = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    a, b = json.load(open(a_path)), json.load(open(b_path))
    print(f"{a['workload']}: {a_path} vs {b_path}")
    bad = 0
    for name, sa in a["summary"].items():
        sb = b["summary"][name]
        bound, better = bounds.get(name, (None, "lower"))
        shift = (sb["median"] - sa["median"]) / sa["median"] if sa["median"] else 0.0
        worse = shift if better == "lower" else -shift
        ok = bound is None or (worse <= bound and (
            name == "setup_s" or max(sa["spread"], sb["spread"]) <= bound))
        bad += not ok
        print(f"  {name:28s} spread {sa['spread']:6.3f} {sb['spread']:6.3f}"
              f"  shift {shift:+7.3f}  bound {bound}  {'ok' if ok else 'OVER'}")
    sys.exit(1 if bad else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    if args.compare:
        compare(*args.compare)
    elif args.workload and args.out:
        record(args)
    else:
        ap.error("need --workload and --out, or --compare A B")


if __name__ == "__main__":
    main()
