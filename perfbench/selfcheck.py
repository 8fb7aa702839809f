#!/usr/bin/env python3
"""Self-check of the benchmark at tiny size.

Run from the root of a checkout:

    python3 perfbench/selfcheck.py

Runs every workload named in BENCHMARK.json through perfbench/run.py with
--tiny, once untraced and once traced, and checks that:

- each run passes its correctness checks and prints the JSON result last;
- the untraced run emits exactly the end_to_end metrics, the traced run
  exactly the per_layer metrics, each with the unit BENCHMARK.json gives;
- every metric and workload name matches [A-Za-z0-9][A-Za-z0-9_.-]{0,63};
- perfbench/layers.json puts every per_layer metric in exactly one layer
  and maps layers only to known end-to-end metrics and workloads.

Exits 1 and lists the problems if any check fails.
"""

import json
import re
import subprocess
import sys

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def main():
    spec = json.load(open("BENCHMARK.json"))
    layers = json.load(open("perfbench/layers.json"))
    problems = []
    workloads = [w["name"] for w in spec["workloads"]]
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    for name in workloads + list(e2e) + list(per_layer):
        if not NAME.match(name):
            problems.append(f"bad name {name!r}")

    placed = [m for layer in layers["layers"] for m in layer["metrics"]]
    for name in per_layer:
        if placed.count(name) != 1:
            problems.append(f"{name} is in {placed.count(name)} layers")
    for name in set(placed) - set(per_layer):
        problems.append(f"layers.json names unknown metric {name}")
    for layer in layers["layers"]:
        for group in ("moves", "flat"):
            for metric, wls in layer[group].items():
                if metric not in e2e:
                    problems.append(f"{layer['layer']}: unknown {metric}")
                problems += [f"{layer['layer']}: unknown workload {w}"
                             for w in wls if w not in workloads]

    for workload in workloads:
        for trace, want in ((0, e2e), (1, per_layer)):
            run = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", "1", "--seconds", "1", "--trace", str(trace),
                 "--tiny"],
                capture_output=True, text=True)
            where = f"{workload} --trace {trace}"
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                problems.append(f"{where}: exit {run.returncode}\n"
                                f"{run.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not (result["correct"] and result["failed"] == 0
                    and result["attempted"] >= 1):
                problems.append(f"{where}: correctness checks failed")
            got = result["metrics"]
            for name in set(want) - set(got):
                problems.append(f"{where}: {name} missing")
            for name in set(got) - set(want):
                problems.append(f"{where}: {name} not in BENCHMARK.json")
            for name in set(want) & set(got):
                if got[name]["unit"] != want[name]:
                    problems.append(f"{where}: {name} has unit "
                                    f"{got[name]['unit']}, not {want[name]}")
                if not isinstance(got[name]["value"], (int, float)):
                    problems.append(f"{where}: {name} is not a number")
            print(f"selfcheck: {where}: {len(got)} metrics", flush=True)

    for p in problems:
        print(f"selfcheck: {p}", file=sys.stderr)
    print("selfcheck: " + ("FAILED" if problems else "ok"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
