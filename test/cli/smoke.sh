#!/usr/bin/env bash
# End-to-end smoke tests for cr_cli: every user-facing command runs on a
# real (generated) graph, and the exit codes scripts rely on are pinned —
# 0 on delivery, nonzero on forced non-delivery or bad input.
set -u

CLI="$1"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
fail=0

expect() { # name wanted_exit actual_exit
  local name=$1 want=$2 got=$3
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: $name (exit $got, wanted $want)"
    fail=1
  else
    echo "ok: $name"
  fi
}

"$CLI" generate -f grid -n 36 --seed 7 -o "$tmp/g.gr" >/dev/null
expect "generate grid" 0 $?

"$CLI" route -g "$tmp/g.gr" -s tz-k2 --src 0 --dst 35 >/dev/null
expect "route delivers (exit 0)" 0 $?

"$CLI" trace -g "$tmp/g.gr" -s tz-k2 0 35 >"$tmp/trace.out"
expect "trace delivers (exit 0)" 0 $?
grep -q "delivered" "$tmp/trace.out"
expect "trace narrates the delivery" 0 $?

"$CLI" trace -g "$tmp/g.gr" -s tz-k2+res 0 35 --rate 0.05 --fault-seed 3 >/dev/null
expect "trace recovers under faults via +res (exit 0)" 0 $?

"$CLI" trace -g "$tmp/g.gr" -s tz-k2 0 35 --rate 1.0 --jsonl "$tmp/trace.jsonl" >/dev/null
expect "trace forced non-delivery (exit 1)" 1 $?
grep -q '"type":"event"' "$tmp/trace.jsonl"
expect "trace jsonl has events" 0 $?

"$CLI" stats -g "$tmp/g.gr" -s tz-k2 --pairs 100 --domains 2 \
  --jsonl "$tmp/stats.jsonl" --csv "$tmp/stats.csv" >/dev/null
expect "stats with telemetry exports (exit 0)" 0 $?
grep -q '"type":"counter"' "$tmp/stats.jsonl"
expect "stats jsonl has counters" 0 $?
grep -q '^histogram,route,' "$tmp/stats.csv"
expect "stats csv has the route histogram" 0 $?

"$CLI" throughput -g "$tmp/g.gr" -s tz-k2 --pairs 100 --domains 2 >/dev/null
expect "throughput identity check (exit 0)" 0 $?

# Snapshot pipeline: compile writes, load validates + pins identity, and
# damaged files are refused with exit 1 — never loaded.
"$CLI" compile -g "$tmp/g.gr" --schemes tz-k2,rt-3eps -o "$tmp/snaps" >/dev/null
expect "compile writes snapshots (exit 0)" 0 $?
test -f "$tmp/snaps/tz-k2.snap" -a -f "$tmp/snaps/rt-3eps.snap"
expect "compile produced the .snap files" 0 $?

"$CLI" load -g "$tmp/g.gr" --schemes tz-k2,rt-3eps -d "$tmp/snaps" --pairs 60 >"$tmp/load.out"
expect "load + identity pin (exit 0)" 0 $?
grep -q "identity VIOLATED" "$tmp/load.out"
expect "load reported no identity violation" 1 $?

"$CLI" load -g "$tmp/g.gr" --schemes tz-k2 -d "$tmp/snaps" --no-verify --pairs 20 >/dev/null
expect "load --no-verify (mmap path, exit 0)" 0 $?

printf 'x' | dd of="$tmp/snaps/tz-k2.snap" bs=1 seek=40 conv=notrunc 2>/dev/null
"$CLI" load -g "$tmp/g.gr" --schemes tz-k2 -d "$tmp/snaps" --pairs 0 >"$tmp/corrupt.out"
expect "corrupted snapshot refused (exit 1)" 1 $?
grep -q "FAILED" "$tmp/corrupt.out"
expect "corruption reported with a typed error" 0 $?

"$CLI" serve -g "$tmp/g.gr" --snapshot-dir "$tmp/snaps" \
  --schemes rt-3eps --rate 0 --queries 200 --chunk 32 >"$tmp/warm.out"
expect "serve --snapshot-dir warm-start (exit 0)" 0 $?
grep -q "warm-start from" "$tmp/warm.out"
expect "serve reported the warm-start" 0 $?

"$CLI" serve -g "$tmp/g.gr" --schemes tz-k2,rt-3eps --rate 0 --queries 400 \
  --chunk 32 --churn-every 150 --slo-p99 10000 --slo-rps 1 \
  --csv "$tmp/serve.csv" >"$tmp/serve.out"
expect "serve within SLO (exit 0)" 0 $?
grep -q "serve == evaluate_batch per segment: ok" "$tmp/serve.out"
expect "serve pins the batch-engine identity" 0 $?
grep -q '^thorup-zwick-k2,' "$tmp/serve.csv"
expect "serve csv has per-scheme rows" 0 $?

"$CLI" serve -g "$tmp/g.gr" --schemes tz-k2 --rate 0 --queries 200 \
  --slo-rps 999999999999 >/dev/null
expect "serve SLO violation (exit 1)" 1 $?

"$CLI" route -g "$tmp/g.gr" -s rt-5eps --eps=nan --src 0 --dst 1 >/dev/null 2>&1
expect "non-finite eps rejected (exit 1)" 1 $?

# Bad counts are usage errors (exit 124) whose message names the flag,
# never an exception out of the command or an empty graph on disk.
expect_usage() { # name flag command...
  local name=$1 flag=$2
  shift 2
  "$@" >/dev/null 2>"$tmp/usage.err"
  expect "$name is a usage error (exit 124)" 124 $?
  grep -q -- "option '$flag'" "$tmp/usage.err"
  expect "$name names $flag" 0 $?
}
expect_usage "stats --domains 0" --domains \
  "$CLI" stats -g "$tmp/g.gr" -s tz-k2 --domains 0
expect_usage "throughput --domains 0" --domains \
  "$CLI" throughput -g "$tmp/g.gr" -s tz-k2 --domains 0
expect_usage "serve --domains 0" --domains \
  "$CLI" serve -g "$tmp/g.gr" --schemes tz-k2 --rate 0 --queries 10 --domains 0
expect_usage "generate -n 0" -n \
  "$CLI" generate -f grid -n 0 -o "$tmp/empty.gr"
test ! -e "$tmp/empty.gr"
expect "generate -n 0 wrote no file" 0 $?

"$CLI" route -g "$tmp/g.gr" -s no-such-scheme --src 0 --dst 1 >/dev/null 2>&1
rc=$?
[ "$rc" -ne 0 ]
expect "unknown scheme rejected (nonzero exit)" 0 $?

exit $fail
