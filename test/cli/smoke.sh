#!/usr/bin/env bash
# End-to-end smoke tests for cr_cli: every user-facing command runs on a
# real (generated) graph, and the exit codes scripts rely on are pinned —
# 0 on success, 1 on a runtime failure (non-delivery, a violated SLO, an
# unreadable graph, an unsupported scheme, a failed build or load), 124 on
# a bad argument.
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

# Bad values are usage errors (exit 124) whose message names the flag,
# never an exception out of the command or an empty graph on disk. One
# case per rule of the argument vocabulary at least.
expect_usage() { # name flag command...
  local name=$1 flag=$2
  shift 2
  "$@" >/dev/null 2>"$tmp/usage.err"
  expect "$name is a usage error (exit 124)" 124 $?
  grep -q -- "option '$flag'" "$tmp/usage.err"
  expect "$name names $flag" 0 $?
}
# finite, > 0
expect_usage "route --eps=nan" --eps \
  "$CLI" route -g "$tmp/g.gr" -s rt-5eps --eps=nan --src 0 --dst 1
expect_usage "route --eps 0" --eps \
  "$CLI" route -g "$tmp/g.gr" -s rt-5eps --eps 0 --src 0 --dst 1
expect_usage "serve --duration=-1" --duration \
  "$CLI" serve -g "$tmp/g.gr" --duration=-1
# finite, >= 0
expect_usage "serve --zipf nan" --zipf "$CLI" serve -g "$tmp/g.gr" --zipf nan
expect_usage "serve --rate=-5" --rate "$CLI" serve -g "$tmp/g.gr" --rate=-5
# in [0, 1]
expect_usage "trace --rate 1.5" --rate \
  "$CLI" trace -g "$tmp/g.gr" -s tz-k2 0 35 --rate 1.5
expect_usage "faults --rates 2" --rates "$CLI" faults -g "$tmp/g.gr" --rates 2
# integer >= 1
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
expect_usage "stats --pairs 0" --pairs \
  "$CLI" stats -g "$tmp/g.gr" -s tz-k2 --pairs 0
expect_usage "oracle -k 0" -k "$CLI" oracle -g "$tmp/g.gr" -k 0
expect_usage "faults --fault-seeds 0" --fault-seeds \
  "$CLI" faults -g "$tmp/g.gr" --fault-seeds 0
# integer >= 2
expect_usage "table1 -n 1" -n "$CLI" table1 -n 1
# integer >= 0
expect_usage "delta --ops=-1" --ops "$CLI" delta -g "$tmp/g.gr" --ops=-1
expect_usage "load --pairs=-1" --pairs \
  "$CLI" load -g "$tmp/g.gr" -d "$tmp/snaps" --pairs=-1
# LO,HI with 0 < LO <= HI
expect_usage "generate --weights 5,1" --weights \
  "$CLI" generate -f grid -n 9 --weights 5,1
# finite
expect_usage "delta --deadline nan" --deadline \
  "$CLI" delta -g "$tmp/g.gr" --deadline nan
# a known catalog id, named as typed
expect_usage "unknown scheme" -s \
  "$CLI" route -g "$tmp/g.gr" -s no-such-scheme --src 0 --dst 1
expect_usage "unknown scheme in a list" --schemes \
  "$CLI" serve -g "$tmp/g.gr" --schemes tz-k2,no-such-scheme --rate 0 --queries 10
# flags that only fail together
expect_usage "serve --rate 0 without --queries" --rate \
  "$CLI" serve -g "$tmp/g.gr" --rate 0
expect_usage "serve rate * duration past an int" --rate \
  "$CLI" serve -g "$tmp/g.gr" --rate 1e300
expect_usage "generate -n 2 for a cycle" -n "$CLI" generate -f cycle -n 2

# Runtime failures exit 1 with "error: <message>"; a bad flag is reported
# before the graph file is even read.
printf 'p 3 2\ne 0 1 1\nbogus\n' >"$tmp/bad.gr"
printf 'p 6 4\ne 0 1 1\ne 1 2 1\ne 3 4 1\ne 4 5 1\n' >"$tmp/split.gr"
"$CLI" generate -f grid -n 36 --seed 7 --weights 1,4 -o "$tmp/w.gr" >/dev/null
expect_runtime() { # name command...
  local name=$1
  shift
  "$@" >/dev/null 2>"$tmp/runtime.err"
  expect "$name is a runtime failure (exit 1)" 1 $?
  grep -q "^error: " "$tmp/runtime.err"
  expect "$name says why" 0 $?
}
expect_runtime "malformed graph file" \
  "$CLI" route -g "$tmp/bad.gr" -s tz-k2 --src 0 --dst 1
expect_usage "bad flag with a malformed graph file" -s \
  "$CLI" route -g "$tmp/bad.gr" -s no-such-scheme --src 0 --dst 1
expect_runtime "endpoint outside the graph" \
  "$CLI" route -g "$tmp/g.gr" -s tz-k2 --src 0 --dst 36
expect_runtime "unweighted-only scheme on a weighted graph" \
  "$CLI" route -g "$tmp/w.gr" -s rt-2eps1 --src 0 --dst 1
expect_runtime "faults on an unsupported scheme" \
  "$CLI" faults -g "$tmp/w.gr" -s rt-2eps1 --pairs 10
expect_runtime "route build failure (disconnected graph)" \
  "$CLI" route -g "$tmp/split.gr" -s rt-3eps --src 0 --dst 1
expect_runtime "serve build failure (disconnected graph)" \
  "$CLI" serve -g "$tmp/split.gr" --schemes rt-3eps --rate 0 --queries 10
expect_runtime "delta build failure (disconnected graph)" \
  "$CLI" delta -g "$tmp/split.gr" --schemes rt-3eps
expect_runtime "unwritable output path" \
  "$CLI" generate -f grid -n 9 -o "$tmp/no-such-dir/g.gr"
# A header past the int32 CSR limit is a parse error at its line, not an
# allocation of n-sized arrays.
printf 'p 2147483648 0\n' >"$tmp/huge.gr"
expect_runtime "graph header past the CSR limit" \
  "$CLI" stats -g "$tmp/huge.gr" -s tz-k2
grep -q "line 1" "$tmp/runtime.err"
expect "graph header past the CSR limit names its line" 0 $?
# An n-by-n step past the O(n^2)-memory guard (the stretch oracle of
# stats, throughput, faults, delta and serve; the full scheme's tables) is
# a runtime failure with the guard's message, not a crash.
"$CLI" generate -f glp -n 96 --seed 5 -o "$tmp/glp96.gr" >/dev/null
expect_guard() { # name command...
  local name=$1
  shift
  CR_QUADRATIC_MAX_N=50 "$@" >"$tmp/guard.out" 2>"$tmp/guard.err"
  expect "$name past the O(n^2) guard (exit 1)" 1 $?
  grep -q "exceeds the O(n^2)-memory threshold 50" "$tmp/guard.err"
  expect "$name prints the threshold message" 0 $?
  grep -q "internal error" "$tmp/guard.err"
  expect "$name is no internal error" 1 $?
}
# The oracle is computed before any scheme is built, so a refused run
# prints none of its build lines.
expect_no_build() { # name pattern
  grep -q "$2" "$tmp/guard.out"
  expect "$1 refuses before it builds" 1 $?
}
expect_guard "stats" "$CLI" stats -g "$tmp/glp96.gr" -s tz-k2
expect_no_build "stats" "^tables:"
expect_guard "throughput" "$CLI" throughput -g "$tmp/glp96.gr" -s tz-k2
expect_no_build "throughput" "knobs-on serial"
expect_guard "faults" "$CLI" faults -g "$tmp/glp96.gr" -s tz-k2
expect_guard "delta" "$CLI" delta -g "$tmp/glp96.gr" --schemes tz-k2
expect_no_build "delta" "warm catalog build"
expect_guard "serve" "$CLI" serve -g "$tmp/glp96.gr" --schemes tz-k2 \
  --rate 0 --queries 10
expect_guard "route -s full" "$CLI" route -g "$tmp/glp96.gr" -s full \
  --src 0 --dst 5
"$CLI" generate -f path -n 1 -o "$tmp/one.gr" >/dev/null
"$CLI" stats -g "$tmp/one.gr" -s tz-k2 >"$tmp/one.out"
expect "stats with no pair to route (exit 1)" 1 $?
grep -q "not checked (no pair to route)" "$tmp/one.out"
expect "stats says it checked nothing" 0 $?
grep -q "VIOLATED" "$tmp/one.out"
expect "stats does not call an unchecked guarantee violated" 1 $?
grep -q "stretch n/a (no pair delivered)" "$tmp/one.out"
expect "stats reports no stretch for an empty sample" 0 $?
grep -q "max stretch" "$tmp/one.out"
expect "stats prints no stretch figure it did not measure" 1 $?
"$CLI" faults -g "$tmp/split.gr" -s rt-3eps --pairs 10 >"$tmp/skip.out"
expect "faults reports a failed build as skipped (exit 0)" 0 $?
grep -q "skipped:" "$tmp/skip.out"
expect "faults names the skipped scheme" 0 $?

# Every subcommand's help evaluates its whole composed term (a flag
# defined twice in one command only shows up then) and lists the exit
# statuses: 124 for a bad argument, and the command's runtime codes.
for c in generate schemes route trace stats table1 throughput serve compile \
  load delta faults oracle spanner; do
  "$CLI" "$c" --help=plain >"$tmp/help.out" 2>&1
  expect "$c --help (exit 0)" 0 $?
  case $c in
  schemes) codes="124" ;;
  serve | load) codes="1 2 124" ;;
  *) codes="1 124" ;;
  esac
  for code in $codes; do
    grep -Eq "^ +$code +on " "$tmp/help.out"
    expect "$c --help lists exit status $code" 0 $?
  done
done

exit $fail
