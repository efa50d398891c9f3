#!/usr/bin/env bash
# CLI option parity smoke: every (subcommand, flag) pair `flit` accepts
# must stay accepted, and the pairs it rejects must stay rejected.
#
# Each accepted pair runs once with a valid value on a path that runs no
# study: an unknown test for explore/workflow/blame/bisect (exit 1,
# "unknown test"), a missing request file for serve (exit 2, "cannot read
# request file"), and `--gen-count 1 --list` for gen (exit 0).  A blame
# campaign over an existing, empty --db has no cells and exits 0.  None
# may be reported as an unknown option.
#
# Usage: cli_options_smoke.sh <path-to-flit-binary>

set -u

flit=${1:?usage: cli_options_smoke.sh <flit-binary>}
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

# A results database with a header and no rows: an existing input for
# --db and --cost-profile.
db="$workdir/empty.tsv"
printf 'test\tcompilation\tspeedup\tvariability\tstatus\treason\n' >"$db"

# A valid value for every value-taking flag (absent: a switch).
declare -A value=(
  [--trace-out]="$workdir/trace.json" [--metrics-out]="$workdir/metrics.json"
  [--gen-seed]=7 [--gen-count]=1 [--gen-recipes]=fma
  [--db]="$db" [--jobs]=2 [--shards]=2 [--shard-db-dir]="$workdir/shards"
  [--steal-grain]=4 [--placement]=cost [--cost-profile]="$db"
  [--retries]=2 [--max-restarts]=1 [--stall-deadline]=1000
  [--max-bisects]=2 [--k]=1 [--digits]=8 [--max-cells]=3 [--pairs]=2
  [--state-dir]="$workdir/state" [--stream-out]="$workdir/streams"
  [--cache-budget]=1000 [--max-inflight]=2 [--checkpoint-batch]=8
  [--emit]=no-such-kernel
)

gen="--gen-seed --gen-count --gen-recipes"
tel="--trace-out --metrics-out"
sched="--jobs --shards --steal --no-steal --steal-grain"
fleet="--placement --cost-profile --max-restarts --stall-deadline
       --allow-partial --retries --keep-going --no-keep-going"
declare -A flags=(
  [explore]="$tel $gen $sched $fleet --csv --db --shard-db-dir --resume"
  [workflow]="$tel $gen $sched $fleet --max-bisects --k --digits"
  [blame]="$tel $gen $sched --db --k --digits --memo --no-memo --max-cells
           --pairs"
  [serve]="$tel $gen --jobs --shards --steal --no-steal --state-dir
           --stream-out --cache-budget --max-inflight --checkpoint-batch
           --resume --retries --keep-going --no-keep-going"
  [bisect]="$tel --k --digits"
  [gen]="$gen --describe --list --emit"
)

# The command line around the flag under test, and what the run must do.
declare -A before=(
  [explore]="explore NoSuchTest" [workflow]="workflow NoSuchTest"
  [blame]="blame NoSuchTest" [bisect]="bisect NoSuchTest g++ -O2"
  [serve]="serve $workdir/missing.jsonl" [gen]="gen"
)
declare -A after=(
  [serve]="--state-dir $workdir/state" [gen]="--gen-count 1 --list"
)
declare -A status=(
  [explore]=1 [workflow]=1 [blame]=1 [bisect]=1 [serve]=2 [gen]=0
)
declare -A marker=(
  [explore]="unknown test" [workflow]="unknown test" [blame]="unknown test"
  [bisect]="unknown test" [serve]="cannot read request file" [gen]=""
)

fail=0
run() {
  # run <expected-status> <stderr-marker> <args...>
  local want=$1 mark=$2
  shift 2
  "$flit" "$@" >"$workdir/out" 2>"$workdir/err"
  local got=$?
  if [ "$got" -ne "$want" ] ||
     { [ -n "$mark" ] && ! grep -q -- "$mark" "$workdir/err"; }; then
    echo "FAIL: flit $* exited $got (want $want, stderr '$mark'):" >&2
    cat "$workdir/err" >&2
    fail=1
  fi
}

accepted=0
for cmd in explore workflow blame bisect serve gen; do
  for flag in ${flags[$cmd]}; do
    want=${status[$cmd]} mark=${marker[$cmd]}
    if [ "$cmd" = blame ] && [ "$flag" = --db ]; then
      want=0 mark="real executions: 0"
    fi
    # shellcheck disable=SC2086  # the command line splits on purpose
    run "$want" "$mark" ${before[$cmd]} \
        "$flag" ${value[$flag]:+"${value[$flag]}"} ${after[$cmd]:-}
    if grep -q "unknown option" "$workdir/err"; then
      echo "FAIL: $cmd reports $flag as an unknown option" >&2
      fail=1
    fi
    accepted=$((accepted + 1))
  done
done
if [ "$accepted" -ne 88 ]; then
  echo "FAIL: expected 88 accepted (subcommand, flag) pairs," \
       "ran $accepted" >&2
  fail=1
fi

# Pairs that are not part of a subcommand's option set stay usage errors.
run 2 "unknown option '--memo'" explore NoSuchTest --memo
run 2 "unknown option '--placement'" blame NoSuchTest --placement cost
run 2 "unknown option '--steal-grain'" serve "$workdir/missing.jsonl" \
    --steal-grain 4
run 2 "unknown option '--jobs'" bisect NoSuchTest g++ -O2 --jobs 2
run 2 "unknown option '--shards'" gen --shards 2 --gen-count 1 --list

if [ "$fail" -ne 0 ]; then exit 1; fi
echo "PASS: $accepted accepted (subcommand, flag) pairs parse; 5 rejected" \
     "pairs stay usage errors"
