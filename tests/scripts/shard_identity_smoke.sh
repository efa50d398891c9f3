#!/usr/bin/env bash
# Sharded-explore identity smoke: the CSV of a 3-shard `flit explore`
# must be byte-identical (cmp) to the single-process run's, both on the
# static partition (--no-steal) and with one-item claims stolen across an
# affinity placement.  Every mode runs the sharded engine's one claim
# path, so a schedule-dependent byte would show up here.
#
# Usage: shard_identity_smoke.sh <path-to-flit-binary>

set -u

flit=${1:?usage: shard_identity_smoke.sh <flit-binary>}
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

"$flit" explore MFEM_ex12 --csv >"$workdir/solo.csv" 2>/dev/null || {
  echo "FAIL: the solo explore did not complete" >&2
  exit 1
}

check() {
  local name=$1
  shift
  "$flit" explore MFEM_ex12 "$@" --csv >"$workdir/$name.csv" 2>/dev/null || {
    echo "FAIL: explore $* did not complete" >&2
    exit 1
  }
  if ! cmp "$workdir/solo.csv" "$workdir/$name.csv" >&2; then
    echo "FAIL: explore $* differs from the solo run" >&2
    exit 1
  fi
}

check static --shards 3 --no-steal
check affinity --shards 3 --steal-grain 1 --placement affinity

echo "PASS: 3-shard static and stolen-affinity CSVs are byte-identical" \
     "to the solo run"
