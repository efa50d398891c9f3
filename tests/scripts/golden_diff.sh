#!/usr/bin/env bash
# Golden gate: runs a reproduction binary and diffs its stdout against
# the expected file, so every number the binary prints is pinned.
#
#   golden_diff.sh <expected.txt> <binary> [args...]
#
# Fails when the binary exits nonzero or its stdout differs from the
# expected file; the unified diff names each moved line.  After a change
# that is meant to move the output, re-pin with
#   <binary> [args...] > <expected.txt>
# and check the file's diff.
set -u

expected=$1
shift
actual=$(mktemp)
trap 'rm -f "$actual"' EXIT

"$@" > "$actual"
status=$?
if [ "$status" -ne 0 ]; then
  echo "golden: $1 exited with status $status" >&2
  exit 1
fi
diff -u --label "$expected" --label "stdout of $(basename "$1")" \
  "$expected" "$actual"
