#!/usr/bin/env bash
# CLI trace round trip: `vodcache gen` writes a trace file, and `vodcache run
# --trace` must replay it to the same JSON report whether the file is
# streamed (CsvSource) or loaded with --materialize (read_csv).  Then the
# session lines are reversed: --materialize re-sorts them and still gives
# that report, while the streamed run refuses the file (exit 1, "cannot
# re-sort").  Exits nonzero on the first mismatch.
#
# Usage: tools/cli_trace_roundtrip.sh <vodcache binary> <work dir>
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <vodcache binary> <work dir>" >&2
  exit 2
fi
vodcache="$1"
work="$2"
mkdir -p "$work"
trace="$work/trace.csv"
reversed="$work/reversed.csv"

run() {  # run <trace file> <json out> [extra flags...]
  local file="$1" out="$2"
  shift 2
  "$vodcache" run --trace "$file" --strategy global --threads 2 \
    --json "$out" "$@" > /dev/null 2>&1
}

"$vodcache" gen --days 3 --users 2000 "$trace" 2>/dev/null
# Reversing the file and re-sorting it restores the original order only
# when no two sessions start at the same millisecond (the sort is stable).
if [[ -n "$(grep '^session,' "$trace" | cut -d, -f2 | uniq -d)" ]]; then
  echo "generated trace has tied start times; the reversal check needs none" >&2
  exit 1
fi

run "$trace" "$work/streamed.json"
run "$trace" "$work/materialized.json" --materialize
cmp "$work/streamed.json" "$work/materialized.json"

# Header lines first, then the session lines in reverse order.
grep -v '^session,' "$trace" > "$reversed"
grep '^session,' "$trace" | tac >> "$reversed"

run "$reversed" "$work/reversed_materialized.json" --materialize
cmp "$work/streamed.json" "$work/reversed_materialized.json"

status=0
"$vodcache" run --trace "$reversed" --strategy global --threads 2 \
  --json "$work/reversed_streamed.json" 2> "$work/reversed_streamed.err" ||
  status=$?
if [[ $status -ne 1 ]]; then
  echo "streamed run of an unsorted trace exited $status, want 1" >&2
  exit 1
fi
if ! grep -q "cannot re-sort" "$work/reversed_streamed.err"; then
  echo "streamed run of an unsorted trace did not say 'cannot re-sort':" >&2
  cat "$work/reversed_streamed.err" >&2
  exit 1
fi
echo "trace round trip: streamed == materialized == materialized(reversed)"
