#!/bin/sh
# Telemetry through the CLI: `mdqa chase --trace` must export valid
# Chrome trace-event JSON with spans for every chase round and rule
# firing, `mdqa trace verify` must validate it (and reject garbage),
# and the structured logger must honor --log-level and --log-json.
#
# Usage: trace_cli.sh MDQA_EXE HOSPITAL_DL
set -u

exe="$1"
prog="$2"
dir=$(mktemp -d "${TMPDIR:-/tmp}/mdqa_trace.XXXXXX")
trap 'rm -rf "$dir"' EXIT

fail() {
  echo "trace_cli FAIL: $1" >&2
  shift
  for f in "$@"; do
    echo "--- $f" >&2
    cat "$f" >&2
  done
  exit 1
}

# 1. traced chase writes a trace file and still computes the result
timeout 60 "$exe" chase "$prog" --trace "$dir/t.json" > "$dir/chase.out" \
  2>"$dir/chase.err" \
  || fail "traced chase must exit 0" "$dir/chase.err"
[ -s "$dir/t.json" ] || fail "no trace file written"
grep -q "outcome: saturated" "$dir/chase.out" \
  || fail "traced chase result changed" "$dir/chase.out"

# 2. the exported trace passes the checker, with the span taxonomy the
#    chase promises: validate, chase, chase.round, rule.fire, and egd
#    (the hospital program has EGDs)
timeout 60 "$exe" trace verify "$dir/t.json" \
    --require validate --require chase.round --require rule.fire \
    --require chase --require egd \
    > "$dir/verify.out" 2>&1 \
  || fail "trace verify must accept a fresh trace" "$dir/verify.out"

# 3. a missing required span name is a verification failure (exit 1)
timeout 60 "$exe" trace verify "$dir/t.json" --require no.such.span \
  > /dev/null 2>&1
rc=$?
[ "$rc" -eq 1 ] || fail "verify --require no.such.span must exit 1, got $rc"

# 4. garbage is rejected, not crashed on
echo 'not json' > "$dir/garbage.json"
timeout 60 "$exe" trace verify "$dir/garbage.json" > /dev/null 2>&1
rc=$?
[ "$rc" -eq 1 ] || fail "verify on garbage must exit 1, got $rc"

# 5. a traced query also produces a valid trace (chase and eval spans)
timeout 60 "$exe" query "$prog" --trace "$dir/q.json" > /dev/null 2>&1 \
  || fail "traced query must exit 0"
timeout 60 "$exe" trace verify "$dir/q.json" --require eval --require chase \
  > /dev/null 2>&1 || fail "query trace must contain chase and eval spans"

# 6. --log-json emits parseable JSONL records on stderr at the chosen
#    level; --log-level error silences the info record
timeout 60 "$exe" chase "$prog" --log-json --log-level debug \
  > /dev/null 2>"$dir/log.err" || fail "chase with logging must exit 0"
if grep -qv '^{' "$dir/log.err"; then
  fail "--log-json stderr must be JSONL only" "$dir/log.err"
fi
grep -q '"level":"debug"' "$dir/log.err" \
  || fail "--log-level debug must emit debug records" "$dir/log.err"
timeout 60 "$exe" chase "$prog" --log-level error \
  > /dev/null 2>"$dir/quiet.err" || fail "quiet chase must exit 0"
[ -s "$dir/quiet.err" ] \
  && fail "--log-level error must silence info records" "$dir/quiet.err"

# 7. a profiled assessment whose chase runs out of budget still reads
#    its queries off the partial instance: exit 2, one degradation line
timeout 60 "$exe" profile assess "$prog" --max-steps 3 > /dev/null \
  2>"$dir/prof.err"
rc=$?
[ "$rc" -eq 2 ] || fail "degraded profile assess must exit 2, got $rc" \
  "$dir/prof.err"
[ "$(grep -c degraded "$dir/prof.err")" -eq 1 ] \
  || fail "degraded profile assess must report once" "$dir/prof.err"

echo "trace_cli: all checks passed"
exit 0
