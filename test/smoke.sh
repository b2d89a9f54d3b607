#!/bin/sh
# Degradation smoke test for the CLI: every example pipeline run under
# a tiny budget, and every query engine under a tiny timeout, must exit
# 2 (degraded, partial result printed) within the time limit — never
# crash, never hang, never exit 0 pretending the result is complete.
#
# Usage: smoke.sh MDQA_EXE FILE.mdq...
set -u

exe="$1"
shift

status=0

run() {
  # $1 = label, $2 = expected exit code, rest = command
  label="$1"
  want="$2"
  shift 2
  timeout 60 "$@" >/dev/null 2>&1
  got=$?
  if [ "$got" -eq 124 ]; then
    echo "smoke FAIL: $label hung (killed after 60s)" >&2
    status=1
  elif [ "$got" -ne "$want" ]; then
    echo "smoke FAIL: $label exited $got, want $want" >&2
    status=1
  fi
}

for f in "$@"; do
  # Intentionally-inconsistent examples (hospital.mdq) need --repair so
  # the budget — not the constraint violation — decides the outcome.
  # Others (telecom.mdq, whose constraint mentions a derived predicate)
  # must run without it.
  if timeout 60 "$exe" context "$f" >/dev/null 2>&1; then
    repair=""
  else
    repair="--repair"
  fi
  # sanity: an unconstrained run completes with exit 0
  run "$f unconstrained" 0 "$exe" context "$f" $repair
  run "$f --max-steps 1" 2 "$exe" context "$f" $repair --max-steps 1
  run "$f --timeout 0" 2 "$exe" context "$f" $repair --timeout 0
done

# Every answering engine honours --timeout: on a complete 8-node graph
# with its transitive closure, proof search and FO rewriting (a cyclic
# program, so neither ends on its own) must stop at a 1 ms deadline and
# exit 2 within 3 s, in under 1 GB of address space.
graph=$(mktemp)
trap 'rm -f "$graph"' EXIT
for i in 1 2 3 4 5 6 7 8; do
  for j in 1 2 3 4 5 6 7 8; do
    [ "$i" = "$j" ] || echo "edge(n$i, n$j)."
  done
done >"$graph"
printf 'path(X, Y) :- edge(X, Y).\npath(X, Z) :- edge(X, Y), path(Y, Z).\n' \
  >>"$graph"
for e in proof rewrite; do
  (
    ulimit -v 1000000
    timeout 3 "$exe" query "$graph" -e "$e" --timeout 0.001 \
      -q 'q(Y) :- path(n1, Y)' >/dev/null 2>&1
  )
  got=$?
  if [ "$got" -ne 2 ]; then
    echo "smoke FAIL: query -e $e --timeout 0.001 on the 8-node graph exited $got, want 2 within 3s" >&2
    status=1
  fi
done
# Without a deadline the rewriting of that cyclic program runs on (its
# disjunct cap bounds the disjuncts, not the joins they unfold into),
# but in bounded memory: it must still be running when killed at 3 s,
# never abort for want of memory.
(
  ulimit -v 600000
  timeout 3 "$exe" query "$graph" -e rewrite -q 'q(Y) :- path(n1, Y)' \
    >/dev/null 2>&1
)
got=$?
if [ "$got" -ne 124 ]; then
  echo "smoke FAIL: query -e rewrite without --timeout on the 8-node graph exited $got, want killed at 3s (124) in 600 MB" >&2
  status=1
fi

[ "$status" -eq 0 ] && echo "smoke: all degraded runs exited 2, the unbounded rewrite ran in bounded memory"
exit $status
