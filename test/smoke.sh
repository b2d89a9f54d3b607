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

# Every answering engine honours --timeout, in under 1 GB of address
# space, and exits 2 within 3 s at a 1 ms deadline: proof search on a
# complete 8-node graph with its transitive closure (a cyclic program),
# FO rewriting on an acyclic program whose unfolding explodes (each
# level joins two copies of the one below).
graph=$(mktemp)
layers=$(mktemp)
trap 'rm -f "$graph" "$layers"' EXIT
for i in 1 2 3 4 5 6 7 8; do
  for j in 1 2 3 4 5 6 7 8; do
    [ "$i" = "$j" ] || echo "edge(n$i, n$j)."
  done
done >"$graph"
cp "$graph" "$layers"
printf 'path(X, Y) :- edge(X, Y).\npath(X, Z) :- edge(X, Y), path(Y, Z).\n' \
  >>"$graph"
echo 'p0(X, Y) :- edge(X, Y).' >>"$layers"
for k in 1 2 3 4 5 6; do
  echo "p$k(X, Y) :- p$((k - 1))(X, Y)."
  echo "p$k(X, Y) :- p$((k - 1))(X, Z), p$((k - 1))(Z, Y)."
done >>"$layers"
for case in "proof $graph path(n1,Y)" "rewrite $layers p6(n1,Y)"; do
  set -- $case
  (
    ulimit -v 1000000
    timeout 3 "$exe" query "$2" -e "$1" --timeout 0.001 -q "q(Y) :- $3" \
      >/dev/null 2>&1
  )
  got=$?
  if [ "$got" -ne 2 ]; then
    echo "smoke FAIL: query -e $1 --timeout 0.001 on $3 exited $got, want 2 within 3s" >&2
    status=1
  fi
done
# FO rewriting of the cyclic graph program would unfold without end:
# it is out of the engine's scope, refused at once (E033, exit 1).
out=$(timeout 3 "$exe" query "$graph" -e rewrite -q 'q(Y) :- path(n1, Y)' \
  2>/dev/null)
got=$?
case "$got $out" in
  "1 q: refused — E033 "*) ;;
  *)
    echo "smoke FAIL: query -e rewrite on the cyclic 8-node graph exited $got ($out), want 1 with E033 at once" >&2
    status=1
    ;;
esac

[ "$status" -eq 0 ] && echo "smoke: all degraded runs exited 2, the cyclic rewrite was refused"
exit $status
