#!/bin/sh
# Golden-output battery: `mdqa check --json` on every corpus file and
# every example program, `mdqa context` stdout on every example .mdq
# and on the corpus's roll-up programs (unsorted, non-strict and
# non-homogeneous hierarchies),
# `mdqa chase` stdout on every example .dl and on the corpus's
# interleaved-facts and EGD-window programs, `mdqa query` stdout under
# the chase, rewrite and proof engines on examples/hospital.dl, the
# EGD-window program (free, bound, boolean, head-constant and null-carrying
# queries) and the two inconsistent programs (one NC, one EGD clash),
# and the stdout of every example executable under
# ../examples, must equal the committed files under golden/ byte for
# byte.
# Front-end and rendering changes that promise identical output are
# held to it.
#
# Usage: golden.sh MDQA_EXE           compare (run from test/)
#        golden.sh MDQA_EXE --update  rewrite golden/ from MDQA_EXE
set -u

exe="$1"
update="${2:-}"

status=0

check() {
  # $1 = golden file, rest = command; compares stdout only
  gold="$1"
  shift
  out=$(timeout 60 "$@" 2>/dev/null; echo x)
  out="${out%x}"
  if [ "$update" = "--update" ]; then
    printf '%s' "$out" > "$gold"
  elif ! printf '%s' "$out" | cmp -s - "$gold"; then
    echo "golden FAIL: $* differs from $gold" >&2
    printf '%s' "$out" | diff "$gold" - | head -20 >&2
    status=1
  fi
}

for f in corpus/* ../examples/*.mdq ../examples/*.dl; do
  check "golden/check/$(basename "$f").json" "$exe" check --json "$f"
done
for f in ../examples/*.mdq corpus/rollup_unsorted.mdq corpus/nonstrict.mdq \
  corpus/nonhomog.mdq; do
  check "golden/context/$(basename "$f").out" "$exe" context "$f"
done
for f in ../examples/*.dl corpus/interleaved_facts.dl corpus/egd_window.dl; do
  check "golden/chase/$(basename "$f").out" "$exe" chase "$f"
done

# one golden per engine for a program and its -q queries
query_goldens() {
  prog="$1"
  shift
  for e in chase rewrite proof; do
    check "golden/query/$(basename "$prog").$e.out" "$exe" query "$prog" \
      -e "$e" "$@"
  done
}
query_goldens ../examples/hospital.dl -q 'free(U, D, P) :- patient_unit(U, D, P)' \
  -q 'bound(D) :- patient_unit(standard, D, tom)' \
  -q 'yes() :- patient_unit(terminal, D, lou)' \
  -q 'no() :- patient_unit(terminal, sep7, lou)' \
  -q 'consts(standard, P, P) :- patient_unit(standard, D, P)' \
  -q 'nulls(W, N, S) :- shifts(W, sep5, N, S)'
query_goldens corpus/egd_window.dl -q 'free(I, U) :- institution_unit(I, U)' \
  -q 'bound(P) :- patient_unit(intensive, D, P)' \
  -q 'yes() :- staffed(h1, W, tom)'
query_goldens corpus/inconsistent_nc.dl -q 'free(X) :- q(X)' -q 'yes() :- p(a)'
query_goldens corpus/inconsistent_egd.dl -q 'free(X, Y) :- s(X, Y)' \
  -q 'yes() :- r(a, b)'

# the example executables: beside the script under dune, else in the
# build tree (for --update from the source tree after `dune build`)
ex=../examples
[ -x "$ex/quickstart.exe" ] || ex=../_build/default/examples
for e in quickstart hospital_navigation sensor_quality sales_olap \
  telecom_quality; do
  check "golden/examples/$e.out" "$ex/$e.exe"
done

[ "$status" -eq 0 ] && echo "golden: all outputs match"
exit $status
