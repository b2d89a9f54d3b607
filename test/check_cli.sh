#!/bin/sh
# Exit-code conventions of `mdqa check` (0 clean / 2 warnings / 1
# errors), the one-pass multi-error report, the --json output, and the
# validation-first behavior of the other subcommands.
#
# Usage: check_cli.sh MDQA_EXE
set -u

exe="$1"

status=0

expect() {
  # $1 = label, $2 = expected exit code, rest = command
  label="$1"
  want="$2"
  shift 2
  timeout 60 "$@" >/dev/null 2>&1
  got=$?
  if [ "$got" -ne "$want" ]; then
    echo "check-cli FAIL: $label exited $got, want $want" >&2
    status=1
  fi
}

expect "check clean .mdq" 0 "$exe" check ../examples/hospital.mdq
expect "check clean .mdq" 0 "$exe" check ../examples/telecom.mdq
expect "check warnings" 2 "$exe" check corpus/nonstrict.mdq
expect "check warnings (.dl)" 2 "$exe" check corpus/undefined_pred.dl
expect "check errors" 1 "$exe" check corpus/syntax_multi.mdq
expect "check --json errors" 1 "$exe" check --json corpus/syntax_multi.mdq
expect "check missing file" 1 "$exe" check corpus/no_such_file.mdq
expect "context pre-validation" 1 "$exe" context corpus/syntax_multi.mdq
expect "chase pre-validation" 1 "$exe" chase corpus/nonground_fact.dl
expect "query pre-validation" 1 "$exe" query corpus/arity_clash.dl
expect "classify .mdq" 0 "$exe" classify ../examples/hospital.mdq
expect "classify .dl" 0 "$exe" classify corpus/egd_window.dl

# An engine out of the program's scope is refused: egd_window.dl's EGDs
# are not separable, so proof search and FO rewriting exit 1 with E033
# where the chase answers.
expect "query -e chase in scope" 0 "$exe" query corpus/egd_window.dl \
  -q 'free(I, U) :- institution_unit(I, U)'
for e in proof rewrite; do
  out=$(timeout 60 "$exe" query corpus/egd_window.dl -e "$e" \
    -q 'free(I, U) :- institution_unit(I, U)' 2>/dev/null)
  got=$?
  case "$got $out" in
    "1 free: refused — E033 "*) ;;
    *)
      echo "check-cli FAIL: query -e $e on egd_window.dl exited $got ($out), want 1 with E033" >&2
      status=1
      ;;
  esac
done

# Every engine checks consistency itself: a violated NC and an EGD
# clash are inconsistent (exit 1) under the chase, proof search and FO
# rewriting alike.
inconsistent() {
  # $1 = corpus program, $2 = a boolean query named yes over it
  for e in chase proof rewrite; do
    out=$(timeout 60 "$exe" query "corpus/$1" -e "$e" -q "$2" 2>/dev/null)
    got=$?
    case "$got $out" in
      "1 yes: inconsistent — "*) ;;
      *)
        echo "check-cli FAIL: query -e $e on $1 exited $got ($out), want 1 with inconsistent" >&2
        status=1
        ;;
    esac
  done
}
inconsistent inconsistent_nc.dl 'yes() :- p(a)'
inconsistent inconsistent_egd.dl 'yes() :- r(a, b)'

# A -q query keeps the parser's own code: an arity clash is E011 and an
# unsafe head E003, not a blanket E002 syntax error.
query_code() {
  # $1 = a -q query over egd_window.dl, $2 = the code it must be refused with
  out=$(timeout 60 "$exe" query corpus/egd_window.dl -q "$1" 2>&1)
  got=$?
  case "$got $out" in
    "1 <query>:1: error $2 "*) ;;
    *)
      echo "check-cli FAIL: query -q '$1' exited $got ($out), want 1 with $2" >&2
      status=1
      ;;
  esac
}
query_code 'q(X) :- zz(X), zz(X, Y).' E011
query_code 'q(X, Z) :- institution_unit(X, Y).' E003

# one pass reports every error: at least 2 "error E..." diagnostics
n=$(timeout 60 "$exe" check corpus/syntax_multi.mdq 2>/dev/null \
      | grep -c "error E")
if [ "$n" -lt 2 ]; then
  echo "check-cli FAIL: want >=2 error lines in one pass, got $n" >&2
  status=1
fi

# --json emits the machine-readable report
if ! timeout 60 "$exe" check --json corpus/syntax_multi.mdq 2>/dev/null \
       | grep -q '"diagnostics":\['; then
  echo "check-cli FAIL: --json did not emit a diagnostics array" >&2
  status=1
fi

[ "$status" -eq 0 ] && echo "check-cli: all exit codes as documented"
exit $status
