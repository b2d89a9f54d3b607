#!/bin/sh
# Golden-output battery: `mdqa check --json` on every corpus file and
# every example program, and `mdqa context` stdout on every example
# .mdq, must equal the committed files under golden/ byte for byte.
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
for f in ../examples/*.mdq; do
  check "golden/context/$(basename "$f").out" "$exe" context "$f"
done

[ "$status" -eq 0 ] && echo "golden: all outputs match"
exit $status
