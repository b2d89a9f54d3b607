#!/bin/sh
# Exhaustive single-byte corruption sweep for `mdqa store fsck`, end to
# end through the CLI.  For EVERY byte offset of the snapshot, and of
# the header and first records of a journal that holds records, flip
# one bit and demand the documented contract:
#
#   - `store fsck --repair` exits 0 (repaired: a fresh store that
#     `store verify` accepts) or 1 (unrepairable, E032) — never any
#     other code, never a crash, never a hang;
#   - after a successful repair, `mdqa resume` completes the chase
#     (spot-checked on a stride: the repaired image holds real data,
#     not invented bytes);
#   - with the generation chain stripped, header damage is declared
#     unrepairable (exit 1, E032 in the JSON report) and the damaged
#     file is left byte-identical — evidence is never destroyed;
#   - read-only `store fsck --json` names the damage kind: a flipped
#     snapshot version byte is `bad-header`, and a snapshot or journal
#     cut at any length past its header is `torn-tail` for that file
#     (or, for a journal cut between records, a clean store).
#
# Usage: fsck_fuzz.sh MDQA_EXE
set -u

exe="$1"
dir=$(mktemp -d "${TMPDIR:-/tmp}/mdqa_fsck_fuzz.XXXXXX")
trap 'rm -rf "$dir"' EXIT
status=0

fail() {
  echo "fsck_fuzz FAIL: $*" >&2
  status=1
}

# xor one bit into $1 at offset $2 — a guaranteed real corruption,
# unlike overwriting with a constant that might already be there
flip() {
  b=$(od -An -tu1 -j "$2" -N1 "$1" | tr -d ' \t')
  printf "\\$(printf '%03o' $((b ^ 1)))" \
    | dd of="$1" bs=1 seek="$2" conv=notrunc 2>/dev/null
}

# A store small enough that an O(bytes) sweep of CLI invocations stays
# fast, but with every section kind (program, instance, chase state)
# and labeled nulls in play.
prog="$dir/prog.dl"
{
  i=1
  while [ "$i" -le 5 ]; do
    echo "e($i, $((i + 1)))."
    i=$((i + 1))
  done
  echo 't(X, Y) :- e(X, Y).'
  echo 't(X, Z) :- t(X, Y), e(Y, Z).'
  echo 'a(tom).'
  echo 'p(X, Y) :- a(X).'
} > "$prog"

ck="$dir/ck.snap"
jn="$ck.journal"

# interrupt the chase so the journal holds live records, then let the
# generation chain form
timeout 60 "$exe" chase "$prog" --checkpoint "$ck" --max-steps 6 \
  >/dev/null 2>&1
[ -f "$ck" ] || { fail "no snapshot written"; exit 1; }
[ -f "$ck.1" ] || { fail "no previous generation written"; exit 1; }
[ -f "$jn" ] || { fail "no journal written"; exit 1; }

cp "$ck" "$dir/snap.orig"
cp "$ck.1" "$dir/gen.orig"
cp "$jn" "$dir/jn.orig"

restore() {
  cp "$dir/snap.orig" "$ck"
  cp "$dir/gen.orig" "$ck.1"
  cp "$dir/jn.orig" "$jn"
  rm -rf "$ck.d" "$ck.2"
}

# one corrupted offset: repair, then hold the contract
sweep_one() {
  # $1 = damaged file label, $2 = offset
  timeout 30 "$exe" store fsck "$ck" --repair >/dev/null 2>&1
  got=$?
  case "$got" in
  0)
    timeout 30 "$exe" store verify "$ck" >/dev/null 2>&1 \
      || fail "$1 byte $2: repaired store rejected by verify"
    if [ $(($2 % 29)) -eq 0 ]; then
      timeout 60 "$exe" resume "$ck" >/dev/null 2>&1 \
        || fail "$1 byte $2: repaired store did not resume"
    fi
    ;;
  1) ;; # unrepairable is an acceptable, honest answer
  124) fail "$1 byte $2: fsck --repair hung" ;;
  *) fail "$1 byte $2: fsck --repair exited $got (want 0 or 1)" ;;
  esac
}

snap_size=$(wc -c < "$ck")
off=0
while [ "$off" -lt "$snap_size" ]; do
  restore
  flip "$ck" "$off"
  sweep_one snapshot "$off"
  off=$((off + 1))
done

# no clean copy anywhere: exit 1, E032 in the report, evidence intact
restore
rm -f "$ck.1" "$ck.2"
flip "$ck" 2
cp "$ck" "$dir/damaged.bin"
out=$(timeout 30 "$exe" store fsck "$ck" --repair --json 2>/dev/null)
got=$?
[ "$got" -eq 1 ] || fail "unrepairable store: fsck --repair exited $got, want 1"
case "$out" in
*E032*) ;;
*) fail "unrepairable store: no E032 in the JSON report" ;;
esac
cmp -s "$ck" "$dir/damaged.bin" \
  || fail "unrepairable store: repair modified the damaged evidence"
[ -d "$ck.d/quarantine" ] \
  && fail "unrepairable store: evidence was quarantined with no replacement"

# read-only fsck names the kind: $1 = file, $2 = kind, $3 = case
expect_kind() {
  out=$(timeout 30 "$exe" store fsck "$ck" --json 2>/dev/null)
  case "$out" in
  *"\"file\":\"$1\",\"kind\":\"$2\""*) ;;
  *) fail "$3: want $2 for $1, got $out" ;;
  esac
}

restore
flip "$ck" 8
expect_kind "$ck" bad-header "snapshot version byte flipped"

# every cut past the 16-byte snapshot header
restore
off=16
while [ "$off" -lt "$snap_size" ]; do
  head -c "$off" "$dir/snap.orig" > "$ck"
  expect_kind "$ck" torn-tail "snapshot cut to $off bytes"
  off=$((off + 1))
done

# The chase above ends with a compaction, so its journal is a bare
# header.  A journal with records is what a killed chase leaves: a long
# one, killed once its journal passes 1 KiB.  A bit flipped at every
# offset of its first 160 bytes (the 12-byte header and the first
# records) must be repaired or refused, and a cut at every length of
# its first 300 bytes past the header must read as a torn tail or a
# clean store.
restore
kp="$dir/long.dl"
{
  i=1
  while [ "$i" -le 300 ]; do
    echo "e($i, $((i + 1)))."
    i=$((i + 1))
  done
  echo 't(X, Y) :- e(X, Y).'
  echo 't(X, Z) :- t(X, Y), e(Y, Z).'
} > "$kp"
rm -f "$ck" "$ck.1" "$jn"
"$exe" chase "$kp" --checkpoint "$ck" --max-steps 100000000 \
  > /dev/null 2>&1 &
pid=$!
jn_size() { if [ -f "$jn" ]; then wc -c < "$jn"; else echo 0; fi; }
n=0
while [ "$n" -lt 3000 ] && [ "$(jn_size)" -lt 1024 ]; do
  sleep 0.01
  n=$((n + 1))
done
kill -9 "$pid" 2>/dev/null
wait "$pid" 2>/dev/null
if [ "$(jn_size)" -lt 1024 ]; then
  fail "killed chase left no journal records to sweep"
else
  cp "$ck" "$dir/snap.killed"
  cp "$jn" "$dir/jn.killed"
  off=0
  while [ "$off" -lt 160 ]; do
    cp "$dir/snap.killed" "$ck"
    cp "$dir/jn.killed" "$jn"
    rm -rf "$ck.d" "$ck.1" "$ck.2"
    flip "$jn" "$off"
    sweep_one journal "$off"
    off=$((off + 1))
  done
  cp "$dir/snap.killed" "$ck"
  rm -rf "$ck.d" "$ck.1" "$ck.2"
  head -c 300 "$dir/jn.killed" > "$dir/jn.long"
  off=13
  while [ "$off" -lt 300 ]; do
    head -c "$off" "$dir/jn.long" > "$jn"
    out=$(timeout 30 "$exe" store fsck "$ck" --json 2>/dev/null)
    case "$out" in
    *"\"file\":\"$jn\",\"kind\":\"torn-tail\""*) ;;
    *'"status":"clean"'*) ;; # cut between two records
    *) fail "journal cut to $off bytes: want torn-tail, got $out" ;;
    esac
    off=$((off + 1))
  done
fi

[ "$status" -eq 0 ] && echo "fsck_fuzz: every corruption repaired or refused"
exit $status
