#!/bin/sh
# Chaos harness for `mdqa serve`: kill it mid-request, break its store,
# feed it garbage, oversize and slow-loris requests, overload it, soak
# it — and demand that every reply carries a status, the store is never
# corrupted, a restart answers identically, and SIGTERM drains cleanly.
#
# A second battery targets the one serving path's own bounds: a
# failpoint-injected request crash costs exactly one E027 reply while
# the other queries complete, and a rewrite that explodes
# (corpus/layers.dl) sent without a "timeout" ends degraded at the
# server's --request-timeout, so a ping behind it is answered in time.
#
# A third battery (repl-chaos) targets hot-standby replication: a
# standby syncs to byte-identical store files, serves W050-tagged
# stale reads, exports lag metrics, survives a repl.ship failpoint,
# refuses divergent stores with E030 — and when the primary is
# SIGKILLed under a failover-client burst, promotes itself with zero
# acknowledged-reply loss.
#
# A fourth battery (scrub-chaos) targets the online scrubber: a byte
# flipped under the live server is detected exactly once, trips the
# checkpoint breaker, is repaired from the generation chain, and the
# breaker heals — queries are answered throughout; a standby that
# fails scrub re-syncs from its primary.
#
# Usage: chaos_serve.sh MDQA_EXE
set -u

exe="$1"
layers="$(dirname "$0")/corpus/layers.dl"
dir=$(mktemp -d "${TMPDIR:-/tmp}/mdqa_chaos.XXXXXX")
trap 'kill -9 "${pid:-0}" 2>/dev/null; rm -rf "$dir"' EXIT

fail() {
  echo "chaos_serve FAIL: $1" >&2
  shift
  for f in "$@"; do
    echo "--- $f" >&2
    tail -40 "$f" >&2
  done
  exit 1
}

# A program with enough derived facts that queries do real work.
prog="$dir/prog.dl"
{
  i=1
  while [ "$i" -le 60 ]; do
    echo "e($i, $((i + 1)))."
    i=$((i + 1))
  done
  echo 't(X, Y) :- e(X, Y).'
  echo 't(X, Z) :- t(X, Y), e(Y, Z).'
} > "$prog"

sock="$dir/s.sock"
store="$dir/store.snap"
q='q(X, Y) :- t(X, Y)'

start_server() {
  # shellcheck disable=SC2086
  "$exe" serve "$prog" --socket "$sock" --store "$store" \
    --checkpoint-every 5 --read-timeout 1 --max-request-bytes 2048 \
    --drain-grace 5 $EXTRA_FLAGS 2>>"$dir/server.err" &
  pid=$!
  # wait for readiness: the retrying client backs off through ENOENT /
  # connection-refused while the listener comes up
  printf '{"kind":"ping"}\n' | timeout 30 "$exe" remote --retry "$sock" \
    > /dev/null 2>&1 || fail "server never became ready" "$dir/server.err"
}
EXTRA_FLAGS=""

# ---------------------------------------------------------------- baseline
start_server
"$exe" query --remote "$sock" -q "$q" > "$dir/baseline.out" 2>/dev/null
[ -s "$dir/baseline.out" ] || fail "no baseline answers" "$dir/server.err"

# ------------------------------------------- SIGKILL mid-request, restart
# Fire requests continuously and pull the plug mid-flight.
( while :; do printf '{"kind":"query","query":"%s"}\n' "$q"; done \
  | "$exe" remote "$sock" > /dev/null 2>&1 ) &
flood=$!
sleep 0.4
kill -9 "$pid" 2>/dev/null
wait "$pid" 2>/dev/null
kill "$flood" 2>/dev/null
wait "$flood" 2>/dev/null

# the store must never be corrupt, whatever the kill interrupted
timeout 60 "$exe" store verify "$store" > "$dir/verify1.out" 2>&1
v=$?
[ "$v" -eq 0 ] || [ "$v" -eq 2 ] \
  || fail "store verify exited $v after SIGKILL" "$dir/verify1.out"

# a restart (warm-started from that store) must answer byte-identically
start_server
"$exe" query --remote "$sock" -q "$q" > "$dir/restarted.out" 2>/dev/null
cmp -s "$dir/baseline.out" "$dir/restarted.out" \
  || fail "restart answers differ from baseline" \
       "$dir/baseline.out" "$dir/restarted.out"

# ------------------------------------------------- store fault injection
# Root ignores chmod -w, so break the snapshot path itself: a directory
# where the snapshot file should be makes every rename fail.
rm -f "$store"
mkdir "$store"
i=0
while [ "$i" -lt 25 ]; do
  printf '{"kind":"query","query":"%s"}\n' "$q"
  i=$((i + 1))
done | "$exe" remote "$sock" > "$dir/faulted.out" 2>&1 \
  || fail "server dropped requests during store faults" "$dir/server.err"
n=$(grep -c '"status":"complete"' "$dir/faulted.out")
[ "$n" -eq 25 ] \
  || fail "queries must stay complete while the store fails (got $n/25)" \
       "$dir/faulted.out" "$dir/server.err"
printf '{"kind":"health"}\n' | "$exe" remote "$sock" > "$dir/health_open.out"
grep -q '"state":"open"' "$dir/health_open.out" \
  || fail "breaker must trip open after repeated checkpoint failures" \
       "$dir/health_open.out" "$dir/server.err"

# the trip must be visible on the metrics endpoint as a gauge transition
timeout 30 "$exe" metrics --remote "$sock" > "$dir/metrics_open.out" 2>&1 \
  || fail "metrics scrape must work while the breaker is open" \
       "$dir/metrics_open.out" "$dir/server.err"
grep -q '^mdqa_server_breaker_state 1$' "$dir/metrics_open.out" \
  || fail "open breaker must read as mdqa_server_breaker_state 1" \
       "$dir/metrics_open.out"

# heal the disk; after the cooldown a half-open probe must re-close it
rmdir "$store"
sleep 1.2
i=0
while [ "$i" -lt 15 ]; do
  printf '{"kind":"query","query":"%s"}\n' "$q"
  i=$((i + 1))
  sleep 0.1
done | "$exe" remote "$sock" > /dev/null 2>&1
printf '{"kind":"health"}\n' | "$exe" remote "$sock" > "$dir/health_closed.out"
grep -q '"state":"closed"' "$dir/health_closed.out" \
  || fail "breaker must close again once the disk recovers" \
       "$dir/health_closed.out" "$dir/server.err"
[ -f "$store" ] || fail "healed store must be re-snapshotted" "$dir/server.err"
timeout 30 "$exe" metrics --remote "$sock" > "$dir/metrics_closed.out" 2>&1 \
  || fail "metrics scrape must work after the breaker closes" \
       "$dir/metrics_closed.out" "$dir/server.err"
grep -q '^mdqa_server_breaker_state 0$' "$dir/metrics_closed.out" \
  || fail "healed breaker must read as mdqa_server_breaker_state 0" \
       "$dir/metrics_closed.out"
trips=$(grep '^mdqa_server_breaker_trips ' "$dir/metrics_closed.out" \
  | awk '{print $2}')
[ "${trips:-0}" -ge 1 ] \
  || fail "breaker trips gauge must record the open (got ${trips:-none})" \
       "$dir/metrics_closed.out"

# ------------------------------- malformed, oversized, slow-loris probes
# malformed: an E024 reply, and the connection stays usable
printf 'this is not json\n{"kind":"ping"}\n' | "$exe" remote "$sock" \
  > "$dir/malformed.out" 2>&1
grep -q '"code":"E024"' "$dir/malformed.out" \
  || fail "malformed request must be answered E024" "$dir/malformed.out"
grep -q '"status":"complete"' "$dir/malformed.out" \
  || fail "connection must survive a malformed request" "$dir/malformed.out"

# oversized: E025, connection closed
{
  printf '{"kind":"query","query":"'
  i=0
  while [ "$i" -lt 300 ]; do
    printf 'xxxxxxxxxx'
    i=$((i + 1))
  done
  printf '"}\n'
} | "$exe" remote "$sock" > "$dir/oversized.out" 2>&1
grep -q '"code":"E025"' "$dir/oversized.out" \
  || fail "oversized request must be answered E025" "$dir/oversized.out"

# slow-loris: dribble bytes slower than --read-timeout; the server must
# cut the connection and keep serving everyone else
printf '{"kind":"query","query":"%s"}\n' "$q" \
  | timeout 30 "$exe" remote "$sock" --slow 0.05 > "$dir/loris.out" 2>&1
printf '{"kind":"ping"}\n' | "$exe" remote "$sock" > "$dir/after_loris.out" \
  || fail "server must survive a slow-loris client" "$dir/server.err"
grep -q '"status":"complete"' "$dir/after_loris.out" \
  || fail "server must keep answering after a slow-loris cut" \
       "$dir/after_loris.out"

# ------------------------------------------------------- overload shedding
# a burst beyond the admission queue must be shed with degraded:overload,
# never queued without bound and never dropped without a reply
kill -TERM "$pid" 2>/dev/null
wait "$pid" 2>/dev/null
EXTRA_FLAGS="--max-queue 4"
start_server
EXTRA_FLAGS=""
i=0
while [ "$i" -lt 60 ]; do
  printf '{"kind":"query","query":"%s","id":%d}\n' "$q" "$i"
  i=$((i + 1))
done | "$exe" remote "$sock" --burst > "$dir/burst.out" 2>&1
replies=$(grep -c '"status"' "$dir/burst.out")
[ "$replies" -eq 60 ] \
  || fail "every burst request needs a reply (got $replies/60)" \
       "$dir/burst.out" "$dir/server.err"
grep -q '"degraded":"overload"' "$dir/burst.out" \
  || fail "a 60-deep burst against a 4-deep queue must shed" "$dir/burst.out"
grep -q '"status":"complete"' "$dir/burst.out" \
  || fail "admitted burst requests must still be answered" "$dir/burst.out"

# ------------------------------------------------------------------- soak
# 500 mixed requests: valid queries, pings, health, malformed lines, and
# a store fault injected (and healed) along the way.
soak="$dir/soak.in"
i=0
while [ "$i" -lt 500 ]; do
  case $((i % 5)) in
    0) printf '{"kind":"query","query":"%s","id":%d}\n' "$q" "$i" ;;
    1) printf '{"kind":"ping","id":%d}\n' "$i" ;;
    2) printf '{"kind":"health","id":%d}\n' "$i" ;;
    3) printf 'garbage line %d\n' "$i" ;;
    4) printf '{"kind":"query","query":"broken(","id":%d}\n' "$i" ;;
  esac
  i=$((i + 1))
done > "$soak"
( sleep 0.5; rm -f "$store"; mkdir "$store"; sleep 1; rmdir "$store" ) &
faulter=$!
timeout 120 "$exe" remote "$sock" < "$soak" > "$dir/soak.out" 2>&1 \
  || fail "soak client failed" "$dir/soak.out" "$dir/server.err"
wait "$faulter" 2>/dev/null
replies=$(grep -c '"status"' "$dir/soak.out")
[ "$replies" -eq 500 ] \
  || fail "soak: got $replies/500 replies with a status" \
       "$dir/soak.out" "$dir/server.err"
if grep -Eq 'Fatal error|Raised at|Raised by' "$dir/server.err"; then
  fail "unhandled exception in server stderr during soak" "$dir/server.err"
fi
kill -0 "$pid" 2>/dev/null || fail "server died during soak" "$dir/server.err"

# ----------------------------------------- metrics against ground truth
# This server instance answered exactly 1 readiness ping, 60 burst
# requests and 500 soak requests; the exposition renders before its own
# reply is counted, so the per-status reply totals must sum to 561, the
# shed counter must equal the overload replies the clients actually saw,
# and nothing may have crashed.
timeout 30 "$exe" metrics --remote "$sock" > "$dir/metrics_soak.out" 2>&1 \
  || fail "metrics scrape must work after the soak" \
       "$dir/metrics_soak.out" "$dir/server.err"
answered=$(grep '^mdqa_server_replies_total' "$dir/metrics_soak.out" \
  | awk '{s += $2} END {printf "%d", s}')
[ "$answered" -eq 561 ] \
  || fail "reply totals must sum to 1+60+500=561 (got $answered)" \
       "$dir/metrics_soak.out"
crashed=$(grep '^mdqa_server_crashed_total ' "$dir/metrics_soak.out" \
  | awk '{print $2}')
[ "${crashed:-0}" -eq 0 ] \
  || fail "crashed-request counter must stay 0 (got $crashed)" \
       "$dir/metrics_soak.out" "$dir/server.err"
shed=$(grep '^mdqa_server_shed_total ' "$dir/metrics_soak.out" \
  | awk '{print $2}')
overloads=$(cat "$dir/burst.out" "$dir/soak.out" \
  | grep -c '"degraded":"overload"')
[ "${shed:-0}" -eq "$overloads" ] \
  || fail "shed counter ($shed) must match overload replies ($overloads)" \
       "$dir/metrics_soak.out"

# --------------------------------------------------------- graceful drain
kill -TERM "$pid"
wait "$pid" 2>/dev/null
drain_rc=$?
{ [ "$drain_rc" -eq 0 ] || [ "$drain_rc" -eq 2 ]; } \
  || fail "drain must exit 0 or 2, got $drain_rc" "$dir/server.err"
[ ! -e "$sock" ] || fail "socket file must be removed on drain"

# the drained store must be clean and a fresh server must still agree
timeout 60 "$exe" store verify "$store" > "$dir/verify2.out" 2>&1
v=$?
[ "$v" -eq 0 ] || [ "$v" -eq 2 ] \
  || fail "store verify exited $v after drain" "$dir/verify2.out"
start_server
"$exe" query --remote "$sock" -q "$q" > "$dir/final.out" 2>/dev/null
cmp -s "$dir/baseline.out" "$dir/final.out" \
  || fail "post-chaos answers differ from baseline" \
       "$dir/baseline.out" "$dir/final.out"
kill -TERM "$pid" 2>/dev/null
wait "$pid" 2>/dev/null

# ======================================================================
# Request-bound battery.  Fresh servers per phase, no store: these
# phases target the request handler, not checkpointing.
# ======================================================================
berr="$dir/bounds.err"

# $1 = MDQA_FAILPOINTS spec ("" for none), $2 = program; the rest are
# serve flags
start_bare() {
  fpspec="$1"
  bprog="$2"
  shift 2
  MDQA_FAILPOINTS="$fpspec" "$exe" serve "$bprog" --socket "$sock" \
    --drain-grace 5 "$@" 2>>"$berr" &
  pid=$!
  printf '{"kind":"ping"}\n' | timeout 30 "$exe" remote --retry "$sock" \
    > /dev/null 2>&1 || fail "server never became ready" "$berr"
}

stop_bare() {
  kill -TERM "$pid" 2>/dev/null
  wait "$pid" 2>/dev/null
  rc=$?
  { [ "$rc" -eq 0 ] || [ "$rc" -eq 2 ]; } \
    || fail "drain must exit 0 or 2, got $rc" "$berr"
}

queries() {
  i=0
  while [ "$i" -lt "$1" ]; do
    printf '{"kind":"query","query":"%s","id":%d}\n' "$q" "$i"
    i=$((i + 1))
  done
}

# ------------------------------- crash isolation: one E027, nine answers
# The server's third query raises inside the request handler; that
# costs exactly one E027 reply, the other nine complete, and the site's
# hit counter reads one hit per query.
start_bare 'serve.request=err@3' "$prog"
queries 10 | timeout 60 "$exe" remote "$sock" > "$dir/crash.out" 2>&1
n=$(grep -c '"code":"E027"' "$dir/crash.out")
[ "$n" -eq 1 ] \
  || fail "one injected crash must cost exactly one E027 (got $n)" \
       "$dir/crash.out" "$berr"
n=$(grep -c '"status":"complete"' "$dir/crash.out")
[ "$n" -eq 9 ] \
  || fail "the other nine queries must complete (got $n/9)" \
       "$dir/crash.out" "$berr"
timeout 30 "$exe" metrics --remote "$sock" > "$dir/crash_metrics.out" 2>&1 \
  || fail "metrics scrape failed after the crash" \
       "$dir/crash_metrics.out" "$berr"
grep -q '^mdqa_failpoint_hits_total{name="serve.request"} 10$' \
  "$dir/crash_metrics.out" \
  || fail "serve.request must count one hit per query (10)" \
       "$dir/crash_metrics.out"
stop_bare

# ------------------------ default deadline: an exploding rewrite yields
# The layered program's rewriting explodes.  Sent without "timeout", it
# ends degraded:deadline at --request-timeout 2, and a ping sent behind
# it on another connection is answered within 3 s of the query.
start_bare '' "$layers" --request-timeout 2
printf '{"kind":"query","query":"q(Y) :- p6(n1, Y)","engine":"rewrite","id":1}\n' \
  | timeout 30 "$exe" remote "$sock" > "$dir/deadline.out" 2>&1 &
qpid=$!
sleep 0.2
printf '{"kind":"ping","id":2}\n' | timeout 2.8 "$exe" remote "$sock" \
  > "$dir/deadline_ping.out" 2>&1
grep -q '"status":"complete"' "$dir/deadline_ping.out" \
  || fail "a ping behind an exploding rewrite must be answered within 3 s" \
       "$dir/deadline_ping.out" "$berr"
wait "$qpid"
grep -q '"status":"degraded"' "$dir/deadline.out" \
  && grep -q '"degraded":"deadline"' "$dir/deadline.out" \
  || fail "the rewrite must end degraded at the default deadline" \
       "$dir/deadline.out" "$berr"
stop_bare

if grep -Eq 'Fatal error|Raised at|Raised by' "$berr"; then
  fail "unhandled exception in server stderr during the bounds battery" "$berr"
fi

# ======================================================================
# Replication battery (repl-chaos): a hot standby syncs byte-identically,
# serves stale-tagged reads, survives ship failpoints, refuses divergent
# stores, and — the drill — takes over with zero acknowledged-reply loss
# when the primary is SIGKILLed mid-burst.
# ======================================================================
psock="$dir/p.sock"; ssock="$dir/repl_s.sock"
pstore="$dir/p.snap"; sstore="$dir/repl_s.snap"
perr="$dir/primary.err"; serr="$dir/standby.err"
trap 'kill -9 "${pid:-0}" "${ppid:-0}" "${spid:-0}" 2>/dev/null; rm -rf "$dir"' EXIT

start_primary() {
  # $1 = MDQA_FAILPOINTS spec ("" for none)
  MDQA_FAILPOINTS="$1" "$exe" serve "$prog" --socket "$psock" \
    --store "$pstore" --checkpoint-every 5 --drain-grace 5 2>>"$perr" &
  ppid=$!
  printf '{"kind":"ping"}\n' | timeout 30 "$exe" remote --retry "$psock" \
    > /dev/null 2>&1 || fail "replication primary never became ready" "$perr"
}

start_standby() {
  "$exe" serve --socket "$ssock" --store "$sstore" --replica-of "$psock" \
    --repl-interval 0.2 --promote-after 4 --drain-grace 5 2>>"$serr" &
  spid=$!
  # readiness implies the initial sync completed: the standby only
  # listens once its store matches the primary's
  printf '{"kind":"ping"}\n' | timeout 30 "$exe" remote --retry "$ssock" \
    > /dev/null 2>&1 || fail "standby never became ready" "$serr" "$perr"
}

stop_rc() {
  kill -TERM "$1" 2>/dev/null
  wait "$1" 2>/dev/null
  rc=$?
  { [ "$rc" -eq 0 ] || [ "$rc" -eq 2 ]; } \
    || fail "replication drain must exit 0 or 2, got $rc" "$perr" "$serr"
}

# ---------------- R1: sync, byte-identity, stale reads, lag visibility
start_primary ''
"$exe" query --remote "$psock" -q "$q" > "$dir/repl_baseline.out" 2>/dev/null
[ -s "$dir/repl_baseline.out" ] || fail "no primary baseline" "$perr"
start_standby

# byte-identical store files — checked BEFORE any promotion, since a
# promoted standby rewrites its snapshot with a forced checkpoint
cmp -s "$pstore" "$sstore" \
  || fail "standby snapshot must be byte-identical to the primary's" "$serr"
if [ -f "$pstore.journal" ] && [ -s "$pstore.journal" ]; then
  cmp -s "$pstore.journal" "$sstore.journal" \
    || fail "standby journal must be byte-identical to the primary's" "$serr"
fi

# reads on the standby answer complete, tagged as stale (W050)
printf '{"kind":"query","query":"%s"}\n' "$q" \
  | timeout 30 "$exe" remote "$ssock" > "$dir/repl_stale.out" 2>&1
grep -q '"status":"complete"' "$dir/repl_stale.out" \
  || fail "standby must answer reads" "$dir/repl_stale.out" "$serr"
grep -q '"warning":"W050"' "$dir/repl_stale.out" \
  || fail "standby reads must carry the W050 stale tag" "$dir/repl_stale.out"
"$exe" query --remote "$ssock" -q "$q" > "$dir/repl_s_q.out" 2>/dev/null
cmp -s "$dir/repl_baseline.out" "$dir/repl_s_q.out" \
  || fail "standby answers differ from the primary's" \
       "$dir/repl_baseline.out" "$dir/repl_s_q.out"

# the standby is not a ship source (E031) and reports its role
printf '{"kind":"repl.fetch","what":"snapshot","offset":0,"len":64,"epoch":0}\n' \
  | timeout 30 "$exe" remote "$ssock" > "$dir/repl_fetch_s.out" 2>&1
grep -q '"code":"E031"' "$dir/repl_fetch_s.out" \
  || fail "a standby must refuse repl.fetch with E031" "$dir/repl_fetch_s.out"
printf '{"kind":"health"}\n' | timeout 30 "$exe" remote "$ssock" \
  > "$dir/repl_health_s.out" 2>&1
grep -q '"role":"standby"' "$dir/repl_health_s.out" \
  || fail "standby health must report role standby" "$dir/repl_health_s.out"

# replication lag is exported on the standby's metrics endpoint
timeout 30 "$exe" metrics --remote "$ssock" > "$dir/repl_metrics_s.out" 2>&1 \
  || fail "standby metrics scrape failed" "$dir/repl_metrics_s.out" "$serr"
grep -q '^mdqa_replication_lag_bytes ' "$dir/repl_metrics_s.out" \
  || fail "standby must export mdqa_replication_lag_bytes" \
       "$dir/repl_metrics_s.out"
grep -q '^mdqa_replication_role 1$' "$dir/repl_metrics_s.out" \
  || fail "an unpromoted standby must export role gauge 1" \
       "$dir/repl_metrics_s.out"

# -------------- R2: the drill — SIGKILL the primary under failover load
queries 80 | timeout 120 "$exe" remote --retry "$psock,$ssock" \
  > "$dir/repl_burst.out" 2>"$dir/repl_burst.err" &
burst=$!
sleep 0.4
kill -9 "$ppid" 2>/dev/null
wait "$ppid" 2>/dev/null
wait "$burst" 2>/dev/null
replies=$(grep -c '"status"' "$dir/repl_burst.out")
[ "$replies" -eq 80 ] \
  || fail "failover burst lost acknowledged replies (got $replies/80)" \
       "$dir/repl_burst.out" "$dir/repl_burst.err" "$serr"
errors=$(grep -c '"status":"error"' "$dir/repl_burst.out")
[ "$errors" -eq 0 ] \
  || fail "failover burst must not surface errors (got $errors)" \
       "$dir/repl_burst.out"

# the standby must detect the loss and promote itself
i=0
while [ "$i" -lt 100 ]; do
  printf '{"kind":"health"}\n' | timeout 10 "$exe" remote "$ssock" \
    > "$dir/repl_health_p.out" 2>/dev/null
  grep -q '"promoted":true' "$dir/repl_health_p.out" && break
  i=$((i + 1))
  sleep 0.2
done
grep -q '"promoted":true' "$dir/repl_health_p.out" \
  || fail "standby never promoted after primary loss" \
       "$dir/repl_health_p.out" "$serr"

# `mdqa promote` is idempotent on an already-promoted server
timeout 30 "$exe" promote --remote "$ssock" > "$dir/repl_promote.out" 2>&1 \
  || fail "mdqa promote must exit 0 on a promoted server" \
       "$dir/repl_promote.out" "$serr"

# promoted: answers untagged, role gauge 2, store verifies clean
printf '{"kind":"query","query":"%s"}\n' "$q" \
  | timeout 30 "$exe" remote "$ssock" > "$dir/repl_fresh.out" 2>&1
grep -q '"status":"complete"' "$dir/repl_fresh.out" \
  || fail "promoted standby must answer" "$dir/repl_fresh.out" "$serr"
if grep -q '"warning":"W050"' "$dir/repl_fresh.out"; then
  fail "a promoted standby must not tag reads stale" "$dir/repl_fresh.out"
fi
"$exe" query --remote "$ssock" -q "$q" > "$dir/repl_final.out" 2>/dev/null
cmp -s "$dir/repl_baseline.out" "$dir/repl_final.out" \
  || fail "promoted standby answers differ from the old primary's" \
       "$dir/repl_baseline.out" "$dir/repl_final.out"
timeout 30 "$exe" metrics --remote "$ssock" > "$dir/repl_metrics_p.out" 2>&1
grep -q '^mdqa_replication_role 2$' "$dir/repl_metrics_p.out" \
  || fail "a promoted standby must export role gauge 2" \
       "$dir/repl_metrics_p.out"
stop_rc "$spid"
timeout 60 "$exe" store verify "$sstore" > "$dir/repl_verify.out" 2>&1
v=$?
[ "$v" -eq 0 ] || [ "$v" -eq 2 ] \
  || fail "promoted standby store verify exited $v" "$dir/repl_verify.out"

# ---------------- R3: ship failpoint — the sync retries through E027
rm -f "$pstore" "$pstore.journal" "$sstore" "$sstore.journal"
start_primary 'repl.ship=err@1'
start_standby
timeout 30 "$exe" metrics --remote "$psock" > "$dir/repl_fp.out" 2>&1
grep -q 'mdqa_failpoint_hits_total{name="repl.ship"}' "$dir/repl_fp.out" \
  || fail "repl.ship failpoint must fire and be counted" "$dir/repl_fp.out"
"$exe" query --remote "$ssock" -q "$q" > "$dir/repl_fp_q.out" 2>/dev/null
cmp -s "$dir/repl_baseline.out" "$dir/repl_fp_q.out" \
  || fail "standby synced through the failpoint must answer the baseline" \
       "$dir/repl_baseline.out" "$dir/repl_fp_q.out"
stop_rc "$spid"
stop_rc "$ppid"

# ---------------- R4: divergence — a foreign store is refused with E030
prog2="$dir/prog2.dl"
printf 'f(1).\ng(X) :- f(X).\n' > "$prog2"
"$exe" chase "$prog2" --checkpoint "$dir/div.snap" > /dev/null 2>&1 \
  || fail "divergent checkpoint chase failed"
start_primary ''
timeout 30 "$exe" serve --socket "$dir/div.sock" --store "$dir/div.snap" \
  --replica-of "$psock" > "$dir/repl_div.out" 2>&1
drc=$?
[ "$drc" -ne 0 ] || fail "a divergent standby must refuse to start" \
  "$dir/repl_div.out"
grep -q 'E030' "$dir/repl_div.out" \
  || fail "divergence must be reported as E030" "$dir/repl_div.out"
stop_rc "$ppid"

for f in "$perr" "$serr"; do
  if grep -Eq 'Fatal error|Raised at|Raised by' "$f"; then
    fail "unhandled exception in replication battery stderr" "$f"
  fi
done

# ======================================================================
# Scrub battery (scrub-chaos): `--scrub-interval` re-verifies the store
# CRCs from the select loop.  A byte flipped under the running server
# is detected (exactly once — findings deduplicate), trips the
# checkpoint breaker, is repaired from the generation chain on the next
# scrub tick, and the breaker heals — while every query keeps being
# answered.  A standby that fails scrub re-syncs from its primary.
# ======================================================================
scsock="$dir/scrub.sock"; scstore="$dir/scrub.snap"
scerr="$dir/scrub.err"
trap 'kill -9 "${pid:-0}" "${ppid:-0}" "${spid:-0}" "${scpid:-0}" 2>/dev/null; rm -rf "$dir"' EXIT

# xor one bit into $1 at offset $2 (a guaranteed change, unlike
# overwriting with a constant)
flipb() {
  b=$(od -An -tu1 -j "$2" -N1 "$1" | tr -d ' \t')
  printf "\\$(printf '%03o' $((b ^ 1)))" \
    | dd of="$1" bs=1 seek="$2" conv=notrunc 2>/dev/null
}

scrub_metric() {
  # $1 = metric name; prints its value (0 when absent)
  timeout 30 "$exe" metrics --remote "$scsock" 2>/dev/null \
    | awk -v m="$1" '$1 == m { print $2; found = 1 } END { if (!found) print 0 }'
}

"$exe" serve "$prog" --socket "$scsock" --store "$scstore" \
  --checkpoint-every 5 --scrub-interval 0.2 --drain-grace 5 2>>"$scerr" &
scpid=$!
printf '{"kind":"ping"}\n' | timeout 30 "$exe" remote --retry "$scsock" \
  > /dev/null 2>&1 || fail "scrub server never became ready" "$scerr"
"$exe" query --remote "$scsock" -q "$q" > "$dir/scrub_baseline.out" 2>/dev/null
[ -s "$dir/scrub_baseline.out" ] || fail "no scrub baseline" "$scerr"

# force a periodic checkpoint so the generation chain exists to salvage
# from (rotation needs a second snapshot write)
i=0
while [ "$i" -lt 6 ]; do
  printf '{"kind":"query","query":"%s"}\n' "$q"
  i=$((i + 1))
done | timeout 30 "$exe" remote "$scsock" > /dev/null 2>&1
[ -f "$scstore.1" ] || fail "no generation after periodic checkpoints" "$scerr"

# S1: a clean store scrubs quietly; progress and the generation chain
# are visible as metrics
sleep 1
[ "$(scrub_metric mdqa_store_scrub_bytes_total)" -gt 0 ] \
  || fail "scrubber reported no bytes scrubbed on a clean store" "$scerr"
[ "$(scrub_metric mdqa_store_scrub_errors_total)" -eq 0 ] \
  || fail "scrubber found errors in a clean store" "$scerr"
[ "$(scrub_metric mdqa_store_generation)" -ge 1 ] \
  || fail "mdqa_store_generation gauge must count the chain" "$scerr"

# S2: flip one byte under the live server: detected exactly once
size=$(wc -c < "$scstore")
flipb "$scstore" $((size - 3))
i=0
while [ "$(scrub_metric mdqa_store_scrub_errors_total)" -eq 0 ]; do
  i=$((i + 1))
  [ "$i" -le 50 ] || fail "scrub never detected the flipped byte" "$scerr"
  sleep 0.2
done

# the finding trips the checkpoint breaker (gauge transition 0 -> 1)
timeout 30 "$exe" metrics --remote "$scsock" > "$dir/scrub_open.out" 2>&1
grep -q '^mdqa_server_breaker_state 1$' "$dir/scrub_open.out" \
  || fail "scrub finding must trip the breaker open" \
       "$dir/scrub_open.out" "$scerr"

# ... while queries keep being answered, byte-identically
"$exe" query --remote "$scsock" -q "$q" > "$dir/scrub_during.out" 2>/dev/null
cmp -s "$dir/scrub_baseline.out" "$dir/scrub_during.out" \
  || fail "answers changed while the store was damaged" \
       "$dir/scrub_baseline.out" "$dir/scrub_during.out"

# S3: the one-shot repair runs on the next tick and the walk restarts
i=0
while [ "$(scrub_metric mdqa_store_scrub_repairs_total)" -eq 0 ]; do
  i=$((i + 1))
  [ "$i" -le 50 ] || fail "scrub never attempted the one-shot repair" "$scerr"
  sleep 0.2
done
[ -d "$scstore.d/quarantine" ] \
  || fail "scrub repair left no quarantined evidence" "$scerr"

# the breaker heals: checkpoints start succeeding again once the
# cooldown lets a half-open probe through
i=0
while :; do
  j=0
  while [ "$j" -lt 5 ]; do
    printf '{"kind":"query","query":"%s"}\n' "$q"
    j=$((j + 1))
  done | timeout 30 "$exe" remote "$scsock" > /dev/null 2>&1
  printf '{"kind":"health"}\n' | timeout 30 "$exe" remote "$scsock" \
    > "$dir/scrub_health.out" 2>&1
  grep -q '"state":"closed"' "$dir/scrub_health.out" && break
  i=$((i + 1))
  [ "$i" -le 40 ] || fail "breaker never healed after the scrub repair" \
    "$dir/scrub_health.out" "$scerr"
  sleep 0.5
done

# exactly one injected fault => exactly one counted error, even after
# many more scrub cycles (findings deduplicate per offset)
sleep 1
[ "$(scrub_metric mdqa_store_scrub_errors_total)" -eq 1 ] \
  || fail "scrub error counter must reflect exactly the injected faults" \
       "$scerr"

kill -TERM "$scpid" 2>/dev/null
wait "$scpid" 2>/dev/null
rc=$?
{ [ "$rc" -eq 0 ] || [ "$rc" -eq 2 ]; } \
  || fail "scrub server drain must exit 0 or 2, got $rc" "$scerr"
timeout 60 "$exe" store verify "$scstore" > "$dir/scrub_verify.out" 2>&1 \
  || fail "store must verify clean after the scrub battery" \
       "$dir/scrub_verify.out" "$scerr"

# S4: a standby that fails scrub re-syncs from its primary
rm -f "$pstore" "$pstore.journal" "$sstore" "$sstore.journal"
start_primary ''
"$exe" serve --socket "$ssock" --store "$sstore" --replica-of "$psock" \
  --repl-interval 0.2 --promote-after 1000 --scrub-interval 0.2 \
  --drain-grace 5 2>>"$serr" &
spid=$!
printf '{"kind":"ping"}\n' | timeout 30 "$exe" remote --retry "$ssock" \
  > /dev/null 2>&1 || fail "scrubbing standby never became ready" "$serr"
size=$(wc -c < "$sstore")
flipb "$sstore" $((size - 3))
i=0
while ! cmp -s "$pstore" "$sstore"; do
  i=$((i + 1))
  [ "$i" -le 100 ] || fail "standby never re-synced after failing scrub" \
    "$serr" "$perr"
  sleep 0.2
done
"$exe" query --remote "$ssock" -q "$q" > "$dir/scrub_standby.out" 2>/dev/null
cmp -s "$dir/repl_baseline.out" "$dir/scrub_standby.out" \
  || fail "re-synced standby answers differ from the primary's" \
       "$dir/repl_baseline.out" "$dir/scrub_standby.out"
stop_rc "$spid"
stop_rc "$ppid"

if grep -Eq 'Fatal error|Raised at|Raised by' "$scerr"; then
  fail "unhandled exception in scrub battery stderr" "$scerr"
fi

echo "chaos_serve: survived SIGKILL, store faults, garbage, slow-loris, overload, a 500-request soak, a request-bound battery (crash isolation/default deadline), a replication battery (sync/stale-reads/failover-promote/failpoints/divergence), and a scrub battery (detect/trip/repair/heal, standby re-sync)"
exit 0
