#!/bin/sh
# simd restart-chaos smoke: prove the daemon is crash-recoverable.
#
# Life 1 boots simd with persistence, completes the Figure 5 headline run,
# starts a slow job, and kills the daemon with SIGKILL mid-simulation.
# Life 2 restarts on the same state directory and must serve the completed
# result from disk byte-identical with zero re-simulation
# (service.cache.disk_hits > 0), replay the interrupted job under its
# original ID, and finish it. Life 3 flips a byte in the stored entry and
# must quarantine + transparently re-simulate. A final boot pins the
# drain-timeout-exceeded path: a SIGTERM that cannot drain in time exits
# nonzero.
#
# Every asserted body is bit-deterministic, so "recovered" means
# byte-identical, not merely plausible.
set -eu

ADDR="${SIMD_ADDR:-127.0.0.1:8653}"
URL="http://$ADDR"
# Figure 5 headline cell: 16-node NIC-PE, warmup 5, iters 200.
WANT_MEAN='"mean_us":101.133'
WANT_HASH='056277034391146d77e174f33927e4120ee09cb130e07bf93ee49aa139c04ad5'
# The interrupted job: long enough (~5 s) that SIGKILL lands mid-simulation
# and a 1 s drain cannot finish it. The length is in the warm-up, which is
# not recorded, so the trace stays that of 500 barriers.
SLOW_SPEC='{"nodes":64,"warmup":15000,"iters":500}'

workdir="$(mktemp -d)"
state="$workdir/state"
simd_pid=""
cleanup() {
    [ -n "$simd_pid" ] && kill -9 "$simd_pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

fail() {
    echo "FAIL: $*" >&2
    echo "--- simd log ---" >&2
    cat "$workdir/simd.log" >&2 || true
    exit 1
}

# boot <extra flags...>: start simd on $ADDR logging to $workdir/simd.log
# and wait for /healthz.
boot() {
    "$workdir/simd" -addr "$ADDR" "$@" >"$workdir/simd.log" 2>&1 &
    simd_pid=$!
    for i in $(seq 1 50); do
        if curl -sf "$URL/healthz" >/dev/null 2>&1; then return 0; fi
        [ "$i" = 50 ] && fail "simd never became healthy"
        sleep 0.2
    done
}

# sigterm_wait: SIGTERM the daemon and return its exit status in $status.
sigterm_wait() {
    kill -TERM "$simd_pid"
    i=0
    while kill -0 "$simd_pid" 2>/dev/null; do
        i=$((i + 1))
        [ "$i" = 300 ] && fail "simd did not exit within 60s of SIGTERM"
        sleep 0.2
    done
    set +e
    wait "$simd_pid"
    status=$?
    set -e
    simd_pid=""
}

# wait_job <id> <status-substr>: poll GET /v1/runs/<id> until the status
# field matches.
wait_job() {
    for i in $(seq 1 300); do
        curl -sf "$URL/v1/runs/$1" >"$workdir/job" 2>/dev/null || true
        if grep -q "\"status\":\"$2\"" "$workdir/job"; then return 0; fi
        sleep 0.2
    done
    fail "job $1 never reached $2; last status: $(cat "$workdir/job")"
}

# metric <name>: print the metric's value from /metrics.
metric() {
    curl -sf "$URL/metrics" | awk -v n="$1" '$1 == n { print $2 }'
}

echo "== build"
go build -o "$workdir/simd" ./cmd/simd

echo "== life 1: persist a result, then SIGKILL mid-simulation"
boot -store-dir "$state" -workers 1
cold_s="$(curl -sf -w '%{time_total}' -D "$workdir/h1" -o "$workdir/r1" \
    -X POST "$URL/v1/runs" -d '{"nodes":16}')" || fail "cold POST failed"
grep -q "$WANT_MEAN" "$workdir/r1" || fail "cold mean mismatch: $(cat "$workdir/r1")"
grep -qi '^x-cache: miss' "$workdir/h1" || fail "cold run was not a cache miss"
[ -f "$state/store/${WANT_HASH%"${WANT_HASH#??}"}/$WANT_HASH" ] \
    || fail "no store entry at the content-addressed path after the cold run"

curl -sf -X POST "$URL/v1/runs?async=1" -d "$SLOW_SPEC" >"$workdir/accept" \
    || fail "async POST failed"
slow_id="$(sed -n 's/.*"id":"\([^"]*\)".*/\1/p' "$workdir/accept")"
slow_hash="$(sed -n 's/.*"hash":"\([^"]*\)".*/\1/p' "$workdir/accept")"
[ -n "$slow_id" ] && [ -n "$slow_hash" ] || fail "async accept unparsable: $(cat "$workdir/accept")"
wait_job "$slow_id" running
kill -9 "$simd_pid"
wait "$simd_pid" 2>/dev/null || true
simd_pid=""
[ -s "$state/journal.jsonl" ] || fail "journal empty after SIGKILL — nothing to replay"

echo "== life 2: restart, serve from disk, replay the interrupted job"
boot -store-dir "$state" -workers 1
[ "$(metric service.journal.replayed)" = 1 ] \
    || fail "journal.replayed = $(metric service.journal.replayed), want 1"
# The interrupted job keeps its pre-crash ID and completes after replay.
wait_job "$slow_id" done
runs_before="$(metric service.runs)"
[ "$runs_before" = 1 ] || fail "service.runs = $runs_before after replay, want 1 (the replayed job only)"

disk_s="$(curl -sf -w '%{time_total}' -D "$workdir/h2" -o "$workdir/r2" \
    -X POST "$URL/v1/runs" -d '{"nodes":16}')" || fail "warm-from-disk POST failed"
grep -qi '^x-cache: hit' "$workdir/h2" || fail "post-restart run was not a cache hit"
cmp -s "$workdir/r1" "$workdir/r2" || fail "post-restart body differs from pre-crash body"
[ "$(metric service.cache.disk_hits)" -ge 1 ] \
    || fail "cache.disk_hits = $(metric service.cache.disk_hits), want >= 1"
[ "$(metric service.runs)" = "$runs_before" ] \
    || fail "restart re-simulated a stored result (runs $runs_before -> $(metric service.runs))"

# The replayed job's result is served by content address, byte-identical to
# a fresh submit of the same spec (which must be a pure cache hit).
curl -sf "$URL/v1/results/$slow_hash" >"$workdir/slow1" || fail "replayed result missing by hash"
curl -sf -D "$workdir/h3" -X POST "$URL/v1/runs" -d "$SLOW_SPEC" >"$workdir/slow2" \
    || fail "slow re-POST failed"
grep -qi '^x-cache: hit' "$workdir/h3" || fail "replayed job's spec re-simulated"
cmp -s "$workdir/slow1" "$workdir/slow2" || fail "replayed result not byte-identical"

ram_s="$(curl -sf -w '%{time_total}' -o /dev/null -X POST "$URL/v1/runs" -d '{"nodes":16}')" \
    || fail "warm-from-RAM POST failed"
sigterm_wait
[ "$status" = 0 ] || fail "clean drain exited $status"

echo "== life 3: corrupt the stored entry; quarantine + re-simulate"
entry="$state/store/${WANT_HASH%"${WANT_HASH#??}"}/$WANT_HASH"
[ -f "$entry" ] || fail "store entry vanished across clean restarts"
# Zero one payload byte (offset 200 is well past the ~100-byte header; the
# JSON payload contains no NUL, so this always changes the file).
dd if=/dev/zero of="$entry" bs=1 count=1 seek=200 conv=notrunc 2>/dev/null
boot -store-dir "$state" -workers 1
curl -sf -D "$workdir/h4" -o "$workdir/r4" -X POST "$URL/v1/runs" -d '{"nodes":16}' \
    || fail "post-corruption POST failed"
grep -qi '^x-cache: miss' "$workdir/h4" || fail "corrupt entry served as a hit"
cmp -s "$workdir/r1" "$workdir/r4" || fail "re-simulated body differs from the original"
[ "$(metric service.store.quarantined)" = 1 ] \
    || fail "store.quarantined = $(metric service.store.quarantined), want 1"
qcount="$(ls "$state/store/quarantine" | wc -l)"
[ "$qcount" -ge 1 ] || fail "no quarantined file kept for postmortem"
[ -f "$entry" ] || fail "re-simulation did not heal the store slot"
sigterm_wait
[ "$status" = 0 ] || fail "clean drain exited $status"

echo "== drain-timeout exceeded must exit nonzero"
boot -store-dir "$workdir/state2" -workers 1 -drain-timeout 1s
curl -sf -X POST "$URL/v1/runs?async=1" -d "$SLOW_SPEC" >"$workdir/accept2" \
    || fail "async POST failed"
slow2_id="$(sed -n 's/.*"id":"\([^"]*\)".*/\1/p' "$workdir/accept2")"
wait_job "$slow2_id" running
sigterm_wait
[ "$status" != 0 ] || fail "drain-timeout overrun exited 0"
grep -q 'drain timed out' "$workdir/simd.log" || fail "no drain-timeout message in log"

echo "latency: cold ${cold_s}s, warm-from-disk ${disk_s}s, warm-from-RAM ${ram_s}s"
echo "PASS: simd restart smoke"
