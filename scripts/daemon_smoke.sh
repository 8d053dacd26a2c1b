#!/usr/bin/env bash
# Smoke-test the divotd daemon from the outside, the way an operator would:
# build it, point it at a three-bus fleet spec, scrape /metrics twice to see
# the round counters advance, drive the remote attestation API through
# divotctl (clean fleet first, then a fleet with a scripted interposer that
# must be caught over the wire), then SIGTERM it and require a clean exit.
# Phase 3 runs a 1000-bus fleet on the sharded scheduler and warm-restarts it
# from its state directory; phase 4 federates four daemons behind divotherd,
# kills one mid-fleet, and requires honest partial-failure reporting followed
# by a re-balanced fleet-wide attest; phase 5 SIGKILLs a stateful daemon
# mid-flight and requires a calibration-free warm restart with its history
# and audit trail intact; phase 6 attaches binary multi-link and per-link SSE
# watchers to a 1000-bus fleet, restarts the daemon both ways (SIGTERM and
# SIGKILL), and requires resume to be exact after the graceful stop and an
# honest, typed resume-gap — never a silent skip — after the crash.
# Used by CI's "daemon smoke" step; runnable locally as scripts/daemon_smoke.sh.
set -euo pipefail

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

go build -o "$workdir/divotd" ./cmd/divotd
go build -o "$workdir/divotctl" ./cmd/divotctl
go build -o "$workdir/divotherd" ./cmd/divotherd

cat > "$workdir/fleet.json" <<'EOF'
{
  "seed": 11,
  "listen": "127.0.0.1:9721",
  "interval_ms": 20,
  "jitter_frac": 0.1,
  "buses": [{"id": "dimm0"}, {"id": "dimm1"}, {"id": "dimm2"}]
}
EOF

"$workdir/divotd" -spec "$workdir/fleet.json" > "$workdir/divotd.log" 2>&1 &
pid=$!

# Wait for readiness: /readyz answers from the moment the listener binds —
# before calibration finishes — and flips "ready" when the fleet is up.
wait_ready() {
  local addr=$1 waitpid=$2 logf=$3 tries=${4:-100}
  for _ in $(seq 1 "$tries"); do
    if curl -sf "http://$addr/readyz" 2>/dev/null | grep -q '"ready": true'; then
      return 0
    fi
    if ! kill -0 "$waitpid" 2>/dev/null; then
      echo "divotd on $addr exited during startup:" >&2
      cat "$logf" >&2
      exit 1
    fi
    sleep 0.2
  done
  echo "divotd on $addr never became ready" >&2
  curl -sf "http://$addr/readyz" >&2 || true
  exit 1
}

wait_ready 127.0.0.1:9721 "$pid" "$workdir/divotd.log"
curl -sf http://127.0.0.1:9721/healthz

# Two scrapes a few rounds apart: every bus's round counter must advance.
curl -sf http://127.0.0.1:9721/metrics > "$workdir/scrape1"
sleep 1
curl -sf http://127.0.0.1:9721/metrics > "$workdir/scrape2"

for bus in dimm0 dimm1 dimm2; do
  r1=$(grep "^divot_rounds_total{link=\"$bus\",side=\"cpu\"}" "$workdir/scrape1" | grep -o '[0-9]*$')
  r2=$(grep "^divot_rounds_total{link=\"$bus\",side=\"cpu\"}" "$workdir/scrape2" | grep -o '[0-9]*$')
  if [ -z "$r1" ] || [ -z "$r2" ] || [ "$r2" -le "$r1" ]; then
    echo "round counter for $bus did not advance ($r1 -> $r2)" >&2
    exit 1
  fi
  echo "ok: $bus rounds $r1 -> $r2"
done

# A clean fleet must report fleet_ok.
curl -sf http://127.0.0.1:9721/healthz | grep '"fleet_ok": true'

# All gates must be open on a clean fleet.
if grep '^divot_gate_open' "$workdir/scrape2" | grep -qv ' 1$'; then
  echo "a gate is closed on a clean fleet:" >&2
  grep '^divot_gate_open' "$workdir/scrape2" >&2
  exit 1
fi

# The SDK path: divotctl against the clean fleet must accept everything.
ctl="$workdir/divotctl -addr http://127.0.0.1:9721"
$ctl health
$ctl links
$ctl attest
$ctl -json attest | grep '"all_accepted": true'
echo "ok: divotctl attests the clean fleet"

# Graceful shutdown on SIGTERM.
kill -TERM "$pid"
for _ in $(seq 1 50); do
  kill -0 "$pid" 2>/dev/null || break
  sleep 0.2
done
if kill -0 "$pid" 2>/dev/null; then
  echo "divotd did not exit after SIGTERM" >&2
  kill -9 "$pid"
  exit 1
fi
wait "$pid" || { echo "divotd exited non-zero after SIGTERM" >&2; exit 1; }
grep 'shut down' "$workdir/divotd.log"

# Phase 2: a fleet with a scripted interposer on one bus. The attack must be
# visible remotely: the event feed carries it and attest rejects the victim.
cat > "$workdir/attacked.json" <<'EOF'
{
  "seed": 11,
  "listen": "127.0.0.1:9722",
  "interval_ms": 20,
  "jitter_frac": 0.1,
  "buses": [
    {"id": "clean0"},
    {"id": "victim", "attack": {"kind": "interposer", "after_rounds": 2, "position": 0.1}}
  ]
}
EOF
"$workdir/divotd" -spec "$workdir/attacked.json" > "$workdir/divotd2.log" 2>&1 &
pid2=$!
trap 'kill -9 "$pid2" 2>/dev/null || true; rm -rf "$workdir"' EXIT
wait_ready 127.0.0.1:9722 "$pid2" "$workdir/divotd2.log"

ctl2="$workdir/divotctl -addr http://127.0.0.1:9722"
# The live feed must deliver the attack's events through the SDK's watcher.
timeout 60 $ctl2 -max 1 watch victim > "$workdir/watch.out"
test -s "$workdir/watch.out"
echo "ok: divotctl watch captured: $(head -1 "$workdir/watch.out")"

# Wait until the attack is confirmed, then require the remote rejection: exit
# code 1 and accepted=false in the JSON verdict.
for _ in $(seq 1 100); do
  if $ctl2 -json attest victim > "$workdir/attest.out" 2>/dev/null; then
    sleep 0.2   # still accepted — the interposer is not confirmed yet
  else
    rc=$?
    if [ "$rc" -ne 1 ]; then
      echo "divotctl attest exited $rc, want 1 for a rejected bus" >&2
      exit 1
    fi
    grep '"accepted": false' "$workdir/attest.out"
    grep '"all_accepted": false' "$workdir/attest.out"
    echo "ok: interposer rejected through the remote client"
    break
  fi
done
if ! grep -q '"accepted": false' "$workdir/attest.out"; then
  echo "interposer was never rejected remotely:" >&2
  cat "$workdir/attest.out" >&2
  exit 1
fi

kill -TERM "$pid2"
for _ in $(seq 1 50); do
  kill -0 "$pid2" 2>/dev/null || break
  sleep 0.2
done
kill -0 "$pid2" 2>/dev/null && { echo "second divotd did not exit" >&2; kill -9 "$pid2"; exit 1; }
wait "$pid2" || { echo "second divotd exited non-zero after SIGTERM" >&2; exit 1; }

# Phase 3: fleet scale. A 1000-bus spec must calibrate (in parallel), run on
# the sharded scheduler with a bounded goroutine count — observed through the
# opt-in pprof listener, which lives on its own port, never the API — serve
# an attestation, and still shut down cleanly on SIGTERM.
{
  printf '{\n "seed": 5,\n "listen": "127.0.0.1:9723",\n "interval_ms": 60000,\n'
  printf ' "scheduler_shards": 8,\n "max_staleness_ms": 30000,\n "buses": [\n'
  for i in $(seq 0 999); do
    sep=","
    [ "$i" -eq 999 ] && sep=""
    printf '  {"id": "dimm%04d"}%s\n' "$i" "$sep"
  done
  printf ' ]\n}\n'
} > "$workdir/fleet1000.json"

"$workdir/divotd" -spec "$workdir/fleet1000.json" -pprof-addr 127.0.0.1:9733 \
  -state-dir "$workdir/state1000" > "$workdir/divotd3.log" 2>&1 &
pid3=$!
trap 'kill -9 "$pid3" 2>/dev/null || true; rm -rf "$workdir"' EXIT
# The arena-path cold enrollment brings 1000 buses up in ~26 s on a single
# core (faster with more); the 40 s ceiling is the performance gate — the
# retired allocating path took ~47 s and would time out here. /readyz
# reports progress the whole time.
wait_ready 127.0.0.1:9723 "$pid3" "$workdir/divotd3.log" 200
curl -sf http://127.0.0.1:9723/healthz | grep '"buses": 1000'

# The scheduler must be sharded, not goroutine-per-bus: the pprof profile's
# total must stay far below the fleet size.
goroutines=$(curl -sf "http://127.0.0.1:9733/debug/pprof/goroutine?debug=1" \
  | head -1 | grep -o 'total [0-9]*' | grep -o '[0-9]*')
if [ -z "$goroutines" ] || [ "$goroutines" -ge 100 ]; then
  echo "1000-bus fleet runs $goroutines goroutines, want < 100" >&2
  exit 1
fi
echo "ok: 1000 buses on $goroutines goroutines"

# The shard-depth gauges must be exported and an attestation must pass.
curl -sf http://127.0.0.1:9723/metrics | grep -q '^divot_scheduler_shard_depth{shard="0"}'
curl -sf -X POST http://127.0.0.1:9723/v1/attest -d '{"links":["dimm0007"]}' \
  | grep '"accepted": true'
echo "ok: 1000-bus fleet attests"

kill -TERM "$pid3"
for _ in $(seq 1 100); do
  kill -0 "$pid3" 2>/dev/null || break
  sleep 0.2
done
kill -0 "$pid3" 2>/dev/null && { echo "1000-bus divotd did not exit" >&2; kill -9 "$pid3"; exit 1; }
wait "$pid3" || { echo "1000-bus divotd exited non-zero after SIGTERM" >&2; exit 1; }
grep 'shut down' "$workdir/divotd3.log"

# Warm restart at scale: the graceful shutdown persisted every enrollment, so
# a relaunch on the same state directory must restore all 1000 buses without
# a single calibration measurement — startup drops from minutes to seconds.
"$workdir/divotd" -spec "$workdir/fleet1000.json" -state-dir "$workdir/state1000" \
  > "$workdir/divotd3b.log" 2>&1 &
pid3=$!
wait_ready 127.0.0.1:9723 "$pid3" "$workdir/divotd3b.log" 300
grep -q '1000 buses ready (1000 restored warm, 0 calibrated)' "$workdir/divotd3b.log"
curl -sf -X POST http://127.0.0.1:9723/v1/attest -d '{"links":["dimm0007"]}' \
  | grep '"accepted": true'
echo "ok: 1000-bus fleet warm-restarted with zero recalibration"
kill -TERM "$pid3"
for _ in $(seq 1 100); do
  kill -0 "$pid3" 2>/dev/null || break
  sleep 0.2
done
kill -0 "$pid3" 2>/dev/null && { echo "warm 1000-bus divotd did not exit" >&2; kill -9 "$pid3"; exit 1; }
wait "$pid3" || { echo "warm 1000-bus divotd exited non-zero after SIGTERM" >&2; exit 1; }

# Phase 4: federation. Four daemons with identical specs (same seed → same
# enrollments: replicated verifiers over a shared measurement fabric) behind
# one divotherd. The herd must attest the fleet through one endpoint; killing
# a daemon must surface as an honest partial failure (never a fabricated OK),
# and the very next attest must succeed fleet-wide on the re-balanced
# survivors.
cat > "$workdir/fed.json" <<'EOF'
{
  "seed": 23,
  "interval_ms": 60000,
  "max_staleness_ms": 30000,
  "buses": [
    {"id": "fed0"}, {"id": "fed1"}, {"id": "fed2"},
    {"id": "fed3"}, {"id": "fed4"}, {"id": "fed5"}
  ]
}
EOF
fedpids=()
for i in 0 1 2 3; do
  "$workdir/divotd" -spec "$workdir/fed.json" -listen "127.0.0.1:974$i" \
    -federation-id smoke > "$workdir/fed$i.log" 2>&1 &
  fedpids+=($!)
done
trap 'kill -9 "${fedpids[@]}" ${herdpid:-} 2>/dev/null || true; rm -rf "$workdir"' EXIT
for i in 0 1 2 3; do
  wait_ready "127.0.0.1:974$i" "${fedpids[$i]}" "$workdir/fed$i.log"
done

# A long probe interval keeps the test deterministic: the only thing allowed
# to mark a daemon down mid-phase is the failed attest fan-out itself.
"$workdir/divotherd" -listen 127.0.0.1:9744 -federation-id smoke -probe-interval 60s \
  -daemons "http://127.0.0.1:9740,http://127.0.0.1:9741,http://127.0.0.1:9742,http://127.0.0.1:9743" \
  > "$workdir/herd.log" 2>&1 &
herdpid=$!
for _ in $(seq 1 100); do
  curl -sf http://127.0.0.1:9744/healthz > /dev/null 2>&1 && break
  if ! kill -0 "$herdpid" 2>/dev/null; then
    echo "divotherd exited during startup:" >&2
    cat "$workdir/herd.log" >&2
    exit 1
  fi
  sleep 0.2
done
curl -sf http://127.0.0.1:9744/healthz | grep '"federation_id": "smoke"'
curl -sf http://127.0.0.1:9744/v1/daemons | grep -c '"up": true' | grep -qx 4

# divotctl works unchanged against the herd (the federated response is a
# strict superset of the daemon's); the federated extras are asserted on the
# raw wire, since the SDK decodes into the daemon-shaped AttestResponse.
ctlherd="$workdir/divotctl -addr http://127.0.0.1:9744"
$ctlherd -json attest > "$workdir/herd-attest.out"
grep '"all_accepted": true' "$workdir/herd-attest.out"
curl -sf -X POST http://127.0.0.1:9744/v1/attest > "$workdir/herd-fed.out"
grep '"complete": true' "$workdir/herd-fed.out"
grep '"daemon": "d0"' "$workdir/herd-fed.out"
echo "ok: herd attests 6 buses across 4 daemons"

# Kill one daemon. The next attest must report the partial failure honestly —
# all_accepted=false, complete=false, an unavailable shard error — and must
# not fabricate verdicts for the dead daemon's buses.
kill -9 "${fedpids[1]}"
curl -sf -X POST http://127.0.0.1:9744/v1/attest > "$workdir/herd-dead.out"
grep '"all_accepted": false' "$workdir/herd-dead.out"
grep '"complete": false' "$workdir/herd-dead.out"
grep '"code": "unavailable"' "$workdir/herd-dead.out"
echo "ok: daemon death reported as partial failure"

# Re-balance: the herd marked the daemon down during the failed fan-out, so
# the follow-up attest — through the unchanged single-daemon client — lands
# fleet-wide on the three survivors.
$ctlherd -json attest > "$workdir/herd-rebal.out"
grep '"all_accepted": true' "$workdir/herd-rebal.out"
curl -sf http://127.0.0.1:9744/v1/daemons | grep -c '"up": true' | grep -qx 3
echo "ok: herd re-balanced onto 3 survivors"

kill -TERM "$herdpid"
for _ in $(seq 1 50); do
  kill -0 "$herdpid" 2>/dev/null || break
  sleep 0.2
done
kill -0 "$herdpid" 2>/dev/null && { echo "divotherd did not exit after SIGTERM" >&2; kill -9 "$herdpid"; exit 1; }
wait "$herdpid" || { echo "divotherd exited non-zero after SIGTERM" >&2; exit 1; }
for i in 0 2 3; do kill -TERM "${fedpids[$i]}" 2>/dev/null || true; done
for p in "${fedpids[@]}"; do wait "$p" 2>/dev/null || true; done

# Phase 5: crash durability. A stateful daemon is SIGKILLed mid-flight — no
# graceful persist, no WAL close — and relaunched on the same state
# directory. The restart must restore every enrollment without a single
# calibration measurement, keep serving verdicts, and keep the history and
# audit trails accumulated before the crash.
cat > "$workdir/durable.json" <<EOF
{
  "seed": 31,
  "listen": "127.0.0.1:9725",
  "interval_ms": 20,
  "jitter_frac": 0.1,
  "state_dir": "$workdir/state5",
  "buses": [{"id": "dimm0"}, {"id": "dimm1"}, {"id": "dimm2"}]
}
EOF
"$workdir/divotd" -spec "$workdir/durable.json" > "$workdir/divotd5.log" 2>&1 &
pid5=$!
trap 'kill -9 "$pid5" 2>/dev/null || true; rm -rf "$workdir"' EXIT
wait_ready 127.0.0.1:9725 "$pid5" "$workdir/divotd5.log"
grep -q '3 buses ready (0 restored warm, 3 calibrated)' "$workdir/divotd5.log"

# Let rounds accumulate past the daemon's 1s durability flush, then snapshot
# the durable trails as of the crash.
sleep 2.5
hist_before=$(curl -sf http://127.0.0.1:9725/v1/links/dimm0/history | grep -c '"round"')
if [ "$hist_before" -lt 1 ]; then
  echo "no history samples before the crash" >&2
  exit 1
fi
audit_before=$(cat "$workdir"/state5/audit/seg-*.wal | wc -c)
if [ "$audit_before" -lt 1 ]; then
  echo "no audit bytes before the crash" >&2
  exit 1
fi

# The served history runs ahead of the WAL by up to one flush interval
# (appends are buffered until the 1s sync), so crash only after a flush has
# covered every sample counted above; the samples of the crash's last
# second are not promised durable.
sleep 1.5
kill -9 "$pid5"
wait "$pid5" 2>/dev/null || true

"$workdir/divotd" -spec "$workdir/durable.json" > "$workdir/divotd5b.log" 2>&1 &
pid5=$!
wait_ready 127.0.0.1:9725 "$pid5" "$workdir/divotd5b.log"
# Zero recalibration: every bus came back from its enrollment snapshot.
grep -q '3 buses ready (3 restored warm, 0 calibrated)' "$workdir/divotd5b.log"

# Verdicts flow immediately on the restored enrollments.
ctl5="$workdir/divotctl -addr http://127.0.0.1:9725"
$ctl5 -json attest | grep '"all_accepted": true'

# History continuity: the pre-crash samples survived the torn WAL tail (the
# window is bounded at 256/bus, far above what this phase accumulates).
hist_after=$(curl -sf http://127.0.0.1:9725/v1/links/dimm0/history | grep -c '"round"')
if [ "$hist_after" -lt "$hist_before" ]; then
  echo "history lost across the crash: $hist_before -> $hist_after samples" >&2
  exit 1
fi
echo "ok: $hist_before pre-crash history samples survived ($hist_after retained)"

# Audit continuity: the audit WAL kept its pre-crash bytes and keeps growing.
sleep 2.5
audit_after=$(cat "$workdir"/state5/audit/seg-*.wal | wc -c)
if [ "$audit_after" -le "$audit_before" ]; then
  echo "audit log did not survive and grow: $audit_before -> $audit_after bytes" >&2
  exit 1
fi
echo "ok: audit trail continuous across SIGKILL ($audit_before -> $audit_after bytes)"

kill -TERM "$pid5"
for _ in $(seq 1 50); do
  kill -0 "$pid5" 2>/dev/null || break
  sleep 0.2
done
kill -0 "$pid5" 2>/dev/null && { echo "stateful divotd did not exit after SIGTERM" >&2; kill -9 "$pid5"; exit 1; }
wait "$pid5" || { echo "stateful divotd exited non-zero after SIGTERM" >&2; exit 1; }
echo "ok: crash-restart durability"

# Phase 6: event streaming at scale, across restarts. The phase-3 state
# directory warm-restores the 1000 clean buses in seconds; two attacked buses
# on a fast monitoring interval provide a continuous event feed (a tampered
# round emits an alert every round). A binary multi-link watcher (divotctl
# on GET /v1/stream) and a per-link SSE watcher (curl) both follow the
# feed, served by one subscription core; a graceful restart must resume a cursor exactly, and a SIGKILL must
# surface as a typed resume gap — the stream protocol never skips silently.
cat > "$workdir/fleet1000s.json" <<'EOF'
{
  "seed": 5,
  "listen": "127.0.0.1:9726",
  "interval_ms": 60000,
  "scheduler_shards": 8,
  "max_staleness_ms": 30000,
  "buses": [
EOF
for i in $(seq 0 999); do
  printf '  {"id": "dimm%04d"},\n' "$i" >> "$workdir/fleet1000s.json"
done
cat >> "$workdir/fleet1000s.json" <<'EOF'
  {"id": "victimA", "interval_ms": 20, "attack": {"kind": "interposer", "after_rounds": 2, "position": 0.1}},
  {"id": "victimB", "interval_ms": 20, "attack": {"kind": "interposer", "after_rounds": 2, "position": 0.2}}
  ]
}
EOF

"$workdir/divotd" -spec "$workdir/fleet1000s.json" -state-dir "$workdir/state1000" \
  > "$workdir/divotd6.log" 2>&1 &
pid6=$!
trap 'kill -9 "$pid6" 2>/dev/null || true; rm -rf "$workdir"' EXIT
wait_ready 127.0.0.1:9726 "$pid6" "$workdir/divotd6.log" 300
# Only the two new victims calibrate; the 1000-bus fleet comes back warm.
grep -q '1002 buses ready (1000 restored warm, 2 calibrated)' "$workdir/divotd6.log"

# The stream degradation metrics must be exported from the start.
curl -sf http://127.0.0.1:9726/metrics > "$workdir/scrape6"
for fam in divot_stream_subscribers divot_stream_coalesced_total divot_stream_dropped_total; do
  grep -q "^$fam" "$workdir/scrape6" || { echo "metrics missing $fam" >&2; exit 1; }
done

ctl6="$workdir/divotctl -addr http://127.0.0.1:9726"
# Binary multi-link watch: both victims' events over one connection. The
# subscribe replays each link's retained ring (up to 128 events) before the
# live tail, so the cap must clear both backlogs to prove interleaving.
for attempt in 1 2 3; do
  timeout 120 $ctl6 -json -max 400 watch victimA victimB > "$workdir/watch6.out"
  grep -q '"link": "victimA"' "$workdir/watch6.out" && \
    grep -q '"link": "victimB"' "$workdir/watch6.out" && break
  if [ "$attempt" = 3 ]; then
    echo "multi-link watch never interleaved both victims:" >&2
    cat "$workdir/watch6.out" >&2
    exit 1
  fi
done
echo "ok: binary multi-link watch carries both victims"

# Per-link SSE watcher on the same daemon: the text route still serves.
timeout 30 bash -c \
  "curl -sN http://127.0.0.1:9726/v1/links/victimA/events | grep -m1 '^data:'" \
  > "$workdir/sse6.out"
test -s "$workdir/sse6.out"
echo "ok: per-link SSE watch still streams"

# Graceful restart: a watcher follows victimB to the shutdown frame, so its
# last seq IS the persisted stream cursor; after the restart, resuming past
# it must deliver exactly the next event — no gap, no duplicate.
$ctl6 -retries 2 -json watch victimB > "$workdir/graceful6.out" 2> /dev/null &
wpid=$!
sleep 2
kill -TERM "$pid6"
for _ in $(seq 1 100); do kill -0 "$pid6" 2>/dev/null || break; sleep 0.2; done
kill -0 "$pid6" 2>/dev/null && { echo "stream divotd did not exit after SIGTERM" >&2; kill -9 "$pid6"; exit 1; }
wait "$pid6" || { echo "stream divotd exited non-zero after SIGTERM" >&2; exit 1; }
wait "$wpid" 2>/dev/null || true   # the watcher exits 3 once reconnects exhaust
lastB=$(grep '"seq":' "$workdir/graceful6.out" | tail -1 | grep -o '[0-9][0-9]*')
if [ -z "$lastB" ]; then
  echo "graceful watcher captured no events" >&2
  exit 1
fi

"$workdir/divotd" -spec "$workdir/fleet1000s.json" -state-dir "$workdir/state1000" \
  > "$workdir/divotd6b.log" 2>&1 &
pid6=$!
wait_ready 127.0.0.1:9726 "$pid6" "$workdir/divotd6b.log" 300
grep -q '1002 buses ready (1002 restored warm, 0 calibrated)' "$workdir/divotd6b.log"
timeout 120 $ctl6 -json -after "$lastB" -max 1 watch victimB > "$workdir/resume6.out"
nextB=$(grep '"seq":' "$workdir/resume6.out" | head -1 | grep -o '[0-9][0-9]*')
if [ "$nextB" != "$((lastB + 1))" ]; then
  echo "graceful resume after seq $lastB delivered seq $nextB, want $((lastB + 1))" >&2
  exit 1
fi
echo "ok: graceful restart resumed victimB at seq $nextB exactly"

# Crash restart: take a cursor mid-feed, SIGKILL, relaunch. The crash seeds
# the sequence space past everything possibly published, so the stale cursor
# must come back as a typed resume gap (divotctl exit 3), never as a feed
# that silently skips the hole.
timeout 120 $ctl6 -json -max 3 watch victimA > "$workdir/cursor6.out"
seqA=$(grep '"seq":' "$workdir/cursor6.out" | tail -1 | grep -o '[0-9][0-9]*')
kill -9 "$pid6"
wait "$pid6" 2>/dev/null || true
"$workdir/divotd" -spec "$workdir/fleet1000s.json" -state-dir "$workdir/state1000" \
  > "$workdir/divotd6c.log" 2>&1 &
pid6=$!
wait_ready 127.0.0.1:9726 "$pid6" "$workdir/divotd6c.log" 300
grep -q '1002 buses ready (1002 restored warm, 0 calibrated)' "$workdir/divotd6c.log"
if timeout 60 $ctl6 -json -after "$seqA" -max 1 watch victimA > /dev/null 2> "$workdir/gap6.err"; then
  echo "crash resume after seq $seqA silently delivered events — want a resume gap" >&2
  exit 1
else
  rc=$?
  if [ "$rc" -ne 3 ]; then
    echo "crash resume exited $rc, want 3 (typed resume gap)" >&2
    cat "$workdir/gap6.err" >&2
    exit 1
  fi
fi
grep -q 'resume gap' "$workdir/gap6.err"
echo "ok: crash resume surfaced a typed gap: $(head -1 "$workdir/gap6.err")"

# The SSE route agrees: resuming the stale cursor jumps visibly (SSE has no
# gap frame; the jump is its gap signal) instead of renumbering.
timeout 30 bash -c \
  "curl -sN 'http://127.0.0.1:9726/v1/links/victimA/events?after=$seqA' | grep -m1 '^data:'" \
  > "$workdir/sse6b.out"
sseSeq=$(grep -o '"seq":[0-9]*' "$workdir/sse6b.out" | grep -o '[0-9]*')
if [ -z "$sseSeq" ] || [ "$sseSeq" -le "$((seqA + 1))" ]; then
  echo "SSE resume after crash shows seq $sseSeq — the sequence space was not re-seeded" >&2
  exit 1
fi
echo "ok: SSE resume shows the honest jump ($seqA -> $sseSeq)"

# A fresh watch (no cursor claim) streams fine after the crash.
timeout 120 $ctl6 -max 2 watch victimA victimB > /dev/null
kill -TERM "$pid6"
for _ in $(seq 1 100); do kill -0 "$pid6" 2>/dev/null || break; sleep 0.2; done
kill -0 "$pid6" 2>/dev/null && { echo "stream divotd did not exit" >&2; kill -9 "$pid6"; exit 1; }
wait "$pid6" || { echo "stream divotd exited non-zero after final SIGTERM" >&2; exit 1; }
echo "ok: stream resume honesty across graceful and crash restarts"
echo "smoke test passed"
