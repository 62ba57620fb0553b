#!/usr/bin/env bash
# Crash-recovery smoke: a live 3-replica cluster with durable WALs, one
# replica SIGKILLed mid-load and restarted from its -data-dir. Gates:
#   1. the first load completes despite the kill (t=1 tolerates it),
#      and the longest stretch it saw without a commit — the kill, the
#      view change and the redirect — stays under 750 ms,
#   2. the restarted replica logs a WAL recovery at a nonzero height,
#   3. a second load completes with the recovered replica back in.
# The deterministic crash-point matrix is unit-tested
# (TestCrashRecoveryMatrix); this exercises the same story end to end
# through the real binaries, filesystem and TCP transport.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir="$(mktemp -d)"
pids=()
cleanup() {
  for pid in "${pids[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/xft-server" ./cmd/xft-server
go build -o "$workdir/xft-client" ./cmd/xft-client

# Servers list the client's reply address too: the transport only
# delivers to ids present in its peer map, so a replica can only send
# replies to a client it can route to.
replicas="0=localhost:7300,1=localhost:7301,2=localhost:7302"
peers="$replicas,1000=localhost:7307"
# Δ = 100 ms is ample on loopback; the view change waits 2Δ for the
# dead replica's message, which is most of the gap gated below.
start_server() { # id
  "$workdir/xft-server" -id "$1" -listen ":730$1" -peers "$peers" -delta 100ms \
    -data-dir "$workdir/replica$1" >>"$workdir/server$1.log" 2>&1 &
  pids+=($!)
}
for id in 0 1 2; do start_server "$id"; done
sleep 2

echo "=== load 1: SIGKILL replica 1 mid-load ==="
timeout 180 "$workdir/xft-client" -peers "$replicas" -listen :7307 -window 8 bench 5000 \
  >"$workdir/load1.log" 2>&1 &
load1=$!
pids+=("$load1")
# Durability is asynchronous by design (commits never wait on the
# disk), so wait until replica 1 has actually fsynced a chunk of its
# log before pulling the plug — killing during the very first appends
# can legitimately recover an empty prefix, which is not the story
# this smoke gates.
for _ in $(seq 1 100); do
  size="$(cat "$workdir"/replica1/wal/*.wal 2>/dev/null | wc -c || true)"
  [ "$size" -ge 65536 ] && break
  sleep 0.2
done
echo "replica 1 WAL at $size bytes; killing"
victim="${pids[1]}"
kill -9 "$victim"
echo "killed replica 1 (pid $victim)"
if ! wait "$load1"; then
  echo "FAIL: load did not survive the crash of one replica" >&2
  tail -n 20 "$workdir"/load1.log "$workdir"/server*.log >&2
  exit 1
fi
grep 'ops/s' "$workdir/load1.log"
# The client saw the SIGKILL as its longest wait between two commits:
# the survivors' redial being refused, one view change, one notice.
gap="$(sed -n 's/^longest gap between commits: \([0-9]*\) ms$/\1/p' "$workdir/load1.log")"
echo "kill to first commit after it: at most ${gap:-?} ms"
if [ -z "$gap" ] || [ "$gap" -gt 750 ]; then
  echo "FAIL: service gap after the kill is ${gap:-unknown} ms, want at most 750" >&2
  tail -n 20 "$workdir"/load1.log "$workdir"/server*.log >&2
  exit 1
fi

echo "=== restart replica 1 from its data dir ==="
start_server 1
sleep 2
recovery="$(grep 'recovered from WAL' "$workdir/server1.log" | tail -1)"
echo "$recovery"
sn="$(sed -n 's/.*recovered from WAL: sn=\([0-9]*\).*/\1/p' <<<"$recovery" | tail -1)"
if [ -z "$sn" ] || [ "$sn" -eq 0 ]; then
  echo "FAIL: replica 1 did not recover state from its WAL (sn=${sn:-none})" >&2
  tail -n 20 "$workdir/server1.log" >&2
  exit 1
fi

echo "=== load 2: recovered replica back in the cluster ==="
if ! timeout 180 "$workdir/xft-client" -peers "$replicas" -listen :7307 -window 8 bench 500 \
  >"$workdir/load2.log" 2>&1; then
  echo "FAIL: cluster did not commit after the rejoin" >&2
  tail -n 20 "$workdir"/load2.log "$workdir"/server*.log >&2
  exit 1
fi
grep 'ops/s' "$workdir/load2.log"

echo "PASS: crash, WAL recovery at sn=$sn, clean rejoin"
