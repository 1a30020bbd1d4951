#!/usr/bin/env sh
# Crash-recovery smoke of the durable schedule cache (verify.sh leg 4c):
# start mbsp-served with -cache-path, populate two cache entries (both
# fsync-journaled before their responses return), then kill -9 the
# server and tear the journal's tail mid-record — the on-disk image a
# kill arriving mid-append leaves. Restart on the same directory and
# assert, via mbsp-smoke -phase verify:
#
#   - recovery counters: 1 entry recovered, the torn record counted
#     corrupt, nothing rejected, nothing journaled;
#   - the surviving entry is served as a warm cache hit byte-identical
#     to its pre-crash response;
#   - the torn entry recomputes cold to the same bytes (determinism),
#     and its entry is the one record journaled since the restart.
#
# Finally SIGTERM the restarted server and assert a graceful drain
# (snapshot rotation) so the whole crash-only lifecycle is exercised.
#
# Usage: scripts/crash_smoke.sh
set -eu

cd "$(dirname "$0")/.."
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/mbsp-served" ./cmd/mbsp-served
go build -o "$tmp/mbsp-smoke" ./cmd/mbsp-smoke

cache="$tmp/cache"
state="$tmp/state"
mkdir -p "$state"

start_server() {
    log="$1"
    "$tmp/mbsp-served" -addr 127.0.0.1:0 -node-limit 500 -max-model-rows 3000 -cache-path "$cache" 2> "$log" &
    pid=$!
    addr=""
    i=0
    while [ "$i" -lt 100 ]; do
        addr="$(sed -n 's/.*listening on //p' "$log" | head -n 1)"
        [ -n "$addr" ] && break
        i=$((i + 1))
        sleep 0.1
    done
    if [ -z "$addr" ]; then
        echo "crash smoke: server never listened" >&2
        cat "$log" >&2
        exit 1
    fi
}

# Phase 1: populate two entries; both are journaled (fsync per append)
# before their responses return.
start_server "$tmp/served1.log"
if ! "$tmp/mbsp-smoke" -base "http://$addr" -phase populate -state "$state"; then
    echo "crash smoke: populate failed" >&2
    cat "$tmp/served1.log" >&2
    kill -9 "$pid" 2>/dev/null || true
    exit 1
fi

# The crash: kill -9 (no drain, no snapshot), then tear the journal's
# tail mid-record — the second entry's append loses its last bytes,
# exactly what a kill landing mid-write leaves behind.
kill -9 "$pid"
wait "$pid" 2>/dev/null || true
journal="$cache/journal"
if [ ! -f "$journal" ]; then
    echo "crash smoke: no journal at $journal" >&2
    exit 1
fi
truncate -s -7 "$journal"

# Phase 2: restart on the torn image and verify recovery.
start_server "$tmp/served2.log"
if ! "$tmp/mbsp-smoke" -base "http://$addr" -phase verify -state "$state"; then
    echo "crash smoke: verify failed" >&2
    cat "$tmp/served2.log" >&2
    kill -9 "$pid" 2>/dev/null || true
    exit 1
fi
if ! grep -q "cache recovery from" "$tmp/served2.log"; then
    echo "crash smoke: no recovery log line" >&2
    cat "$tmp/served2.log" >&2
    kill -9 "$pid" 2>/dev/null || true
    exit 1
fi

# Graceful close of the recovered server: drain rotates the journal
# into a snapshot, completing the crash-only lifecycle.
kill -TERM "$pid"
if ! wait "$pid"; then
    echo "crash smoke: recovered server exited nonzero on SIGTERM" >&2
    cat "$tmp/served2.log" >&2
    exit 1
fi
if ! grep -q "shutdown path: graceful drain complete" "$tmp/served2.log"; then
    echo "crash smoke: no graceful-drain log line" >&2
    cat "$tmp/served2.log" >&2
    exit 1
fi
if [ ! -f "$cache/snapshot" ]; then
    echo "crash smoke: graceful drain wrote no snapshot" >&2
    exit 1
fi

echo "crash smoke: OK"
