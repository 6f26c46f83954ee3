#!/bin/sh
# profile.sh — capture profiles from a live run through the telemetry debug
# endpoint. Builds jury, starts a long `jury sim` scenario with -debug-addr,
# waits for /metrics to come up, and pulls profiles for `go tool pprof`.
#
# Default mode writes one CPU profile:
#
#   scripts/profile.sh                                    # 10s of the default scenario
#   PROF_SECONDS=30 OUT=/tmp/cpu.pprof scripts/profile.sh
#   scripts/profile.sh -scheme cubic,jury -rate 200 -duration 600s
#
# Bundle mode (--bundle) captures the whole observability surface in one
# shot — heap and goroutine snapshots, a CPU profile, and the live /fairness
# page from the streaming observer — into a timestamped directory:
#
#   scripts/profile.sh --bundle                           # profiles/<UTC stamp>/
#   OUTDIR=/tmp/bundle scripts/profile.sh --bundle -scheme jury -flows 8
#
# Extra arguments replace the default `jury sim` scenario flags. Virtual time
# runs much faster than wall time (~600 virtual seconds per wall second per
# 100 Mbps-class flow pair is typical), so pick a -duration whose *wall*
# time outlives the profile window; the default scenario lasts a few wall
# minutes and is killed once the capture completes.
set -eu
cd "$(dirname "$0")/.."

PROF_SECONDS=${PROF_SECONDS:-10}
OUT=${OUT:-cpu.pprof}
ADDR=${ADDR:-127.0.0.1:8791}

MODE=single
if [ "${1:-}" = "--bundle" ]; then
    MODE=bundle
    shift
fi

BINDIR=$(mktemp -d)
go build -o "$BINDIR/jury" ./cmd/jury

if [ $# -eq 0 ]; then
    set -- -scheme cubic,jury -rate 100 -duration 36000s
fi
# Bundle mode needs the streaming observer live for the /fairness snapshot.
if [ "$MODE" = bundle ]; then
    set -- "$@" -obs
fi
"$BINDIR/jury" sim "$@" -debug-addr "$ADDR" >/dev/null 2>&1 &
PID=$!
trap 'kill "$PID" 2>/dev/null || true; rm -rf "$BINDIR"' EXIT

i=0
until curl -sf "http://$ADDR/metrics" >/dev/null 2>&1; do
    if ! kill -0 "$PID" 2>/dev/null; then
        echo "profile.sh: jury sim exited before the debug endpoint came up" >&2
        exit 1
    fi
    i=$((i + 1))
    if [ "$i" -ge 50 ]; then
        echo "profile.sh: debug endpoint never came up on $ADDR" >&2
        exit 1
    fi
    sleep 0.2
done

if [ "$MODE" = single ]; then
    echo "profiling http://$ADDR for ${PROF_SECONDS}s..."
    curl -sf -o "$OUT" "http://$ADDR/debug/pprof/profile?seconds=$PROF_SECONDS"
    echo "wrote $OUT  (inspect: go tool pprof $OUT)"
    exit 0
fi

# --bundle: heap + goroutine snapshots, the CPU profile, and the live
# fairness page, into one timestamped directory. The instantaneous captures
# land first so the bundle is useful even if the run ends mid CPU window.
OUTDIR=${OUTDIR:-profiles/$(date -u +%Y%m%dT%H%M%SZ)}
mkdir -p "$OUTDIR"
echo "bundling http://$ADDR into $OUTDIR (CPU window ${PROF_SECONDS}s)..."
curl -sf -o "$OUTDIR/heap.pprof" "http://$ADDR/debug/pprof/heap"
curl -sf -o "$OUTDIR/goroutine.pprof" "http://$ADDR/debug/pprof/goroutine"
curl -sf -o "$OUTDIR/fairness.json" "http://$ADDR/fairness" ||
    echo "profile.sh: /fairness unavailable (no -obs surface?)" >&2
curl -sf -o "$OUTDIR/cpu.pprof" "http://$ADDR/debug/pprof/profile?seconds=$PROF_SECONDS"
# A second fairness snapshot after the CPU window shows how far the run
# advanced while profiled.
curl -sf -o "$OUTDIR/fairness-after.json" "http://$ADDR/fairness" || true
ls -l "$OUTDIR"
echo "bundle in $OUTDIR  (inspect: go tool pprof $OUTDIR/cpu.pprof; jury plot fairness -in $OUTDIR/fairness.json)"
