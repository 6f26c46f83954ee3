#!/bin/sh
# bench.sh — run the hot-path micro-benchmarks and record them as
# BENCH_harness.json for before/after comparison.
#
# Covers the per-step allocation work: event scheduling (simcore), full
# scenario simulation (exp), NN inference/backprop, the batched kernels and
# the axpy streaming kernels as dispatched vs their Go bodies (nn), replay
# sampling and the TD3 update at the Table 2 sizes (rl). Usage:
#
#   scripts/bench.sh             # writes BENCH_harness.json in the repo root
#   OUT=/tmp/b.json scripts/bench.sh
#   scripts/bench.sh --smoke     # 1-iteration run: verifies the benchmarks
#                                # still execute (check.sh calls this)
#   scripts/bench.sh --compare   # re-run and fail on a >20% ns/op regression
#                                # or any allocs/op increase vs the recorded
#                                # baseline (BASE=<file> to override)
set -eu
cd "$(dirname "$0")/.."

BENCHES='BenchmarkEngineSchedule|BenchmarkMLPForward|BenchmarkMLPBackward|BenchmarkAxpyKernels|BenchmarkReplaySample|BenchmarkTD3Update|BenchmarkScenario|BenchmarkServeBatch|BenchmarkServeLoopback'

MODE=record
case "${1:-}" in
--smoke) MODE=smoke ;;
--compare) MODE=compare ;;
"") ;;
*) echo "usage: $0 [--smoke|--compare]" >&2; exit 2 ;;
esac

if [ "$MODE" = smoke ]; then
    # One iteration per benchmark: proves the harness still runs end to end
    # without paying for statistically stable timings. The huge-mesh scenario
    # is scaled down from its default 10k flows (and the million-flow capacity
    # proof from its default 1M) unless the caller overrides.
    JURY_HUGE_FLOWS=${JURY_HUGE_FLOWS:-400} \
    JURY_MILLION_FLOWS=${JURY_MILLION_FLOWS:-2000} \
    go test -run '^$' -bench "$BENCHES" -benchtime 1x -benchmem \
        ./internal/simcore ./internal/nn ./internal/rl ./internal/exp \
        ./internal/agentrpc >/dev/null
    echo "bench smoke OK"
    exit 0
fi

if [ "$MODE" = compare ]; then
    # The comparison run keeps the million-flow proof small: its figures of
    # merit (bytes/flow, allocs) are recorded by the full record runs, and a
    # 1M-flow iteration would dominate the gate's wall time. Override with
    # JURY_MILLION_FLOWS to compare at full scale.
    JURY_MILLION_FLOWS=${JURY_MILLION_FLOWS:-20000}
    export JURY_MILLION_FLOWS
fi

TMP=$(mktemp)
JSONTMP=$(mktemp)
trap 'rm -f "$TMP" "$JSONTMP"' EXIT

go test -run '^$' -bench 'BenchmarkEngineSchedule' -benchmem ./internal/simcore | tee -a "$TMP"
go test -run '^$' -bench 'BenchmarkMLPForward|BenchmarkMLPBackward|BenchmarkAxpyKernels' -benchmem ./internal/nn | tee -a "$TMP"
go test -run '^$' -bench 'BenchmarkReplaySample' -benchmem ./internal/rl | tee -a "$TMP"
# The agent sizes its shard pool from GOMAXPROCS, so one benchmark at -cpu 1,2
# records the serial path (BenchmarkTD3Update) and the pooled one
# (BenchmarkTD3Update-2); on a 1-core box the second only measures hand-off.
go test -run '^$' -bench 'BenchmarkTD3Update$' -cpu 1,2 -benchmem ./internal/rl | tee -a "$TMP"
go test -run '^$' -bench 'BenchmarkScenario$' -benchtime 3x -benchmem ./internal/exp | tee -a "$TMP"
# The huge parking-lot mesh (10k flows by default) runs once per shard count:
# a single iteration is already millions of events, and the events/sec column
# is the figure of merit for the sharded engine.
go test -run '^$' -bench 'BenchmarkScenarioHuge' -benchtime 1x -benchmem ./internal/exp | tee -a "$TMP"
# The million-flow capacity proof (JURY_MILLION_FLOWS flows, default 1_000_000,
# 8 shards, shortened horizon): one iteration records events/sec plus the
# memory figures — bytes/flow and peak heap — that gate under --compare.
go test -run '^$' -bench 'BenchmarkScenarioMillion' -benchtime 1x -benchmem -timeout 60m ./internal/exp | tee -a "$TMP"
# The inference-daemon serving path. ServeBatch is the execution core alone
# (decisions/sec at 1, 64 and 1024 rows per policy execution); it never runs
# the batch loop. ServeLoopback is one closed-loop client over loopback TCP —
# socket, framing, batcher hand-off, forward pass — so a per-decision wait in
# the batcher (the old coalescing timer cost 1.2 ms against a ~20 us round
# trip) fails --compare by a wide margin.
go test -run '^$' -bench 'BenchmarkServeBatch|BenchmarkServeLoopback' -benchmem ./internal/agentrpc | tee -a "$TMP"

# The _meta entry records provenance (plus free-form NOTES from the caller,
# e.g. shard-count speedup observations); --compare's parser only loads lines
# naming a "Benchmark...", so it is ignored by the regression gate.
COMMIT=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
STAMP=$(date -u +%Y-%m-%dT%H:%M:%SZ)
awk -v commit="$COMMIT" -v stamp="$STAMP" -v notes="${NOTES:-}" '
BEGIN {
    print "{"
    printf "  \"_meta\": {\"commit\": \"%s\", \"recorded_at\": \"%s\"", commit, stamp
    if (notes != "") printf ", \"notes\": \"%s\"", notes
    printf "}"
    first = 0
}
/^Benchmark/ {
    name = $1
    nsop = ""; bop = ""; allocs = ""; eps = ""; dps = ""; bpf = ""; peak = ""
    for (i = 2; i <= NF; i++) {
        if ($(i) == "ns/op") nsop = $(i - 1)
        if ($(i) == "B/op") bop = $(i - 1)
        if ($(i) == "allocs/op") allocs = $(i - 1)
        if ($(i) == "events/sec") eps = $(i - 1)
        if ($(i) == "decisions/sec") dps = $(i - 1)
        if ($(i) == "bytes/flow") bpf = $(i - 1)
        if ($(i) == "peak-heap-bytes") peak = $(i - 1)
    }
    if (nsop == "") next
    if (!first) printf ",\n"
    first = 0
    printf "  \"%s\": {\"ns_per_op\": %s", name, nsop
    if (eps != "") printf ", \"events_per_sec\": %s", eps
    if (dps != "") printf ", \"decisions_per_sec\": %s", dps
    if (bpf != "") printf ", \"bytes_per_flow\": %s", bpf
    if (peak != "") printf ", \"peak_heap_bytes\": %s", peak
    if (bop != "") printf ", \"bytes_per_op\": %s", bop
    if (allocs != "") printf ", \"allocs_per_op\": %s", allocs
    printf "}"
}
END { print "\n}" }
' "$TMP" > "$JSONTMP"

if [ "$MODE" = record ]; then
    OUT=${OUT:-BENCH_harness.json}
    cp "$JSONTMP" "$OUT"
    echo "wrote $OUT"
    exit 0
fi

# --compare: fresh run vs recorded baseline. ns/op gets 20% headroom (shared
# machines throttle); allocs/op is exact — the pooling work must never rot.
# The huge-mesh benchmarks run a single iteration of 8 goroutines on whatever
# cores the container grants that second, so their wall time swings ±40%
# run-to-run: they get 2x headroom (their regression signal is allocs/op and
# the recorded events/sec trend, not a 1-iteration timing).
BASE=${BASE:-BENCH_harness.json}
if [ ! -f "$BASE" ]; then
    echo "bench.sh --compare: baseline $BASE not found" >&2
    exit 1
fi
awk '
function load(line,   name, n, parts) {
    if (!match(line, /"Benchmark[^"]*"/)) return ""
    name = substr(line, RSTART + 1, RLENGTH - 2)
    ns[name] = val(line, "ns_per_op")
    al[name] = val(line, "allocs_per_op")
    bf[name] = val(line, "bytes_per_flow")
    return name
}
function val(line, key,   re, s) {
    re = "\"" key "\": *[0-9.]+"
    if (!match(line, re)) return ""
    s = substr(line, RSTART, RLENGTH)
    sub("\"" key "\": *", "", s)
    return s
}
NR == FNR { if ((n = load($0)) != "") { bns[n] = ns[n]; bal[n] = al[n]; bbf[n] = bf[n] } next }
{ load($0) }
END {
    bad = 0
    for (n in ns) {
        if (!(n in bns)) { printf "NEW   %-50s %12s ns/op\n", n, ns[n]; continue }
        status = "ok"
        headroom = (n ~ /ScenarioHuge|ScenarioMillion/) ? 2.00 : 1.20
        if (bns[n] + 0 > 0 && ns[n] + 0 > bns[n] * headroom) {
            status = "SLOWER"; bad = 1
        }
        if (al[n] != "" && bal[n] != "" && al[n] + 0 > bal[n] + 0) {
            status = "ALLOCS"; bad = 1
        }
        # Memory gate: live bytes per built flow, 25% headroom. Applies only
        # to ScenarioHuge (both sides run the same default population there;
        # ScenarioMillion compares at reduced scale, where per-network fixed
        # costs amortize differently). Skipped when either side lacks the
        # metric, so old baselines keep comparing.
        if (n ~ /ScenarioHuge/ && bf[n] != "" && bbf[n] != "" && bf[n] + 0 > bbf[n] * 1.25) {
            status = "MEMORY"; bad = 1
        }
        printf "%-6s %-50s %12s -> %-12s ns/op  allocs %s -> %s", \
            status, n, bns[n], ns[n], bal[n], al[n]
        if (bf[n] != "" && bbf[n] != "") printf "  bytes/flow %s -> %s", bbf[n], bf[n]
        printf "\n"
    }
    exit bad
}
' "$BASE" "$JSONTMP" || { echo "bench.sh --compare: regression vs $BASE" >&2; exit 1; }
echo "bench compare OK (baseline $BASE)"
