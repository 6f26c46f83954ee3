#!/bin/sh
# check.sh — the repository's fast verification gate.
#
# Runs formatting, vet, build, the short test suite, the race detector over
# every package, and short fuzz smokes on the wire/trace parsers. The full
# suite (go test ./...) adds the full-scale emulation tests gated behind
# -short; JURY_SIMCHECK=1 additionally audits every experiment scenario with
# the simcheck invariant checker (exp's own tests always do).
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet ./... (asmdecl checks internal/nn/gemm_amd64.s), then the purego build of nn and rl"
go vet ./...
go vet -tags purego ./internal/nn ./internal/rl

echo "== go build ./..."
go build ./...

echo "== one run path: attach sites and network builders"
# Outside bench/ and tests, the checker, telemetry and the streaming observer
# are attached to a network by the run pipeline alone, and only the topology
# builders and the Fig. 4/5 probes construct one in internal/exp and cmd.
sources=$(find . -name '*.go' -not -name '*_test.go' -not -path './bench/*')
for call in 'simcheck\.Attach(' 'telemetry\.AttachSim(' 'Obs\.Attach('; do
    sites=$(grep -l "$call" $sources || true)
    if [ "$sites" != "./internal/exp/pipeline.go" ]; then
        echo "$call must be called from internal/exp/pipeline.go only, found in:" >&2
        echo "$sites" >&2
        exit 1
    fi
done
builders=$(grep -l 'netsim\.New(' $(find internal/exp cmd -name '*.go' -not -name '*_test.go') | sort | tr '\n' ' ')
want="internal/exp/exp.go internal/exp/fig_signals.go internal/exp/huge.go internal/exp/multibottleneck.go "
if [ "$builders" != "$want" ]; then
    echo "netsim.New( outside the topology builders and fig_signals.go: $builders" >&2
    exit 1
fi

echo "== the batcher has no delay knob"
# The daemon's batching is work-conserving (DESIGN.md "Server-side batching");
# the coalescing timer and its option were deleted and must not come back.
if grep -n 'BatchDelay\|batch-delay' $sources; then
    echo "BatchDelay / -batch-delay reintroduced (see the matches above)" >&2
    exit 1
fi

echo "== the learner has no worker-count knob"
# TD3.Update runs every phase on all cores GOMAXPROCS grants, bit-identically
# at any count (DESIGN.md "Batched linear algebra"); rl.Config.Workers,
# core.TrainOptions.UpdateWorkers and `jury train -workers` were deleted and
# must not come back under any name.
if grep -n 'UpdateWorkers' $sources ||
    grep -n '\bWorkers\b' $(find internal/rl -name '*.go' -not -name '*_test.go') ||
    grep -n '"workers"' cmd/jury/*.go; then
    echo "a TD3 worker-count knob was reintroduced (see the matches above)" >&2
    exit 1
fi

echo "== one binary: one package main under cmd/, each shared flag declared once"
# The five mains became subcommands of cmd/jury (README.md "Command line");
# the telemetry/obs flags every subcommand shares are registered by one helper.
mains=$(grep -rl --include='*.go' '^package main$' cmd | xargs -n1 dirname | sort -u)
if [ "$mains" != "cmd/jury" ]; then
    echo "package main outside cmd/jury: $mains" >&2
    exit 1
fi
cmdsources=$(find cmd -name '*.go' -not -name '*_test.go')
for name in telemetry trace-out debug-addr obs obs-window flight-dir; do
    if [ "$(grep -h "\"$name\"," $cmdsources | wc -l)" -ne 1 ]; then
        echo "flag -$name must be declared exactly once under cmd/, found:" >&2
        grep -n "\"$name\"," $cmdsources >&2
        exit 1
    fi
done

echo "== go test -short ./..."
go test -short ./...

echo "== nn + rl again on the Go kernel bodies alone (-tags purego)"
go test -tags purego ./internal/nn ./internal/rl

echo "== TD3 update: worker-count determinism + zero-alloc paths under the race detector, GOMAXPROCS=4"
GOMAXPROCS=4 go test -race -run '^(TestUpdateWorkerCountDeterminism|TestUpdateAllocFree|TestUpdateAllocFreeWorkers)$' -count=1 ./internal/rl

echo "== go test -race -short ./..."
go test -race -short ./...

echo "== fault-matrix smoke under the race detector"
go test -race -short -run '^TestFaultMatrix' ./internal/simcheck

echo "== sharded engine: digest parity (huge mesh 1 vs 4 shards, netsim sequential vs sharded)"
go test -run '^TestHugeShardedDigestParity$' -count=1 ./internal/exp
go test -run '^TestRunShardedMatchesSequential$' -count=1 ./internal/netsim

echo "== sharded engine: reduced-flow parity smoke (JURY_HUGE_FLOWS=5000, -race)"
JURY_HUGE_FLOWS=5000 go test -race -run '^TestHugeEnvShardedDigestParity$' -count=1 -timeout 20m ./internal/exp

echo "== shard coordinator race smoke"
go test -race -run '^TestCoordinator' -count=1 ./internal/simcore
go test -race -run '^(TestRunSharded|TestPartition)' -count=1 ./internal/netsim
go test -race -run '^TestSharded' -count=1 ./internal/simcheck

echo "== telemetry: disabled-path zero-alloc + digest parity"
go test -run '^(TestDisabledZeroAlloc|TestEnabledEventZeroAlloc|TestNilSafety|TestTelemetryDigestParity)$' -count=1 ./internal/telemetry

echo "== telemetry: metric-family get-or-create race + histogram bucket validation"
go test -race -run '^(TestRegistryConcurrentGetOrCreate|TestHistogramBucketValidation|TestTenantMetricNameCollision)$' -count=1 ./internal/telemetry

echo "== streaming obs: zero-alloc hot path + streaming-vs-post-hoc Jain + digest parity"
go test -run '^(TestSampleRecordedAllocs|TestSketchObserveAllocs|TestStreamingJainMatchesPostHoc)' -count=1 ./internal/obs
go test -run '^(TestObsStreamingJainMatchesPostHoc|TestObsDigestParity|TestObsShardedDigestParity|TestObsFlightRecorderOnFaults)$' -count=1 ./internal/exp

echo "== inference daemon: chaos matrix + batching rule + framing under the race detector"
go test -race -run '^(TestChaos|TestClientShedsAboveMaxPending|TestServerWriteDeadlineDropsStalledReader|TestDialBackoffJitterDesynchronizes|TestRuntimeNonFiniteRollsBack|TestDrainAnswersInFlight|TestBatchCoalescing|TestBatchNeverExceedsMaxBatch|TestLoneClientNeverWaitsForCompany|TestFramingPipelinedAndDribbled)' -count=1 ./internal/agentrpc

echo "== run store: crash matrix + bit-flip sweep under the race detector"
go test -race -short -run '^(TestCrashMatrix|TestCompactionCrashMatrix|TestBitFlipSweep)$' -count=1 ./internal/runstore

echo "== run store: warm-sweep skip + kill-and-resume"
go test -run '^(TestRunManyWarmStoreSkipsSimulation|TestKillAndResumeSweep|TestRetryPathLeavesStoreIntact|TestScenarioKeyStability)$' -count=1 ./internal/exp

echo "== bench harness smoke (1 iteration per benchmark)"
scripts/bench.sh --smoke

echo "== fuzz smoke (10s each)"
go test -run='^$' -fuzz='^FuzzMahimahiParse$' -fuzztime=10s ./internal/traces
go test -run='^$' -fuzz='^FuzzAgentRPCDecode$' -fuzztime=10s ./internal/agentrpc
go test -run='^$' -fuzz='^FuzzWALDecode$' -fuzztime=10s ./internal/runstore

echo "OK"
