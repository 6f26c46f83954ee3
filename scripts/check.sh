#!/bin/sh
# check.sh — the repository's fast verification gate.
#
# Runs formatting, vet, build, the short test suite, the race detector over
# every package, and short fuzz smokes on the wire/trace/actor parsers. The full
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

echo "== every test this script names exists"
# go test -run passes when its pattern matches nothing, so a deleted or
# renamed test would silently drop out of a step below. An exact pattern
# (^(A|B)$) needs func A and func B in a _test.go file; a prefix pattern
# (^A) needs a func whose name starts with A.
testfuncs=$(grep -h -o '^func \(Test\|Fuzz\)[A-Za-z0-9_]*' $(find . -name '*_test.go') | sed 's/^func //' | sort -u)
missing=
for pat in $(grep -o "\-\(run\|fuzz\)[= ]'^[^']*'" scripts/check.sh | sed "s/^-[a-z]*[= ]'^//; s/'\$//"); do
    exact=
    case $pat in *'$') exact=1 pat=${pat%'$'} ;; esac
    for name in $(echo "$pat" | tr -d '()' | tr '|' ' '); do
        if [ -n "$exact" ]; then
            echo "$testfuncs" | grep -qx "$name" || missing="$missing $name"
        else
            echo "$testfuncs" | grep -q "^$name" || missing="$missing $name"
        fi
    done
done
if [ -n "$missing" ]; then
    echo "scripts/check.sh names tests that do not exist:$missing" >&2
    exit 1
fi

echo "== no fused multiply-add in the nn assembly"
# The vector kernels are bit-identical to their Go bodies because each lane
# rounds the product and then the sum, as MULSD/ADDSD do; a fused
# multiply-add rounds once and changes bits (DESIGN.md "Batched linear
# algebra").
if grep -n 'VFMADD\|VFMSUB\|VFNMADD\|VFNMSUB' internal/nn/*.s; then
    echo "fused multiply-add in internal/nn assembly (see the matches above)" >&2
    exit 1
fi

echo "== one run path: attach sites and network builders"
# Outside bench/ and tests, the checker and the streaming observer are
# attached to a network by the run pipeline alone, and only the topology
# builders and the Fig. 4/5 probes construct one in internal/exp and cmd.
sources=$(find . -name '*.go' -not -name '*_test.go' -not -path './bench/*')
for call in 'simcheck\.Attach(' 'Obs\.Attach('; do
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

echo "== one figure registry: cmd/jury runs a figure only through exp.Figures"
# Which figures exist, at what scale, and what each prints and draws is one
# table, internal/exp/figures.go (DESIGN.md "Figures"); jury exp and jury plot
# look an id up in it and keep no scale or figure runner of their own.
jury_sources=$(find cmd/jury -name '*.go' -not -name '*_test.go')
if grep -n 'figScale\|exp\.\(Fig[0-9]\|Tab3\|RunAblation\|RunMultiBottleneck\)' $jury_sources; then
    echo "cmd/jury runs a figure outside exp.Figures (see the matches above)" >&2
    exit 1
fi
# Every options type's zero value is the reduced scale, so an entry writes
# out only its -full options; a two-sided scale table must not come back.
if grep -n 'scale\[\|reduced:' internal/exp/figures.go; then
    echo "internal/exp/figures.go writes out a reduced scale; the zero options are the reduced scale (see the matches above)" >&2
    exit 1
fi

echo "== telemetry imports no package of this module"
# It attaches nothing to a network: the run pipeline adds each finished run's
# totals to its counters (DESIGN.md "Observability").
if go list -f '{{join .Imports "\n"}}' ./internal/telemetry | grep '^repro/'; then
    echo "internal/telemetry imports the module packages above" >&2
    exit 1
fi

echo "== the daemon has no delay knob"
# The daemon decides as soon as a frame is read (DESIGN.md "Policy serving");
# the coalescing timer and its option were deleted and must not come back.
if grep -n 'BatchDelay\|batch-delay' $sources; then
    echo "BatchDelay / -batch-delay reintroduced (see the matches above)" >&2
    exit 1
fi

echo "== the daemon has no batcher"
# Each decision runs on the goroutine of the connection that read it
# (DESIGN.md "Policy serving"); the single batcher goroutine, its MaxBatch
# knob and the BatchDecider fast path were deleted and must not come back.
rpc_sources=$(find internal/agentrpc cmd/jury -name '*.go' -not -name '*_test.go')
if grep -n 'batchLoop\|MaxBatch\|BatchDecider' $rpc_sources; then
    echo "the daemon's batcher, MaxBatch or BatchDecider was reintroduced (see the matches above)" >&2
    exit 1
fi

echo "== the daemon serves one policy and the client has one knob"
# The daemon serves the policy it started with until Close, and the client's
# only setting is its Timeout (DESIGN.md "Policy serving"); hot-swap, drain,
# the circuit breaker, dial jitter, client-side shedding and the SIGHUP
# reload were deleted and must not come back.
if grep -n 'Swap(\|Drain(\|Breaker\|JitterSeed\|MaxPending\|SIGHUP' $rpc_sources; then
    echo "a daemon hot-swap, drain, breaker, dial jitter, client shedding or SIGHUP path was reintroduced (see the matches above)" >&2
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

echo "== one default per knob: no constructor in core, rl or cc fills a zero config field"
# Each default is written once, in a DefaultX function, and constructors take
# their config as given (DESIGN.md "Configuration"). A line `if cfg.X == 0 {`
# or `if cfg.X <= 0 {` followed by `cfg.X = …` writes a default a second time
# and makes a zero impossible to ask for.
fills=$(awk '
    FNR == 1 { field = "" }
    field != "" && $0 ~ ("^[ \t]*cfg\\." field "[ \t]*=[^=]") { print FILENAME ":" FNR-1 ": " prev }
    { field = "" }
    /^[ \t]*if cfg\.[A-Za-z0-9_]+ (==|<=) 0 \{/ { field = $2; sub(/^cfg\./, "", field); prev = $0 }
' $(find internal/core internal/rl internal/cc -name '*.go' -not -name '*_test.go'))
if [ -n "$fills" ]; then
    echo "a constructor fills a zero config field (set it in the DefaultX function instead):" >&2
    echo "$fills" >&2
    exit 1
fi

echo "== the run store is one log read one way"
# wal.log is the store's only file and Open its only reader (DESIGN.md "Run
# store"); the snapshot file, compaction and the offline Verify scan were
# deleted and must not come back.
store_sources=$(find internal/runstore cmd/jury -name '*.go' -not -name '*_test.go')
if grep -n 'CompactEvery\|snapshot\.dat\|func (s \*Store) Compact\|func Verify' $store_sources; then
    echo "a run-store snapshot, compaction or Verify path was reintroduced (see the matches above)" >&2
    exit 1
fi

echo "== one flow description, one run record"
# A flow's controller reaches netsim one way (FlowConfig.Alg), and a finished
# scenario run is one runstore.Record (embedded in exp.RunResult) with the
# obs summary in it (DESIGN.md "Run pipeline"); the factory field, the
# summary mirrors and their converters were deleted and must not come back.
go_sources=$(find . -name '*.go' -not -path './bench/*')
one_rec=
if grep -nE 'CC: *func\(\) (cc\.Algorithm|jury\.CC)' $go_sources; then one_rec=1; fi
if grep -nE '^[[:space:]]+CC[[:space:]]+[^:=[:space:]]' $(find internal/netsim -name '*.go' -not -name '*_test.go'); then one_rec=1; fi
if grep -rnE 'type StreamSummary\b' --include='*.go' . | grep -v '^\./internal/obs/'; then one_rec=1; fi
if grep -nE 'type (FlowSummary|LinkSummary)\b' internal/exp/*.go; then one_rec=1; fi
if [ -n "$one_rec" ]; then
    echo "a second flow-controller field or run-summary type is back (see the matches above)" >&2
    exit 1
fi

echo "== netsim re-arms timers in place: non-test internal/netsim calls .Cancel() only in Flow.stop"
# Cancel followed by ScheduleArg leaves a cancelled twin in the event queue
# for the engine to pop and drain; Engine.Rearm re-keys the queued event in
# place with the same executed stream (DESIGN.md "Event queue").
cancels=$(awk '/^func /{fn=$0} /\.Cancel\(\)/{print FILENAME ": " fn}' $(find internal/netsim -name '*.go' -not -name '*_test.go'))
if [ "$cancels" != "internal/netsim/flow.go: func (f *Flow) stop() {" ]; then
    echo "internal/netsim calls .Cancel() outside Flow.stop (use Engine.Rearm):" >&2
    echo "$cancels" >&2
    exit 1
fi

echo "== serialization is not an event: non-test internal/netsim/link.go schedules with neither ScheduleArg nor ScheduleArgAfter"
# A link books each packet's departure when the packet arrives and queues
# only what leaves it: the onward hop or the ACK, stamped through InjectArg
# or the coordinator (DESIGN.md "Event queue"). A link-side timer would bring
# back a per-packet event that decides nothing.
if grep -n 'ScheduleArg(\|ScheduleArgAfter(' internal/netsim/link.go; then
    echo "internal/netsim/link.go schedules a timer event (see the matches above)" >&2
    exit 1
fi

echo "== one environment variable: non-test code outside bench/ reads JURY_SIMCHECK and nothing else"
# Run sizes are options, not environment knobs (internal/exp/exp.go reads the
# one variable, which forces the simcheck checker onto every run).
if grep -n 'os\.Getenv(\|os\.LookupEnv(\|os\.Environ(' $sources | grep -v 'os\.Getenv("JURY_SIMCHECK")'; then
    echo "non-test code outside bench/ reads an environment variable (see the matches above)" >&2
    exit 1
fi

echo "== one binary: package main only in cmd/jury and bench/, each shared flag declared once"
# The five mains became subcommands of cmd/jury (README.md "Command line") and
# the examples became Example functions; bench/ is the benchmark program. The
# telemetry/obs flags every subcommand shares are registered by one helper.
mains=$(grep -rl --include='*.go' '^package main$' . | xargs -n1 dirname | sort -u | tr '\n' ' ')
if [ "$mains" != "./bench ./cmd/jury " ]; then
    echo "package main outside cmd/jury and bench/: $mains" >&2
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

echo "== go test -short ./... (includes the root TestNoTestOnlyAPI guard: no exported identifier only tests use, beyond testdata/test_only_api.txt), then the paper claims it skips"
go test -short ./...
go test -run '^TestPaperClaims$' -count=1 ./internal/exp

echo "== nn + rl again on the Go kernel bodies alone (-tags purego): every kernel oracle (axpy, MatMulT, MatMul, MatMulTSet/Acc, Adam) then compares the Go body with itself, and the pinned six-network hash must hold without the AVX bodies"
go test -tags purego ./internal/nn ./internal/rl

echo "== every nn + rl benchmark runs once, on the kernels and on the Go bodies alone"
# A benchmark that panics or stops building is otherwise only found by hand.
go test -run '^$' -bench . -benchtime 1x ./internal/nn ./internal/rl
go test -tags purego -run '^$' -bench . -benchtime 1x ./internal/nn ./internal/rl

echo "== zero-alloc hot paths under the race detector: TD3 update (GOMAXPROCS=4, + worker-count determinism, + the pinned weights with the pool's helpers parked and spinning, + Close during a spin, + the one-pass gradient finish against the separate passes), replay SampleIndices+At, event scheduling and re-arming (+ Rearm's equivalence to Cancel+ScheduleArg, the timer wheel's heap-identical pop order, its re-anchor, far timers kept out of the heap, and the executing event's schedule stamp), NN ForwardInto (+ its one-row kernel, the backward row kernels and the Adam step against their Go bodies), and a scenario's allocation ceiling"
GOMAXPROCS=4 go test -race -run '^(TestUpdateWorkerCountDeterminism|TestUpdateAllocFree|TestUpdateAllocFreeWorkers|TestReplaySampleAllocFree|TestPoolParkedAndSpinningPinned|TestCloseDuringSpin|TestFinishFoldMatchesReference)$' -count=1 ./internal/rl
go test -race -run '^(TestScheduleArgAllocFree|TestRearmMatchesCancelSchedule|TestRearmStaleHandleSchedulesFresh|TestWheelPopOrderMatchesHeap|TestWheelDrainReanchors|TestFarTimersStayOutOfHeap|TestSchedAtReportsExecutingStamp)$' -count=1 ./internal/simcore
go test -race -run '^(TestScratchPathsAllocFree|TestForwardIntoKernelMatchesGoBody|TestMatMulKernelMatchesGoBody|TestMatMulTAccKernelMatchesGoBody|TestAdamKernelMatchesGoBody)$' -count=1 ./internal/nn
go test -race -run '^TestScenarioAllocCeiling$' -count=1 ./internal/exp

echo "== delivery and serialization are not events, under the race detector: a link books each departure on arrival and its last link schedules the ACK (one event per acked packet, every RTT exact), a run stepped in 30 ms Run calls records the one-Run series while reallocating each flow's series O(log samples) times, and the golden digests hold"
go test -race -run '^(TestLastHopSchedulesAck|TestSteppedRunSeriesGrowsGeometrically)$' -count=1 ./internal/netsim
go test -race -run '^TestGoldenEventStreamDigests$' -count=1 ./internal/simcheck

echo "== go test -race -short ./..."
go test -race -short ./...

echo "== fault-matrix smoke under the race detector"
go test -race -short -run '^TestFaultMatrix' ./internal/simcheck

echo "== sharded engine: digest parity (huge mesh 1 vs 4 shards, netsim sequential vs sharded) + live bytes per mesh flow"
go test -run '^(TestHugeShardedDigestParity|TestHugeLiveBytesPerFlow)$' -count=1 ./internal/exp
go test -run '^TestRunShardedMatchesSequential$' -count=1 ./internal/netsim

echo "== sharded engine: reduced-flow parity smoke (5,000 flows, -race)"
go test -race -run '^TestHugeEnvShardedDigestParity$' -count=1 -timeout 20m ./internal/exp

echo "== shard coordinator race smoke"
go test -race -run '^TestCoordinator' -count=1 ./internal/simcore
go test -race -run '^(TestRunSharded|TestPartition)' -count=1 ./internal/netsim
go test -race -run '^TestSharded' -count=1 ./internal/simcheck

echo "== telemetry: disabled-path zero-alloc + digest parity + one help string per family + sim counters folded at run end"
go test -run '^(TestDisabledZeroAlloc|TestEnabledEventZeroAlloc|TestNilSafety|TestTelemetryDigestParity|TestPreRegisteredHelpIsStable)$' -count=1 ./internal/telemetry
go test -run '^TestSimTotalsFoldMatchesTap$' -count=1 ./internal/exp

echo "== telemetry: metric-family get-or-create race + concurrent histogram"
go test -race -run '^(TestRegistryConcurrentGetOrCreate|TestHistogramConcurrent)$' -count=1 ./internal/telemetry

echo "== streaming obs: zero-alloc hot path + streaming-vs-post-hoc Jain + digest parity + pinned mesh quantiles"
go test -run '^(TestSampleRecordedAllocs|TestSketchObserveAllocs|TestStreamingJainMatchesPostHoc)' -count=1 ./internal/obs
go test -run '^(TestObsStreamingJainMatchesPostHoc|TestObsDigestParity|TestObsShardedDigestParity|TestObsFlightRecorderOnFaults|TestObsHugeMeshSummaryPinned)$' -count=1 ./internal/exp

echo "== inference daemon: chaos matrix + per-connection execution + framing + zero-alloc execute under the race detector, and one NNPolicy shared by 8 goroutines"
go test -race -run '^(TestExecuteAllocFree|TestChaos|TestServerWriteDeadlineDropsStalledReader|TestRuntimeNonFiniteFallsBack|TestServingDeadlineAnswersERR|TestHeldDecisionBlocksNoOtherConnection|TestLoneClientNeverWaitsForCompany|TestFramingPipelinedAndDribbled)' -count=1 ./internal/agentrpc
go test -race -run '^TestNNPolicyConcurrentDecide$' -count=1 ./internal/core

echo "== run store: crash matrix + bit-flip sweep + identical re-put + read-only repair under the race detector"
go test -race -short -run '^(TestCrashMatrix|TestBitFlipSweep|TestLastWinsAndDigestMismatch|TestReadOnly)$' -count=1 ./internal/runstore

echo "== run store: warm-sweep skip + kill-and-resume"
go test -run '^(TestRunManyWarmStoreSkipsSimulation|TestKillAndResumeSweep|TestTornAppendLeavesStoreIntact|TestScenarioKeyStability)$' -count=1 ./internal/exp

echo "== fuzz smoke (10s each)"
go test -run='^$' -fuzz='^FuzzMahimahiParse$' -fuzztime=10s ./internal/traces
go test -run='^$' -fuzz='^FuzzAgentRPCDecode$' -fuzztime=10s ./internal/agentrpc
go test -run='^$' -fuzz='^FuzzWALDecode$' -fuzztime=10s ./internal/runstore
go test -run='^$' -fuzz='^FuzzActorJSON$' -fuzztime=10s ./internal/nn

echo "OK"
