package exp

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/cc/vegas"
	"repro/internal/obs"
)

// canonicalScenarios mirror the two golden scenarios pinned in
// internal/simcheck/testdata/golden.txt: a clean cubic dumbbell and a lossy
// Jury dumbbell. The obs exactness and digest-parity tests run on them.
func canonicalScenarios() []Scenario {
	bdp := func(rate float64, rtt time.Duration) int {
		return int(rate / 8 * rtt.Seconds())
	}
	return []Scenario{
		{
			Name: "cubic-dumbbell", Rate: 24e6, OneWayDelay: 15 * time.Millisecond,
			BufferBytes: bdp(24e6, 30*time.Millisecond), Horizon: 8 * time.Second, Seed: 41,
			Flows: []FlowSpec{{Scheme: "cubic"}, {Scheme: "cubic", Start: time.Second}},
			Check: true,
		},
		{
			Name: "jury-lossy-dumbbell", Rate: 30e6, OneWayDelay: 10 * time.Millisecond,
			BufferBytes: bdp(30e6, 20*time.Millisecond) * 3 / 2, LossRate: 0.003,
			Horizon: 8 * time.Second, Seed: 43,
			Flows: []FlowSpec{{Scheme: "jury"}, {Scheme: "jury", Start: time.Second}},
			Check: true,
		},
	}
}

// TestHugeShardedDigestParity exercises real multi-shard execution: a small
// loss-free huge mesh (vegas keeps queues near-empty, so no packet drops on
// foreign shards — the one documented divergence) must digest identically at
// 1 and 4 shards.
func TestHugeShardedDigestParity(t *testing.T) {
	opt := HugeOptions{
		Segments:   4,
		TotalFlows: 96,
		Rate:       200e6,
		Horizon:    1500 * time.Millisecond,
		Seed:       5,
		Check:      true,
		CC:         func(uint64) cc.Algorithm { return vegas.New() },
	}
	one := opt
	one.Shards = 1
	a, err := RunHuge(one)
	if err != nil {
		t.Fatal(err)
	}
	four := opt
	four.Shards = 4
	b, err := RunHuge(four)
	if err != nil {
		t.Fatal(err)
	}
	if a.ShardCount != 1 || b.ShardCount != 4 {
		t.Fatalf("shard counts %d/%d, want 1/4", a.ShardCount, b.ShardCount)
	}
	if a.Events != b.Events {
		t.Fatalf("event counts diverged: %d vs %d", a.Events, b.Events)
	}
	if a.Digest != b.Digest {
		t.Fatalf("digest diverged: shards=1 %016x, shards=4 %016x", a.Digest, b.Digest)
	}
}

// TestHugeEnvShardedDigestParity is the reduced-flow smoke gate check.sh runs
// under -race with JURY_HUGE_FLOWS=5000: a loss-free mesh built through the
// environment override (TotalFlows left zero) must digest identically
// sequentially and at 4 shards. Without the variable set it pins a small
// population itself so the ordinary test run stays fast.
func TestHugeEnvShardedDigestParity(t *testing.T) {
	if os.Getenv(HugeFlowsEnv) == "" {
		t.Setenv(HugeFlowsEnv, "600")
	}
	want, _ := strconv.Atoi(os.Getenv(HugeFlowsEnv))
	opt := HugeOptions{
		// Capacity scales with the population so per-flow bandwidth stays
		// constant, and the buffers are 4 BDP deep so slow-start overshoot
		// during the staggered ramp is absorbed: vegas then keeps queues
		// shallow and the run stays drop-free, as the digest-parity contract
		// requires (a drop on a foreign shard is the one documented
		// sequential/sharded divergence).
		Rate:        2e6 * float64(want),
		BufferBytes: int(2e6 * float64(want) / 8 * 0.120),
		Horizon:     700 * time.Millisecond,
		Seed:        11,
		Check:       true,
		CC:          func(uint64) cc.Algorithm { return vegas.New() },
	}
	one := opt
	one.Shards = 1
	a, err := RunHuge(one)
	if err != nil {
		t.Fatal(err)
	}
	four := opt
	four.Shards = 4
	b, err := RunHuge(four)
	if err != nil {
		t.Fatal(err)
	}
	if a.FlowCount != want || b.FlowCount != want {
		t.Fatalf("env-driven flow counts %d/%d, want %d from %s", a.FlowCount, b.FlowCount, want, HugeFlowsEnv)
	}
	if b.ShardCount != 4 {
		t.Fatalf("sharded run used %d shards, want 4", b.ShardCount)
	}
	if a.Events != b.Events {
		t.Fatalf("event counts diverged: %d vs %d", a.Events, b.Events)
	}
	if a.Digest != b.Digest {
		t.Fatalf("digest diverged: shards=1 %016x, shards=4 %016x", a.Digest, b.Digest)
	}
}

// TestHugeFlowsEnvWiring pins the precedence of the flow-population override:
// the environment variable applies exactly when TotalFlows is zero.
func TestHugeFlowsEnvWiring(t *testing.T) {
	t.Setenv(HugeFlowsEnv, "123")
	n, o := BuildHuge(HugeOptions{})
	if len(n.Flows()) != 123 || o.TotalFlows != 123 {
		t.Fatalf("env override built %d flows (resolved %d), want 123", len(n.Flows()), o.TotalFlows)
	}
	n, o = BuildHuge(HugeOptions{TotalFlows: 48})
	if len(n.Flows()) != 48 || o.TotalFlows != 48 {
		t.Fatalf("explicit TotalFlows built %d flows (resolved %d), want 48", len(n.Flows()), o.TotalFlows)
	}
}

// TestHugeBuildShape pins the mesh's structure: flow population, spanning
// flows, and that the chain partitions into the requested shard count.
func TestHugeBuildShape(t *testing.T) {
	n, o := BuildHuge(HugeOptions{Segments: 6, TotalFlows: 200, Shards: 3, Seed: 1})
	if got := len(n.Flows()); got != 200 {
		t.Fatalf("built %d flows, want 200", got)
	}
	if got := len(n.Links()); got != o.Segments {
		t.Fatalf("built %d links, want %d", got, o.Segments)
	}
	spanning := 0
	for _, f := range n.Flows() {
		if len(f.Config().Path) > 1 {
			spanning++
		}
	}
	if want := (200 + spanStride - 1) / spanStride; spanning != want {
		t.Fatalf("%d spanning flows, want %d", spanning, want)
	}
	p, err := n.Partition(3)
	if err != nil {
		t.Fatal(err)
	}
	if p.Shards != 3 {
		t.Fatalf("mesh partitioned into %d shards, want 3", p.Shards)
	}
	if p.Window <= 0 {
		t.Fatalf("mesh shards exchange events, want positive window, got %v", p.Window)
	}
}

// liveBytesPerFlow builds a mesh of the resolved default population (so
// JURY_HUGE_FLOWS applies) and reports the live heap bytes it retains per
// flow after a full collection — the flyweight figure bench.sh records and
// gates under --compare.
func liveBytesPerFlow() float64 {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n, o := BuildHuge(HugeOptions{Seed: 7})
	runtime.GC()
	runtime.ReadMemStats(&after)
	if after.HeapAlloc <= before.HeapAlloc {
		return 0
	}
	bpf := float64(after.HeapAlloc-before.HeapAlloc) / float64(o.TotalFlows)
	runtime.KeepAlive(n)
	return bpf
}

// reportMemory attaches the memory metrics to a benchmark: live bytes per
// built flow and the heap's OS-level high-water mark over the run so far.
func reportMemory(b *testing.B) {
	b.ReportMetric(liveBytesPerFlow(), "bytes/flow")
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.HeapSys), "peak-heap-bytes")
}

// BenchObsEnv, when set non-empty, attaches the streaming fairness observer
// to the huge benchmarks: live snapshots stream from the coordinator
// barriers while the mesh runs, and each shard count reports the observer's
// fixed footprint (obs-bytes, O(shards × window), not O(flows)) plus the
// snapshot count — the million-flow-scale observability proof:
//
//	JURY_HUGE_FLOWS=10000 JURY_BENCH_OBS=1 \
//	    go test -bench BenchmarkScenarioHuge -benchtime 1x ./internal/exp
const BenchObsEnv = "JURY_BENCH_OBS"

// BenchmarkScenarioHuge measures the sharded engine on the parking-lot mesh
// (JURY_HUGE_FLOWS flows, default 10_000) at 1/2/4/8 shards. The headline
// metric is events/sec; speedup over shards=1 requires a multi-core runner —
// on one core the extra shards only add synchronization overhead. Each shard
// count also reports bytes/flow (live heap per built flow) and
// peak-heap-bytes so memory regressions gate alongside throughput.
func BenchmarkScenarioHuge(b *testing.B) {
	if os.Getenv(BenchObsEnv) != "" {
		Obs = obs.New(obs.Options{})
		defer func() { Obs = nil }()
	}
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			var events int64
			var stream *obs.StreamSummary
			for i := 0; i < b.N; i++ {
				res, err := RunHuge(HugeOptions{Shards: shards, Seed: 7})
				if err != nil {
					b.Fatal(err)
				}
				events += res.Events
				stream = res.Stream
			}
			b.StopTimer()
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
			reportMemory(b)
			if stream != nil {
				b.ReportMetric(float64(stream.Snapshots), "snapshots")
				b.ReportMetric(stream.FinalJain, "final-jain")
			}
		})
	}
}

// MillionFlowsEnv overrides BenchmarkScenarioMillion's flow population
// (default 1_000_000); bench.sh smoke runs set it low.
const MillionFlowsEnv = "JURY_MILLION_FLOWS"

// BenchmarkScenarioMillion is the million-flow capacity proof: one sharded
// run of the parking-lot mesh at 8 shards with a shortened horizon, reporting
// events/sec, bytes/flow, and peak heap. Run it with -benchtime 1x; a full
// million-flow iteration is minutes, not microseconds.
func BenchmarkScenarioMillion(b *testing.B) {
	flows := 1_000_000
	if v, err := strconv.Atoi(os.Getenv(MillionFlowsEnv)); err == nil && v > 0 {
		flows = v
	}
	b.ReportAllocs()
	var events int64
	for i := 0; i < b.N; i++ {
		res, err := RunHuge(HugeOptions{
			TotalFlows: flows,
			Shards:     8,
			Horizon:    500 * time.Millisecond,
			Seed:       7,
		})
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	b.StopTimer()
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")

	// The bytes/flow probe builds at the benchmark's own scale so the figure
	// reflects million-flow packing, not the 10k default.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n, _ := BuildHuge(HugeOptions{TotalFlows: flows, Seed: 7})
	runtime.GC()
	runtime.ReadMemStats(&after)
	if after.HeapAlloc > before.HeapAlloc {
		b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc)/float64(flows), "bytes/flow")
	}
	runtime.KeepAlive(n)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.HeapSys), "peak-heap-bytes")
}
